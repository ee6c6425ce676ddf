"""Normal-Inverse-Gamma and Student's t distribution primitives.

The NIG distribution is the conjugate evidential prior over a Gaussian's
mean and variance.  Marginalizing the Gaussian likelihood over an NIG prior
yields a univariate Student's t predictive distribution in closed form.

Each formula is written once, as an array kernel (`*_arrays`) that training,
inference and evaluation call; the scalar functions on `NIGParams` /
`StudentT` are wrappers over those kernels.  The t log-density's gamma
and digamma ratios come from a numpy kernel, `_gamma_ratio_arrays`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class NIGParams:
    """Evidential parameters (gamma, delta, alpha, beta) for one scalar target.

    gamma is the location, delta > 0 scales the mean's precision, and
    (alpha, beta) shape the inverse-gamma prior on the variance.  alpha > 1
    guarantees the predictive distribution has finite variance.
    """

    gamma: float
    delta: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not (self.delta > 0):
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not (self.alpha > 1):
            raise ValueError(f"alpha must be > 1, got {self.alpha}")
        if not (self.beta > 0):
            raise ValueError(f"beta must be > 0, got {self.beta}")


@dataclass(frozen=True)
class StudentT:
    """Univariate Student's t distribution.

    u is the location, sigma the (squared) scale, and v the degrees of
    freedom.  v > 2 keeps the variance finite; it holds automatically for
    distributions converted from a valid NIG (v = 2*alpha with alpha > 1).
    """

    u: float
    sigma: float
    v: float

    def __post_init__(self):
        for name in ("u", "sigma", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.sigma > 0):
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if not (self.v > 2):
            raise ValueError(f"v must be > 2, got {self.v}")


# ---------------------------------------------------------------------------
# array kernels: the only implementation of each formula; they broadcast over
# any shape and take plain floats too


def nig_moments_arrays(delta, alpha, beta):
    """Aleatoric E[sigma^2] = beta/(alpha-1) and epistemic Var[mu] = beta/(delta(alpha-1))."""
    return beta / (alpha - 1.0), beta / (delta * (alpha - 1.0))


def nig_to_st_arrays(gamma, delta, alpha, beta):
    """NIG -> Student's t: u = gamma, sigma = beta(1+delta)/(delta alpha), v = 2 alpha."""
    sigma = beta * (1.0 + delta) / (delta * alpha)
    return gamma, sigma, 2.0 * alpha


# Stirling's series of the gamma ratio, ln G(y + 1/2) - ln G(y) = ln(y)/2
# + sum_k c_k y^-k over odd k, and of its y-derivative, psi(y + 1/2) - psi(y)
# = 1/(2y) - sum_k k c_k y^-k-1.  The two rows hold -c_k and k c_k from k = 11
# down to 1, each summed by a Horner pass in 1/y^2.
_RATIO_SERIES = tuple(zip(*[(-c, k * c) for k, c in zip(range(11, 0, -2), (
    691 / 180224, -31 / 18432, 17 / 14336, -1 / 640, 1 / 192, -1 / 8))]))
# the recurrence G(h + 1) = h G(h) carries h to y = h + 8 before the series
_RATIO_STEPS = np.arange(9.0)[:, None]


def _gamma_ratio_arrays(h):
    """ln G(h) - ln G(h + 1/2) and psi(h) - psi(h + 1/2) for h > 0.

    With h_j = h + j and y = h + 8, the recurrence gives ln G(h) - ln G(h + 1/2)
    = ln prod_j (1 + 1/(2 h_j)) - (ln G(y + 1/2) - ln G(y)) and psi(h) - psi(h + 1/2)
    = (psi(y) - psi(y + 1/2)) - sum_j (1/(2 h_j)) / (h_j + 1/2), over j = 0..7;
    Stirling's series at y > 8 finishes both.  The difference is never formed
    from two log-gammas, so it does not cancel as h grows, and no
    intermediate overflows for any finite h >= 1.  A value does not depend on
    the array's shape.
    """
    h = np.asarray(h, dtype=float)
    hj = h.reshape(-1) + _RATIO_STEPS
    y, hj = hj[-1], hj[:-1]
    r = 0.5 / hj
    x = 1.0 / y
    x2 = x * x
    acc = [x2 * coefs[0] for coefs in _RATIO_SERIES]  # then in place, with scalar constants
    for a, coefs in zip(acc, _RATIO_SERIES):
        for c in coefs[1:-1]:
            a += c
            a *= x2
        a += coefs[-1]
    lg = np.log(np.multiply.reduce(1.0 + r, axis=0) / np.sqrt(y)) + x * acc[0]
    # the sum by halves, in one order whatever the shape (numpy's own add
    # reduction takes another order on a single column)
    s = r / (hj + 0.5)
    s = s[:4] + s[4:]
    s = s[:2] + s[2:]
    dg = x * (x * acc[1] - 0.5) - (s[0] + s[1])
    return lg.reshape(h.shape), dg.reshape(h.shape)


def st_nll_and_grads_arrays(u, sigma, v, y):
    """Student's t NLL at y and its partials in (u, sigma, v), sharing every intermediate.

    With z = y - u, w = z^2 / (v sigma), q = 1 + w, h = v / 2, k = (h + 1/2) / q
    and t = 1/2 - k w:  NLL = log G(h) - log G(h + 1/2) + log(v pi sigma) / 2
    + (h + 1/2) log q,  d/du = -2 k z / (v sigma),  d/dsigma = t / sigma,
    d/dv = (psi(h) - psi(h + 1/2) + log q) / 2 + t / v.  log q is taken as
    log1p(w), so the Gaussian limit keeps its z^2 / (2 sigma) term at any v.
    """
    z = y - u
    vs = v * sigma
    w = z**2 / vs
    q = 1.0 + w
    log_q = np.log1p(w)
    h = 0.5 * v
    h1 = h + 0.5
    lg, dg = _gamma_ratio_arrays(h)
    nll = lg + 0.5 * np.log(vs * math.pi) + h1 * log_q
    k = h1 / q
    t = 0.5 - k * w
    d_u = -2.0 * k * z / vs
    d_v = 0.5 * (dg + log_q) + t / v
    return nll, d_u, t / sigma, d_v


def st_nll_arrays(u, sigma, v, y):
    """Negative log-density of the Student's t at y."""
    return st_nll_and_grads_arrays(u, sigma, v, y)[0]


def st_variance_arrays(sigma, v):
    """Variance sigma * v / (v - 2) of the Student's t; finite because v > 2."""
    return sigma * v / (v - 2.0)


# scalar wrappers over the kernels, on one NIGParams / StudentT


def nig_aleatoric(p: NIGParams) -> float:
    """Aleatoric uncertainty E[sigma^2] = beta / (alpha - 1)."""
    return nig_moments_arrays(p.delta, p.alpha, p.beta)[0]


def nig_epistemic(p: NIGParams) -> float:
    """Epistemic uncertainty Var[mu] = beta / (delta * (alpha - 1))."""
    return nig_moments_arrays(p.delta, p.alpha, p.beta)[1]


def nig_to_student_t(p: NIGParams) -> StudentT:
    """Closed-form posterior predictive of an NIG prior."""
    return StudentT(*nig_to_st_arrays(p.gamma, p.delta, p.alpha, p.beta))


def student_t_logpdf(st: StudentT, y: float) -> float:
    """Log-density of the Student's t distribution."""
    return -float(st_nll_arrays(st.u, st.sigma, st.v, y))


def student_t_pdf(st: StudentT, y: float) -> float:
    """Density of the Student's t distribution; strictly positive."""
    return math.exp(student_t_logpdf(st, y))


def student_t_variance(st: StudentT) -> float:
    """Variance sigma * v / (v - 2); finite because v > 2."""
    return st_variance_arrays(st.sigma, st.v)
