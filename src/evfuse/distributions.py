"""Normal-Inverse-Gamma and Student's t distribution primitives.

The NIG distribution is the conjugate evidential prior over a Gaussian's
mean and variance.  Marginalizing the Gaussian likelihood over an NIG prior
yields a univariate Student's t predictive distribution in closed form.

Each formula is written once, as an array kernel (`*_arrays`) that training,
inference and evaluation call; the scalar functions on `NIGParams` /
`StudentT` are wrappers over those kernels.
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


def st_nll_and_grads_arrays(u, sigma, v, y):
    """Student's t NLL at y and its partials in (u, sigma, v), sharing every intermediate.

    With z = y - u, w = z^2 / (v sigma), q = 1 + w, h = v / 2, k = (h + 1/2) / q
    and t = 1/2 - k w:  NLL = log G(h) - log G(h + 1/2) + log(v pi sigma) / 2
    + (h + 1/2) log q,  d/du = -2 k z / (v sigma),  d/dsigma = t / sigma,
    d/dv = (psi(h) - psi(h + 1/2) + log q) / 2 + t / v.
    """
    from scipy.special import digamma, gammaln

    z = y - u
    vs = v * sigma
    w = z**2 / vs
    q = 1.0 + w
    log_q = np.log(q)
    h = 0.5 * v
    h1 = h + 0.5
    nll = gammaln(h) - gammaln(h1) + 0.5 * np.log(v * math.pi * sigma) + h1 * log_q
    k = h1 / q
    t = 0.5 - k * w
    d_u = -2.0 * k * z / vs
    d_v = 0.5 * (digamma(h) - digamma(h1) + log_q) + t / v
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
