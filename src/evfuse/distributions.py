"""Normal-Inverse-Gamma and Student's t distribution primitives.

The NIG distribution is the conjugate evidential prior over a Gaussian's
mean and variance.  Marginalizing the Gaussian likelihood over an NIG prior
yields a univariate Student's t predictive distribution in closed form; a
brute-force double-integration oracle for that marginal lives here too, so
the closed form can be validated numerically.

Each formula is written once, as an array kernel (`*_arrays`) that training,
inference and evaluation call; the scalar functions on `NIGParams` /
`StudentT` are wrappers over those kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class QuadratureConvergenceError(RuntimeError):
    """Raised when successive grid refinements of the marginal-likelihood
    integral disagree by more than the requested tolerance."""


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


def st_nll_arrays(u, sigma, v, y):
    """Negative log-density of the Student's t at y, via log-gamma."""
    from scipy.special import gammaln

    q = 1.0 + (y - u) ** 2 / (v * sigma)
    return (
        gammaln(0.5 * v)
        - gammaln(0.5 * (v + 1.0))
        + 0.5 * np.log(v * math.pi * sigma)
        + 0.5 * (v + 1.0) * np.log(q)
    )


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


@dataclass(frozen=True)
class QuadratureSpec:
    """Grid specification for the brute-force marginal-likelihood integral.

    The mean is integrated on a Simpson grid covering
    gamma +- mu_halfwidth_stds * sqrt(epistemic); the variance on a
    log-spaced Simpson grid over [beta/alpha * var_lo_factor,
    beta/alpha * var_hi_factor].  `refinements` extra passes with doubled
    node counts check convergence against `refine_tol`.
    """

    mu_halfwidth_stds: float = 12.0
    mu_nodes: int = 2001
    var_lo_factor: float = 1e-3
    var_hi_factor: float = 1e3
    var_nodes: int = 2001
    refinements: int = 1
    refine_tol: float = 1e-6

    def __post_init__(self):
        for name in ("mu_nodes", "var_nodes"):
            n = getattr(self, name)
            if n < 3 or n % 2 == 0:
                raise ValueError(f"{name} must be an odd integer >= 3, got {n}")


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def _marginal_on_grid(
    p: NIGParams, ys: np.ndarray, spec: QuadratureSpec, mu_nodes: int, var_nodes: int
) -> np.ndarray:
    half = spec.mu_halfwidth_stds * math.sqrt(nig_epistemic(p))
    mu = np.linspace(p.gamma - half, p.gamma + half, mu_nodes)
    w_mu = _simpson_weights(mu_nodes, mu[1] - mu[0])

    t_lo = math.log(p.beta / p.alpha * spec.var_lo_factor)
    t_hi = math.log(p.beta / p.alpha * spec.var_hi_factor)
    t = np.linspace(t_lo, t_hi, var_nodes)
    w_t = _simpson_weights(var_nodes, t[1] - t[0])
    s2 = np.exp(t)

    log_ig = (
        p.alpha * math.log(p.beta)
        - math.lgamma(p.alpha)
        - (p.alpha + 1.0) * t
        - p.beta / s2
    )

    out = np.zeros(len(ys))
    # chunk the variance axis to bound the (n_y, n_mu, chunk) tensor
    chunk = max(1, int(2e7 // (len(ys) * mu_nodes)))
    yy = ys[:, None, None]
    mm = mu[None, :, None]
    for j0 in range(0, var_nodes, chunk):
        j1 = min(j0 + chunk, var_nodes)
        ss = s2[None, None, j0:j1]
        log_f = (
            -0.5 * (yy - mm) ** 2 / ss
            - 0.5 * np.log(2.0 * math.pi * ss)
            - 0.5 * p.delta * (mm - p.gamma) ** 2 / ss
            - 0.5 * np.log(2.0 * math.pi * ss / p.delta)
            + log_ig[None, None, j0:j1]
            + t[None, None, j0:j1]  # jacobian of the log-space substitution
        )
        inner = np.einsum("m,ymj->yj", w_mu, np.exp(log_f))
        out += inner @ w_t[j0:j1]
    return out


def nig_marginal_pdf_quadrature_many(
    p: NIGParams, ys, spec: QuadratureSpec = QuadratureSpec()
) -> np.ndarray:
    """Brute-force marginal likelihood at several points (shared grids)."""
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    vals = _marginal_on_grid(p, ys, spec, spec.mu_nodes, spec.var_nodes)
    mu_n, var_n = spec.mu_nodes, spec.var_nodes
    for _ in range(spec.refinements):
        mu_n, var_n = 2 * mu_n - 1, 2 * var_n - 1
        refined = _marginal_on_grid(p, ys, spec, mu_n, var_n)
        err = float(np.max(np.abs(refined - vals)))
        vals = refined
        if err > spec.refine_tol:
            raise QuadratureConvergenceError(
                f"marginal likelihood quadrature did not converge: refinement "
                f"changed the result by {err:.3e} > {spec.refine_tol:.1e}"
            )
    return vals


def nig_marginal_pdf_quadrature(
    p: NIGParams, y: float, spec: QuadratureSpec = QuadratureSpec()
) -> float:
    """Numerically marginalize the Gaussian likelihood over the NIG prior.

    Evaluates the double integral of N(y | mu, s2) * NIG(mu, s2 | p) over
    (mu, s2).  Serves as the independent oracle for `nig_to_student_t` /
    `student_t_pdf`.
    """
    return float(nig_marginal_pdf_quadrature_many(p, [y], spec)[0])
