"""Test oracles of the NIG marginal likelihood: a brute-force double quadrature,
and the NIG form of its negative log.

Marginalising N(y | mu, s2) over an NIG prior on (mu, s2) gives a Student's
t in closed form (Deep Evidential Regression, Amini et al., NeurIPS 2020);
`evfuse.distributions.nig_to_student_t` and `student_t_pdf` must match this
numerical integral of the same marginal, and `evfuse.losses.nig_nll`, which
takes the t NLL of the converted parameters, must match the NIG form.
"""

import math

import numpy as np
from scipy.special import gammaln

from evfuse.distributions import NIGParams, nig_epistemic

# the mean's grid spans gamma +- MU_HALFWIDTH_STDS * sqrt(epistemic)
MU_HALFWIDTH_STDS = 12.0
# the log-spaced variance grid spans beta/alpha * [VAR_LO_FACTOR, VAR_HI_FACTOR]
VAR_LO_FACTOR, VAR_HI_FACTOR = 1e-3, 1e3
# bound on the elements of one (len(ys), nodes, chunk) block of the integrand
CHUNK_ELEMENTS = 2e7


def _simpson_weights(n: int, h: float) -> np.ndarray:
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def nig_marginal_pdf_quadrature(p: NIGParams, ys, nodes: int) -> np.ndarray:
    """The marginal density at each of `ys`: the double integral of
    N(y | mu, s2) * NIG(mu, s2 | p) on Simpson grids of `nodes` points over
    mu and over log s2.  `nodes` must be odd and at least 3."""
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError(f"nodes must be an odd integer >= 3, got {nodes}")
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    half = MU_HALFWIDTH_STDS * math.sqrt(nig_epistemic(p))
    mu = np.linspace(p.gamma - half, p.gamma + half, nodes)
    w_mu = _simpson_weights(nodes, mu[1] - mu[0])
    t = np.linspace(math.log(p.beta / p.alpha * VAR_LO_FACTOR),
                    math.log(p.beta / p.alpha * VAR_HI_FACTOR), nodes)
    w_t = _simpson_weights(nodes, t[1] - t[0])
    s2 = np.exp(t)
    log_ig = p.alpha * math.log(p.beta) - math.lgamma(p.alpha) - (p.alpha + 1.0) * t - p.beta / s2

    out = np.zeros(len(ys))
    chunk = max(1, int(CHUNK_ELEMENTS // (len(ys) * nodes)))
    yy, mm = ys[:, None, None], mu[None, :, None]
    for j0 in range(0, nodes, chunk):
        j = slice(j0, min(j0 + chunk, nodes))
        ss = s2[None, None, j]
        log_f = (
            -0.5 * (yy - mm) ** 2 / ss
            - 0.5 * np.log(2.0 * math.pi * ss)
            - 0.5 * p.delta * (mm - p.gamma) ** 2 / ss
            - 0.5 * np.log(2.0 * math.pi * ss / p.delta)
            + log_ig[None, None, j]
            + t[None, None, j]  # jacobian of the log-space substitution
        )
        out += np.einsum("m,ymj->yj", w_mu, np.exp(log_f)) @ w_t[j]
    return out


def nig_nll_closed_form(gamma, delta, alpha, beta, y):
    """-log of the NIG marginal at y, written in the NIG parameters (Amini et
    al., 2020, eq. 8) rather than through the NIG -> t map; broadcasts."""
    r = (y - gamma) ** 2 * delta + 2.0 * beta * (1.0 + delta)
    return (
        gammaln(alpha)
        - gammaln(alpha + 0.5)
        + 0.5 * (math.log(math.pi) - np.log(delta))
        - alpha * np.log(2.0 * beta * (1.0 + delta))
        + (alpha + 0.5) * np.log(r)
    )
