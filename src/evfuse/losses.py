"""Evidential losses and their analytic gradients.

The objective sums, over the M modality Student's t's and the fused one,
the t negative log-likelihood of a one-hot target summed over class
channels plus a weighted cross-entropy over the locations.  A modality's
term is its NIG NLL: the NIG marginal is the t with u = gamma,
sigma = beta (1 + delta) / (delta alpha) and v = 2 alpha (Amini et al.,
2020), so one kernel, `distributions.st_nll_and_grads_arrays`, evaluates
all M + 1 terms and their adjoints at once, its gamma-function ratios
included, in numpy.  The fused adjoints go back
through the fusion rule, and then all of them through the NIG -> t map to
the NIG parameters.
`nig_nll` (the NIG form, through that map) and `student_t_nll` (the t
form) are scalar wrappers over the same kernel.
`class_posterior` is the readout's confidence; `reduce_last_axis` and
`argmax_last_axis` reduce its short class axis as column ops.
"""

from __future__ import annotations

import numpy as np

from .distributions import (
    NIGParams,
    StudentT,
    nig_to_st_arrays,
    st_nll_and_grads_arrays,
    st_nll_arrays,
)
from .fusion import fuse_stack, fuse_stack_backward


def nig_nll(p: NIGParams, y: float) -> float:
    """Negative log marginal likelihood of an NIG prior at observation y: the
    t NLL of its converted parameters."""
    return float(st_nll_arrays(*nig_to_st_arrays(p.gamma, p.delta, p.alpha, p.beta), y))


def student_t_nll(st: StudentT, y: float) -> float:
    """Negative log-likelihood of a Student's t at observation y."""
    return float(st_nll_arrays(st.u, st.sigma, st.v, y))


def reduce_last_axis(ufunc, x: np.ndarray) -> np.ndarray:
    """`ufunc.reduce(x, axis=-1, keepdims=True)` for `np.maximum` or `np.add`,
    as K - 1 column ops over the K entries of the last axis.

    Numpy reduces a short last axis row by row, which on an (N, 3) block is
    ten times slower than three column ops.  The values are the same bits: a
    max is exact, and numpy adds an axis shorter than 8 from left to right.
    An axis of 8 or more it adds with 8 accumulators, so there this takes
    numpy's own reduction.
    """
    k = x.shape[-1]
    if k >= 8:
        return ufunc.reduce(x, axis=-1, keepdims=True)
    out = x[..., :1].copy()
    col = out[..., 0]
    for j in range(1, k):
        ufunc(col, x[..., j], out=col)
    return out


def argmax_last_axis(x: np.ndarray) -> np.ndarray:
    """`np.argmax(x, axis=-1)` as K - 1 column compares and maxima.

    Numpy's argmax walks a short last axis row by row.  Here a later column
    takes the row only when it is strictly greater than the running maximum,
    so ties go to the first, as in numpy.  A row holding a NaN, which numpy
    answers with its first NaN, is handed to numpy's own argmax.
    """
    best = x[..., 0].copy()
    idx = np.zeros(best.shape, dtype=np.intp)
    for j in range(1, x.shape[-1]):
        col = x[..., j]
        np.maximum(idx, (col > best) * j, out=idx)  # j exceeds every earlier index
        np.maximum(best, col, out=best)  # a NaN stays in `best`
    nan = np.isnan(best)
    if nan.any():
        idx[nan] = np.argmax(x[nan], axis=-1)
    return idx


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis."""
    e = np.exp(x - reduce_last_axis(np.maximum, x))
    return e / reduce_last_axis(np.add, e)


def class_posterior(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Posterior over classes from per-channel predictive densities.

    The channel score is log pdf(1) - log pdf(0) under the channel's
    Student's t; softmax of the scores is the posterior under a uniform
    class prior with independent channels.  The normalizing terms cancel:
    the score is (v + 1)/2 (log(1 + u^2/(v sigma)) - log(1 + (1 - u)^2/(v sigma))).
    """
    vs = v * sigma
    llr = 0.5 * (v + 1.0) * (np.log1p(u**2 / vs) - np.log1p((1.0 - u) ** 2 / vs))
    return softmax(llr)


def cross_entropy_arrays(logits: np.ndarray, y_onehot: np.ndarray):
    """CE against one-hot targets along the last axis, with its gradient."""
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    s = np.add.reduce(e, axis=-1, keepdims=True)
    ce = np.log(s[..., 0]) - np.add.reduce(z * y_onehot, axis=-1)
    return ce, e / s - y_onehot


def total_loss_and_grads_arrays(gamma, delta, alpha, beta, y_onehot, lam):
    """Loss terms and gradients of the full objective, vectorized.

    Parameter arrays share one shape (M, ..., K): leading modality axis,
    trailing class axis; `y_onehot` broadcasts against (..., K).  Returns
    (parts, grads) where parts is a dict of loss arrays with shape (...)
    (per_modality_nig keeps the modality axis) and grads has shape
    (M, ..., K, 4) with the last axis ordered (gamma, delta, alpha, beta).
    """
    u, sigma, v = nig_to_st_arrays(gamma, delta, alpha, beta)
    trace = fuse_stack(u, sigma, v)
    m = len(u)
    # the M modality t's and the fused t, stacked along the modality axis
    us, ss, vs = (
        np.concatenate((a, f[None])) for a, f in ((u, trace.u), (sigma, trace.sigma), (v, trace.v))
    )
    nll, g_u, g_sigma, g_v = st_nll_and_grads_arrays(us, ss, vs, y_onehot)
    ce, g_ce = cross_entropy_arrays(us, y_onehot)
    terms = np.add.reduce(nll, axis=-1) + lam * ce  # (M + 1, ...)
    total = np.add.reduce(terms, axis=0)
    parts = {"per_modality_nig": terms[:m], "fused_st": terms[m], "total": total}

    # the fused adjoints back through the fusion, joined with the modality ones
    g_u += lam * g_ce
    gu_f, gs_f, gv_f = fuse_stack_backward(trace, g_u[m], g_sigma[m], g_v[m])
    # then through the NIG -> t map: log sigma = log beta + log(1 + delta)
    # - log delta - log alpha, and v = 2 alpha
    g_log_sigma = (g_sigma[:m] + gs_f) * sigma
    grads = np.empty(sigma.shape + (4,))  # columns (gamma, delta, alpha, beta)
    np.add(g_u[:m], gu_f, out=grads[..., 0])
    np.divide(g_log_sigma, delta * (-1.0 - delta), out=grads[..., 1])
    g_alpha = g_v[:m] + gv_f
    g_alpha *= 2.0
    np.subtract(g_alpha, g_log_sigma / alpha, out=grads[..., 2])
    np.divide(g_log_sigma, beta, out=grads[..., 3])
    return parts, grads
