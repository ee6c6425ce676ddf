"""Evidential losses and their analytic gradients.

Per modality, the loss on a one-hot target is the NIG negative
log-likelihood summed over class channels plus a weighted cross-entropy
over the location parameters.  The fused Student's t gets the analogous
treatment.  The total objective is the sum of the per-modality losses and
the fused loss.

The functions accept parameter arrays with a leading modality axis,
broadcast over batch/class axes, and return both the loss and the exact
partial derivatives with respect to every NIG parameter (the fused path is
chained through the NIG -> Student's t conversion and the fusion rule).
`nig_nll` and `student_t_nll` are scalar wrappers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import digamma, gammaln

from .distributions import NIGParams, StudentT, nig_to_st_arrays, st_nll_arrays
from .fusion import fuse_stack, fuse_stack_backward

_LOG_PI = math.log(math.pi)


def nig_nll(p: NIGParams, y: float) -> float:
    """Negative log marginal likelihood of an NIG prior at observation y."""
    return float(nig_nll_arrays(p.gamma, p.delta, p.alpha, p.beta, y))


def student_t_nll(st: StudentT, y: float) -> float:
    """Negative log-likelihood of a Student's t at observation y."""
    return float(st_nll_arrays(st.u, st.sigma, st.v, y))


def nig_nll_arrays(gamma, delta, alpha, beta, y):
    r = (y - gamma) ** 2 * delta + 2.0 * beta * (1.0 + delta)
    return (
        gammaln(alpha)
        - gammaln(alpha + 0.5)
        + 0.5 * (_LOG_PI - np.log(delta))
        - alpha * np.log(2.0 * beta * (1.0 + delta))
        + (alpha + 0.5) * np.log(r)
    )


def nig_nll_grads_arrays(gamma, delta, alpha, beta, y):
    res = y - gamma
    r = res**2 * delta + 2.0 * beta * (1.0 + delta)
    d_gamma = -(alpha + 0.5) * 2.0 * res * delta / r
    d_delta = (
        -0.5 / delta - alpha / (1.0 + delta) + (alpha + 0.5) * (res**2 + 2.0 * beta) / r
    )
    d_alpha = (
        digamma(alpha)
        - digamma(alpha + 0.5)
        - np.log(2.0 * beta * (1.0 + delta))
        + np.log(r)
    )
    d_beta = -alpha / beta + (alpha + 0.5) * 2.0 * (1.0 + delta) / r
    return d_gamma, d_delta, d_alpha, d_beta


def st_nll_grads_arrays(u, sigma, v, y):
    z = y - u
    denom = v * sigma + z**2
    q = 1.0 + z**2 / (v * sigma)
    d_u = -(v + 1.0) * z / denom
    d_sigma = 0.5 / sigma - (v + 1.0) * z**2 / (2.0 * sigma * denom)
    d_v = (
        0.5 * digamma(0.5 * v)
        - 0.5 * digamma(0.5 * (v + 1.0))
        + 0.5 / v
        + 0.5 * np.log(q)
        - (v + 1.0) * z**2 / (2.0 * v * denom)
    )
    return d_u, d_sigma, d_v


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def cross_entropy_arrays(logits: np.ndarray, y_onehot: np.ndarray):
    """CE against one-hot targets along the last axis, with its gradient."""
    m = logits.max(axis=-1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))
    ce = (lse[..., 0] - (logits * y_onehot).sum(axis=-1))
    grad = softmax(logits) - y_onehot
    return ce, grad


def total_loss_and_grads_arrays(gamma, delta, alpha, beta, y_onehot, lam):
    """Loss terms and gradients of the full objective, vectorized.

    Parameter arrays are shaped (M, ..., K): leading modality axis, trailing
    class axis, anything in between (e.g. a batch axis) broadcast.  Returns
    (parts, grads) where parts is a dict of loss arrays with shape (...)
    (per_modality_nig keeps the modality axis) and grads has shape
    (M, ..., K, 4) with the last axis ordered (gamma, delta, alpha, beta).
    """
    y = y_onehot

    nig_terms = nig_nll_arrays(gamma, delta, alpha, beta, y).sum(axis=-1)
    ce_m, ce_m_grad = cross_entropy_arrays(gamma, np.broadcast_to(y, gamma.shape))
    per_modality = nig_terms + lam * ce_m  # (M, ...)

    u, sigma, v = nig_to_st_arrays(gamma, delta, alpha, beta)
    trace = fuse_stack(u, sigma, v)
    st_terms = st_nll_arrays(trace.u, trace.sigma, trace.v, y).sum(axis=-1)
    ce_f, ce_f_grad = cross_entropy_arrays(trace.u, np.broadcast_to(y, trace.u.shape))
    fused = st_terms + lam * ce_f  # (...)

    parts = {
        "per_modality_nig": per_modality,
        "fused_st": fused,
        "total": per_modality.sum(axis=0) + fused,
    }

    # direct per-modality gradients
    d_gamma, d_delta, d_alpha, d_beta = nig_nll_grads_arrays(
        gamma, delta, alpha, beta, y
    )
    d_gamma = d_gamma + lam * ce_m_grad

    # fused path: St NLL + fused CE, back through the fusion and the conversion
    g_u, g_sigma, g_v = st_nll_grads_arrays(trace.u, trace.sigma, trace.v, y)
    g_u = g_u + lam * ce_f_grad
    gu_in, gs_in, gv_in = fuse_stack_backward(trace, g_u, g_sigma, g_v)

    d_gamma = d_gamma + gu_in
    d_beta = d_beta + gs_in * (1.0 + delta) / (delta * alpha)
    d_delta = d_delta + gs_in * (-beta / (delta**2 * alpha))
    d_alpha = d_alpha + gs_in * (-beta * (1.0 + delta) / (delta * alpha**2)) + 2.0 * gv_in

    grads = np.stack([d_gamma, d_delta, d_alpha, d_beta], axis=-1)
    return parts, grads
