"""Evidential losses and their analytic gradients.

Per modality, the loss on a one-hot target is the NIG negative
log-likelihood summed over class channels plus a weighted cross-entropy
over the location parameters.  The fused Student's t gets the analogous
treatment.  The total objective is the sum of the per-modality losses and
the fused loss.

The array functions at the bottom are the training workhorses: they accept
parameter arrays with a leading modality axis, broadcast over batch/class
axes, and return both the loss and the exact partial derivatives with
respect to every NIG parameter (the fused path is chained through the
NIG -> Student's t conversion and the fusion fold).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import digamma, gammaln

from .distributions import NIGParams, StudentT
from .fusion import fuse_stack, fuse_stack_backward

_LOG_PI = math.log(math.pi)


@dataclass(frozen=True)
class LossBreakdown:
    """Per-modality NIG losses, the fused Student's t loss, and their sum."""

    per_modality_nig: list[float]
    fused_st: float
    total: float
    lam: float


def nig_nll(p: NIGParams, y: float) -> float:
    """Negative log marginal likelihood of an NIG prior at observation y."""
    r = (y - p.gamma) ** 2 * p.delta + 2.0 * p.beta * (1.0 + p.delta)
    return (
        math.lgamma(p.alpha)
        - math.lgamma(p.alpha + 0.5)
        + 0.5 * math.log(math.pi / p.delta)
        - p.alpha * math.log(2.0 * p.beta * (1.0 + p.delta))
        + (p.alpha + 0.5) * math.log(r)
    )


def student_t_nll(st: StudentT, y: float) -> float:
    """Negative log-likelihood of a Student's t at observation y.

    Equals -log pdf, so it agrees exactly with `nig_nll` under the
    NIG -> Student's t parameter map.
    """
    q = 1.0 + (y - st.u) ** 2 / (st.v * st.sigma)
    return (
        math.lgamma(0.5 * st.v)
        - math.lgamma(0.5 * (st.v + 1.0))
        + 0.5 * math.log(st.v * math.pi * st.sigma)
        + 0.5 * (st.v + 1.0) * math.log(q)
    )


def cross_entropy(logits: Sequence[float], label: int) -> float:
    """-log softmax(logits)[label], computed via a stable log-sum-exp."""
    logits = np.asarray(logits, dtype=float)
    if logits.ndim != 1 or len(logits) < 2:
        raise ValueError("logits must be a vector of length >= 2")
    if not (0 <= label < len(logits)):
        raise ValueError(f"label {label} out of range for {len(logits)} classes")
    m = logits.max()
    return float(m + np.log(np.exp(logits - m).sum()) - logits[label])


def _check_onehot(y_onehot: Sequence[float], k: int) -> int:
    y = np.asarray(y_onehot, dtype=float)
    if len(y) != k:
        raise ValueError(f"one-hot length {len(y)} does not match {k} channels")
    ones = np.flatnonzero(y == 1.0)
    if len(ones) != 1 or not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y_onehot must contain exactly one 1 and otherwise 0s")
    return int(ones[0])


def modality_loss(
    nig_per_class: Sequence[NIGParams], y_onehot: Sequence[float], lam: float
) -> float:
    """Summed per-class NIG NLL plus lam * cross-entropy over locations."""
    label = _check_onehot(y_onehot, len(nig_per_class))
    nll = sum(nig_nll(p, yk) for p, yk in zip(nig_per_class, y_onehot))
    ce = cross_entropy([p.gamma for p in nig_per_class], label)
    return nll + lam * ce


def fused_loss(
    fused_per_class: Sequence[StudentT], y_onehot: Sequence[float], lam: float
) -> float:
    """Summed per-class Student's t NLL plus lam * cross-entropy over locations."""
    label = _check_onehot(y_onehot, len(fused_per_class))
    nll = sum(student_t_nll(st, yk) for st, yk in zip(fused_per_class, y_onehot))
    ce = cross_entropy([st.u for st in fused_per_class], label)
    return nll + lam * ce


def total_loss(
    per_modality: Sequence[Sequence[NIGParams]],
    fused: Sequence[StudentT],
    y_onehot: Sequence[float],
    lam: float,
) -> LossBreakdown:
    """Total objective: sum of per-modality losses plus the fused loss."""
    if len(per_modality) < 1:
        raise ValueError("need at least one modality")
    k = len(fused)
    for m, vec in enumerate(per_modality):
        if len(vec) != k:
            raise ValueError(f"modality {m} has {len(vec)} channels, expected {k}")
    per = [modality_loss(vec, y_onehot, lam) for vec in per_modality]
    fst = fused_loss(fused, y_onehot, lam)
    return LossBreakdown(per, fst, sum(per) + fst, lam)


def loss_gradients(
    per_modality: Sequence[Sequence[NIGParams]],
    y_onehot: Sequence[float],
    lam: float,
) -> list[np.ndarray]:
    """Gradients of the total objective w.r.t. every NIG parameter.

    The fused distributions are re-derived internally so that gradients flow
    through the conversion and the fusion rule (the min-v selection is
    treated as locally constant).  Returns one (K, 4) array per modality
    with columns (d/dgamma, d/ddelta, d/dalpha, d/dbeta).
    """
    k = len(per_modality[0])
    _check_onehot(y_onehot, k)
    gamma = np.array([[p.gamma for p in vec] for vec in per_modality])
    delta = np.array([[p.delta for p in vec] for vec in per_modality])
    alpha = np.array([[p.alpha for p in vec] for vec in per_modality])
    beta = np.array([[p.beta for p in vec] for vec in per_modality])
    y = np.asarray(y_onehot, dtype=float)
    _, grads = total_loss_and_grads_arrays(gamma, delta, alpha, beta, y, lam)
    return [grads[m] for m in range(len(per_modality))]


# ---------------------------------------------------------------------------
# array implementations (broadcast over arbitrary batch/class axes)


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


def st_nll_arrays(u, sigma, v, y):
    q = 1.0 + (y - u) ** 2 / (v * sigma)
    return (
        gammaln(0.5 * v)
        - gammaln(0.5 * (v + 1.0))
        + 0.5 * np.log(v * math.pi * sigma)
        + 0.5 * (v + 1.0) * np.log(q)
    )


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


def nig_to_st_arrays(gamma, delta, alpha, beta):
    sigma = beta * (1.0 + delta) / (delta * alpha)
    return gamma, sigma, 2.0 * alpha


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

    # fused path: St NLL + fused CE, back through the fold and the conversion
    g_u, g_sigma, g_v = st_nll_grads_arrays(trace.u, trace.sigma, trace.v, y)
    g_u = g_u + lam * ce_f_grad
    gu_in, gs_in, gv_in = fuse_stack_backward(trace, g_u, g_sigma, g_v)

    d_gamma = d_gamma + gu_in
    d_beta = d_beta + gs_in * (1.0 + delta) / (delta * alpha)
    d_delta = d_delta + gs_in * (-beta / (delta**2 * alpha))
    d_alpha = d_alpha + gs_in * (-beta * (1.0 + delta) / (delta * alpha**2)) + 2.0 * gv_in

    grads = np.stack([d_gamma, d_delta, d_alpha, d_beta], axis=-1)
    return parts, grads
