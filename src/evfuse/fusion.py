"""Minimum-degrees-of-freedom fusion of Student's t distributions.

Given one Student's t per modality, the fused distribution keeps the
location and degrees of freedom of the heaviest-tailed (smallest-v) input
and averages the scales with a tail correction:

    v_F = v_1,  u_F = u_1,
    Sigma_F = 1/2 * (Sigma_1 + v_2 (v_1 - 2) / (v_1 (v_2 - 2)) * Sigma_2)

with index 1 the smaller-v input.  An exact consequence of the correction
factor is that the fused variance Sigma_F * v_F / (v_F - 2) equals the
arithmetic mean of the two input variances.

More than two inputs are combined by a left fold of the pairwise rule (an
extension; the original rule is stated for two modalities).  Ties on v are
broken toward the smaller scale, then the lower index.

`fuse_stack` / `fuse_stack_backward` are array versions used by training
code: they fuse along a leading modality axis and backpropagate adjoints,
treating the discrete min-v selection as locally constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import StudentT, student_t_variance


@dataclass(frozen=True)
class FusedStudentT:
    """A fused Student's t plus the index of the input that won selection."""

    st: StudentT
    source_index: int


def _first_wins(a: StudentT, b: StudentT) -> bool:
    # tie-break on equal v: smaller scale, then lower (first) index
    if a.v != b.v:
        return a.v < b.v
    return a.sigma <= b.sigma


def fuse_pair(a: StudentT, b: StudentT) -> FusedStudentT:
    """Fuse two Student's t distributions; index 0 is `a`, 1 is `b`."""
    if _first_wins(a, b):
        sel, oth, idx = a, b, 0
    else:
        sel, oth, idx = b, a, 1
    c = oth.v * (sel.v - 2.0) / (sel.v * (oth.v - 2.0))
    sigma_f = 0.5 * (sel.sigma + c * oth.sigma)
    return FusedStudentT(StudentT(u=sel.u, sigma=sigma_f, v=sel.v), idx)


def fuse_many(inputs: Sequence[StudentT]) -> FusedStudentT:
    """Left-fold pairwise fusion over a non-empty sequence."""
    if len(inputs) == 0:
        raise ValueError("fuse_many requires at least one input")
    fused = FusedStudentT(inputs[0], 0)
    for i, st in enumerate(inputs[1:], start=1):
        step = fuse_pair(fused.st, st)
        src = fused.source_index if step.source_index == 0 else i
        fused = FusedStudentT(step.st, src)
    return fused


def fused_prediction(f: FusedStudentT) -> tuple[float, float]:
    """Point prediction u_F and uncertainty Sigma_F * v_F / (v_F - 2)."""
    return f.st.u, student_t_variance(f.st)


def fuse_classwise(
    per_modality: Sequence[Sequence[StudentT]],
) -> list[FusedStudentT]:
    """Fuse per-class Student's t vectors across modalities, channel by channel."""
    if len(per_modality) == 0:
        raise ValueError("need at least one modality")
    k = len(per_modality[0])
    for m, vec in enumerate(per_modality):
        if len(vec) != k:
            raise ValueError(
                f"modality {m} has {len(vec)} class channels, expected {k}"
            )
    return [fuse_many([vec[j] for vec in per_modality]) for j in range(k)]


# ---------------------------------------------------------------------------
# array fold with gradients, for the training path


@dataclass
class FuseTrace:
    """Forward record of an array fold, consumed by `fuse_stack_backward`."""

    u: np.ndarray  # fused location
    sigma: np.ndarray  # fused scale
    v: np.ndarray  # fused degrees of freedom
    source: np.ndarray  # winning modality index, integer array
    steps: list  # per fold step: (new_wins, v_sel, v_oth, sigma_oth, c)


def fuse_stack(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> FuseTrace:
    """Fuse along axis 0 (modalities); remaining axes are independent channels."""
    m_count = u.shape[0]
    cur_u, cur_s, cur_v = u[0].copy(), sigma[0].copy(), v[0].copy()
    source = np.zeros(cur_u.shape, dtype=np.int64)
    steps = []
    for m in range(1, m_count):
        new_wins = (v[m] < cur_v) | ((v[m] == cur_v) & (sigma[m] < cur_s))
        v_sel = np.where(new_wins, v[m], cur_v)
        v_oth = np.where(new_wins, cur_v, v[m])
        s_sel = np.where(new_wins, sigma[m], cur_s)
        s_oth = np.where(new_wins, cur_s, sigma[m])
        c = v_oth * (v_sel - 2.0) / (v_sel * (v_oth - 2.0))
        steps.append((new_wins, v_sel, v_oth, s_oth, c))
        cur_u = np.where(new_wins, u[m], cur_u)
        cur_s = 0.5 * (s_sel + c * s_oth)
        cur_v = v_sel
        source = np.where(new_wins, m, source)
    return FuseTrace(cur_u, cur_s, cur_v, source, steps)


def fuse_stack_backward(
    trace: FuseTrace,
    g_u: np.ndarray,
    g_sigma: np.ndarray,
    g_v: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoints of the fused (u, sigma, v) pushed back to each input.

    Returns arrays shaped like the `fuse_stack` inputs (modality axis first).
    The min-v selection is piecewise constant, so no gradient flows through
    the choice itself.
    """
    n_modalities = len(trace.steps) + 1
    gu_in = np.zeros((n_modalities,) + g_u.shape)
    gs_in = np.zeros_like(gu_in)
    gv_in = np.zeros_like(gu_in)
    bu, bs, bv = g_u.copy(), g_sigma.copy(), g_v.copy()
    for m in range(n_modalities - 1, 0, -1):
        new_wins, v_sel, v_oth, s_oth, c = trace.steps[m - 1]
        # sigma_F = 0.5 * (s_sel + c(v_sel, v_oth) * s_oth)
        g_s_sel = 0.5 * bs
        g_s_oth = 0.5 * c * bs
        dc_dvsel = v_oth * 2.0 / (v_sel**2 * (v_oth - 2.0))
        dc_dvoth = (v_sel - 2.0) / v_sel * (-2.0 / (v_oth - 2.0) ** 2)
        g_v_sel = bv + 0.5 * s_oth * dc_dvsel * bs
        g_v_oth = 0.5 * s_oth * dc_dvoth * bs
        # route sel/oth adjoints to (input m) vs (folded state)
        gu_in[m] = np.where(new_wins, bu, 0.0)
        gs_in[m] = np.where(new_wins, g_s_sel, g_s_oth)
        gv_in[m] = np.where(new_wins, g_v_sel, g_v_oth)
        bu = np.where(new_wins, 0.0, bu)
        bs = np.where(new_wins, g_s_oth, g_s_sel)
        bv = np.where(new_wins, g_v_oth, g_v_sel)
    gu_in[0], gs_in[0], gv_in[0] = bu, bs, bv
    return gu_in, gs_in, gv_in
