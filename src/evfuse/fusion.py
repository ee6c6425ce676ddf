"""Minimum-degrees-of-freedom fusion of Student's t distributions.

Given one Student's t per modality, the fused distribution keeps the
location and degrees of freedom of the heaviest-tailed (smallest-v) input
and averages the tail-corrected scales of all M inputs:

    v_F = v_w,  u_F = u_w,
    Sigma_F = 1/M * sum_m c_m Sigma_m,  c_m = v_m (v_F - 2) / (v_F (v_m - 2))

with w the winning input: the smallest v, then the smaller input scale,
then the lower index.  The winner's own c is exactly 1, so for M = 2 this is
the paper's pairwise rule 1/2 (Sigma_w + c Sigma_other).  An exact
consequence of the correction factor is that the fused variance
Sigma_F * v_F / (v_F - 2) equals the arithmetic mean of the M input
variances.  The result does not depend on the order of the inputs, up to
rounding in the sum; only the choice among inputs equal in both v and scale
follows the order.  More than two inputs is an extension; the paper states
the rule for two modalities.

`fuse_stack` is the one implementation of the rule: it fuses along a
leading modality axis with one pass over the inputs, keeping v_F as a
running minimum and the winner's index as a running maximum, so only the
location and the tie-breaking scale are selected with `np.where`.
`fuse_stack_backward` backpropagates adjoints through it, treating the
discrete min-v selection as locally constant.
`fuse_pair` and `fuse_many` are wrappers for `StudentT` values.
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


def fuse_pair(a: StudentT, b: StudentT) -> FusedStudentT:
    """Fuse two Student's t distributions; index 0 is `a`, 1 is `b`."""
    return fuse_many([a, b])


def fuse_many(inputs: Sequence[StudentT]) -> FusedStudentT:
    """Fuse a non-empty sequence in closed form: the location and v of the min-v
    input (ties: the smaller input scale, then the lower index) and the mean
    of the tail-corrected scales of all inputs."""
    if len(inputs) == 0:
        raise ValueError("fuse_many requires at least one input")
    # as in float arithmetic, an overflow becomes inf and fails StudentT's check
    with np.errstate(all="ignore"):
        t = fuse_stack(*np.array([[st.u, st.sigma, st.v] for st in inputs]).T)
    return FusedStudentT(StudentT(float(t.u), float(t.sigma), float(t.v)), int(t.source))


def fused_prediction(f: FusedStudentT) -> tuple[float, float]:
    """Point prediction u_F and uncertainty Sigma_F * v_F / (v_F - 2)."""
    return f.st.u, student_t_variance(f.st)


# ---------------------------------------------------------------------------
# array form with gradients


@dataclass
class FuseTrace:
    """Forward record of `fuse_stack`, consumed by `fuse_stack_backward`."""

    u: np.ndarray  # fused location
    sigma: np.ndarray  # fused scale
    v: np.ndarray  # fused degrees of freedom
    source: np.ndarray  # winning modality index, integer array
    sigma_in: np.ndarray  # input scales, modality axis first
    v_in: np.ndarray  # input degrees of freedom, modality axis first
    c: np.ndarray  # tail correction c_m of each input; 1.0 for the winner


def fuse_stack(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> FuseTrace:
    """Fuse along axis 0 (modalities); remaining axes are independent channels.

    Input m wins a channel from the inputs before it when its v is smaller,
    or equal with a smaller scale.  v_F is then the running `np.minimum` of
    the v's and the source the running `np.maximum` of `wins * m`: a winner's
    index exceeds every earlier one.  Both are branch-free, where a select
    on the winner mask, which follows no pattern, mispredicts.  They equal a
    select on that mask unless a v is NaN: `np.minimum` carries a NaN v_m
    into v_F, where a select would keep the earlier v.  The fused scale is
    NaN either way, through c_m.  With M = 1 the fused location and v are
    views of the inputs.
    """
    fu, fv, fs = u[0], v[0], sigma[0]
    source = np.zeros(fu.shape, dtype=np.int64)
    for m in range(1, u.shape[0]):
        wins = (v[m] < fv) | ((v[m] == fv) & (sigma[m] < fs))
        fu = np.where(wins, u[m], fu)
        fs = np.where(wins, sigma[m], fs)
        fv = np.minimum(fv, v[m])
        np.maximum(source, wins * m, out=source)
    # c_m = v_m (v_F - 2) / (v_F (v_m - 2)), exactly 1.0 for the winner; the
    # in-place steps keep the (M, ...) temporaries to two at large N
    c = v * (fv - 2.0)
    den = v - 2.0
    den *= fv
    c /= den
    scaled = np.multiply(c, sigma, out=den)
    return FuseTrace(fu, np.add.reduce(scaled, axis=0) / len(v), fv, source, sigma, v, c)


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
    s, v, fv = trace.sigma_in, trace.v_in, trace.v
    wins = np.arange(len(v)).reshape((-1,) + (1,) * g_u.ndim) == trace.source
    w = 1.0 / len(v)
    # sigma_F = w * sum_m c(v_m, v_F) * s_m; the winner's c is identically 1
    v2, ws = v - 2.0, w * s
    dc_dv = (fv - 2.0) / fv * (-2.0 / v2**2)
    dc_dvf = np.where(wins, 0.0, v * 2.0 / (fv**2 * v2))
    gv_f = g_v + np.add.reduce(ws * dc_dvf * g_sigma, axis=0)
    return (
        np.where(wins, g_u, 0.0),
        w * trace.c * g_sigma,
        np.where(wins, gv_f, ws * dc_dv * g_sigma),
    )
