"""The min-v fusion with a select for every fused value, as an oracle for `fuse_stack`.

Every fused value, v_F and the source included, is picked with `np.where`
on the winner mask.  `evfuse.fusion.fuse_stack` keeps v_F as a running
minimum and the source as a running maximum instead; on inputs without NaN
the two must agree bit for bit, in values and dtypes.
"""

import numpy as np

from evfuse.fusion import FuseTrace


def fuse_stack_select(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> FuseTrace:
    """Fuse along axis 0 (modalities) with one `np.where` per fused value."""
    fu, fv, fs = u[0].copy(), v[0].copy(), sigma[0]
    source = np.zeros(fu.shape, dtype=np.int64)
    for m in range(1, u.shape[0]):
        wins = (v[m] < fv) | ((v[m] == fv) & (sigma[m] < fs))
        fu = np.where(wins, u[m], fu)
        fv = np.where(wins, v[m], fv)
        fs = np.where(wins, sigma[m], fs)
        source = np.where(wins, m, source)
    c = v * (fv - 2.0)
    den = v - 2.0
    den *= fv
    c /= den
    scaled = np.multiply(c, sigma, out=den)
    return FuseTrace(fu, np.add.reduce(scaled, axis=0) / len(v), fv, source, sigma, v, c)
