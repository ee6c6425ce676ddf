"""Fixed reference kernels that gauge how fast the host runs right now.

On a shared host the speed of a core swings by a third or more over seconds
to minutes, as other tenants come and go.  The benchmark runs a reference
kernel just before each op and once after the last, on the core the op
runs on, and reports the ops' wall time divided by the kernel's (`op_rel`).
Both see the same phase of the host, so the swing cancels, while a change to evfuse moves the op and
leaves the kernel alone: the kernels import nothing from evfuse.

Host swings hit interpreter-bound code harder than large-array numpy, so
each workload has a kernel that does the same kind of work as its op:

- `small_batch` (train-ref): mini-batch steps of a small tanh MLP at batch
  16, Python overhead around small numpy calls, plus a pure-Python loop;
- `large_array` (eval-sweep): inference-style passes over 100k rows;
- `text_and_array` (cli-roundtrip): the pure-Python loop, which formats and
  parses floats as CSV I/O does, plus one 100k-row pass.

`small_batch` keeps its arrays under a megabyte so that it never sets the
process's peak RSS; the 100k-row passes stay well under eval-sweep's peak.
"""

from __future__ import annotations

import numpy as np

_rng = np.random.default_rng(0)
_X = [_rng.standard_normal((512, 6)) for _ in range(2)]
_W1 = [_rng.standard_normal((6, 64)) * 0.3 for _ in range(2)]
_W2 = [_rng.standard_normal((64, 12)) * 0.1 for _ in range(2)]
_LARGE_ROWS = 100_000
_large: list[np.ndarray] = []  # made on first use: train-ref never needs it


def _mlp_steps(steps: int) -> float:
    params = [w.copy() for w in _W1 + _W2]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    acc = 0.0
    for s in range(steps):
        lo = (s * 16) % 496
        grads = [None] * 4
        for k in range(2):
            x = _X[k][lo : lo + 16]
            h = np.tanh(x @ params[k])
            o = h @ params[2 + k]
            acc += float(np.logaddexp(0.0, o).reshape(16, 3, 4)[:, :, 1].min())
            g = (1.0 / (1.0 + np.exp(-o))) / 16.0
            grads[2 + k] = h.T @ g
            grads[k] = x.T @ ((g @ params[2 + k].T) * (1.0 - h * h))
        for i, (p, gr) in enumerate(zip(params, grads)):
            m[i] = 0.9 * m[i] + 0.1 * gr
            v[i] = 0.999 * v[i] + 0.001 * gr * gr
            p -= 1e-4 * m[i] / (np.sqrt(v[i]) + 1e-8)
    return acc


def _text_loop(n: int) -> float:
    acc = 0.0
    cells = []
    for i in range(n):
        x = i * 0.37
        acc += x * x if i & 1 else -x
        if i % 8 == 0:
            cells.append(repr(acc))
        if len(cells) == 512:
            acc += sum(float(c) for c in ",".join(cells).split(","))
            cells.clear()
    return acc


def _array_passes(reps: int) -> float:
    if not _large:
        _large.append(_rng.standard_normal((_LARGE_ROWS, 6)))
    x = _large[0]
    acc = 0.0
    for k in range(reps):
        o = np.tanh((x + 0.1 * k) @ _W1[0]) @ _W2[0]
        p = np.exp(-np.logaddexp(0.0, o).reshape(-1, 3, 4)[:, :, 1])
        p /= p.sum(axis=1, keepdims=True)
        acc += float(np.bincount(np.argmax(p, axis=1), minlength=3)[0])
    return acc


def small_batch() -> None:
    _mlp_steps(1000)
    _text_loop(400_000)


def large_array() -> None:
    _array_passes(3)


def text_and_array() -> None:
    _text_loop(400_000)
    _array_passes(1)
