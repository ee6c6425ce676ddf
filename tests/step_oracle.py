"""The training step as it was first written, as an oracle for the in-place one.

Each layer's gradients are returned as fresh arrays, collected per layer
and concatenated in `_layers()` order; the head outputs and the four
parameter-adjoint columns are joined with `np.stack`; Adam allocates its
temporaries.  The operations and their order are those of
`evfuse.model._batch_loss_and_param_grads` and `_Adam.step`, so the two must
agree bit for bit.
"""

import numpy as np

from evfuse.distributions import nig_to_st_arrays
from evfuse.fusion import fuse_stack, fuse_stack_backward
from evfuse.losses import cross_entropy_arrays, st_nll_and_grads_arrays
from evfuse.model import _constrain_arrays


def _loss_and_raw_grads(raw, y_onehot, lam):
    gamma, delta, alpha, beta = _constrain_arrays(raw)
    u, sigma, v = nig_to_st_arrays(gamma, delta, alpha, beta)
    trace = fuse_stack(u, sigma, v)
    m = len(u)
    us, ss, vs = (
        np.concatenate((a, f[None])) for a, f in ((u, trace.u), (sigma, trace.sigma), (v, trace.v))
    )
    nll, g_u, g_sigma, g_v = st_nll_and_grads_arrays(us, ss, vs, y_onehot)
    ce, g_ce = cross_entropy_arrays(us, y_onehot)
    total = (nll.sum(axis=-1) + lam * ce).sum(axis=0)
    g_u += lam * g_ce
    gu_f, gs_f, gv_f = fuse_stack_backward(trace, g_u[m], g_sigma[m], g_v[m])
    g_log_sigma = (g_sigma[:m] + gs_f) * sigma
    grads = np.stack(
        [
            g_u[:m] + gu_f,
            g_log_sigma / (delta * (-1.0 - delta)),
            2.0 * (g_v[:m] + gv_f) - g_log_sigma / alpha,
            g_log_sigma / beta,
        ],
        axis=-1,
    )
    g_raw = grads.copy()
    g_raw[..., 1:] *= 0.5 * (1.0 + np.tanh(0.5 * raw[..., 1:]))
    return total, g_raw


def loss_and_grad(model, features, y_onehot, lam):
    """Mean batch loss and a new gradient vector laid out like `model.params`."""
    hs, caches, raws = [], [], []
    for enc, head, x in zip(model.encoders, model.heads, features):
        acts = [x]
        for w, b in zip(enc.weights, enc.biases):
            z = acts[-1] @ w + b
            acts.append(np.maximum(z, 0.0) if enc.activation == "relu" else np.tanh(z))
        hs.append(acts[-1])
        caches.append(acts)
        raws.append((acts[-1] @ head.weights[0] + head.biases[0]).reshape(len(x), model.n_classes, 4))
    total, g_raw = _loss_and_raw_grads(np.stack(raws), y_onehot, lam)
    g_raw = g_raw / y_onehot.shape[0]
    layer_grads = {}
    for m, (enc, head) in enumerate(zip(model.encoders, model.heads)):
        g = g_raw[m].reshape(len(hs[m]), -1)
        layer_grads[head] = [hs[m].T @ g, g.sum(axis=0)]
        g = g @ head.weights[0].T
        acts, grads_w, grads_b = caches[m], [], []
        for i in range(len(enc.weights) - 1, -1, -1):
            if enc.activation == "relu":
                g = g * (acts[i + 1] > 0.0)
            else:
                g = g * (1.0 - acts[i + 1] ** 2)
            grads_w.append(acts[i].T @ g)
            grads_b.append(g.sum(axis=0))
            if i:
                g = g @ enc.weights[i].T
        layer_grads[enc] = grads_w[::-1] + grads_b[::-1]
    grad = np.concatenate([g.ravel() for layer in model._layers() for g in layer_grads[layer]])
    return float(total.mean()), grad


class Adam:
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, size, learning_rate):
        self.lr, self.m, self.v, self.t = learning_rate, np.zeros(size), np.zeros(size), 0

    def step(self, params, grad):
        self.t += 1
        self.m *= self.beta1
        self.m += (1.0 - self.beta1) * grad
        self.v *= self.beta2
        self.v += (1.0 - self.beta2) * grad * grad
        mhat = self.m / (1.0 - self.beta1**self.t)
        vhat = self.v / (1.0 - self.beta2**self.t)
        params -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
