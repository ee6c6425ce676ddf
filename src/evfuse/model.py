"""Multimodal evidential classifier on tabular features.

One small MLP encoder per modality feeds an evidential head that emits four
constrained NIG parameters per class channel.  Per-modality predictive
Student's t distributions are fused channel-wise by the minimum-v rule;
the predicted class is the argmax of the fused locations.

Training minimizes the total evidential objective with Adam, entirely in
numpy with hand-written backpropagation.  Everything is deterministic given
the seed: weight initialization, batch shuffling, and summation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import check_json, saved_array
from .distributions import nig_moments_arrays, nig_to_st_arrays, st_variance_arrays
from .fusion import fuse_stack
from .losses import argmax_last_axis, class_posterior, reduce_last_axis, total_loss_and_grads_arrays

CHECKPOINT_FORMAT_VERSION = 1
# The inference pass runs in row chunks to bound its working memory.  A chunk
# holds at least INFERENCE_CHUNK_ROWS rows, and enough rows that each of its
# matrix products does INFERENCE_CHUNK_MACS multiply-adds or more.
INFERENCE_CHUNK_ROWS = 4096
INFERENCE_CHUNK_MACS = 2**20


def row_chunks(n: int, rows: int = INFERENCE_CHUNK_ROWS):
    """(start, stop) bounds of `n` rows in chunks of `rows`; the remainder
    joins the last chunk, and zero rows make one empty chunk."""
    bounds = [i * rows for i in range(max(n // rows, 1))] + [n]
    return zip(bounds[:-1], bounds[1:])


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes non-finite."""


@dataclass(frozen=True)
class EncoderSpec:
    input_dim: int
    hidden_dims: tuple[int, ...] = (64,)
    # tanh keeps encoder features bounded, so off-distribution inputs push
    # the evidence heads toward wider predictive distributions instead of
    # scaling all parameters up together
    activation: str = "tanh"

    def __post_init__(self):
        # each message leads with its field, which a checkpoint's path prefixes
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if len(self.hidden_dims) < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValueError(f"hidden_dims must be one or more sizes >= 1, got {list(self.hidden_dims)}")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"activation must be relu or tanh, got {self.activation!r}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    max_epochs: int = 100
    batch_size: int = 16
    lam: float = 0.5
    seed: int = 0
    freeze_encoders: bool = False
    keep_best: bool = False  # restore weights from the best-validation epoch

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lam must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EvidentialOutput:
    """The readout of one sample: one row of `evaluate_model`'s arrays."""

    predicted_class: int
    confidence: float  # fused class posterior at the predicted class
    fused_uncertainty: float  # fused variance at the predicted class channel
    modality_preds: np.ndarray  # (M,): each modality's argmax-location class
    modality_uncertainty: np.ndarray  # (M,): AL+EP at that class's channel
    modality_epistemic: np.ndarray  # (M,): channel-mean epistemic


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) in the stable form log1p(e^-|x|) + max(x, 0).

    `abs` writes a new contiguous array, in which `exp` and `log1p` run in
    place on numpy's vector loops whatever the layout of `x` (`logaddexp`
    calls scalar libm on every element); the result can differ from
    `logaddexp(0, x)` in the last bits.
    """
    out = np.abs(x, out=np.empty(np.shape(x)))  # an array even for 0-d `x`
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


_DELTA_FLOOR = 1e-6
_ALPHA_FLOOR = 1e-4
_BETA_FLOOR = 1e-6


def _constrain_arrays(raw: np.ndarray):
    """raw (..., K, 4) -> (gamma, delta, alpha, beta), each (..., K).

    One `softplus` runs over the whole contiguous block, whose location
    column it computes and drops: on the strided (..., K, 3) view of the
    evidence numpy walks three values at a time, several times slower.
    """
    evidence = softplus(raw)
    delta = evidence[..., 1] + _DELTA_FLOOR
    alpha = 1.0 + evidence[..., 2] + _ALPHA_FLOOR
    beta = evidence[..., 3] + _BETA_FLOOR
    return raw[..., 0], delta, alpha, beta


def _constrain_backward(raw: np.ndarray, g_params: np.ndarray) -> np.ndarray:
    """Chain (..., K, 4) parameter adjoints back to the raw head outputs."""
    g_raw = g_params.copy()
    sigmoid = raw[..., 1:] * 0.5  # softplus' = sigmoid = (1 + tanh(x / 2)) / 2
    np.tanh(sigmoid, out=sigmoid)
    sigmoid += 1.0
    sigmoid *= 0.5
    g_raw[..., 1:] *= sigmoid
    return g_raw


def _check_finite(x: np.ndarray, m: int) -> None:
    """Raise ValueError naming modality `m` (0-based) and the first row of `x` that is not finite."""
    if np.isfinite(x).all():  # one pass over the block; rows are looked at only on failure
        return
    bad = ~np.isfinite(x).all(axis=1)
    raise ValueError(f"modality {m + 1} has a non-finite feature in row {int(np.argmax(bad))}")


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class _MLP:
    """Dense layers, each followed by the activation; `arrays`: weights, then biases."""

    def __init__(self, spec: EncoderSpec, rng: np.random.Generator):
        self.spec = spec
        dims = [spec.input_dim] + list(spec.hidden_dims)
        self.arrays = [_glorot(rng, a, b) for a, b in zip(dims[:-1], dims[1:])]
        self.arrays += [np.zeros(b) for b in dims[1:]]

    weights = property(lambda self: self.arrays[: len(self.spec.hidden_dims)])
    biases = property(lambda self: self.arrays[len(self.spec.hidden_dims) :])

    @property
    def output_dim(self) -> int:
        return self.spec.hidden_dims[-1]

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """The input and every layer's activations, the last being the output
        features: the backward cache."""
        acts = [x]
        for w, b in zip(self.weights, self.biases):
            z = acts[-1] @ w
            z += b
            if self.spec.activation == "relu":
                acts.append(np.maximum(z, 0.0, out=z))
            else:
                acts.append(np.tanh(z, out=z))
        return acts

    def backward(self, acts, g_out: np.ndarray) -> None:
        """Write the gradients of `arrays` into `grads`, the views laid out like them."""
        n = len(self.spec.hidden_dims)
        g = g_out
        for i in range(n - 1, -1, -1):
            # both derivatives read off the layer's output a: relu' = [a > 0], tanh' = 1 - a^2
            if self.spec.activation == "relu":
                g = g * (acts[i + 1] > 0.0)
            else:
                g = g * (1.0 - acts[i + 1] ** 2)
            np.matmul(acts[i].T, g, out=self.grads[i])
            np.add.reduce(g, axis=0, out=self.grads[n + i])
            if i:  # the input features need no gradient
                g = g @ self.weights[i].T


class _Head:
    """Linear map from encoder features to 4*K raw evidential values; `arrays`: weight, bias."""

    def __init__(self, in_dim: int, n_classes: int, rng: np.random.Generator):
        self.n_classes = n_classes
        self.arrays = [_glorot(rng, in_dim, 4 * n_classes), np.zeros(4 * n_classes)]

    weight = property(lambda self: self.arrays[0])
    bias = property(lambda self: self.arrays[1])

    def forward(self, h: np.ndarray, out: np.ndarray) -> None:
        """Write the raw outputs (B, K, 4) into `out`, a contiguous block."""
        raw = out.reshape(h.shape[0], 4 * self.n_classes)
        np.matmul(h, self.weight, out=raw)
        raw += self.bias

    def backward(self, h: np.ndarray, g_raw: np.ndarray) -> np.ndarray:
        """Write the gradients of `arrays` into `grads`; return the input features' gradient."""
        g_flat = g_raw.reshape(h.shape[0], 4 * self.n_classes)
        np.matmul(h.T, g_flat, out=self.grads[0])
        np.add.reduce(g_flat, axis=0, out=self.grads[1])
        return g_flat @ self.weight.T


def _check_model_sizes(n_modalities: int, n_classes: int, seed: int, what: str = "") -> None:
    """The rules on `MultimodalClassifier`'s arguments, each message led by `what` and its name."""
    if n_modalities < 1:
        raise ValueError(f"{what}encoder_specs must name at least one modality")
    if n_classes < 2:
        raise ValueError(f"{what}n_classes must be >= 2, got {n_classes}")
    if seed < 0:
        raise ValueError(f"{what}seed must be >= 0, got {seed}")


class MultimodalClassifier:
    """Per-modality encoders + evidential heads with min-v fusion.

    All weights live in one float64 vector, `params`; each layer's `arrays`
    are views into it.  Write weights in place (`[...] =`): a rebound array
    is no longer part of `params`.  `grad` is laid out like `params`; each
    layer's `grads` view it, and the training step writes into them.
    """

    def __init__(self, encoder_specs: Sequence[EncoderSpec], n_classes: int, seed: int = 0):
        _check_model_sizes(len(encoder_specs), n_classes, seed)
        self.encoder_specs = list(encoder_specs)
        self.n_classes = n_classes
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.encoders = [_MLP(spec, rng) for spec in encoder_specs]
        self.heads = [
            _Head(enc.output_dim, n_classes, rng) for enc in self.encoders
        ]
        self.params = np.concatenate([a.ravel() for layer in self._layers() for a in layer.arrays])
        self.grad = np.zeros_like(self.params)
        weights, grads = self._layer_views(self.params), self._layer_views(self.grad)
        for layer, arrays, layer_grads in zip(self._layers(), weights, grads):
            layer.arrays, layer.grads = arrays, layer_grads

    def __reduce__(self):
        # copy and pickle through the checkpoint: a copy's arrays must view its own `params`
        return type(self).from_state_dict, (self.state_dict(),)

    def _layers(self) -> list:
        """Every layer in checkpoint order, encoders then heads: the only
        definition of how `params` and its gradient vector are laid out."""
        return self.encoders + self.heads

    def _layer_views(self, flat: np.ndarray) -> list[list[np.ndarray]]:
        """Split `flat` into views shaped like each layer's `arrays`, in `_layers()` order."""
        arrays = [a for layer in self._layers() for a in layer.arrays]
        views = iter(np.split(flat, np.cumsum([a.size for a in arrays])[:-1]))
        return [[next(views).reshape(a.shape) for a in layer.arrays] for layer in self._layers()]

    @property
    def n_modalities(self) -> int:
        return len(self.encoders)

    # ---- forward -----------------------------------------------------

    def _check_blocks(self, features) -> list[np.ndarray]:
        """The float (B, d_m) block of each modality, all with the same B; counted
        before `_feature_block` looks up each block's encoder spec."""
        if len(features) != self.n_modalities:
            raise ValueError(
                f"expected {self.n_modalities} feature blocks, got {len(features)}"
            )
        xs = [self._feature_block(m, x) for m, x in enumerate(features)]
        n = len(xs[0])
        for m, x in enumerate(xs):
            if len(x) != n:
                raise ValueError(f"modality {m + 1} has {len(x)} rows, modality 1 has {n}")
        return xs

    def _feature_block(self, m: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self.encoder_specs[m].input_dim
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"feature block has shape {x.shape}, expected (B, {d})")
        return x

    def _check_split(self, ds, split: str) -> tuple[list[np.ndarray], np.ndarray]:
        """The feature blocks and labels of dataset `ds`, named `split` in messages: the
        blocks of `_check_blocks`, finite, at least one row, one label in [0, K) per row."""
        xs = self._check_blocks(ds.features)
        y, n = np.asarray(ds.labels), len(xs[0])
        if y.shape != (n,):
            raise ValueError(f"{split} labels have shape {y.shape}, expected ({n},)")
        if n == 0:
            raise ValueError(f"{split} dataset is empty")
        for m, x in enumerate(xs):
            _check_finite(x, m)
        if y.dtype.kind not in "iu" or y.min() < 0 or y.max() >= self.n_classes:
            raise ValueError(f"{split} labels must be integers in [0, {self.n_classes})")
        return xs, y

    def forward_batch(self, features: Sequence[np.ndarray]):
        """Training forward; returns constrained parameter arrays and caches.

        `features` is one (B, d_m) array per modality.  The returned dict
        holds the raw head outputs (M, B, K, 4), their constrained NIG
        parameters (`gamma` ... `beta`, each (M, B, K)), the Student's t
        (`st`: u, sigma, v) and its fused `trace`, plus each encoder's
        activations (`caches`, from `_MLP.forward`; the last is the encoder
        output), which backpropagation needs.
        """
        xs = self._check_blocks(features)
        caches = [enc.forward(x) for enc, x in zip(self.encoders, xs)]
        raw = np.empty((len(xs), len(xs[0]), self.n_classes, 4))
        for head, acts, head_raw in zip(self.heads, caches, raw):
            head.forward(acts[-1], out=head_raw)
        gamma, delta, alpha, beta = _constrain_arrays(raw)
        st = nig_to_st_arrays(gamma, delta, alpha, beta)
        return {"raw": raw, "gamma": gamma, "delta": delta, "alpha": alpha, "beta": beta,
                "st": st, "trace": fuse_stack(*st), "caches": caches}

    def forward(self, sample: Sequence[np.ndarray]) -> EvidentialOutput:
        """The readout of a single sample, one (d_m,) array per modality: row 0
        of the readout of a one-row split."""
        xs = [np.asarray(x, dtype=float) for x in sample]
        for m, (x, spec) in enumerate(zip(xs, self.encoder_specs)):
            if x.shape != (spec.input_dim,):
                raise ValueError(f"modality {m + 1} sample has shape {x.shape}, expected ({spec.input_dim},)")
        scores = _score_modalities(self, self._check_blocks([x[None] for x in xs]))
        pred, conf, fused_unc = _fused_readout(scores)
        return EvidentialOutput(int(pred[0]), float(conf[0]), float(fused_unc[0]),
                                scores.pred[:, 0], scores.unc[:, 0], scores.ep[:, 0])

    # ---- persistence ---------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "n_classes": self.n_classes,
            "seed": self.seed,
            "encoder_specs": [
                {
                    "input_dim": s.input_dim,
                    "hidden_dims": list(s.hidden_dims),
                    "activation": s.activation,
                }
                for s in self.encoder_specs
            ],
            "encoders": [
                {
                    "weights": [w.tolist() for w in enc.weights],
                    "biases": [b.tolist() for b in enc.biases],
                }
                for enc in self.encoders
            ],
            "heads": [
                {"weight": head.weight.tolist(), "bias": head.bias.tolist()}
                for head in self.heads
            ],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "MultimodalClassifier":
        """The model of a `state_dict()` read from a file; a ValueError names any field that
        does not fit, before any weights are allocated."""
        check_json(state, {
            "format_version": int, "n_classes": int, "seed": int,
            "encoder_specs": [{"input_dim": int, "hidden_dims": [int], "activation": str}],
            "encoders": [{"weights": [[[float]]], "biases": [[float]]}],
            "heads": [{"weight": [[float]], "bias": [float]}],
        }, "checkpoint")
        if state["format_version"] != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(f"checkpoint format_version must be {CHECKPOINT_FORMAT_VERSION}, "
                             f"got {state['format_version']}")
        specs = []
        for m, s in enumerate(state["encoder_specs"]):
            try:
                specs.append(EncoderSpec(s["input_dim"], tuple(s["hidden_dims"]), s["activation"]))
            except ValueError as e:
                raise ValueError(f"checkpoint encoder_specs[{m}].{e}") from None
        _check_model_sizes(len(specs), state["n_classes"], state["seed"], "checkpoint ")
        for key in ("encoders", "heads"):
            if len(state[key]) != len(specs):
                raise ValueError(f"checkpoint {key} holds {len(state[key])} entries, "
                                 f"expected {len(specs)} from encoder_specs")
        encoders, heads, k4 = [], [], 4 * state["n_classes"]
        for m, spec in enumerate(specs):
            dims, source = (spec.input_dim, *spec.hidden_dims), f"encoder_specs[{m}]"
            for kind, shapes in (("weights", list(zip(dims[:-1], dims[1:]))),
                                 ("biases", [(d,) for d in dims[1:]])):
                saved = state["encoders"][m][kind]
                if len(saved) != len(shapes):
                    raise ValueError(f"checkpoint encoders[{m}].{kind} holds {len(saved)} arrays, "
                                     f"expected {len(shapes)} from {source}")
                encoders += [saved_array(w, shape, f"checkpoint encoders[{m}].{kind}[{i}]", source)
                             for i, (w, shape) in enumerate(zip(saved, shapes))]
            heads += [saved_array(state["heads"][m][kind], shape, f"checkpoint heads[{m}].{kind}", by)
                      for kind, shape, by in (("weight", (dims[-1], k4), f"{source} and n_classes"),
                                              ("bias", (k4,), "n_classes"))]
        model = cls(specs, state["n_classes"], seed=state["seed"])
        # `params` holds the arrays in `_layers()` order: encoders, then heads
        model.params[:] = np.concatenate([a.ravel() for a in encoders + heads])
        return model


# ---------------------------------------------------------------------------
# readout: the inference pass's per-row results, for N rows or for one


@dataclass
class _Scores:
    """Per-modality readouts of N rows; index m of each field is modality m."""

    st: np.ndarray  # (3, M, N, K): each modality's Student's t (u, sigma, v)
    pred: np.ndarray  # (M, N): argmax-location class
    unc: np.ndarray  # (M, N): AL+EP at the own-argmax channel
    ep: np.ndarray  # (M, N): channel-mean epistemic


def _at_columns(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """x[i, cols[i]] for each row i of an (N, K) array, by flat index."""
    return x.take(cols + np.arange(0, x.size, x.shape[-1]))


def _score_modality(model: MultimodalClassifier, scores: _Scores, m: int, x: np.ndarray) -> None:
    """Encode modality `m`'s features (N, d_m) and read each row chunk out into
    slot `m` of `scores` at once, keeping no caches and no (N, K, 4) block.
    The own class is the column-op argmax of the locations, and AL + EP is
    added only at that channel, from the two values gathered there.

    BLAS picks its kernel by matrix size (OpenBLAS on AVX-512 switches at
    10^6 multiply-adds); the chunk floors keep each chunk on the kernel of the
    whole matrix, so the result equals the unchunked training forward bit for
    bit, except after a layer one unit wide, whose matrix-vector product BLAS
    splits by row count.
    """
    _check_finite(x, m)
    enc, head = model.encoders[m], model.heads[m]
    narrowest = min(w.size for w in enc.weights + [head.weight])
    u, sigma, v = scores.st[:, m]
    for a, b in row_chunks(len(x), max(INFERENCE_CHUNK_ROWS, -(-INFERENCE_CHUNK_MACS // narrowest))):
        raw = np.empty((b - a, model.n_classes, 4))
        head.forward(enc.forward(x[a:b])[-1], out=raw)
        gamma, delta, alpha, beta = _constrain_arrays(raw)
        u[a:b], sigma[a:b], v[a:b] = nig_to_st_arrays(gamma, delta, alpha, beta)
        al, ep = nig_moments_arrays(delta, alpha, beta)
        own = argmax_last_axis(gamma)
        scores.pred[m, a:b] = own
        scores.unc[m, a:b] = _at_columns(al, own) + _at_columns(ep, own)
        scores.ep[m, a:b] = reduce_last_axis(np.add, ep)[:, 0] / ep.shape[-1]  # channel mean


def _score_modalities(model: MultimodalClassifier, features) -> _Scores:
    """Score every modality of checked feature blocks (`MultimodalClassifier._check_blocks`)
    into freshly allocated arrays."""
    n_mod, n, k = len(features), len(features[0]), model.n_classes
    scores = _Scores(np.empty((3, n_mod, n, k)), np.empty((n_mod, n), dtype=np.intp),
                     np.empty((n_mod, n)), np.empty((n_mod, n)))
    for m, x in enumerate(features):
        _score_modality(model, scores, m, x)
    return scores


def _fused_readout(scores: _Scores) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fuse the modalities' t's: the fused prediction (argmax location), its
    confidence (the class posterior there) and the fused variance there, each (N,).

    Each row chunk is fused from views of `scores.st`, so nothing the size
    of the (M, N, K) inputs is allocated.  The prediction is the column-op
    argmax of the fused locations, and the fused variance is computed from
    the (N,) scale and v gathered there.  A confidence that is not finite
    raises FloatingPointError; a NaN v in any modality makes one.
    """
    n = scores.pred.shape[1]
    preds, conf, fused_unc = np.empty(n, dtype=np.intp), np.empty(n), np.empty(n)
    for a, b in row_chunks(n):
        trace = fuse_stack(*scores.st[:, :, a:b])
        pred = argmax_last_axis(trace.u)
        preds[a:b] = pred
        conf[a:b] = _at_columns(class_posterior(trace.u, trace.sigma, trace.v), pred)
        fused_unc[a:b] = st_variance_arrays(_at_columns(trace.sigma, pred), _at_columns(trace.v, pred))
    if np.isnan(conf).any():
        raise FloatingPointError("the fused class posterior is not finite")
    return preds, conf, fused_unc


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainRecord:
    """Per-run training log returned by `train`."""

    epoch_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int | None = None


def _batch_loss_and_param_grads(model, features, y_onehot, lam):
    """Mean batch loss and its gradient, `model.grad`, laid out like `model.params`.

    The gradient is the model's own buffer: the next call overwrites it.
    """
    out = model.forward_batch(features)
    parts, grads = total_loss_and_grads_arrays(
        out["gamma"], out["delta"], out["alpha"], out["beta"], y_onehot, lam
    )
    b = y_onehot.shape[0]
    g_raw = _constrain_backward(out["raw"], grads)
    g_raw /= b
    for enc, head, acts, g in zip(model.encoders, model.heads, out["caches"], g_raw):
        enc.backward(acts, head.backward(acts[-1], g))
    return float(np.add.reduce(parts["total"])) / b, model.grad


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # the textbook constants


class _Adam:
    def __init__(self, size: int, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self._scratch = np.empty(size), np.empty(size)

    def step(self, params: np.ndarray, grad: np.ndarray):
        """Update `params` in place: the textbook expressions, evaluated in
        their order into two scratch vectors, so no step allocates."""
        self.t += 1
        s, d = self._scratch
        self.m *= _ADAM_BETA1
        self.m += np.multiply(grad, 1.0 - _ADAM_BETA1, out=s)
        self.v *= _ADAM_BETA2
        np.multiply(grad, 1.0 - _ADAM_BETA2, out=s)
        self.v += np.multiply(s, grad, out=s)
        np.divide(self.m, 1.0 - _ADAM_BETA1**self.t, out=s)  # mhat
        s *= self.learning_rate
        np.divide(self.v, 1.0 - _ADAM_BETA2**self.t, out=d)  # vhat
        np.sqrt(d, out=d)
        d += _ADAM_EPS
        params -= np.divide(s, d, out=s)


def _dataset_loss(model, dataset, lam: float) -> float:
    out = model.forward_batch(dataset.features)
    y = np.eye(model.n_classes)[dataset.labels]
    parts, _ = total_loss_and_grads_arrays(
        out["gamma"], out["delta"], out["alpha"], out["beta"], y, lam
    )
    return float(parts["total"].mean())


def train(model: MultimodalClassifier, dataset, config: TrainConfig, val_dataset=None):
    """Mini-batch Adam training of the total evidential objective.

    `dataset` and `val_dataset` need `.features` (list of (N, d_m) arrays)
    and `.labels` (ints in [0, K)); `MultimodalClassifier._check_split`
    checks both splits before the first step, so a rejected split leaves the
    weights as they were.  Returns (model, TrainRecord); the model is trained
    in place.  Deterministic given the seed.
    """
    features, labels = model._check_split(dataset, "training")
    if val_dataset is not None:
        model._check_split(val_dataset, "validation")
    n = len(labels)
    eye = np.eye(model.n_classes)

    # the encoders lead `params`, so freezing them trains a suffix
    n_encoder = sum(a.size for enc in model.encoders for a in enc.arrays)
    first = n_encoder if config.freeze_encoders else 0
    opt = _Adam(model.params.size - first, config.learning_rate)

    rng = np.random.default_rng(config.seed)
    record = TrainRecord()
    best_val = np.inf
    best_params = None

    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            feats = [x[idx] for x in features]
            y = eye[labels[idx]]
            loss, grad = _batch_loss_and_param_grads(model, feats, y, config.lam)
            if not np.isfinite(loss):
                arrays = [a for layer in model._layers() for a in layer.arrays]
                norms = [float(np.linalg.norm(a)) for a in arrays]
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}; "
                    f"parameter norms {norms}"
                )
            opt.step(model.params[first:], grad[first:])
            epoch_loss += loss * len(idx)
        record.epoch_losses.append(epoch_loss / n)

        if val_dataset is not None:
            val_loss = _dataset_loss(model, val_dataset, config.lam)
            record.val_losses.append(val_loss)
            if config.keep_best and val_loss < best_val:
                best_val = val_loss
                best_params = model.params.copy()
                record.best_epoch = epoch

    if best_params is not None:
        model.params[:] = best_params
    return model, record
