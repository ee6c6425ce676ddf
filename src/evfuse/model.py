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

import hashlib
import json
from dataclasses import dataclass, field, asdict
from typing import Sequence

import numpy as np

from .distributions import (
    NIGParams,
    StudentT,
    nig_moments_arrays,
    nig_to_st_arrays,
    st_variance_arrays,
)
from .fusion import FusedStudentT, fuse_stack
from .losses import softmax, total_loss_and_grads_arrays

CHECKPOINT_FORMAT_VERSION = 1
# The inference pass runs in row chunks to bound its working memory.  A chunk
# holds at least INFERENCE_CHUNK_ROWS rows, and enough rows that each of its
# matrix products does INFERENCE_CHUNK_MACS multiply-adds or more.
INFERENCE_CHUNK_ROWS = 4096
INFERENCE_CHUNK_MACS = 2**20


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
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if len(self.hidden_dims) < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValueError("need at least one positive hidden dim")
        if self.activation not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    max_epochs: int = 100
    batch_size: int = 16
    lam: float = 0.5
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    freeze_encoders: bool = False
    keep_best: bool = False  # restore weights from the best-validation epoch

    def __post_init__(self):
        if not (self.learning_rate > 0):
            raise ValueError("learning_rate must be > 0")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError("lam must be in [0, 1]")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class EvidentialOutput:
    """Everything the forward pass produces for one sample."""

    nig: list[list[NIGParams]]  # [modality][class]
    st: list[list[StudentT]]  # [modality][class]
    fused: list[FusedStudentT]  # [class]
    predicted_class: int
    confidences: np.ndarray  # softmax over fused locations
    aleatoric: np.ndarray  # (M, K)
    epistemic: np.ndarray  # (M, K)
    fused_uncertainty: float  # variance of the predicted class channel


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


_DELTA_FLOOR = 1e-6
_ALPHA_FLOOR = 1e-4
_BETA_FLOOR = 1e-6


def _constrain_arrays(raw: np.ndarray):
    """raw (..., K, 4) -> (gamma, delta, alpha, beta), each (..., K)."""
    gamma = raw[..., 0]
    delta = softplus(raw[..., 1]) + _DELTA_FLOOR
    alpha = 1.0 + softplus(raw[..., 2]) + _ALPHA_FLOOR
    beta = softplus(raw[..., 3]) + _BETA_FLOOR
    return gamma, delta, alpha, beta


def _constrain_backward(raw: np.ndarray, g_params: np.ndarray) -> np.ndarray:
    """Chain (..., K, 4) parameter adjoints back to the raw head outputs."""
    g_raw = np.empty_like(g_params)
    g_raw[..., 0] = g_params[..., 0]
    g_raw[..., 1] = g_params[..., 1] * _sigmoid(raw[..., 1])
    g_raw[..., 2] = g_params[..., 2] * _sigmoid(raw[..., 2])
    g_raw[..., 3] = g_params[..., 3] * _sigmoid(raw[..., 3])
    return g_raw


def readout(raw: np.ndarray) -> dict:
    """Raw head outputs (M, B, K, 4) -> constrained NIG, Student's t and fused trace.

    The one readout of the training forward and the inference pass.
    """
    gamma, delta, alpha, beta = _constrain_arrays(raw)
    u, sigma, v = nig_to_st_arrays(gamma, delta, alpha, beta)
    return {
        "raw": raw,
        "gamma": gamma,
        "delta": delta,
        "alpha": alpha,
        "beta": beta,
        "st": (u, sigma, v),
        "trace": fuse_stack(u, sigma, v),
    }


def _check_finite(x: np.ndarray, m: int) -> None:
    """Raise ValueError naming modality `m` (0-based) and the first row of `x` that is not finite."""
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        raise ValueError(
            f"modality {m + 1} has a non-finite feature in row {int(np.argmax(bad))}"
        )


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

    def forward(self, x: np.ndarray):
        acts = [x]
        pre = []
        for w, b in zip(self.weights, self.biases):
            z = acts[-1] @ w + b
            pre.append(z)
            if self.spec.activation == "relu":
                acts.append(np.maximum(z, 0.0))
            else:
                acts.append(np.tanh(z))
        return acts[-1], (acts, pre)

    def backward(self, cache, g_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of every array in `arrays`, in the same order."""
        acts, pre = cache
        grads_w, grads_b = [], []
        g = g_out
        for i in range(len(self.weights) - 1, -1, -1):
            if self.spec.activation == "relu":
                g = g * (pre[i] > 0.0)
            else:
                g = g * (1.0 - np.tanh(pre[i]) ** 2)
            grads_w.append(acts[i].T @ g)
            grads_b.append(g.sum(axis=0))
            g = g @ self.weights[i].T
        return grads_w[::-1] + grads_b[::-1]


class _Head:
    """Linear map from encoder features to 4*K raw evidential values; `arrays`: weight, bias."""

    def __init__(self, in_dim: int, n_classes: int, rng: np.random.Generator):
        self.n_classes = n_classes
        self.arrays = [_glorot(rng, in_dim, 4 * n_classes), np.zeros(4 * n_classes)]

    weight = property(lambda self: self.arrays[0])
    bias = property(lambda self: self.arrays[1])

    def forward(self, h: np.ndarray) -> np.ndarray:
        raw = h @ self.weight + self.bias
        return raw.reshape(h.shape[0], self.n_classes, 4)

    def backward(self, h: np.ndarray, g_raw: np.ndarray):
        """Gradients of `arrays` (same order), and of the input features."""
        g_flat = g_raw.reshape(h.shape[0], 4 * self.n_classes)
        return [h.T @ g_flat, g_flat.sum(axis=0)], g_flat @ self.weight.T


class MultimodalClassifier:
    """Per-modality encoders + evidential heads with min-v fusion.

    All weights live in one float64 vector, `params`; each layer's `arrays`
    are views into it.  Write weights in place (`[...] =`): a rebound array
    is no longer part of `params`.
    """

    def __init__(self, encoder_specs: Sequence[EncoderSpec], n_classes: int, seed: int = 0):
        if n_classes < 2:
            raise ValueError("need at least two classes")
        if len(encoder_specs) < 1:
            raise ValueError("need at least one modality")
        self.encoder_specs = list(encoder_specs)
        self.n_classes = n_classes
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.encoders = [_MLP(spec, rng) for spec in encoder_specs]
        self.heads = [
            _Head(enc.output_dim, n_classes, rng) for enc in self.encoders
        ]
        arrays = [a for layer in self._layers() for a in layer.arrays]
        self.params = np.concatenate([a.ravel() for a in arrays])
        views = iter(np.split(self.params, np.cumsum([a.size for a in arrays])[:-1]))
        for layer in self._layers():
            layer.arrays = [next(views).reshape(a.shape) for a in layer.arrays]

    def __reduce__(self):
        # copy and pickle through the checkpoint: a copy's arrays must view its own `params`
        return type(self).from_state_dict, (self.state_dict(),)

    def _layers(self) -> list:
        """Every layer in checkpoint order, encoders then heads: the only
        definition of how `params` and its gradient vector are laid out."""
        return self.encoders + self.heads

    @property
    def n_modalities(self) -> int:
        return len(self.encoders)

    # ---- forward -----------------------------------------------------

    def _check_count(self, features) -> None:
        if len(features) != self.n_modalities:
            raise ValueError(
                f"expected {self.n_modalities} feature blocks, got {len(features)}"
            )

    def _feature_block(self, m: int, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self.encoder_specs[m].input_dim
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"feature block has shape {x.shape}, expected (B, {d})")
        return x

    def forward_batch(self, features: Sequence[np.ndarray]):
        """Training forward; returns constrained parameter arrays and caches.

        `features` is one (B, d_m) array per modality.  The returned dict
        holds the `readout` of the raw head outputs plus the encoder
        outputs (`hidden`) and caches that backpropagation needs.
        """
        self._check_count(features)
        hs, caches, raws = [], [], []
        for m, (enc, head, x) in enumerate(zip(self.encoders, self.heads, features)):
            h, cache = enc.forward(self._feature_block(m, x))
            hs.append(h)
            caches.append(cache)
            raws.append(head.forward(h))
        out = readout(np.stack(raws))
        out.update(hidden=hs, caches=caches)
        return out

    def head_outputs(self, m: int, x) -> np.ndarray:
        """Inference pass of modality `m`: features (N, d_m) -> raw head outputs (N, K, 4).

        Keeps no caches and runs in row chunks, the remainder joining the
        last chunk.  BLAS picks its kernel by matrix size (OpenBLAS on
        AVX-512 switches at 10^6 multiply-adds); the chunk floors keep each
        chunk on the kernel of the whole matrix, so the result equals the
        unchunked training forward bit for bit, except after a layer one
        unit wide, whose matrix-vector product BLAS splits by row count.
        """
        x = self._feature_block(m, x)
        _check_finite(x, m)
        enc, head = self.encoders[m], self.heads[m]
        narrowest = min(w.size for w in enc.weights + [head.weight])
        rows = max(INFERENCE_CHUNK_ROWS, -(-INFERENCE_CHUNK_MACS // narrowest))
        n = x.shape[0]
        bounds = [i * rows for i in range(max(n // rows, 1))] + [n]
        out = np.empty((n, self.n_classes, 4))
        for a, b in zip(bounds[:-1], bounds[1:]):
            out[a:b] = head.forward(enc.forward(x[a:b])[0])
        return out

    def all_head_outputs(self, features: Sequence[np.ndarray]) -> np.ndarray:
        """`head_outputs` of every modality, stacked: (M, N, K, 4)."""
        self._check_count(features)
        return np.stack([self.head_outputs(m, x) for m, x in enumerate(features)])

    def forward(self, sample: Sequence[np.ndarray]) -> EvidentialOutput:
        """Full evidential readout for a single sample: one row of the inference pass."""
        out = readout(self.all_head_outputs([np.reshape(x, (1, -1)) for x in sample]))
        gamma, delta, alpha, beta = (out[k][:, 0] for k in ("gamma", "delta", "alpha", "beta"))
        u, sigma, v = (a[:, 0] for a in out["st"])
        t = out["trace"]
        fu, fs, fv = t.u[0], t.sigma[0], t.v[0]
        pred = int(np.argmax(fu))
        aleatoric, epistemic = nig_moments_arrays(delta, alpha, beta)
        return EvidentialOutput(
            nig=[[NIGParams(*p) for p in zip(*m)] for m in zip(gamma, delta, alpha, beta)],
            st=[[StudentT(*q) for q in zip(*m)] for m in zip(u, sigma, v)],
            fused=[
                FusedStudentT(StudentT(*q), int(src))
                for *q, src in zip(fu, fs, fv, t.source[0])
            ],
            predicted_class=pred,
            confidences=softmax(fu),
            aleatoric=aleatoric,
            epistemic=epistemic,
            fused_uncertainty=float(st_variance_arrays(fs[pred], fv[pred])),
        )

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

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.state_dict(), f)

    @classmethod
    def from_state_dict(cls, state: dict) -> "MultimodalClassifier":
        if state.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"unsupported checkpoint format: {state.get('format_version')!r}"
            )
        specs = [
            EncoderSpec(s["input_dim"], tuple(s["hidden_dims"]), s["activation"])
            for s in state["encoder_specs"]
        ]
        model = cls(specs, state["n_classes"], seed=state["seed"])
        if not len(state["encoders"]) == len(state["heads"]) == len(specs):
            raise ValueError("checkpoint needs one encoder and one head per encoder spec")
        for m, (enc, head) in enumerate(zip(model.encoders, model.heads)):
            for kind in ("weights", "biases"):
                views, saved = getattr(enc, kind), state["encoders"][m][kind]
                if len(saved) != len(views):
                    raise ValueError(
                        f"checkpoint encoders[{m}].{kind} holds {len(saved)} arrays, "
                        f"expected {len(views)}"
                    )
                for i, (view, w) in enumerate(zip(views, saved)):
                    _copy_into(view, w, f"encoders[{m}].{kind}[{i}]")
            for kind in ("weight", "bias"):
                _copy_into(getattr(head, kind), state["heads"][m][kind], f"heads[{m}].{kind}")
        return model

    @classmethod
    def load(cls, path) -> "MultimodalClassifier":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_state_dict(json.load(f))


def _copy_into(view: np.ndarray, saved, name: str) -> None:
    """Copy a saved array into its weight view; the shapes must match exactly."""
    saved = np.asarray(saved, dtype=float)
    if saved.shape != view.shape:
        raise ValueError(
            f"checkpoint array {name} has shape {saved.shape}, expected {view.shape}"
        )
    view[...] = saved


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainRecord:
    """Per-run training log returned by `train`."""

    config: TrainConfig
    epoch_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int | None = None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["config"] = asdict(self.config)
        return d


def config_hash(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _batch_loss_and_param_grads(model, features, y_onehot, lam):
    """Mean batch loss and its gradient, laid out like `model.params`."""
    out = model.forward_batch(features)
    parts, grads = total_loss_and_grads_arrays(
        out["gamma"], out["delta"], out["alpha"], out["beta"], y_onehot, lam
    )
    b = y_onehot.shape[0]
    g_raw = _constrain_backward(out["raw"], grads) / b
    layer_grads = {}
    for m, (enc, head) in enumerate(zip(model.encoders, model.heads)):
        layer_grads[head], g_h = head.backward(out["hidden"][m], g_raw[m])
        layer_grads[enc] = enc.backward(out["caches"][m], g_h)
    grad = np.concatenate(
        [g.ravel() for layer in model._layers() for g in layer_grads[layer]]
    )
    return float(parts["total"].mean()), grad


class _Adam:
    def __init__(self, size: int, cfg: TrainConfig):
        self.cfg = cfg
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray):
        """Update `params` in place."""
        c = self.cfg
        self.t += 1
        self.m *= c.beta1
        self.m += (1.0 - c.beta1) * grad
        self.v *= c.beta2
        self.v += (1.0 - c.beta2) * grad * grad
        mhat = self.m / (1.0 - c.beta1**self.t)
        vhat = self.v / (1.0 - c.beta2**self.t)
        params -= c.learning_rate * mhat / (np.sqrt(vhat) + c.eps)


def _dataset_loss(model, dataset, lam: float) -> float:
    out = model.forward_batch(dataset.features)
    y = np.eye(model.n_classes)[dataset.labels]
    parts, _ = total_loss_and_grads_arrays(
        out["gamma"], out["delta"], out["alpha"], out["beta"], y, lam
    )
    return float(parts["total"].mean())


def train(model: MultimodalClassifier, dataset, config: TrainConfig, val_dataset=None):
    """Mini-batch Adam training of the total evidential objective.

    `dataset` needs `.features` (list of (N, d_m) arrays) and `.labels`
    (ints in [0, K)).  Returns (model, TrainRecord); the model is trained in
    place.  Deterministic given the seed.
    """
    n = len(dataset.labels)
    if n == 0:
        raise ValueError("dataset is empty")
    labels = np.asarray(dataset.labels)
    if labels.min() < 0 or labels.max() >= model.n_classes:
        raise ValueError("labels out of range")
    for ds in [dataset] + ([val_dataset] if val_dataset is not None else []):
        for m, x in enumerate(ds.features):
            _check_finite(np.asarray(x, dtype=float), m)
    eye = np.eye(model.n_classes)

    # the encoders lead `params`, so freezing them trains a suffix
    n_encoder = sum(a.size for enc in model.encoders for a in enc.arrays)
    first = n_encoder if config.freeze_encoders else 0
    opt = _Adam(model.params.size - first, config)

    rng = np.random.default_rng(config.seed)
    record = TrainRecord(config=config)
    best_val = np.inf
    best_params = None

    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            feats = [x[idx] for x in dataset.features]
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
