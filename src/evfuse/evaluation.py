"""Metrics, noise injection, noise sweeps, and uncertainty densities.

Confidence for calibration purposes is the fused class posterior: each
class channel scores the log-likelihood ratio of its positive target under
its fused predictive distribution, log pdf_k(1) - log pdf_k(0), and the
posterior is the softmax of those scores.  This uses the full predictive
distribution (location, scale, and tail weight), so channels with heavy
tails or wide scales are automatically less confident.  Per-sample
uncertainty readouts:

* fused: variance of the fused distribution at the predicted class channel;
* per modality: aleatoric + epistemic at the modality's own argmax-location
  channel (its "predicted class"), plus the channel-mean epistemic
  uncertainty used for noise-trend analysis.

Gaussian noise is sampled with the Box-Muller transform on a seeded
generator's uniforms so fixtures are reproducible across platforms.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import nig_moments_arrays, st_nll_arrays, st_variance_arrays
from .losses import softmax
from .model import MultimodalClassifier, readout


def class_posterior(u: np.ndarray, sigma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Posterior over classes from per-channel predictive densities.

    The channel score is log pdf(1) - log pdf(0) under the channel's
    Student's t; softmax of the scores is the posterior under a uniform
    class prior with independent channels.
    """
    llr = st_nll_arrays(u, sigma, v, 0.0) - st_nll_arrays(u, sigma, v, 1.0)
    return softmax(llr, axis=-1)


@dataclass(frozen=True)
class NoiseSpec:
    modality_index: int
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")


@dataclass
class MetricsReport:
    acc: float
    kappa: float
    ece: float
    n_samples: int
    per_bin: list[tuple[float, float, int]]  # (mean confidence, accuracy, count)

    def to_dict(self) -> dict:
        return {
            "acc": self.acc,
            "kappa": self.kappa,
            "ece": self.ece,
            "n_samples": self.n_samples,
            "per_bin": [list(b) for b in self.per_bin],
        }


def accuracy(preds: Sequence[int], labels: Sequence[int]) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if len(preds) == 0 or len(preds) != len(labels):
        raise ValueError("preds and labels must be equal-length and non-empty")
    return float(np.mean(preds == labels))


def cohen_kappa(
    preds: Sequence[int], labels: Sequence[int], n_classes: int, weighted: bool = False
) -> float:
    """Chance-corrected agreement; `weighted=True` uses quadratic weights.

    Returns 0 by convention in the degenerate case where expected agreement
    is 1 (single class everywhere).
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if len(preds) == 0 or len(preds) != len(labels):
        raise ValueError("preds and labels must be equal-length and non-empty")
    preds = preds.astype(np.int64)
    labels = labels.astype(np.int64)
    for name, a in (("preds", preds), ("labels", labels)):
        if a.min() < 0 or a.max() >= n_classes:
            raise ValueError(f"{name} must lie in [0, {n_classes})")
    # cm[t, p] counts samples of true class t predicted as p
    cm = np.bincount(labels * n_classes + preds, minlength=n_classes * n_classes)
    cm = cm.reshape(n_classes, n_classes).astype(float)
    n = cm.sum()
    if weighted:
        idx = np.arange(n_classes)
        w = (idx[:, None] - idx[None, :]) ** 2
    else:
        w = 1.0 - np.eye(n_classes)
    row = cm.sum(axis=1)
    col = cm.sum(axis=0)
    expected = np.outer(row, col) / n
    d_obs = (w * cm).sum()
    d_exp = (w * expected).sum()
    if d_exp == 0.0:
        return 0.0
    return float(1.0 - d_obs / d_exp)


def ece(
    confidences: Sequence[float], correct: Sequence[bool], n_bins: int = 10
) -> tuple[float, list[tuple[float, float, int]]]:
    """Expected calibration error over equal-width, right-closed bins.

    Returns (ece, per_bin) where per_bin rows are (mean confidence,
    accuracy, count); empty bins carry zeros and contribute nothing.
    """
    conf = np.asarray(confidences, dtype=float)
    corr = np.asarray(correct, dtype=float)
    if len(conf) == 0 or len(conf) != len(corr):
        raise ValueError("confidences and correct must be equal-length, non-empty")
    if np.any(conf < 0) or np.any(conf > 1):
        raise ValueError("confidences must lie in [0, 1]")
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    # bin b covers (b/n, (b+1)/n]; confidence 0 joins the bottom bin
    idx = np.ceil(conf * n_bins).astype(int) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    total = 0.0
    per_bin = []
    n = len(conf)
    for b in range(n_bins):
        mask = idx == b
        count = int(mask.sum())
        if count == 0:
            per_bin.append((0.0, 0.0, 0))
            continue
        mean_conf = float(conf[mask].mean())
        acc_b = float(corr[mask].mean())
        per_bin.append((mean_conf, acc_b, count))
        total += count / n * abs(acc_b - mean_conf)
    return float(total), per_bin


def _box_muller(rng: np.random.Generator, shape) -> np.ndarray:
    n = int(np.prod(shape))
    half = (n + 1) // 2
    u1 = rng.random(half)
    u2 = rng.random(half)
    r = np.sqrt(-2.0 * np.log1p(-u1))  # 1-u1 avoids log(0)
    z = np.concatenate([r * np.cos(2.0 * np.pi * u2), r * np.sin(2.0 * np.pi * u2)])
    return z[:n].reshape(shape)


def inject_noise(features: Sequence[np.ndarray], spec: NoiseSpec) -> list[np.ndarray]:
    """Additive i.i.d. Gaussian noise on one modality; the rest untouched."""
    if not (0 <= spec.modality_index < len(features)):
        raise ValueError(f"modality_index {spec.modality_index} out of range")
    out = [x.copy() for x in features]
    if spec.sigma == 0.0:
        return out
    rng = np.random.default_rng(spec.seed)
    x = out[spec.modality_index]
    out[spec.modality_index] = x + spec.sigma * _box_muller(rng, x.shape)
    return out


# ---------------------------------------------------------------------------
# model evaluation


@dataclass
class EvalResult:
    report: MetricsReport
    preds: np.ndarray
    confidences: np.ndarray
    fused_uncertainty: np.ndarray  # per sample, predicted-class channel
    modality_uncertainty: np.ndarray  # (M, N): AL+EP at own argmax channel
    modality_epistemic: np.ndarray  # (M, N): channel-mean epistemic
    modality_preds: np.ndarray  # (M, N): unimodal argmax-location class


def evaluate_model(
    model: MultimodalClassifier, dataset, n_bins: int = 10
) -> EvalResult:
    return _evaluate_readout(
        model, readout(model.all_head_outputs(dataset.features)), dataset.labels, n_bins
    )


def _evaluate_readout(model: MultimodalClassifier, out: dict, labels, n_bins: int) -> EvalResult:
    trace = out["trace"]
    n = len(labels)
    rows = np.arange(n)
    preds = np.argmax(trace.u, axis=-1)
    conf_pred = class_posterior(trace.u, trace.sigma, trace.v)[rows, preds]
    fused_unc = st_variance_arrays(trace.sigma, trace.v)[rows, preds]

    al, ep = nig_moments_arrays(out["delta"], out["alpha"], out["beta"])
    own_pred = np.argmax(out["gamma"], axis=-1)  # (M, N)
    mod_unc = np.stack([(al + ep)[m, rows, own] for m, own in enumerate(own_pred)])
    mod_ep = ep.mean(axis=-1)  # (M, N)

    correct = preds == np.asarray(labels)
    ece_val, per_bin = ece(conf_pred, correct, n_bins)
    report = MetricsReport(
        acc=accuracy(preds, labels),
        kappa=cohen_kappa(preds, labels, model.n_classes),
        ece=ece_val,
        n_samples=n,
        per_bin=per_bin,
    )
    return EvalResult(report, preds, conf_pred, fused_unc, mod_unc, mod_ep, own_pred)


def noise_sweep(
    model: MultimodalClassifier,
    dataset,
    sigmas: Sequence[float],
    modality_index: int,
    seeds: Sequence[int],
    n_bins: int = 10,
) -> dict:
    """Evaluate under per-modality Gaussian corruption over a sigma grid.

    Returns {"rows": [...], "aggregates": [...]} where each row carries the
    metrics and mean uncertainties for one (sigma, seed) pair and aggregates
    hold mean/std over seeds per sigma.  Every modality is encoded once on
    the clean data; each pair re-encodes only the corrupted one.
    """
    raw = model.all_head_outputs(dataset.features)
    rows = []
    for sigma in sigmas:
        for seed in seeds:
            feats = inject_noise(
                dataset.features, NoiseSpec(modality_index, sigma, seed)
            )
            raw[modality_index] = model.head_outputs(modality_index, feats[modality_index])
            res = _evaluate_readout(model, readout(raw), dataset.labels, n_bins)
            row = {
                "sigma": sigma,
                "modality": modality_index,
                "seed": seed,
                "acc": res.report.acc,
                "kappa": res.report.kappa,
                "ece": res.report.ece,
                "mean_unc_fused": float(res.fused_uncertainty.mean()),
            }
            for m in range(model.n_modalities):
                row[f"mean_unc_m{m + 1}"] = float(res.modality_uncertainty[m].mean())
                row[f"mean_ep_m{m + 1}"] = float(res.modality_epistemic[m].mean())
                row[f"acc_m{m + 1}"] = accuracy(res.modality_preds[m], dataset.labels)
            rows.append(row)

    aggregates = []
    for sigma in sigmas:
        group = [r for r in rows if r["sigma"] == sigma]
        agg = {"sigma": sigma, "n_seeds": len(group)}
        for key in group[0]:
            if key in ("sigma", "modality", "seed"):
                continue
            vals = np.array([r[key] for r in group])
            agg[f"{key}_mean"] = float(vals.mean())
            agg[f"{key}_std"] = float(vals.std())
        aggregates.append(agg)
    return {"rows": rows, "aggregates": aggregates}


def uncertainty_density(
    model: MultimodalClassifier,
    dataset,
    spec: NoiseSpec | None = None,
    n_hist_bins: int = 64,
) -> dict:
    """Fixed-bin histograms of per-sample uncertainties per source.

    Sources are each modality (aleatoric + epistemic at its argmax channel)
    and the fused variance at the fused predicted class.  Bins are shared:
    equal width over the pooled min-max range.
    """
    if spec is not None:
        feats = inject_noise(dataset.features, spec)
        dataset = type(dataset)(
            feats, np.asarray(dataset.labels).copy(), split=dataset.split
        )
    res = evaluate_model(model, dataset)
    series = {
        f"modality_{m + 1}": res.modality_uncertainty[m]
        for m in range(model.n_modalities)
    }
    series["fused"] = res.fused_uncertainty
    pooled = np.concatenate(list(series.values()))
    lo, hi = float(pooled.min()), float(pooled.max())
    if hi == lo:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, n_hist_bins + 1)
    out = {
        "bin_edges": edges.tolist(),
        "histograms": {},
        "means": {k: float(v.mean()) for k, v in series.items()},
    }
    for name, vals in series.items():
        counts, _ = np.histogram(vals, bins=edges)
        out["histograms"][name] = counts.tolist()
    return out


# ---------------------------------------------------------------------------
# serialization helpers


def sweep_to_csv(sweep: dict, path, comment: str | None = None) -> None:
    rows = sweep["rows"]
    cols = list(rows[0].keys())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if comment:
            f.write(f"# {comment}\n")
        f.write(",".join(cols) + "\n")
        for r in rows:
            f.write(",".join(repr(r[c]) if isinstance(r[c], float) else str(r[c]) for c in cols) + "\n")


def write_json(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
