"""Metrics, noise injection, noise sweeps, and uncertainty densities.

Every metric is a reduction over the one readout of `evfuse.model`
(`_score_modalities`, then `_fused_readout`), which `MultimodalClassifier.forward`
takes for one row.  Per sample it gives the fused prediction (the argmax
location); its confidence, the fused class posterior (`class_posterior`),
which weighs each channel's location, scale and tail weight, and which ECE
bins; the fused variance at the predicted channel; and per modality its own
argmax-location class, aleatoric + epistemic at that channel, and the
channel-mean epistemic uncertainty used for noise-trend analysis.
`_score_fused` alone makes an `EvalResult` of the readout; a noise-sweep row
is a reduction of one.

Gaussian noise is sampled with the Box-Muller transform on a seeded
generator's uniforms so fixtures are reproducible across platforms.  A
noise sweep draws each seed's unit noise once and scales it per sigma; its
rows equal those of per-pair `inject_noise` bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .losses import class_posterior  # noqa: F401  re-exported: tests and perfbench's spans name it here
from .model import (MultimodalClassifier, _check_finite, _fused_readout, _Scores, _score_modalities,
                    _score_modality)

N_BINS, N_HIST_BINS = 10, 64  # the default bin counts of `ece` and of `uncertainty_density`
MAX_BINS = 10**6  # the most bins either takes: each bin is one row of `reliability.csv` or `density.csv`


@dataclass(frozen=True)
class NoiseSpec:
    modality_index: int
    sigma: float
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MetricsReport:
    acc: float
    kappa: float
    ece: float
    n_samples: int
    per_bin: list[tuple[float, float, int]]  # (mean confidence, accuracy, count)

    def to_dict(self) -> dict:
        return {**asdict(self), "per_bin": [list(b) for b in self.per_bin]}


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
    is 1 (single class everywhere).  `preds` and `labels` must be integer
    arrays with values in [0, n_classes).
    """
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if len(preds) == 0 or len(preds) != len(labels):
        raise ValueError("preds and labels must be equal-length and non-empty")
    for name, a in (("preds", preds), ("labels", labels)):
        if a.dtype.kind not in "iu":
            raise ValueError(f"{name} must be integers, got dtype {a.dtype}")
        if a.min() < 0 or a.max() >= n_classes:
            raise ValueError(f"{name} must lie in [0, {n_classes})")
    preds, labels = preds.astype(np.int64), labels.astype(np.int64)
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


def _check_bins(n_bins: int, name: str = "n_bins") -> None:
    if n_bins < 1:
        raise ValueError(f"{name} must be >= 1")
    if n_bins > MAX_BINS:
        raise ValueError(f"{name} must be <= {MAX_BINS}, got {n_bins}")


def ece(
    confidences: Sequence[float], correct: Sequence[bool], n_bins: int = N_BINS
) -> tuple[float, list[tuple[float, float, int]]]:
    """Expected calibration error over equal-width, right-closed bins.

    Returns (ece, per_bin) where per_bin rows are (mean confidence,
    accuracy, count); empty bins carry zeros and contribute nothing.
    """
    conf = np.asarray(confidences, dtype=float)
    corr = np.asarray(correct, dtype=float)
    if len(conf) == 0 or len(conf) != len(corr):
        raise ValueError("confidences and correct must be equal-length, non-empty")
    if not ((conf >= 0) & (conf <= 1)).all():
        raise ValueError("confidences must lie in [0, 1]")
    _check_bins(n_bins)
    # bin b covers (b/n, (b+1)/n]; confidence 0 joins the bottom bin
    idx = np.ceil(conf * n_bins).astype(int) - 1
    idx = np.clip(idx, 0, n_bins - 1)
    # a stable sort keeps each bin's rows in input order, so a bin's mean is
    # taken over the same values in the same order as over a mask; on
    # integers of 16 bits or fewer numpy's stable sort is a radix sort
    order = np.argsort(idx.astype(np.min_scalar_type(n_bins - 1)), kind="stable")
    conf, corr = conf[order], corr[order]
    counts = np.bincount(idx, minlength=n_bins).tolist()
    total = 0.0
    per_bin = []
    n = len(conf)
    a = 0
    for count in counts:
        if count == 0:
            per_bin.append((0.0, 0.0, 0))
            continue
        mean_conf = float(conf[a : a + count].mean())
        acc_b = float(corr[a : a + count].mean())
        per_bin.append((mean_conf, acc_b, count))
        total += count / n * abs(acc_b - mean_conf)
        a += count
    return float(total), per_bin


def _box_muller(rng: np.random.Generator, shape) -> np.ndarray:
    """r cos(theta), then r sin(theta), with r = sqrt(-2 log(1 - u1)) and
    theta = 2 pi u2 (1-u1 avoids log(0)); each step runs in place."""
    n = int(np.prod(shape))
    half = (n + 1) // 2
    r = rng.random(half)
    theta = rng.random(half)
    np.negative(r, out=r)
    np.log1p(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= 2.0 * np.pi
    z = np.empty(2 * half)
    np.cos(theta, out=z[:half])
    np.sin(theta, out=z[half:])
    z[:half] *= r
    z[half:] *= r
    return z[:n].reshape(shape)


def _check_noise_target(features: Sequence[np.ndarray], spec: NoiseSpec) -> None:
    if not (0 <= spec.modality_index < len(features)):
        raise ValueError(f"modality_index {spec.modality_index} out of range")


def _add_noise(x: np.ndarray, z: np.ndarray, sigma: float) -> np.ndarray:
    """x + sigma z in a new array: the noise step of `inject_noise` and `noise_sweep`.
    An overflow is not warned of: the caller's finiteness check names it."""
    with np.errstate(over="ignore"):
        noisy = z * sigma
        return np.add(x, noisy, out=noisy)


def _noisy_error(err: ValueError, sigma: float, seed: int) -> ValueError:
    """`_check_finite`'s error on a noisy block, naming the noise that made it."""
    return ValueError(f"{err} under noise sigma {sigma!r} with seed {seed}")


def inject_noise(features: Sequence[np.ndarray], spec: NoiseSpec) -> list[np.ndarray]:
    """Additive i.i.d. Gaussian noise on one modality, in a new array; every
    other entry (and at sigma = 0 every entry) is the input array itself.  A
    non-finite feature raises ValueError naming the modality and its row; a
    noisy one (a sigma large enough to overflow) names the sigma and seed too."""
    _check_noise_target(features, spec)
    out = list(features)
    if spec.sigma == 0.0:
        return out
    x = out[spec.modality_index]
    _check_finite(x, spec.modality_index)
    z = _box_muller(np.random.default_rng(spec.seed), np.shape(x))
    out[spec.modality_index] = noisy = _add_noise(x, z, spec.sigma)
    try:
        _check_finite(noisy, spec.modality_index)
    except ValueError as e:
        raise _noisy_error(e, spec.sigma, spec.seed) from None
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


def _score_fused(scores: _Scores, labels, n_classes: int, n_bins: int = N_BINS) -> EvalResult:
    """The `EvalResult` of `scores`: the fused readout (`model._fused_readout`)
    scored against `labels`, and the per-modality arrays of `scores` themselves."""
    preds, conf_pred, fused_unc = _fused_readout(scores)
    correct = preds == np.asarray(labels)
    ece_val, per_bin = ece(conf_pred, correct, n_bins)
    report = MetricsReport(
        acc=accuracy(preds, labels),
        kappa=cohen_kappa(preds, labels, n_classes),
        ece=ece_val,
        n_samples=len(preds),
        per_bin=per_bin,
    )
    return EvalResult(report, preds, conf_pred, fused_unc, scores.unc, scores.ep, scores.pred)


def evaluate_model(
    model: MultimodalClassifier, dataset, n_bins: int = N_BINS
) -> EvalResult:
    """Score `dataset`; `n_bins` and the split (`MultimodalClassifier._check_split`)
    are checked before any encoding."""
    _check_bins(n_bins)
    features, labels = model._check_split(dataset, "evaluation")
    return _score_fused(_score_modalities(model, features), labels, model.n_classes, n_bins)


def _sweep_row(res: EvalResult, labels) -> dict:
    """The metrics and mean uncertainties of one noise-sweep row, reduced from `res`."""
    row = {
        "acc": res.report.acc,
        "kappa": res.report.kappa,
        "ece": res.report.ece,
        "mean_unc_fused": float(res.fused_uncertainty.mean()),
    }
    for m in range(len(res.modality_preds)):
        row[f"mean_unc_m{m + 1}"] = float(res.modality_uncertainty[m].mean())
        row[f"mean_ep_m{m + 1}"] = float(res.modality_epistemic[m].mean())
        row[f"acc_m{m + 1}"] = accuracy(res.modality_preds[m], labels)
    return row


def _sweep_specs(sigmas: Sequence[float], modality_index: int, seeds: Sequence[int]) -> list[NoiseSpec]:
    if len(sigmas) == 0 or len(seeds) == 0:
        raise ValueError("noise sweep needs at least one sigma and one seed")
    for name, values in (("sigma", list(sigmas)), ("seed", list(seeds))):
        for i, x in enumerate(values):
            if x in values[:i]:  # == equates 0.0 and -0.0
                raise ValueError(f"noise sweep {name} {x!r} is repeated")
    return [NoiseSpec(modality_index, sigma, seed) for sigma in sigmas for seed in seeds]


def noise_sweep(
    model: MultimodalClassifier,
    dataset,
    sigmas: Sequence[float],
    modality_index: int,
    seeds: Sequence[int],
) -> dict:
    """Evaluate under per-modality Gaussian corruption over a sigma grid.

    Returns {"rows": [...], "aggregates": [...]} where each row carries the
    metrics and mean uncertainties for one (sigma, seed) pair and aggregates
    hold mean/std over seeds per sigma.  Every modality is scored once on
    the clean data, and the sigma = 0 pairs share that clean evaluation.
    Each seed's unit noise is drawn once and scaled for each sigma > 0,
    whose pair re-scores only the corrupted modality, in place; the rows
    equal those of per-pair `inject_noise` bit for bit.  ECE takes `N_BINS`
    bins, as `evaluate_model` by default.  The pairs (`_sweep_specs`), the
    modality index and the split (`MultimodalClassifier._check_split`) are
    checked before anything is encoded; a sigma whose noisy features overflow
    raises ValueError naming the modality, its row, the sigma and the seed.
    """
    specs = _sweep_specs(sigmas, modality_index, seeds)
    _check_noise_target(dataset.features, specs[0])
    features, labels = model._check_split(dataset, "evaluation")
    scores = _score_modalities(model, features)
    clean = None
    if any(spec.sigma == 0.0 for spec in specs):
        clean = _sweep_row(_score_fused(scores, labels, model.n_classes), labels)
    x = features[modality_index]
    noisy_sigmas = [sigma for sigma in sigmas if sigma != 0.0]
    noisy = {}  # (sigma, seed) -> metrics, scored seed by seed
    for seed in seeds if noisy_sigmas else ():
        z = _box_muller(np.random.default_rng(seed), np.shape(x))
        for sigma in noisy_sigmas:
            # the noisy features live only for the call that scores them; the
            # clean block is finite, so a non-finite one is the noise's
            try:
                _score_modality(model, scores, modality_index, _add_noise(x, z, sigma))
            except ValueError as e:
                raise _noisy_error(e, sigma, seed) from None
            # reduced at once: the next pair overwrites the corrupted modality's slot of `scores`
            noisy[sigma, seed] = _sweep_row(_score_fused(scores, labels, model.n_classes), labels)
    rows = [{"sigma": s.sigma, "modality": modality_index, "seed": s.seed,
             **(noisy[s.sigma, s.seed] if s.sigma != 0.0 else clean)} for s in specs]

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
    n_hist_bins: int = N_HIST_BINS,
) -> dict:
    """Fixed-bin histograms of per-sample uncertainties per source.

    Sources are each modality (aleatoric + epistemic at its argmax channel)
    and the fused variance at the fused predicted class.  Bins are shared:
    equal width over the pooled min-max range.  The split is checked
    (`MultimodalClassifier._check_split`) before any noise is added.
    """
    _check_bins(n_hist_bins, "n_hist_bins")
    features, _ = model._check_split(dataset, "evaluation")
    if spec is not None:
        features = inject_noise(features, spec)
    scores = _score_modalities(model, features)
    series = {f"modality_{m + 1}": unc for m, unc in enumerate(scores.unc)}
    series["fused"] = _fused_readout(scores)[2]
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


def write_json(doc: dict, path) -> None:
    """Write `doc` as sorted, indented JSON.  JSON holds no NaN or infinity,
    so one raises FloatingPointError before the file is opened."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise FloatingPointError(f"not writing {path}: {e}") from None
    with open(path, "w", encoding="utf-8") as f:
        f.write(text + "\n")
