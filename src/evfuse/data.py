"""Synthetic two-modality datasets, CSV ingestion, and standardization.

Synthetic data is Gaussian class-conditional blobs with identity covariance
per modality; a modality's informativeness is controlled purely by its
class-mean separation (minimum pairwise distance between class means, in
units of the within-class standard deviation).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np


class CsvFormatError(ValueError):
    """Raised on malformed dataset CSV files, with row/column diagnostics."""


@dataclass(frozen=True)
class SyntheticSpec:
    n_classes: int = 3
    n_per_class: int = 200
    dims: tuple[int, int] = (4, 4)
    separation: tuple[float, float] = (3.0, 3.0)
    seed: int = 0
    # explicit (train, val, test) sizes; None means a 70/15/15 split
    split_sizes: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be >= 1")
        if any(s < 0 for s in self.separation):
            raise ValueError("separation must be >= 0")
        if self.split_sizes is not None:
            if sum(self.split_sizes) > self.n_classes * self.n_per_class:
                raise ValueError("split_sizes must not exceed the total sample count")


@dataclass
class Standardization:
    mean: list[np.ndarray]  # per modality, per feature
    std: list[np.ndarray]

    def to_dict(self) -> dict:
        return {
            "mean": [m.tolist() for m in self.mean],
            "std": [s.tolist() for s in self.std],
        }

    @classmethod
    def from_dict(cls, doc: dict, dims: Sequence[int]) -> "Standardization":
        """Load statistics for modalities of widths `dims`; a ValueError names any
        array of the wrong count or shape, a non-finite value, or a std <= 0."""
        stats = cls(
            [np.array(m, dtype=float) for m in doc["mean"]],
            [np.array(s, dtype=float) for s in doc["std"]],
        )
        for name, arrays in (("mean", stats.mean), ("std", stats.std)):
            if len(arrays) != len(dims):
                raise ValueError(
                    f"standardization {name} holds {len(arrays)} arrays, expected {len(dims)}"
                )
            for m, (a, d) in enumerate(zip(arrays, dims)):
                if a.shape != (d,):
                    raise ValueError(
                        f"standardization {name}[{m}] has shape {a.shape}, expected ({d},)"
                    )
                if not np.isfinite(a).all() or (name == "std" and not (a > 0).all()):
                    need = "finite and > 0" if name == "std" else "finite"
                    raise ValueError(f"standardization {name}[{m}] must be {need}")
        return stats

    def apply(self, ds: "Dataset") -> "Dataset":
        """Z-score every modality of `ds` with these statistics."""
        feats = [(x - mu) / sd for x, mu, sd in zip(ds.features, self.mean, self.std)]
        return Dataset(feats, ds.labels.copy(), split=ds.split)


@dataclass
class Dataset:
    features: list[np.ndarray]  # one (N, d_m) array per modality
    labels: np.ndarray
    split: str = ""

    def __post_init__(self):
        n = len(self.labels)
        for m, x in enumerate(self.features):
            if x.shape[0] != n:
                raise ValueError(
                    f"modality {m} has {x.shape[0]} rows but {n} labels"
                )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def n_modalities(self) -> int:
        return len(self.features)

    def subset(self, idx: np.ndarray, split: str = "") -> "Dataset":
        return Dataset(
            [x[idx].copy() for x in self.features],
            np.asarray(self.labels)[idx].copy(),
            split=split or self.split,
        )


def _class_means(rng: np.random.Generator, k: int, dim: int, sep: float) -> np.ndarray:
    """Random class means rescaled so the minimum pairwise distance is `sep`."""
    means = rng.normal(size=(k, dim))
    if sep == 0.0:
        return np.zeros((k, dim))
    dists = [
        np.linalg.norm(means[i] - means[j])
        for i in range(k)
        for j in range(i + 1, k)
    ]
    return means * (sep / min(dists))


def generate_synthetic(spec: SyntheticSpec) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic class-conditional blobs, split into train/val/test."""
    rng = np.random.default_rng(spec.seed)
    n_total = spec.n_classes * spec.n_per_class
    labels = np.repeat(np.arange(spec.n_classes), spec.n_per_class)
    features = []
    for dim, sep in zip(spec.dims, spec.separation):
        means = _class_means(rng, spec.n_classes, dim, sep)
        x = means[labels] + rng.normal(size=(n_total, dim))
        features.append(x)

    order = rng.permutation(n_total)
    if spec.split_sizes is not None:
        n_train, n_val, n_test = spec.split_sizes
    else:
        n_train = int(round(0.70 * n_total))
        n_val = int(round(0.15 * n_total))
        n_test = n_total - n_train - n_val
    full = Dataset(features, labels)
    train = full.subset(order[:n_train], "train")
    val = full.subset(order[n_train : n_train + n_val], "val")
    test = full.subset(order[n_train + n_val : n_train + n_val + n_test], "test")
    return train, val, test


def standardize(train: Dataset, *others: Dataset) -> tuple[list[Dataset], Standardization]:
    """Z-score all datasets using per-feature statistics of the train split.

    Features whose train std is below 1e-12 are centered but not scaled.
    """
    if len(train) == 0:
        raise ValueError("train dataset is empty")
    means, stds = [], []
    for x in train.features:
        mu = x.mean(axis=0)
        sd = x.std(axis=0)
        sd = np.where(sd < 1e-12, 1.0, sd)
        means.append(mu)
        stds.append(sd)
    stats = Standardization(means, stds)
    return [stats.apply(ds) for ds in (train, *others)], stats


# ---------------------------------------------------------------------------
# CSV + sidecar persistence
#
# Schema: header `label,m1_0,...,m1_{d1-1},m2_0,...,m2_{d2-1}`, 0-based
# integer labels, `repr` float serialization (shortest exact round trip).


def _header(dims: Sequence[int]) -> list[str]:
    cols = ["label"]
    for m, d in enumerate(dims, start=1):
        cols.extend(f"m{m}_{j}" for j in range(d))
    return cols


def save_csv(dataset: Dataset, path, comment: str | None = None) -> None:
    dims = [x.shape[1] for x in dataset.features]
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        if comment:
            f.write(f"# {comment}\n")
        f.write(",".join(_header(dims)) + "\n")
        for i in range(len(dataset)):
            cells = [str(int(dataset.labels[i]))]
            for x in dataset.features:
                cells.extend(repr(float(v)) for v in x[i])
            f.write(",".join(cells) + "\n")


@dataclass(frozen=True)
class CsvSchema:
    dims: tuple[int, int]
    n_classes: int


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a dataset CSV, validating header, shape, and label range."""
    path = Path(path)
    expected_header = _header(schema.dims)
    n_cols = len(expected_header)
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
    # leading `# ...` lines carry provenance comments
    skipped = 0
    while lines and lines[0].startswith("#"):
        lines.pop(0)
        skipped += 1
    if not lines:
        raise CsvFormatError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    if header != expected_header:
        raise CsvFormatError(
            f"{path}: bad header; expected {','.join(expected_header)!r}"
        )
    labels = []
    rows = []
    for r, line in enumerate(lines[1:], start=2 + skipped):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise CsvFormatError(
                f"{path}: row {r} has {len(cells)} columns, expected {n_cols}"
            )
        try:
            label = int(cells[0])
        except ValueError:
            raise CsvFormatError(
                f"{path}: row {r}, column 1: non-integer label {cells[0]!r}"
            ) from None
        if not (0 <= label < schema.n_classes):
            raise CsvFormatError(
                f"{path}: row {r}: label {label} out of range [0, {schema.n_classes})"
            )
        vals = []
        for c, cell in enumerate(cells[1:], start=2):
            try:
                vals.append(float(cell))
            except ValueError:
                raise CsvFormatError(
                    f"{path}: row {r}, column {c}: non-numeric cell {cell!r}"
                ) from None
        labels.append(label)
        rows.append(vals)
    arr = np.array(rows, dtype=float).reshape(len(rows), n_cols - 1)
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        i, j = bad[0]
        cell = lines[i + 1].split(",")[j + 1]
        raise CsvFormatError(
            f"{path}: row {i + 2 + skipped}, column {j + 2}: non-finite cell {cell!r}"
        )
    d1 = schema.dims[0]
    return Dataset(
        [arr[:, :d1], arr[:, d1:]],
        np.array(labels, dtype=np.int64),
    )


def save_sidecar(path, spec: SyntheticSpec, config_hash: str) -> None:
    doc = {
        "n_classes": spec.n_classes,
        "n_per_class": spec.n_per_class,
        "dims": list(spec.dims),
        "separation": list(spec.separation),
        "seed": spec.seed,
        "split_sizes": list(spec.split_sizes) if spec.split_sizes else None,
        "config_hash": config_hash,
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_sidecar(path) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)
