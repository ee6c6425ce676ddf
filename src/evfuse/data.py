"""Synthetic multimodal datasets, CSV ingestion, and standardization.

Synthetic data is Gaussian class-conditional blobs with identity covariance
per modality; a modality's informativeness is controlled purely by its
class-mean separation (minimum pairwise distance between class means, in
units of the within-class standard deviation).
"""

from __future__ import annotations

import hashlib
import json
import re
import zipfile
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
    dims: tuple[int, ...] = (4, 4)
    separation: tuple[float, ...] = (3.0, 3.0)
    seed: int = 0
    # explicit (train, val, test) sizes; None means a 70/15/15 split
    split_sizes: tuple[int, int, int] | None = None

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.n_per_class < 1:
            raise ValueError("n_per_class must be >= 1")
        if not self.dims:
            raise ValueError("dims must name at least one modality")
        if len(self.dims) != len(self.separation):
            raise ValueError("dims and separation must have the same length")
        if any(d < 1 for d in self.dims):
            raise ValueError("dims must be >= 1")
        if not all(0 <= s < np.inf for s in self.separation):
            raise ValueError("separation must be finite and >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.split_sizes is not None:
            if len(self.split_sizes) != 3:
                raise ValueError("split_sizes must hold 3 sizes (train, val, test)")
            if any(n < 0 for n in self.split_sizes):
                raise ValueError("split_sizes must be >= 0")
            if sum(self.split_sizes) > self.n_classes * self.n_per_class:
                raise ValueError("split_sizes must not exceed the total sample count")


# The JSON types a declared shape names, with their names in messages (a boolean is no number).
_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"), str: ((str,), "a string"),
               bool: ((bool,), "true or false"), list: ((list,), "a list"), dict: ((dict,), "an object")}


def check_json(doc, shape, what: str, path: str = "") -> None:
    """Check `doc`, a parsed JSON value at `path` in the input called `what`,
    against its declared `shape`: a key of `_JSON_TYPES` (`float` is any number),
    `[shape]` (a list of that shape) or a dict of required keys to their shapes
    (other keys are allowed).  The first mismatch raises a ValueError naming its
    path, such as `checkpoint encoders[0].weights must be a list, got 5`."""
    types, want = _JSON_TYPES[type(shape) if isinstance(shape, (list, dict)) else shape]
    if type(doc) not in types:
        text = json.dumps(doc)
        raise ValueError(f"{what}{path} must be {want}, got {text[:40]}{' ...' * (len(text) > 40)}")
    if isinstance(shape, dict):
        for key, inner in shape.items():
            field = f"{path}.{key}" if path else f" {key}"
            if key not in doc:
                raise ValueError(f"{what}{field} is missing")
            check_json(doc[key], inner, what, field)
    elif isinstance(shape, list):
        for i, item in enumerate(doc):
            check_json(item, shape[0], what, f"{path}[{i}]")


def saved_array(saved, shape, name: str, source: str = "", positive: bool = False) -> np.ndarray:
    """`saved`, nested lists of numbers (as `check_json` found them), as a float array of
    exactly `shape`, which `source` declares; a ValueError names it on another shape, a
    non-finite value (an integer beyond the float range included) or, if `positive`, one <= 0."""
    a = np.asarray(saved, dtype=object)
    if a.shape != tuple(shape):
        raise ValueError(f"{name} has shape {a.shape}, expected {tuple(shape)}"
                         + (f" from {source}" if source else ""))
    try:
        a = a.astype(float)
    except OverflowError:  # an integer beyond the float range
        a = np.full(a.shape, np.inf)
    if not np.isfinite(a).all() or (positive and not (a > 0).all()):
        raise ValueError(f"{name} must be {'finite and > 0' if positive else 'finite'}")
    return a


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
        """Load statistics for modalities of widths `dims`; a ValueError names a
        field of the wrong JSON type (`check_json`), an array of the wrong count
        or shape, a non-finite value, or a std <= 0."""
        check_json(doc, {"mean": [[float]], "std": [[float]]}, "standardization")
        stats = []
        for name in ("mean", "std"):
            saved = doc[name]
            if len(saved) != len(dims):
                raise ValueError(f"standardization {name} holds {len(saved)} arrays, expected {len(dims)}")
            stats.append([saved_array(a, (d,), f"standardization {name}[{m}]", positive=name == "std")
                          for m, (a, d) in enumerate(zip(saved, dims))])
        return cls(*stats)

    def apply(self, ds: "Dataset") -> "Dataset":
        """Z-score every modality of `ds` with these statistics."""
        feats = [(x - mu) / sd for x, mu, sd in zip(ds.features, self.mean, self.std)]
        return Dataset(feats, ds.labels.copy())


@dataclass
class Dataset:
    features: list[np.ndarray]  # one (N, d_m) array per modality
    labels: np.ndarray

    def __post_init__(self):
        n = len(self.labels)
        for m, x in enumerate(self.features, start=1):
            if x.shape[0] != n:
                raise ValueError(f"modality {m} has {x.shape[0]} rows but {n} labels")

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(
            [x[idx].copy() for x in self.features], np.asarray(self.labels)[idx].copy()
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
    train = full.subset(order[:n_train])
    val = full.subset(order[n_train : n_train + n_val])
    test = full.subset(order[n_train + n_val : n_train + n_val + n_test])
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
# CSV persistence
#
# Schema: header `label,m1_0,...,m1_{d1-1},m2_0,...,m2_{d2-1}`, 0-based
# integer labels, `repr` float serialization (shortest exact round trip).
# `_format_rows` writes `repr`'s bytes: most values through the exact kernel
# `_digit_cells`, the rest through `repr` itself.


def _header(dims: Sequence[int]) -> list[str]:
    cols = ["label"]
    for m, d in enumerate(dims, start=1):
        cols.extend(f"m{m}_{j}" for j in range(d))
    return cols


# Rows per block of save_csv and load_csv: each block is formatted or parsed by
# a few whole-block calls, and its temporary arrays and strings stay a few MB.
_ROW_BLOCK = 4096

_U8 = np.uint64


def _low_bytes(n: int) -> int:
    return (1 << 8 * n) - 1


def _halves(a):
    """Veltkamp's split of doubles into halves of at most 26 bits: `a == hi + lo` exactly."""
    c = a * 134217729.0  # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


# By decimal exponent E = -4..5 (index E + 4): 10^(16 - E), which scales a value
# with 10^E <= |x| < 10^(E+1) to 17 integer digits, and its halves; the lower
# bounds 10^E and 10^6, each the first double at or above its power of ten.
_SCALE = np.array([float(10 ** (16 - k)) for k in range(-4, 6)])
_SCALE_HI, _SCALE_LO = _halves(_SCALE)
_POW10 = np.array([float(f"1e{k}") for k in range(-4, 7)])
# A cell's bytes from the 17 digits c0, A (8 digits) and B (8 digits), sign at
# byte 0 (a zero byte when positive, dropped like all padding):
#   E >= 0: sign c0 A[:E] '.' A[E:] B     E < 0: sign '0.' '0' * (-E - 1) c0 A B
# Per E: a constant, the shift of c0, the mask of A's integer digits, the shift of
# A (and B), and the mask of the shifted A kept.  For E < 0 the constant '0.000'
# lies under c0 and A, and '0' | digit is that digit.
_LAYOUT = np.array(
    [(0x3030302E30 << 8, 16 - 8 * k, 0, 24 - 8 * k, _low_bytes(8)) if k < 0 else
     (0x2E << 8 * (2 + k), 8, _low_bytes(k), 24, _low_bytes(8) ^ _low_bytes(3 + k)) for k in range(-4, 6)],
    dtype=_U8).T


def _swar8(v):
    """uint64 `v` < 10**8 as 8 ASCII digits in one word, the first in the lowest
    byte: halves, quarters and digits split by multiply-shift inside the word."""
    w = (v << _U8(32)) - (v // _U8(10**4)) * _U8(10**4 * 2**32 - 1)
    q = ((w * _U8(10486)) >> _U8(20)) & _U8(0x0000007F0000007F)
    w = (w << _U8(16)) - q * _U8(100 * 2**16 - 1)
    q = ((w * _U8(103)) >> _U8(10)) & _U8(0x000F000F000F000F)
    return ((w << _U8(8)) - q * _U8(10 * 2**8 - 1)) | _U8(0x3030303030303030)


def _digit_cells(x: np.ndarray, sep: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells `repr(x) + sep` of finite doubles `x` (`sep` an ASCII byte per cell,
    broadcast), as three uint64 words each whose little-endian bytes with the zero
    bytes dropped are the cell, and a mask of the cells decided exactly.  A cell not
    decided holds the byte 0x01 and `sep`, for `repr` to fill.

    Decided: doubles with 2**-13 <= |x| < 1e6, whose `repr` is positional, that
    have no form of 13 digits or fewer and no tie.  Dekker's product gives
    |x| * 10^(16 - E) = P + fr exactly, P an integer of 17 digits and fr in [0, 1);
    the shortest digits are the nearest multiple of 1000, 100, 10 or 1 closer to
    P + fr than half the gap to the neighbouring doubles, hg (< 11.1, and > 0.55 so
    17 digits always fit).  P % 100 + fr is exact (fr is a multiple of 2**-45), and
    so is a distance < 16.  No distance equals hg: a point half-way between doubles
    here has 30 or more digits.  The powers of two here, whose lower gap is half
    the upper one, have at most 10 digits."""
    a = np.abs(x)
    e = np.frexp(a)[1]
    ok = (a >= 2.0**-13) & (a < 1e6)
    a, e = np.where(ok, a, 1.5), np.where(ok, e, 1)
    i = (((e - 1) * 78913) >> 18).astype(np.intp) + 4  # floor(log10(2**(e-1))) + 4
    i += a >= _POW10.take(i + 1)
    scale = _SCALE.take(i)
    p = a * scale
    (ahi, alo), shi, slo = _halves(a), _SCALE_HI.take(i), _SCALE_LO.take(i)
    err = ((ahi * shi - p) + ahi * slo + alo * shi) + alo * slo
    fl = np.floor(err)
    fr = err - fl
    P = (p.astype(np.int64) + fl.astype(np.int64)).view(_U8)
    hg = np.ldexp(scale, e - 54)
    r4 = (P - P // _U8(10**4) * _U8(10**4)).astype(float)
    r3, r2, r1 = (r4 - np.floor(r4 / u) * u for u in (1000, 100, 10))
    # from P to the nearest multiple of 1000, 100, 10 and 1, and the distances to P + fr
    d14, d15, d16 = (r3 >= 500) * 1000 - r3, (r2 + fr > 50) * 100 - r2, (r1 + fr > 5) * 10 - r1
    d17 = (fr > 0.5) * 1.0
    g14, g15, g16 = np.abs(d14 - fr), np.abs(d15 - fr), np.abs(d16 - fr)
    ok &= (r4 > hg) & (r4 + hg < 9999) & (g16 != 5) & (fr != 0.5)  # 13 digits or fewer; ties
    k14 = g14 < hg
    k15 = (g15 < hg) & ~k14
    k16 = (g16 < hg) & ~k14 & ~k15
    D = P + (d17 + k14 * (d14 - d17) + k15 * (d15 - d17) + k16 * (d16 - d17)).astype(np.int64).view(_U8)
    c0 = D // _U8(10**16)
    rest = D - c0 * _U8(10**16)
    A, B = _swar8(rest // _U8(10**8)), _swar8(rest % _U8(10**8))
    const, c0_shift, a_head, shift, a_tail = (t.take(i) for t in _LAYOUT)
    end = shift - (k14 * _U8(24) + k15 * _U8(16) + k16 * _U8(8))  # after the last digit kept
    words = np.empty(x.shape + (3,), _U8)
    words[..., 0] = (np.signbit(x) * _U8(0x2D) | const | (c0 | _U8(0x30)) << c0_shift
                     | (A & a_head) << _U8(16) | (A << shift) & a_tail)
    words[..., 1] = A >> (_U8(64) - shift) | B << shift
    words[..., 2] = (B >> (_U8(64) - shift)) & ((_U8(1) << end) - _U8(1)) | sep << end
    bad = ~ok
    words[bad] = 0
    words[bad, 0] = np.broadcast_to(sep << _U8(8) | _U8(1), x.shape)[bad]
    return words, ok


def _format_rows(labels: np.ndarray, values: np.ndarray) -> bytes:
    """The CSV rows `label,repr(v),...\\n` of int64 `labels` >= 0 and finite `values`:
    `_digit_cells` for the values it decides and for labels below 10**8, `repr`
    spliced in at each 0x01 byte for the rest."""
    sep = np.full(values.shape[1], ord(","), _U8)
    sep[-1] = ord("\n")
    cells, ok = _digit_cells(values, sep)
    digits = np.searchsorted(10 ** np.arange(1, 8), labels, side="right").astype(_U8) + _U8(1)
    small = labels < 10**8
    head = np.zeros((len(labels), 1, 3), _U8)
    head[:, 0, 0] = np.where(small, _swar8(labels.astype(_U8)) >> (_U8(64) - _U8(8) * digits), _U8(1))
    head[:, 0, 1] = ord(",")
    text = np.concatenate([head, cells], axis=1).astype("<u8", copy=False).tobytes().translate(None, b"\0")
    rows, cols = np.nonzero(np.concatenate([~small[:, None], ~ok], axis=1))
    if len(rows) == 0:
        return text
    fill = [repr(v if c else lab).encode() for lab, v, c in
            zip(labels[rows].tolist(), values[rows, cols - 1].tolist(), cols.tolist())]
    return b"".join(part + cell for part, cell in zip(text.split(b"\1"), fill + [b""]))


# the line boundaries of `str.splitlines`
_LINE_BREAK = re.compile("\r\n|[\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029]")


def _copy_path(path: Path) -> Path:
    return path.with_name(path.name + ".npz")


def save_csv(dataset: Dataset, path, comment: str | None = None) -> None:
    """Write `dataset` as a CSV, then its binary copy `<name>.csv.npz`, keyed by
    the sha256 of the CSV's bytes; the copy holds what parsing the CSV returns.
    Only this function (through `generate-data`) writes copies, which are derived
    and safe to delete.  Labels other than one integer in [0, 2**63) per row, a
    non-finite feature value or a comment holding a line break raise ValueError
    before any file is opened; otherwise the CSV and its copy are both written."""
    path = Path(path)
    dims = [x.shape[1] for x in dataset.features]
    values = np.hstack(dataset.features, dtype=float)
    raw = np.asarray(dataset.labels)
    if raw.dtype.kind not in "iu" or raw.shape != values.shape[:1]:
        raise ValueError(f"labels must be {len(values)} integers, got {raw.dtype} of shape {raw.shape}")
    labels = raw.astype(np.int64)  # a label >= 2**63 wraps to a negative one
    if (labels < 0).any():
        raise ValueError(f"labels must be in [0, 2**63), got {raw[np.argmax(labels < 0)]}")
    if not np.isfinite(values).all():
        raise ValueError(f"feature values must be finite, got {values[~np.isfinite(values)][0]}")
    if comment and _LINE_BREAK.search(comment):
        raise ValueError(f"comment must be one line, got {comment!r}")
    digest = hashlib.sha256()
    with open(path, "wb") as f:

        def put(data: bytes) -> None:
            digest.update(data)
            f.write(data)

        if comment:
            put(f"# {comment}\n".encode("utf-8"))
        put((",".join(_header(dims)) + "\n").encode("utf-8"))
        for i in range(0, len(labels), _ROW_BLOCK):
            put(_format_rows(labels[i : i + _ROW_BLOCK], values[i : i + _ROW_BLOCK]))
    np.savez(_copy_path(path), labels=labels, values=values, csv_sha256=np.array(digest.hexdigest()))


@dataclass(frozen=True)
class CsvSchema:
    dims: tuple[int, ...]
    n_classes: int


def _parse_block(lines: list[str], labels: np.ndarray, values: np.ndarray, n_classes: int) -> None:
    """Fill `labels` and `values` from `lines` by whole-block conversions, which
    accept what `int` and `float` accept; a malformed line raises ValueError or
    OverflowError without naming its row."""
    n_cols = values.shape[1] + 1
    if any(line.count(",") != n_cols - 1 for line in lines):
        raise ValueError("ragged row")
    cells = ",".join(lines).split(",")
    labels[:] = np.array(cells[::n_cols], dtype=np.int64)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("label out of range")
    del cells[::n_cols]
    values[:] = np.array(cells, dtype=float).reshape(values.shape)


def _raise_row_error(path, lines: list[str], first_row: int, n_cols: int, n_classes: int) -> None:
    """Raise the diagnostic of the first malformed line; `lines[0]` is file row `first_row`."""
    for r, line in enumerate(lines, start=first_row):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise CsvFormatError(f"{path}: row {r} has {len(cells)} columns, expected {n_cols}")
        for c, cell in enumerate(cells, start=1):
            try:
                value = int(cell) if c == 1 else float(cell)
            except ValueError:
                kind = "non-integer label" if c == 1 else "non-numeric cell"
                raise CsvFormatError(f"{path}: row {r}, column {c}: {kind} {cell!r}") from None
            if c == 1 and not (0 <= value < n_classes):
                raise CsvFormatError(f"{path}: row {r}: label {value} out of range [0, {n_classes})")


def _read_copy(path: Path, data: bytes, schema: CsvSchema) -> tuple[np.ndarray, np.ndarray] | None:
    """The labels and values of the binary copy beside `path`, or None unless it
    reads, its `csv_sha256` is that of `data`, and its arrays fit `schema`:
    int64 labels in [0, K) and finite float64 values of shape (N, sum(dims))."""
    arrays = []
    try:
        with zipfile.ZipFile(_copy_path(path)) as z:
            for name in ("labels", "values", "csv_sha256"):
                with z.open(f"{name}.npy") as f:
                    arrays.append(np.lib.format.read_array(f, allow_pickle=False))
    # what a missing, truncated or corrupt zip or .npy member raises
    except (OSError, EOFError, KeyError, ValueError, RuntimeError, zipfile.BadZipFile):
        return None
    labels, values, key = arrays
    fits = (
        key.tolist() == hashlib.sha256(data).hexdigest()
        and labels.dtype == np.int64
        and values.dtype == np.float64
        and values.shape[1:] == (sum(schema.dims),)
        and labels.shape == values.shape[:1]
        and np.isfinite(values).all()
        and ((labels >= 0) & (labels < schema.n_classes)).all()
    )
    return (labels, values) if fits else None


def _parse_rows(path, lines: list[str], skipped: int, schema: CsvSchema) -> tuple[np.ndarray, np.ndarray]:
    """The labels and values of the data `lines`, parsed a block of rows at a
    time, below `skipped` comment lines and the header; the first malformed or
    non-finite cell raises a CsvFormatError naming its row and column."""
    n_cols = sum(schema.dims) + 1
    labels = np.empty(len(lines), dtype=np.int64)
    arr = np.empty((len(lines), n_cols - 1))
    for start in range(0, len(labels), _ROW_BLOCK):
        block = lines[start : start + _ROW_BLOCK]
        rows = slice(start, start + len(block))
        try:
            _parse_block(block, labels[rows], arr[rows], schema.n_classes)
        except (ValueError, OverflowError):
            _raise_row_error(path, block, start + 2 + skipped, n_cols, schema.n_classes)
            raise
    bad = np.argwhere(~np.isfinite(arr))
    if len(bad):
        i, j = bad[0]
        cell = lines[i].split(",")[j + 1]
        raise CsvFormatError(
            f"{path}: row {i + 2 + skipped}, column {j + 2}: non-finite cell {cell!r}"
        )
    return labels, arr


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Read a dataset CSV, validating header, shape, and label range.

    The comment lines and the header are checked first.  The rows then come
    from the binary copy `save_csv` wrote beside the file when that copy is
    keyed to these exact bytes and fits `schema`.  Otherwise (no copy, an
    edited CSV, an unreadable or mismatched copy) the copy is ignored and the
    rows are parsed a block at a time, with the same arrays and the same
    diagnostics.  Reading never writes a copy."""
    path = Path(path)
    expected_header = _header(schema.dims)
    data = path.read_bytes()
    text = data.decode("utf-8")
    # leading `# ...` lines carry provenance comments
    skipped = pos = 0
    while pos < len(text):
        brk = _LINE_BREAK.search(text, pos)
        end, after = (brk.start(), brk.end()) if brk else (len(text), len(text))
        if not text.startswith("#", pos):
            break
        skipped, pos = skipped + 1, after
    if pos == len(text):
        raise CsvFormatError(f"{path}: empty file, expected a header row")
    if text[pos:end].split(",") != expected_header:
        raise CsvFormatError(
            f"{path}: bad header; expected {','.join(expected_header)!r}"
        )
    rows = _read_copy(path, data, schema)
    if rows is None:
        rows = _parse_rows(path, text[after:].splitlines(), skipped, schema)
    labels, arr = rows
    blocks = np.split(arr, np.cumsum(schema.dims)[:-1], axis=1)
    return Dataset(blocks, labels)
