"""The per-row CSV writer and reader that `evfuse.data` vectorised, kept as test oracles.

`save_csv_rows` formats and `load_csv_rows` parses one cell at a time in
Python.  `evfuse.data.save_csv` must write the same bytes, and
`evfuse.data.load_csv` must return equal arrays or raise the same
`CsvFormatError` message.
"""

from pathlib import Path

import numpy as np

from evfuse.data import CsvFormatError, CsvSchema, Dataset, _header


def save_csv_rows(dataset: Dataset, path, comment: str | None = None) -> None:
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


def load_csv_rows(path, schema: CsvSchema) -> Dataset:
    path = Path(path)
    expected_header = _header(schema.dims)
    n_cols = len(expected_header)
    with open(path, "r", encoding="utf-8") as f:
        lines = f.read().splitlines()
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
    blocks = np.split(arr, np.cumsum(schema.dims)[:-1], axis=1)
    return Dataset(blocks, np.array(labels, dtype=np.int64))
