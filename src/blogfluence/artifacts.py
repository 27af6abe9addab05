"""The one text format that pipeline stages pass to each other.

An artifact is UTF-8 text: an optional ``# blogfluence ...`` header line,
then either plain rows (an optional column-name line, then tab-separated
rows) or ``[section]`` blocks of rows.  Blank and ``#`` lines are skipped
on reading.  Floats are written as ``repr(float(x))``, which reads back to
the same float64.  Readers take one converter per field (``int``,
``float``, ``str``); a row with another field count, or a field its
converter rejects, raises ``FormatError`` naming the file and the line.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from blogfluence.corpus import FormatError

Types = tuple[Callable[[str], object], ...]
# Rows of a labelled matrix: row label, column index, value.
MATRIX: Types = (str, int, float)


def _line(row: Sequence) -> str:
    # numpy 2 scalars repr as "np.float64(...)": convert floats to float first.
    return "\t".join([
        v if type(v) is str else repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
        for v in row
    ]) + "\n"


def _write(path: str | Path, header: str | None, blocks) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(header + "\n")
        for title, rows in blocks:
            if title:
                fh.write(title + "\n")
            fh.writelines(map(_line, rows))


def write_rows(path: str | Path, header: str | None, rows: Iterable[Sequence],
               columns: Sequence[str] | None = None) -> None:
    """Write the header, the column-name line if any, and one line per row."""
    _write(path, header, [("\t".join(columns) if columns else None, rows)])


def write_sections(path: str | Path, header: str | None,
                   sections: dict[str, Iterable[Sequence]]) -> None:
    """Write the header, then each section as a ``[name]`` line and its rows."""
    _write(path, header, ((f"[{name}]", rows) for name, rows in sections.items()))


def _lines(path: str | Path) -> Iterator[tuple[int, str]]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    return ((n, line) for n, line in enumerate(lines, 1) if line.strip() and line[0] != "#")


def _convert(path, lineno: int, fields: list[str], types: Types) -> list:
    if len(fields) != len(types):
        raise FormatError(
            f"{path}:{lineno}: expected {len(types)} tab-separated fields, found {len(fields)}"
        )
    try:
        return [f if convert is str else convert(f) for convert, f in zip(types, fields)]
    except ValueError as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None


def read_rows(path: str | Path, types: Types, columns: Sequence[str] | None = None) -> list[list]:
    """Rows of a plain artifact; with ``columns``, the first line must name them."""
    lines = _lines(path)
    if columns:
        lineno, line = next(lines, (0, ""))
        if line != "\t".join(columns):
            raise FormatError(f"{path}:{lineno}: expected the column names {list(columns)}")
    return [_convert(path, lineno, line.split("\t"), types) for lineno, line in lines]


def read_sections(path: str | Path, specs: dict[str, Types | dict[str, Types]]) -> dict:
    """Rows of each ``[section]`` named in ``specs``.

    A section given a tuple of types reads as a list of rows.  One given a
    dict is keyed: the first field of a row names it and selects the types
    of the rest; it reads as key -> values, and every key must occur.
    """
    out = {name: {} if isinstance(spec, dict) else [] for name, spec in specs.items()}
    section = None
    for lineno, line in _lines(path):
        if line.startswith("["):
            section = line.strip("[]")
            if section not in specs:
                raise FormatError(f"{path}:{lineno}: unexpected section {line!r}")
        elif section is None:
            raise FormatError(f"{path}:{lineno}: row before the first [section]")
        elif not isinstance(specs[section], dict):
            out[section].append(_convert(path, lineno, line.split("\t"), specs[section]))
        else:
            key, *fields = line.split("\t")
            if key not in specs[section]:
                raise FormatError(f"{path}:{lineno}: unexpected key {key!r} in [{section}]")
            out[section][key] = _convert(path, lineno, fields, specs[section][key])
    for name, spec in specs.items():
        missing = sorted(spec.keys() - out[name].keys()) if isinstance(spec, dict) else []
        if missing:
            raise FormatError(f"{path}: [{name}] lacks {', '.join(missing)}")
    return out


def matrix_rows(labels: Sequence[str], matrix: np.ndarray) -> Iterator[tuple]:
    """``MATRIX`` rows of a matrix whose rows carry labels, row-major."""
    for label, row in zip(labels, matrix):
        for col, value in enumerate(row):
            yield label, col, value


def check_indices(path: str | Path, what: str, indices: np.ndarray, size: int) -> None:
    """Raise ``FormatError`` unless every index is in ``[0, size)``."""
    bad = np.flatnonzero((indices < 0) | (indices >= size))
    if bad.size:
        raise FormatError(f"{path}: {what} index {indices[bad[0]]} is outside [0, {size})")


def labelled_matrix(rows: list[list], labels: list[str] | None = None,
                    path: str | Path = "matrix") -> tuple[list[str], np.ndarray]:
    """Inverse of ``matrix_rows``: labels in first-seen order unless given."""
    if labels is None:
        labels = list(dict.fromkeys(row[0] for row in rows))
    index = {label: i for i, label in enumerate(labels)}
    cols = [row[1] for row in rows]
    if cols and min(cols) < 0:
        raise FormatError(f"{path}: matrix column {min(cols)} is negative")
    mat = np.zeros((len(labels), max(cols, default=-1) + 1))
    for label, col, value in rows:
        if label not in index:
            raise FormatError(
                f"{path}: matrix row label {label!r} is not among the {len(labels)} expected"
            )
        mat[index[label], col] = value
    return labels, mat
