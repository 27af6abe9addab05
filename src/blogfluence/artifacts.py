"""The one text format that pipeline stages pass to each other.

An artifact is UTF-8 text: an optional ``# blogfluence ...`` header line,
then either plain rows (an optional column-name line, then tab-separated
rows) or ``[section]`` blocks of rows.  Blank and ``#`` lines are skipped
on reading and ``\\r`` reads as a line break, so writing a row that
would read back as one, as a ``[section]`` line or as two lines (a
field that holds ``\\r``) raises ``FormatError``.  Floats are written as
``repr(float(x))``, which reads back to the same float64.  A table is
written from the columns its reader returns (``_write``), and a write holds
those columns and one chunk's text.  Every table reads as columns, a chunk
of whole lines at a time: a section of numbers into one array
(``_number_rows``), any other table into an int64 or float64 array per
number field and a ``Strings`` per string field, its distinct names and an
int64 code per row (``_line_columns``).  So a read holds the text, its
output and one chunk, and no table's fields are all held as strings at
once.  A row with another field count, or a field its type rejects, raises
``FormatError`` naming the file and the line.  Only the rows of keyed
sections (``[meta]``, ``[dims]``) are read one by one.  A file is written
under a temporary name and moved into place, so that a write cut short
leaves the old file; a refused row leaves none.
"""

from __future__ import annotations

import io
import math
import os
import re
import shutil
from collections import defaultdict
from contextlib import contextmanager, suppress
from itertools import count, repeat
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from blogfluence.corpus import FormatError, Strings

Types = tuple[Callable[[str], object], ...]
# (start, end) of a section's text in the text of its file
Spans = list[tuple[int, int]]
# Rows formatted per write: the text of a chunk, not of a table, is held at once.
_CHUNK = 4096
# Characters of whole lines parsed per read: the fields of a chunk, and the
# UCS-4 copy that np.loadtxt parses, are a chunk's, not the table's.
_PARSE_CHUNK = 1 << 16


# After a newline, a line that reads back as blank, as a comment or as "[section]".
_UNREADABLE = re.compile(r"\n(?:[^\S\n]*\n|#|\[[^\t\n]*\]\n)")


def _readable(path, lines: str) -> str:
    """``lines`` (whole lines), unless one of them would not read back as a row,
    or holds a ``\\r``, which ``read_text``'s universal newlines read as a line break."""
    bad = _UNREADABLE.search("\n" + lines)
    at = bad.start() if bad else lines.find("\r")
    if at >= 0:
        fields = lines[lines.rfind("\n", 0, at) + 1:].split("\n", 1)[0].split("\t")
        field = fields[0] if bad else next(field for field in fields if "\r" in field)
        raise FormatError(f"{path}: cannot write a row with the field {field!r}: it would read "
                          "back as a blank, comment or [section] line, or as more than one row")
    return lines


@contextmanager
def _replacing(path: str | Path) -> Iterator[Path]:
    """A temporary path beside ``path``, moved onto it when the block ends; on
    any exception the temporary is removed and ``path`` keeps its old bytes."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            tmp.unlink()
        raise


def _format(column) -> tuple[str, Sequence]:
    """The ``%`` format of a chunk of a column and the values it formats: ``%d``
    of an int array, ``%r`` of a float array, else ``%s`` of each value: a str,
    ``repr(float(v))`` of a float (numpy 2 reprs "np.float64(...)"), or ``str(v)``."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        return "%r" if column.dtype.kind == "f" else "%d", column
    return "%s", [v if type(v) is str else repr(float(v)) if isinstance(v, (float, np.floating))
                  else str(v) for v in column]


def _write(path: str | Path, header: str | None, blocks) -> None:
    """Write the (title, columns) blocks in place of ``path``, whole or not at
    all: a list (or ``Strings``), int64 or float64 array per field, or one (fields,
    rows) int64 array, as ``_columns`` returns them, one ``%`` per ``_CHUNK`` rows.
    An exception leaves ``path``'s old bytes, except a refused row (``FormatError``),
    which removes ``path`` too: no artifact of earlier inputs stands in for it."""
    try:
        with _replacing(path) as tmp, open(tmp, "w", encoding="utf-8") as fh:
            if header:
                fh.write(header + "\n")
            for title, columns in blocks:
                if title:
                    fh.write(title + "\n")
                rows = set(map(len, columns))
                if len(rows) > 1:
                    raise ValueError(f"{path}: {title or 'table'} has columns of unequal length")
                for at in range(0, max(rows, default=0), _CHUNK):
                    formats, values = zip(*(_format(column[at:at + _CHUNK]) for column in columns))
                    fields = np.empty((len(values[0]), len(values)), object)
                    for i, value in enumerate(values):
                        fields[:, i] = value
                    line = "\t".join(formats) + "\n"
                    text = line * len(fields) % tuple(fields.ravel().tolist())
                    fh.write(_readable(path, text) if "%s" in line else text)  # numbers read as rows
    except FormatError:
        Path(path).unlink(missing_ok=True)
        raise


def copy_file(src: str | Path, dst: str | Path) -> None:
    """Copy ``src`` to ``dst`` as ``_write`` writes: whole or not at all."""
    with _replacing(dst) as tmp:
        shutil.copyfile(src, tmp)


def write_rows(path: str | Path, header: str | None, columns: Sequence,
               names: Sequence[str] | None = None) -> None:
    """Write the header, the column-name line if any, and the rows of ``columns``."""
    _write(path, header, [("\t".join(names) if names else None, columns)])


def write_sections(path: str | Path, header: str | None, sections: dict[str, Sequence]) -> None:
    """Write the header, then each section as a ``[name]`` line and the rows of its columns."""
    _write(path, header, ((f"[{name}]", columns) for name, columns in sections.items()))


def read_text(path: str | Path, until: str | None = None) -> str:
    """The text of ``path``, or its lines up to the first line ``until``, that
    line included; bytes that are not UTF-8 raise ``FormatError`` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            if until is None:
                return fh.read()
            head = []
            for line in fh:
                head.append(line)
                if line.rstrip("\n") == until:
                    break
            return "".join(head)
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc.reason}") from None


def _rows(text: str, first: int = 1) -> Iterator[tuple[int, str]]:
    """(line number, line) of the lines of ``text`` that are not blank or ``#``."""
    return ((n, line) for n, line in enumerate(text.split("\n"), first)
            if line.strip() and line[0] != "#")


def _line_number(text: str, at: int) -> int:
    """The number of the line of ``text`` that holds offset ``at``."""
    return text.count("\n", 0, at) + 1


def _convert(path, lineno: int, fields: list[str], types: Types) -> list:
    if len(fields) != len(types):
        raise FormatError(
            f"{path}:{lineno}: expected {len(types)} tab-separated fields, found {len(fields)}"
        )
    try:
        return [f if convert is str else convert(f) for convert, f in zip(types, fields)]
    except (ValueError, OverflowError) as exc:
        raise FormatError(f"{path}:{lineno}: {exc}") from None


# After a newline, a line that the readers skip: blank (whitespace only) or a "#" comment.
_SKIPPED = re.compile(r"\n(?:[^\S\n]*(?:\n|\Z)|#)")
# The skipped lines at the head of a text, then the line of its first row.
_HEAD = re.compile(r"(?:(?:[^\S\n]*|#.*)(?:\n|\Z))*(.*)")


def _line_columns(path, text: str, spans: Spans, types: Sequence[type]):
    """The rows of the spans of ``text`` by column, read a chunk of whole lines
    at a time: an int64 or float64 array per ``int`` or ``float`` field, one
    (fields, rows) int64 array if every field is ``int``, and a ``Strings`` per
    ``str`` field, coded over one name table: the distinct names of the
    table's ``str`` fields.  A chunk with a row of another field count, or a
    field its type rejects, is left to the row reader, which names the line;
    so a read holds the text, its output and one chunk's fields, and no
    string per row."""
    width, code = len(types), defaultdict(count().__next__)
    parts = [[np.zeros(0, np.float64 if t is float else np.int64)] for t in types]
    for start, end in spans:
        lo = start + 1  # a span opens with the end of its title line
        while lo < end:
            cut = text.find("\n", lo + _PARSE_CHUNK - 1, end) + 1 or end
            body, at, lo = text[lo:cut].rstrip("\n"), lo, cut  # empty last lines: skipped rows
            lines = body.split("\n")
            if _SKIPPED.search("\n" + body):
                lines = [line for line in lines if line.strip() and line[0] != "#"]
            try:
                if set(map(str.count, lines, repeat("\t"))) - {width - 1}:
                    raise ValueError("a row of another field count")
                fields = "\t".join(lines).split("\t") if lines else []
                for i, t in enumerate(types):
                    parts[i].append(np.fromiter(map(code.__getitem__ if t is str else t,
                                                    fields[i::width]),
                                                parts[i][0].dtype, len(lines)))
            except (ValueError, OverflowError):
                # int64 bounds ``int`` here as the arrays do, so the row reader
                # rejects what they rejected.
                for lineno, line in _rows(body, _line_number(text, at)):
                    _convert(path, lineno, line.split("\t"),
                             [np.int64 if t is int else t for t in types])
                raise AssertionError(
                    f"{path}: the row reader accepted what the column reader rejected") from None
    names, columns = list(code), []
    for t, part in zip(types, parts):
        column = np.concatenate(part)
        part.clear()  # a field's chunks are freed before the next field is joined
        columns.append(Strings(names, column) if t is str else column)
    return np.array(columns) if set(types) == {int} else columns


def _number_rows(text: str, spans: Spans, dtype: type, width: int) -> np.ndarray:
    """The rows of the spans of ``text`` as one (rows, ``width``) array.

    ``np.loadtxt`` parses a chunk of whole lines at a time into an array
    sized by the spans' line count; a chunk of whitespace lines holds no
    rows.  Raises ``ValueError`` where ``np.loadtxt`` fails on a chunk (at a
    ``#`` line, say) or reads rows of another width, and where a chunk holds
    one of the separators \\x1c-\\x1f, which it reads as space and ``int``
    and ``float`` refuse: ``_line_columns`` then reads the lines."""
    # A span's first line is the rest of its section line, so each row follows a newline.
    out = np.empty((sum(text.count("\n", lo, end - 1) for lo, end in spans), width), dtype)
    n = 0
    for lo, end in spans:
        while lo < end:
            cut = text.find("\n", lo + _PARSE_CHUNK - 1, end) + 1 or end
            chunk, lo = text[lo:cut], cut
            if chunk.isspace():  # no rows: the row reader skips each of these lines
                continue
            if any(c in chunk for c in "\x1c\x1d\x1e\x1f"):
                raise ValueError("a separator that int and float refuse")
            rows = np.loadtxt(io.StringIO(chunk), dtype=dtype, delimiter="\t", comments=None,
                              ndmin=2)
            if rows.shape[1] != width:
                raise ValueError(f"{rows.shape[1]} fields, not {width}")
            out[n:n + len(rows)] = rows
            n += len(rows)
    return out if n == len(out) else out[:n].copy()  # a blank line was counted


def _columns(path, text: str, spans: Spans, types: Sequence[type]):
    """``_line_columns`` of the rows of ``text[start:end]`` for each (start, end)
    of ``spans``.

    Fields all ``int`` or all ``float`` are first read by ``_number_rows``;
    where that fails, ``_line_columns`` reads the spans, and accepts or
    names the line."""
    dtype = {frozenset({int}): np.int64, frozenset({float}): np.float64}.get(frozenset(types))
    if dtype is not None:
        with suppress(ValueError):
            columns = _number_rows(text, spans, dtype, len(types)).T
            return columns if dtype is np.int64 else list(columns)
    return _line_columns(path, text, spans, types)


def read_columns(path: str | Path, types: Sequence[type], columns: Sequence[str]) -> list:
    """The rows of a plain artifact by column (see ``_line_columns``); its first
    row must name the ``columns``."""
    text = read_text(path)
    head = _HEAD.match(text)
    if head[1] != "\t".join(columns):
        lineno = _line_number(text, head.start(1)) if head[1] else 0
        raise FormatError(f"{path}:{lineno}: expected the column names {list(columns)}")
    return _line_columns(path, text, [(head.end(), len(text))], types)


# A "[name]" line; it has no tab, so a row starting with "[" stays a row.  Past
# the first line, a section line is found by the newline before it, which the
# regex engine scans for much faster than for a multiline "^".
_SECTION = re.compile(r"\[([^\t\n]*)\](?=\n|\Z)")
_LATER_SECTION = re.compile(r"\n" + _SECTION.pattern)

Spec = list[type] | dict[str, Types]


def read_sections(path: str | Path, specs: dict[str, Spec]) -> dict:
    return parse_sections(path, read_text(path), specs)


def parse_sections(path: str | Path, text: str, specs: dict[str, Spec]) -> dict:
    """The rows of each ``[section]`` of ``text``, read from ``path``, named in ``specs``.

    A section given a list of ``str``, ``int`` and ``float`` reads as its
    columns (``_columns``).  One given a dict is keyed: the first field of a
    row names it and selects the types of the rest; it reads as key -> values,
    and every key must occur.  Every section of ``specs`` must occur, if
    only as its title line.  Sections are found by their offsets in
    ``text``, and a section of numbers is read from there a chunk at a time.
    """
    # Keyed rows are converted as they are read, column sections once all their spans are found.
    out = {name: {} if isinstance(spec, dict) else [] for name, spec in specs.items()}
    first = _SECTION.match(text)
    # (name, start of its line, end of its "[name]") of each section line
    sections = [(first[1], 0, first.end())] if first else []
    sections += [(m[1], m.start() + 1, m.end()) for m in _LATER_SECTION.finditer(text)]
    head = sections[0][1] if sections else len(text)
    for lineno, _ in _rows(text[:head]):
        raise FormatError(f"{path}:{lineno}: row before the first [section]")
    for (name, _, start), end in zip(sections, [at for _, at, _ in sections[1:]] + [len(text)]):
        spec = specs.get(name)
        if spec is None:
            raise FormatError(f"{path}:{_line_number(text, start)}: unexpected section '[{name}]'")
        if isinstance(spec, dict):
            for n, line in _rows(text[start:end], _line_number(text, start)):
                key, *fields = line.split("\t")
                if key not in spec:
                    raise FormatError(f"{path}:{n}: unexpected key {key!r} in [{name}]")
                out[name][key] = _convert(path, n, fields, spec[key])
        else:
            out[name].append((start, end))
    found = {name for name, _, _ in sections}
    for name, spec in specs.items():
        if name not in found:
            raise FormatError(f"{path}: lacks [{name}]")
        if not isinstance(spec, dict):
            out[name] = _columns(path, text, out[name], spec)
        elif missing := sorted(spec.keys() - out[name].keys()):
            raise FormatError(f"{path}: [{name}] lacks {', '.join(missing)}")
    return out


def cell_columns(array: np.ndarray, *labels: Sequence[str] | None) -> list:
    """The columns of one row per cell of ``array``, in C order: each axis's
    index, or its label where ``labels`` gives that axis a list, then the
    value.  ``cell_array`` reads them back."""
    at = np.indices(array.shape).reshape(array.ndim, -1)
    labels += (None,) * (array.ndim - len(labels))
    return [index if names is None else list(map(names.__getitem__, index.tolist()))
            for index, names in zip(at, labels)] + [array.ravel()]


def check_indices(path: str | Path, what: str, indices: np.ndarray, size: int) -> None:
    """Raise ``FormatError`` unless every index is in ``[0, size)``."""
    if indices.size and not 0 <= indices.min() <= indices.max() < size:
        bad = indices[(indices < 0) | (indices >= size)][0]
        raise FormatError(f"{path}: {what} index {bad} is outside [0, {size})")


def _own_names(column: Strings) -> Strings:
    """``column`` coded over the names it holds, in first-seen order, not over
    the name table that the string columns of its section share."""
    used, first = np.unique(column.codes, return_index=True)
    used = used[np.argsort(first)]
    code = np.zeros(len(column.names), np.int64)
    code[used] = np.arange(len(used))
    return Strings([column.names[c] for c in used.tolist()], code[column.codes])


def cell_array(path: str | Path, sections: dict, name: str, *axes) -> tuple[np.ndarray, list]:
    """The array whose cells the rows of ``sections[name]`` list, as
    ``cell_columns`` wrote them, and each axis's labels (None on an index axis).

    Each axis is given as a size, a label list, or None: from the rows, its
    labels in first-seen order or one past its largest index.  An unknown
    label, an index outside its axis, and a cell missing or listed twice
    raise ``FormatError`` naming the file, the section and the shape."""
    *keys, values = sections[name]
    keys = [key if isinstance(key, np.ndarray) else _own_names(key) for key in keys]
    labels = [None if isinstance(key, np.ndarray) else key.names if axis is None else list(axis)
              for key, axis in zip(keys, axes)]
    shape = [len(names) if names is not None else int(key.max(initial=-1)) + 1 if axis is None
             else axis for key, axis, names in zip(keys, axes, labels)]

    def refuse(problem: str) -> FormatError:
        return FormatError(f"{path}: [{name}] needs each of its {' x '.join(map(str, shape))} "
                           f"cells exactly once; {problem}")

    cell = np.zeros(len(values), np.int64)
    for axis, (key, names, size) in enumerate(zip(keys, labels, shape)):
        if names is None:
            at = key
            if at.size and not 0 <= at.min() <= at.max() < size:
                bad = at[(at < 0) | (at >= size)][0]
                raise refuse(f"axis {axis} index {bad} is outside [0, {size})")
        else:
            index = {label: i for i, label in enumerate(names)}
            for label in key.names:
                if label not in index:
                    raise refuse(f"axis {axis} label {label!r} is not among its {size}")
            at = np.array([index[label] for label in key.names], np.int64)[key.codes]
        cell = cell * size + at
    if not np.array_equal(np.sort(cell), np.arange(math.prod(shape))):
        raise refuse(f"it lists {np.unique(cell).size} of them in {cell.size} rows")
    out = np.zeros(math.prod(shape))
    out[cell] = values
    return out.reshape(shape), labels
