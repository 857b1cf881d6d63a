"""Dataset entities, CSV manifests, and the binary feature-matrix format.

A dataset bundle lives in a directory of small CSV manifests plus binary
feature files (magic ``VGF1``). Feature values are stored single precision
little-endian on disk and stay float32 in memory once read; every
computation on them widens them to float64, an exact conversion.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import os
import re
import stat
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np
from numpy.dtypes import StringDType
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BundleValidationError, CsvParseError, FormatError

MAGIC = b"VGF1"
# bytes per read of a VGF1 payload from a pipe or other stream, and per
# write of a payload cast to float32
STREAM_CHUNK = 1 << 24
# values per finiteness check of a read payload, so its mask stays small
FINITE_CHUNK = 1 << 16
# the magnitude from which a float64 value rounds to float32 infinity
_F32_OVERFLOW = 2.0**128 - 2.0**103
# rows that write_manifest formats, and checks for a \r, at a time
WRITE_CHUNK = 2048

CLASSES_FILENAME = "classes.csv"
OBSERVATIONS_FILENAME = "observations.csv"
LOCATIONS_FILENAME = "locations.csv"
SCORES_FILENAME = "image_scores.vgf1"
METADATA_FILENAME = "metadata_features.vgf1"
EMBEDDINGS_FILENAME = "embeddings.vgf1"


@dataclass(eq=False)
class ClassTable:
    """Class names and venomous flags as two columns; position k is class id k."""

    names: np.ndarray
    venomous_flags: np.ndarray

    def __post_init__(self):
        self.names = np.asarray(self.names, dtype=StringDType())
        self.venomous_flags = np.asarray(self.venomous_flags, dtype=bool)
        if not self.names.size:
            raise ValueError("no classes")
        if self.venomous_flags.shape != self.names.shape:
            raise ValueError(
                f"{self.venomous_flags.shape} venomous flags for {self.names.shape} names"
            )

    @property
    def n_classes(self) -> int:
        return self.names.size


class ObservationRow(NamedTuple):
    """One image row, as the ``rows`` view of an ObservationTable yields it."""

    observation_id: str
    image_index: int
    class_id: int | None
    location_code: str


@dataclass(eq=False)
class ObservationTable:
    """Image rows in file order, held as columns; one row per image.

    ``ids`` holds the distinct observation ids in ``str`` order and ``group``
    each row's index into it; ``codes`` and ``location`` do the same for the
    location codes. ``class_id`` is -1 on unlabeled rows. Build tables with
    ``from_columns``, which keeps every id and code in use.
    """

    ids: np.ndarray
    group: np.ndarray
    image_index: np.ndarray
    class_id: np.ndarray
    codes: np.ndarray
    location: np.ndarray

    @classmethod
    def from_columns(
        cls, observation_id, image_index, class_id, location_code
    ) -> "ObservationTable":
        """Table from per-row columns; ``class_id`` -1 marks an unlabeled row.

        Id and code columns may be the fixed-width UTF-8 bytes that
        ``read_manifest`` gathers; only their distinct values are cast to
        ``StringDType``.
        """
        ids, group, _ = sorted_unique(_strings(observation_id))
        codes, location, _ = sorted_unique(_strings(location_code))
        return cls(
            text(ids),
            group,
            np.asarray(image_index, dtype=np.int64),
            np.asarray(class_id, dtype=np.int64),
            text(codes),
            location,
        )

    def __len__(self) -> int:
        return self.image_index.size

    def take(self, keep: np.ndarray) -> "ObservationTable":
        """The rows a boolean mask selects, in file order."""
        return ObservationTable.from_columns(
            self.ids[self.group[keep]],
            self.image_index[keep],
            self.class_id[keep],
            self.codes[self.location[keep]],
        )

    @property
    def rows(self) -> list[ObservationRow]:
        """Read-only row objects in file order, built on each access."""
        return [
            ObservationRow(obs_id, idx, None if cid < 0 else cid, code)
            for obs_id, idx, cid, code in zip(
                self.ids[self.group].tolist(),
                self.image_index.tolist(),
                self.class_id.tolist(),
                self.codes[self.location].tolist(),
            )
        ]

    def labeled_rows(self) -> list[ObservationRow]:
        return [r for r in self.rows if r.class_id is not None]


class FeatureMatrix:
    """Dense rows x dims matrix of finite reals.

    float32 and float64 arrays are kept as given, so a matrix read from a
    VGF1 file stays float32 in memory; any other dtype is cast to float64.
    Computation widens float32 values to float64, which is exact.
    """

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values)
        if arr.dtype != np.float32:
            arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("feature matrix contains non-finite values")
        self.values = arr

    @classmethod
    def _of_finite(cls, values: np.ndarray) -> "FeatureMatrix":
        """Wrap a 2-D float32 or float64 array whose values were already
        found finite."""
        matrix = cls.__new__(cls)
        matrix.values = values
        return matrix

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def dims(self) -> int:
        return self.values.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureMatrix):
            return NotImplemented
        return self.values.shape == other.values.shape and np.array_equal(
            self.values, other.values
        )

    def __repr__(self) -> str:
        return f"FeatureMatrix({self.rows}x{self.dims})"


@dataclass(eq=False)
class LocationTable:
    """Location codes and their metadata rows, held as columns.

    ``codes`` holds the distinct location codes in ``str`` order and ``index``
    each code's row in the metadata feature matrix.
    """

    codes: np.ndarray
    index: np.ndarray


@dataclass
class DatasetBundle:
    classes: ClassTable
    observations: ObservationTable
    image_scores: FeatureMatrix
    metadata_features: FeatureMatrix
    locations: LocationTable
    embeddings: FeatureMatrix | None = None

    def metadata_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per observation row: its location's metadata row (-1 if unknown) and
        whether its location code is known.

        Both code columns are sorted and distinct, so when they are equal, as
        in every bundle ``synth`` writes, the k-th observation code is the k-th
        location code. Otherwise each distinct observation code is looked up
        once.
        """
        locations, obs = self.locations, self.observations
        if np.array_equal(locations.codes, obs.codes):
            return locations.index[obs.location], np.ones(len(obs), dtype=bool)
        place = dict(zip(locations.codes.tolist(), itertools.count()))
        codes = obs.codes.tolist()
        at = np.fromiter(
            map(place.get, codes, itertools.repeat(-1)), dtype=np.intp, count=len(codes)
        )
        known = at >= 0
        index = np.full(at.shape, -1, dtype=np.int64)
        index[known] = locations.index[at[known]]
        return index[obs.location], known[obs.location]

    def resolved_metadata_rows(self) -> np.ndarray:
        """Each observation row's metadata row; BundleValidationError if one
        cannot be resolved (validate_bundle reports which)."""
        index, known = self.metadata_rows()
        if not known.all() or np.any((index < 0) | (index >= self.metadata_features.rows)):
            raise BundleValidationError("unresolved location codes; validate the bundle")
        return index


# ---------------------------------------------------------------------------
# CSV manifests
# ---------------------------------------------------------------------------

# a line and its end, as csv.reader splits them: \r\n, \r or \n, or none at
# the end of the file
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)|[^\r\n]+")


def _line_at(raw: bytes, at: int) -> int:
    """The physical line holding ``raw[at]``, counting line ends as
    csv.reader does: ``\r\n``, ``\r`` and ``\n``."""
    head = raw[:at]
    return 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")


def _open_csv(path: str | Path, expected_header: list[str]) -> tuple[bytes, Iterator[list[str]]]:
    """The manifest's bytes after its header line(s), and the csv.reader
    that read them, whose ``line_num`` counts those lines.

    Before any row is read, a byte that is not UTF-8 rejects the file, then
    a NUL does (numpy's strings end at one, and csv.reader before Python
    3.11 refuses it); either error names the physical line. One leading
    byte-order mark is dropped. csv.reader is given the header's lines
    alone, one at a time.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.isascii():
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CsvParseError(
                str(path), _line_at(raw, exc.start), f"byte {raw[exc.start]:#04x} is not UTF-8"
            ) from None
    nul = raw.find(b"\x00")
    if nul >= 0:
        raise CsvParseError(str(path), _line_at(raw, nul), "NUL character in a field")
    read_to = len(codecs.BOM_UTF8) if raw.startswith(codecs.BOM_UTF8) else 0

    def lines() -> Iterator[str]:
        nonlocal read_to
        for line in _LINE.finditer(raw, read_to):
            read_to = line.end()
            yield line.group().decode("utf-8")

    reader = csv.reader(lines())
    try:
        header = next(reader)
    except StopIteration:
        raise CsvParseError(str(path), 1, "missing header")
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise CsvParseError(str(path), reader.line_num, str(exc)) from None
    if [h.strip() for h in header[: len(expected_header)]] != expected_header:
        raise CsvParseError(
            str(path), 1, f"expected header {','.join(expected_header)}"
        )
    # the rows start after the last line the reader took
    return raw[read_to:], reader


def read_manifest(
    path: str | Path, header: list[str]
) -> tuple[list[np.ndarray], int | None, Sequence[int]]:
    """Data rows of a CSV manifest as one column per name in ``header``.

    The first line(s) must hold ``header``. Fields follow RFC 4180 quoting,
    blank lines are skipped and fields past the header's are ignored; a
    byte that is not UTF-8 or a NUL character anywhere rejects the file,
    naming its physical line, and so does a field, in any column, longer
    than ``csv.field_size_limit()``. The second value is None, or the index
    (among non-blank data rows) of the first row with too few fields; the
    columns then hold the rows before it. The third is the physical line
    on which each non-blank data row ends.

    A plain file, one that ``_plain_cells`` can split at its commas and line
    ends, is read from byte offsets into columns of fixed-width UTF-8 bytes;
    every other file is read by csv.reader, from the same bytes, into
    ``StringDType`` columns. ``text``, ``parse_ints`` and ``sorted_unique``
    take either kind.
    """
    n = len(header)
    body, reader = _open_csv(path, header)
    above = reader.line_num  # the header's lines
    columns = _plain_cells(body, n)
    if columns is not None:  # no blank line, so each row is one line
        return columns, None, range(above + 1, above + 1 + columns[0].size)
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", newline=""))
    rows, lines = [], []
    try:
        for row in reader:
            if row:
                rows.append(row)
                lines.append(above + reader.line_num)
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise CsvParseError(str(path), above + reader.line_num, str(exc)) from None
    short = next((k for k, row in enumerate(rows) if len(row) < n), None)
    kept = rows if short is None else rows[:short]
    # a column at a time, so no row is copied
    columns = [np.array([row[j] for row in kept], dtype=StringDType()) for j in range(n)]
    return columns, short, lines


def _plain_cells(body: bytes, n: int) -> list[np.ndarray] | None:
    """The first ``n`` fields of each line of ``body``, the UTF-8 text after
    a manifest's header, split at its commas and line ends; None unless that
    is how csv.reader splits it and the columns are cheap to gather.

    That holds when the text has no quote, its lines all end in ``\n`` or
    all in ``\r\n``, and all have the same number of fields, at least ``n``
    and at least two (so none is blank), none longer than
    ``csv.field_size_limit()``: a UTF-8 field has at least as many bytes as
    characters, so a file this check passes has no field that csv.reader
    would refuse. Each column is gathered as one fixed-width bytes array,
    each field's UTF-8 bytes followed by NULs, so its rows times its widest
    field must not exceed the text's own size.
    """
    if b'"' in body:
        return None
    if b"\r" in body:
        crlf = body.count(b"\r\n")
        if crlf != body.count(b"\r") or crlf != body.count(b"\n"):
            return None
        body = body.replace(b"\r\n", b"\n")
    if not body:
        return [np.empty(0, dtype="S1") for _ in range(n)]
    if not body.endswith(b"\n"):
        body += b"\n"
    text = np.frombuffer(body, dtype=np.uint8)
    newline = text == ord("\n")
    ends = np.flatnonzero(newline | (text == ord(",")))
    rows = np.count_nonzero(newline)
    width = ends.size // rows
    # every width-th field ends a line, and there are only ``rows`` line
    # ends: so each line has ``width`` fields
    if width < max(n, 2) or not newline[ends[width - 1 :: width]].all():
        return None
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts
    if lengths.max() > csv.field_size_limit():
        return None
    starts = starts.reshape(rows, width)
    lengths = lengths.reshape(rows, width)
    widest = [max(int(lengths[:, j].max()), 1) for j in range(n)]
    if rows * max(widest) > len(body):
        return None
    # zeros past the end, so that every field's window lies in the array
    padded = np.frombuffer(body + bytes(max(widest)), dtype=np.uint8)
    columns = []
    for j, w in enumerate(widest):
        # the w bytes from each offset, as one fixed-width string each
        windows = sliding_window_view(padded, w).view(f"S{w}")[:, 0]
        column = windows[starts[:, j]]
        if lengths[:, j].min() < w:  # zero the bytes past each shorter field
            column.view(np.uint8).reshape(rows, w)[np.arange(w) >= lengths[:, j, None]] = 0
        columns.append(column)
    return columns


def write_manifest(path: str | Path, header: list[str], columns: list) -> None:
    """Write ``header`` and the rows of ``columns``, each an array or list of
    str, int or float values, as a CSV manifest that ``read_manifest`` reads
    back: ``\n`` line ends, and only fields that need it are quoted.

    Rows go out in chunks, each turned into Python values on its own, and
    each first joined as plain text, ``str`` of each value with ``,`` between
    and ``\n`` after each row: what csv.writer writes when no field needs
    quoting. It is kept when there are at least two columns (csv.writer quotes
    a row of one empty field) and the text holds one ``,`` per field
    boundary, one ``\n`` per row, and no ``"`` or ``\r``. Any other chunk is
    formatted a row at a time by ``_lines_quoting_cr``.
    """
    boundaries = len(columns) - 1
    # %s formats a value as str() does; one format per chunk, at C speed
    plain_row = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_lines_quoting_cr([header]))
        for start in range(0, len(columns[0]), WRITE_CHUNK):
            chunk = [column[start : start + WRITE_CHUNK] for column in columns]
            chunk = [c.tolist() if isinstance(c, np.ndarray) else c for c in chunk]
            rows = len(chunk[0])
            text = plain_row * rows % tuple(itertools.chain.from_iterable(zip(*chunk)))
            if (
                not boundaries
                or "\r" in text
                or '"' in text
                or text.count(",") != rows * boundaries
                or text.count("\n") != rows
            ):
                text = _lines_quoting_cr(zip(*chunk))
            fh.write(text)


def _lines_quoting_cr(rows: Iterable) -> str:
    """``rows`` as CSV lines ending in ``\n``, quoted as csv.writer quotes
    them. csv.writer quotes a field for a line break only if its
    ``lineterminator`` holds that character, so on Python 3.10-3.12 a field
    with a lone ``\r`` would be written bare and read back split; this
    writer ends lines in ``\r\n``, so it quotes it, and each ``\r\n`` is
    then swapped for ``\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    lines = []
    for row in rows:
        buf.seek(0)
        buf.truncate()
        writer.writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


def text(values) -> np.ndarray:
    """``values`` as a ``StringDType`` array; fixed-width bytes are decoded
    as UTF-8, and a ``StringDType`` array is returned as it is."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "T":
        return values
    return np.asarray(values, dtype=StringDType())


def _strings(values) -> np.ndarray:
    """A string column to compare and sort: fixed-width UTF-8 bytes as they
    are, whose byte order is code-point order, else ``text(values)``."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "S":
        return values
    return text(values)


# the powers of ten below 10**19, for _digit_ints
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _digit_ints(cells: np.ndarray) -> np.ndarray | None:
    """The int64 values of a fixed-width bytes column whose every field is
    1 to 18 ASCII digits followed only by NULs, else None.

    Horner's rule runs over all the bytes of a field, a NUL counting as the
    digit 0, and the result is divided by ten for each NUL; with at most 18
    bytes the value stays below 10**18, inside int64.
    """
    width = cells.dtype.itemsize
    if cells.dtype.kind != "S" or not 0 < width <= 18:
        return None
    raw = np.ascontiguousarray(cells).view(np.uint8).reshape(cells.size, width)
    # byte k of every field as row k, so that each step reads contiguous bytes
    raw = np.ascontiguousarray(raw.T)
    digit = (raw - ord("0")) < 10  # unsigned: the bytes below "0" wrap past 9
    if not (
        digit[0].all()
        and (digit[1:] <= digit[:-1]).all()  # no digit after a non-digit
        and (digit | (raw == 0)).all()
    ):
        return None
    values = np.zeros(cells.size, dtype=np.int64)
    for place in raw & 0x0F:  # "0".."9" are 0x30..0x39, and NUL is 0
        values *= 10
        values += place
    values //= _POW10[width - digit.sum(axis=0, dtype=np.uint8)]
    return values


def parse_ints(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` of each string cell as int64, and a mask of the cells it
    rejects; a value outside the int64 range is rejected too.

    A fixed-width bytes column of plain digits is read by ``_digit_ints``;
    any other column as ``StringDType``, where ``int()`` also takes signs,
    whitespace, ``_`` and non-ASCII digits.
    """
    values = _digit_ints(cells)
    if values is not None:
        return values, np.zeros(cells.shape, dtype=bool)
    cells = text(cells)
    try:
        return cells.astype(np.int64), np.zeros(cells.shape, dtype=bool)
    except (ValueError, OverflowError):
        pass
    values = np.zeros(cells.shape, dtype=np.int64)
    bad = np.zeros(cells.shape, dtype=bool)
    for k, cell in enumerate(cells.tolist()):
        try:
            values[k] = int(cell)
        except (ValueError, OverflowError):
            bad[k] = True
    return values, bad


def sorted_unique(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct values in sorted order, each row's index into them, and a
    mask of the rows whose value already occurs in an earlier row.

    Values already in order, as in every manifest this package writes, are
    not sorted again."""
    if np.all(values[1:] >= values[:-1]):
        first = np.ones(values.shape, dtype=bool)
        first[1:] = values[1:] != values[:-1]
        return values[first], np.cumsum(first) - 1, ~first
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.ones(values.shape, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(values.shape, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    repeat = np.empty(values.shape, dtype=bool)
    repeat[order] = ~first
    return ordered[first], inverse, repeat


def reject_first(
    path: str | Path,
    lines: Sequence[int],
    checks: list[tuple[np.ndarray, Callable[[int], str]]],
    short: int | None,
    short_message: str,
) -> None:
    """Raise CsvParseError for the first bad row in file order, naming its
    line in ``lines`` (from ``read_manifest``).

    ``checks`` are (row mask, message for row k) pairs in the order a single
    row is checked; a short row (from ``read_manifest``) is checked before
    all of them.
    """
    first, describe = short, lambda k: short_message
    for mask, message in checks:
        hits = np.flatnonzero(mask)
        if hits.size and (first is None or hits[0] < first):
            first, describe = int(hits[0]), message
    if first is not None:
        raise CsvParseError(str(path), lines[first], describe(first))


def parse_classes_csv(path: str | Path) -> ClassTable:
    """Parse ``class_id,name,venomous`` into a validated ClassTable."""
    (id_cells, name_cells, flag_cells), short, lines = read_manifest(
        path, ["class_id", "name", "venomous"]
    )
    ids, bad_id = parse_ints(id_cells)
    *_, repeat = sorted_unique(ids)
    flag = np.strings.lower(np.strings.strip(text(flag_cells)))
    venomous = (flag == "1") | (flag == "true")
    bad_flag = ~(venomous | (flag == "0") | (flag == "false"))
    reject_first(
        path,
        lines,
        [
            (bad_id, lambda k: f"bad class_id {text(id_cells)[k]!r}"),
            (repeat, lambda k: f"duplicate class id {ids[k]}"),
            (bad_flag, lambda k: f"bad venomous flag {text(flag_cells)[k]!r}"),
        ],
        short,
        "expected 3 fields",
    )
    if not ids.size:
        raise CsvParseError(str(path), 1, "no classes")
    if not np.array_equal(np.sort(ids), np.arange(ids.size)):
        raise CsvParseError(str(path), 1, "non-contiguous class ids")
    names = np.empty(ids.size, dtype=StringDType())
    flags = np.empty(ids.size, dtype=bool)
    names[ids], flags[ids] = text(name_cells), venomous
    return ClassTable(names, flags)


def parse_observations_csv(
    path: str | Path, classes: ClassTable, allow_unlabeled: bool = False
) -> ObservationTable:
    """Parse ``observation_id,image_index,class_id,location_code`` rows in file order."""
    (id_cells, index_cells, cid, code_cells), short, lines = read_manifest(
        path, ["observation_id", "image_index", "class_id", "location_code"]
    )
    image_index, bad_index = parse_ints(index_cells)
    *_, repeat = sorted_unique(image_index)
    class_id = _digit_ints(cid)
    if class_id is not None:  # plain digits in every row, so every row labeled
        labeled = np.ones(class_id.shape, dtype=bool)
        bad_class = np.zeros(class_id.shape, dtype=bool)
    else:
        cid = text(cid)
        # int() and the int64 cast both skip the whitespace around a number
        labeled = ~(np.strings.isspace(cid) | (cid == ""))
        class_id = np.full(labeled.shape, -1, dtype=np.int64)
        bad_class = np.zeros(labeled.shape, dtype=bool)
        class_id[labeled], bad_class[labeled] = parse_ints(cid[labeled])
    unknown = labeled & ~bad_class & ((class_id < 0) | (class_id >= classes.n_classes))
    checks = [
        (bad_index, lambda k: f"bad image_index {text(index_cells)[k]!r}"),
        (repeat, lambda k: f"duplicate image_index {image_index[k]}"),
    ]
    if not allow_unlabeled:
        checks.append((~labeled, lambda k: "missing class_id"))
    checks += [
        (bad_class, lambda k: f"bad class_id {cid[k].strip()!r}"),
        (unknown, lambda k: f"unknown class_id {class_id[k]}"),
    ]
    reject_first(path, lines, checks, short, "expected 4 fields")
    return ObservationTable.from_columns(id_cells, image_index, class_id, code_cells)


def read_keyed_ints(
    path: str | Path, header: list[str], noun: str, short_message: str
) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of a two-column ``key,integer`` manifest in ``str``
    order, and each key's integer; a repeated key is a duplicate ``noun``."""
    (key_cells, int_cells), short, lines = read_manifest(path, header)
    keys, place, repeat = sorted_unique(key_cells)
    values, bad = parse_ints(int_cells)
    reject_first(
        path,
        lines,
        [
            (repeat, lambda k: f"duplicate {noun} {text(key_cells)[k]!r}"),
            (bad, lambda k: f"bad {header[1]} {text(int_cells)[k]!r}"),
        ],
        short,
        short_message,
    )
    # the keys are distinct, so each row has its own place in ``keys``
    by_key = np.empty_like(values)
    by_key[place] = values
    return text(keys), by_key


def parse_locations_csv(path: str | Path) -> LocationTable:
    """Parse ``location_code,metadata_index`` into a LocationTable."""
    return LocationTable(
        *read_keyed_ints(
            path, ["location_code", "metadata_index"], "location", "expected 2 fields"
        )
    )


# ---------------------------------------------------------------------------
# Binary feature format
# ---------------------------------------------------------------------------

def write_records(path: str | Path, matrices: Iterable[FeatureMatrix]) -> None:
    """Write the matrices as one VGF1 file of stacked records, each the magic,
    rows/dims as u64 LE and a float32 LE payload; a value past float32's
    range in any of them raises FormatError before the file is opened."""
    matrices = list(matrices)
    for m in matrices:
        values = m.values
        if values.dtype != np.float32 and values.size and (
            values.max() >= _F32_OVERFLOW or values.min() <= -_F32_OVERFLOW
        ):
            raise FormatError(
                f"{path}: values beyond float32's range "
                f"({np.finfo(np.float32).max}) cannot be stored"
            )
    with open(path, "wb") as fh:
        for m in matrices:
            fh.write(MAGIC)
            fh.write(struct.pack("<QQ", m.rows, m.dims))
            # a float32 matrix is written as it is; any other is cast a chunk
            # of rows at a time, so no copy of the whole payload is made
            step = max(1, STREAM_CHUNK // (4 * max(m.dims, 1)))
            for start in range(0, m.rows, step):
                fh.write(np.ascontiguousarray(m.values[start : start + step], dtype="<f4"))


def _bytes_left(fh: BinaryIO) -> int | None:
    """Bytes between the position and the end of a regular file, else None."""
    try:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return None
        return info.st_size - fh.tell()
    except (OSError, ValueError):  # no file descriptor, unseekable or closed
        return None


def _all_finite(values: np.ndarray) -> bool:
    """Whether every value of a 1-D array is finite, checked FINITE_CHUNK
    values at a time."""
    return all(
        np.isfinite(values[start : start + FINITE_CHUNK]).all()
        for start in range(0, values.size, FINITE_CHUNK)
    )


def _read_record(fh: BinaryIO, source: str) -> FeatureMatrix | None:
    """The next VGF1 record as a writable float32 matrix, or None if the
    file ends where its magic would begin; FormatError on any malformation.

    A regular file's payload is read straight into the matrix's array; a
    stream's grows in bounded reads and the array is a view of its bytes.
    """
    magic = fh.read(4)
    if not magic:
        return None
    if magic != MAGIC:
        raise FormatError(f"{source}: bad magic {magic!r}")
    header = fh.read(16)
    if len(header) != 16:
        raise FormatError(f"{source}: truncated header")
    rows, dims = struct.unpack("<QQ", header)
    n_bytes = rows * dims * 4
    left = _bytes_left(fh)
    if left is not None and n_bytes > left:
        raise FormatError(
            f"{source}: header declares {rows}x{dims} values ({n_bytes} bytes) "
            f"but only {left} bytes remain"
        )
    if left is not None:
        data = np.empty(n_bytes // 4, dtype="<f4")
        view = memoryview(data).cast("B")
        got = 0
        while got < n_bytes:
            part = fh.readinto(view[got:])
            if not part:
                break
            got += part
    else:
        # a stream's length is unknown, so its header's size is not trusted:
        # the payload grows in bounded reads until it is whole or the stream ends
        payload = bytearray()
        while len(payload) < n_bytes:
            part = fh.read(min(STREAM_CHUNK, n_bytes - len(payload)))
            if not part:
                break
            payload += part
        got = len(payload)
        data = np.frombuffer(payload, dtype="<f4", count=got // 4)
    if got != n_bytes:
        raise FormatError(f"{source}: truncated payload, expected {n_bytes} bytes got {got}")
    if not _all_finite(data):
        raise FormatError(f"{source}: non-finite values in payload")
    try:
        values = data.reshape(rows, dims)
    except ValueError as exc:  # an empty shape past numpy's dimension limits
        raise FormatError(f"{source}: header declares {rows}x{dims} values") from exc
    return FeatureMatrix._of_finite(values)


def read_records(path: str | Path, count: int) -> list[FeatureMatrix]:
    """Exactly ``count`` VGF1 records from a regular file or a pipe;
    FormatError for fewer, for trailing bytes or for a malformed record."""
    out = []
    with open(path, "rb") as fh:
        while len(out) < count:
            record = _read_record(fh, str(path))
            if record is None:
                noun = "record" if len(out) == 1 else "records"
                raise FormatError(f"{path}: holds {len(out)} {noun}, expected {count}")
            out.append(record)
        if fh.read(1):
            noun = "record" if count == 1 else "records"
            raise FormatError(f"{path}: trailing bytes after {count} {noun}")
    return out


# ---------------------------------------------------------------------------
# Bundle loading and validation
# ---------------------------------------------------------------------------

def load_bundle(directory: str | Path, allow_unlabeled: bool = False) -> DatasetBundle:
    """Assemble a DatasetBundle from a bundle directory (no cross-validation)."""
    d = Path(directory)
    classes = parse_classes_csv(d / CLASSES_FILENAME)
    observations = parse_observations_csv(
        d / OBSERVATIONS_FILENAME, classes, allow_unlabeled=allow_unlabeled
    )
    locations = parse_locations_csv(d / LOCATIONS_FILENAME)
    (scores,) = read_records(d / SCORES_FILENAME, 1)
    (metadata,) = read_records(d / METADATA_FILENAME, 1)
    embeddings = None
    emb_path = d / EMBEDDINGS_FILENAME
    if emb_path.exists():
        (embeddings,) = read_records(emb_path, 1)
    return DatasetBundle(classes, observations, scores, metadata, locations, embeddings)


@dataclass
class ValidationReport:
    dropped_rows: int = 0
    bad_image_index: int = 0
    unknown_location: int = 0
    bad_metadata_index: int = 0
    dropped: list[tuple[str, int]] = field(default_factory=list)


def validate_bundle(
    bundle: DatasetBundle, mode: str = "strict"
) -> tuple[DatasetBundle, ValidationReport]:
    """Check cross-references; ``drop`` removes offending rows, ``strict`` raises.

    Drop mode mirrors regenerating a cleaned manifest: observation rows whose
    image index or location cannot be resolved are removed and counted, along
    with location entries pointing past the metadata matrix. Idempotent.
    Matrices whose shape disagrees with the manifests fail in both modes.
    """
    if mode not in ("strict", "drop"):
        raise ValueError(f"mode must be 'strict' or 'drop', got {mode!r}")
    scores, embeddings = bundle.image_scores, bundle.embeddings
    if scores.dims != bundle.classes.n_classes:
        raise BundleValidationError(
            f"image scores have {scores.dims} columns for "
            f"{bundle.classes.n_classes} classes"
        )
    if embeddings is not None and embeddings.rows != scores.rows:
        raise BundleValidationError(
            f"embeddings have {embeddings.rows} rows for {scores.rows} images"
        )
    n_meta = bundle.metadata_features.rows
    locations = bundle.locations
    in_range = (locations.index >= 0) & (locations.index < n_meta)
    bad_location_entries = int(np.count_nonzero(~in_range))
    obs = bundle.observations
    meta_row, known = bundle.metadata_rows()
    # each row is counted under its first problem, in this order
    bad_image = (obs.image_index < 0) | (obs.image_index >= bundle.image_scores.rows)
    unknown = ~bad_image & ~known
    bad_meta = ~bad_image & known & ((meta_row < 0) | (meta_row >= n_meta))
    dropped = bad_image | unknown | bad_meta
    dropped_ids = obs.ids[obs.group[dropped]].tolist()
    dropped_images = obs.image_index[dropped].tolist()
    report = ValidationReport(
        dropped_rows=len(dropped_ids),
        bad_image_index=int(bad_image.sum()),
        unknown_location=int(unknown.sum()),
        bad_metadata_index=int(bad_meta.sum()),
        dropped=list(zip(dropped_ids, dropped_images)),
    )

    if mode == "strict":
        if dropped_ids or bad_location_entries:
            problem = np.where(bad_image, "image_index", "metadata_index")
            problem[unknown] = "location"
            listed = [
                f"{obs_id}/image {idx}: unresolved {why}"
                for obs_id, idx, why in zip(
                    dropped_ids[:10], dropped_images[:10], problem[dropped][:10].tolist()
                )
            ]
            if bad_location_entries:
                listed.append(f"{bad_location_entries} location entries out of range")
            raise BundleValidationError(
                f"{report.dropped_rows} unresolved observation rows: " + "; ".join(listed)
            )
        return bundle, report

    cleaned = replace(
        bundle,
        observations=obs.take(~dropped),
        locations=LocationTable(locations.codes[in_range], locations.index[in_range]),
    )
    return cleaned, report
