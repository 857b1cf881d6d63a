"""Dataset entities, CSV manifests, and the binary feature-matrix format.

A dataset bundle lives in a directory of small CSV manifests plus binary
feature files (magic ``VGF1``). Feature values are stored single precision
little-endian on disk and promoted to float64 for all computation.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import stat
import struct
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple

import numpy as np
from numpy.dtypes import StringDType

from .errors import BundleValidationError, CsvParseError, FormatError

MAGIC = b"VGF1"
# bytes per read of a VGF1 payload from a pipe or other stream
STREAM_CHUNK = 1 << 24

CLASSES_FILENAME = "classes.csv"
OBSERVATIONS_FILENAME = "observations.csv"
LOCATIONS_FILENAME = "locations.csv"
SCORES_FILENAME = "image_scores.vgf1"
METADATA_FILENAME = "metadata_features.vgf1"
EMBEDDINGS_FILENAME = "embeddings.vgf1"


@dataclass(frozen=True)
class ClassEntry:
    class_id: int
    name: str
    venomous: bool


@dataclass
class ClassTable:
    """Class id -> name + venomous flag; ids must be contiguous 0..C-1."""

    entries: list[ClassEntry]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("no classes")
        ids = [e.class_id for e in self.entries]
        if sorted(ids) != list(range(len(ids))):
            raise ValueError("non-contiguous class ids")

    @property
    def n_classes(self) -> int:
        return len(self.entries)

    @property
    def venomous_flags(self) -> np.ndarray:
        flags = np.zeros(self.n_classes, dtype=bool)
        for e in self.entries:
            flags[e.class_id] = e.venomous
        return flags

    def name_of(self, class_id: int) -> str:
        for e in self.entries:
            if e.class_id == class_id:
                return e.name
        raise KeyError(class_id)


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
    ``from_columns`` or ``from_rows``, which keep every id and code in use.
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
        """Table from per-row columns; ``class_id`` -1 marks an unlabeled row."""
        text = StringDType()
        ids, group, _ = sorted_unique(np.asarray(observation_id, dtype=text))
        codes, location, _ = sorted_unique(np.asarray(location_code, dtype=text))
        return cls(
            ids,
            group,
            np.asarray(image_index, dtype=np.int64),
            np.asarray(class_id, dtype=np.int64),
            codes,
            location,
        )

    @classmethod
    def from_rows(cls, rows: Iterable[ObservationRow]) -> "ObservationTable":
        rows = list(rows)
        return cls.from_columns(
            [r.observation_id for r in rows],
            [r.image_index for r in rows],
            [-1 if r.class_id is None else r.class_id for r in rows],
            [r.location_code for r in rows],
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

    def groups(self) -> dict[str, list[ObservationRow]]:
        """observation_id -> rows, preserving first-appearance order."""
        out: dict[str, list[ObservationRow]] = {}
        for row in self.rows:
            out.setdefault(row.observation_id, []).append(row)
        return out

    def labeled_rows(self) -> list[ObservationRow]:
        return [r for r in self.rows if r.class_id is not None]


class FeatureMatrix:
    """Dense rows x dims matrix of finite reals, float64 in memory."""

    def __init__(self, values: np.ndarray):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"feature matrix must be 2-D, got shape {arr.shape}")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ValueError("feature matrix contains non-finite values")
        self.values = arr

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


@dataclass
class LocationTable:
    """location_code -> row index into the metadata feature matrix."""

    entries: dict[str, int]


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
        whether its location code is known. Each distinct code is looked up once.
        """
        entries = self.locations.entries
        codes = self.observations.codes.tolist()
        known = np.array([code in entries for code in codes], dtype=bool)
        index = np.array([entries.get(code, -1) for code in codes], dtype=np.int64)
        location = self.observations.location
        return index[location], known[location]

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

def _nul_line(text: str, at: int) -> int:
    """The physical line holding ``text[at]``, counting line ends as
    csv.reader does: ``\r\n``, ``\r`` and ``\n``."""
    head = text[:at]
    return 1 + head.count("\n") + head.count("\r") - head.count("\r\n")


def _open_csv(path: str | Path, expected_header: list[str]) -> io.StringIO:
    """The manifest's text, positioned after its header line(s).

    A NUL anywhere rejects the file first: numpy's strings end at one, and
    csv.reader before Python 3.11 refuses it.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    nul = text.find("\x00")
    if nul >= 0:
        raise CsvParseError(str(path), _nul_line(text, nul), "NUL character in a field")
    fh = io.StringIO(text, newline="")
    try:
        header = next(csv.reader(fh))
    except StopIteration:
        raise CsvParseError(str(path), 1, "missing header")
    if [h.strip() for h in header[: len(expected_header)]] != expected_header:
        raise CsvParseError(
            str(path), 1, f"expected header {','.join(expected_header)}"
        )
    return fh


def _data_rows(path: str | Path) -> Iterator[tuple[int, list[str]]]:
    """(physical line, fields) of each non-blank data row, as csv.reader sees it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                yield reader.line_num, row


def read_manifest(
    path: str | Path, header: list[str]
) -> tuple[np.ndarray, int | None]:
    """Data rows of a CSV manifest as a (rows, len(header)) string array.

    The first line(s) must hold ``header``. Fields follow RFC 4180 quoting,
    blank lines are skipped and fields past the header's are ignored; a NUL
    character anywhere rejects the file, naming its physical line. The
    second value is None, or the index (among non-blank data rows) of the
    first row with too few fields; the array then holds the rows before it.
    """
    n = len(header)
    fh = _open_csv(path, header)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            # a fresh dtype instance: after a failed load, numpy 2.x can leave
            # the instance's string allocator unusable
            cells = np.loadtxt(
                fh,
                dtype=StringDType(),
                delimiter=",",
                quotechar='"',
                comments=None,
                usecols=range(n),
                ndmin=2,
            )
            return cells, None
        except ValueError:  # a short row; the file is rejected
            pass
    rows = [row for _, row in _data_rows(path)]
    short = next((k for k, row in enumerate(rows) if len(row) < n), None)
    kept = [row[:n] for row in (rows if short is None else rows[:short])]
    return np.array(kept, dtype=StringDType()).reshape(len(kept), n), short


def write_manifest(path: str | Path, header: list[str], rows: Iterable) -> None:
    """Write ``header`` and ``rows`` as a CSV manifest that ``read_manifest``
    reads back: ``\n`` line ends, and only fields that need it are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def parse_ints(cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``int()`` of each string cell as int64, and a mask of the cells it
    rejects; a value outside the int64 range is rejected too."""
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
    mask of the rows whose value already occurs in an earlier row."""
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
    checks: list[tuple[np.ndarray, Callable[[int], str]]],
    short: int | None,
    short_message: str,
) -> None:
    """Raise CsvParseError for the first bad row in file order.

    ``checks`` are (row mask, message for row k) pairs in the order a single
    row is checked; a short row (from ``read_manifest``) is checked before
    all of them. Only a rejected file is scanned again, for the physical line.
    """
    first, describe = short, lambda k: short_message
    for mask, message in checks:
        hits = np.flatnonzero(mask)
        if hits.size and (first is None or hits[0] < first):
            first, describe = int(hits[0]), message
    if first is None:
        return
    line = next(itertools.islice(_data_rows(path), first, None))[0]
    raise CsvParseError(str(path), line, describe(first))


def parse_classes_csv(path: str | Path) -> ClassTable:
    """Parse ``class_id,name,venomous`` into a validated ClassTable."""
    cells, short = read_manifest(path, ["class_id", "name", "venomous"])
    ids, bad_id = parse_ints(cells[:, 0])
    *_, repeat = sorted_unique(ids)
    flag = np.strings.lower(np.strings.strip(cells[:, 2]))
    venomous = (flag == "1") | (flag == "true")
    bad_flag = ~(venomous | (flag == "0") | (flag == "false"))
    reject_first(
        path,
        [
            (bad_id, lambda k: f"bad class_id {cells[k, 0]!r}"),
            (repeat, lambda k: f"duplicate class id {ids[k]}"),
            (bad_flag, lambda k: f"bad venomous flag {cells[k, 2]!r}"),
        ],
        short,
        "expected 3 fields",
    )
    if not ids.size:
        raise CsvParseError(str(path), 1, "no classes")
    if not np.array_equal(np.sort(ids), np.arange(ids.size)):
        raise CsvParseError(str(path), 1, "non-contiguous class ids")
    return ClassTable(
        [
            ClassEntry(cid, name, flag)
            for cid, name, flag in zip(
                ids.tolist(), cells[:, 1].tolist(), venomous.tolist()
            )
        ]
    )


def parse_observations_csv(
    path: str | Path, classes: ClassTable, allow_unlabeled: bool = False
) -> ObservationTable:
    """Parse ``observation_id,image_index,class_id,location_code`` rows in file order."""
    cells, short = read_manifest(
        path, ["observation_id", "image_index", "class_id", "location_code"]
    )
    image_index, bad_index = parse_ints(cells[:, 1])
    *_, repeat = sorted_unique(image_index)
    cid = np.strings.strip(cells[:, 2])
    labeled = cid != ""
    class_id = np.full(labeled.shape, -1, dtype=np.int64)
    bad_class = np.zeros(labeled.shape, dtype=bool)
    class_id[labeled], bad_class[labeled] = parse_ints(cid[labeled])
    unknown = labeled & ~bad_class & ((class_id < 0) | (class_id >= classes.n_classes))
    checks = [
        (bad_index, lambda k: f"bad image_index {cells[k, 1]!r}"),
        (repeat, lambda k: f"duplicate image_index {image_index[k]}"),
    ]
    if not allow_unlabeled:
        checks.append((~labeled, lambda k: "missing class_id"))
    checks += [
        (bad_class, lambda k: f"bad class_id {cid[k]!r}"),
        (unknown, lambda k: f"unknown class_id {class_id[k]}"),
    ]
    reject_first(path, checks, short, "expected 4 fields")
    return ObservationTable.from_columns(cells[:, 0], image_index, class_id, cells[:, 3])


def parse_locations_csv(path: str | Path) -> LocationTable:
    """Parse ``location_code,metadata_index`` into a LocationTable."""
    cells, short = read_manifest(path, ["location_code", "metadata_index"])
    codes = cells[:, 0]
    *_, repeat = sorted_unique(codes)
    index, bad_index = parse_ints(cells[:, 1])
    reject_first(
        path,
        [
            (repeat, lambda k: f"duplicate location {codes[k]!r}"),
            (bad_index, lambda k: f"bad metadata_index {cells[k, 1]!r}"),
        ],
        short,
        "expected 2 fields",
    )
    return LocationTable(dict(zip(codes.tolist(), index.tolist())))


# ---------------------------------------------------------------------------
# Binary feature format
# ---------------------------------------------------------------------------

def write_record(fh: BinaryIO, matrix: FeatureMatrix) -> None:
    """Append one VGF1 record: magic, rows/dims as u64 LE, float32 LE payload."""
    fh.write(MAGIC)
    fh.write(struct.pack("<QQ", matrix.rows, matrix.dims))
    fh.write(np.ascontiguousarray(matrix.values, dtype="<f4").tobytes())


def _bytes_left(fh: BinaryIO) -> int | None:
    """Bytes between the position and the end of a regular file, else None."""
    try:
        info = os.fstat(fh.fileno())
        if not stat.S_ISREG(info.st_mode):
            return None
        return info.st_size - fh.tell()
    except (OSError, ValueError):  # no file descriptor, unseekable or closed
        return None


def read_record(fh: BinaryIO, source: str = "<stream>") -> FeatureMatrix:
    """Read one VGF1 record; raises FormatError on any malformation."""
    magic = fh.read(4)
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
        payload = fh.read(n_bytes)
    else:
        # a stream's length is unknown, so its header's size is not trusted:
        # the payload grows in bounded reads until it is whole or the stream ends
        payload = bytearray()
        while len(payload) < n_bytes:
            part = fh.read(min(STREAM_CHUNK, n_bytes - len(payload)))
            if not part:
                break
            payload += part
    if len(payload) != n_bytes:
        raise FormatError(
            f"{source}: truncated payload, expected {n_bytes} bytes got {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if data.size and not np.all(np.isfinite(data)):
        raise FormatError(f"{source}: non-finite values in payload")
    try:
        values = data.reshape(rows, dims)
    except ValueError as exc:  # an empty shape past numpy's dimension limits
        raise FormatError(f"{source}: header declares {rows}x{dims} values") from exc
    return FeatureMatrix(values)


def write_feature_matrix(matrix: FeatureMatrix, path: str | Path) -> None:
    with open(path, "wb") as fh:
        write_record(fh, matrix)


def read_feature_matrix(path: str | Path) -> FeatureMatrix:
    with open(path, "rb") as fh:
        matrix = read_record(fh, source=str(path))
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return matrix


def write_records(path: str | Path, matrices: Iterable[FeatureMatrix]) -> None:
    with open(path, "wb") as fh:
        for m in matrices:
            write_record(fh, m)


def read_records(path: str | Path, count: int) -> list[FeatureMatrix]:
    """Exactly ``count`` VGF1 records; FormatError for fewer or trailing bytes."""
    out = []
    with open(path, "rb") as fh:
        for i in range(count):
            if i and _bytes_left(fh) == 0:
                raise FormatError(f"{path}: holds {i} records, expected {count}")
            out.append(read_record(fh, source=str(path)))
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after {count} records")
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
    scores = read_feature_matrix(d / SCORES_FILENAME)
    metadata = read_feature_matrix(d / METADATA_FILENAME)
    embeddings = None
    emb_path = d / EMBEDDINGS_FILENAME
    if emb_path.exists():
        embeddings = read_feature_matrix(emb_path)
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
    good_locations = {
        code: idx for code, idx in bundle.locations.entries.items() if 0 <= idx < n_meta
    }
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
    bad_location_entries = len(bundle.locations.entries) - len(good_locations)

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
        locations=LocationTable(good_locations),
    )
    return cleaned, report
