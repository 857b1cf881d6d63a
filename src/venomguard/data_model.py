"""Dataset entities, CSV manifests, and the binary feature-matrix format.

A dataset bundle lives in a directory of small CSV manifests plus binary
feature files (magic ``VGF1``). Feature values are stored single precision
little-endian on disk and promoted to float64 for all computation.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np

from .errors import BundleValidationError, CsvParseError, FormatError

MAGIC = b"VGF1"

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


@dataclass(frozen=True)
class ObservationRow:
    observation_id: str
    image_index: int
    class_id: int | None
    location_code: str


@dataclass
class ObservationTable:
    """Rows in file order; one row per image, grouped by observation_id."""

    rows: list[ObservationRow]

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


# ---------------------------------------------------------------------------
# CSV manifests
# ---------------------------------------------------------------------------

def _open_csv(path: str | Path, expected_header: list[str]):
    path = Path(path)
    fh = open(path, "r", encoding="utf-8", newline="")
    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        fh.close()
        raise CsvParseError(str(path), 1, "missing header")
    if [h.strip() for h in header[: len(expected_header)]] != expected_header:
        fh.close()
        raise CsvParseError(
            str(path), 1, f"expected header {','.join(expected_header)}"
        )
    return fh, reader


def parse_classes_csv(path: str | Path) -> ClassTable:
    """Parse ``class_id,name,venomous`` into a validated ClassTable."""
    fh, reader = _open_csv(path, ["class_id", "name", "venomous"])
    entries: list[ClassEntry] = []
    seen: set[int] = set()
    with fh:
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) < 3:
                raise CsvParseError(str(path), lineno, "expected 3 fields")
            try:
                class_id = int(row[0])
            except ValueError:
                raise CsvParseError(str(path), lineno, f"bad class_id {row[0]!r}")
            if class_id in seen:
                raise CsvParseError(str(path), lineno, f"duplicate class id {class_id}")
            seen.add(class_id)
            flag = row[2].strip().lower()
            if flag not in ("0", "1", "false", "true"):
                raise CsvParseError(str(path), lineno, f"bad venomous flag {row[2]!r}")
            entries.append(ClassEntry(class_id, row[1], flag in ("1", "true")))
    if not entries:
        raise CsvParseError(str(path), 1, "no classes")
    if sorted(seen) != list(range(len(entries))):
        raise CsvParseError(str(path), 1, "non-contiguous class ids")
    return ClassTable(entries)


def parse_observations_csv(
    path: str | Path, classes: ClassTable, allow_unlabeled: bool = False
) -> ObservationTable:
    """Parse ``observation_id,image_index,class_id,location_code`` rows in file order."""
    fh, reader = _open_csv(
        path, ["observation_id", "image_index", "class_id", "location_code"]
    )
    rows: list[ObservationRow] = []
    seen_indices: set[int] = set()
    with fh:
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) < 4:
                raise CsvParseError(str(path), lineno, "expected 4 fields")
            obs_id, idx_s, cid_s, loc = row[0], row[1], row[2].strip(), row[3]
            try:
                image_index = int(idx_s)
            except ValueError:
                raise CsvParseError(str(path), lineno, f"bad image_index {idx_s!r}")
            if image_index in seen_indices:
                raise CsvParseError(
                    str(path), lineno, f"duplicate image_index {image_index}"
                )
            seen_indices.add(image_index)
            class_id: int | None
            if cid_s == "":
                if not allow_unlabeled:
                    raise CsvParseError(str(path), lineno, "missing class_id")
                class_id = None
            else:
                try:
                    class_id = int(cid_s)
                except ValueError:
                    raise CsvParseError(str(path), lineno, f"bad class_id {cid_s!r}")
                if not 0 <= class_id < classes.n_classes:
                    raise CsvParseError(
                        str(path), lineno, f"unknown class_id {class_id}"
                    )
            rows.append(ObservationRow(obs_id, image_index, class_id, loc))
    return ObservationTable(rows)


def parse_locations_csv(path: str | Path) -> LocationTable:
    """Parse ``location_code,metadata_index`` into a LocationTable."""
    fh, reader = _open_csv(path, ["location_code", "metadata_index"])
    entries: dict[str, int] = {}
    with fh:
        for row in reader:
            lineno = reader.line_num
            if not row:
                continue
            if len(row) < 2:
                raise CsvParseError(str(path), lineno, "expected 2 fields")
            code = row[0]
            if code in entries:
                raise CsvParseError(str(path), lineno, f"duplicate location {code!r}")
            try:
                entries[code] = int(row[1])
            except ValueError:
                raise CsvParseError(str(path), lineno, f"bad metadata_index {row[1]!r}")
    return LocationTable(entries)


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
    payload = fh.read(n_bytes)
    if len(payload) != n_bytes:
        raise FormatError(
            f"{source}: truncated payload, expected {n_bytes} bytes got {len(payload)}"
        )
    data = np.frombuffer(payload, dtype="<f4").astype(np.float64)
    if data.size and not np.all(np.isfinite(data)):
        raise FormatError(f"{source}: non-finite values in payload")
    return FeatureMatrix(data.reshape(rows, dims))


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
    out = []
    with open(path, "rb") as fh:
        for _ in range(count):
            out.append(read_record(fh, source=str(path)))
        if fh.read(1):
            raise FormatError(f"{path}: trailing bytes after payload")
    return out


def read_sidecar(path: str | Path, fmt: str, keys: dict[str, type]) -> dict:
    """Typed fields of the one-line ``key=value`` sidecar ``<path>.meta``.

    ``keys`` maps each required key to ``int`` or ``float``. A format tag
    other than ``fmt``, a missing key, or a value that is not a finite
    number of that type raises FormatError.
    """
    meta = Path(f"{path}.meta")
    try:
        parts = meta.read_text(encoding="utf-8").split()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{meta}: not UTF-8 text") from exc
    fields = dict(part.split("=", 1) for part in parts if "=" in part)
    if fields.get("format") != fmt:
        raise FormatError(
            f"{meta}: unknown format {fields.get('format')!r}, expected {fmt!r}"
        )
    out = {}
    for key, kind in keys.items():
        if key not in fields:
            raise FormatError(f"{meta}: missing key {key!r}")
        try:
            out[key] = kind(fields[key])
        except ValueError:
            out[key] = math.nan
        if not math.isfinite(out[key]):
            raise FormatError(
                f"{meta}: {key}={fields[key]!r} is not a finite {kind.__name__}"
            )
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


def _row_problem(
    row: ObservationRow, bundle: DatasetBundle, resolvable_codes: set[str]
) -> str | None:
    if not 0 <= row.image_index < bundle.image_scores.rows:
        return "image_index"
    if row.location_code not in bundle.locations.entries:
        return "location"
    if row.location_code not in resolvable_codes:
        return "metadata_index"
    return None


def validate_bundle(
    bundle: DatasetBundle, mode: str = "strict"
) -> tuple[DatasetBundle, ValidationReport]:
    """Check cross-references; ``drop`` removes offending rows, ``strict`` raises.

    Drop mode mirrors regenerating a cleaned manifest: observation rows whose
    image index or location cannot be resolved are removed and counted, along
    with location entries pointing past the metadata matrix. Idempotent.
    """
    if mode not in ("strict", "drop"):
        raise ValueError(f"mode must be 'strict' or 'drop', got {mode!r}")
    n_meta = bundle.metadata_features.rows
    good_locations = {
        code: idx for code, idx in bundle.locations.entries.items() if 0 <= idx < n_meta
    }
    resolvable = set(good_locations)

    report = ValidationReport()
    offenders: list[str] = []
    kept: list[ObservationRow] = []
    for row in bundle.observations.rows:
        problem = _row_problem(row, bundle, resolvable)
        if problem is None:
            kept.append(row)
            continue
        if problem == "image_index":
            report.bad_image_index += 1
        elif problem == "location":
            report.unknown_location += 1
        else:
            report.bad_metadata_index += 1
        report.dropped_rows += 1
        report.dropped.append((row.observation_id, row.image_index))
        offenders.append(
            f"{row.observation_id}/image {row.image_index}: unresolved {problem}"
        )
    bad_location_entries = len(bundle.locations.entries) - len(good_locations)

    if mode == "strict":
        if offenders or bad_location_entries:
            listed = offenders[:10]
            if bad_location_entries:
                listed.append(f"{bad_location_entries} location entries out of range")
            raise BundleValidationError(
                f"{report.dropped_rows} unresolved observation rows: " + "; ".join(listed)
            )
        return bundle, report

    cleaned = replace(
        bundle,
        observations=ObservationTable(kept),
        locations=LocationTable(good_locations),
    )
    return cleaned, report
