import csv
import io
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from venomguard import data_model
from venomguard.data_model import (
    MAGIC,
    ClassEntry,
    ClassTable,
    FeatureMatrix,
    LocationTable,
    ObservationRow,
    ObservationTable,
    load_bundle,
    parse_classes_csv,
    parse_locations_csv,
    parse_observations_csv,
    read_feature_matrix,
    read_record,
    read_records,
    validate_bundle,
    write_feature_matrix,
    write_record,
    write_records,
)
from venomguard.errors import BundleValidationError, CsvParseError, FormatError
from venomguard.inference import read_predictions_csv
from venomguard.synthetic import SynthConfig, generate, write_dataset

from oracles import (
    Rejected,
    reference_classes,
    reference_locations,
    reference_observations,
    reference_predictions,
)

CLASSES_OK = "class_id,name,venomous\n0,adder,1\n1,grass snake,0\n2,asp,1\n"
OBS_HEADER = ["observation_id", "image_index", "class_id", "location_code"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestClassesCsv:
    def test_parses_three_classes(self, tmp_path):
        table = parse_classes_csv(write(tmp_path, "c.csv", CLASSES_OK))
        assert table.n_classes == 3
        assert table.venomous_flags.tolist() == [True, False, True]
        assert table.name_of(1) == "grass snake"

    def test_non_contiguous_ids_rejected(self, tmp_path):
        bad = "class_id,name,venomous\n0,a,0\n2,b,1\n"
        with pytest.raises(CsvParseError, match="contiguous"):
            parse_classes_csv(write(tmp_path, "c.csv", bad))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(CsvParseError, match="no classes"):
            parse_classes_csv(write(tmp_path, "c.csv", "class_id,name,venomous\n"))

    def test_duplicate_id_rejected(self, tmp_path):
        bad = "class_id,name,venomous\n0,a,0\n0,b,1\n"
        with pytest.raises(CsvParseError):
            parse_classes_csv(write(tmp_path, "c.csv", bad))

    def test_bad_flag_rejected(self, tmp_path):
        bad = "class_id,name,venomous\n0,a,maybe\n"
        with pytest.raises(CsvParseError):
            parse_classes_csv(write(tmp_path, "c.csv", bad))

    def test_wrong_header_rejected(self, tmp_path):
        bad = "id,name,venomous\n0,a,0\n"
        with pytest.raises(CsvParseError, match="header"):
            parse_classes_csv(write(tmp_path, "c.csv", bad))


class TestObservationsCsv:
    def classes(self, tmp_path):
        return parse_classes_csv(write(tmp_path, "c.csv", CLASSES_OK))

    def test_rows_sharing_observation_group_together(self, tmp_path):
        text = (
            "observation_id,image_index,class_id,location_code\n"
            "obs1,0,1,loc_a\n"
            "obs1,1,1,loc_a\n"
            "obs2,2,0,loc_b\n"
        )
        table = parse_observations_csv(
            write(tmp_path, "o.csv", text), self.classes(tmp_path)
        )
        groups = table.groups()
        assert list(groups) == ["obs1", "obs2"]
        assert len(groups["obs1"]) == 2
        assert len(groups["obs2"]) == 1

    def test_unknown_class_id_names_offending_row(self, tmp_path):
        text = (
            "observation_id,image_index,class_id,location_code\n"
            "obs1,0,99,loc_a\n"
        )
        with pytest.raises(CsvParseError, match="99"):
            parse_observations_csv(
                write(tmp_path, "o.csv", text), self.classes(tmp_path)
            )

    def test_duplicate_image_index_rejected(self, tmp_path):
        text = (
            "observation_id,image_index,class_id,location_code\n"
            "obs1,0,1,loc_a\n"
            "obs2,0,0,loc_b\n"
        )
        with pytest.raises(CsvParseError):
            parse_observations_csv(
                write(tmp_path, "o.csv", text), self.classes(tmp_path)
            )

    def test_unlabeled_rows_gated_by_flag(self, tmp_path):
        text = (
            "observation_id,image_index,class_id,location_code\n"
            "obs1,0,,loc_a\n"
        )
        path = write(tmp_path, "o.csv", text)
        with pytest.raises(CsvParseError):
            parse_observations_csv(path, self.classes(tmp_path))
        table = parse_observations_csv(
            path, self.classes(tmp_path), allow_unlabeled=True
        )
        assert table.rows[0].class_id is None
        assert table.labeled_rows() == []


class TestLocationsCsv:
    def test_parses_mapping(self, tmp_path):
        text = "location_code,metadata_index\nloc_a,0\nloc_b,1\n"
        table = parse_locations_csv(write(tmp_path, "l.csv", text))
        assert table.entries == {"loc_a": 0, "loc_b": 1}

    def test_duplicate_code_rejected(self, tmp_path):
        text = "location_code,metadata_index\nloc_a,0\nloc_a,1\n"
        with pytest.raises(CsvParseError):
            parse_locations_csv(write(tmp_path, "l.csv", text))


class TestCsvLineNumbers:
    # the first data row holds a quoted field spanning lines 2-3, so the bad
    # row is on physical line 4
    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_classes_csv,
             'class_id,name,venomous\n0,"a\nb",1\nx,asp,1\n'),
            (lambda path: parse_observations_csv(
                path, parse_classes_csv(write(path.parent, "c.csv", CLASSES_OK))),
             'observation_id,image_index,class_id,location_code\n'
             '"a\nb",0,0,loc\nobs_2,x,0,loc\n'),
            (parse_locations_csv,
             'location_code,metadata_index\n"a\nb",0\nloc_b,x\n'),
        ],
        ids=["classes", "observations", "locations"],
    )
    def test_error_names_physical_line_after_multiline_field(self, tmp_path, parse, text):
        path = write(tmp_path, "t.csv", text)
        with pytest.raises(CsvParseError) as info:
            parse(path)
        assert info.value.line == 4
        assert f"{path}:4:" in str(info.value)


class TestBinaryFormat:
    def test_round_trip_small_matrix(self, tmp_path):
        path = tmp_path / "m.bin"
        write_records(path, [FeatureMatrix(np.array([[1.0, 2.0]]))])
        (loaded,) = read_records(path, 1)
        assert loaded.values.tolist() == [[1.0, 2.0]]

    def test_bad_magic_reported(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            read_records(path, 1)

    def test_truncated_payload_reported(self, tmp_path):
        path = tmp_path / "m.bin"
        header = MAGIC + (2).to_bytes(8, "little") + (2).to_bytes(8, "little")
        path.write_bytes(header + b"\x00" * 12)  # 3 floats, 4 declared
        with pytest.raises(FormatError, match="truncat"):
            read_records(path, 1)

    def test_header_larger_than_file_rejected_before_reading(self, tmp_path):
        path = tmp_path / "m.bin"
        header = (2**40).to_bytes(8, "little") + (2**20).to_bytes(8, "little")
        path.write_bytes(MAGIC + header)
        with pytest.raises(FormatError, match="declares"):
            read_records(path, 1)

    def pipe(self, data: bytes):
        """The read end of a pipe holding ``data``, its write end closed."""
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        return os.fdopen(r, "rb")

    def test_lying_header_on_a_pipe_is_format_error(self):
        # a pipe's length is unknown: 2**40 x 2**20 values must not be allocated
        header = (2**40).to_bytes(8, "little") + (2**20).to_bytes(8, "little")
        with self.pipe(MAGIC + header) as fh:
            with pytest.raises(FormatError, match=f"expected {2**62} bytes got 0"):
                read_record(fh, "pipe")

    @pytest.mark.parametrize("cut", [0, 5, 8])
    def test_pipe_payload_arrives_in_chunks(self, monkeypatch, cut):
        monkeypatch.setattr(data_model, "STREAM_CHUNK", 8)
        matrix = FeatureMatrix(np.arange(15.0).reshape(3, 5))
        buf = io.BytesIO()
        write_record(buf, matrix)
        data = buf.getvalue()
        with self.pipe(data[: len(data) - cut]) as fh:
            if cut:
                with pytest.raises(FormatError, match=f"expected 60 bytes got {60 - cut}"):
                    read_record(fh)
            else:
                assert read_record(fh) == matrix

    def test_trailing_bytes_reported(self, tmp_path):
        path = tmp_path / "m.bin"
        write_records(path, [FeatureMatrix(np.zeros((1, 1)))])
        path.write_bytes(path.read_bytes() + b"\x01")
        with pytest.raises(FormatError):
            read_records(path, 1)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        buf = io.BytesIO()
        buf.write(MAGIC + (1).to_bytes(8, "little") + (1).to_bytes(8, "little"))
        buf.write(np.array([np.inf], dtype="<f4").tobytes())
        path.write_bytes(buf.getvalue())
        with pytest.raises(FormatError):
            read_records(path, 1)

    def test_empty_and_single_shapes(self, tmp_path):
        for arr in (np.empty((0, 3)), np.array([[7.5]])):
            path = tmp_path / "m.bin"
            write_records(path, [FeatureMatrix(arr)])
            (loaded,) = read_records(path, 1)
            assert loaded.values.shape == arr.shape
            assert np.array_equal(loaded.values, arr)

    def test_multi_record_stream(self, tmp_path):
        mats = [
            FeatureMatrix(np.arange(6, dtype=float).reshape(2, 3)),
            FeatureMatrix(np.ones((1, 4))),
        ]
        path = tmp_path / "m.bin"
        write_records(path, mats)
        loaded = read_records(path, 2)
        assert [m.values.shape for m in loaded] == [(2, 3), (1, 4)]
        assert all(np.array_equal(a.values, b.values) for a, b in zip(mats, loaded))

    @pytest.mark.parametrize(
        "rows, dims", [(0, 2**64 - 1), (2**62, 0)], ids=["dims_2^64-1", "rows_2^62"]
    )
    def test_empty_shape_past_numpy_limits_rejected(self, tmp_path, rows, dims):
        # no payload bytes, so only the reshape can reject these headers
        path = tmp_path / "m.bin"
        path.write_bytes(MAGIC + rows.to_bytes(8, "little") + dims.to_bytes(8, "little"))
        with pytest.raises(FormatError, match=f"declares {rows}x{dims}"):
            read_records(path, 1)

    def test_wrong_record_count_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        write_records(path, [FeatureMatrix(np.zeros((1, 1)))])
        with pytest.raises(FormatError):
            read_records(path, 2)

    @settings(max_examples=50, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.float32,
            shape=hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
            elements=st.floats(-1e6, 1e6, width=32),
        )
    )
    def test_round_trip_preserves_float32_values(self, tmp_path_factory, arr):
        path = tmp_path_factory.mktemp("vgf1") / "m.bin"
        original = arr.astype(np.float64)
        write_records(path, [FeatureMatrix(original)])
        (loaded,) = read_records(path, 1)
        assert np.array_equal(loaded.values, original)

    def test_single_matrix_file_helpers(self, tmp_path):
        path = tmp_path / "m.bin"
        write_feature_matrix(FeatureMatrix(np.array([[1.0, 2.0], [3.0, 4.0]])), path)
        loaded = read_feature_matrix(path)
        assert loaded.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def with_rows(bundle, rows):
    return replace(bundle, observations=ObservationTable.from_rows(rows))


class TestValidation:
    def test_consistent_bundle_reports_nothing(self, tiny_bundle):
        checked, report = validate_bundle(tiny_bundle, mode="strict")
        assert report.dropped_rows == 0
        assert checked is tiny_bundle

    def test_bad_image_index_dropped_and_counted(self, tiny_bundle):
        rows = list(tiny_bundle.observations.rows)
        rows[1] = ObservationRow("obs_a", 99, 0, "loc_0")
        cleaned, report = validate_bundle(with_rows(tiny_bundle, rows), mode="drop")
        assert report.dropped_rows == 1
        assert report.bad_image_index == 1
        assert report.dropped == [("obs_a", 99)]
        assert len(cleaned.observations.rows) == 3

    def test_strict_mode_raises_with_offenders(self, tiny_bundle):
        rows = list(tiny_bundle.observations.rows)
        rows[0] = ObservationRow("obs_a", 0, 0, "loc_missing")
        with pytest.raises(BundleValidationError, match="obs_a"):
            validate_bundle(with_rows(tiny_bundle, rows), mode="strict")

    def test_location_entry_past_metadata_dropped(self, tiny_bundle):
        bad = replace(tiny_bundle, locations=LocationTable({"loc_0": 0, "loc_1": 1, "loc_2": 9}))
        cleaned, report = validate_bundle(bad, mode="drop")
        assert report.bad_metadata_index == 1
        assert report.dropped_rows == 1
        assert "loc_2" not in cleaned.locations.entries

    def test_drop_is_idempotent(self, tiny_bundle):
        rows = list(tiny_bundle.observations.rows)
        rows[1] = ObservationRow("obs_a", 99, 0, "loc_0")
        cleaned, first = validate_bundle(with_rows(tiny_bundle, rows), mode="drop")
        again, second = validate_bundle(cleaned, mode="drop")
        assert first.dropped_rows == 1
        assert second.dropped_rows == 0
        assert again.observations.rows == cleaned.observations.rows

    def test_invalid_mode_rejected(self, tiny_bundle):
        with pytest.raises(ValueError):
            validate_bundle(tiny_bundle, mode="lenient")


class TestLoadBundle:
    def test_generated_dataset_round_trips(self, tmp_path):
        gen = generate(SynthConfig(seed=3, n_classes=6, n_observations=40))
        write_dataset(gen, tmp_path)
        bundle = load_bundle(tmp_path)
        assert bundle.classes.n_classes == 6
        assert bundle.image_scores.rows == len(bundle.observations.rows)
        assert bundle.embeddings is not None
        _, report = validate_bundle(bundle, mode="strict")
        assert report.dropped_rows == 0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_bundle(tmp_path)


# Pieces of manifest text: quoting, separators and line ends that csv.reader
# and the columnar reader must split the same way.
TEXT_PIECES = ["a", "b", "7", ",", '"', "\n", "\r\n", " ", "#", "\x00", "é"]
NAMES = st.sampled_from(["obs_a", "obs_b", "loc_a", "loc_b", "a b", "é"])
TEXT_CELL = st.one_of(
    st.lists(st.sampled_from(TEXT_PIECES), max_size=4).map("".join), NAMES, NAMES
)
# int() accepts some odd spellings; the listed ones must parse alike
ODD_INTS = st.sampled_from(
    [" 4 ", " ", " x ", "+2", "-1", "1_0", "٣", "x", "", "1.5", '"3"']
)
SMALL = st.integers(0, 3).map(str)
SMALL_INT = st.one_of(SMALL, SMALL, ODD_INTS)
LARGE = st.integers(0, 10**6).map(str)
ANY_INT = st.one_of(LARGE, LARGE, SMALL_INT)


@st.composite
def manifest_text(draw, header, cells):
    """Header line, then rows of 1..n+1 cells (short, full and extra rows),
    each written through csv.writer or joined raw, with blank lines between.
    ``cells`` maps a column to its cell strategy (default TEXT_CELL)."""
    n = len(header)
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([n] * 6 + [n - 1, n + 1, 1]))
        row = [draw(cells.get(i, TEXT_CELL)) for i in range(width)]
        if draw(st.booleans()):
            out = io.StringIO()
            csv.writer(out, lineterminator="").writerow(row)
            lines.append(out.getvalue())
        else:
            lines.append(",".join(row))
        lines += [""] * draw(st.integers(0, 1))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def outcome(parse, path):
    """('ok', value) or ('rejected', line, message), for either parser."""
    try:
        return ("ok", parse(path))
    except CsvParseError as exc:
        return ("rejected", exc.line, str(exc).split(": ", 1)[1])
    except Rejected as exc:
        return ("rejected", exc.line, exc.message)


class TestManifestReaderMatchesCsvReader:
    """The columnar parsers accept and reject exactly as the row-at-a-time
    csv.reader references in tests/oracles.py do, with the same values and
    the same physical line."""

    def check(self, tmp_path_factory, text, ours, reference):
        path = tmp_path_factory.mktemp("csv") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        assert outcome(ours, path) == outcome(reference, path)

    @settings(max_examples=200, deadline=None)
    @given(
        text=manifest_text(OBS_HEADER, {1: ANY_INT, 2: SMALL_INT}),
        allow_unlabeled=st.booleans(),
    )
    # numpy's strings end at a NUL, which once merged these two ids
    @example(text=",".join(OBS_HEADER) + "\n\x00a,0,0,l\n\x00b,1,0,l", allow_unlabeled=False)
    def test_observations(self, tmp_path_factory, text, allow_unlabeled):
        classes = ClassTable([ClassEntry(k, f"c{k}", k % 2 == 1) for k in range(4)])

        def ours(path):
            table = parse_observations_csv(path, classes, allow_unlabeled=allow_unlabeled)
            return [tuple(r) for r in table.rows]

        self.check(tmp_path_factory, text, ours,
                   lambda path: reference_observations(path, 4, allow_unlabeled))

    @settings(max_examples=100, deadline=None)
    @given(text=manifest_text(["location_code", "metadata_index"], {1: ANY_INT}))
    # once rejected as duplicates: numpy compared them only up to the NUL
    @example(text="location_code,metadata_index\n\x00aaa,0\n\x00aab,0")
    def test_locations(self, tmp_path_factory, text):
        self.check(tmp_path_factory, text,
                   lambda path: list(parse_locations_csv(path).entries.items()),
                   lambda path: list(reference_locations(path).items()))

    @settings(max_examples=100, deadline=None)
    @given(text=manifest_text(
        ["class_id", "name", "venomous"],
        {0: SMALL_INT, 2: st.sampled_from(["0", "1", " TRUE", "false ", "yes", ""])},
    ))
    def test_classes(self, tmp_path_factory, text):
        def ours(path):
            return [tuple(vars(e).values()) for e in parse_classes_csv(path).entries]

        self.check(tmp_path_factory, text, ours, reference_classes)

    @settings(max_examples=100, deadline=None)
    @given(text=manifest_text(["observation_id", "class_id"], {1: ANY_INT}))
    def test_predictions(self, tmp_path_factory, text):
        def ours(path):
            ids, class_ids = read_predictions_csv(path)
            return list(zip(ids.tolist(), class_ids.tolist()))

        self.check(tmp_path_factory, text, ours,
                   lambda path: sorted(reference_predictions(path).items()))

    @pytest.mark.parametrize("parse", [
        parse_classes_csv,
        lambda path: parse_observations_csv(path, ClassTable([ClassEntry(0, "a", True)])),
        parse_locations_csv,
        read_predictions_csv,
    ])
    def test_nul_names_its_physical_line(self, tmp_path, parse):
        # line ends \r\n, a quoted line break, \n and a lone \r before line 5
        path = tmp_path / "m.csv"
        path.write_bytes(b'h\r\n"a\r\nb",0\nc,1\rd\x00,2\n')
        with pytest.raises(CsvParseError, match=":5: NUL character in a field"):
            parse(path)

    def test_integer_beyond_int64_is_a_bad_value(self, tmp_path):
        # int() accepts it, but the int64 columns cannot hold it
        big = "9223372036854775808"
        path = write(tmp_path, "l.csv", f"location_code,metadata_index\nloc_a,{big}\n")
        with pytest.raises(CsvParseError, match=f":2: bad metadata_index '{big}'"):
            parse_locations_csv(path)
