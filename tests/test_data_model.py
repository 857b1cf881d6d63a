import csv
import io
import itertools
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.dtypes import StringDType

from venomguard import data_model
from venomguard.data_model import (
    MAGIC,
    ClassTable,
    DatasetBundle,
    FeatureMatrix,
    load_bundle,
    parse_classes_csv,
    parse_ints,
    parse_locations_csv,
    parse_observations_csv,
    read_records,
    sorted_unique,
    validate_bundle,
    write_manifest,
    write_records,
)
from venomguard.errors import BundleValidationError, CsvParseError, FormatError
from venomguard.inference import read_predictions_csv
from venomguard.synthetic import SynthConfig, generate, write_dataset

from conftest import FIELD_CHARS, location_dict, location_table, piped, with_columns
from oracles import (
    Rejected,
    _data_rows as oracle_rows,
    reference_classes,
    reference_int,
    reference_locations,
    reference_manifest,
    reference_metadata_rows,
    reference_observations,
    reference_predictions,
    reference_sorted_unique,
)

CLASSES_OK = "class_id,name,venomous\n0,adder,1\n1,grass snake,0\n2,asp,1\n"
OBS_HEADER = ["observation_id", "image_index", "class_id", "location_code"]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def as_lists(parsed):
    """A dict or tuple of columns with each array as a list, for ==."""
    if isinstance(parsed, dict):
        return {k: as_lists(v) for k, v in parsed.items()}
    return [v.tolist() for v in parsed] if isinstance(parsed, tuple) else parsed.tolist()


class TestClassesCsv:
    def test_parses_three_classes(self, tmp_path):
        table = parse_classes_csv(write(tmp_path, "c.csv", CLASSES_OK))
        assert table.n_classes == 3
        assert table.venomous_flags.tolist() == [True, False, True]
        assert table.names.tolist() == ["adder", "grass snake", "asp"]

    @settings(max_examples=50, deadline=None)
    @given(
        data=st.data(),
        arrangement=st.sampled_from(["sorted", "reversed", "shuffled"]),
        size=st.integers(1, 8),
    )
    def test_rows_in_any_order_give_columns_by_id(
        self, tmp_path_factory, data, arrangement, size
    ):
        ids = list(range(size))
        if arrangement == "reversed":
            ids.reverse()
        elif arrangement == "shuffled":
            ids = data.draw(st.permutations(ids))
        flags = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        path = tmp_path_factory.mktemp("classes") / "c.csv"
        write_manifest(path, ["class_id", "name", "venomous"],
                       [ids, [f"name_{k}" for k in ids], [int(flags[k]) for k in ids]])
        table = parse_classes_csv(path)
        want = sorted(reference_classes(path))
        assert table.names.tolist() == [name for _, name, _ in want]
        assert table.venomous_flags.tolist() == [flag for *_, flag in want]
        assert table.n_classes == size

    def test_table_rejects_no_classes_and_flags_of_another_shape(self):
        with pytest.raises(ValueError, match="no classes"):
            ClassTable([], [])
        with pytest.raises(ValueError, match="venomous flags"):
            ClassTable(["a", "b"], [True])
        with pytest.raises(ValueError, match="venomous flags"):
            ClassTable(["a", "b"], [[True, False]])

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
        assert table.ids.tolist() == ["obs1", "obs2"]
        assert table.group.tolist() == [0, 0, 1]

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

    @staticmethod
    def observations(tmp_path, class_cells):
        """An observations.csv whose rows hold ``class_cells``, every field quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(OBS_HEADER)
        writer.writerows([f"obs{k}", k, cell, "loc_a"] for k, cell in enumerate(class_cells))
        path = tmp_path / "o.csv"
        path.write_bytes(out.getvalue().encode("utf-8"))
        return path

    def test_whitespace_class_id_is_unlabeled(self, tmp_path):
        whitespace = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
        assert len(whitespace) == 29
        classes = self.classes(tmp_path)
        for cell in whitespace + [c * 3 for c in whitespace]:
            path = self.observations(tmp_path, ["1", cell])
            table = parse_observations_csv(path, classes, allow_unlabeled=True)
            assert table.class_id.tolist() == [1, -1], repr(cell)
            with pytest.raises(CsvParseError) as caught:
                parse_observations_csv(path, classes)
            assert str(caught.value).endswith(": missing class_id"), repr(cell)

    def test_class_id_with_spaces_around_it(self, tmp_path):
        classes = ClassTable([f"c{k}" for k in range(4)], [k % 2 == 1 for k in range(4)])
        table = parse_observations_csv(self.observations(tmp_path, [" 3 "]), classes)
        assert table.class_id.tolist() == [3]
        path = self.observations(tmp_path, [" 3 ", " x "])
        with pytest.raises(CsvParseError) as caught:
            parse_observations_csv(path, classes)
        assert str(caught.value) == f"{path}:3: bad class_id 'x'"


class TestLocationsCsv:
    def test_parses_mapping(self, tmp_path):
        text = "location_code,metadata_index\nloc_a,0\nloc_b,1\n"
        table = parse_locations_csv(write(tmp_path, "l.csv", text))
        assert table.codes.tolist() == ["loc_a", "loc_b"]
        assert table.index.tolist() == [0, 1]

    def test_duplicate_code_rejected(self, tmp_path):
        text = "location_code,metadata_index\nloc_a,0\nloc_a,1\n"
        with pytest.raises(CsvParseError):
            parse_locations_csv(write(tmp_path, "l.csv", text))


# a manifest field: text built from the characters csv.writer quotes for,
# non-ASCII and empty text, or a number
MANIFEST_FIELDS = st.one_of(
    st.lists(
        st.sampled_from([",", '"', "\n", "\r", "\r\n", "", "a", "é", "蛇"]), max_size=3
    ).map("".join),
    st.integers(-(10**6), 10**6),
    st.floats(),
)


@st.composite
def manifests(draw):
    """(header, rows): one to four columns and up to nine rows."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[MANIFEST_FIELDS] * n), max_size=9))
    return [f"h{j}" for j in range(n)], rows


def columns_of(header, rows):
    return [[row[j] for row in rows] for j in range(len(header))]


class TestWriteManifest:
    def test_only_fields_with_a_line_break_or_special_are_quoted(self, tmp_path, monkeypatch):
        # chunks of two rows: the \r rows fall in the second and third
        monkeypatch.setattr(data_model, "WRITE_CHUNK", 2)
        ids = ["a", "b,c", "d\re", "f", "g\r\nh", "i\n", "j"]
        path = tmp_path / "m.csv"
        write_manifest(path, ["observation_id", "class_id"], [ids, list(range(len(ids)))])
        assert path.read_bytes() == (
            b'observation_id,class_id\na,0\n"b,c",1\n"d\re",2\nf,3\n"g\r\nh",4\n"i\n",5\nj,6\n'
        )
        read_ids, class_ids = read_predictions_csv(path)
        assert dict(zip(read_ids.tolist(), class_ids.tolist())) == {k: i for i, k in enumerate(ids)}

    @settings(max_examples=200, deadline=None)
    @given(manifest=manifests(), chunk=st.sampled_from([2, 2048]))
    @example(manifest=(["h0"], [("",), ("a",)]), chunk=2)
    @example(manifest=(["h0", "h1"], [("", ""), ("a\rb", 1), ("c", 2.5)]), chunk=2)
    def test_matches_csv_writer(self, tmp_path_factory, manifest, chunk):
        header, rows = manifest
        path = tmp_path_factory.mktemp("manifest") / "m.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(data_model, "WRITE_CHUNK", chunk)
            write_manifest(path, header, columns_of(header, rows))
        assert path.read_bytes().decode("utf-8") == reference_manifest(header, rows)

    def test_plain_and_quoted_chunks_match_csv_writer(self, tmp_path):
        # chunks of 2048 rows: a comma in the second and a \r in the third
        # send those two through csv.writer a row at a time, the others stay
        # plain
        ids = [f"obs_{i}" for i in range(7000)]
        ids[3000], ids[4500] = "a,b", "c\rd"
        rows = [(v, i, i / 7) for i, v in enumerate(ids)]
        header = ["observation_id", "class_id", "confidence"]
        path = tmp_path / "m.csv"
        write_manifest(path, header, columns_of(header, rows))
        assert path.read_bytes().decode("utf-8") == reference_manifest(header, rows)


class TestSortedUnique:
    """sorted_unique against np.unique; in-order input skips the sort."""

    @staticmethod
    def arranged(values, arrangement, draw):
        if arrangement == "sorted":
            return np.sort(values)
        if arrangement == "reversed":
            return np.sort(values)[::-1].copy()
        return values[draw(st.permutations(range(values.size)))]

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        kind=st.sampled_from(["int64", "str"]),
        arrangement=st.sampled_from(["sorted", "reversed", "shuffled"]),
        size=st.sampled_from([0, 1, 2, 5, 40]),
    )
    def test_matches_np_unique(self, data, kind, arrangement, size):
        if kind == "int64":
            elements = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1)
            values = np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                              dtype=np.int64)
        else:
            # code points beyond ASCII and the BMP: both branches order by code point
            elements = st.text(alphabet="ab_\u00e9\U0001f40d", max_size=3)
            values = np.array(data.draw(st.lists(elements, min_size=size, max_size=size)),
                              dtype=StringDType())
        values = self.arranged(values, arrangement, data.draw)
        got = sorted_unique(values)
        want = reference_sorted_unique(values)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]
        assert got[1].dtype == np.intp and got[2].dtype == bool

    @pytest.mark.parametrize(
        "values",
        [
            np.array([-4, -4, 0, 7, 7, 7, 9], dtype=np.int64),
            np.array(["a", "a", "a_", "b", "\u00e9", "\u00e9"], dtype=StringDType()),
            np.array([], dtype=np.int64),
            np.array(["only"], dtype=StringDType()),
        ],
    )
    def test_in_order_values_are_not_sorted_again(self, monkeypatch, values):
        def no_argsort(*args, **kwargs):
            raise AssertionError("argsort called on in-order values")

        monkeypatch.setattr(np, "argsort", no_argsort)
        got = sorted_unique(values)
        monkeypatch.undo()
        assert [a.tolist() for a in got] == [
            a.tolist() for a in reference_sorted_unique(values)
        ]

    def test_out_of_order_values_take_the_sort(self, monkeypatch):
        calls = []
        argsort = np.argsort
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        ids, inverse, repeat = sorted_unique(np.array(["b", "a", "b"], dtype=StringDType()))
        assert calls == [1]
        assert (ids.tolist(), inverse.tolist(), repeat.tolist()) == (
            ["a", "b"], [1, 0, 1], [False, False, True]
        )


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


def vgf1_header(rows: int, dims: int) -> bytes:
    return MAGIC + rows.to_bytes(8, "little") + dims.to_bytes(8, "little")


class TestBinaryFormat:
    def sources(self, tmp_path, data: bytes):
        """``data`` as a regular file, then as a pipe (``/dev/fd/N``): the
        path of each in turn."""
        path = tmp_path / "m.bin"
        path.write_bytes(data)
        yield str(path)
        with piped(data) as pipe:
            yield pipe

    def rejects(self, tmp_path, data: bytes, count: int, file_message: str, pipe_message=None):
        """read_records(source, count) raises FormatError with exactly
        ``source: message``, from a file and from a pipe holding ``data``."""
        messages = (file_message, pipe_message or file_message)
        for source, message in zip(self.sources(tmp_path, data), messages):
            with pytest.raises(FormatError) as info:
                read_records(source, count)
            assert str(info.value) == f"{source}: {message}"

    def test_round_trip_small_matrix(self, tmp_path):
        path = tmp_path / "m.bin"
        write_records(path, [FeatureMatrix(np.array([[1.0, 2.0]]))])
        (loaded,) = read_records(path, 1)
        assert loaded.values.tolist() == [[1.0, 2.0]]

    def test_bad_magic_reported(self, tmp_path):
        self.rejects(tmp_path, b"XXXX" + b"\x00" * 16, 1, "bad magic b'XXXX'")
        self.rejects(tmp_path, b"VG", 1, "bad magic b'VG'")

    def test_truncated_header_reported(self, tmp_path):
        self.rejects(tmp_path, vgf1_header(2, 2)[:14], 1, "truncated header")

    def test_truncated_payload_reported(self, tmp_path):
        # 3 floats of the 4 declared: a file's size shows it before the
        # payload is read, a pipe's read comes up short
        self.rejects(
            tmp_path,
            vgf1_header(2, 2) + b"\x00" * 12,
            1,
            "header declares 2x2 values (16 bytes) but only 12 bytes remain",
            "truncated payload, expected 16 bytes got 12",
        )

    def test_header_larger_than_file_rejected_before_reading(self, tmp_path):
        path = tmp_path / "m.bin"
        path.write_bytes(vgf1_header(2**40, 2**20))
        with pytest.raises(FormatError, match="declares .* but only 0 bytes remain"):
            read_records(path, 1)

    def test_lying_header_on_a_pipe_is_format_error(self):
        # a pipe's length is unknown: 2**40 x 2**20 values must not be allocated
        with piped(vgf1_header(2**40, 2**20)) as pipe:
            with pytest.raises(FormatError, match=f"expected {2**62} bytes got 0"):
                read_records(pipe, 1)

    @pytest.mark.parametrize("cut", [0, 5, 8])
    def test_pipe_payload_arrives_in_chunks(self, tmp_path, monkeypatch, cut):
        monkeypatch.setattr(data_model, "STREAM_CHUNK", 8)
        matrix = FeatureMatrix(np.arange(15.0).reshape(3, 5))
        path = tmp_path / "m.bin"
        write_records(path, [matrix])
        data = path.read_bytes()
        with piped(data[: len(data) - cut]) as pipe:
            if cut:
                with pytest.raises(FormatError, match=f"expected 60 bytes got {60 - cut}"):
                    read_records(pipe, 1)
            else:
                assert read_records(pipe, 1) == [matrix]

    def test_trailing_bytes_reported(self, tmp_path):
        path = tmp_path / "m.bin"
        write_records(path, [FeatureMatrix(np.zeros((1, 1)))] * 2)
        data = path.read_bytes()
        self.rejects(tmp_path, data[:24] + b"\x01", 1, "trailing bytes after 1 record")
        self.rejects(tmp_path, data + b"\x01", 2, "trailing bytes after 2 records")
        # a whole further record is trailing bytes too
        self.rejects(tmp_path, data, 1, "trailing bytes after 1 record")

    def test_non_finite_payload_rejected(self, tmp_path):
        data = vgf1_header(1, 1) + np.array([np.inf], dtype="<f4").tobytes()
        self.rejects(tmp_path, data, 1, "non-finite values in payload")

    def test_signalling_nan_payload_is_format_error(self, tmp_path):
        # widening a signalling NaN to float64 raises FP "invalid"; the loader
        # must report the bad payload, not that warning
        data = vgf1_header(1, 1) + (0x7F800001).to_bytes(4, "little")
        self.rejects(tmp_path, data, 1, "non-finite values in payload")

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
        for source in self.sources(tmp_path, path.read_bytes()):
            loaded = read_records(source, 2)
            assert [m.values.shape for m in loaded] == [(2, 3), (1, 4)]
            assert all(np.array_equal(a.values, b.values) for a, b in zip(mats, loaded))

    @pytest.mark.parametrize(
        "rows, dims", [(0, 2**64 - 1), (2**62, 0)], ids=["dims_2^64-1", "rows_2^62"]
    )
    def test_empty_shape_past_numpy_limits_rejected(self, tmp_path, rows, dims):
        # no payload bytes, so only the reshape can reject these headers
        self.rejects(tmp_path, vgf1_header(rows, dims), 1, f"header declares {rows}x{dims} values")

    def test_wrong_record_count_rejected(self, tmp_path):
        # a file and a pipe both end where the next record's magic would begin
        path = tmp_path / "m.bin"
        write_records(path, [FeatureMatrix(np.zeros((1, 1)))])
        self.rejects(tmp_path, path.read_bytes(), 2, "holds 1 record, expected 2")
        self.rejects(tmp_path, b"", 1, "holds 0 records, expected 1")

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

    def test_matrix_keeps_float32_and_float64_and_widens_the_rest(self):
        for dtype, kept in [
            (np.float32, np.float32),
            (np.float64, np.float64),
            (np.float16, np.float64),
            (np.int64, np.float64),
        ]:
            values = np.arange(6, dtype=dtype).reshape(2, 3)
            assert FeatureMatrix(values).values.dtype == kept
        values = np.ones((2, 2), dtype=np.float32)
        assert FeatureMatrix(values).values is values

    def test_file_and_pipe_read_to_writable_float32(self, tmp_path):
        matrix = FeatureMatrix(np.arange(12.0).reshape(3, 4) / 7)
        path = tmp_path / "m.bin"
        write_records(path, [matrix])
        for source in self.sources(tmp_path, path.read_bytes()):
            (loaded,) = read_records(source, 1)
            assert loaded.values.dtype == np.float32
            assert loaded.values.flags.writeable
            assert np.array_equal(loaded.values, matrix.values.astype(np.float32))
            loaded.values[0, 0] = 1.0

    def test_file_read_peaks_near_its_payload(self, tmp_path):
        # the payload is read straight into the matrix: no bytes copy, no
        # widened copy, and the finiteness mask is a chunk at a time
        path = tmp_path / "m.bin"
        values = np.random.default_rng(0).standard_normal((2000, 500)).astype(np.float32)
        write_records(path, [FeatureMatrix(values)])
        tracemalloc.start()
        try:
            (loaded,) = read_records(path, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, values)
        assert peak < 1.1 * values.nbytes

    def test_float64_matrix_written_a_chunk_at_a_time(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data_model, "STREAM_CHUNK", 12)  # 1 row of 3 values
        values = np.arange(15.0).reshape(5, 3) / 3
        path = tmp_path / "m.bin"
        write_records(path, [FeatureMatrix(values)])
        assert path.read_bytes()[20:] == values.astype("<f4").tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_past_float32_range_refused_before_the_file_opens(self, tmp_path, sign):
        # 2**128 - 2**103 is the midpoint between float32's largest value and
        # 2**128; it and everything past it round to infinity
        edge = 2.0**128 - 2.0**103
        ok, bad = FeatureMatrix([[sign * np.nextafter(edge, 0.0)]]), FeatureMatrix([[sign * edge]])
        path = tmp_path / "m.bin"
        write_records(path, [ok])
        (loaded,) = read_records(path, 1)
        assert loaded.values[0, 0] == sign * np.finfo(np.float32).max
        path.unlink()
        with pytest.raises(FormatError, match=f"{path}: values beyond float32's range"):
            write_records(path, [FeatureMatrix([[1.0, sign * 1e39]])])
        with pytest.raises(FormatError, match=str(path)):
            write_records(path, [ok, bad])
        assert not path.exists()


class TestValidation:
    def test_consistent_bundle_reports_nothing(self, tiny_bundle):
        checked, report = validate_bundle(tiny_bundle, mode="strict")
        assert report.dropped_rows == 0
        assert checked is tiny_bundle

    def test_bad_image_index_dropped_and_counted(self, tiny_bundle):
        bad = with_columns(tiny_bundle, image_index=[0, 99, 2, 3])
        cleaned, report = validate_bundle(bad, mode="drop")
        assert report.dropped_rows == 1
        assert report.bad_image_index == 1
        assert report.dropped == [("obs_a", 99)]
        assert len(cleaned.observations) == 3

    def test_strict_mode_raises_with_offenders(self, tiny_bundle):
        bad = with_columns(tiny_bundle, location_code=["loc_missing", "loc_0", "loc_1", "loc_2"])
        with pytest.raises(BundleValidationError, match="obs_a"):
            validate_bundle(bad, mode="strict")

    def test_location_entry_past_metadata_dropped(self, tiny_bundle):
        bad = replace(tiny_bundle, locations=location_table({"loc_0": 0, "loc_1": 1, "loc_2": 9}))
        cleaned, report = validate_bundle(bad, mode="drop")
        assert report.bad_metadata_index == 1
        assert report.dropped_rows == 1
        assert cleaned.locations.codes.tolist() == ["loc_0", "loc_1"]

    def test_drop_is_idempotent(self, tiny_bundle):
        bad = with_columns(tiny_bundle, image_index=[0, 99, 2, 3])
        cleaned, first = validate_bundle(bad, mode="drop")
        again, second = validate_bundle(cleaned, mode="drop")
        assert first.dropped_rows == 1
        assert second.dropped_rows == 0
        assert as_lists(vars(again.observations)) == as_lists(vars(cleaned.observations))

    def test_invalid_mode_rejected(self, tiny_bundle):
        with pytest.raises(ValueError):
            validate_bundle(tiny_bundle, mode="lenient")


CODE = st.text(alphabet=FIELD_CHARS, max_size=4)


@st.composite
def location_join(draw):
    """(observation rows as (image_index, code), location rows as (code,
    metadata_index), metadata row count, relation of the two code sets), each
    file in a drawn order."""
    relation = draw(st.sampled_from(["equal", "superset", "subset", "disjoint"]))
    used = draw(st.lists(CODE, min_size=1, max_size=6, unique=True))
    others = draw(st.lists(CODE.filter(lambda c: c not in used), min_size=1, max_size=3,
                           unique=True))
    known = {
        "equal": used,
        "superset": used + others,
        "subset": used[: draw(st.integers(0, len(used) - 1))],
        "disjoint": others,
    }[relation]
    n_meta = draw(st.integers(1, 4))
    # -1 and n_meta are out of range
    locations = draw(st.permutations(
        [(code, draw(st.integers(-1, n_meta))) for code in known]
    ))
    codes = draw(st.permutations(used + draw(st.lists(st.sampled_from(used), max_size=6))))
    images = draw(st.lists(st.integers(-1, len(codes)), min_size=len(codes),
                           max_size=len(codes), unique=True))
    return list(zip(images, codes)), locations, n_meta, relation


def strict_message(bundle):
    try:
        validate_bundle(bundle, mode="strict")
    except BundleValidationError as exc:
        return str(exc)
    return None


class TestLocationJoin:
    """metadata_rows against a dict lookup, whichever way the two code sets
    relate and in whatever order the manifests list them."""

    @settings(max_examples=200, deadline=None)
    @given(case=location_join())
    def test_matches_dict_lookup_on_both_paths(self, tmp_path_factory, case):
        rows, locations, n_meta, relation = case
        d = tmp_path_factory.mktemp("join")
        write_manifest(d / "o.csv", OBS_HEADER, [
            [f"o{k % 3}" for k in range(len(rows))],
            [image for image, _ in rows],
            [0] * len(rows),
            [code for _, code in rows],
        ])
        write_manifest(d / "l.csv", ["location_code", "metadata_index"],
                       [[code for code, _ in locations], [index for _, index in locations]])
        classes = ClassTable(["a"], [True])
        bundle = DatasetBundle(
            classes=classes,
            observations=parse_observations_csv(d / "o.csv", classes),
            image_scores=FeatureMatrix(np.zeros((len(rows), 1))),
            metadata_features=FeatureMatrix(np.zeros((n_meta, 1))),
            locations=parse_locations_csv(d / "l.csv"),
        )
        obs = bundle.observations
        assert np.array_equal(bundle.locations.codes, obs.codes) == (relation == "equal")

        index, known = bundle.metadata_rows()
        expected = reference_metadata_rows(locations, [code for _, code in rows])
        assert list(zip(index.tolist(), known.tolist())) == expected

        # one more location, used by no row and in range, takes the lookup
        # path even where the code sets were equal; nothing else may change
        every_code = [code for _, code in rows] + [code for code, _ in locations]
        extra = "x" * (1 + max(map(len, every_code)))
        twin = replace(bundle, locations=location_table(dict(locations) | {extra: 0}))
        assert strict_message(twin) == strict_message(bundle)
        cleaned, report = validate_bundle(bundle, mode="drop")
        twin_cleaned, twin_report = validate_bundle(twin, mode="drop")
        assert twin_report == report
        assert as_lists(vars(twin_cleaned.observations)) == as_lists(vars(cleaned.observations))
        assert location_dict(twin_cleaned.locations) == location_dict(cleaned.locations) | {
            extra: 0
        }


class TestLoadBundle:
    def test_generated_dataset_round_trips(self, tmp_path):
        gen = generate(SynthConfig(seed=3, n_classes=6, n_observations=40))
        write_dataset(gen, tmp_path)
        bundle = load_bundle(tmp_path)
        assert bundle.classes.n_classes == 6
        assert bundle.image_scores.rows == len(bundle.observations)
        assert bundle.embeddings is not None
        _, report = validate_bundle(bundle, mode="strict")
        assert report.dropped_rows == 0

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_bundle(tmp_path)


# Pieces of manifest text: quoting, separators and line ends that csv.reader
# and the columnar reader must split the same way.
TEXT_PIECES = ["a", "b", "7", ",", '"', "\n", "\r\n", " ", "#", "\x00", "é"]
# ids and codes beyond ASCII too, drawn in any order and repeated, so that
# both readers' columns are sorted and deduplicated
NAMES = st.sampled_from(
    ["obs_a", "obs_b", "loc_a", "loc_b", "a b", "é", "obs_é", "obs_😀", "Ω", "ä_1"]
)
TEXT_CELL = st.one_of(
    st.lists(st.sampled_from(TEXT_PIECES), max_size=4).map("".join), NAMES, NAMES
)
# int() accepts some odd spellings; the listed ones must parse alike
ODD_INTS = st.sampled_from(
    [" 4 ", " ", " x ", "+2", "+5", "-1", " 12", "12 ", "1_0", "٣", "٣٣", "x", "", "1.5",
     '"3"']
)
# 1 to 20 digits, leading zeros included: plain digits up to 18 are read
# from their bytes, longer ones as int() reads them, and past int64 rejected
DIGITS = st.one_of(
    st.text(alphabet="0123456789", min_size=1, max_size=20),
    st.sampled_from([
        "999999999999999999",
        "0000000000000000001",
        "9223372036854775807",
        "9223372036854775808",
        "99999999999999999999",
    ]),
)
SMALL = st.integers(0, 3).map(str)
PADDED_SMALL = st.builds(
    lambda k, zeros: "0" * zeros + str(k), st.integers(0, 3), st.integers(0, 19)
)
SMALL_INT = st.one_of(SMALL, SMALL, PADDED_SMALL, ODD_INTS)
LARGE = st.integers(0, 10**6).map(str)
ANY_INT = st.one_of(LARGE, LARGE, DIGITS, SMALL_INT)


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


FOUR_CLASSES = ClassTable([f"c{k}" for k in range(4)], [k % 2 == 1 for k in range(4)])
FLAGS = st.sampled_from(["0", "1", " TRUE", "false ", "yes", ""])


def observations_pair(allow_unlabeled):
    """parse_observations_csv and its reference, each giving row tuples."""

    def ours(path):
        table = parse_observations_csv(path, FOUR_CLASSES, allow_unlabeled=allow_unlabeled)
        return [tuple(r) for r in table.rows]

    return ours, lambda path: reference_observations(path, 4, allow_unlabeled)


def parsed_locations(path):
    """The codes in str order, each with its own metadata row."""
    table = parse_locations_csv(path)
    return list(zip(table.codes.tolist(), table.index.tolist()))


def parsed_classes(path):
    """(class_id, name, venomous) in id order."""
    table = parse_classes_csv(path)
    return list(zip(itertools.count(), table.names.tolist(), table.venomous_flags.tolist()))


def parsed_predictions(path):
    ids, class_ids = read_predictions_csv(path)
    return list(zip(ids.tolist(), class_ids.tolist()))


# manifest -> (header, cell strategy by column, our parser, its reference)
PARSERS = {
    "observations": (OBS_HEADER, {1: ANY_INT, 2: SMALL_INT}, *observations_pair(False)),
    "observations, unlabeled allowed": (
        OBS_HEADER, {1: ANY_INT, 2: SMALL_INT}, *observations_pair(True)
    ),
    "locations": (
        ["location_code", "metadata_index"],
        {1: ANY_INT},
        parsed_locations,
        lambda path: sorted(reference_locations(path).items()),
    ),
    "classes": (
        ["class_id", "name", "venomous"],
        {0: SMALL_INT, 2: FLAGS},
        parsed_classes,
        lambda path: sorted(reference_classes(path)),
    ),
    "predictions": (
        ["observation_id", "class_id"],
        {1: ANY_INT},
        parsed_predictions,
        lambda path: sorted(reference_predictions(path).items()),
    ),
}


class TestParseInts:
    """parse_ints gives int() of each cell in int64, or rejects it, alike for
    a column of fixed-width UTF-8 bytes, as a plain manifest is gathered,
    and for a StringDType column, as csv.reader's rows are."""

    @staticmethod
    def reference(cells):
        out = []
        for cell in cells:
            try:
                out.append(reference_int(cell))
            except ValueError:
                out.append(None)
        return out

    @pytest.mark.parametrize("cell", [
        "0", "7", "007", "999999999999999999", "0000000000000000001",
        "9223372036854775807", "9223372036854775808", "-9223372036854775808",
        "99999999999999999999", "+5", "-1", " 4", "4 ", "1_0", "٣", "", " ", "x",
        "1.5", "1x", "12é", "12\x003",
    ])
    def test_each_spelling_alone_and_among_plain_digits(self, cell):
        for cells in ([cell], ["12", cell, "3"], ["000000000000000042", cell]):
            for column in (np.array([c.encode() for c in cells]),
                           np.array(cells, dtype=StringDType())):
                values, bad = parse_ints(column)
                got = [None if b else v for v, b in zip(values.tolist(), bad.tolist())]
                assert got == self.reference(cells), (column.dtype, cells)

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(DIGITS, max_size=8))
    def test_digit_columns_of_any_width(self, cells):
        column = np.array([c.encode() for c in cells], dtype=f"S{max(map(len, cells), default=1)}")
        values, bad = parse_ints(column)
        assert [None if b else v for v, b in zip(values.tolist(), bad.tolist())] == (
            self.reference(cells)
        )
        assert values.dtype == np.int64


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
        text=manifest_text(*PARSERS["observations"][:2]),
        allow_unlabeled=st.booleans(),
    )
    # numpy's strings end at a NUL, which once merged these two ids
    @example(text=",".join(OBS_HEADER) + "\n\x00a,0,0,l\n\x00b,1,0,l", allow_unlabeled=False)
    def test_observations(self, tmp_path_factory, text, allow_unlabeled):
        self.check(tmp_path_factory, text, *observations_pair(allow_unlabeled))

    @settings(max_examples=100, deadline=None)
    @given(text=manifest_text(*PARSERS["locations"][:2]))
    # once rejected as duplicates: numpy compared them only up to the NUL
    @example(text="location_code,metadata_index\n\x00aaa,0\n\x00aab,0")
    def test_locations(self, tmp_path_factory, text):
        self.check(tmp_path_factory, text, *PARSERS["locations"][2:])

    @settings(max_examples=100, deadline=None)
    @given(text=manifest_text(*PARSERS["classes"][:2]))
    def test_classes(self, tmp_path_factory, text):
        self.check(tmp_path_factory, text, *PARSERS["classes"][2:])

    @settings(max_examples=100, deadline=None)
    @given(text=manifest_text(*PARSERS["predictions"][:2]))
    def test_predictions(self, tmp_path_factory, text):
        self.check(tmp_path_factory, text, *PARSERS["predictions"][2:])

    @pytest.mark.parametrize("parse", [
        parse_classes_csv,
        lambda path: parse_observations_csv(path, ClassTable(["a"], [True])),
        parse_locations_csv,
        read_predictions_csv,
    ])
    def test_nul_names_its_physical_line(self, tmp_path, parse):
        # line ends \r\n, a quoted line break, \n and a lone \r before line 5
        path = tmp_path / "m.csv"
        path.write_bytes(b'h\r\n"a\r\nb",0\nc,1\rd\x00,2\n')
        with pytest.raises(CsvParseError, match=":5: NUL character in a field"):
            parse(path)

    @pytest.mark.parametrize("parse", [
        parse_classes_csv,
        lambda path: parse_observations_csv(path, ClassTable(["a"], [True])),
        parse_locations_csv,
        read_predictions_csv,
    ])
    def test_non_utf8_byte_names_its_physical_line(self, tmp_path, parse):
        path = tmp_path / "m.csv"
        path.write_bytes(b'h\r\n"a\r\nb",0\nc,1\rd\xff,2\n')
        with pytest.raises(CsvParseError, match=":5: byte 0xff is not UTF-8"):
            parse(path)

    def test_over_long_field_in_a_rejected_file_names_its_line(self, tmp_path):
        # the long field is reported whether it comes before the bad row
        # (line 3 against 4) or after it (line 4 against 3)
        long_row = f"loc_{'b' * 131073},1\n"
        for text, line in [
            (f"loc_a,0\n{long_row}loc_c,x\n", 3),
            (f"loc_a,0\nloc_c,x\n{long_row}", 4),
        ]:
            path = write(tmp_path, "l.csv", f"location_code,metadata_index\n{text}")
            with pytest.raises(CsvParseError, match=f":{line}: field larger than field limit"):
                parse_locations_csv(path)

    @pytest.mark.parametrize("row, line", [
        # in a column that is read, quoted across a line break: csv.reader
        # names line 4, where the field passes the limit
        (f'"loc_{"b" * 65536}\n{"b" * 65536}",1\n', 4),
        # in a column past the header's, which is otherwise ignored
        (f"loc_b,1,{'b' * 131073}\n", 3),
    ], ids=["quoted-read-column", "extra-column"])
    def test_over_long_field_in_a_well_formed_file_is_rejected(self, tmp_path, row, line):
        path = write(tmp_path, "l.csv", f"location_code,metadata_index\nloc_a,0\n{row}")
        with pytest.raises(CsvParseError, match=f":{line}: field larger than field limit"):
            parse_locations_csv(path)

    @pytest.mark.parametrize("name", [
        "classes.csv", "observations.csv", "locations.csv", "truth.csv",
    ])
    def test_leading_byte_order_mark_is_dropped(self, tmp_path, written_bundle, name):
        classes = parse_classes_csv(written_bundle / "classes.csv")
        parse = {
            "classes.csv": lambda path: vars(parse_classes_csv(path)),
            "observations.csv": lambda path: vars(
                parse_observations_csv(path, classes, allow_unlabeled=True)
            ),
            "locations.csv": lambda path: vars(parse_locations_csv(path)),
            "truth.csv": read_predictions_csv,
        }[name]
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (written_bundle / name).read_bytes())
        assert as_lists(parse(path)) == as_lists(parse(written_bundle / name))

    def test_byte_order_mark_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_bytes(b"\xef\xbb\xbflocation_code,metadata_index\nloc_a,0\nloc_b,x\n")
        with pytest.raises(CsvParseError, match=":3: bad metadata_index 'x'"):
            parse_locations_csv(path)

    def test_integer_beyond_int64_is_a_bad_value(self, tmp_path):
        # int() accepts it, but the int64 columns cannot hold it
        big = "9223372036854775808"
        path = write(tmp_path, "l.csv", f"location_code,metadata_index\nloc_a,{big}\n")
        with pytest.raises(CsvParseError, match=f":2: bad metadata_index '{big}'"):
            parse_locations_csv(path)


# Cells of the plain manifests that read_manifest splits from byte offsets:
# no quote, comma or line break, in one to four UTF-8 bytes a character
PLAIN_CELL = st.one_of(
    st.lists(st.sampled_from(["a", "7", "#", "é", "😀", "٣", " ", "\t"]), max_size=4).map(
        "".join
    ),
    ODD_INTS,
    NAMES,
)
LIMIT = csv.field_size_limit()


@st.composite
def plain_lines(draw, header, cells, min_rows=0):
    """The header line, maybe naming extra columns, then rows just as wide,
    each column's rows times its widest field (in bytes) within the size of
    the text after the header; no line end yet."""
    names = header + [f"extra_{k}" for k in range(draw(st.integers(0, 2)))]
    rows = [
        [draw(cells.get(j, PLAIN_CELL).filter(lambda cell: '"' not in cell))
         for j in range(len(names))]
        for _ in range(draw(st.integers(min_rows, 6)))
    ]
    lines = [",".join(row) for row in rows]
    widest = max((len(cell.encode()) for row in rows for cell in row[: len(header)]), default=0)
    assume(len(rows) * widest <= len("".join(line + "\n" for line in lines).encode()))
    return [",".join(names)] + lines


@st.composite
def ended(draw, lines):
    """``lines`` ending in \n or all in \r\n, the last one or not."""
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def fallback(trigger, lines, draw, n):
    """Text of ``lines`` (header first, at least two rows) that one of the
    conditions the byte path needs no longer holds for."""
    k = draw(st.integers(1, len(lines) - 1))
    fields = lines[k].split(",")
    # a gathered column; a field over the limit may be in any column
    j = draw(st.integers(0, (len(fields) if "limit" in trigger else n) - 1))
    if trigger in ("lone \\r", "mixed line ends"):  # row k's end; the others end in \n
        end = "\r" if trigger == "lone \\r" else "\r\n"
        return "\n".join(lines[: k + 1]) + end + "".join(line + "\n" for line in lines[k + 1 :])
    if trigger == "blank line":
        lines = lines[:k] + [""] + lines[k:]
    elif trigger == "quoted field":
        fields[j] = f'"{fields[j]}"'
    elif trigger == "row of another width":
        shorter = draw(st.booleans())
        fields = fields[:-1] if shorter else fields + ["7"]
        if draw(st.booleans()):  # and another row the other way: as many fields in all
            other = draw(st.integers(1, len(lines) - 1).filter(lambda row: row != k))
            lines = list(lines)
            lines[other] = lines[other] + ",7" if shorter else lines[other].rsplit(",", 1)[0]
    elif trigger == "over the limit in bytes only":
        fields[j] = "é" * (LIMIT // 2 + 1)
    elif trigger == "over the limit":
        fields[j] = "x" * (LIMIT + 1)
    else:  # "rows times widest field past the size"
        fields[j] = "a" * len("\n".join(lines))
    if trigger != "blank line":
        lines = lines[:k] + [",".join(fields)] + lines[k + 1 :]
    return draw(ended(lines))


class TestPlainManifestsReadFromByteOffsets:
    """A plain manifest is split at its commas and line ends, without
    csv.reader, into the fields csv.reader gives, as fixed-width bytes
    columns (dtype kind "S"); any other file is read by csv.reader into
    StringDType columns ("T"). Both give the rows and lines, and parse
    exactly as, the tests/oracles.py references do."""

    def write(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("plain") / "m.csv"
        path.write_bytes(text.encode("utf-8"))
        return path

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(sorted(PARSERS)), data=st.data())
    def test_plain_manifest_matches_csv_reader(self, tmp_path_factory, name, data):
        header, cells, ours, reference = PARSERS[name]
        path = self.write(tmp_path_factory, data.draw(ended(data.draw(plain_lines(header, cells)))))
        read, short, lines = data_model.read_manifest(path, header)
        assert short is None
        # split from byte offsets: csv.reader's columns would be StringDType
        assert [column.dtype.kind for column in read] == ["S"] * len(header)
        rows = zip(*(data_model.text(column).tolist() for column in read))
        expected = list(oracle_rows(path, header))
        assert list(map(list, rows)) == [row[: len(header)] for _, row in expected]
        assert list(lines) == [line for line, _ in expected]
        assert outcome(ours, path) == outcome(reference, path)

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(sorted(PARSERS)),
        trigger=st.sampled_from([
            "quoted field",
            "lone \\r",
            "mixed line ends",
            "blank line",
            "row of another width",
            "over the limit in bytes only",
            "over the limit",
            "rows times widest field past the size",
        ]),
        data=st.data(),
    )
    def test_other_manifests_fall_back_to_csv_reader(
        self, tmp_path_factory, name, trigger, data
    ):
        header, cells, ours, reference = PARSERS[name]
        lines = data.draw(plain_lines(header, cells, min_rows=2))
        path = self.write(tmp_path_factory, fallback(trigger, lines, data.draw, len(header)))
        if trigger == "over the limit":  # only csv.reader refuses a field
            with pytest.raises(CsvParseError, match="field larger than field limit"):
                data_model.read_manifest(path, header)
        else:
            read, short, lines = data_model.read_manifest(path, header)
            # read by csv.reader: byte offsets would give fixed-width bytes
            assert [column.dtype.kind for column in read] == ["T"] * len(header)
            expected = list(oracle_rows(path, header))
            assert list(lines) == [line for line, _ in expected]
            kept = expected if short is None else expected[:short]
            rows = zip(*(column.tolist() for column in read))
            assert list(map(list, rows)) == [row[: len(header)] for _, row in kept]
        assert outcome(ours, path) == outcome(reference, path)

    def test_gathered_column_is_bounded_by_the_file_size(self, tmp_path):
        # one code of 100,000 characters, under csv's limit: gathered as
        # fixed-width bytes, its column would take 20,000 x 100,004 bytes
        rows = [f"loc_{k:05d},{k}\n" for k in range(20_000)]
        rows[7] = f"loc_{'x' * 100_000},7\n"
        path = write(tmp_path, "locations.csv", "location_code,metadata_index\n" + "".join(rows))
        tracemalloc.start()
        try:
            table = parse_locations_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.codes.size == 20_000
        # csv.reader's rows, one list of str each, are most of it
        assert peak <= 20 * path.stat().st_size

    @pytest.mark.parametrize("row, kind", [("loc_b,y,z", "S"), ('"loc_b",y,z', "T")])
    def test_rows_are_numbered_after_a_header_of_two_lines(self, tmp_path, row, kind):
        text = f'location_code,metadata_index,"note\nwrapped"\nloc_a,1,x\n{row}\n'
        path = write(tmp_path, "l.csv", text)
        (codes, _), short, lines = data_model.read_manifest(
            path, ["location_code", "metadata_index"]
        )
        assert codes.dtype.kind == kind and short is None
        assert list(lines) == [3, 4]
        with pytest.raises(CsvParseError, match=":4: bad metadata_index 'y'"):
            parse_locations_csv(path)

    def test_blank_line_of_a_one_column_manifest_is_skipped(self, tmp_path):
        # a line of one empty field, to the byte path; csv.reader skips it
        path = write(tmp_path, "m.csv", "code\na\n\nb\n")
        (cells,), short, lines = data_model.read_manifest(path, ["code"])
        assert cells.tolist() == ["a", "b"] and short is None
        assert list(lines) == [2, 4]


# Bytes a flip writes into a manifest, and a field one character past
# csv.reader's limit (read here, never changed).
FLIP_BYTES = [b"\xff", b"\x00", b'"', b"\r", b"\n", b","]
LONG_FIELD = b"x" * (csv.field_size_limit() + 1)


def damage_manifest(blob: bytes, data) -> bytes:
    """One flipped byte, a truncation, a repeated line or an over-long field."""
    kind = data.draw(st.sampled_from(["flip", "truncate", "repeat", "long"]))
    if kind == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        return blob[:at] + data.draw(st.sampled_from(FLIP_BYTES)) + blob[at + 1 :]
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    if kind == "repeat":
        lines = blob.splitlines(keepends=True)
        k = data.draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[: k + 1] + lines[k:])
    at = data.draw(st.integers(0, len(blob)))
    return blob[:at] + LONG_FIELD + blob[at:]


@pytest.fixture(scope="module")
def written_bundle(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bundle")
    write_dataset(generate(SynthConfig(seed=3, n_classes=4, n_observations=6)), directory)
    return directory


class TestManifestFuzz:
    """A damaged manifest parses or raises CsvParseError, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(name=st.sampled_from(
        ["classes.csv", "observations.csv", "locations.csv", "truth.csv"]
    ), data=st.data())
    def test_damaged_manifests_parse_or_raise_csv_parse_error(
        self, tmp_path_factory, written_bundle, name, data
    ):
        classes = parse_classes_csv(written_bundle / "classes.csv")
        parse = {
            "classes.csv": parse_classes_csv,
            "observations.csv": lambda path: parse_observations_csv(
                path, classes, allow_unlabeled=True
            ),
            "locations.csv": parse_locations_csv,
            "truth.csv": read_predictions_csv,
        }[name]
        path = tmp_path_factory.mktemp("damaged") / name
        path.write_bytes(damage_manifest((written_bundle / name).read_bytes(), data))
        try:
            parse(path)
        except CsvParseError:
            pass
