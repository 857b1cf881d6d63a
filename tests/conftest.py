import argparse
import contextlib
import csv
import io
import os
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.dtypes import StringDType

from venomguard.cli import build_parser, main
from venomguard.data_model import (
    ClassTable,
    DatasetBundle,
    FeatureMatrix,
    LocationTable,
    ObservationTable,
)
from venomguard.linalg_pca import fit_pca
from venomguard.prior_model import PriorArtifact, PriorMlp, PrototypeMatrix
from venomguard.synthetic import SynthConfig, generate

README = Path(__file__).resolve().parents[1] / "README.md"

# every character str.isspace() accepts; all of them lie below U+3001
WHITESPACE = "".join(c for c in map(chr, range(0x3001)) if c.isspace())
# characters of an id, code or name: the CSV specials, whitespace and any
# other character UTF-8 can encode but NUL, which no manifest may hold
FIELD_CHARS = st.one_of(
    st.sampled_from(',"' + WHITESPACE), st.characters(codec="utf-8", exclude_characters="\x00")
)


@pytest.fixture(scope="session")
def synth7():
    """Default synthetic dataset at the repo's fixed seed."""
    return generate(SynthConfig(seed=7))


@pytest.fixture
def five_classes():
    return ClassTable(
        [f"species_{c}" for c in "abcde"], [False, True, False, True, False]
    )


@pytest.fixture
def tiny_bundle(five_classes):
    """Three observations (one with two images) over five classes."""
    observations = ObservationTable.from_columns(
        ["obs_a", "obs_a", "obs_b", "obs_c"],
        [0, 1, 2, 3],
        [0, 0, 1, 3],
        ["loc_0", "loc_0", "loc_1", "loc_2"],
    )
    scores = np.array(
        [
            [4.0, 0.0, 1.0, 0.0, 0.0],
            [3.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 2.0, 1.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 2.5, 0.0],
        ]
    )
    metadata = np.array(
        [
            [0.1, 0.2, 0.3],
            [0.4, 0.5, 0.6],
            [0.7, 0.8, 0.9],
        ]
    )
    return DatasetBundle(
        classes=five_classes,
        observations=observations,
        image_scores=FeatureMatrix(scores),
        metadata_features=FeatureMatrix(metadata),
        locations=location_table({"loc_0": 0, "loc_1": 1, "loc_2": 2}),
    )


def with_columns(bundle, **columns):
    """``bundle`` with the given observation columns replaced."""
    obs = bundle.observations
    kept = {
        "observation_id": obs.ids[obs.group],
        "image_index": obs.image_index,
        "class_id": obs.class_id,
        "location_code": obs.codes[obs.location],
    }
    return replace(bundle, observations=ObservationTable.from_columns(**(kept | columns)))


def run(capsys, *argv):
    """``venomguard *argv`` in-process: (exit code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def setting_actions():
    """(command, option action) for every optional argument of every subcommand."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (name, action)
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings
    ]


def quoted(path) -> bytes:
    """The rows of a CSV file written again with every field quoted."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_ALL).writerows(rows)
    return buf.getvalue().encode()


@contextlib.contextmanager
def piped(data: bytes):
    """A /dev/fd path to the read end of a pipe that a thread fills with
    ``data`` and then closes, as ``<(cat file)`` would."""
    r, w = os.pipe()

    def feed():
        view = memoryview(data)
        try:
            while view:
                view = view[os.write(w, view):]
        except BrokenPipeError:  # the reader stopped early
            pass
        finally:
            os.close(w)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)
        writer.join()


def location_table(mapping: dict[str, int]) -> LocationTable:
    """The LocationTable of a code -> metadata row mapping given in any order."""
    codes = sorted(mapping)
    return LocationTable(
        np.asarray(codes, dtype=StringDType()),
        np.array([mapping[code] for code in codes], dtype=np.int64),
    )


def location_dict(table: LocationTable) -> dict[str, int]:
    """A LocationTable's columns as a code -> metadata row mapping."""
    return dict(zip(table.codes.tolist(), table.index.tolist()))


def constant_prior_artifact(bundle: DatasetBundle, d_out: int = 6) -> PriorArtifact:
    """An artifact whose prior logits are the same for every location."""
    n_classes = bundle.classes.n_classes
    k = min(2, bundle.metadata_features.dims)
    pca = fit_pca(bundle.metadata_features, k)
    mlp = PriorMlp.create(k, 4, d_out, seed=0)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        setattr(mlp, name, np.zeros_like(getattr(mlp, name)))
    proto = np.ones((d_out, n_classes))
    return PriorArtifact(mlp=mlp, prototypes=PrototypeMatrix(proto), pca=pca)


def readme_key_flags() -> dict[str, list[tuple[str, str]]]:
    """The README's key/flag table: each config key and the (command, flag)
    pairs that set it, none for a key only a --config file sets."""
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^\| key \| flag \|\n\|---\|---\|\n((?:\|.*\n)+)", text, re.M)
    assert table, "README has no key/flag table"
    out: dict[str, list[tuple[str, str]]] = {}
    for line in table.group(1).splitlines():
        key_cell, flag_cell = (cell.strip() for cell in line.strip("|").split("|"))
        (key,) = re.fullmatch(r"`(\w+)`", key_cell).groups()
        assert key not in out, f"README lists {key} twice"
        spans = re.findall(r"`([^`]+)`", flag_cell)
        if not spans:
            assert flag_cell == "file only", line
            out[key] = []
        elif " " in spans[0]:  # `command -flag`
            assert len(spans) == 1, line
            command, flag = spans[0].split()
            out[key] = [(command, flag)]
        else:  # `--flag` (`command`, `command`, ...)
            flag, *commands = spans
            assert commands, line
            out[key] = [(command, flag) for command in commands]
    return out
