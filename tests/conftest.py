import contextlib
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import strategies as st
from numpy.dtypes import StringDType

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


@contextlib.contextmanager
def piped(data: bytes):
    """A /dev/fd path to the read end of a pipe that holds ``data``, its
    write end closed."""
    r, w = os.pipe()
    try:
        assert os.write(w, data) == len(data)
    finally:
        os.close(w)
    try:
        yield f"/dev/fd/{r}"
    finally:
        os.close(r)


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
