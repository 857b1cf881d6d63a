"""Bundle matrices stay float32 in memory, and every computation widens them.

A bundle read from disk, and its twin whose three matrices hold the same
values as float64, must give byte-identical results at every stage.
"""

from dataclasses import replace

import numpy as np
import pytest

from venomguard.data_model import FeatureMatrix, load_bundle
from venomguard.inference import EscalationPolicy, predict_dataset
from venomguard.linalg_pca import fit_pca, load_pca, pca_transform, save_pca
from venomguard.prior_model import (
    PriorTrainConfig,
    compute_prototypes,
    fit_prior,
    load_prior,
    pack_params,
    prototype_inputs,
    save_prior,
    train_prior,
)
from venomguard.synthetic import SynthConfig, generate, write_dataset

MATRICES = ("image_scores", "metadata_features", "embeddings")
TRAIN = PriorTrainConfig(epochs=1, hidden=16, base_lr=5e-3, warmup_lr=5e-5, seed=12)


def widened(bundle):
    """``bundle`` with its matrices cast to float64."""
    return replace(
        bundle,
        **{name: FeatureMatrix(getattr(bundle, name).values.astype(np.float64)) for name in MATRICES},
    )


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


@pytest.fixture(scope="module")
def twins(tmp_path_factory):
    """The seed-7 5k bundle as read from disk, and its float64 twin."""
    directory = tmp_path_factory.mktemp("seed7")
    write_dataset(generate(SynthConfig(seed=7)), directory)
    bundle = load_bundle(directory)
    assert [getattr(bundle, name).values.dtype for name in MATRICES] == [np.float32] * 3
    return bundle, widened(bundle)


@pytest.fixture(scope="module")
def prior(twins, tmp_path_factory):
    """A 1-epoch prior, saved and loaded back with float64 parameters."""
    bundle = twins[1]
    artifact, _ = fit_prior(bundle, fit_pca(bundle.metadata_features, 8), TRAIN)
    path = tmp_path_factory.mktemp("prior") / "prior.bin"
    save_prior(artifact, path)
    loaded = load_prior(path)
    parameters = [getattr(loaded.mlp, name) for name in ("w1", "b1", "w2", "b2", "w3", "b3")]
    parameters += [loaded.prototypes.matrix, loaded.pca.mean, loaded.pca.components]
    assert [p.dtype for p in parameters] == [np.float64] * len(parameters)
    return loaded


def test_pca_fit_and_transform(twins, tmp_path):
    models = [fit_pca(bundle.metadata_features, 8) for bundle in twins]
    for name in ("mean", "components", "eigenvalues"):
        assert_same_bytes(getattr(models[0], name), getattr(models[1], name))
    assert_same_bytes(
        *(pca_transform(models[0], bundle.metadata_features).values for bundle in twins)
    )
    save_pca(models[0], tmp_path / "pca.bin")
    loaded = load_pca(tmp_path / "pca.bin")
    assert [loaded.mean.dtype, loaded.components.dtype, loaded.eigenvalues.dtype] == [
        np.float64
    ] * 3


def test_prototypes(twins):
    assert_same_bytes(
        *(
            compute_prototypes(*prototype_inputs(bundle), bundle.classes.n_classes).matrix
            for bundle in twins
        )
    )


@pytest.mark.parametrize("reduce", [True, False], ids=["reduced", "unreduced"])
def test_train_prior(twins, reduce):
    reference = twins[1]
    pca = fit_pca(reference.metadata_features, 8)
    prototypes = compute_prototypes(*prototype_inputs(reference), reference.classes.n_classes)
    runs = []
    for bundle in twins:
        if reduce:
            bundle = replace(
                bundle, metadata_features=pca_transform(pca, bundle.metadata_features)
            )
        runs.append(train_prior(bundle, prototypes, TRAIN))
    (mlp_a, trace_a), (mlp_b, trace_b) = runs
    assert_same_bytes(pack_params(mlp_a), pack_params(mlp_b))
    assert_same_bytes(trace_a, trace_b)


@pytest.mark.parametrize("with_prior", [False, True], ids=["no_prior", "prior"])
def test_predict_dataset(twins, prior, with_prior):
    outs = [
        predict_dataset(
            bundle,
            prior=prior if with_prior else None,
            policy=EscalationPolicy(tau=0.2, top_k=5),
        )
        for bundle in twins
    ]
    assert_same_bytes(outs[0].aggregated, outs[1].aggregated)
    results = [out.results for out in outs]
    assert results[0].ids.tolist() == results[1].ids.tolist()
    for name in ("class_id", "pre_escalation_class_id", "confidence"):
        assert_same_bytes(getattr(results[0], name), getattr(results[1], name))
