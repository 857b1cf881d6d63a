import math
import struct
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venomguard.data_model import (
    FeatureMatrix,
    read_records,
    write_records,
)
from venomguard.errors import BundleValidationError, FormatError
from venomguard.gradcheck import check_loc_loss
from venomguard.linalg_pca import PcaModel, fit_pca, load_pca, pca_transform, save_pca
from venomguard.prior_model import (
    BalancedSampler,
    PriorArtifact,
    PriorMlp,
    PriorTrainConfig,
    PrototypeMatrix,
    _backward,
    _forward,
    _sigmoid,
    compute_prototypes,
    draw_masks,
    feature_bounds,
    fit_prior,
    loc_loss_batch,
    pack_params,
    prior_scores,
    prototype_inputs,
    save_prior,
    load_prior,
    train_prior,
    training_pairs,
)
from venomguard.synthetic import SynthConfig, generate

from conftest import with_columns
from oracles import reference_train_prior


def zero_mlp(d_in=2, hidden=3, d_out=2):
    model = PriorMlp.create(d_in, hidden, d_out, seed=0)
    for name in ("w1", "b1", "w2", "b2", "w3", "b3"):
        setattr(model, name, np.zeros_like(getattr(model, name)))
    return model


def one_pair_loss(model, x, r, proto, y, lam, masks=None):
    """``loc_loss_batch`` on one (observed, random) location pair."""
    return loc_loss_batch(
        model, x.reshape(1, -1), r.reshape(1, -1), np.array([y]), proto, lam, masks
    )


def make_artifact(seed=15):
    """A 6 -> 3 PCA, a 3-5-4 network and 8 classes, with raw metadata rows."""
    rng = np.random.default_rng(seed)
    raw = FeatureMatrix(rng.standard_normal((30, 6)))
    pca = fit_pca(raw, k=3)
    mlp = PriorMlp.create(3, 5, 4, seed=seed)
    proto = PrototypeMatrix(rng.standard_normal((4, 8)))
    return PriorArtifact(mlp=mlp, prototypes=proto, pca=pca), raw


class TestMlp:
    def test_create_shapes(self):
        model = PriorMlp.create(4, 8, 6, seed=1)
        assert model.w1.shape == (8, 4)
        assert model.w2.shape == (8, 8)
        assert model.w3.shape == (6, 8)
        # the model is its weights; training state lives in train_prior
        assert [f.name for f in fields(PriorMlp)] == ["w1", "b1", "w2", "b2", "w3", "b3"]

    def test_create_is_seed_deterministic(self):
        a = PriorMlp.create(3, 5, 4, seed=9)
        b = PriorMlp.create(3, 5, 4, seed=9)
        assert np.array_equal(pack_params(a), pack_params(b))
        c = PriorMlp.create(3, 5, 4, seed=10)
        assert not np.array_equal(pack_params(a), pack_params(c))

    def test_zero_model_outputs_zero(self):
        model = zero_mlp()
        # identity prototypes: the scores are the network's output itself
        out = prior_scores(model, np.array([[0.3, -0.7]]), PrototypeMatrix(np.eye(2)))
        assert np.array_equal(out, np.zeros((1, 2)))

    def test_eval_mode_is_deterministic_despite_dropout(self):
        model = PriorMlp.create(3, 6, 4, seed=2)
        x = np.array([[0.1, 0.2, 0.3], [0.4, -0.5, 0.6]])
        proto = PrototypeMatrix(np.eye(4))
        scores = prior_scores(model, x, proto)
        assert np.array_equal(scores, prior_scores(model, x, proto))
        # scoring is the forward pass with every unit kept
        emb, _ = _forward(model, x, np.ones((2, 2, 6)))
        assert np.array_equal(scores, emb @ proto.matrix)

    def test_train_mode_consumes_mask_stream(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert np.array_equal(draw_masks(a, 0.5, 1, 16), draw_masks(b, 0.5, 1, 16))
        # Repeated draws advance the stream, so masks generally differ.
        outs = {draw_masks(a, 0.5, 1, 16).tobytes() for _ in range(8)}
        assert len(outs) > 1

    def test_dropout_masks_scale_by_keep_probability(self):
        masks = draw_masks(np.random.default_rng(4), 0.3, 10, 50)
        assert masks.shape == (4, 10, 50)
        keep = 1.0 - 0.3
        for m in masks:
            near_zero = np.isclose(m, 0.0)
            near_scaled = np.isclose(m, 1.0 / keep)
            assert np.all(near_zero | near_scaled)
            assert near_zero.any() and near_scaled.any()

    def test_one_mask_draw_equals_four_sequential_draws(self):
        rng = np.random.default_rng(5)
        expected = np.stack([(rng.random((6, 7)) < 0.6) / 0.6 for _ in range(4)])
        masks = draw_masks(np.random.default_rng(5), 0.4, 6, 7)
        assert np.array_equal(masks, expected)

    def test_invalid_inputs_rejected(self):
        model = PriorMlp.create(3, 4, 2, seed=0)
        with pytest.raises(ValueError):
            prior_scores(model, np.zeros((1, 5)), PrototypeMatrix(np.eye(2)))
        with pytest.raises(ValueError, match="dropout_rate"):
            PriorTrainConfig(dropout_rate=1.0)


class TestPrototypes:
    def test_single_row_normalizes_to_unit(self):
        feats = FeatureMatrix(np.array([[3.0, 4.0]]))
        proto = compute_prototypes(feats, np.array([0]), 1)
        assert np.allclose(proto.matrix[:, 0], [0.6, 0.8], atol=1e-12)

    def test_cancelling_rows_warn_and_zero_column(self):
        feats = FeatureMatrix(np.array([[1.0, -2.0], [-1.0, 2.0]]))
        with pytest.warns(UserWarning, match="zero prototype"):
            proto = compute_prototypes(feats, np.array([0, 0]), 1)
        assert np.array_equal(proto.matrix[:, 0], np.zeros(2))

    def test_missing_class_warns(self):
        feats = FeatureMatrix(np.array([[1.0, 0.0]]))
        with pytest.warns(UserWarning):
            proto = compute_prototypes(feats, np.array([0]), 3)
        assert np.array_equal(proto.matrix[:, 1], np.zeros(2))

    def test_columns_are_unit_norm(self):
        rng = np.random.default_rng(5)
        feats = FeatureMatrix(rng.standard_normal((40, 6)))
        labels = rng.integers(0, 4, size=40)
        proto = compute_prototypes(feats, labels, 4)
        norms = np.linalg.norm(proto.matrix, axis=0)
        assert np.allclose(norms, 1.0, atol=1e-9)

    def test_label_validation(self):
        feats = FeatureMatrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            compute_prototypes(feats, np.array([0]), 2)
        with pytest.raises(ValueError):
            compute_prototypes(feats, np.array([0, 5]), 2)


    def test_inputs_skip_unlabeled_rows_and_prefer_embeddings(self, tiny_bundle):
        feats, labels = prototype_inputs(tiny_bundle)
        assert np.array_equal(feats.values, tiny_bundle.image_scores.values)
        assert labels.tolist() == [0, 0, 1, 3]

        embeddings = FeatureMatrix(np.arange(8.0).reshape(4, 2))
        bundle = replace(
            with_columns(tiny_bundle, image_index=[3, 2, 1, 0], class_id=[0, 0, -1, 3]),
            embeddings=embeddings,
        )
        feats, labels = prototype_inputs(bundle)
        assert np.array_equal(feats.values, embeddings.values[[3, 2, 0]])
        assert labels.tolist() == [0, 0, 3]

    def test_inputs_need_a_labeled_row(self, tiny_bundle):
        bundle = with_columns(tiny_bundle, class_id=[-1, -1, -1, -1])
        with pytest.raises(BundleValidationError, match="no labeled"):
            prototype_inputs(bundle)

class TestLocLoss:
    def test_zero_model_single_class_hand_value(self):
        model = zero_mlp(d_in=2, hidden=3, d_out=2)
        proto = PrototypeMatrix(np.array([[1.0], [0.0]]))
        value, _ = one_pair_loss(model, np.zeros(2), np.zeros(2), proto, 0, lam=1.0)
        assert value == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_strong_negatives_drive_loss_to_zero_when_lam_zero(self):
        model = zero_mlp(d_in=2, hidden=3, d_out=2)
        model.b3 = np.full(2, -40.0)
        proto = PrototypeMatrix(np.eye(2))
        value, _ = one_pair_loss(model, np.zeros(2), np.zeros(2), proto, 0, lam=0.0)
        assert 0.0 <= value < 1e-10

    def test_value_increases_with_lambda(self):
        model = PriorMlp.create(3, 5, 4, seed=6)
        proto = PrototypeMatrix(np.random.default_rng(6).standard_normal((4, 3)))
        x = np.array([0.2, 0.8, -0.1])
        r = np.array([0.5, 0.5, 0.5])
        v1, _ = one_pair_loss(model, x, r, proto, 1, lam=1.0)
        v2, _ = one_pair_loss(model, x, r, proto, 1, lam=2.0)
        assert v2 >= v1

    def test_value_non_negative(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            model = PriorMlp.create(3, 4, 3, seed=int(rng.integers(1e6)))
            proto = PrototypeMatrix(rng.standard_normal((3, 4)))
            x, r = rng.standard_normal(3), rng.standard_normal(3)
            y = int(rng.integers(4))
            assert one_pair_loss(model, x, r, proto, y, lam=10.0)[0] >= 0.0

    def test_batch_equals_mean_of_singles(self):
        rng = np.random.default_rng(8)
        model = PriorMlp.create(4, 5, 3, seed=11)
        proto = PrototypeMatrix(rng.standard_normal((3, 5)))
        xs = rng.standard_normal((6, 4))
        rs = rng.standard_normal((6, 4))
        ys = rng.integers(0, 5, size=6)
        value, grads = loc_loss_batch(model, xs, rs, ys, proto, lam=3.0)
        singles = [
            one_pair_loss(model, xs[i], rs[i], proto, int(ys[i]), lam=3.0)
            for i in range(6)
        ]
        assert value == pytest.approx(np.mean([v for v, _ in singles]), abs=1e-12)
        assert grads.shape == pack_params(model).shape
        assert np.allclose(grads, np.mean([g for _, g in singles], axis=0), atol=1e-12)

    def test_stacked_batch_matches_separate_passes(self):
        rng = np.random.default_rng(16)
        model = PriorMlp.create(4, 9, 3, seed=17)
        proto = PrototypeMatrix(rng.standard_normal((3, 6)))
        xs, rs = rng.standard_normal((8, 4)), rng.standard_normal((8, 4))
        ys = rng.integers(0, 6, size=8)
        masks = draw_masks(rng, 0.3, 8, 9)
        lam, rows = 4.0, np.arange(8)
        # reference: one forward/backward for the observed rows, one for the
        # random rows, gradients added
        ex, cache_x = _forward(model, xs, masks[:2])
        er, cache_r = _forward(model, rs, masks[2:])
        su, sv = _sigmoid(ex @ proto.matrix), _sigmoid(er @ proto.matrix)
        neg = np.log(np.clip(1.0 - su, 1e-12, 1.0 - 1e-12))
        neg[rows, ys] = 0.0
        value = (
            -lam * np.log(np.clip(su[rows, ys], 1e-12, 1.0 - 1e-12)).sum()
            - neg.sum()
            - np.log(np.clip(1.0 - sv, 1e-12, 1.0 - 1e-12)).sum()
        ) / 8
        du = su.copy()
        du[rows, ys] = -lam * (1.0 - su[rows, ys])
        grad = _backward(model, cache_x, du @ proto.matrix.T / 8) + _backward(
            model, cache_r, sv @ proto.matrix.T / 8
        )
        result, grads = loc_loss_batch(model, xs, rs, ys, proto, lam, masks)
        assert result == pytest.approx(value, abs=1e-12)
        assert np.allclose(grads, grad)

    def test_sigmoid_matches_two_branch_form_bit_for_bit(self):
        u = np.concatenate([
            np.random.default_rng(18).normal(0.0, 20.0, 1000),
            [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.0, -745.0, 1000.0, -1000.0],
        ])
        expected = np.empty_like(u)
        pos = u >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
        eu = np.exp(u[~pos])
        expected[~pos] = eu / (1.0 + eu)
        out = _sigmoid(u)
        assert np.array_equal(out, expected)
        assert np.all(np.isfinite(out))
        assert _sigmoid(np.array([1000.0, -1000.0])).tolist() == [1.0, 0.0]

    def test_class_out_of_range_rejected(self):
        model = zero_mlp()
        proto = PrototypeMatrix(np.ones((2, 3)))
        # a negative label would otherwise index from the end
        for y in (3, -1):
            with pytest.raises(ValueError, match="outside"):
                one_pair_loss(model, np.zeros(2), np.zeros(2), proto, y, lam=1.0)

    def test_gradients_match_finite_differences(self):
        result = check_loc_loss(trials=5, seed=42)
        assert result.passed, f"max relative error {result.max_rel_err}"


class TestSampling:
    def test_bounds_cover_feature_range(self):
        x = np.array([[0.0, 5.0], [1.0, 2.0], [0.5, 3.0]])
        lo, hi = feature_bounds(x)
        assert lo.tolist() == [0.0, 2.0]
        assert hi.tolist() == [1.0, 5.0]

    def test_balanced_sampler_ignores_class_frequency(self):
        labels = np.array([0] * 9 + [1])
        draws = BalancedSampler(labels, np.random.default_rng(11), 2).draw(1000)
        freq_rare = np.mean(labels[draws] == 1)
        assert freq_rare == pytest.approx(0.5, abs=0.05)

    def test_every_class_appears_quickly(self):
        labels = np.repeat(np.arange(8), 5)
        sampler = BalancedSampler(labels, np.random.default_rng(12), 8)
        seen = set(labels[sampler.draw(8 * 20)].tolist())
        assert seen == set(range(8))

    def test_empty_class_rejected_up_front(self):
        with pytest.raises(BundleValidationError, match=r"no labeled observation: \[1\]"):
            BalancedSampler(np.array([0, 0, 2]), np.random.default_rng(0), n_classes=3)


class TestTraining:
    def small_data(self, seed=21):
        gen = generate(
            SynthConfig(
                seed=seed,
                n_classes=5,
                n_observations=80,
                dims_meta=4,
                dims_proto=6,
                imbalance_ratio=4.0,
            )
        )
        bundle = gen.bundle
        labels = np.array([r.class_id for r in bundle.observations.labeled_rows()])
        proto = compute_prototypes(bundle.embeddings, labels, 5)
        return bundle, proto

    def test_training_pairs_one_per_observation(self, tiny_bundle):
        xs, ys = training_pairs(tiny_bundle)
        assert xs.shape == (3, 3)
        assert ys.tolist() == [0, 1, 3]

    def test_zero_epochs_returns_untouched_init(self):
        bundle, proto = self.small_data()
        cfg = PriorTrainConfig(epochs=0, seed=5)
        model, trace = train_prior(bundle, proto, cfg)
        assert trace == []
        fresh_seed = int(np.random.SeedSequence(5).generate_state(3)[0])
        fresh = PriorMlp.create(4, cfg.hidden, 6, seed=fresh_seed)
        assert np.array_equal(pack_params(model), pack_params(fresh))

    def test_training_reduces_loss(self):
        bundle, proto = self.small_data()
        cfg = PriorTrainConfig(
            epochs=8, batch_size=32, hidden=16, seed=3, base_lr=5e-3, warmup_lr=5e-5
        )
        _, trace = train_prior(bundle, proto, cfg)
        assert len(trace) == 8
        assert trace[-1] < trace[0]

    def test_training_is_seed_deterministic(self):
        bundle, proto = self.small_data()
        cfg = PriorTrainConfig(epochs=2, batch_size=32, hidden=8, seed=7)
        a, trace_a = train_prior(bundle, proto, cfg)
        b, trace_b = train_prior(bundle, proto, cfg)
        assert np.array_equal(pack_params(a), pack_params(b))
        assert trace_a == trace_b

    @pytest.mark.parametrize("dropout", [0.3, 0.0])
    @pytest.mark.parametrize(
        "seed, hidden, batch_size",
        [
            # 80 observations in batches of 24: the last batch of an epoch wraps
            pytest.param(3, 16, 24, id="3"),
            pytest.param(11, 16, 24, id="11"),
            # the CLI's default width and batch size
            pytest.param(3, 256, 256, id="cli-width"),
        ],
    )
    def test_matches_plain_step_byte_for_byte(self, seed, hidden, batch_size, dropout):
        bundle, proto = self.small_data()
        cfg = PriorTrainConfig(epochs=4, batch_size=batch_size, hidden=hidden, seed=seed,
                               dropout_rate=dropout, base_lr=5e-3, warmup_lr=5e-5)
        model, trace = train_prior(bundle, proto, cfg)
        params, expected_trace = reference_train_prior(bundle, proto, cfg)
        assert pack_params(model).tobytes() == params.tobytes()
        assert trace == expected_trace

    @pytest.mark.parametrize("dropout", [0.3, 0.0])
    def test_fit_prior_matches_the_hand_chain(self, dropout):
        bundle, _ = self.small_data()
        cfg = PriorTrainConfig(epochs=3, batch_size=24, hidden=16, seed=5,
                               dropout_rate=dropout, base_lr=5e-3, warmup_lr=5e-5)
        artifact, trace = fit_prior(bundle, fit_pca(bundle.metadata_features, 3), cfg)

        pca = fit_pca(bundle.metadata_features, 3)
        proto = compute_prototypes(*prototype_inputs(bundle), bundle.classes.n_classes)
        reduced = pca_transform(pca, bundle.metadata_features)
        mlp, expected_trace = train_prior(
            replace(bundle, metadata_features=reduced), proto, cfg
        )
        assert pack_params(artifact.mlp).tobytes() == pack_params(mlp).tobytes()
        assert artifact.prototypes.matrix.tobytes() == proto.matrix.tobytes()
        for field in ("mean", "components", "eigenvalues"):
            assert getattr(artifact.pca, field).tobytes() == getattr(pca, field).tobytes()
        assert trace == expected_trace

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PriorTrainConfig(lam=-1.0)
        with pytest.raises(ValueError):
            PriorTrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            PriorTrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="hidden"):
            PriorTrainConfig(hidden=0)
        with pytest.raises(ValueError, match="dropout_rate"):
            PriorTrainConfig(dropout_rate=-0.1)
        for name in (
            "lam", "base_lr", "warmup_lr", "final_lr", "weight_decay", "beta1", "beta2", "eps"
        ):
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    PriorTrainConfig(**{name: bad})


class TestScoresAndArtifact:
    def test_zero_model_scores_zero(self):
        model = zero_mlp(d_in=2, hidden=3, d_out=4)
        proto = PrototypeMatrix(np.random.default_rng(1).standard_normal((4, 6)))
        assert np.array_equal(prior_scores(model, np.zeros((3, 2)), proto), np.zeros((3, 6)))

    def test_scores_are_embedding_prototype_dots(self):
        model = PriorMlp.create(3, 5, 4, seed=14)
        proto = PrototypeMatrix(np.random.default_rng(14).standard_normal((4, 7)))
        x = np.array([[0.4, -0.6, 0.2], [-1.0, 0.3, 0.8]])
        emb, _ = _forward(model, x)
        expected = [[e @ proto.matrix[:, c] for c in range(7)] for e in emb]
        assert np.allclose(prior_scores(model, x, proto), expected, atol=1e-12)

    def test_save_load_round_trip(self, tmp_path):
        artifact, raw = make_artifact()
        path = tmp_path / "prior.bin"
        save_prior(artifact, path)
        assert [p.name for p in tmp_path.iterdir()] == ["prior.bin"]
        loaded = load_prior(path)
        assert loaded.prototypes.n_classes == 8
        # Storage quantizes to single precision.
        assert np.allclose(
            pack_params(loaded.mlp), pack_params(artifact.mlp), atol=1e-6
        )
        a, b = (
            prior_scores(p.mlp, pca_transform(p.pca, raw).values, p.prototypes)
            for p in (artifact, loaded)
        )
        assert np.allclose(a, b, atol=1e-4)

    def test_load_rejects_pca_dimension_mismatch(self, tmp_path):
        artifact, _ = make_artifact()
        # Corrupt the stored model by truncating one record's width.
        artifact.mlp.w1 = artifact.mlp.w1[:, :-1]
        save_prior(artifact, tmp_path / "prior2.bin")
        with pytest.raises(FormatError, match="pca"):
            load_prior(tmp_path / "prior2.bin")

    @pytest.mark.parametrize(
        "record, shape, problem",
        [
            pytest.param(3, (7, 4), "layer 1 record is 7x4, expected 5x4", id="hidden"),
            pytest.param(5, (5, 6), "prototypes record is 4x8, expected 5x8", id="d_out"),
            pytest.param(6, (8, 4), "prototypes record is 8x4, expected 4x4", id="n_classes"),
            pytest.param(1, (3, 4), "pca mean record is 1x6, expected 1x4", id="pca_d"),
            pytest.param(1, (2, 6), "pca eigenvalues record is 1x3, expected 1x2", id="pca_k"),
            pytest.param(0, (1, 7), "pca mean record is 1x7, expected 1x6", id="pca_mean"),
            pytest.param(
                2, (1, 2), "pca eigenvalues record is 1x2, expected 1x3", id="pca_eigenvalues"
            ),
        ],
    )
    def test_chain_breaks_are_format_errors(self, tmp_path, record, shape, problem):
        artifact, _ = make_artifact()
        path = tmp_path / "prior.bin"
        save_prior(artifact, path)
        records = read_records(path, 7)
        records[record] = FeatureMatrix(np.ones(shape))
        write_records(path, records)
        with pytest.raises(FormatError, match=problem):
            load_prior(path)

    @pytest.mark.parametrize(
        "layer, shape",
        [("w2", (5, 4)), ("w3", (4, 4)), ("prototypes", (5, 8))],
    )
    def test_record_widths_that_disagree_are_format_errors(self, tmp_path, layer, shape):
        artifact, _ = make_artifact()
        if layer == "prototypes":
            artifact.prototypes = PrototypeMatrix(np.ones(shape))
        else:
            setattr(artifact.mlp, layer, np.ones(shape))
        path = tmp_path / "prior.bin"
        save_prior(artifact, path)
        with pytest.raises(FormatError, match="record is"):
            load_prior(path)


def _damage(blob: bytes, data) -> bytes:
    """One flipped byte, a truncation, or a rewritten 16-byte record header."""
    kind = data.draw(st.sampled_from(["flip", "truncate", "header"]))
    if kind == "flip":
        at = data.draw(st.integers(0, len(blob) - 1))
        return blob[:at] + bytes([blob[at] ^ data.draw(st.integers(1, 255))]) + blob[at + 1 :]
    if kind == "truncate":
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    # record headers sit at the file start and after each record's payload
    starts, at = [], 0
    while at < len(blob):
        starts.append(at)
        rows, dims = struct.unpack_from("<QQ", blob, at + 4)
        at += 20 + 4 * rows * dims
    at = data.draw(st.sampled_from(starts)) + 4
    side = st.one_of(st.integers(0, 9), st.sampled_from([2**62, 2**63, 2**64 - 1]))
    header = struct.pack("<QQ", data.draw(side), data.draw(side))
    return blob[:at] + header + blob[at + 16 :]


class TestArtifactFuzz:
    """A damaged model file loads or raises FormatError, nothing else."""

    @settings(max_examples=300, deadline=None)
    @given(prior=st.booleans(), data=st.data())
    def test_damaged_artifacts_load_or_raise_format_error(
        self, tmp_path_factory, prior, data
    ):
        path = tmp_path_factory.mktemp("artifact") / "model.bin"
        artifact, _ = make_artifact()
        if prior:
            save_prior(artifact, path)
        else:
            save_pca(artifact.pca, path)
        path.write_bytes(_damage(path.read_bytes(), data))
        try:
            loaded = (load_prior if prior else load_pca)(path)
        except FormatError:
            return
        assert isinstance(loaded, PriorArtifact if prior else PcaModel)
