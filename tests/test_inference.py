import math
import tracemalloc
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.dtypes import StringDType

from conftest import WHITESPACE, constant_prior_artifact, location_dict, location_table
from venomguard import inference
from venomguard.data_model import FeatureMatrix, ObservationTable
from venomguard.errors import BundleValidationError, CsvParseError
from venomguard.inference import (
    EscalationPolicy,
    PredictionResult,
    Predictions,
    _escalate_rows,
    _joint_rows,
    _warn_fallbacks,
    predict_dataset,
    read_predictions_csv,
    softmax,
    write_predictions_csv,
)
from venomguard.linalg_pca import fit_pca, pca_transform
from venomguard.prior_model import (
    PriorArtifact,
    PriorMlp,
    PrototypeMatrix,
    prior_scores,
)
from venomguard.synthetic import SynthConfig, generate

from oracles import blocked_escalate, oracle_predict, reference_escalate


@st.composite
def prob_batches(draw):
    """(n, C) image probabilities, rows summing to 1, and (n, C) prior logits."""
    n = draw(st.integers(1, 6))
    c = draw(st.integers(2, 8))
    raw = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=n * c, max_size=n * c)))
    probs = raw.reshape(n, c)
    probs /= probs.sum(axis=1, keepdims=True)
    prior = draw(st.lists(st.floats(-10, 10), min_size=n * c, max_size=n * c))
    return probs, np.array(prior).reshape(n, c)


logits = st.lists(st.floats(-30, 30), min_size=2, max_size=8).map(
    lambda xs: np.array(xs, dtype=float)
)


def joint(probs, prior_logits):
    """_joint_rows on (n, C) image probabilities and (n, C) prior logits."""
    return _joint_rows(np.asarray(probs, dtype=float), softmax(prior_logits))


class TestSoftmax:
    def test_two_equal_logits_split_evenly(self):
        assert softmax(np.array([0.0, 0.0])).tolist() == [0.5, 0.5]

    def test_large_logits_do_not_overflow(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        z = np.array([1.0, 2.0, 3.0])
        direct = np.exp(z) / np.exp(z).sum()
        assert np.allclose(softmax(z), direct, atol=1e-12)

    def test_non_finite_input_rejected(self):
        with pytest.raises(ValueError):
            softmax(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "+inf"])
    def test_nan_or_inf_in_any_row_rejected(self, bad):
        z = np.zeros((3, 4))
        z[1, 2] = bad
        with pytest.raises(ValueError, match="logits must be finite"):
            softmax(z)

    def test_minus_inf_gets_zero_unless_the_whole_row_is(self):
        out = softmax(np.array([[0.0, -np.inf, 0.0], [1.0, 2.0, 3.0]]))
        assert out[0].tolist() == [0.5, 0.0, 0.5]
        assert out[1].tobytes() == softmax(np.array([1.0, 2.0, 3.0])).tobytes()
        with pytest.raises(ValueError, match="logits must be finite"):
            softmax(np.array([[0.0, 1.0], [-np.inf, -np.inf]]))

    def test_out_may_be_the_input(self):
        z = np.random.default_rng(0).standard_normal((6, 5)) * 10
        before = z.copy()
        fresh = softmax(z)
        assert np.array_equal(z, before)
        assert softmax(z, out=z) is z
        assert z.tobytes() == fresh.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(z=logits)
    def test_output_is_a_distribution(self, z):
        out = softmax(z)
        assert np.all(out >= 0)
        assert out.sum() == pytest.approx(1.0, abs=1e-9)


class TestJointScores:
    def test_hand_case_flips_argmax(self):
        out, fallbacks = joint([[0.6, 0.4]], np.array([[0.0, math.log(3.0)]]))
        assert fallbacks == 0
        assert np.allclose(out, [[1.0 / 3.0, 2.0 / 3.0]], atol=1e-12)
        assert out.argmax(axis=1).tolist() == [1]

    def test_uniform_prior_changes_nothing(self):
        probs = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
        out, _ = joint(probs, np.zeros((2, 3)))
        assert np.allclose(out, probs, atol=1e-12)

    def test_one_hot_image_scores_survive_any_prior(self):
        probs = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out, _ = joint(probs, np.array([[5.0, -3.0, 2.0], [-1.0, 4.0, 0.5]]))
        assert np.allclose(out, probs, atol=1e-12)

    def test_vanishing_product_falls_back_with_warning(self):
        # An extreme prior underflows to exactly zero on row 0's only
        # supported class; row 1 keeps some joint mass.
        probs = np.array([[0.0, 1.0], [0.5, 0.5]])
        out, fallbacks = joint(probs, np.array([[1000.0, -1000.0], [0.0, 0.0]]))
        assert fallbacks == 1
        assert np.array_equal(out[0], probs[0])
        assert np.allclose(out[1], [0.5, 0.5], atol=1e-12)
        with pytest.warns(UserWarning, match="falling back"):
            _warn_fallbacks(fallbacks, 2)

    @settings(max_examples=50, deadline=None)
    @given(batch=prob_batches())
    def test_output_is_normalized(self, batch):
        probs, prior = batch
        out, _ = joint(probs, prior)
        assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(out >= 0)


def aggregated_one_observation(bundle, logits):
    """predict_dataset's aggregated row for one observation whose images score logits."""
    logits = np.asarray(logits)
    n = len(logits)
    one = replace(
        bundle,
        observations=ObservationTable.from_columns(["obs"] * n, range(n), [0] * n, ["loc_0"] * n),
        image_scores=FeatureMatrix(logits),
    )
    out = predict_dataset(one)
    assert out.aggregated.shape == (1, logits.shape[1])
    return out.aggregated[0]


class TestAggregate:
    def test_single_row_identity(self, tiny_bundle):
        row = np.array([[0.5, 2.0, -1.0, 0.0, 3.5]])
        assert np.array_equal(aggregated_one_observation(tiny_bundle, row), softmax(row)[0])

    def test_two_rows_average(self, tiny_bundle):
        # a logit of -1000 is a probability of exactly 0
        rows = np.where(np.eye(5)[:2] == 1.0, 0.0, -1000.0)
        assert np.array_equal(
            aggregated_one_observation(tiny_bundle, rows), [0.5, 0.5, 0.0, 0.0, 0.0]
        )

    def test_sums_rows_in_file_order(self, tiny_bundle, monkeypatch):
        # observations of 1, 2, 9 and 100 images, their rows shuffled
        # together and split over blocks of 7 rows
        rng = np.random.default_rng(4)
        sizes = {"obs_d": 1, "obs_c": 2, "obs_b": 9, "obs_a": 100}
        owners = rng.permutation([obs for obs, n in sizes.items() for _ in range(n)])
        n = owners.size
        scores = rng.normal(0.0, 2.0, (n, 5))
        bundle = replace(
            tiny_bundle,
            observations=ObservationTable.from_columns(owners, range(n), [0] * n, ["loc_0"] * n),
            image_scores=FeatureMatrix(scores),
        )
        monkeypatch.setattr(inference, "_BLOCK_ROWS", 7)
        aggregated = predict_dataset(bundle).aggregated
        probs = softmax(scores).tolist()

        def mean_in_order(order):
            expected = []
            for obs in sorted(sizes):
                sums = [0.0] * 5
                for owner, image in order:
                    if owner == obs:
                        sums = [a + b for a, b in zip(sums, probs[image])]
                expected.append([v / sizes[obs] for v in sums])
            return np.array(expected)

        rows = list(zip(owners.tolist(), range(n)))
        assert aggregated.tobytes() == mean_in_order(rows).tobytes()
        # the sums depend on their order, so file order is what is checked
        assert aggregated.tobytes() != mean_in_order(rows[::-1]).tobytes()

    def test_permutation_invariant(self, tiny_bundle):
        rng = np.random.default_rng(0)
        rows = rng.normal(0.0, 2.0, (5, 5))
        shuffled = rows[rng.permutation(5)]
        assert np.allclose(
            aggregated_one_observation(tiny_bundle, rows),
            aggregated_one_observation(tiny_bundle, shuffled),
            atol=1e-12,
        )


def escalate(rows, classes, policy):
    """_escalate_rows on (n, C) probabilities, from their argmax."""
    rows = np.asarray(rows, dtype=float)
    return _escalate_rows(rows, rows.argmax(axis=1), classes.venomous_flags, policy)


class TestEscalation:
    def test_confident_argmax_stands(self, five_classes):
        rows = [[0.9, 0.05, 0.03, 0.01, 0.01]]
        policy = EscalationPolicy(tau=0.5, top_k=5)
        assert escalate(rows, five_classes, policy).tolist() == [0]

    def test_uncertain_row_escalates_to_best_venomous(self, five_classes):
        # classes 1 and 3 are venomous; 0.30 < tau picks the 0.25 venomous entry
        rows = [[0.30, 0.25, 0.20, 0.15, 0.10]]
        policy = EscalationPolicy(tau=0.5, top_k=5)
        assert escalate(rows, five_classes, policy).tolist() == [1]

    def test_no_venomous_in_top_k_keeps_argmax(self, five_classes):
        rows = [[0.4, 0.05, 0.35, 0.05, 0.15]]
        policy = EscalationPolicy(tau=0.5, top_k=2)
        # top-2 are classes 0 and 2, both harmless
        assert escalate(rows, five_classes, policy).tolist() == [0]

    def test_tau_zero_is_identity(self, five_classes):
        rows = np.random.default_rng(1).dirichlet(np.ones(5), size=50)
        policy = EscalationPolicy(tau=0.0, top_k=5)
        assert np.array_equal(escalate(rows, five_classes, policy), rows.argmax(axis=1))

    def test_score_ties_resolve_to_lower_id(self, five_classes):
        rows = [[0.3, 0.175, 0.175, 0.175, 0.175]]
        policy = EscalationPolicy(tau=0.5, top_k=5)
        # venomous classes 1 and 3 tie; lower id wins
        assert escalate(rows, five_classes, policy).tolist() == [1]

    def test_top_k_larger_than_classes_is_clipped(self, five_classes):
        rows = [[0.25, 0.05, 0.25, 0.2, 0.25]]
        policy = EscalationPolicy(tau=0.9, top_k=50)
        assert escalate(rows, five_classes, policy).tolist() == [3]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            EscalationPolicy(tau=1.5)
        with pytest.raises(ValueError):
            EscalationPolicy(top_k=0)

    def test_never_downgrades_a_venomous_argmax(self, five_classes):
        rows = np.random.default_rng(2).dirichlet(np.ones(5), size=200)
        policy = EscalationPolicy(tau=0.6, top_k=5)
        flags = five_classes.venomous_flags
        final = escalate(rows, five_classes, policy)
        assert np.all(flags[final[flags[rows.argmax(axis=1)]]])

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference_with_ties_at_the_kth_place(self, data):
        # scores from a few values, so that ties fall at the k-th place
        n_rows = data.draw(st.integers(1, 10))
        n_classes = data.draw(st.integers(1, 7))
        values = st.sampled_from([0.0, 0.125, 0.25, 0.5])
        rows = data.draw(st.lists(
            st.lists(values, min_size=n_classes, max_size=n_classes),
            min_size=n_rows, max_size=n_rows,
        ))
        flags = data.draw(st.lists(st.booleans(), min_size=n_classes, max_size=n_classes))
        top_k = data.draw(st.integers(1, n_classes + 2))
        tau = data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        agg = np.array(rows)
        base = agg.argmax(axis=1)
        policy = EscalationPolicy(tau=tau, top_k=top_k)
        with pytest.MonkeyPatch.context() as patch:
            # uncertain rows span several blocks
            patch.setattr(inference, "_BLOCK_ROWS", 3)
            final = _escalate_rows(agg, base, np.array(flags), policy)
        expected = reference_escalate(rows, base.tolist(), flags, tau, top_k)
        assert np.array_equal(final, expected)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_rank_rule_matches_blocked_selection(self, data):
        # scores on five integer levels, so that ties are common at every
        # place; no venomous class and top-k >= C are both drawn
        n_rows = data.draw(st.integers(0, 40))
        n_classes = data.draw(st.integers(1, 9))
        levels = data.draw(st.lists(
            st.integers(0, 4), min_size=n_rows * n_classes, max_size=n_rows * n_classes
        ))
        agg = np.array(levels, dtype=float).reshape(n_rows, n_classes) / 4
        flags = np.array(data.draw(st.one_of(
            st.just([False] * n_classes),
            st.lists(st.booleans(), min_size=n_classes, max_size=n_classes),
        )), dtype=bool)
        top_k = data.draw(st.integers(1, n_classes + 2))
        tau = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        base = agg.argmax(axis=1)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(inference, "_BLOCK_ROWS", 7)
            final = _escalate_rows(agg, base, flags, EscalationPolicy(tau=tau, top_k=top_k))
        assert np.array_equal(final, blocked_escalate(agg, base, flags, tau, top_k))

    @pytest.mark.parametrize("top_k", [1, 5, 50, 80])
    def test_rank_rule_matches_blocked_selection_on_many_rows(self, top_k):
        rng = np.random.default_rng(top_k)
        # every row scores below tau, so every row is uncertain
        agg = rng.integers(0, 6, size=(20_000, 50)) / 10
        base = agg.argmax(axis=1)
        for flags in (rng.random(50) < 0.3, np.zeros(50, dtype=bool)):
            final = _escalate_rows(agg, base, flags, EscalationPolicy(tau=1.0, top_k=top_k))
            assert np.array_equal(final, blocked_escalate(agg, base, flags, 1.0, top_k))
        assert np.count_nonzero(final != base) == 0  # no venomous class: nothing moves

    def test_only_fires_below_tau(self, five_classes):
        rows = np.random.default_rng(3).dirichlet(np.ones(5), size=200)
        policy = EscalationPolicy(tau=0.4, top_k=5)
        final = escalate(rows, five_classes, policy)
        confident = rows.max(axis=1) >= 0.4
        assert np.array_equal(final[confident], rows.argmax(axis=1)[confident])


def class_zero_prior(bundle):
    """A prior that puts all its weight on class 0 at every location."""
    prior = constant_prior_artifact(bundle)
    prior.mlp.b3 = np.ones_like(prior.mlp.b3)
    proto = np.full(prior.prototypes.matrix.shape, -200.0)
    proto[:, 0] = 200.0
    prior.prototypes = PrototypeMatrix(proto)
    return prior


def random_prior(bundle):
    """An untrained prior over PCA-8 metadata, for shape and memory checks."""
    n_classes = bundle.classes.n_classes
    pca = fit_pca(bundle.metadata_features, k=8)
    proto = np.random.default_rng(0).standard_normal((16, n_classes))
    mlp = PriorMlp.create(8, 64, 16, seed=0)
    return PriorArtifact(mlp=mlp, prototypes=PrototypeMatrix(proto), pca=pca)


class TestPredictDataset:
    def test_argmax_of_averaged_softmax_without_prior(self, tiny_bundle):
        out = predict_dataset(
            tiny_bundle, policy=EscalationPolicy(tau=0.0, top_k=5)
        )
        ids = {r.observation_id: r.class_id for r in out.results}
        # obs_a averages two rows that both favor class 0
        assert ids == {"obs_a": 0, "obs_b": 1, "obs_c": 3}
        assert [r.observation_id for r in out.results] == ["obs_a", "obs_b", "obs_c"]

    def test_intermediates_align_with_rows_and_results(self, tiny_bundle):
        out = predict_dataset(tiny_bundle)
        obs = tiny_bundle.observations
        results = out.results
        assert out.aggregated.shape == (len(results), 5)
        assert results.ids.tolist() == obs.ids.tolist()
        for column in (results.class_id, results.pre_escalation_class_id, results.confidence):
            assert column.shape == (len(results),)
        # each aggregated row is the mean of its observation's softmaxed image rows
        probs = softmax(tiny_bundle.image_scores.values[obs.image_index])
        for i in range(len(results)):
            assert np.array_equal(out.aggregated[i], probs[obs.group == i].mean(axis=0))
        for i, r in enumerate(results):
            assert out.aggregated[i].argmax() == r.pre_escalation_class_id
            assert r.confidence == pytest.approx(out.aggregated[i].max())

    def test_constant_prior_preserves_predictions(self, tiny_bundle):
        plain = predict_dataset(tiny_bundle)
        prior = constant_prior_artifact(tiny_bundle)
        primed = predict_dataset(tiny_bundle, prior=prior)
        assert [r.class_id for r in plain.results] == [
            r.class_id for r in primed.results
        ]
        assert np.allclose(plain.aggregated, primed.aggregated, atol=1e-12)

    def test_score_width_mismatch_rejected(self, tiny_bundle):
        from dataclasses import replace

        from venomguard.data_model import FeatureMatrix

        bad = replace(tiny_bundle, image_scores=FeatureMatrix(np.ones((4, 3))))
        with pytest.raises(ValueError, match="width"):
            predict_dataset(bad)

    def test_interleaved_rows_match_oracle(self, tiny_bundle):
        # obs_a's images are split by obs_b's; each sits at its own location
        observations = ObservationTable.from_columns(
            ["obs_a", "obs_b", "obs_a", "obs_c"],
            [0, 2, 1, 3],
            [0, 1, 0, 3],
            ["loc_0", "loc_1", "loc_2", "loc_2"],
        )
        bundle = replace(tiny_bundle, observations=observations)
        rng = np.random.default_rng(5)
        pca = fit_pca(bundle.metadata_features, k=2)
        mlp = PriorMlp.create(2, 8, 4, seed=5)
        proto = PrototypeMatrix(rng.standard_normal((4, 5)))
        artifact = PriorArtifact(mlp=mlp, prototypes=proto, pca=pca)
        reduced = pca_transform(pca, bundle.metadata_features).values
        prior_rows = prior_scores(mlp, reduced, proto).tolist()
        probs = softmax(bundle.image_scores.values[bundle.observations.image_index])
        metadata_rows = bundle.resolved_metadata_rows()
        locations = location_dict(bundle.locations)
        codes = observations.codes[observations.location].tolist()
        oracle_input = []
        for g, obs_id in enumerate(observations.ids.tolist()):
            rows = np.flatnonzero(observations.group == g)  # in file order
            oracle_input.append((
                obs_id,
                bundle.image_scores.values[observations.image_index[rows]].tolist(),
                [locations[codes[r]] for r in rows],
            ))
        flags = bundle.classes.venomous_flags.tolist()
        for prior, logits in ((None, None), (artifact, prior_rows)):
            for tau in (0.0, 0.5, 0.9):
                policy = EscalationPolicy(tau=tau, top_k=3)
                out = predict_dataset(bundle, prior=prior, policy=policy)
                expected = oracle_predict(
                    oracle_input, flags, tau=tau, top_k=3, prior_logits=logits
                )
                assert {r.observation_id: r.class_id for r in out.results} == expected
                # obs_a is the file-order mean of rows 0 and 2, each reweighted
                # by the prior of its own location
                combined = (
                    probs
                    if prior is None
                    else joint(probs, np.array(prior_rows)[metadata_rows])[0]
                )
                assert np.array_equal(out.aggregated[0], combined[[0, 2]].mean(axis=0))

    def test_vanishing_joint_row_falls_back_alone(self, tiny_bundle):
        # The prior puts all its weight on class 0; row 2 has no class-0 mass,
        # its logit of -1000 being a probability of exactly 0.
        scores = np.array(
            [
                [1.5, -1000.0, 0.0, -1000.0, -1000.0],
                [1.0, 0.0, -1000.0, -1000.0, -1000.0],
                [-1000.0, 0.5, 0.0, -1000.0, -1000.0],
                [0.0, 0.0, -1000.0, 1.5, -1000.0],
            ]
        )
        bundle = replace(tiny_bundle, image_scores=FeatureMatrix(scores))
        prior = class_zero_prior(bundle)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = predict_dataset(bundle, prior=prior)
        assert [str(w.message) for w in caught] == [
            "joint scores vanished on 1 of 4 rows; falling back to image scores"
        ]
        # obs_b is row 2 alone and keeps its image probabilities; obs_a (rows 0
        # and 1) and obs_c (row 3) take the prior's class 0
        assert np.array_equal(out.aggregated[1], softmax(scores)[2])
        for i in (0, 2):
            assert np.array_equal(out.aggregated[i], [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_results_sorted_by_observation_id(self, synth7):
        out = predict_dataset(synth7.bundle)
        ids = [r.observation_id for r in out.results]
        assert ids == sorted(ids)

    def test_results_iterate_as_rows_of_the_columns(self, tiny_bundle):
        results = predict_dataset(tiny_bundle, policy=EscalationPolicy(tau=0.9)).results
        assert len(results) == 3
        assert list(results) == [
            PredictionResult(obs_id, cls, pre, conf)
            for obs_id, cls, pre, conf in zip(
                results.ids.tolist(),
                results.class_id.tolist(),
                results.pre_escalation_class_id.tolist(),
                results.confidence.tolist(),
            )
        ]
        assert [type(v) for v in astuple(next(iter(results)))] == [str, int, int, float]

    @pytest.mark.parametrize("with_prior", [False, True])
    def test_peak_memory_stays_under_three_score_arrays(self, synth7, with_prior):
        # rows * C * 8 bytes is one float64 score array over the image rows;
        # the prior's reweighting needs two of them and the (locations, C)
        # weights, half of one here
        bundle = synth7.bundle
        n_classes = bundle.classes.n_classes
        prior = None
        if with_prior:
            pca = fit_pca(bundle.metadata_features, k=8)
            proto = np.random.default_rng(0).standard_normal((16, n_classes))
            mlp = PriorMlp.create(8, 64, 16, seed=0)
            prior = PriorArtifact(mlp=mlp, prototypes=PrototypeMatrix(proto), pca=pca)
        tracemalloc.start()
        try:
            predict_dataset(bundle, prior=prior)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_array = len(bundle.observations) * n_classes * 8
        assert peak < 3 * one_array


class TestBlockwisePass:
    """predict_dataset streams the image rows in blocks of _BLOCK_ROWS."""

    @pytest.fixture(scope="class")
    def scattered(self, synth7):
        """synth7 with its image rows shuffled: an observation's rows fall
        far apart, so small blocks split them."""
        obs = synth7.bundle.observations
        order = np.random.default_rng(0).permutation(len(obs))
        table = ObservationTable.from_columns(
            obs.ids[obs.group][order],
            obs.image_index[order],
            obs.class_id[order],
            obs.codes[obs.location][order],
        )
        return replace(synth7.bundle, observations=table)

    @pytest.mark.parametrize("with_prior", [False, True])
    @pytest.mark.parametrize("case", ["logits", "empty"])
    def test_block_size_changes_nothing(self, scattered, monkeypatch, case, with_prior):
        bundle = scattered
        if case == "empty":
            bundle = replace(bundle, observations=bundle.observations.take(
                np.zeros(len(bundle.observations), dtype=bool)))
        prior = random_prior(bundle) if with_prior else None
        outs = []
        for rows in (1, 3, 4096, len(bundle.observations) + 1):
            monkeypatch.setattr(inference, "_BLOCK_ROWS", rows)
            outs.append(predict_dataset(bundle, prior=prior))
        first = outs[0]
        assert len(first.results) == (0 if case == "empty" else 5000)
        for out in outs[1:]:
            for name in ("ids", "class_id", "pre_escalation_class_id", "confidence"):
                assert np.array_equal(getattr(out.results, name), getattr(first.results, name))
            assert np.array_equal(out.aggregated, first.aggregated)

    def test_fallbacks_in_two_blocks_warn_once_with_the_total(self, tiny_bundle, monkeypatch):
        # rows 0 and 3 have no class-0 mass (a logit of -1000); blocks of two
        # rows put them apart
        scores = np.array(
            [
                [-1000.0, 1.5, 0.0, -1000.0, -1000.0],
                [1.0, 0.0, -1000.0, -1000.0, -1000.0],
                [0.0, 0.5, 0.0, -1000.0, -1000.0],
                [-1000.0, 0.0, -1000.0, 1.5, -1000.0],
            ]
        )
        bundle = replace(tiny_bundle, image_scores=FeatureMatrix(scores))
        monkeypatch.setattr(inference, "_BLOCK_ROWS", 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = predict_dataset(bundle, prior=class_zero_prior(bundle))
        assert [str(w.message) for w in caught] == [
            "joint scores vanished on 2 of 4 rows; falling back to image scores"
        ]
        # obs_c is row 3 alone and keeps its image probabilities
        assert np.array_equal(out.aggregated[2], softmax(scores)[3])

    @pytest.mark.parametrize("with_prior", [False, True])
    def test_peak_memory_does_not_grow_with_images_per_observation(
        self, monkeypatch, with_prior
    ):
        # in (observations, C) float64 arrays, one location per observation:
        # the prior pass (hidden 64 > C) or escalation's sort of the uncertain
        # rows sets the peak, 3.1 arrays here; the image rows add one block
        monkeypatch.setattr(inference, "_BLOCK_ROWS", 256)
        peaks = []
        for images in ((1, 3), (2, 6)):
            bundle = generate(SynthConfig(seed=7, images_per_observation=images)).bundle
            prior = random_prior(bundle) if with_prior else None
            tracemalloc.start()
            try:
                predict_dataset(bundle, prior=prior)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak / (bundle.observations.ids.size * bundle.classes.n_classes * 8))
        assert max(peaks) < 3.5
        assert abs(peaks[1] / peaks[0] - 1.0) <= 0.10


class TestPriorPass:
    """The prior's weights come from row blocks of at least _PRIOR_BLOCK_ROWS
    locations, the last block taking the remainder."""

    @pytest.fixture(scope="class")
    def world(self):
        # 9000 locations: prior blocks of 4096 and 4904 rows
        return generate(SynthConfig(seed=7, n_observations=9000)).bundle

    @staticmethod
    def one_call(bundle, prior):
        reduced = pca_transform(prior.pca, bundle.metadata_features).values
        return softmax(prior_scores(prior.mlp, reduced, prior.prototypes))

    def test_blocks_give_the_bits_of_one_call(self, world):
        # the BLAS sends small products to a kernel that rounds differently:
        # with numpy 2.4.6's OpenBLAS 0.3.31 on an AVX-512 Xeon, a last block
        # of its own, 808 rows, changed the weights of about half its rows.
        # No block is smaller than _PRIOR_BLOCK_ROWS, so each block rounds as
        # one call over all locations does
        prior = random_prior(world)
        assert world.metadata_features.rows == 9000
        weights = inference._prior_weights_by_location(world, prior)
        assert weights.tobytes() == self.one_call(world, prior).tobytes()

    @pytest.mark.parametrize("locations", [0, 1, 5, 6, 8, 9, 11, 12, 13])
    def test_last_block_takes_the_remainder(self, synth7, monkeypatch, locations):
        monkeypatch.setattr(inference, "_PRIOR_BLOCK_ROWS", 3)
        calls = []

        def recorded(model, x_rows, prototypes):
            calls.append(x_rows.shape[0])
            return prior_scores(model, x_rows, prototypes)

        monkeypatch.setattr(inference, "prior_scores", recorded)
        metadata = synth7.bundle.metadata_features.values[:locations]
        bundle = replace(synth7.bundle, metadata_features=FeatureMatrix(metadata))
        prior = random_prior(synth7.bundle)
        weights = inference._prior_weights_by_location(bundle, prior)
        # fewer than two blocks' worth is one call; otherwise blocks of 3 and
        # a last one of 3 to 5
        full = max(locations // 3, 1) - 1
        assert calls == [3] * full + [locations - 3 * full]
        np.testing.assert_allclose(weights, self.one_call(bundle, prior), rtol=1e-12)

    def test_transient_memory_does_not_grow_with_locations(self, world, monkeypatch):
        # beyond the (locations, C) result and the (locations, k) reduced
        # features, memory holds one block's activations, whatever the count;
        # both counts end in a block of 308 rows after blocks of 256
        monkeypatch.setattr(inference, "_PRIOR_BLOCK_ROWS", 256)
        prior = random_prior(world)
        transients = []
        for locations in (8 * 256 + 52, 32 * 256 + 52):
            metadata = FeatureMatrix(world.metadata_features.values[:locations])
            bundle = replace(world, metadata_features=metadata)
            tracemalloc.start()
            try:
                weights = inference._prior_weights_by_location(bundle, prior)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            transients.append(peak - weights.nbytes - locations * prior.pca.k * 8)
        assert abs(transients[1] / transients[0] - 1.0) <= 0.10


def read_map(path):
    """read_predictions_csv as a dict, after checking its ids are in str order."""
    ids, class_ids = read_predictions_csv(path)
    assert ids.tolist() == sorted(ids.tolist())
    return dict(zip(ids.tolist(), class_ids.tolist()))


def predictions(ids, class_id, pre_escalation_class_id, confidence):
    return Predictions(
        np.array(ids, dtype=StringDType()),
        np.array(class_id, dtype=np.int64),
        np.array(pre_escalation_class_id, dtype=np.int64),
        np.array(confidence, dtype=np.float64),
    )


class TestPredictionCsv:
    def results(self):
        return predictions(["obs_a", "obs_b"], [3, 0], [1, 0], [0.42, 0.97])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, self.results())
        assert path.read_text() == "observation_id,class_id\nobs_a,3\nobs_b,0\n"
        assert read_map(path) == {"obs_a": 3, "obs_b": 0}

    @settings(max_examples=100, deadline=None)
    @given(
        ids=st.lists(
            st.text(alphabet='ab_0,"' + WHITESPACE, min_size=1, max_size=8),
            min_size=1,
            max_size=6,
            unique=True,
        ),
        explain=st.booleans(),
    )
    # csv.writer once wrote a lone \r bare, and the reader split the row there
    @example(ids=["a\rb"], explain=False)
    def test_round_trip_ids_with_commas_and_quotes(self, tmp_path_factory, ids, explain):
        n = len(ids)
        results = predictions(ids, range(n), range(n), [0.5] * n)
        path = tmp_path_factory.mktemp("preds") / "preds.csv"
        write_predictions_csv(path, results, explain=explain)
        assert read_map(path) == {obs_id: i for i, obs_id in enumerate(ids)}

    def test_explain_adds_escalation_columns(self, tmp_path):
        path = tmp_path / "preds.csv"
        write_predictions_csv(path, self.results(), explain=True)
        lines = path.read_text().splitlines()
        assert lines[0] == "observation_id,class_id,pre_escalation_class_id,confidence"
        assert lines[1:] == ["obs_a,3,1,0.42", "obs_b,0,0,0.97"]
        # explain files still satisfy the minimal reader
        assert read_map(path) == {"obs_a": 3, "obs_b": 0}

    def test_duplicate_observation_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("observation_id,class_id\nobs_a,1\nobs_a,2\n")
        with pytest.raises(CsvParseError, match="duplicate"):
            read_predictions_csv(path)

    def test_duplicate_blank_id_is_quoted(self, tmp_path):
        # a space id would print as nothing unquoted
        path = tmp_path / "preds.csv"
        path.write_text("observation_id,class_id\n ,1\nobs_a,2\n ,3\n")
        with pytest.raises(CsvParseError, match=r"preds.csv:4: duplicate observation ' '$"):
            read_predictions_csv(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("obs_a,1\n")
        with pytest.raises(CsvParseError, match="header"):
            read_predictions_csv(path)

    def test_bad_class_id_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        # the quoted id spans two lines, so the bad row is on line 4
        path.write_text('observation_id,class_id\n"obs\na",1\nobs_1,x\n')
        with pytest.raises(CsvParseError, match=r"preds.csv:4: bad class_id 'x'"):
            read_predictions_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("observation_id,class_id\nobs_a\n")
        with pytest.raises(CsvParseError, match=":2:"):
            read_predictions_csv(path)


class TestUnresolvedLocations:
    @pytest.mark.parametrize(
        "entries", [{"loc_0": 0, "loc_1": 1}, {"loc_0": 0, "loc_1": 1, "loc_2": -1}]
    )
    def test_prediction_with_prior_rejects_unresolved_location(self, tiny_bundle, entries):
        # loc_2 is unknown or negative: no prior row may be taken for it
        bundle = replace(tiny_bundle, locations=location_table(entries))
        with pytest.raises(BundleValidationError, match="unresolved location"):
            predict_dataset(bundle, prior=constant_prior_artifact(bundle))
