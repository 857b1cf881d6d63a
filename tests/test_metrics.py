import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from venomguard.data_model import ClassTable
from venomguard.errors import BundleValidationError
from venomguard.metrics import (
    build_report,
    confusion_matrix,
    macro_f1,
    report_json,
    report_text,
    score_predictions,
    track1_metric,
    venom_confusions,
)

from oracles import reference_macro_f1


def two_class_table():
    return ClassTable(["harmless", "viper"], [False, True])


def naive_confusion(truth, pred, n):
    out = np.zeros((n, n), dtype=int)
    for t, p in zip(truth, pred):
        out[t][p] += 1
    return out


class TestConfusion:
    def test_perfect_predictions_are_diagonal(self):
        truth = np.array([0, 1, 2, 1])
        cm = confusion_matrix(truth, truth, 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_matches_naive_tally(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 6, size=500)
        pred = rng.integers(0, 6, size=500)
        assert np.array_equal(
            confusion_matrix(truth, pred, 6), naive_confusion(truth, pred, 6)
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0]), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([0, 3]), np.array([0, 1]), 2)
        with pytest.raises(ValueError):
            confusion_matrix(np.array([], dtype=int), np.array([], dtype=int), 2)


class TestMacroF1:
    def test_perfect_is_hundred(self):
        assert macro_f1(np.diag([3, 7])) == pytest.approx(100.0)

    def test_half_recall_hand_case(self):
        # 10 truth-0 observations, half predicted 0; class 1 never right.
        cm = np.array([[5, 5], [0, 0]])
        # F1_0 = 2*(0.5*... wait: prec_0 = 5/5 = 1, rec_0 = 0.5 -> F1 = 2/3
        assert macro_f1(cm) == pytest.approx(100.0 * 2.0 / 3.0, abs=1e-9)

    def test_example_with_empty_prediction_column(self):
        # class 0: prec 0.5, rec 1.0 -> F1 = 2/3; class 1: F1 = 0
        cm = np.array([[5, 0], [5, 0]])
        assert macro_f1(cm) == pytest.approx(100.0 / 3.0, abs=1e-9)

    def test_zero_support_classes_skipped_by_default(self):
        cm = np.array([[5, 0, 0], [5, 0, 0], [0, 0, 0]])
        assert macro_f1(cm) == pytest.approx(100.0 / 3.0, abs=1e-9)

    def test_no_supported_classes_rejected(self):
        with pytest.raises(ValueError, match="support"):
            macro_f1(np.zeros((3, 3), dtype=int))

    def test_matches_per_class_reference(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 5, size=400)
        pred = rng.integers(0, 5, size=400)
        cm = confusion_matrix(truth, pred, 5)
        scores = []
        for c in range(5):
            tp = np.sum((truth == c) & (pred == c))
            fp = np.sum((truth != c) & (pred == c))
            fn = np.sum((truth == c) & (pred != c))
            prec = tp / (tp + fp) if tp + fp else 0.0
            rec = tp / (tp + fn) if tp + fn else 0.0
            scores.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
        assert macro_f1(cm) == pytest.approx(100.0 * np.mean(scores), abs=1e-9)

    def test_invariant_under_class_relabeling(self):
        rng = np.random.default_rng(2)
        truth = rng.integers(0, 6, size=300)
        pred = rng.integers(0, 6, size=300)
        perm = rng.permutation(6)
        a = macro_f1(confusion_matrix(truth, pred, 6))
        b = macro_f1(confusion_matrix(perm[truth], perm[pred], 6))
        assert a == pytest.approx(b, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        confusion=st.integers(1, 8).flatmap(
            lambda n: st.lists(st.sampled_from([0, 0, 0, 1, 2, 7]), min_size=n * n,
                               max_size=n * n).map(lambda v: np.reshape(v, (n, n)))
        ),
    )
    def test_equals_the_per_class_loop(self, confusion):
        def outcome(f1):
            try:
                return f1(confusion)
            except ValueError as exc:
                return str(exc)

        assert outcome(macro_f1) == outcome(reference_macro_f1)


class TestVenomConfusions:
    def test_perfect_predictions_have_no_confusions(self, five_classes):
        cm = np.diag([4, 3, 2, 1, 5])
        assert venom_confusions(cm, five_classes) == (0.0, 0.0, 0.0, 0.0)

    def test_all_venomous_misread_as_harmless(self):
        # ten venomous observations, all predicted the harmless class;
        # the empty harmless side warns and zeroes p1/p2
        cm = np.array([[0, 0], [10, 0]])
        with pytest.warns(UserWarning, match="zero denominator"):
            p = venom_confusions(cm, two_class_table())
        assert p[2] == pytest.approx(100.0)
        assert p[3] == 0.0
        assert p[0] == 0.0 and p[1] == 0.0

    def test_matches_pairwise_tally(self, five_classes):
        rng = np.random.default_rng(3)
        truth = rng.integers(0, 5, size=600)
        pred = rng.integers(0, 5, size=600)
        cm = confusion_matrix(truth, pred, 5)
        flags = five_classes.venomous_flags
        counts = {"hh": 0, "hv": 0, "vh": 0, "vv": 0}
        for t, p in zip(truth, pred):
            if t == p:
                continue
            key = ("v" if flags[t] else "h") + ("v" if flags[p] else "h")
            counts[key] += 1
        n_h = int(np.sum(~flags[truth]))
        n_v = int(np.sum(flags[truth]))
        expected = (
            100.0 * counts["hh"] / n_h,
            100.0 * counts["hv"] / n_h,
            100.0 * counts["vh"] / n_v,
            100.0 * counts["vv"] / n_v,
        )
        assert venom_confusions(cm, five_classes) == pytest.approx(
            expected, abs=1e-12
        )

    def test_status_percentages_bounded(self, five_classes):
        rng = np.random.default_rng(4)
        for _ in range(20):
            truth = rng.integers(0, 5, size=100)
            pred = rng.integers(0, 5, size=100)
            cm = confusion_matrix(truth, pred, 5)
            p1, p2, p3, p4 = venom_confusions(cm, five_classes)
            assert p1 + p2 <= 100.0 + 1e-9
            assert p3 + p4 <= 100.0 + 1e-9

    def test_zero_denominator_warns_and_zeroes(self, five_classes):
        # only harmless observations: venomous percentages have no denominator
        truth = np.array([0, 0, 2, 4])
        pred = np.array([0, 2, 2, 4])
        cm = confusion_matrix(truth, pred, 5)
        with pytest.warns(UserWarning, match="zero denominator"):
            p = venom_confusions(cm, five_classes)
        assert p[2] == 0.0 and p[3] == 0.0


class TestComposite:
    def test_perfect_run_scores_hundred(self):
        assert track1_metric(100.0, (0.0, 0.0, 0.0, 0.0)) == pytest.approx(100.0)

    def test_weighted_hand_case(self):
        # (1*50 + 1*80 + 2*90 + 5*100 + 2*100) / 11
        value = track1_metric(50.0, (20.0, 10.0, 0.0, 0.0))
        assert value == pytest.approx(1010.0 / 11.0, abs=1e-12)

    def test_improving_any_term_never_hurts(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f1 = rng.uniform(0, 100)
            p = rng.uniform(0, 100, size=4)
            base = track1_metric(f1, tuple(p))
            assert track1_metric(min(f1 + 5, 100.0), tuple(p)) >= base
            for i in range(4):
                better = p.copy()
                better[i] = max(0.0, better[i] - 5)
                assert track1_metric(f1, tuple(better)) >= base

    def test_out_of_range_inputs_rejected(self):
        with pytest.raises(ValueError):
            track1_metric(101.0, (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            track1_metric(50.0, (0.0, -1.0, 0.0, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(
        f1=st.floats(0, 100),
        p=st.tuples(*[st.floats(0, 100)] * 4),
    )
    def test_composite_bounded(self, f1, p):
        value = track1_metric(f1, p)
        assert 0.0 <= value <= 100.0

    def test_hundred_requires_perfection(self):
        assert track1_metric(100.0, (0.0, 0.0, 0.0, 0.1)) < 100.0
        assert track1_metric(99.9, (0.0, 0.0, 0.0, 0.0)) < 100.0


class TestReports:
    def test_build_report_fields_consistent(self, five_classes):
        rng = np.random.default_rng(7)
        truth = rng.integers(0, 5, size=300)
        pred = rng.integers(0, 5, size=300)
        report = build_report(truth, pred, five_classes)
        assert report.n_observations == 300
        assert report.accuracy == pytest.approx(
            100.0 * np.mean(truth == pred), abs=1e-9
        )
        expected = track1_metric(
            report.macro_f1, (report.p1, report.p2, report.p3, report.p4)
        )
        assert report.composite == pytest.approx(expected, abs=1e-12)

    def test_text_report_uses_four_decimals(self, five_classes):
        report = build_report(np.array([0, 1]), np.array([0, 1]), five_classes)
        text = report_text(report)
        assert "macro_f1         100.0000" in text
        assert "composite        100.0000" in text
        assert text.endswith("\n")

    def test_json_report_keys(self, five_classes):
        report = build_report(np.array([0, 1]), np.array([0, 3]), five_classes)
        payload = json.loads(report_json(report))
        assert set(payload) == {
            "macro_f1",
            "p1",
            "p2",
            "p3",
            "p4",
            "accuracy",
            "composite",
            "n_observations",
        }
        assert payload["n_observations"] == 2


class TestScorePredictions:
    def write(self, path, mapping):
        lines = ["observation_id,class_id"]
        lines += [f"{k},{v}" for k, v in mapping.items()]
        path.write_text("\n".join(lines) + "\n")

    def test_identical_files_score_perfect(self, tmp_path, five_classes):
        truth = tmp_path / "truth.csv"
        self.write(truth, {"obs_a": 0, "obs_b": 1, "obs_c": 3})
        report = score_predictions(truth, truth, five_classes)
        assert report.composite == pytest.approx(100.0)
        assert report.accuracy == pytest.approx(100.0)

    def test_missing_predictions_listed(self, tmp_path, five_classes):
        truth = tmp_path / "truth.csv"
        pred = tmp_path / "pred.csv"
        self.write(truth, {"obs_a": 0, "obs_b": 1})
        self.write(pred, {"obs_a": 0})
        with pytest.raises(BundleValidationError, match="obs_b"):
            score_predictions(truth, pred, five_classes)

    def test_unknown_predictions_listed(self, tmp_path, five_classes):
        truth = tmp_path / "truth.csv"
        pred = tmp_path / "pred.csv"
        self.write(truth, {"obs_a": 0})
        self.write(pred, {"obs_a": 0, "obs_z": 1})
        with pytest.raises(BundleValidationError, match="obs_z"):
            score_predictions(truth, pred, five_classes)

    def test_join_is_order_independent(self, tmp_path, five_classes):
        truth = tmp_path / "truth.csv"
        pred = tmp_path / "pred.csv"
        self.write(truth, {"obs_a": 0, "obs_b": 1, "obs_c": 2})
        self.write(pred, {"obs_c": 2, "obs_a": 1, "obs_b": 1})
        report = score_predictions(truth, pred, five_classes)
        assert report.n_observations == 3
        assert report.accuracy == pytest.approx(100.0 * 2.0 / 3.0, abs=1e-9)
