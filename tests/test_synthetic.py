import hashlib
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from numpy.dtypes import StringDType

from venomguard.data_model import (
    ClassTable,
    ObservationTable,
    load_bundle,
)
from venomguard.inference import EscalationPolicy, predict_dataset, read_predictions_csv
from venomguard.linalg_pca import fit_pca, pca_transform
from venomguard.metrics import MetricWeights, build_report
from venomguard.prior_model import (
    PriorArtifact,
    PriorMlp,
    PriorTrainConfig,
    PrototypeMatrix,
    compute_prototypes,
    prior_scores,
    train_prior,
)
from venomguard.synthetic import (
    SynthConfig,
    _numbered,
    generate,
    power_law_counts,
    write_dataset,
)

from conftest import FIELD_CHARS, location_dict, location_table
from oracles import oracle_eigvals_jacobi, oracle_metric, oracle_predict

GOLDEN = Path(__file__).parent / "golden"


class TestConfig:
    def test_defaults_are_valid(self):
        cfg = SynthConfig()
        assert cfg.n_classes == 50
        assert cfg.n_observations == 5000

    def test_validation(self):
        for ratio in (0.5, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="imbalance_ratio"):
                SynthConfig(imbalance_ratio=ratio)
        with pytest.raises(ValueError):
            SynthConfig(n_classes=0)
        with pytest.raises(ValueError):
            SynthConfig(venom_fraction=1.5)
        with pytest.raises(ValueError):
            SynthConfig(location_informativeness=-0.1)
        with pytest.raises(ValueError):
            SynthConfig(images_per_observation=(3, 1))
        with pytest.raises(ValueError):
            SynthConfig(images_per_observation=(0, 2))
        with pytest.raises(ValueError):
            SynthConfig(n_classes=100, n_observations=50)


class TestPowerLawCounts:
    def test_counts_partition_observations(self):
        counts = power_law_counts(500, 12, 30.0)
        assert counts.sum() == 500
        assert counts.min() >= 1
        assert np.all(np.diff(counts) <= 0)

    def test_ratio_one_is_nearly_uniform(self):
        counts = power_law_counts(1000, 7, 1.0)
        assert counts.max() - counts.min() <= 1
        assert counts.sum() == 1000

    def test_default_head_tail_ratio_in_band(self):
        counts = power_law_counts(5000, 50, 100.0)
        ratio = counts.max() / counts.min()
        assert 80.0 <= ratio <= 120.0

    def test_matches_golden_default_apportionment(self):
        golden = np.array(
            [int(line) for line in (GOLDEN / "class_counts_default.txt").read_text().split()]
        )
        counts = power_law_counts(5000, 50, 100.0)
        assert np.array_equal(counts, golden)

    def test_single_class_takes_everything(self):
        assert power_law_counts(42, 1, 100.0).tolist() == [42]

    def test_impossible_split_rejected(self):
        with pytest.raises(ValueError):
            power_law_counts(2, 3, 100.0)


class TestGenerate:
    def test_bitwise_deterministic_per_seed(self):
        cfg = SynthConfig(seed=5, n_classes=6, n_observations=60)
        a, b = generate(cfg), generate(cfg)
        assert np.array_equal(a.bundle.image_scores.values, b.bundle.image_scores.values)
        assert np.array_equal(
            a.bundle.metadata_features.values, b.bundle.metadata_features.values
        )
        assert np.array_equal(a.truth, b.truth)
        c = generate(replace(cfg, seed=6))
        assert not np.array_equal(
            a.bundle.image_scores.values, c.bundle.image_scores.values
        )

    def test_stream_matches_golden_digests(self):
        # The benchmark's fixed world (WORLD_SEED 7) must not change without notice.
        gen = generate(SynthConfig(seed=7, n_observations=500))
        bundle = gen.bundle
        arrays = {
            "image_scores": bundle.image_scores.values,
            "metadata_features": bundle.metadata_features.values,
            "embeddings": bundle.embeddings.values,
            "truth": gen.truth,
        }
        assert bundle.image_scores.values.dtype == np.float32
        digests = {k: hashlib.sha256(v.tobytes()).hexdigest() for k, v in arrays.items()}
        # The image scores are float32: their digest is the sha256 of the
        # float64 logits the generator held before, cast to "<f4", which are
        # the bytes write_dataset has always stored.
        assert digests == {
            "image_scores": "9a080281429b3f8dad331a56b5977a589788fa7817507fdc4a4d45f53604eda5",
            "metadata_features": "1d7ed84e96dcd1d702f46dc77e21c372be1c5348198051c26345a3d690088cd2",
            "embeddings": "86a7e8afccd83b7c6f712cbe524e1afaf799fac300997db13797111da2b4ebc7",
            "truth": "f799696954395b1f822208d5e653a84454727346099c3b82bd4ad335930f1361",
        }

    @pytest.mark.parametrize("n", [1, 10, 100000, 100001])
    def test_ids_are_zero_padded_to_one_width(self, n):
        # the width grows past 5 digits once n - 1 needs more
        width = max(5, len(str(n - 1)))
        want = [f"loc_{i:0{width}d}".encode() for i in range(n)]
        assert _numbered("loc_", n).tolist() == want

    def test_informativeness_does_not_move_the_image_stream(self):
        cfg = SynthConfig(seed=13, n_classes=8, n_observations=400)
        a = generate(replace(cfg, location_informativeness=0.0)).bundle
        b = generate(replace(cfg, location_informativeness=0.8)).bundle
        assert np.array_equal(a.image_scores.values, b.image_scores.values)
        assert np.array_equal(a.embeddings.values, b.embeddings.values)
        assert not np.array_equal(a.metadata_features.values, b.metadata_features.values)

    def test_shapes_and_flags(self, synth7):
        bundle = synth7.bundle
        cfg = synth7.config
        assert bundle.classes.n_classes == cfg.n_classes
        assert bundle.metadata_features.dims == cfg.dims_meta
        assert bundle.embeddings.dims == cfg.dims_proto
        n_venom = int(bundle.classes.venomous_flags.sum())
        assert n_venom == int(np.ceil(cfg.venom_fraction * cfg.n_classes))
        assert bundle.image_scores.dims == cfg.n_classes
        assert bundle.image_scores.rows == len(bundle.observations.rows)

    def test_truth_matches_observation_labels(self, synth7):
        obs = synth7.bundle.observations
        assert synth7.truth.dtype == np.int64
        assert synth7.truth.shape == obs.ids.shape
        truth = dict(zip(obs.ids.tolist(), synth7.truth.tolist()))
        for row in obs.rows:
            assert truth[row.observation_id] == row.class_id

    def test_one_location_per_observation(self, synth7):
        obs = synth7.bundle.observations
        assert synth7.bundle.locations.codes.size == obs.ids.size
        # each observation's rows all name the location of its first row
        first = np.unique(obs.group, return_index=True)[1]
        assert np.array_equal(obs.location, obs.location[first][obs.group])

    def test_images_per_observation_in_range(self, synth7):
        lo, hi = synth7.config.images_per_observation
        images = np.bincount(synth7.bundle.observations.group)
        assert lo <= images.min() and images.max() <= hi

    def test_class_counts_realized_in_labels(self, synth7):
        obs = synth7.bundle.observations
        first = np.unique(obs.group, return_index=True)[1]
        assert np.array_equal(obs.class_id, obs.class_id[first][obs.group])
        realized = np.bincount(obs.class_id[first], minlength=synth7.config.n_classes)
        assert np.array_equal(realized, synth7.class_counts)

    def test_peak_memory_stays_under_one_float32_score_array(self):
        # rows * C * 4 bytes is one float32 score array; the logits are drawn
        # in float64 a block of rows at a time, so they add less than that
        tracemalloc.start()
        try:
            gen = generate(SynthConfig(seed=7, n_observations=20000))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < gen.bundle.image_scores.values.size * 4

    def test_uninformative_locations_give_the_prior_nothing(self):
        # Same image stream either way; only the metadata signal changes.
        def macro_with_and_without_prior(info):
            cfg = SynthConfig(
                seed=13,
                n_classes=8,
                n_observations=400,
                dims_meta=4,
                dims_proto=8,
                imbalance_ratio=10.0,
                location_informativeness=info,
            )
            gen = generate(cfg)
            bundle = gen.bundle
            labels = np.array(
                [r.class_id for r in bundle.observations.labeled_rows()]
            )
            proto = compute_prototypes(bundle.embeddings, labels, 8)
            pca = fit_pca(bundle.metadata_features, k=3)
            reduced = pca_transform(pca, bundle.metadata_features)
            mlp, _ = train_prior(
                replace(bundle, metadata_features=reduced),
                proto,
                PriorTrainConfig(
                    epochs=10,
                    batch_size=64,
                    hidden=32,
                    seed=0,
                    base_lr=5e-3,
                    warmup_lr=5e-5,
                ),
            )
            artifact = PriorArtifact(mlp=mlp, prototypes=proto, pca=pca)
            truth = gen.truth
            policy = EscalationPolicy(tau=0.0, top_k=5)

            def f1(prior):
                out = predict_dataset(bundle, prior=prior, policy=policy)
                pred = np.array([r.class_id for r in out.results])
                return build_report(truth, pred, bundle.classes).macro_f1

            return f1(None), f1(artifact)

        base0, prior0 = macro_with_and_without_prior(0.0)
        base8, prior8 = macro_with_and_without_prior(0.8)
        assert base0 == pytest.approx(base8, abs=1e-9)
        assert prior0 - base0 <= 2.0   # no usable signal, no gain
        assert prior8 - base8 >= 5.0   # informative locations help


FIELD = st.text(alphabet=FIELD_CHARS, max_size=5)


def renamed(gen, ids, codes, names):
    """``gen`` with new observation ids, location codes and class names, each
    list in the order of the ids, codes and classes it replaces."""
    bundle, obs = gen.bundle, gen.bundle.observations
    ids = np.asarray(ids, dtype=StringDType())
    codes = np.asarray(codes, dtype=StringDType())
    # a generated bundle's location codes are its observations' codes
    assert np.array_equal(bundle.locations.codes, obs.codes)
    bundle = replace(
        bundle,
        classes=ClassTable(names, bundle.classes.venomous_flags),
        observations=ObservationTable.from_columns(
            ids[obs.group], obs.image_index, obs.class_id, codes[obs.location]
        ),
        locations=location_table(dict(zip(codes.tolist(), bundle.locations.index.tolist()))),
    )
    return replace(gen, bundle=bundle)


def assert_reads_back(gen, directory):
    """write_dataset then load_bundle gives back the same bundle and truth."""
    write_dataset(gen, directory)
    loaded = load_bundle(directory)
    assert loaded.classes.names.tolist() == gen.bundle.classes.names.tolist()
    assert loaded.classes.venomous_flags.tolist() == gen.bundle.classes.venomous_flags.tolist()
    assert loaded.observations.rows == gen.bundle.observations.rows
    assert location_dict(loaded.locations) == location_dict(gen.bundle.locations)
    truth_ids, truth_labels = read_predictions_csv(directory / "truth.csv")
    assert truth_ids.tolist() == gen.bundle.observations.ids.tolist()
    assert truth_labels.tolist() == gen.truth.tolist()


class TestWriteDataset:
    def test_round_trip_matches_memory(self, tmp_path):
        gen = generate(SynthConfig(seed=9, n_classes=5, n_observations=50))
        write_dataset(gen, tmp_path)
        loaded = load_bundle(tmp_path)
        assert loaded.classes.n_classes == 5
        assert loaded.classes.venomous_flags.tolist() == (
            gen.bundle.classes.venomous_flags.tolist()
        )
        assert loaded.observations.rows == gen.bundle.observations.rows
        # disk payloads are single precision
        assert np.array_equal(
            loaded.image_scores.values,
            gen.bundle.image_scores.values.astype(np.float32).astype(np.float64),
        )
        assert location_dict(loaded.locations) == location_dict(gen.bundle.locations)

    def test_scores_in_memory_are_the_scores_read_back(self, synth7, tmp_path):
        # synth7's 10009 image rows span three blocks of the logits draw
        write_dataset(synth7, tmp_path)
        loaded = load_bundle(tmp_path)
        memory = synth7.bundle.image_scores.values
        assert memory.dtype == loaded.image_scores.values.dtype == np.float32
        assert memory.tobytes() == loaded.image_scores.values.tobytes()
        a = predict_dataset(synth7.bundle).results
        b = predict_dataset(loaded).results
        for column in ("ids", "class_id", "pre_escalation_class_id", "confidence"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_quoted_fields_round_trip(self, tmp_path):
        gen = generate(SynthConfig(seed=9, n_classes=5, n_observations=50))

        def odd(text):
            return text.replace("_", ',"\n', 1)

        obs = gen.bundle.observations
        odd_gen = renamed(
            gen,
            [odd(i) for i in obs.ids.tolist()],
            [odd(c) for c in obs.codes.tolist()],
            [odd(name) for name in gen.bundle.classes.names.tolist()],
        )
        assert_reads_back(odd_gen, tmp_path)

    @settings(max_examples=50, deadline=None)
    @given(
        ids=st.lists(FIELD, min_size=6, max_size=6, unique=True),
        codes=st.lists(FIELD, min_size=6, max_size=6, unique=True),
        names=st.lists(FIELD, min_size=3, max_size=3),
    )
    # csv.writer once wrote a lone \r bare, and the reader split the row there
    @example(
        ids=["a\rb", "b", "c", "d", "e", "f"],
        codes=["l\r", "m", "n", "o", "p", "q"],
        names=["\r", "x", "y"],
    )
    def test_any_ids_codes_and_names_round_trip(self, tmp_path_factory, ids, codes, names):
        gen = generate(SynthConfig(seed=9, n_classes=3, n_observations=6))
        assert_reads_back(renamed(gen, ids, codes, names), tmp_path_factory.mktemp("bundle"))

    def test_truth_file_sorted_and_complete(self, tmp_path):
        gen = generate(SynthConfig(seed=9, n_classes=5, n_observations=50))
        write_dataset(gen, tmp_path)
        lines = (tmp_path / "truth.csv").read_text().splitlines()
        assert lines[0] == "observation_id,class_id"
        ids = [ln.split(",")[0] for ln in lines[1:]]
        assert ids == sorted(ids)
        assert len(ids) == 50

    def test_files_match_golden_digests(self, tmp_path):
        # sha256 of every file, taken from the writer that turned each whole
        # column into a Python list before writing it; feeding it arrays a
        # chunk at a time must not change a byte
        write_dataset(generate(SynthConfig(seed=7, n_observations=500)), tmp_path)
        digests = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
        }
        assert digests == {
            "classes.csv": "c5427d058c9c15ab5408f09e3c00d17c526a927f41715d125e43943f6de6a9c4",
            "embeddings.vgf1": "41db0c26986d04a706cdf06cc1e0934ecd076144bac481250962282b8830d69e",
            "image_scores.vgf1": "b57c56816b1785d853f8b97a0b049070a33fcd478348ac153fd0f4d7486709aa",
            "locations.csv": "cc7f025cfb0decd83b6d0ed52814e34c52c86e8bfb15b101ba78169a0c092a24",
            "manifest.txt": "8f6fb44d1d98cb8f574bf42ef364053029fcf2909e0b696d9e6f480c1ed45b25",
            "metadata_features.vgf1": "0b591fdd3b9560302c2292e8cd06fa8934685e6eb208595e19474e3192630c6d",
            "observations.csv": "e6c93c4f28d914e796f750e3ebcc07b8379e7abccab2290b65aa7c766d206f20",
            "truth.csv": "04107bc0579c5a595936bc73e7a03e321c221fbbec8cfc3f6aeb1d7b1da1f967",
        }

    def test_unlabeled_row_has_no_truth_to_write(self, tmp_path):
        gen = generate(SynthConfig(seed=9, n_classes=5, n_observations=50))
        obs = gen.bundle.observations
        class_id = obs.class_id.copy()
        class_id[7] = -1
        bundle = replace(gen.bundle, observations=replace(obs, class_id=class_id))
        with pytest.raises(ValueError, match=f"observation '{obs.ids[obs.group[7]]}' has an"):
            write_dataset(replace(gen, bundle=bundle), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_peak_memory_holds_no_whole_column_list(self, tmp_path):
        # The peak is the observations manifest. Its id and code columns are
        # gathered as object arrays: a pointer a row, sharing one Python str
        # per distinct id or code. The chunk of rows being written adds well
        # under 1 MiB. Whole-column lists of the four columns, with an int
        # object per image index and class id, came to 4.98 MiB at this size,
        # against 3.31 MiB for the arrays.
        gen = generate(SynthConfig(seed=7, n_observations=20000))
        obs = gen.bundle.observations
        gathered = 8 * 2 * len(obs) + sum(
            map(sys.getsizeof, obs.ids.tolist() + obs.codes.tolist())
        )
        tracemalloc.start()
        try:
            write_dataset(gen, tmp_path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - kept < gathered + 2**20

    def test_manifest_records_the_recipe(self, tmp_path):
        gen = generate(SynthConfig(seed=9, n_classes=5, n_observations=50))
        write_dataset(gen, tmp_path)
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "seed = 9" in manifest
        assert "n_classes = 5" in manifest
        assert "head_count" in manifest and "tail_count" in manifest


class TestOracleMetric:
    def test_agrees_with_build_report(self, five_classes):
        rng = np.random.default_rng(19)
        flags = five_classes.venomous_flags.tolist()
        for _ in range(30):
            n = int(rng.integers(10, 300))
            truth = rng.integers(0, 5, size=n)
            pred = rng.integers(0, 5, size=n)
            report = build_report(truth, pred, five_classes)
            expected = oracle_metric(truth.tolist(), pred.tolist(), flags)
            assert report.macro_f1 == pytest.approx(expected["macro_f1"], abs=1e-9)
            for i, name in enumerate(("p1", "p2", "p3", "p4"), start=1):
                assert getattr(report, name) == pytest.approx(
                    expected[name], abs=1e-9
                )
            assert report.accuracy == pytest.approx(expected["accuracy"], abs=1e-9)
            assert report.composite == pytest.approx(expected["composite"], abs=1e-9)

    def test_agrees_across_modes_and_weights(self, five_classes):
        rng = np.random.default_rng(23)
        flags = five_classes.venomous_flags.tolist()
        truth = rng.integers(0, 5, size=200)
        pred = rng.integers(0, 5, size=200)
        for pdenom in ("status", "all", "errors"):
            for weights in ((1.0, 1.0, 2.0, 5.0, 2.0), (2.0, 1.0, 1.0, 1.0, 3.0)):
                report = build_report(
                    truth,
                    pred,
                    five_classes,
                    weights=MetricWeights(*weights),
                    pdenom=pdenom,
                )
                expected = oracle_metric(
                    truth.tolist(), pred.tolist(), flags, weights=weights, pdenom=pdenom
                )
                assert report.composite == pytest.approx(
                    expected["composite"], abs=1e-9
                )


class TestOraclePredict:
    def as_oracle_input(self, bundle):
        """(observation id, its score rows, their metadata rows) per
        observation, each observation's rows in file order."""
        obs = bundle.observations
        locations = location_dict(bundle.locations)
        meta = np.array([locations[code] for code in obs.codes.tolist()])[obs.location]
        out = []
        for g, obs_id in enumerate(obs.ids.tolist()):
            rows = np.flatnonzero(obs.group == g)
            score_rows = bundle.image_scores.values[obs.image_index[rows]].tolist()
            out.append((obs_id, score_rows, meta[rows].tolist()))
        return out

    def test_matches_pipeline_without_prior(self):
        gen = generate(SynthConfig(seed=31, n_classes=7, n_observations=70))
        bundle = gen.bundle
        out = predict_dataset(bundle, policy=EscalationPolicy(tau=0.5, top_k=5))
        expected = oracle_predict(
            self.as_oracle_input(bundle),
            bundle.classes.venomous_flags.tolist(),
            tau=0.5,
            top_k=5,
        )
        assert {r.observation_id: r.class_id for r in out.results} == expected

    def test_matches_pipeline_with_prior(self):
        gen = generate(SynthConfig(seed=37, n_classes=6, n_observations=60))
        bundle = gen.bundle
        # Any fixed prior exercises the joint rule; no training needed.
        rng = np.random.default_rng(37)
        pca = fit_pca(bundle.metadata_features, k=3)
        mlp = PriorMlp.create(3, 8, 5, seed=37)
        proto = PrototypeMatrix(rng.standard_normal((5, 6)))
        artifact = PriorArtifact(mlp=mlp, prototypes=proto, pca=pca)

        reduced = pca_transform(pca, bundle.metadata_features).values
        prior_rows = prior_scores(mlp, reduced, proto).tolist()
        out = predict_dataset(
            bundle, prior=artifact, policy=EscalationPolicy(tau=0.4, top_k=3)
        )
        expected = oracle_predict(
            self.as_oracle_input(bundle),
            bundle.classes.venomous_flags.tolist(),
            tau=0.4,
            top_k=3,
            prior_logits=prior_rows,
        )
        assert {r.observation_id: r.class_id for r in out.results} == expected


class TestOracleJacobi:
    def test_agrees_with_numpy_eigvalsh(self):
        rng = np.random.default_rng(41)
        for n in (2, 3, 5):
            a = rng.standard_normal((n, n))
            sym = (a + a.T) / 2.0
            ours = oracle_eigvals_jacobi(sym.tolist())
            ref = np.linalg.eigvalsh(sym)[::-1]
            assert np.allclose(ours, ref, atol=1e-8)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            oracle_eigvals_jacobi([[1.0, 2.0], [0.0, 1.0]])
