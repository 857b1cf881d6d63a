"""End-to-end acceptance gate.

Each test prints one pass/fail line; run with ``pytest -s`` to see them.
The suite is self-contained and seeded, so every number below is stable.
"""

import filecmp
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from venomguard.cli import main
from venomguard.data_model import (
    ClassTable,
    FeatureMatrix,
    read_records,
    write_records,
)
from venomguard.gradcheck import check_loc_loss
from venomguard.inference import EscalationPolicy, _escalate_rows, predict_dataset
from venomguard.linalg_pca import fit_pca, pca_inverse, pca_transform
from venomguard.metrics import build_report, score_predictions, track1_metric
from venomguard.optim import AdamWState, CosineSchedule, adamw_step, lr_at
from venomguard.prior_model import (
    PriorArtifact,
    PriorTrainConfig,
    compute_prototypes,
    train_prior,
)
from venomguard.synthetic import SynthConfig, generate

from conftest import constant_prior_artifact
from oracles import oracle_eigvals_jacobi, oracle_metric


def _report(n: int, desc: str, ok: bool) -> None:
    print(f"[criterion {n:02d}] {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n:02d}: {desc}"


def _write_labels(path: Path, ids, labels) -> None:
    lines = ["observation_id,class_id"]
    lines += [f"{i},{c}" for i, c in zip(ids, labels)]
    path.write_text("\n".join(lines) + "\n")


def test_criterion_01_gradient_checks_pass_quickly():
    start = time.perf_counter()
    result = check_loc_loss(trials=20, seed=0)
    elapsed = time.perf_counter() - start
    ok = result.passed and result.max_rel_err < 1e-4 and elapsed < 10.0
    _report(1, "the location loss passes a 20-trial gradient check in < 10 s", ok)


def test_criterion_03_metric_matches_brute_force_oracle(tmp_path):
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(50):
        n_classes = int(rng.integers(2, 21))
        n = int(rng.integers(1, 1001))
        flags = rng.random(n_classes) < 0.4
        truth = rng.integers(0, n_classes, size=n)
        pred = rng.integers(0, n_classes, size=n)
        ids = [f"obs_{i:05d}" for i in range(n)]
        _write_labels(tmp_path / "t.csv", ids, truth)
        perm = rng.permutation(n)
        _write_labels(tmp_path / "p.csv", [ids[i] for i in perm], pred[perm])
        table = ClassTable([f"species_{i}" for i in range(n_classes)], flags)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = score_predictions(tmp_path / "t.csv", tmp_path / "p.csv", table)
            want = oracle_metric(truth.tolist(), pred.tolist(), flags.tolist())
        for field in ("macro_f1", "p1", "p2", "p3", "p4", "accuracy", "composite"):
            worst = max(worst, abs(getattr(got, field) - want[field]))

    # perfect predictions hit the metric's upper bound exactly
    truth = np.array([0, 1, 1, 2, 3])
    table = ClassTable(["a", "b", "c", "d"], [False, True, False, True])
    perfect = build_report(truth, truth, table).composite == 100.0
    hand = abs(track1_metric(50.0, (20.0, 10.0, 0.0, 0.0)) - 1010.0 / 11.0) < 1e-9
    ok = worst < 1e-9 and perfect and hand
    _report(3, "scorer matches the brute-force oracle; perfect = 100; hand case = 1010/11", ok)


def test_criterion_04_constant_prior_changes_nothing(synth7):
    bundle = synth7.bundle
    artifact = constant_prior_artifact(bundle)
    policy = EscalationPolicy(tau=0.5, top_k=5)
    base = predict_dataset(bundle, prior=None, policy=policy)
    flat = predict_dataset(bundle, prior=artifact, policy=policy)
    ok = len(base.results) == len(flat.results) and all(
        a.observation_id == b.observation_id
        and a.class_id == b.class_id
        and a.pre_escalation_class_id == b.pre_escalation_class_id
        for a, b in zip(base.results, flat.results)
    )
    _report(4, "a constant prior vector leaves every prediction unchanged", ok)


def test_criterion_05_escalation_never_adds_venomous_misses():
    policy = EscalationPolicy(tau=0.5, top_k=5)
    safe_counts = True
    no_flips = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(4, 17))
        flags = np.zeros(n_classes, dtype=bool)
        venom_ids = rng.choice(n_classes, size=int(rng.integers(1, n_classes)), replace=False)
        flags[venom_ids] = True
        probs = rng.dirichlet(np.ones(n_classes), size=100)
        truth = rng.integers(0, n_classes, size=100)
        before = probs.argmax(axis=1)
        after = _escalate_rows(probs, before, flags, policy)
        vh_before = int(np.sum(flags[truth] & ~flags[before]))
        vh_after = int(np.sum(flags[truth] & ~flags[after]))
        safe_counts &= vh_after <= vh_before
        no_flips &= bool(np.all(flags[after[flags[before]]]))
    ok = safe_counts and no_flips
    _report(5, "escalation never increases venomous->harmless errors or demotes one", ok)


def test_criterion_06_pca_orthonormal_and_exact():
    rng = np.random.default_rng(6)
    ok = True
    for _ in range(5):
        n = int(rng.integers(8, 21))
        d = int(rng.integers(2, 7))
        x = rng.normal(size=(n, d))
        fm = FeatureMatrix(x)
        model = fit_pca(fm, k=d)
        gram = model.components @ model.components.T
        ok &= bool(np.allclose(gram, np.eye(d), atol=1e-8))
        back = pca_inverse(model, pca_transform(model, fm))
        ok &= bool(np.allclose(back.values, x, atol=1e-8))
        centered = x - x.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        want = oracle_eigvals_jacobi(cov)
        ok &= bool(np.allclose(model.eigenvalues, want, atol=1e-8))
    _report(6, "PCA is orthonormal, inverts at full rank, and matches Jacobi eigenvalues", ok)


def test_criterion_07_optimizer_and_schedule_contracts():
    # pure weight decay, no gradient signal
    state = AdamWState.zeros(4, weight_decay=2e-5)
    params = np.ones(4)
    lr = 1e-3
    decay_ok = True
    for t in range(1, 1001):
        params = adamw_step(params, np.zeros(4), state, lr=lr)
        decay_ok &= bool(np.all(np.abs(params - (1.0 - lr * 2e-5) ** t) < 1e-12))

    state = AdamWState.zeros(1, weight_decay=0.0)
    theta = np.array([5.0])
    for _ in range(10_000):
        theta = adamw_step(theta, theta.copy(), state, lr=1e-2)
    quad_ok = abs(theta[0]) < 1e-3

    sched = CosineSchedule(warmup_steps=100, total_steps=1000)
    endpoints_ok = (
        lr_at(sched, 0) == 2e-7
        and lr_at(sched, 100) == 2e-5
        and lr_at(sched, 999) == 0.0
    )
    ok = decay_ok and quad_ok and endpoints_ok
    _report(7, "AdamW decay/convergence and schedule endpoints are exact", ok)


def test_criterion_08_prior_and_escalation_beat_baseline():
    start = time.perf_counter()

    gen = generate(SynthConfig())
    bundle = gen.bundle
    labels = np.array([r.class_id for r in bundle.observations.labeled_rows()])
    proto = compute_prototypes(bundle.embeddings, labels, bundle.classes.n_classes)
    pca = fit_pca(bundle.metadata_features, k=8)
    reduced = pca_transform(pca, bundle.metadata_features)
    mlp, trace = train_prior(
        replace(bundle, metadata_features=reduced),
        proto,
        PriorTrainConfig(
            epochs=30, batch_size=256, hidden=64, seed=0, base_lr=5e-3, warmup_lr=5e-5
        ),
    )
    artifact = PriorArtifact(mlp=mlp, prototypes=proto, pca=pca)

    ids = sorted(gen.truth)
    truth = np.array([gen.truth[i] for i in ids])

    def scored(prior, tau):
        out = predict_dataset(bundle, prior=prior, policy=EscalationPolicy(tau=tau, top_k=5))
        assert [r.observation_id for r in out.results] == ids
        pred = np.array([r.class_id for r in out.results])
        return build_report(truth, pred, bundle.classes)

    base = scored(None, 0.0)
    full = scored(artifact, 0.2)
    elapsed = time.perf_counter() - start

    ok = (
        trace[-1] < trace[0]
        and full.macro_f1 > base.macro_f1
        and full.composite >= base.composite
        and elapsed < 60.0
    )
    _report(
        8,
        f"prior + escalation beat baseline (F1 {base.macro_f1:.2f} -> {full.macro_f1:.2f}, "
        f"M {base.composite:.2f} -> {full.composite:.2f}) in {elapsed:.1f} s",
        ok,
    )


def test_criterion_09_cli_pipeline_is_byte_deterministic(tmp_path, capsys):
    def pipeline(root: Path) -> None:
        data = root / "data"
        argvs = [
            ["synth", "--seed", "21", "--classes", "10", "--observations", "300",
             "-o", str(data)],
            ["pca", str(data / "metadata_features.vgf1"), "-k", "4",
             "-o", str(root / "pca.bin")],
            ["train-prior", str(data), "--pca", str(root / "pca.bin"),
             "-o", str(root / "prior.bin"), "--epochs", "5", "--batch", "64",
             "--hidden", "16", "--base-lr", "5e-3", "--warmup-lr", "5e-5"],
            ["infer", str(data), "--prior", str(root / "prior.bin"),
             "--tau", "0.3", "-o", str(root / "preds.csv")],
            ["score", "--truth", str(data / "truth.csv"),
             "--pred", str(root / "preds.csv"),
             "--classes", str(data / "classes.csv"),
             "--json", str(root / "report.json")],
        ]
        for argv in argvs:
            assert main(argv) == 0

    a, b = tmp_path / "a", tmp_path / "b"
    pipeline(a)
    pipeline(b)
    capsys.readouterr()

    rel = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    ok = rel == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    for r in rel:
        ok &= filecmp.cmp(a / r, b / r, shallow=False)
    _report(9, f"rerunning the CLI pipeline reproduces all {len(rel)} artifacts byte-for-byte", ok)


def test_criterion_10_feature_file_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(10)
    shapes = [(0, 3), (1, 1)]
    shapes += [
        (int(rng.integers(0, 9)), int(rng.integers(1, 7))) for _ in range(998)
    ]
    first, second = tmp_path / "m1.vgf1", tmp_path / "m2.vgf1"
    ok = True
    for shape in shapes:
        values = rng.normal(scale=100.0, size=shape).astype(np.float32).astype(np.float64)
        write_records(first, [FeatureMatrix(values)])
        (back,) = read_records(first, 1)
        ok &= bool(np.array_equal(back.values, values))
        write_records(second, [back])
        ok &= first.read_bytes() == second.read_bytes()
    _report(10, "1000 random matrices round-trip bit-exactly, edge shapes included", ok)
