"""The two closed-loop workloads: infer-50k and cli-5k.

Prior training has no workload of its own: infer-50k times a fresh
training in every iteration, apart from its load..score cycle, and cli-5k
runs the train-prior command in every chain. A third, training-only
workload was dropped so that the two left run longer within the time the
benchmark is given, on a host whose speed drifts over minutes.

Each workload sets up at least SETUP_REPEATS times and for at least
SETUP_SECONDS (setup_s is the median set-up), then
runs one client in a closed loop for the requested seconds (at least
MIN_ITERATIONS iterations), then checks its outputs. A workload returns
the samples of each timing metric (one per set-up or iteration), as
(work, seconds) pairs for the throughput metrics, and the single values of
the others. Every set-up, iteration and check is one attempted operation;
it fails on an exception, a non-zero exit code, or a wrong or
non-deterministic output.

Inputs: the dataset world (species list, venomous flags, class geography)
is generated from the fixed WORLD_SEED, the README's seed. Between
generator seeds, which species are venomous moves venom_miss_pct by
30-60%, wider than any regression bound, so the generator seed is not
varied. The workload seed gives TRAIN_SEEDS prior-training seeds
(initialisation, balanced sampler, random locations, dropout) and the
sample the reference checks. Iteration i trains with training seed
i % TRAIN_SEEDS, so an iteration's output must equal that of the
iteration TRAIN_SEEDS before it, and the decision quality (composite,
venom_miss_pct) is the mean over the TRAIN_SEEDS priors: one prior's
venom_miss_pct moves by about 15% between training seeds.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from venomguard import data_model, inference, linalg_pca, metrics, prior_model, synthetic
from venomguard.data_model import FeatureMatrix
from venomguard.inference import EscalationPolicy
from venomguard.prior_model import PriorArtifact, PriorTrainConfig
from venomguard.synthetic import SynthConfig

import reference
from tracing import Tracer

WORLD_SEED = 7
SETUP_REPEATS = 5
SETUP_SECONDS = 3.0
TRAIN_SEEDS = 4
# one iteration more than the training seeds, so that every run repeats a
# seed and checks that its output is identical
MIN_ITERATIONS = TRAIN_SEEDS + 1
TAU = 0.2
TOP_K = 5
PCA_K = 8
HIDDEN = 64
BATCH = 256
BASE_LR = 5e-3
WARMUP_LR = 5e-5


@dataclass(frozen=True)
class Sizes:
    infer_obs: int = 50_000
    infer_epochs: int = 3
    cli_obs: int = 5_000
    cli_epochs: int = 10
    reference_sample: int = 200


# The smoke test's sizes. infer-50k keeps enough steps (2000 observations,
# 40 epochs) for the prior to beat the no-prior baseline, which it checks.
SMOKE = Sizes(infer_obs=2000, infer_epochs=40, cli_obs=300, cli_epochs=1,
              reference_sample=30)


class Context:
    """One run: its settings, the operation tally and the optional tracer."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float,
                 sizes: Sizes, tracer: Tracer | None, corrupt: bool):
        self.root, self.work, self.seed, self.seconds = root, work, seed, seconds
        self.sizes, self.tracer, self.corrupt = sizes, tracer, corrupt
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def round(self, name: str):
        if self.tracer:
            self.tracer.round = name
            return self.tracer.span(f"workload.{name.rstrip('0123456789')}")
        return nullcontext()

    def train_seed(self, i: int) -> int:
        """The prior-training seed of iteration ``i``."""
        return self.seed * TRAIN_SEEDS + i % TRAIN_SEEDS

    def untraced(self):
        return self.tracer.suspended() if self.tracer else nullcontext()

    def setup_rounds(self):
        """Set-up indices: at least SETUP_REPEATS, and more until
        SETUP_SECONDS have passed, so that a short set-up is sampled often."""
        start = time.perf_counter()
        i = 0
        while i < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
            yield i
            i += 1

    def loop(self, body) -> None:
        """Run ``body(i)`` until ``seconds`` have passed; exceptions count as
        failed iterations and end the loop. The objects the set-up left
        alive are kept out of the garbage collector's passes meanwhile, as
        a user's process would not hold them."""
        gc.collect()
        gc.freeze()
        start = time.perf_counter()
        i = 0
        try:
            while i < MIN_ITERATIONS or time.perf_counter() - start < self.seconds:
                with self.round(f"iteration{i}"):
                    try:
                        body(i)
                    except Exception as exc:  # counted, reported, loop ends
                        self.check(False, f"iteration {i}: {exc!r}")
                        return
                i += 1
        finally:
            gc.unfreeze()


def _train_cfg(seed: int, epochs: int) -> PriorTrainConfig:
    return PriorTrainConfig(epochs=epochs, batch_size=BATCH, hidden=HIDDEN, seed=seed,
                            base_lr=BASE_LR, warmup_lr=WARMUP_LR)


def _steps(n_obs: int, epochs: int) -> int:
    return epochs * math.ceil(n_obs / BATCH)


def _prepare(bundle):
    """PCA, prototypes and the reduced training bundle, as the CLI does them."""
    pca = linalg_pca.fit_pca(bundle.metadata_features, PCA_K)
    reduced = linalg_pca.pca_transform(pca, bundle.metadata_features)
    rows = bundle.observations.labeled_rows()
    feats = FeatureMatrix(bundle.embeddings.values[[r.image_index for r in rows]])
    labels = np.array([r.class_id for r in rows], dtype=np.int64)
    proto = prior_model.compute_prototypes(feats, labels, bundle.classes.n_classes)
    return pca, proto, replace(bundle, metadata_features=reduced)


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        files = sorted(q for q in p.rglob("*") if q.is_file()) if p.is_dir() else [p]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _reference_check(ctx: Context, data_dir: Path, pred_csv: Path, artifact) -> None:
    predicted = reference.read_predictions(pred_csv)
    ids = reference.sample_ids(data_dir, ctx.seed, ctx.sizes.reference_sample)
    if ctx.corrupt:
        predicted[ids[0]] = (predicted[ids[0]] + 1) % len(artifact.prototypes.matrix[0])
    expected = reference.predict(data_dir, ids, reference.weights_of(artifact), TAU, TOP_K)
    bad = reference.mismatches(predicted, expected)
    ctx.check(not bad, f"reference check: {len(bad)} of {len(ids)} differ: {bad[:3]}")


def _quality(report) -> dict:
    return {"composite": report.composite, "venom_miss_pct": report.p3}


def _mean_quality(per_seed: list[dict]) -> dict:
    """Quality averaged over the priors of the TRAIN_SEEDS training seeds."""
    if not per_seed:
        return {}
    return {k: sum(q[k] for q in per_seed) / len(per_seed) for k in per_seed[0]}


# ---------------------------------------------------------------------------
# infer-50k
# ---------------------------------------------------------------------------

def infer_50k(ctx: Context) -> dict:
    sz = ctx.sizes
    base = ctx.work / "infer"
    data, prior_path = base / "data", base / "prior.bin"
    setups, digests = [], []
    for i in ctx.setup_rounds():
        shutil.rmtree(base, ignore_errors=True)
        with ctx.round(f"setup{i}"):
            t0 = time.perf_counter()
            gen = synthetic.generate(SynthConfig(seed=WORLD_SEED, n_observations=sz.infer_obs))
            synthetic.write_dataset(gen, data)
            pca, proto, train_bundle = _prepare(gen.bundle)
            setups.append(time.perf_counter() - t0)
        digests.append(_digest(data))
        ctx.check(digests[-1] == digests[0], f"set-up {i} differs from set-up 0")
        del gen
        gc.collect()

    pred_csv, truth = base / "preds.csv", data / "truth.csv"
    steps = _steps(sz.infer_obs, sz.infer_epochs)
    walls, rates, train_rates, traces, outputs, quality = [], [], [], [], [], []

    def iteration(i):
        # a fresh prior for this iteration's training seed, timed apart from
        # the load..score cycle
        t0 = time.perf_counter()
        mlp, trace = prior_model.train_prior(train_bundle, proto,
                                             _train_cfg(ctx.train_seed(i), sz.infer_epochs))
        train_time = time.perf_counter() - t0
        traces.append(trace)
        ok = all(math.isfinite(v) for v in trace) and (
            i < TRAIN_SEEDS or trace == traces[i - TRAIN_SEEDS])
        if ctx.check(ok, f"iteration {i}: loss trace not finite or differs from "
                         f"iteration {i - TRAIN_SEEDS}"):
            train_rates.append((steps, train_time))
        prior_model.save_prior(PriorArtifact(mlp=mlp, prototypes=proto, pca=pca), prior_path)
        del mlp
        gc.collect()

        t0 = time.perf_counter()
        bundle = data_model.load_bundle(data, allow_unlabeled=True)
        bundle, _ = data_model.validate_bundle(bundle, mode="strict")
        prior = prior_model.load_prior(prior_path)
        out = inference.predict_dataset(bundle, prior=prior, policy=EscalationPolicy(TAU, TOP_K))
        inference.write_predictions_csv(pred_csv, out.results)
        report = metrics.score_predictions(truth, pred_csv, bundle.classes)
        wall = time.perf_counter() - t0
        n_obs = len(out.results)
        del bundle, out
        gc.collect()
        outputs.append(_digest(pred_csv))
        quality.append(_quality(report))
        if i < TRAIN_SEEDS:
            with ctx.untraced():
                _reference_check(ctx, data, pred_csv, prior)
        ok = i < TRAIN_SEEDS or (outputs[-1] == outputs[i - TRAIN_SEEDS]
                                 and quality[-1] == quality[i - TRAIN_SEEDS])
        if ctx.check(ok, f"iteration {i}: predictions differ from iteration {i - TRAIN_SEEDS}"):
            walls.append(wall)
            rates.append((n_obs, wall))

    ctx.loop(iteration)
    peak = _peak_rss_mb()
    base_csv = base / "baseline.csv"
    with ctx.untraced():
        out = inference.predict_dataset(train_bundle, prior=None,
                                        policy=EscalationPolicy(0.0, TOP_K))
        inference.write_predictions_csv(base_csv, out.results)
        baseline = metrics.score_predictions(truth, base_csv, train_bundle.classes)
    for k, q in enumerate(quality[:TRAIN_SEEDS]):
        ctx.check(q["composite"] > baseline.composite,
                  f"prior {k}: prior + escalation composite {q['composite']:.4f} does not "
                  f"beat the no-prior baseline {baseline.composite:.4f}")
    return {
        "setup_s": setups,
        "obs_per_s": rates,
        "train_steps_per_s": train_rates,
        "pipeline_s": walls,
        "peak_rss_mb": peak,
        **_mean_quality(quality[:TRAIN_SEEDS]),
    }


# ---------------------------------------------------------------------------
# cli-5k
# ---------------------------------------------------------------------------

# Mirrors the ``venomguard`` console script; the checkout is not installed.
CLI_ENTRY = "import sys; from venomguard.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import venomguard.cli; "
                "print(repr(time.perf_counter() - t))")


def _chain(ctx: Context, base: Path, train_seed: int) -> list[tuple[str, list[str]]]:
    sz = ctx.sizes
    data = base / "data"
    return [
        ("synth", ["synth", "--seed", str(WORLD_SEED), "--observations", str(sz.cli_obs),
                   "-o", str(data)]),
        ("validate", ["validate", str(data)]),
        ("pca", ["pca", str(data / "metadata_features.vgf1"), "-k", str(PCA_K),
                 "-o", str(base / "pca.bin")]),
        ("train-prior", ["train-prior", str(data), "--pca", str(base / "pca.bin"),
                         "-o", str(base / "prior.bin"), "--epochs", str(sz.cli_epochs),
                         "--batch", str(BATCH), "--hidden", str(HIDDEN),
                         "--base-lr", repr(BASE_LR), "--warmup-lr", repr(WARMUP_LR),
                         "--seed", str(train_seed)]),
        ("infer", ["infer", str(data), "--prior", str(base / "prior.bin"), "--tau", repr(TAU),
                   "-o", str(base / "preds.csv")]),
        ("score", ["score", "--truth", str(data / "truth.csv"), "--pred", str(base / "preds.csv"),
                   "--classes", str(data / "classes.csv"), "--json", str(base / "score.json")]),
    ]


def cli_5k(ctx: Context) -> dict:
    sz = ctx.sizes
    base = ctx.work / "cli"
    base.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    setups = []
    for i in ctx.setup_rounds():
        # a fresh interpreter importing the CLI: fills the bytecode and page
        # caches every later command reads
        with ctx.round(f"setup{i}"):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                                  capture_output=True, text=True, timeout=60)
            setups.append(time.perf_counter() - t0)
        if ctx.check(proc.returncode == 0, f"import probe exited {proc.returncode}") and ctx.tracer:
            ctx.tracer.count("cli.import_s", float(proc.stdout.strip()))

    child = ctx.root / "benchmark" / "cli_child.py"
    walls, rates, train_rates, outputs, quality = [], [], [], {}, []
    steps = _steps(sz.cli_obs, sz.cli_epochs)

    def iteration(i):
        stderr_bytes = 0
        command_walls = {}
        ok = True
        t0 = time.perf_counter()
        for name, argv in _chain(ctx, base, ctx.train_seed(i)):
            if ctx.tracer:
                spans_file = base / f"spans-{name}.json"
                cmd = [sys.executable, str(child), str(spans_file), *argv]
            else:
                cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
            with (ctx.tracer.span(f"cli.{name}") if ctx.tracer else nullcontext()):
                c0 = time.perf_counter()
                proc = subprocess.run(cmd, env=env, capture_output=True, timeout=120)
                command_walls[name] = time.perf_counter() - c0
                if ctx.tracer and spans_file.exists():
                    ctx.tracer.adopt(json.loads(spans_file.read_text()))
            stderr_bytes += len(proc.stderr)
            if not ctx.check(proc.returncode == 0,
                             f"chain {i}: {name} exited {proc.returncode}: {proc.stderr[-300:]!r}"):
                ok = False
                break
        wall = time.perf_counter() - t0
        if not ok:
            return
        if ctx.tracer:
            ctx.tracer.count("cli.stderr_bytes", stderr_bytes)
        pred_csv = base / "preds.csv"
        outputs[i] = _digest(pred_csv)
        score = json.loads((base / "score.json").read_text())
        if i < TRAIN_SEEDS:
            quality.append({"composite": score["composite"], "venom_miss_pct": score["p3"]})
            with ctx.untraced():
                _reference_check(ctx, base / "data", pred_csv,
                                 prior_model.load_prior(base / "prior.bin"))
        ok = outputs[i] == outputs.get(i - TRAIN_SEEDS, outputs[i])
        if ctx.check(ok, f"chain {i}: predictions differ from chain {i - TRAIN_SEEDS}"):
            walls.append(wall)
            rates.append((sz.cli_obs, wall))
            train_rates.append((steps, command_walls["train-prior"]))

    ctx.loop(iteration)
    return {
        "setup_s": setups,
        "obs_per_s": rates,
        "train_steps_per_s": train_rates,
        "pipeline_s": walls,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        **_mean_quality(quality),
    }


WORKLOADS = {"infer-50k": infer_50k, "cli-5k": cli_5k}
