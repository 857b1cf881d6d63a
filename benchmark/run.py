#!/usr/bin/env python3
"""The venomguard benchmark.

Run from the root of a checkout (the package is imported from ./src):

    python3 benchmark/run.py --workload infer-50k --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 40

A single workload prints an information line (seed, environment, sizes,
samples) and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones from
layers.json, the spans are written to .bench_out/ and the traced run's own
end-to-end numbers are printed too. ``--workload all`` runs every workload
untraced and traced, each in its own process, and reports the tracing
overhead as the difference between the two.

``--smoke`` shrinks the workloads (workloads.SMOKE) for the smoke test;
``--corrupt`` alters one prediction before it is checked, which must be
counted as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("infer-50k", "cli-5k")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "obs_per_s": ("1/s", "higher"),
    "train_steps_per_s": ("1/s", "higher"),
    "pipeline_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "composite": ("score", "higher"),
    "venom_miss_pct": ("%", "lower"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="timed loop length")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the smoke test")
    ap.add_argument("--corrupt", action="store_true", help="alter one prediction before checking")
    return ap.parse_args(argv)


def _environment(nproc: int) -> dict:
    """Leave VENOMGUARD_THREADS unset, as users run it, and give BLAS one
    thread: the prediction pool's threads call into BLAS, and pool threads
    times BLAS threads must not exceed nproc. Must run before numpy is
    imported."""
    os.environ.pop("VENOMGUARD_THREADS", None)
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    return {"nproc": nproc, "python": platform.python_version(),
            "platform": platform.platform(),
            "blas_threads": {v: os.environ[v] for v in BLAS_VARS}}


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def _summary(samples: list):
    """A throughput, whose samples are (work, seconds) pairs, is the work of
    all its samples over their summed time; a time is the median of its
    samples. On a shared VM the speed can switch between two levels within
    a run; a median of rates snaps to one level where the sum weighs both."""
    if isinstance(samples[0], tuple):
        return sum(w for w, _ in samples) / sum(t for _, t in samples)
    return statistics.median(samples)


def _units(metrics: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def _per_layer(tracer, spec: list[dict]) -> tuple[dict, dict]:
    from tracing import median_per_round, per_round

    table = per_round(tracer.spans, tracer.counters)
    table["prior_model.steps"] = table.get("prior_model.loc_loss_batch.calls")
    table["optim.steps"] = table.get("optim.adamw_step.calls")
    obs, esc = table.get("inference.observations"), table.get("inference.escalations")
    if obs:
        table["inference.escalation_rate"] = {r: esc[r] / n for r, n in obs.items() if n}
    values, absent = {}, {}
    for m in spec:
        value = median_per_round(table, m["name"])
        if value is None:
            absent[m["name"]] = f"not called on this workload (measured on {', '.join(m['on'])})"
            value = 0
        values[m["name"]] = value
    return values, absent


def run_one(args) -> int:
    nproc = len(os.sched_getaffinity(0))
    env = _environment(nproc)
    if not (ROOT / "src" / "venomguard" / "__init__.py").is_file():
        print(f"error: no venomguard sources at {ROOT / 'src' / 'venomguard'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import numpy as np

    import venomguard
    from venomguard import inference

    if Path(venomguard.__file__).resolve().parent != ROOT / "src" / "venomguard":
        print(f"error: venomguard imported from {venomguard.__file__}", file=sys.stderr)
        return 2
    worker_count = getattr(inference, "worker_count", None)
    env["worker_count"] = worker_count() if worker_count else None
    if env["worker_count"] and env["worker_count"] > nproc:
        os.environ["VENOMGUARD_THREADS"] = str(nproc)
        env["worker_count_capped_to"] = nproc
    env.update(seed=args.seed, numpy=np.__version__, blas=_blas())

    import workloads
    from tracing import Tracer, write_json

    spec = json.loads((HERE / "layers.json").read_text())["per_layer"]
    sizes = workloads.SMOKE if args.smoke else workloads.Sizes()
    tracer = Tracer() if args.trace else None
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(ROOT, work, args.seed, args.seconds, sizes, tracer, args.corrupt)
    if tracer:
        tracer.install()
    try:
        measured = workloads.WORKLOADS[args.workload](ctx)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    samples = {k: v for k, v in measured.items() if isinstance(v, list)}
    if not all(samples.values()):
        print(f"error: no successful iteration: {ctx.problems}", file=sys.stderr)
        return 1
    end_to_end = {k: _summary(v) if k in samples else v for k, v in measured.items()}
    info = {"workload": args.workload, "env": env, "sizes": asdict(sizes),
            "problems": ctx.problems, "samples": samples}
    if tracer:
        metrics, absent = _per_layer(tracer, spec)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        write_json(trace_file, tracer.dump())
        info.update(traced_end_to_end=end_to_end, absent=absent,
                    trace_file=str(trace_file.relative_to(ROOT)))
        units = {m["name"]: m["unit"] for m in spec}
    else:
        metrics = end_to_end
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
    print(json.dumps(info))
    print(json.dumps({"correct": ctx.failed == 0, "attempted": ctx.attempted,
                      "failed": ctx.failed, "metrics": _units(metrics, units)}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    summary, attempted, failed = {}, 0, 0
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            cmd += ["--smoke"] * args.smoke + ["--corrupt"] * args.corrupt
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            results[trace] = (json.loads(lines[-2]), json.loads(lines[-1]))
            attempted += results[trace][1]["attempted"]
            failed += results[trace][1]["failed"]
        untraced = {k: v["value"] for k, v in results[0][1]["metrics"].items()}
        traced = results[1][0]["traced_end_to_end"]
        overhead = {k: traced[k] - untraced[k] for k in END_TO_END}
        summary[name] = {"end_to_end": untraced, "per_layer": {
            k: v["value"] for k, v in results[1][1]["metrics"].items()},
            "absent": results[1][0]["absent"], "tracing_overhead": overhead}
        print(f"{name}:")
        for metric, (unit, better) in END_TO_END.items():
            print(f"  {metric:<18} {untraced[metric]:>14.6g} {unit:<6} ({better} is better; "
                  f"traced {traced[metric]:.6g}, overhead {overhead[metric]:+.6g})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "workloads": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
