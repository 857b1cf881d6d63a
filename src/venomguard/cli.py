"""Batch command line: dataset validation, PCA, prior training, inference,
scoring, gradient checks, and synthetic data generation.

Exit codes: 0 success, 1 usage errors, 2 parse/validation/check failures,
3 binary-format and OS I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data_model import (
    load_bundle,
    parse_classes_csv,
    read_feature_matrix,
    validate_bundle,
)
from .errors import BundleValidationError, CsvParseError, FormatError
from .gradcheck import check_loc_loss
from .inference import EscalationPolicy, predict_dataset, write_predictions_csv
from .linalg_pca import fit_pca, load_pca, save_pca
from .metrics import (
    MetricWeights,
    report_json,
    report_text,
    score_predictions,
)
from .prior_model import PriorTrainConfig, fit_prior, load_prior, save_prior
from .synthetic import SynthConfig, generate, write_dataset

# One flat namespace for every tunable default; subcommands read the slice
# they need. File values override these, explicit flags override the file.
DEFAULTS: dict[str, object] = {
    "seed": 0,
    # composite metric
    "w1": 1.0,
    "w2": 1.0,
    "w3": 2.0,
    "w4": 5.0,
    "w5": 2.0,
    "pdenom": "status",
    "f1_all_classes": False,
    # inference
    "tau": 0.5,
    "top_k": 5,
    # dimensionality reduction
    "pca_k": 8,
    # prior training
    "prior_hidden": 256,
    "prior_dropout": 0.3,
    "prior_lambda": 10.0,
    "prior_epochs": 30,
    "prior_batch": 256,
    "base_lr": 2e-5,
    "warmup_lr": 2e-7,
    "final_lr": 0.0,
    "beta1": 0.9,
    "beta2": 0.999,
    "adam_eps": 1e-8,
    "weight_decay": 2e-5,
    # synthetic generation
    "synth_classes": 50,
    "synth_ratio": 100.0,
    "synth_dims_meta": 8,
    "synth_dims_proto": 16,
    "synth_venom_fraction": 0.25,
    "synth_informativeness": 0.8,
    "synth_observations": 5000,
    "synth_images_min": 1,
    "synth_images_max": 3,
}

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


def _coerce(key: str, raw: str) -> object:
    default = DEFAULTS[key]
    raw = raw.strip()
    if isinstance(default, bool):
        low = raw.lower()
        if low in _TRUTHY:
            return True
        if low in _FALSY:
            return False
        raise ValueError(f"config key {key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    return raw


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Flat ``key = value`` lines; blank lines and ``#`` comments ignored."""
    out: dict[str, object] = {}
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        out[key] = _coerce(key, raw)
    return out


def resolve_config(
    config_path: str | None, overrides: dict[str, object]
) -> dict[str, object]:
    cfg = dict(DEFAULTS)
    if config_path:
        cfg.update(parse_config_file(config_path))
    for key, value in overrides.items():
        if value is not None:
            cfg[key] = value
    for key in sorted(cfg):
        print(f"config {key} = {cfg[key]}", file=sys.stderr)
    return cfg


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")

    parser = _Parser(prog="venomguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", parents=[common], help="check a dataset bundle")
    p.add_argument("directory")
    p.add_argument(
        "--mode",
        choices=("strict", "drop"),
        default="strict",
        help="strict fails on broken references; drop removes them (default strict)",
    )

    p = sub.add_parser("pca", parents=[common], help="fit a feature reduction")
    p.add_argument("features", help="input feature matrix (.vgf1)")
    p.add_argument("-k", type=int, default=None, help=f"components (default {DEFAULTS['pca_k']})")
    p.add_argument("-o", "--output", required=True, help="model output path")

    p = sub.add_parser("train-prior", parents=[common], help="train the location prior")
    p.add_argument("directory")
    p.add_argument("--pca", required=True, help="fitted reduction model path")
    p.add_argument("-o", "--output", required=True, help="prior artifact output path")
    p.add_argument("--trace", default=None, help="loss trace CSV (default <output>.trace.csv)")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--dropout", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None, help="positive-term weight")
    p.add_argument("--base-lr", type=float, default=None)
    p.add_argument("--warmup-lr", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("infer", parents=[common], help="predict classes per observation")
    p.add_argument("directory")
    p.add_argument("--prior", default=None, help="trained prior artifact")
    p.add_argument("--tau", type=float, default=None, help="escalation confidence threshold")
    p.add_argument("--top-k", type=int, default=None, help="candidates examined for escalation")
    p.add_argument("--no-escalate", action="store_true", help="plain argmax decisions")
    p.add_argument("--explain", action="store_true", help="add pre-escalation columns")
    p.add_argument(
        "--probabilities",
        action="store_true",
        help="treat stored image scores as probabilities, not logits",
    )
    p.add_argument("-o", "--output", required=True, help="prediction CSV path")

    p = sub.add_parser("score", parents=[common], help="score predictions against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--classes", required=True, help="classes.csv with venomous flags")
    p.add_argument("--pdenom", choices=("status", "all", "errors"), default=None)
    p.add_argument("--f1-all-classes", action="store_true", default=None)
    p.add_argument("--json", default=None, help="also write the report as JSON")

    p = sub.add_parser(
        "gradcheck", parents=[common], help="finite-difference check of the location loss"
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("synth", parents=[common], help="generate a synthetic dataset")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--observations", type=int, default=None)
    p.add_argument("--ratio", type=float, default=None, help="head:tail imbalance")
    p.add_argument("--informativeness", type=float, default=None)
    p.add_argument("-o", "--output", required=True, help="target directory")
    return parser


def _cmd_validate(args) -> int:
    resolve_config(args.config, {})
    bundle = load_bundle(args.directory, allow_unlabeled=True)
    cleaned, report = validate_bundle(bundle, mode=args.mode)
    print(
        f"classes={cleaned.classes.n_classes} "
        f"observations={cleaned.observations.ids.size} "
        f"rows={len(cleaned.observations)} "
        f"locations={len(cleaned.locations.entries)} "
        f"dropped={report.dropped_rows}"
    )
    return 0


def _cmd_pca(args) -> int:
    cfg = resolve_config(args.config, {"pca_k": args.k})
    matrix = read_feature_matrix(args.features)
    model = fit_pca(matrix, int(cfg["pca_k"]))
    save_pca(model, args.output)
    explained = float(model.eigenvalues.sum())
    print(f"pca k={model.k} d={model.d_in} variance={explained!r}")
    return 0


def _cmd_train_prior(args) -> int:
    cfg = resolve_config(
        args.config,
        {
            "prior_epochs": args.epochs,
            "prior_batch": args.batch,
            "prior_hidden": args.hidden,
            "prior_dropout": args.dropout,
            "prior_lambda": args.lam,
            "base_lr": args.base_lr,
            "warmup_lr": args.warmup_lr,
            "seed": args.seed,
        },
    )
    # a bad setting exits before any file is read
    train_cfg = PriorTrainConfig(
        lam=float(cfg["prior_lambda"]),
        epochs=int(cfg["prior_epochs"]),
        batch_size=int(cfg["prior_batch"]),
        seed=int(cfg["seed"]),
        hidden=int(cfg["prior_hidden"]),
        dropout_rate=float(cfg["prior_dropout"]),
        base_lr=float(cfg["base_lr"]),
        warmup_lr=float(cfg["warmup_lr"]),
        final_lr=float(cfg["final_lr"]),
        weight_decay=float(cfg["weight_decay"]),
        beta1=float(cfg["beta1"]),
        beta2=float(cfg["beta2"]),
        eps=float(cfg["adam_eps"]),
    )
    bundle = load_bundle(args.directory, allow_unlabeled=True)
    bundle, _ = validate_bundle(bundle, mode="strict")
    pca = load_pca(args.pca)
    artifact, trace = fit_prior(bundle, pca, train_cfg)
    save_prior(artifact, args.output)

    trace_path = args.trace or f"{args.output}.trace.csv"
    lines = ["epoch,mean_loss"]
    lines += [f"{i},{loss!r}" for i, loss in enumerate(trace)]
    Path(trace_path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    first = trace[0] if trace else float("nan")
    last = trace[-1] if trace else float("nan")
    print(f"trained epochs={len(trace)} first_loss={first!r} last_loss={last!r}")
    return 0


def _cmd_infer(args) -> int:
    cfg = resolve_config(args.config, {"tau": args.tau, "top_k": args.top_k})
    bundle = load_bundle(args.directory, allow_unlabeled=True)
    bundle, _ = validate_bundle(bundle, mode="strict")
    prior = load_prior(args.prior) if args.prior else None
    # tau = 0 makes every row take the confident argmax path
    tau = 0.0 if args.no_escalate else float(cfg["tau"])
    policy = EscalationPolicy(tau=tau, top_k=int(cfg["top_k"]))
    output = predict_dataset(
        bundle, prior=prior, policy=policy, scores_are_logits=not args.probabilities
    )
    write_predictions_csv(args.output, output.results, explain=args.explain)
    print(f"predicted {len(output.results)} observations -> {args.output}")
    return 0


def _cmd_score(args) -> int:
    overrides: dict[str, object] = {"pdenom": args.pdenom}
    if args.f1_all_classes:
        overrides["f1_all_classes"] = True
    cfg = resolve_config(args.config, overrides)
    # a bad setting exits before any file is read
    weights = MetricWeights(
        w1=float(cfg["w1"]),
        w2=float(cfg["w2"]),
        w3=float(cfg["w3"]),
        w4=float(cfg["w4"]),
        w5=float(cfg["w5"]),
    )
    classes = parse_classes_csv(args.classes)
    report = score_predictions(
        args.truth,
        args.pred,
        classes,
        weights=weights,
        pdenom=str(cfg["pdenom"]),
        all_classes=bool(cfg["f1_all_classes"]),
    )
    sys.stdout.write(report_text(report))
    if args.json:
        Path(args.json).write_text(report_json(report), encoding="utf-8")
    return 0


def _cmd_gradcheck(args) -> int:
    cfg = resolve_config(args.config, {"seed": args.seed})
    r = check_loc_loss(trials=args.trials, seed=int(cfg["seed"]))
    status = "PASS" if r.passed else "FAIL"
    print(f"loc: trials={r.trials} max_rel_err={r.max_rel_err:.3e} {status}")
    return 0 if r.passed else 2


def _cmd_synth(args) -> int:
    cfg = resolve_config(
        args.config,
        {
            "seed": args.seed,
            "synth_classes": args.classes,
            "synth_observations": args.observations,
            "synth_ratio": args.ratio,
            "synth_informativeness": args.informativeness,
        },
    )
    synth_cfg = SynthConfig(
        seed=int(cfg["seed"]),
        n_classes=int(cfg["synth_classes"]),
        imbalance_ratio=float(cfg["synth_ratio"]),
        dims_meta=int(cfg["synth_dims_meta"]),
        dims_proto=int(cfg["synth_dims_proto"]),
        venom_fraction=float(cfg["synth_venom_fraction"]),
        location_informativeness=float(cfg["synth_informativeness"]),
        n_observations=int(cfg["synth_observations"]),
        images_per_observation=(
            int(cfg["synth_images_min"]),
            int(cfg["synth_images_max"]),
        ),
    )
    gen = generate(synth_cfg)
    write_dataset(gen, args.output)
    print(
        f"wrote {synth_cfg.n_observations} observations, "
        f"{gen.bundle.image_scores.rows} images, "
        f"head={int(gen.class_counts.max())} tail={int(gen.class_counts.min())} "
        f"-> {args.output}"
    )
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "pca": _cmd_pca,
    "train-prior": _cmd_train_prior,
    "infer": _cmd_infer,
    "score": _cmd_score,
    "gradcheck": _cmd_gradcheck,
    "synth": _cmd_synth,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (CsvParseError, BundleValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
