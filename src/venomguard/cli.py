"""Batch command line: dataset validation, PCA, prior training, inference,
scoring, gradient checks, and synthetic data generation.

Exit codes: 0 success, 1 usage errors, 2 parse/validation/check failures,
3 binary-format and OS I/O failures.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .data_model import (
    BUNDLE_FILENAMES,
    load_bundle,
    parse_classes_csv,
    read_records,
    validate_bundle,
    write_manifest,
)
from .errors import BundleValidationError, CsvParseError, FormatError
from .gradcheck import check_loc_loss
from .inference import EscalationPolicy, predict_dataset, write_predictions_csv
from .linalg_pca import fit_pca, load_pca, save_pca
from .metrics import report_json, report_text, score_predictions
from .prior_model import PriorTrainConfig, fit_prior, load_prior, save_prior
from .synthetic import SynthConfig, generate, write_dataset

# config key -> the settings field it fills
_PRIOR_FIELDS = {
    # synth and gradcheck read this seed too, so their default is the prior's 0
    "seed": "seed",
    "prior_hidden": "hidden",
    "prior_dropout": "dropout_rate",
    "prior_lambda": "lam",
    "prior_epochs": "epochs",
    "prior_batch": "batch_size",
    "base_lr": "base_lr",
    "warmup_lr": "warmup_lr",
}
_SYNTH_FIELDS = {
    "synth_classes": "n_classes",
    "synth_ratio": "imbalance_ratio",
    "synth_informativeness": "location_informativeness",
    "synth_observations": "n_observations",
}


def _fields(cfg: dict[str, object], keys: dict[str, str]) -> dict[str, object]:
    return {field: cfg[key] for key, field in keys.items()}


_PRIOR, _SYNTH = PriorTrainConfig(), SynthConfig()

# One flat namespace for every tunable setting; subcommands read the slice
# they need, and explicit flags override these.
# Each default lives in its settings dataclass, except pca_k, which no
# settings object holds.
DEFAULTS: dict[str, object] = {
    **{key: getattr(_PRIOR, field) for key, field in _PRIOR_FIELDS.items()},
    **{key: getattr(_SYNTH, field) for key, field in _SYNTH_FIELDS.items()},
    **asdict(EscalationPolicy()),
    "pca_k": 8,
}


def resolve_config(overrides: dict[str, object]) -> dict[str, object]:
    """Defaults, then every override that names a config key and is not
    None."""
    cfg = dict(DEFAULTS)
    for key, value in overrides.items():
        if key in DEFAULTS and value is not None:
            cfg[key] = value
    for key in sorted(cfg):
        print(f"config {key} = {cfg[key]}", file=sys.stderr)
    return cfg


def _refuse_clash(outputs: dict[str, str], inputs: list[tuple[str, str | Path]]) -> None:
    """A ValueError (exit 1), raised before any file is read or written,
    when an output flag's path resolves to an input's path or to an output
    named before it. A pipe such as ``<(cat f)`` resolves to its own
    ``pipe:[inode]`` name, so it clashes with nothing else."""
    taken = {Path(path).resolve(): f"{what} {path}" for what, path in inputs}
    for flag, path in outputs.items():
        resolved = Path(path).resolve()
        if resolved in taken:
            raise ValueError(f"{flag} {path} is the {taken[resolved]}")
        taken[resolved] = f"output path {path}"


def _bundle_files(directory: str) -> list[tuple[str, Path]]:
    return [("bundle file", Path(directory) / name) for name in BUNDLE_FILENAMES]


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the contract reserves 2 for
    # validation failures, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def build_parser() -> _Parser:
    """Each setting flag's dest is the config key it overrides."""
    parser = _Parser(prog="venomguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check a dataset bundle")
    p.add_argument("directory")
    p.add_argument(
        "--mode",
        choices=("strict", "drop"),
        default="strict",
        help="strict fails on broken references; drop removes them (default strict)",
    )

    p = sub.add_parser("pca", help="fit a feature reduction")
    p.add_argument("features", help="input feature matrix (.vgf1)")
    p.add_argument("-k", dest="pca_k", type=int, help=f"components (default {DEFAULTS['pca_k']})")
    p.add_argument("-o", "--output", required=True, help="model output path")

    p = sub.add_parser("train-prior", help="train the location prior")
    p.add_argument("directory")
    p.add_argument("--pca", required=True, help="fitted reduction model path")
    p.add_argument("-o", "--output", required=True, help="prior artifact output path")
    p.add_argument("--trace", default=None, help="loss trace CSV (default <output>.trace.csv)")
    p.add_argument("--epochs", dest="prior_epochs", type=int)
    p.add_argument("--batch", dest="prior_batch", type=int)
    p.add_argument("--hidden", dest="prior_hidden", type=int)
    p.add_argument("--dropout", dest="prior_dropout", type=float)
    p.add_argument("--lambda", dest="prior_lambda", type=float, help="positive-term weight")
    p.add_argument("--base-lr", type=float)
    p.add_argument("--warmup-lr", type=float)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("infer", help="predict classes per observation")
    p.add_argument("directory")
    p.add_argument("--prior", default=None, help="trained prior artifact")
    p.add_argument("--tau", type=float, help="escalation confidence threshold")
    p.add_argument("--top-k", type=int, help="candidates examined for escalation")
    p.add_argument("--explain", action="store_true", help="add pre-escalation columns")
    p.add_argument("-o", "--output", required=True, help="prediction CSV path")

    p = sub.add_parser("score", help="score predictions against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--classes", required=True, help="classes.csv with venomous flags")
    p.add_argument("--json", default=None, help="also write the report as JSON")

    p = sub.add_parser("gradcheck", help="finite-difference check of the location loss")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--seed", type=int)
    p.add_argument("--classes", dest="synth_classes", type=int)
    p.add_argument("--observations", dest="synth_observations", type=int)
    p.add_argument("--ratio", dest="synth_ratio", type=float, help="head:tail imbalance")
    p.add_argument("--informativeness", dest="synth_informativeness", type=float)
    p.add_argument("-o", "--output", required=True, help="target directory")
    return parser


def _cmd_validate(args, cfg) -> int:
    bundle = load_bundle(args.directory, allow_unlabeled=True)
    cleaned, report = validate_bundle(bundle, mode=args.mode)
    print(
        f"classes={cleaned.classes.n_classes} "
        f"observations={cleaned.observations.ids.size} "
        f"rows={len(cleaned.observations)} "
        f"locations={cleaned.locations.codes.size} "
        f"dropped={report.dropped_rows}"
    )
    return 0


def _cmd_pca(args, cfg) -> int:
    _refuse_clash({"-o": args.output}, [("features file", args.features)])
    (matrix,) = read_records(args.features, 1)
    model = fit_pca(matrix, cfg["pca_k"])
    save_pca(model, args.output)
    explained = float(model.eigenvalues.sum())
    print(f"pca k={model.k} d={model.d_in} variance={explained!r}")
    return 0


def _cmd_train_prior(args, cfg) -> int:
    # a bad setting exits before any file is read
    train_cfg = PriorTrainConfig(**_fields(cfg, _PRIOR_FIELDS))
    trace_path = args.trace or f"{args.output}.trace.csv"
    _refuse_clash(
        {"-o": args.output, "--trace": trace_path},
        [("--pca path", args.pca), *_bundle_files(args.directory)],
    )
    bundle = load_bundle(args.directory, allow_unlabeled=True)
    bundle, _ = validate_bundle(bundle, mode="strict")
    pca = load_pca(args.pca)
    artifact, trace = fit_prior(bundle, pca, train_cfg)
    save_prior(artifact, args.output)
    write_manifest(trace_path, ["epoch", "mean_loss"], [range(len(trace)), trace])
    first = trace[0] if trace else float("nan")
    last = trace[-1] if trace else float("nan")
    print(f"trained epochs={len(trace)} first_loss={first!r} last_loss={last!r}")
    return 0


def _cmd_infer(args, cfg) -> int:
    # a bad setting exits before any file is read
    policy = EscalationPolicy(tau=cfg["tau"], top_k=cfg["top_k"])
    inputs = _bundle_files(args.directory)
    if args.prior:
        inputs.append(("--prior path", args.prior))
    _refuse_clash({"-o": args.output}, inputs)
    bundle = load_bundle(args.directory, allow_unlabeled=True)
    bundle, _ = validate_bundle(bundle, mode="strict")
    prior = load_prior(args.prior) if args.prior else None
    output = predict_dataset(bundle, prior=prior, policy=policy)
    write_predictions_csv(args.output, output.results, explain=args.explain)
    print(f"predicted {len(output.results)} observations -> {args.output}")
    return 0


def _cmd_score(args, cfg) -> int:
    if args.json:
        _refuse_clash(
            {"--json": args.json},
            [
                ("--truth path", args.truth),
                ("--pred path", args.pred),
                ("--classes path", args.classes),
            ],
        )
    classes = parse_classes_csv(args.classes)
    report = score_predictions(args.truth, args.pred, classes)
    sys.stdout.write(report_text(report))
    if args.json:
        Path(args.json).write_text(report_json(report), encoding="utf-8")
    return 0


def _cmd_gradcheck(args, cfg) -> int:
    r = check_loc_loss(trials=args.trials, seed=cfg["seed"])
    status = "PASS" if r.passed else "FAIL"
    print(f"loc: trials={r.trials} max_rel_err={r.max_rel_err:.3e} {status}")
    return 0 if r.passed else 2


def _cmd_synth(args, cfg) -> int:
    synth_cfg = SynthConfig(seed=cfg["seed"], **_fields(cfg, _SYNTH_FIELDS))
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
        return _COMMANDS[args.command](args, resolve_config(vars(args)))
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
