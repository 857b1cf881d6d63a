"""Measure what the metadata prior and venomous escalation add on synthetic data.

Trains the prior once at a fixed seed, then prints the no-prior baseline and
one row per escalation threshold tau. Higher tau fires the venomous-candidate
rule more often: P3 (venomous -> harmless) falls while P2 (harmless ->
venomous) rises, and macro F1 pays for the swapped-in lower-probability
predictions. The composite weighs that trade 5:1.
"""

import argparse
import time

import numpy as np

from venomguard.inference import EscalationPolicy, predict_dataset
from venomguard.linalg_pca import fit_pca
from venomguard.metrics import build_report
from venomguard.prior_model import PriorTrainConfig, fit_prior
from venomguard.synthetic import SynthConfig, generate


def run(seed: int, epochs: int, taus: list[float]) -> None:
    start = time.perf_counter()
    gen = generate(SynthConfig(seed=seed))
    bundle = gen.bundle
    artifact, trace = fit_prior(
        bundle,
        fit_pca(bundle.metadata_features, k=8),
        PriorTrainConfig(
            epochs=epochs, batch_size=256, hidden=64, seed=0,
            base_lr=5e-3, warmup_lr=5e-5,
        ),
    )
    truth = gen.truth

    print(f"seed={seed} epochs={epochs} train loss {trace[0]:.3f} -> {trace[-1]:.3f}")
    print(
        f"{'configuration':<16} {'escalated':>9} {'macro_f1':>9} {'P1':>7} "
        f"{'P2':>7} {'P3':>7} {'composite':>10}"
    )
    rows = [("baseline", None, 0.0)]
    rows += [(f"prior tau={tau:.2f}", artifact, tau) for tau in taus]
    for name, prior, tau in rows:
        out = predict_dataset(bundle, prior=prior, policy=EscalationPolicy(tau=tau, top_k=5))
        preds = out.results
        moved = int(np.count_nonzero(preds.class_id != preds.pre_escalation_class_id))
        r = build_report(truth, preds.class_id, bundle.classes)
        print(
            f"{name:<16} {moved:>9d} {r.macro_f1:>9.4f} {r.p1:>7.3f} "
            f"{r.p2:>7.3f} {r.p3:>7.3f} {r.composite:>10.4f}"
        )
    print(f"total {time.perf_counter() - start:.1f} s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--taus", type=float, nargs="+",
                    default=[0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    args = ap.parse_args()
    run(args.seed, args.epochs, args.taus)


if __name__ == "__main__":
    main()
