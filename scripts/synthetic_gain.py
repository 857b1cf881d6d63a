"""Measure what the metadata prior and escalation each add on synthetic data.

Runs the full in-memory pipeline at a fixed seed and prints macro F1 /
composite for the baseline, the prior alone, and prior + escalation.
"""

import argparse
import time
from dataclasses import replace

import numpy as np

from venomguard.inference import EscalationPolicy, predict_dataset
from venomguard.linalg_pca import fit_pca, pca_transform
from venomguard.metrics import build_report
from venomguard.prior_model import (
    PriorArtifact,
    PriorTrainConfig,
    compute_prototypes,
    prototype_inputs,
    train_prior,
)
from venomguard.synthetic import SynthConfig, generate


def run(seed: int, epochs: int, tau: float, pca_k: int) -> None:
    start = time.perf_counter()
    gen = generate(SynthConfig(seed=seed))
    bundle = gen.bundle
    proto = compute_prototypes(*prototype_inputs(bundle), bundle.classes.n_classes)
    pca = fit_pca(bundle.metadata_features, k=pca_k)
    reduced = pca_transform(pca, bundle.metadata_features)
    mlp, trace = train_prior(
        replace(bundle, metadata_features=reduced),
        proto,
        PriorTrainConfig(
            epochs=epochs, batch_size=256, hidden=64, seed=0,
            base_lr=5e-3, warmup_lr=5e-5,
        ),
    )
    artifact = PriorArtifact(mlp=mlp, prototypes=proto, pca=pca)

    ids = sorted(gen.truth)
    truth = np.array([gen.truth[i] for i in ids])

    def scored(prior, t):
        out = predict_dataset(bundle, prior=prior, policy=EscalationPolicy(tau=t, top_k=5))
        pred = np.array([r.class_id for r in out.results])
        return build_report(truth, pred, bundle.classes)

    rows = [
        ("baseline", scored(None, 0.0)),
        ("+ prior", scored(artifact, 0.0)),
        (f"+ prior + escalation (tau={tau})", scored(artifact, tau)),
    ]

    print(f"seed={seed} epochs={epochs} train loss {trace[0]:.3f} -> {trace[-1]:.3f}")
    print(f"{'configuration':<34} {'macro_f1':>9} {'P3':>7} {'composite':>10}")
    for name, r in rows:
        print(f"{name:<34} {r.macro_f1:>9.4f} {r.p3:>7.3f} {r.composite:>10.4f}")
    print(f"total {time.perf_counter() - start:.1f} s")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--tau", type=float, default=0.2)
    ap.add_argument("--pca-k", type=int, default=8)
    args = ap.parse_args()
    run(args.seed, args.epochs, args.tau, args.pca_k)


if __name__ == "__main__":
    main()
