"""Sweep the escalation threshold and show the precision/safety trade.

Higher tau fires the venomous-candidate rule more often: P3
(venomous -> harmless) falls while P2 (harmless -> venomous) rises and
macro F1 pays for the swapped-in lower-probability predictions. The
composite weighs that trade 5:1.
"""

import argparse
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


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--taus", type=float, nargs="+",
                    default=[0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9])
    args = ap.parse_args()

    gen = generate(SynthConfig(seed=args.seed))
    bundle = gen.bundle
    proto = compute_prototypes(*prototype_inputs(bundle), bundle.classes.n_classes)
    pca = fit_pca(bundle.metadata_features, k=8)
    reduced = pca_transform(pca, bundle.metadata_features)
    mlp, _ = train_prior(
        replace(bundle, metadata_features=reduced),
        proto,
        PriorTrainConfig(
            epochs=args.epochs, batch_size=256, hidden=64, seed=0,
            base_lr=5e-3, warmup_lr=5e-5,
        ),
    )
    artifact = PriorArtifact(mlp=mlp, prototypes=proto, pca=pca)

    ids = sorted(gen.truth)
    truth = np.array([gen.truth[i] for i in ids])

    print(
        f"{'tau':>5} {'escalated':>9} {'macro_f1':>9} {'P1':>7} {'P2':>7} "
        f"{'P3':>7} {'composite':>10}"
    )
    for tau in args.taus:
        out = predict_dataset(
            bundle, prior=artifact, policy=EscalationPolicy(tau=tau, top_k=5)
        )
        pred = np.array([r.class_id for r in out.results])
        moved = sum(
            r.class_id != r.pre_escalation_class_id for r in out.results
        )
        r = build_report(truth, pred, bundle.classes)
        print(
            f"{tau:>5.2f} {moved:>9d} {r.macro_f1:>9.4f} {r.p1:>7.3f} "
            f"{r.p2:>7.3f} {r.p3:>7.3f} {r.composite:>10.4f}"
        )


if __name__ == "__main__":
    main()
