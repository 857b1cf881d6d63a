"""Plain-Python reference for the prediction path, checked on a sample.

It reads the dataset files itself (CSV manifests and VGF1 records) and
takes the prior's weights as nested lists, so it shares no code with the
package: no numpy, no venomguard helpers. Per observation it computes the
image softmax, the joint reweighting by softmax(prior), the mean over the
observation's images and the top-k venomous escalation with ties to the
lower class id.
"""

from __future__ import annotations

import csv
import math
import random
import struct
from pathlib import Path

# A reference decision closer than this to a threshold or a tie is not
# compared: float64 rounding order may legitimately flip it.
MARGIN = 1e-9


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh)][1:]


def _vgf1_rows(path: Path, wanted: set[int]) -> dict[int, list[float]]:
    """Selected rows of a single-record VGF1 file, as float32 -> float."""
    out = {}
    with open(path, "rb") as fh:
        if fh.read(4) != b"VGF1":
            raise ValueError(f"{path}: not a VGF1 file")
        _rows, dims = struct.unpack("<QQ", fh.read(16))
        fmt = f"<{dims}f"
        for i in sorted(wanted):
            fh.seek(20 + i * dims * 4)
            out[i] = list(struct.unpack(fmt, fh.read(dims * 4)))
    return out


def read_predictions(path: Path) -> dict[str, int]:
    return {row[0]: int(row[1]) for row in _read_csv(path) if row}


def sample_ids(data_dir: Path, seed: int, size: int) -> list[str]:
    ids = sorted({row[0] for row in _read_csv(data_dir / "observations.csv") if row})
    return sorted(random.Random(seed).sample(ids, min(size, len(ids))))


def weights_of(artifact) -> dict:
    """The prior's parameters as nested lists (float64 values)."""
    mlp = artifact.mlp
    return {
        "mean": artifact.pca.mean.tolist(),
        "components": artifact.pca.components.tolist(),
        "layers": [(mlp.w1.tolist(), mlp.b1.tolist()),
                   (mlp.w2.tolist(), mlp.b2.tolist()),
                   (mlp.w3.tolist(), mlp.b3.tolist())],
        "prototypes": artifact.prototypes.matrix.tolist(),
    }


def _softmax(row: list[float]) -> list[float]:
    top = max(row)
    exps = [math.exp(v - top) for v in row]
    total = sum(exps)
    return [v / total for v in exps]


def _prior_logits(x: list[float], w: dict) -> list[float]:
    h = [sum(c * (xi - m) for c, xi, m in zip(comp, x, w["mean"])) for comp in w["components"]]
    for depth, (weights, bias) in enumerate(w["layers"]):
        h = [sum(wi * hi for wi, hi in zip(row, h)) + b for row, b in zip(weights, bias)]
        if depth < 2:
            h = [max(v, 0.0) for v in h]
    n_classes = len(w["prototypes"][0])
    return [sum(h[d] * w["prototypes"][d][c] for d in range(len(h))) for c in range(n_classes)]


def predict(data_dir: Path, ids: list[str], weights: dict | None, tau: float,
            top_k: int) -> dict[str, tuple[int, float]]:
    """obs_id -> (class, margin); margin is the decision's distance to a
    tie or to the threshold."""
    flags = {int(r[0]): r[2].strip().lower() in ("1", "true") for r in _read_csv(data_dir / "classes.csv") if r}
    venomous = [flags[c] for c in range(len(flags))]
    wanted = set(ids)
    images: dict[str, list[tuple[int, str]]] = {i: [] for i in ids}
    for row in _read_csv(data_dir / "observations.csv"):
        if row and row[0] in wanted:
            images[row[0]].append((int(row[1]), row[3]))
    loc_index = {r[0]: int(r[1]) for r in _read_csv(data_dir / "locations.csv") if r}
    scores = _vgf1_rows(data_dir / "image_scores.vgf1",
                        {idx for rows in images.values() for idx, _ in rows})
    meta_rows = {loc_index[code] for rows in images.values() for _, code in rows}
    meta = _vgf1_rows(data_dir / "metadata_features.vgf1", meta_rows) if weights else {}
    prior_w = {i: _softmax(_prior_logits(meta[i], weights)) for i in meta}

    out = {}
    for obs_id in ids:
        rows = images[obs_id]
        agg = [0.0] * len(venomous)
        for idx, code in rows:
            probs = _softmax(scores[idx])
            if weights:
                joint = [p * q for p, q in zip(probs, prior_w[loc_index[code]])]
                total = sum(joint)
                if total > 0:
                    probs = [v / total for v in joint]
            for k, v in enumerate(probs):
                agg[k] += v / len(rows)
        ranked = sorted(range(len(agg)), key=lambda k: (-agg[k], k))
        best = ranked[0]
        margin = abs(agg[best] - tau)
        margin = min([margin] + [agg[ranked[i]] - agg[ranked[i + 1]]
                                 for i in range(min(top_k, len(agg) - 1))])
        chosen = best
        if agg[best] < tau:
            chosen = next((k for k in ranked[:top_k] if venomous[k]), best)
        out[obs_id] = (chosen, margin)
    return out


def mismatches(predicted: dict[str, int], reference: dict[str, tuple[int, float]]) -> list[str]:
    """Sampled observations where the program disagrees with the reference."""
    bad = []
    for obs_id, (cls, margin) in reference.items():
        if predicted.get(obs_id) != cls and margin > MARGIN:
            bad.append(f"{obs_id}: program {predicted.get(obs_id)} reference {cls}")
    return bad
