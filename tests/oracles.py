"""Brute-force oracles that the tests compare the package against.

Plain Python on purpose: no numpy, no imports from the modules they check.
Three exceptions use numpy. ``blocked_escalate`` is the package's earlier
escalation, by partial selection of each row's top-k, kept to check the
rank rule that replaced it on large inputs. ``reference_sorted_unique`` is
built on ``np.unique``, which shares no code with the package's sort. And
``reference_train_prior`` at the end: byte-equal weights need the same
floating-point operations, so it restates the prior's training step with
numpy.
"""

import csv
import io
import math

import numpy as np


def oracle_metric(truth, pred, venomous_flags):
    """Loop-based composite metric report as a plain dict: F1 over the
    classes with support, each p over its true venom status, weights
    (1, 1, 2, 5, 2)."""
    n_classes = len(venomous_flags)
    conf = [[0] * n_classes for _ in range(n_classes)]
    for t, g in zip(truth, pred):
        conf[t][g] += 1

    f1s = []
    for k in range(n_classes):
        support = sum(conf[k])
        predicted = sum(conf[i][k] for i in range(n_classes))
        if support == 0:
            continue
        prec = conf[k][k] / predicted if predicted else 0.0
        rec = conf[k][k] / support if support else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
    macro = 100.0 * sum(f1s) / len(f1s)

    hh = hv = vh = vv = n_h = n_v = 0
    for t in range(n_classes):
        for g in range(n_classes):
            count = conf[t][g]
            if venomous_flags[t]:
                n_v += count
            else:
                n_h += count
            if t == g:
                continue
            if venomous_flags[t]:
                if venomous_flags[g]:
                    vv += count
                else:
                    vh += count
            else:
                if venomous_flags[g]:
                    hv += count
                else:
                    hh += count
    denoms = [n_h, n_h, n_v, n_v]
    ps = [
        (100.0 * count / d if d else 0.0)
        for count, d in zip((hh, hv, vh, vv), denoms)
    ]

    correct = sum(conf[k][k] for k in range(n_classes))
    weights = (1.0, 1.0, 2.0, 5.0, 2.0)
    numer = weights[0] * macro
    for w, pv in zip(weights[1:], ps):
        numer += w * (100.0 - pv)
    return {
        "macro_f1": macro,
        "p1": ps[0],
        "p2": ps[1],
        "p3": ps[2],
        "p4": ps[3],
        "accuracy": 100.0 * correct / len(truth),
        "composite": numer / sum(weights),
        "n_observations": len(truth),
    }


def oracle_predict(
    observations,
    venomous_flags,
    tau=0.5,
    top_k=5,
    prior_logits=None,
):
    """Loop-based prediction pipeline on plain lists.

    observations: list of (obs_id, logit_rows, location_indices);
    prior_logits: per-location prior rows, or None for no prior.
    """
    out = {}
    for obs_id, rows, locs in observations:
        agg = [0.0] * len(venomous_flags)
        for row, loc in zip(rows, locs):
            top = max(row)
            exps = [math.exp(v - top) for v in row]
            s = sum(exps)
            probs = [v / s for v in exps]
            if prior_logits is not None:
                prow = prior_logits[loc]
                ptop = max(prow)
                pexp = [math.exp(v - ptop) for v in prow]
                psum = sum(pexp)
                joint = [pr * (pv / psum) for pr, pv in zip(probs, pexp)]
                jsum = sum(joint)
                probs = [v / jsum for v in joint] if jsum > 0 else probs
            for k, v in enumerate(probs):
                agg[k] += v / len(rows)
        best = 0
        for k in range(1, len(agg)):
            if agg[k] > agg[best]:
                best = k
        if agg[best] >= tau:
            out[obs_id] = best
            continue
        ranked = sorted(range(len(agg)), key=lambda k: (-agg[k], k))[:top_k]
        chosen = best
        for k in ranked:
            if venomous_flags[k]:
                chosen = k
                break
        out[obs_id] = chosen
    return out


def reference_escalate(rows, base, venomous_flags, tau, top_k):
    """Final class per row of plain score lists: ``base`` where its score is
    at least tau, else the first venomous class among the row's top_k in
    (score descending, class id ascending) order, else ``base``."""
    out = []
    for row, best in zip(rows, base):
        if row[best] >= tau:
            out.append(best)
            continue
        ranked = sorted(range(len(row)), key=lambda k: (-row[k], k))[:top_k]
        out.append(next((k for k in ranked if venomous_flags[k]), best))
    return out


def blocked_escalate(agg, base, flags, tau, top_k, block_rows=4096):
    """The escalation rule as the package once computed it with numpy: each
    uncertain row's top-k by partial selection, ties at the k-th score going
    to the lowest ids, then the best venomous member of the top-k, over
    blocks of ``block_rows`` uncertain rows."""
    final = base.copy()
    top_k = min(top_k, agg.shape[1])
    low = np.flatnonzero(agg[np.arange(agg.shape[0]), base] < tau)
    for start in range(0, low.size, block_rows):
        rows = low[start : start + block_rows]
        scores = agg[rows]
        kth = np.partition(scores, -top_k, axis=1)[:, -top_k, None]
        above = scores > kth
        tied = scores == kth
        room = top_k - np.count_nonzero(above, axis=1)
        top = above | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
        top &= flags
        found = top.any(axis=1)
        best = np.where(top, scores, -np.inf).argmax(axis=1)
        final[rows[found]] = best[found]
    return final


def reference_macro_f1(confusion):
    """Mean per-class F1 as a percentage, a class at a time, skipping the
    classes with no support."""
    confusion = np.asarray(confusion)
    support = confusion.sum(axis=1)
    predicted = confusion.sum(axis=0)
    tp = np.diagonal(confusion).astype(np.float64)
    scores = []
    for c in range(confusion.shape[0]):
        if support[c] == 0:
            continue
        prec = tp[c] / predicted[c] if predicted[c] > 0 else 0.0
        rec = tp[c] / support[c] if support[c] > 0 else 0.0
        scores.append(2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
    if not scores:
        raise ValueError("no classes with ground-truth support")
    return 100.0 * float(np.mean(scores))


def reference_fix_signs(components):
    """``components`` with each row negated whose first largest-magnitude
    entry is negative, a row at a time."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def oracle_eigvals_jacobi(matrix):
    """Cyclic Jacobi eigenvalues of a small symmetric matrix, descending."""
    n = len(matrix)
    a = [[float(v) for v in row] for row in matrix]
    for i in range(n):
        for j in range(n):
            if abs(a[i][j] - a[j][i]) > 1e-9:
                raise ValueError("matrix is not symmetric")
    for _ in range(100):
        off = math.sqrt(
            sum(a[i][j] ** 2 for i in range(n) for j in range(n) if i != j)
        )
        if off < 1e-13:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p][q]) < 1e-300:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
                t = math.copysign(1.0, theta) / (
                    abs(theta) + math.sqrt(theta * theta + 1.0)
                )
                cos = 1.0 / math.sqrt(t * t + 1.0)
                sin = t * cos
                for k in range(n):
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = cos * akp - sin * akq
                    a[k][q] = sin * akp + cos * akq
                for k in range(n):
                    apk, aqk = a[p][k], a[q][k]
                    a[p][k] = cos * apk - sin * aqk
                    a[q][k] = sin * apk + cos * aqk
    return sorted((a[i][i] for i in range(n)), reverse=True)


# ---------------------------------------------------------------------------
# csv.reader references for the CSV manifests: one row at a time in file
# order, each rejection naming the physical line on which the row ends.
# ---------------------------------------------------------------------------


class Rejected(Exception):
    """A reference parser rejected its input at (line, message)."""

    def __init__(self, line, message):
        super().__init__(line, message)
        self.line, self.message = line, message


def _data_rows(path, header):
    with open(path, encoding="utf-8", newline="") as fh:
        # checked before csv.reader runs, which before Python 3.11 raises on NUL
        for line, text in enumerate(fh, start=1):
            if "\x00" in text:
                raise Rejected(line, "NUL character in a field")
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            first = next(reader, None)
            if first is None:
                raise Rejected(1, "missing header")
            if [h.strip() for h in first[: len(header)]] != header:
                raise Rejected(1, f"expected header {','.join(header)}")
            # a field over csv.field_size_limit() rejects the file before
            # any row is checked
            rows = [(reader.line_num, row) for row in reader if row]
        except csv.Error as exc:
            raise Rejected(reader.line_num, str(exc))
    yield from rows


def reference_int(text):
    """int(text) within int64: a value outside it raises ValueError, as a
    bad spelling does."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{text!r} is outside int64")
    return value


def reference_classes(path):
    """[(class_id, name, venomous)] of a classes.csv."""
    out, seen = [], set()
    for line, row in _data_rows(path, ["class_id", "name", "venomous"]):
        if len(row) < 3:
            raise Rejected(line, "expected 3 fields")
        try:
            class_id = reference_int(row[0])
        except ValueError:
            raise Rejected(line, f"bad class_id {row[0]!r}")
        if class_id in seen:
            raise Rejected(line, f"duplicate class id {class_id}")
        seen.add(class_id)
        flag = row[2].strip().lower()
        if flag not in ("0", "1", "false", "true"):
            raise Rejected(line, f"bad venomous flag {row[2]!r}")
        out.append((class_id, row[1], flag in ("1", "true")))
    if not out:
        raise Rejected(1, "no classes")
    if sorted(seen) != list(range(len(out))):
        raise Rejected(1, "non-contiguous class ids")
    return out


def reference_observations(path, n_classes, allow_unlabeled):
    """[(observation_id, image_index, class_id or None, location_code)]."""
    out, seen = [], set()
    header = ["observation_id", "image_index", "class_id", "location_code"]
    for line, row in _data_rows(path, header):
        if len(row) < 4:
            raise Rejected(line, "expected 4 fields")
        obs_id, idx_s, cid_s, loc = row[0], row[1], row[2].strip(), row[3]
        try:
            image_index = reference_int(idx_s)
        except ValueError:
            raise Rejected(line, f"bad image_index {idx_s!r}")
        if image_index in seen:
            raise Rejected(line, f"duplicate image_index {image_index}")
        seen.add(image_index)
        class_id = None
        if cid_s == "":
            if not allow_unlabeled:
                raise Rejected(line, "missing class_id")
        else:
            try:
                class_id = reference_int(cid_s)
            except ValueError:
                raise Rejected(line, f"bad class_id {cid_s!r}")
            if not 0 <= class_id < n_classes:
                raise Rejected(line, f"unknown class_id {class_id}")
        out.append((obs_id, image_index, class_id, loc))
    return out


def reference_locations(path):
    """{location_code: metadata_index} in file order."""
    out = {}
    for line, row in _data_rows(path, ["location_code", "metadata_index"]):
        if len(row) < 2:
            raise Rejected(line, "expected 2 fields")
        if row[0] in out:
            raise Rejected(line, f"duplicate location {row[0]!r}")
        try:
            out[row[0]] = reference_int(row[1])
        except ValueError:
            raise Rejected(line, f"bad metadata_index {row[1]!r}")
    return out


def reference_metadata_rows(location_rows, observation_codes):
    """[(metadata row or -1, known)] per observation code, by dict lookup in
    the (location_code, metadata_index) pairs."""
    lookup = dict(location_rows)
    return [(lookup.get(code, -1), code in lookup) for code in observation_codes]


def reference_predictions(path):
    """{observation_id: class_id} of a prediction or truth CSV."""
    out = {}
    for line, row in _data_rows(path, ["observation_id", "class_id"]):
        if len(row) < 2:
            raise Rejected(line, "expected observation_id,class_id")
        if row[0] in out:
            raise Rejected(line, f"duplicate observation {row[0]!r}")
        try:
            out[row[0]] = reference_int(row[1])
        except ValueError:
            raise Rejected(line, f"bad class_id {row[1]!r}")
    return out


def reference_manifest(header, rows):
    """A manifest's text as csv.writer formats it, one row at a time, with
    ``\n`` line ends. The writer ends its lines in ``\r\n``, so it quotes
    every field holding a ``\r`` or a ``\n``; each ``\r\n`` it adds is
    then swapped for ``\n``."""
    lines = []
    for row in [header, *rows]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\r\n").writerow(row)
        lines.append(buf.getvalue()[:-2] + "\n")
    return "".join(lines)


# ---------------------------------------------------------------------------
# The prior's training step in its plain form: every intermediate a new
# array, the two-branch sigmoid, the dropout masks concatenated per layer,
# the loss gradient copied, AdamW returning new moments and parameters.
# Initialisation, sampler, location bounds and learning-rate schedule come
# from the package; the test checks the step, not them.
# ---------------------------------------------------------------------------


def reference_sorted_unique(values):
    """data_model.sorted_unique from np.unique: the distinct values in order,
    each row's index into them, and whether an earlier row holds its value."""
    distinct, first, inverse = np.unique(values, return_index=True, return_inverse=True)
    repeat = np.ones(values.shape, dtype=bool)
    repeat[first] = False
    return distinct, inverse.reshape(values.shape), repeat


def reference_adamw(params, grads, m, v, t, lr, beta1, beta2, eps, weight_decay):
    """One AdamW update; returns (params, m, v) as new arrays, t the new step."""
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    out = params * (1.0 - lr * weight_decay)
    out = out - lr * m_hat / (np.sqrt(v_hat) + eps)
    return out, m, v


def _reference_sigmoid(u):
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _reference_loss(w, x_rows, r_rows, ys, proto, lam, masks):
    """(mean loss, {name: mean gradient}) of one stacked batch."""
    batch = x_rows.shape[0]
    x = np.concatenate((x_rows, r_rows))
    m1 = m2 = None
    if masks is not None:
        m1 = np.concatenate((masks[0], masks[2]))
        m2 = np.concatenate((masks[1], masks[3]))
    z1 = x @ w["w1"].T + w["b1"]
    h1 = np.maximum(z1, 0.0)
    h1 = h1 if m1 is None else h1 * m1
    z2 = h1 @ w["w2"].T + w["b2"]
    h2 = np.maximum(z2, 0.0)
    h2 = h2 if m2 is None else h2 * m2
    emb = h2 @ w["w3"].T + w["b3"]
    s = _reference_sigmoid(emb @ proto)
    rows = np.arange(batch)
    s_pos = np.clip(s[rows, ys], 1e-12, 1.0 - 1e-12)
    neg_logs = np.log(np.clip(1.0 - s, 1e-12, 1.0 - 1e-12))
    neg_logs[rows, ys] = 0.0
    total = -lam * np.log(s_pos).sum() - neg_logs.sum()
    ds = s.copy()
    ds[rows, ys] = -lam * (1.0 - s[rows, ys])
    d_out = (ds @ proto.T) / batch
    g = {"w3": d_out.T @ h2, "b3": d_out.sum(axis=0)}
    da2 = d_out @ w["w3"]
    da2 = da2 if m2 is None else da2 * m2
    dz2 = da2 * (z2 > 0)
    g["w2"], g["b2"] = dz2.T @ h1, dz2.sum(axis=0)
    da1 = dz2 @ w["w2"]
    da1 = da1 if m1 is None else da1 * m1
    dz1 = da1 * (z1 > 0)
    g["w1"], g["b1"] = dz1.T @ x, dz1.sum(axis=0)
    return float(total / batch), g


def reference_train_prior(bundle, prototypes, cfg):
    """(flat parameters in w1, b1, w2, b2, w3, b3 order, per-epoch mean
    losses) of ``train_prior`` run with the plain step."""
    from venomguard.optim import CosineSchedule, lr_at
    from venomguard.prior_model import (
        BalancedSampler, PriorMlp, feature_bounds, training_pairs,
    )

    names = ("w1", "b1", "w2", "b2", "w3", "b3")
    x_all, y_all = training_pairs(bundle)
    n, d_in = x_all.shape
    model_seed, sampler_seed, loc_seed = (
        int(s) for s in np.random.SeedSequence(cfg.seed).generate_state(3)
    )
    init = PriorMlp.create(d_in, cfg.hidden, prototypes.d_out, seed=model_seed)
    w = {k: getattr(init, k) for k in names}
    mask_rng = np.random.default_rng(np.random.SeedSequence(model_seed).spawn(2)[1])
    sampler = BalancedSampler(y_all, np.random.default_rng(sampler_seed),
                              prototypes.n_classes)
    loc_rng = np.random.default_rng(loc_seed)
    lo, hi = feature_bounds(x_all)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))
    schedule = CosineSchedule(steps_per_epoch if cfg.epochs > 1 else 0,
                              cfg.epochs * steps_per_epoch,
                              cfg.warmup_lr, cfg.base_lr, cfg.final_lr)
    params = np.concatenate([w[k].ravel() for k in names])
    m, v = np.zeros(params.size), np.zeros(params.size)
    keep = 1.0 - cfg.dropout_rate
    trace, step = [], 0
    for _ in range(cfg.epochs):
        losses = []
        for _ in range(steps_per_epoch):
            idx = sampler.draw(cfg.batch_size)
            rb = loc_rng.uniform(lo, hi, size=(cfg.batch_size, d_in))
            masks = None
            if cfg.dropout_rate > 0.0:
                masks = (mask_rng.random((4, cfg.batch_size, cfg.hidden)) < keep) / keep
            value, g = _reference_loss(w, x_all[idx], rb, y_all[idx],
                                       prototypes.matrix, cfg.lam, masks)
            grads = np.concatenate([g[k].ravel() for k in names])
            params, m, v = reference_adamw(
                params, grads, m, v, step + 1, lr_at(schedule, step),
                cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay,
            )
            offset = 0
            for k in names:
                w[k] = params[offset:offset + w[k].size].reshape(w[k].shape)
                offset += w[k].size
            losses.append(value)
            step += 1
        trace.append(float(np.mean(losses)))
    return params, trace
