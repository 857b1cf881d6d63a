"""In-memory spans around the public calls into each venomguard module.

A span is (id, name, start, end, parent, round). The tracer wraps module
level functions from outside: every binding of the function object in any
loaded ``venomguard`` module is replaced, so a call made through another
module's namespace (``prior_model.adamw_step``, ``cli.load_bundle``) is
recorded too. Nothing under ``src/`` is changed.

Only calls made from the thread that installed the tracer are expected:
the wrapped functions are all called from the main thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, function) pairs wrapped in a traced run. The span is named after
# the module that defines the function, so prior_model's imported
# ``adamw_step`` records as ``optim.adamw_step``.
TARGETS = (
    ("synthetic", "generate"),
    ("synthetic", "write_dataset"),
    ("data_model", "load_bundle"),
    ("data_model", "validate_bundle"),
    ("linalg_pca", "fit_pca"),
    ("linalg_pca", "pca_transform"),
    ("prior_model", "compute_prototypes"),
    ("prior_model", "train_prior"),
    ("prior_model", "loc_loss_batch"),
    ("optim", "adamw_step"),
    ("prior_model", "save_prior"),
    ("prior_model", "load_prior"),
    ("inference", "predict_dataset"),
    ("inference", "write_predictions_csv"),
    ("metrics", "score_predictions"),
)


def _count_rows(tracer, result):
    tracer.count("data_model.rows_read", len(result.observations.rows))


def _count_decisions(tracer, result):
    promoted = sum(r.class_id != r.pre_escalation_class_id for r in result.results)
    tracer.count("inference.observations", len(result.results))
    tracer.count("inference.escalations", promoted)


# Counters read from a call's return value, at the same boundary as its span.
HOOKS = {
    "data_model.load_bundle": _count_rows,
    "inference.predict_dataset": _count_decisions,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.round = "main"
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._suspended = 0

    # -- spans and counters ---------------------------------------------
    @contextmanager
    def span(self, name: str):
        if self._suspended:
            yield
            return
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = {"id": span_id, "name": name, "start": time.perf_counter(),
                  "end": None, "parent": parent, "round": self.round}
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def count(self, name: str, value: float) -> None:
        if not self._suspended:
            self.counters[self.round][name] += value

    @contextmanager
    def suspended(self):
        """Calls inside are not recorded (checks that are not the workload)."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    def adopt(self, child: dict) -> None:
        """Merge spans and counters dumped by a traced child process under
        the open span. perf_counter is CLOCK_MONOTONIC on Linux, so child
        times share the parent's time base.
        """
        parent_id = self._stack[-1] if self._stack else None
        offset = len(self.spans)
        for s in child["spans"]:
            s = dict(s, id=s["id"] + offset, round=self.round)
            s["parent"] = parent_id if s["parent"] is None else s["parent"] + offset
            self.spans.append(s)
        for _, values in child["counters"].items():
            for name, value in values.items():
                self.count(name, value)

    # -- wrapping ----------------------------------------------------------
    def install(self) -> None:
        for module_name, func_name in TARGETS:
            module = importlib.import_module(f"venomguard.{module_name}")
            self._wrap(getattr(module, func_name))

    def _wrap(self, original) -> None:
        name = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
        hook = HOOKS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = original(*args, **kwargs)
            if hook is not None and not self._suspended:
                hook(self, result)
            return result

        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "venomguard" and not module_name.startswith("venomguard."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counters": {r: dict(v) for r, v in self.counters.items()}}


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover. Children
    of one span never overlap: wrapped calls all run on the main thread."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: (s["end"] - s["start"]) - covered[s["id"]] for s in spans}


def per_round(spans: list[dict], counters: dict) -> dict[str, dict[str, float]]:
    """name -> round -> summed value: span time as ``<name>_s``, self time as
    ``<name>.self_s``, call count as ``<name>.calls`` and every counter."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    selfs = self_times(spans)
    for s in spans:
        out[f"{s['name']}_s"][s["round"]] += s["end"] - s["start"]
        out[f"{s['name']}.self_s"][s["round"]] += selfs[s["id"]]
        out[f"{s['name']}.calls"][s["round"]] += 1
    for round_name, values in counters.items():
        for name, value in values.items():
            out[name][round_name] += value
    return out


def median_per_round(table: dict[str, dict[str, float]], name: str) -> float | None:
    """Median over the rounds (set-ups, iterations) in which ``name`` occurred."""
    rounds = table.get(name)
    return statistics.median(rounds.values()) if rounds else None


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
