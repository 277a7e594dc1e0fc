"""Per-layer tracing by wrapping the program's functions from outside.

`install` replaces each public function of the monored modules, wherever a
module has bound it (so `reduction.chart_support` and `core.chart_support`
are the same wrapped `core.chart_support`), by a wrapper that records a span:
label, start, end and the enclosing span.  `Configuration.__init__` is
wrapped as `core.Configuration`.  Generator functions are left alone, since
calling one does no work, and so is the hottest leaf (see `SKIP`).  Nothing inside the program is called or changed
beyond these rebindings.

Spans stay in memory.  Every span updates per-label totals (calls, time of
the outermost call, self time = duration minus the time of child spans) and
per-edge totals (caller label -> callee label); the first `KEEP_SPANS`
spans are also kept raw.  `dump` writes both out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter

MODULES = ("core", "transform", "reduction", "resolution", "arithmetic", "serialize", "cli")
# Private functions traced under a public label: the CLI's output writer.
EXTRA = {"cli": ("_emit",)}
# Left unwrapped: `min_degree` runs once per stratum scanned (600k times in one
# towers round), so a span there would double the round; its time stays in
# the self time of its callers (`chart_support`, `is_permissible`, ...).
SKIP = {"core": ("min_degree",)}
KEEP_SPANS = 50_000  # raw spans kept for the dump; totals cover every span


def _label(module: str, attr: str) -> str:
    name = attr.lstrip("_")
    if name.startswith("cmd_"):
        name = name[len("cmd_"):]
    return f"{module}.{name}"


class Tracer:
    def __init__(self):
        self.labels: list[str] = []
        self.stats: list[list[float]] = []  # per label: calls, outermost time, self time
        self.active: list[int] = []
        self.edges: Counter = Counter()
        self.edge_calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.stack: list[list] = []  # frames: [child time, label index, span id]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.on = True  # off while the benchmark itself calls the program

    def _index(self, label: str) -> int:
        if label in self.labels:
            return self.labels.index(label)
        self.labels.append(label)
        self.stats.append([0, 0.0, 0.0])
        self.active.append(0)
        return len(self.labels) - 1

    def wrap(self, fn, label: str, hook=None):
        idx = self._index(label)
        stats, active, stack = self.stats[idx], self.active, self.stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = self.next_id
            self.next_id += 1
            frame = [0.0, idx, span_id]
            stack.append(frame)
            active[idx] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                active[idx] -= 1
                dur = t1 - t0
                stats[0] += 1
                if not active[idx]:
                    stats[1] += dur
                stats[2] += dur - frame[0]
                edge = (parent[1] if parent else -1, idx)
                self.edges[edge] += dur
                self.edge_calls[edge] += 1
                if parent is not None:
                    parent[0] += dur
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((span_id, parent[2] if parent else -1, idx, t0, t1))
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def snapshot(self) -> dict:
        """Per-label totals and counters so far, keyed by label."""
        return {
            "stats": {lab: tuple(self.stats[i]) for i, lab in enumerate(self.labels)},
            "counts": dict(self.counts),
        }

    def dump(self, path) -> None:
        def label(i: int) -> str:
            return self.labels[i] if i >= 0 else "<benchmark>"

        doc = {
            "labels": self.labels,
            "totals": {lab: dict(zip(("calls", "outer_s", "self_s"), self.stats[i])) for i, lab in enumerate(self.labels)},
            "edges": [
                {"caller": label(a), "callee": label(b), "calls": self.edge_calls[(a, b)], "s": s}
                for (a, b), s in sorted(self.edges.items(), key=lambda kv: -kv[1])
            ],
            "counts": dict(self.counts),
            "spans_kept": len(self.spans),
            "spans_total": self.next_id,
            "spans": [list(s) for s in self.spans],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# --- hooks: counts taken from arguments and results at the layer boundary ------

def _chart_support_hook(counts, args, result):
    if result:
        counts["core.chart_support.nonempty"] += 1


def _blow_up_global_hook(counts, args, result):
    counts["transform.charts_seen"] += len(args[0].charts)
    counts["transform.charts_touched"] += sum(1 for _, kids in result[1].outcomes if kids is not None)


def _trace_to_obj_hook(counts, args, result):
    counts["serialize.untouched_entries"] += sum(
        1 for rec in result["records"] for entry in rec["outcomes"] if "untouched" in entry
    )


HOOKS = {
    "core.chart_support": _chart_support_hook,
    "transform.blow_up_global": _blow_up_global_hook,
    "serialize.trace_to_obj": _trace_to_obj_hook,
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every public function of the monored modules; return the labels."""
    package = importlib.import_module("monored")
    modules = {name: importlib.import_module(f"monored.{name}") for name in MODULES}
    namespaces = [package, *modules.values()]
    wrapped = []
    for short, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                continue
            if inspect.isgeneratorfunction(fn) or attr in SKIP.get(short, ()):
                continue
            label = _label(short, attr)
            wrapper = tracer.wrap(fn, label, HOOKS.get(label))
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, name, wrapper)
            wrapped.append(label)
    config_cls = modules["core"].Configuration
    config_cls.__init__ = tracer.wrap(config_cls.__init__, "core.Configuration")
    wrapped.append("core.Configuration")
    return wrapped
