#!/usr/bin/env python3
"""Benchmark of monored, end to end and layer by layer.

    python3 bench/run.py [--workload towers|reduce-corpus|cli|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
`src/`.  A run repeats whole rounds until `--seconds` have passed.  Each
round sets the workload up `SETUP_REPS` times (fresh import of monored,
inputs built and loaded through `serialize.load_config`) and then runs the
workload's operations once, one at a time, with the last set-up's inputs.
The first round's outputs are checked by the independent checks in
`checks.py`; later rounds must reproduce the first round's output byte for
byte.  Times are CPU times, each scaled by a reference computation timed
right after it (`calibrate.py`), so that the shared machine's drift in
speed cancels.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (README.md says what
each covers); with `--trace 1` every public function of the program is
wrapped (see `tracing.py`) and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import inputs
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("towers", "reduce-corpus", "cli")
SETUP_REPS = 4  # set-ups before each round
SETUP_REF_UNITS = 2  # reference units timed after each set-up
REF_SHARE = 0.15  # reference time after an operation, as a share of its time

END_TO_END = (
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("output_mb", "MB"),
    ("blowups", "count"),
    ("final_charts", "count"),
)

# name, unit.  Names follow <module>.<function>.<what>; <module>.self_s is the
# module's time outside its child spans.  Values are per round: one set-up
# and one pass over the operations.
PER_LAYER = (
    ("core.chart_support.calls", "count"),
    ("core.chart_support.s", "s"),
    ("core.chart_support.nonempty_ratio", "ratio"),
    ("transform.charts_seen", "count"),
    ("transform.touched_ratio", "ratio"),
    ("reduction.reduce_monomial.s", "s"),
    ("reduction.residual_order.s", "s"),
    ("core.Configuration.builds", "count"),
    ("core.Configuration.s", "s"),
    ("transform.blow_up_global.calls", "count"),
    ("transform.blow_up_global.s", "s"),
    ("transform.self_s", "s"),
    ("core.self_s", "s"),
    ("core.sum_marked.calls", "count"),
    ("core.sum_marked.s", "s"),
    ("core.power_generators.s", "s"),
    ("core.minimalize.s", "s"),
    ("reduction.companion_ideal.s", "s"),
    ("reduction.reduce_maximal_order.s", "s"),
    ("reduction.reduce.calls", "count"),
    ("reduction.self_s", "s"),
    ("serialize.trace_to_obj.s", "s"),
    ("serialize.final_state_obj.s", "s"),
    ("serialize.untouched_entries", "count"),
    ("cli.emit.s", "s"),
    ("serialize.replay_trace.s", "s"),
    ("cli.replay.s", "s"),
    ("resolution.principalize.s", "s"),
    ("resolution.weak_resolve.s", "s"),
    ("resolution.self_s", "s"),
    ("cli.principalize.s", "s"),
    ("cli.resolve.s", "s"),
    ("cli.reduce.s", "s"),
    ("cli.self_s", "s"),
    ("arithmetic.frobenius_lift_check.s", "s"),
    ("arithmetic.rees_lift_check.s", "s"),
    ("arithmetic.proj_chart_frobenius_check.s", "s"),
    ("arithmetic.ideal_power_contains.calls", "count"),
    ("arithmetic.self_s", "s"),
    ("cli.check_lambda.s", "s"),
    ("serialize.load_config.s", "s"),
    ("serialize.self_s", "s"),
)

# Ratios: counter over counter (or over a label's calls).
RATIOS = {
    "core.chart_support.nonempty_ratio": ("core.chart_support.nonempty", "core.chart_support"),
    "transform.touched_ratio": ("transform.charts_touched", "transform.charts_seen"),
}


class Op:
    """One operation of a round and what its first round established."""

    def __init__(self, label: str, kind: str, payload):
        self.label = label
        self.kind = kind
        self.payload = payload
        self.digest: str | None = None
        self.baseline_ok = True


# --- set-up ------------------------------------------------------------------------

def import_monored(names) -> dict:
    for name in [m for m in sys.modules if m == "monored" or m.startswith("monored.")]:
        del sys.modules[name]
    importlib.import_module("monored")
    return {name: importlib.import_module(f"monored.{name}") for name in names}


def library_docs(workload: str, rng: random.Random) -> list[tuple[str, str, dict]]:
    if workload == "towers":
        docs = [
            (f"principalize e={e}", "principalize", inputs.rename(inputs.tower(e), rng))
            for e in inputs.TOWER_EXPONENTS
        ]
    else:
        docs = [(f"reduce {label}", "reduce", inputs.rename(doc, rng)) for label, doc in inputs.corpus()]
        docs.append(("reduce worked example", "reduce", inputs.WORKED_EXAMPLE))
        docs.append(("blowup worked example", "blowup", inputs.WORKED_EXAMPLE))
    rng.shuffle(docs)
    return docs


def cli_files(rundir: Path, rng: random.Random) -> tuple[list[tuple[str, dict]], list[Op]]:
    """Input documents with their file names, and the CLI operations on them."""
    pe, re_ = inputs.CLI_PRINCIPALIZE_E, inputs.CLI_RESOLVE_E
    files = [
        (f"tower{pe}.json", inputs.rename(inputs.tower(pe), rng)),
        (f"tower{re_}.json", inputs.rename(inputs.tower(re_), rng)),
        ("worked.json", inputs.WORKED_EXAMPLE),
    ]
    p = lambda name: str(rundir / name)  # noqa: E731
    emitters = [
        Op(f"principalize e={pe}", "principalize", ["principalize", p(f"tower{pe}.json"), "--out", p("principalize.trace.json")]),
        Op(f"resolve e={re_}", "resolve", ["resolve", p(f"tower{re_}.json"), "--out", p("resolve.trace.json")]),
        Op("reduce worked example", "reduce", ["reduce", p("worked.json"), "--out", p("reduce.trace.json")]),
    ]
    readers = [Op(f"replay {op.kind}", "replay", ["replay", "--trace", op.payload[-1]]) for op in emitters]
    readers.append(
        Op("check-lambda", "check-lambda", ["check-lambda", "--primes", inputs.CLI_PRIMES, "--seed", str(rng.randrange(10**6))])
    )
    rng.shuffle(emitters)
    rng.shuffle(readers)
    return files, emitters + readers


def setup(workload: str, seed: int, tracer, rundir: Path):
    """Import monored afresh and build and load the workload's inputs."""
    names = ("serialize", "resolution", "reduction", "transform") + (("cli",) if workload == "cli" else ())
    rng = random.Random(seed)
    mods = import_monored(names)
    if tracer is not None:
        tracing.install(tracer)
    load = mods["serialize"].load_config
    if workload == "cli":
        files, ops = cli_files(rundir, rng)
        for name, doc in files:
            (rundir / name).write_text(json.dumps(doc), encoding="utf-8")
            load(doc)
    else:
        ops = [Op(label, kind, load(doc)) for label, kind, doc in library_docs(workload, rng)]
    return mods, ops


# --- operations ------------------------------------------------------------------

def run_library(mods, op: Op):
    """Run one library operation; return (initial, final, records)."""
    cfg = op.payload
    if op.kind == "principalize":
        tr = mods["resolution"].principalize(cfg)
        return tr.initial, tr.final, tr.records
    if op.kind == "reduce":
        final, records = mods["reduction"].reduce(cfg)
        return cfg, final, records
    center = frozenset(cfg.registry.index(n) for n in inputs.WORKED_CENTER)
    final, record = mods["transform"].blow_up_global(cfg, center)
    return cfg, final, [record]


def check_library(op: Op, initial, final, records) -> list[str]:
    res = checks.from_library(initial, final, records)
    problems = checks.pullback_problems(res, principal=op.kind in ("principalize", "resolve"))
    if op.kind == "blowup":
        gens = checks.worked_v_chart_of(res)
        if gens is None:
            problems.append("worked example blow-up has no v-chart")
        else:
            problems += checks.worked_v_chart_problems(gens, res.registry[records[0].exceptional], None)
    else:
        problems += checks.support_left(res)
    return problems


def run_cli(op: Op, env, mods, in_process: bool) -> tuple[int, str, str]:
    """Run one CLI command: a child process, or `cli.main` for the traced run."""
    if not in_process:
        proc = subprocess.run(
            [sys.executable, "-m", "monored.cli", *op.payload],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        return proc.returncode, proc.stdout, proc.stderr
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = mods["cli"].main(op.payload)
    return rc, out.getvalue(), err.getvalue()


PRINTED_COUNT = {
    "principalize": re.compile(r"^principalization: (\d+) blow-ups across (\d+) charts$", re.M),
    "reduce": re.compile(r"^order reduction: (\d+) blow-ups", re.M),
}


def check_cli(op: Op, stdout: str, obj) -> list[str]:
    """Checks on one CLI operation; `obj` is its trace document, if it writes one."""
    if op.kind == "replay":
        return [] if "replay: final state identical" in stdout.splitlines() else ["replay did not report an identical final state"]
    if op.kind == "check-lambda":
        return checks.check_lambda_problems(stdout)
    res = checks.from_trace(obj)
    problems = checks.support_left(res)
    problems += checks.pullback_problems(res, principal=op.kind in ("principalize", "resolve"))
    pattern = PRINTED_COUNT.get(op.kind)
    if pattern is not None:
        m = pattern.search(stdout)
        if m is None:
            problems.append("no blow-up count on stdout")
        elif int(m.group(1)) != len(obj["records"]):
            problems.append(f"stdout says {m.group(1)} blow-ups, trace has {len(obj['records'])} records")
    if op.kind == "reduce":
        problems += checks.trace_v_chart_problems(obj)
    return problems


# --- the run ------------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.output_bytes = 0
        self.blowups = 0
        self.final_charts = 0

    def outcome(self, op: Op, first: bool, problems: list[str], raised: bool) -> None:
        self.attempted += 1
        if first:
            op.baseline_ok = not (problems or raised)
        if raised or problems or not op.baseline_ok:
            self.failed += 1
        if problems:
            self.correct = False
            for p in problems[:5]:
                print(f"CHECK FAILED [{op.label}]: {p}", file=sys.stderr)

    def first_output(self, op: Op, data: bytes, blowups: int, charts: int) -> None:
        op.digest = hashlib.sha256(data).hexdigest()
        self.output_bytes += len(data)
        self.blowups += blowups
        self.final_charts += charts


def same_output(op: Op, data: bytes) -> list[str]:
    return [] if hashlib.sha256(data).hexdigest() == op.digest else ["output differs from the first round"]


def cpu_clock() -> float:
    """CPU seconds (user + system) of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def timed_pass(ops, run_one) -> tuple[float, list[float], list]:
    """Run each operation once; an operation that raises yields its exception.

    Returns the operations' CPU time as measured, each operation's time
    scaled to the reference's nominal speed, and the outputs.  Right after each operation
    the reference (`calibrate.unit`) runs for about `REF_SHARE` of the
    operation's time, at least once, and the operation's time is scaled by
    it: the machine's speed drifts within a round too.
    """
    elapsed, scaled, outputs = 0.0, [], []
    for op in ops:
        t0 = cpu_clock()
        try:
            out = run_one(op)
        except Exception as exc:
            out = exc
        t = cpu_clock() - t0
        units = max(1, round(REF_SHARE * t / calibrate.UNIT_S))
        elapsed += t
        scaled.append(t * calibrate.UNIT_S / calibrate.unit_seconds(units))
        outputs.append(out)
    return elapsed, scaled, outputs


def record_library(mods, op: Op, result, tally: Tally, first: bool) -> None:
    initial, final, records = result
    serialize = mods["serialize"]
    doc = serialize.canonical_json(serialize.final_state_obj(final, records)).encode("utf-8")
    if first:
        tally.first_output(op, doc, len(records), len(final.charts))
        problems = check_library(op, initial, final, records)
    else:
        problems = same_output(op, doc)
    tally.outcome(op, first, problems, raised=False)


def record_cli(op: Op, result, tally: Tally, first: bool) -> None:
    rc, stdout, stderr = result
    if rc != 0:
        print(f"FAILED [{op.label}]: exit {rc}: {stderr.strip()}", file=sys.stderr)
        tally.outcome(op, first, [], raised=True)
        return
    if op.kind in ("replay", "check-lambda"):
        problems = check_cli(op, stdout, None)
    elif first:
        data = Path(op.payload[-1]).read_bytes()
        obj = json.loads(data)
        tally.first_output(op, data, len(obj["records"]), len(obj["final"]["charts"]))
        problems = check_cli(op, stdout, obj)
    else:
        problems = same_output(op, Path(op.payload[-1]).read_bytes())
    tally.outcome(op, first, problems, raised=False)


def run_round(workload: str, mods, ops, tally: Tally, first: bool, tracer, env) -> tuple[float, list[float]]:
    """One timed pass over the operations, then the untimed checks.

    Returns the pass's CPU time as measured and scaled (see `timed_pass`).
    """
    if workload == "cli":
        elapsed, scaled, outputs = timed_pass(ops, lambda op: run_cli(op, env, mods, tracer is not None))
    else:
        elapsed, scaled, outputs = timed_pass(ops, lambda op: run_library(mods, op))
    if tracer is not None:
        tracer.on = False
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            print(f"FAILED [{op.label}]: {out!r}", file=sys.stderr)
            tally.outcome(op, first, [], raised=True)
        elif workload == "cli":
            record_cli(op, out, tally, first)
        else:
            record_library(mods, op, out, tally, first)
    return elapsed, scaled


def per_layer(snap: dict, rounds: int) -> dict:
    """Per-round means; each round has one traced set-up and one traced pass."""

    def stat(label: str, field: int) -> float:
        return snap["stats"].get(label, (0, 0.0, 0.0))[field] / rounds

    def count(name: str) -> float:
        return snap["counts"].get(name, 0) / rounds

    labels = snap["stats"]
    out = {}
    for name, unit in PER_LAYER:
        base, what = name.rsplit(".", 1)
        if name in RATIOS:
            num, den = RATIOS[name]
            d = stat(den, 0) if den in labels else count(den)
            value = count(num) / d if d else 0.0
        elif what == "self_s":
            value = sum(stat(lab, 2) for lab in labels if lab.startswith(base + "."))
        elif what in ("calls", "builds", "s"):
            if base not in labels:
                print(f"warning: no traced function {base} for {name}", file=sys.stderr)
            value = stat(base, 1 if what == "s" else 0)
        else:
            value = count(name)
        out[name] = {"value": value, "unit": unit}
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "monored" / "__init__.py").is_file():
        raise SystemExit(f"error: no monored sources under {SRC}")
    sys.path.insert(0, str(SRC))
    rundir = OUT / f"{workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    tracer = tracing.Tracer() if trace else None
    tally = Tally()
    # Rounds' CPU seconds as measured; op_times (one list per operation, one
    # entry per round) and setup_times are scaled to the reference's nominal
    # speed (see calibrate.py).
    raw_rounds, op_times, setup_times, ops = [], [], [], []
    try:
        start = time.perf_counter()
        while not raw_rounds or time.perf_counter() - start < seconds:
            # Set-up is repeated before every round, so its samples spread
            # over the run like the rounds do; the last set-up is the one used.
            for rep in range(SETUP_REPS):
                gc.collect()
                if tracer is not None:
                    tracer.on = rep == SETUP_REPS - 1
                t0 = cpu_clock()
                mods, fresh = setup(workload, seed, tracer, rundir)
                t = cpu_clock() - t0
                # Set-up drifts faster than a round lasts, so each sample is
                # scaled by a reference taken right after it.
                setup_times.append(t * calibrate.UNIT_S / calibrate.unit_seconds(SETUP_REF_UNITS))
            for new, old in zip(fresh, ops):
                new.digest, new.baseline_ok = old.digest, old.baseline_ok
            ops = fresh
            elapsed, scaled = run_round(workload, mods, ops, tally, not raw_rounds, tracer, env)
            raw_rounds.append(elapsed)
            op_times = op_times or [[] for _ in ops]
            for times, t in zip(op_times, scaled):
                times.append(t)
        # A slow moment of the machine hits one operation of one round; the
        # median of each operation over the rounds leaves it out.
        pass_s = sum(statistics.median(times) for times in op_times)
        print(
            f"{workload}: {len(raw_rounds)} rounds of {len(ops)} operations, "
            f"round CPU time median {statistics.median(raw_rounds):.4f} s "
            f"(min {min(raw_rounds):.4f}, max {max(raw_rounds):.4f}); "
            f"scaled: sum of per-operation medians {pass_s:.4f} s, "
            f"set-up {statistics.median(setup_times):.4f} s over {len(setup_times)}",
            file=sys.stderr,
        )
        if trace:
            metrics = per_layer(tracer.snapshot(), len(raw_rounds))
            tracer.dump(OUT / f"spans-{workload}-seed{seed}.json")
        else:
            who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": statistics.median(setup_times),
                "cpu_s": pass_s,
                "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
                "output_mb": tally.output_bytes / 1e6,
                "blowups": tally.blowups,
                "final_charts": tally.final_charts,
            }
            metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
        return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def run_all(args) -> dict:
    """Each workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: workload {workload} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = metric
    return total


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:45s} {metric['value']:>14.6g} {metric['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
