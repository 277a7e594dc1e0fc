"""Each output check accepts a correct result and rejects a wrong one.

    python3 -m pytest bench/test_checks.py
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from monored.reduction import reduce  # noqa: E402
from monored.resolution import principalize  # noqa: E402
from monored.serialize import load_config, trace_to_obj  # noqa: E402
from monored.transform import blow_up_global  # noqa: E402


def worked():
    return load_config(inputs.WORKED_EXAMPLE)


def principalized(e=7):
    tr = principalize(load_config(inputs.tower(e)))
    return checks.from_library(tr.initial, tr.final, tr.records)


def with_chart(res, i, **changes):
    charts = list(res.charts)
    charts[i] = replace(charts[i], **changes)
    return replace(res, charts=tuple(charts))


def test_support_left_accepts_reduced_and_rejects_leftover_support():
    cfg = worked()
    final, records = reduce(cfg)
    assert checks.support_left(checks.from_library(cfg, final, records)) == []
    unreduced = checks.from_library(cfg, cfg, [])
    assert checks.support_left(unreduced)


def test_support_left_rejects_a_chart_with_a_non_unit_transform():
    res = principalized()
    assert checks.support_left(res) == []
    res = with_chart(res, 0, gens=({res.charts[0].e_components[0]: 1},))
    assert checks.support_left(res)


def test_pullback_accepts_principalization():
    assert checks.pullback_problems(principalized(), principal=True) == []


def test_pullback_rejects_a_chart_with_two_generators():
    res = principalized()
    i, ch = next((i, ch) for i, ch in enumerate(res.charts) if ch.excess and len(ch.e_components) > 1)
    # Move one unit of exponent from one component to another: the new
    # generator and the old one do not divide each other.
    b = next(iter(ch.excess))
    a = next(c for c in ch.e_components if c != b)
    total = {c: ch.gens[0].get(c, 0) + ch.excess.get(c, 0) for c in ch.e_components}
    moved = {**total, a: total[a] + 1, b: total[b] - 1}
    res = with_chart(res, i, gens=ch.gens + ({c: e - ch.excess.get(c, 0) for c, e in moved.items()},))
    problems = checks.pullback_problems(res, principal=True)
    assert any("2 minimal generators" in p for p in problems)


def test_pullback_rejects_one_altered_exponent():
    res = principalized()
    i = next(i for i, ch in enumerate(res.charts) if ch.excess)
    comp, exp = next(iter(res.charts[i].excess.items()))
    res = with_chart(res, i, excess={**res.charts[i].excess, comp: exp + 1})
    assert any("literal pullback" in p for p in checks.pullback_problems(res, principal=True))


def test_pullback_holds_for_reduce_results_and_rejects_altered_generator():
    cfg = worked()
    final, records = reduce(cfg)
    res = checks.from_library(cfg, final, records)
    assert checks.pullback_problems(res, principal=False) == []
    gens = res.charts[0].gens
    comp = next(iter(gens[0]))
    res = with_chart(res, 0, gens=({**gens[0], comp: gens[0][comp] + 1},) + gens[1:])
    assert checks.pullback_problems(res, principal=False)


def test_worked_v_chart_matches_hand_derivation_and_rejects_altered_exponent():
    cfg = worked()
    center = frozenset(cfg.registry.index(n) for n in inputs.WORKED_CENTER)
    final, record = blow_up_global(cfg, center)
    res = checks.from_library(cfg, final, [record])
    gens = checks.worked_v_chart_of(res)
    exc = res.registry[record.exceptional]
    assert checks.worked_v_chart_problems(gens, exc, None) == []
    gens[1] = {**gens[1], exc: gens[1][exc] + 1}
    assert checks.worked_v_chart_problems(gens, exc, None)


def reduce_trace():
    cfg = worked()
    final, records = reduce(cfg)
    return json.loads(json.dumps(trace_to_obj(cfg, records, final), ensure_ascii=False))


def test_trace_checks_accept_the_program_trace():
    obj = reduce_trace()
    res = checks.from_trace(obj)
    assert checks.support_left(res) == []
    assert checks.pullback_problems(res, principal=False) == []
    assert checks.trace_v_chart_problems(obj) == []


def test_trace_checks_reject_altered_trace():
    obj = reduce_trace()
    bad = copy.deepcopy(obj)
    child = next(c for c in bad["records"][0]["outcomes"][0]["children"] if c["chart"].endswith("/v"))
    child["generators"][0]["x"] += 1
    assert checks.trace_v_chart_problems(bad)
    bad = copy.deepcopy(obj)
    child = next(c for c in bad["records"][0]["outcomes"][0]["children"] if c["chart"].endswith("/v"))
    child["rendered"] = child["rendered"].replace("⁴", "⁵", 1)
    assert checks.trace_v_chart_problems(bad)
    bad = copy.deepcopy(obj)
    chart = bad["final"]["charts"][0]
    name = next(iter(chart["generators"][0]))
    chart["generators"][0][name] += 1
    assert checks.pullback_problems(checks.from_trace(bad), principal=False)
    bad = copy.deepcopy(obj)
    for chart in bad["final"]["charts"]:
        chart["mark"] = 1
    assert checks.support_left(checks.from_trace(bad))


LAMBDA_OK = """monored report 1
seed 7, primes [2, 3]
frobenius_lift_check on 100 polynomials: ok
rees_lift_check on monomial Rees elements: ok
normal_cone_flat_check on (x, y): ok
normal_cone_flat_check rejects (2, x): ok
proj_chart_frobenius_check on localization samples: ok
"""


def test_check_lambda_accepts_ok_and_rejects_failed_or_missing_lines():
    assert checks.check_lambda_problems(LAMBDA_OK) == []
    assert checks.check_lambda_problems(LAMBDA_OK.replace("rejects (2, x): ok", "rejects (2, x): FAILED"))
    dropped = "\n".join(ln for ln in LAMBDA_OK.splitlines() if "rejects" not in ln)
    assert checks.check_lambda_problems(dropped)


def test_cli_checks_reject_count_mismatch_and_replay_difference():
    obj = reduce_trace()
    op = run.Op("reduce worked example", "reduce", [])
    n = len(obj["records"])
    good = f"monored report 1\norder reduction: {n} blow-ups, final max_order 4\n"
    assert run.check_cli(op, good, obj) == []
    assert run.check_cli(op, good.replace(f" {n} blow-ups", f" {n + 1} blow-ups"), obj)
    replay = run.Op("replay reduce", "replay", [])
    assert run.check_cli(replay, "monored report 1\nreplay: final state identical\n", None) == []
    assert run.check_cli(replay, "monored report 1\n", None)


def test_tracer_self_times_add_up():
    tracer = tracing.Tracer()

    def inner(n):
        return sum(range(n))

    inner_w = tracer.wrap(inner, "m.inner")

    def outer(n):
        return inner_w(n) + inner_w(n)

    outer_w = tracer.wrap(outer, "m.outer")
    outer_w(20000)
    stats = tracer.snapshot()["stats"]
    calls, total, self_outer = stats["m.outer"]
    inner_calls, inner_total, inner_self = stats["m.inner"]
    assert (calls, inner_calls) == (1, 2)
    assert abs(self_outer + inner_self - total) < 1e-9


def test_benchmark_json_lists_the_metrics_the_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
