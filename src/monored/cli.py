"""Command-line front end.

Commands operate on a JSON configuration file; trace-emitting commands
write a replayable JSON trace.  Exit codes: 0 success, 1 validation error,
2 contract violation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import arithmetic
from .arithmetic import IntPoly
from .core import chart_name, chart_order, max_order, support
from .errors import ContractError, ValidationError
from .reduction import reduce
from .resolution import principalize, total_transform_generators, weak_resolve
from .serialize import (
    StepRenderer,
    canonical_json,
    component_names,
    final_state_obj,
    load_config,
    load_config_file,
    monomial_obj,
    read_json_file,
    replay_trace,
    trace_document,
)
from .transform import blow_up_global

HEADER = "monored report 1"


def _emit(out_path: str | None, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"trace written to {out_path}")
    else:
        sys.stdout.write(text)


def cmd_order(args) -> int:
    cfg = load_config_file(args.config)
    print(HEADER)
    print(f"max_order: {max_order(cfg)}")
    for ch in cfg.charts:
        print(f"chart {chart_name(cfg.registry, ch.label, ch.path)}: order {chart_order(ch, cfg.dim_p)}")
    return 0


def cmd_support(args) -> int:
    cfg = load_config_file(args.config)
    print(HEADER)
    strata = support(cfg)
    if not strata:
        print("support: empty")
        return 0
    for s in strata:
        names = ",".join(component_names(cfg.registry, s.vanishing))
        print(
            f"chart {chart_name(cfg.registry, s.chart.label, s.chart.path)}: minimal stratum "
            f"{{{names}}}"
        )
    return 0


def cmd_blowup(args) -> int:
    cfg = load_config_file(args.config)
    center = frozenset(cfg.component_id(n.strip()) for n in args.center.split(",") if n.strip())
    if not center:
        raise ValidationError("--center needs at least one component name")
    final, record = blow_up_global(cfg, center)
    steps = StepRenderer()
    steps(final, record)
    print(HEADER)
    names = ",".join(sorted(component_names(cfg.registry, center)))
    print(f"blow-up at {{{names}}}: stage {record.stage}")
    _emit(args.out, trace_document(cfg, steps, final, [record]))
    return 0


def cmd_reduce(args) -> int:
    cfg = load_config_file(args.config)
    steps = StepRenderer()
    final, records = reduce(cfg, on_step=steps)
    print(HEADER)
    print(f"order reduction: {len(records)} blow-ups, final max_order {max_order(final)}")
    _emit(args.out, trace_document(cfg, steps, final, records))
    return 0


def _principal_extra(trace) -> dict:
    return {
        "cosupport": [
            {
                "chart": chart_name(trace.initial.registry, *key),
                "vanishing": component_names(trace.initial.registry, vanishing),
            }
            for key, vanishing in trace.cosupport
        ]
    }


def cmd_principalize(args) -> int:
    cfg = load_config_file(args.config)
    steps = StepRenderer()
    trace = principalize(cfg, on_step=steps)
    print(HEADER)
    charts = trace.final.charts
    if args.prune:
        charts = tuple(ch for ch in charts if not ch.ideal.is_unit() or ch.path)
    print(f"principalization: {len(trace.records)} blow-ups across {len(trace.final.charts)} charts")
    for ch in charts:
        gens = total_transform_generators(ch)
        print(
            f"chart {chart_name(trace.final.registry, ch.label, ch.path)}: total transform "
            f"{[monomial_obj(trace.final.registry, g) for g in gens]}"
        )
    _emit(args.out, trace_document(trace.initial, steps, trace.final, trace.records, _principal_extra(trace)))
    return 0


def cmd_resolve(args) -> int:
    cfg = load_config_file(args.config)
    steps = StepRenderer()
    trace = weak_resolve(cfg, on_step=steps)
    print(HEADER)
    if trace.separation_stage is None:
        print("no separation stage found")
    else:
        print(f"strict transform separates at stage {trace.separation_stage}")
    extra = _principal_extra(trace)
    extra["separation"] = {
        "stage": trace.separation_stage,
        "charts": [
            {
                "chart": chart_name(trace.final.registry, *key),
                "strict": [monomial_obj(trace.initial.registry, g) for g in gens],
            }
            for key, gens in trace.separated
        ],
    }
    for entry in extra["separation"]["charts"]:
        print(f"chart {entry['chart']}: strict transform {entry['strict']}")
    _emit(args.out, trace_document(trace.initial, steps, trace.final, trace.records, extra))
    return 0


def cmd_replay(args) -> int:
    obj = read_json_file(args.trace)
    if not isinstance(obj, dict) or "input" not in obj:
        raise ValidationError("trace file carries no input section")
    if not isinstance(obj.get("final"), dict):
        raise ValidationError("trace file carries no final section")
    initial = load_config(obj["input"])
    final, records = replay_trace(initial, obj)
    replayed = canonical_json(final_state_obj(final, records))
    recorded = canonical_json(obj["final"])
    print(HEADER)
    if replayed == recorded:
        print("replay: final state identical")
        return 0
    raise ContractError("replay produced a different final state")


def cmd_check_lambda(args) -> int:
    try:
        primes = [int(p) for p in args.primes.split(",") if p.strip()]
        seed = args.seed
        if seed is None:
            seed = int(os.environ.get("MONORED_SEED", "0"))
    except ValueError as exc:
        raise ValidationError(f"--primes and MONORED_SEED take integers: {exc}") from None
    if not primes:
        raise ValidationError("--primes needs at least one prime")
    for p in primes:
        if not arithmetic.is_prime(p):
            raise ValidationError(f"{p} is not prime")
    rng = random.Random(seed)
    print(HEADER)
    print(f"seed {seed}, primes {primes}")
    variables = ("x", "y", "z")
    ok = True

    polys = [
        arithmetic.random_poly(rng, variables, arithmetic.DEFAULT_MAX_DEGREE)
        for _ in range(arithmetic.DEFAULT_SAMPLES)
    ]
    frob = all(arithmetic.frobenius_lift_check(p, f) for p in primes for f in polys)
    print(f"frobenius_lift_check on {len(polys)} polynomials: {'ok' if frob else 'FAILED'}")
    ok &= frob

    gens = [IntPoly.var(variables, "x"), IntPoly.var(variables, "y")]
    rees_ok = True
    for _ in range(25):
        element = arithmetic.random_rees_element(rng, gens)
        for p in primes:
            rees_ok &= arithmetic.rees_lift_check(p, gens, element)
    print(f"rees_lift_check on monomial Rees elements: {'ok' if rees_ok else 'FAILED'}")
    ok &= rees_ok

    samples = [arithmetic.random_monomial(rng, variables, 4) for _ in range(20)]
    flat = arithmetic.normal_cone_flat_check(gens, 3, primes, samples)
    print(f"normal_cone_flat_check on (x, y): {'ok' if flat else 'FAILED'}")
    ok &= flat

    bad_vars = ("x",)
    bad_gens = [IntPoly.constant(bad_vars, 2), IntPoly.var(bad_vars, "x")]
    bad_samples = [IntPoly.var(bad_vars, "x")]
    torsion = not arithmetic.normal_cone_flat_check(bad_gens, 2, primes, bad_samples)
    print(f"normal_cone_flat_check rejects (2, x): {'ok' if torsion else 'FAILED'}")
    ok &= torsion

    proj_ok = True
    for _ in range(20):
        n = rng.randint(1, 2)
        x = IntPoly.zero(variables)
        for _ in range(rng.randint(1, 2)):
            prod = IntPoly.constant(variables, rng.randint(-3, 3))
            for g in rng.choices(gens, k=n):
                prod = prod * g
            x = x + prod * arithmetic.random_monomial(rng, variables, 2)
        if x.is_zero():
            x = gens[0] ** n
        for p in primes:
            proj_ok &= arithmetic.proj_chart_frobenius_check(p, gens, gens[0], x, n)
    print(f"proj_chart_frobenius_check on localization samples: {'ok' if proj_ok else 'FAILED'}")
    ok &= proj_ok

    if not ok:
        raise ContractError("a Frobenius-lift identity failed; the arithmetic kernel is broken")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monored",
        description="Order reduction, principalization and weak resolution "
        "for marked monomial ideals on chart complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, config=True):
        p = sub.add_parser(name)
        if config:
            p.add_argument("config", help="configuration JSON file")
        p.set_defaults(fn=fn)
        return p

    add("order", cmd_order)
    add("support", cmd_support)
    p = add("blowup", cmd_blowup)
    p.add_argument("--center", required=True, help="comma-separated component names")
    p.add_argument("--out", help="trace output path")
    p = add("reduce", cmd_reduce)
    p.add_argument("--out", help="trace output path")
    p = add("principalize", cmd_principalize)
    p.add_argument("--out", help="trace output path")
    p.add_argument("--prune", action="store_true", help="drop untouched unit-ideal charts from the report")
    p = add("resolve", cmd_resolve)
    p.add_argument("--out", help="trace output path")
    p = add("replay", cmd_replay, config=False)
    p.add_argument("--trace", required=True, help="trace JSON file")
    p = add("check-lambda", cmd_check_lambda, config=False)
    p.add_argument("--primes", default="2,3,5", help="comma-separated primes")
    p.add_argument("--seed", type=int, default=None, help="sampling seed (env MONORED_SEED)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
