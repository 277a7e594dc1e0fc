"""Command-line front end.

Commands operate on a JSON configuration file; trace-emitting commands
write a replayable JSON trace.  `main` alone loads the configuration,
writes the trace and prints, after the command has returned, so a command
that fails prints nothing.  Exit codes: 0 success, 1 validation error (or
a stdout closed early), 2 contract violation.
"""

from __future__ import annotations

import argparse
import os
import sys

# each command imports `reduction`, `resolution`, `serialize` or
# `arithmetic` when it runs, so it loads only the modules it uses
from .core import chart_name, chart_order, max_order, support
from .errors import ContractError, ValidationError
from .transform import blow_up_global

HEADER = "monored report 1"
# the largest prime check-lambda takes: its cost grows steeply with p
# (rees_lift_check takes a p-fold product); all six primes up to 13 take
# 0.7-1.3 s of child CPU (Python 3.11, 2 CPUs)
MAX_PRIME = 13


def _write_trace(obj, fh) -> None:
    # the canonical form, the one input_digest hashes, streamed in pieces
    from .serialize import write_canonical

    write_canonical(obj, fh)
    fh.write("\n")


def _emit(out_path: str | None, obj) -> None:
    """Write a trace document to `out_path`, or to stdout without one.

    A regular file (new, or reached through a symlink) is written as a
    temporary file beside it and renamed onto it once complete, so a failed
    write leaves no partial trace and keeps the file that was there.  Any
    other target, such as `/dev/stdout` or a pipe, is written in place.  A
    target that cannot be written is a validation error.
    """
    if not out_path:
        _write_trace(obj, sys.stdout)
        return
    try:
        if os.path.exists(out_path) and not os.path.isfile(out_path):
            with open(out_path, "w", encoding="utf-8") as fh:
                _write_trace(obj, fh)
        else:
            target = os.path.realpath(out_path)
            head, tail = os.path.split(target)
            tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            try:
                if os.path.exists(target):
                    os.chmod(tmp, os.stat(target).st_mode & 0o7777)
                with open(fd, "w", encoding="utf-8") as fh:
                    _write_trace(obj, fh)
                os.replace(tmp, target)
            except BaseException:
                os.remove(tmp)
                raise
    except OSError as exc:
        raise ValidationError(f"cannot write {out_path}: {exc.strerror or exc}") from None


# Each command takes its arguments and the loaded configuration (None for
# `replay` and `check-lambda`) and returns its report lines, its trace
# document or None, and the contract violation its report ends with or None.


def cmd_order(args, cfg):
    lines = [f"max_order: {max_order(cfg)}"]
    lines += [f"chart {chart_name(cfg.registry, ch.label, ch.path)}: order {chart_order(ch)}" for ch in cfg.charts]
    return lines, None, None


def cmd_support(args, cfg):
    from .serialize import component_names

    strata = support(cfg)
    lines = [
        f"chart {chart_name(cfg.registry, s.chart.label, s.chart.path)}: minimal stratum "
        f"{{{','.join(component_names(cfg.registry, s.vanishing))}}}"
        for s in strata
    ]
    return lines or ["support: empty"], None, None


def cmd_blowup(args, cfg):
    from .serialize import StepRenderer, component_names, trace_document

    center = frozenset(cfg.component_id(n.strip()) for n in args.center.split(",") if n.strip())
    if not center:
        raise ValidationError("--center needs at least one component name")
    final, record = blow_up_global(cfg, center)
    steps = StepRenderer()
    steps(final.registry, final.step, record)
    names = ",".join(sorted(component_names(cfg.registry, center)))
    return [f"blow-up at {{{names}}}: stage {record.stage}"], trace_document(cfg, steps, final, [record]), None


def cmd_reduce(args, cfg):
    from .reduction import reduce
    from .serialize import StepRenderer, trace_document

    steps = StepRenderer()
    final, records = reduce(cfg, on_step=steps)
    line = f"order reduction: {len(records)} blow-ups, final max_order {max_order(final)}"
    return [line], trace_document(cfg, steps, final, records), None


def _principal_extra(trace) -> dict:
    from .serialize import component_names

    return {
        "cosupport": [
            {
                "chart": chart_name(trace.initial.registry, *key),
                "vanishing": component_names(trace.initial.registry, vanishing),
            }
            for key, vanishing in trace.cosupport
        ]
    }


def cmd_principalize(args, cfg):
    from .resolution import principalize, total_transform_generators
    from .serialize import StepRenderer, monomial_obj, trace_document

    steps = StepRenderer()
    trace = principalize(cfg, on_step=steps)
    charts = trace.final.charts
    if args.prune:
        charts = tuple(ch for ch in charts if not ch.ideal.is_unit() or ch.path)
    lines = [f"principalization: {len(trace.records)} blow-ups across {len(trace.final.charts)} charts"]
    lines += [
        f"chart {chart_name(trace.final.registry, ch.label, ch.path)}: total transform "
        f"{[monomial_obj(trace.final.registry, g) for g in total_transform_generators(ch)]}"
        for ch in charts
    ]
    doc = trace_document(trace.initial, steps, trace.final, trace.records, _principal_extra(trace))
    return lines, doc, None


def cmd_resolve(args, cfg):
    from .resolution import weak_resolve
    from .serialize import StepRenderer, monomial_obj, trace_document

    steps = StepRenderer()
    trace = weak_resolve(cfg, on_step=steps)
    if trace.separation_stage is None:
        lines = ["no separation stage found"]
    else:
        lines = [f"strict transform separates at stage {trace.separation_stage}"]
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
    lines += [f"chart {entry['chart']}: strict transform {entry['strict']}" for entry in extra["separation"]["charts"]]
    return lines, trace_document(trace.initial, steps, trace.final, trace.records, extra), None


def cmd_replay(args, cfg):
    from .serialize import canonical_json, final_state_obj, read_json_file, replay_trace

    obj = read_json_file(args.trace)
    final, records = replay_trace(obj)
    if not isinstance(obj.get("final"), dict):
        raise ValidationError("trace file carries no final section")
    if canonical_json(final_state_obj(final, records)) == canonical_json(obj["final"]):
        return ["replay: final state identical"], None, None
    return [], None, ContractError("replay produced a different final state")


def cmd_check_lambda(args, cfg):
    from . import arithmetic

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
    if len(set(primes)) < len(primes):
        raise ValidationError(f"--primes lists a prime twice: {primes}")
    if max(primes) > MAX_PRIME:
        raise ContractError(f"prime {max(primes)} is above {MAX_PRIME}, the largest check-lambda's budget allows")
    results = arithmetic.lambda_checks(primes, seed)
    lines = [f"seed {seed}, primes {primes}"]
    lines += [f"{label}: {'ok' if held else 'FAILED'}" for label, held in results]
    if all(held for _, held in results):
        return lines, None, None
    return lines, None, ContractError("a Frobenius-lift identity failed; the arithmetic kernel is broken")


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
    """Run one command: load its configuration, write its `--out` trace,
    print its report, then write its trace to stdout without `--out`."""
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        cfg = None
        if "config" in args:
            from .serialize import load_config_file

            cfg = load_config_file(args.config)
        lines, trace, violation = args.fn(args, cfg)
        if out:
            _emit(out, trace)
        print(HEADER, *lines, sep="\n")
        if out:
            print(f"trace written to {out}")
        elif trace is not None:
            _emit(None, trace)
        if violation is not None:
            raise violation
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout was closed early (`| head`): send the interpreter's final
        # flush to devnull so it cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
