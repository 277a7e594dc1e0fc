"""Principalization and weak embedded resolution on top of order reduction.

Principalization re-marks the ideal with 1 and order-reduces; afterwards
every chart's total transform (birational generators times the accumulated
exceptional multiplier) is generated by a single monomial, and charts whose
ideal was already the unit ideal are never subdivided.

Weak resolution principalizes the defining ideal of an embedded subscheme
while tracking its strict transform per chart (pullback generators with all
exceptional factors removed); the first stage at which some chart's strict
transform becomes a coordinate subscheme is reported together with that
chart set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    map_ideals,
    minimalize,
    support,
)
from .errors import ValidationError
from .transform import BlowUpRecord, ChartKey
from .reduction import reduce


@dataclass(frozen=True)
class ResolutionTrace:
    """A permissible sequence with its endpoints and reporting data."""

    initial: Configuration
    records: tuple[BlowUpRecord, ...]
    final: Configuration
    cosupport: tuple[tuple[ChartKey, frozenset[int]], ...]
    separation_stage: int | None = None
    separated: tuple[tuple[ChartKey, tuple[Monomial, ...]], ...] = ()


def _cosupport(cfg: Configuration):
    return tuple(((s.chart.label, s.chart.path), s.vanishing) for s in support(cfg))


def total_transform_generators(chart: Chart) -> tuple[Monomial, ...]:
    """Minimal generators of the literal pullback ideal on this chart."""
    return minimalize(
        g.times(chart.pullback_excess) for g in chart.ideal.generators
    )


def principalize(cfg: Configuration, on_step=None) -> ResolutionTrace:
    """Blow up until the pullback ideal is everywhere generated by one monomial.

    `on_step(grown, record)`, if given, is called after each blow-up of the
    returned sequence, as `reduce` calls it: top-level blow-ups only.
    """
    initial = map_ideals(cfg, lambda ch: MarkedIdeal.of(ch.ideal.generators, 1))
    cosupport = _cosupport(initial)
    if all(len(ch.ideal.generators) == 1 for ch in initial.charts):
        final, records = initial, []
    else:
        final, records = reduce(initial, on_step=on_step)
    return ResolutionTrace(
        initial=initial,
        records=tuple(records),
        final=final,
        cosupport=cosupport,
    )


def is_locally_principal(cfg: Configuration, trace: ResolutionTrace | None = None) -> bool:
    """Every chart's minimalized total-transform generator list has length 1."""
    if trace is not None and trace.final != cfg:
        raise ValidationError("trace is inconsistent with the configuration")
    return all(len(total_transform_generators(ch)) == 1 for ch in cfg.charts)


def _strict_step(gens, center, chart_var, exceptional, original_count):
    stripped = []
    for g in gens:
        pulled = g.exchanged(chart_var, exceptional, g.degree(center))
        bare = pulled.restrict(range(original_count))
        if not bare.is_unit():
            stripped.append(bare)
    return minimalize(stripped)


def _is_coordinate_subscheme(gens) -> bool:
    return bool(gens) and all(
        len(g.exps) == 1 and g.exps[0][1] == 1 for g in gens
    )


def weak_resolve(cfg: Configuration, on_step=None) -> ResolutionTrace:
    """Resolve an embedded subscheme of codimension at least two.

    Runs principalization and follows the strict transform of the subscheme
    chart by chart; the first stage where it becomes a subset of chart
    coordinates is the separation stage, and those charts carry the smooth
    model together with its blow-up history.  `on_step` sees the
    principalization's top-level blow-ups, as in `principalize`.
    """
    comps: set[int] = set()
    for ch in cfg.charts:
        comps |= set(ch.ideal.component_support)
    if len(comps) < 2:
        raise ValidationError(
            "the subscheme must have codimension at least 2 "
            "(its generators involve fewer than 2 components)"
        )
    trace = principalize(cfg, on_step)
    original_count = len(trace.initial.registry)
    strict: dict[ChartKey, tuple[Monomial, ...]] = {
        (ch.label, ch.path): ch.ideal.generators for ch in trace.initial.charts
    }
    separation_stage = None
    separated: list[tuple[ChartKey, tuple[Monomial, ...]]] = []
    for rec in trace.records:
        for (label, parent), children in rec.outcomes:
            gens = strict.pop((label, parent))
            for child, k in zip(children, sorted(rec.center)):
                strict[(label, child)] = _strict_step(
                    gens, rec.center, k, rec.exceptional, original_count
                )
        if separation_stage is None:
            hits = [
                (path, gens)
                for path, gens in sorted(strict.items())
                if _is_coordinate_subscheme(gens)
            ]
            if hits:
                separation_stage = rec.stage
                separated = hits
    return replace(
        trace,
        separation_stage=separation_stage,
        separated=tuple(separated),
    )
