"""Blow-ups of configurations along permissible centres.

A blow-up along the intersection of a component set K replaces every chart
containing all of K by one child chart per k in K.  Generators move by the
substitution rule for blow-up coordinates followed by division by the m-th
power of the exceptional coordinate; on exponent vectors that is pure
integer arithmetic (`Monomial.exchanged`), verified independently by the
polynomial oracle in `arithmetic`.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from .core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    grow,
    permissible_charts,
)
from .errors import NonPermissibleError, ValidationError

ChartPath = tuple[tuple[int, int], ...]
ChartKey = tuple[str, ChartPath]


@dataclass(frozen=True)
class BlowUpRecord:
    """One step of a permissible sequence.

    `outcomes` lists the charts the step replaces, in chart order: each is
    keyed by (root label, path) and paired with the paths of its children.
    Charts that miss the centre are carried over unchanged and not listed.
    """

    stage: int
    center: frozenset[int]
    exceptional: int
    outcomes: tuple[tuple[ChartKey, tuple[ChartPath, ...]], ...]


def _check_degree(g: Monomial, total: int, mark: int) -> None:
    """Refuse a generator whose degree along the centre is below the mark."""
    if total < mark:
        raise NonPermissibleError(
            f"generator {g!r} has degree {total} < mark {mark} along the centre"
        )


def transform_generator(
    g: Monomial, center, chart_var: int, exceptional: int, mark: int
) -> Monomial:
    """Birational transform of one monomial generator in one child chart."""
    total = g.degree(frozenset(center))
    _check_degree(g, total, mark)
    return g.exchanged(chart_var, exceptional, total - mark)


def blow_up_chart(chart: Chart, center, exceptional: int, stage: int) -> list[Chart]:
    """All child charts of one chart under a blow-up along `center`.

    One child per centre component k, ordered by component id.  A child
    whose defining component cuts P is flagged P-empty; the others inherit
    the P-cutting set verbatim.  The exceptional component never joins it.
    Each generator's degree along the centre is the same in every child,
    so it is taken once.
    """
    center = frozenset(center)
    comps = chart.e_components
    if not center <= set(comps):
        raise ValidationError(
            f"centre not fully present in chart {chart.label!r}; leave the chart untouched"
        )
    if not center:
        return []
    mark, p_comps = chart.mark, chart.p_components
    gens = chart.ideal.generators
    degrees = [g.degree(center) for g in gens]
    for g, total in zip(gens, degrees):
        _check_degree(g, total, mark)
    excess = chart.pullback_excess
    # the pullback of the multiplier, times the exceptional^mark this step
    # divided out
    excess_degree = excess.degree(center) + mark
    children = []
    for k in sorted(center):
        kid_comps = [c for c in comps if c != k and c != exceptional]
        bisect.insort(kid_comps, exceptional)
        children.append(
            Chart(
                label=chart.label,
                e_components=tuple(kid_comps),
                n_vars=chart.n_vars,
                p_components=p_comps - {k} if k in p_comps else p_comps,
                ideal=MarkedIdeal.of(
                    [g.exchanged(k, exceptional, d - mark) for g, d in zip(gens, degrees)],
                    mark,
                ),
                path=chart.path + ((stage, k),),
                p_empty=chart.p_empty or k in p_comps,
                pullback_excess=excess.exchanged(k, exceptional, excess_degree),
            )
        )
    return children


def _fresh_name(cfg: Configuration, stage: int) -> str:
    name = f"exc{stage}"
    while cfg.is_registered(name):
        name += "'"
    return name


def blow_up_global(cfg: Configuration, center) -> tuple[Configuration, BlowUpRecord]:
    """Blow the whole configuration up along a permissible centre.

    Appends one exceptional component to the registry, replaces every chart
    containing the centre by its children (in centre-component order), and
    keeps every other chart as it is.  Only the charts containing the
    centre are visited.  The grown configuration's `step` pairs each
    replaced chart with its children; the record names them by path.
    The permissibility check finds those charts, in one scan of the chart
    index.
    """
    center = frozenset(center)
    charts = permissible_charts(cfg, center)
    if charts is None:
        names = ",".join(cfg.registry[c] for c in sorted(center))
        raise NonPermissibleError(
            f"centre {{{names}}} is not permissible: its trace on N must lie in the "
            f"support (every chart meeting it needs order >= {cfg.mark} along it)"
        )
    stage = cfg.n_blowups + 1
    exceptional = len(cfg.registry)
    outcomes = [(ch, blow_up_chart(ch, center, exceptional, stage)) for ch in charts]
    record = BlowUpRecord(
        stage,
        center,
        exceptional,
        tuple(((ch.label, ch.path), tuple(k.path for k in kids)) for ch, kids in outcomes),
    )
    return grow(cfg, _fresh_name(cfg, stage), outcomes), record
