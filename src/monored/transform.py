"""Blow-ups of configurations along permissible centres.

A blow-up along the intersection of a component set K replaces every chart
containing all of K by one child chart per k in K.  Generators move by the
substitution rule for blow-up coordinates followed by division by the m-th
power of the exceptional coordinate; on exponent vectors that is pure
integer arithmetic (`substitute`), verified independently by the polynomial
oracle in `arithmetic`.
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
    is_permissible,
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


def substitute(g: Monomial, center, chart_var: int, exceptional: int, shift: int = 0) -> Monomial:
    """The substitution rule x_k = E, x_c = x_c' E (c in the centre) in the
    child chart of k = `chart_var`.

    The chart-defining component disappears (its strict transform misses its
    own chart) and the exceptional component E receives the centre degree
    plus `shift`: -mark for the birational transform, +mark for the pullback
    multiplier, 0 for the literal pullback.  Everything else is untouched.
    """
    e = g.degree(center) + shift
    exps = [(c, x) for c, x in g.exps if c != chart_var and c != exceptional]
    if e:
        bisect.insort(exps, (exceptional, e))
    return Monomial(tuple(exps))


def transform_generator(
    g: Monomial, center, chart_var: int, exceptional: int, mark: int
) -> Monomial:
    """Birational transform of one monomial generator in one child chart."""
    center = frozenset(center)
    total = g.degree(center)
    if total < mark:
        raise NonPermissibleError(
            f"generator {g!r} has degree {total} < mark {mark} along the centre"
        )
    return substitute(g, center, chart_var, exceptional, -mark)


def blow_up_chart(chart: Chart, center, exceptional: int, stage: int) -> list[Chart]:
    """All child charts of one chart under a blow-up along `center`.

    One child per centre component k, ordered by component id.  A child
    whose defining component cuts P is flagged P-empty; the others inherit
    the P-cutting set verbatim.  The exceptional component never joins it.
    """
    center = frozenset(center)
    if not center <= set(chart.e_components):
        raise ValidationError(
            f"centre not fully present in chart {chart.label!r}; leave the chart untouched"
        )
    children = []
    for k in sorted(center):
        gens = [
            transform_generator(g, center, k, exceptional, chart.mark)
            for g in chart.ideal.generators
        ]
        comps = tuple(sorted((set(chart.e_components) - {k}) | {exceptional}))
        children.append(
            Chart(
                label=chart.label,
                e_components=comps,
                n_vars=chart.n_vars,
                p_components=chart.p_components - {k},
                ideal=MarkedIdeal.of(gens, chart.mark),
                path=chart.path + ((stage, k),),
                p_empty=chart.p_empty or (k in chart.p_components),
                # the pullback of the multiplier, times the exceptional^mark
                # this step divided out
                pullback_excess=substitute(
                    chart.pullback_excess, center, k, exceptional, chart.mark
                ),
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
    """
    center = frozenset(center)
    if not is_permissible(cfg, center):
        names = ",".join(cfg.registry[c] for c in sorted(center))
        raise NonPermissibleError(
            f"centre {{{names}}} is not permissible: its trace on N must lie in the "
            f"support (every chart meeting it needs order >= {cfg.mark} along it)"
        )
    stage = cfg.n_blowups + 1
    exceptional = len(cfg.registry)
    outcomes = [
        (ch, blow_up_chart(ch, center, exceptional, stage))
        for ch in cfg.charts_containing(center)
    ]
    record = BlowUpRecord(
        stage,
        center,
        exceptional,
        tuple(((ch.label, ch.path), tuple(k.path for k in kids)) for ch, kids in outcomes),
    )
    return grow(cfg, _fresh_name(cfg, stage), outcomes), record
