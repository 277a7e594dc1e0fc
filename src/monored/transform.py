"""Blow-ups of configurations along permissible centres.

A blow-up along the intersection of a component set K replaces every chart
containing all of K by one child chart per k in K.  Generators move by the
substitution rule for blow-up coordinates followed by division by the m-th
power of the exceptional coordinate; on exponent vectors that is pure
integer arithmetic (`Monomial.exchanged`), verified independently by the
polynomial oracle in `arithmetic`.  `_children` is the one place the rule
is applied to charts.  `blow_up_global` makes one blow-up along any centre,
checked by `core.permissible_charts`; `blow_up_each` makes a run of them
along P and one more component each, as the first monomial stage does,
and refuses where that check would.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Chart,
    Configuration,
    Growth,
    MarkedIdeal,
    PathNode,
    permissible_charts,
)
from .errors import NonPermissibleError, ValidationError, is_int

ChartKey = tuple[str, PathNode]


@dataclass(frozen=True)
class BlowUpRecord:
    """One step of a permissible sequence.

    `outcomes` lists the charts the step replaces, in chart order: each is
    keyed by (root label, path) and paired with the paths of its children,
    the nodes the charts hold, each equal to the tuple of its pairs.
    Charts that miss the centre are carried over unchanged and not listed.
    """

    stage: int
    center: frozenset[int]
    exceptional: int
    outcomes: tuple[tuple[ChartKey, tuple[PathNode, ...]], ...]


def _refusal(registry, center, mark: int) -> NonPermissibleError:
    names = ",".join(registry[c] for c in sorted(center))
    return NonPermissibleError(
        f"centre {{{names}}} is not permissible: its trace on N must lie in the "
        f"support (every chart meeting it needs order >= {mark} along it)"
    )


def _children(ch: Chart, center, ks, steps, exceptional: int, degrees) -> list[Chart]:
    """The children of `ch` in a blow-up along `center`, one per component
    k of `ks` (the centre's, in order) with its path step in `steps`, given
    each generator's degree along the centre.

    The degrees are the same in every child.  In the child of k, k drops
    out and the exceptional component, whose id is above every present
    one, comes last.  No replaced chart is P-empty, so a child is P-empty
    just when its defining component cuts P; the others inherit the
    P-cutting set verbatim.
    """
    mark, p_comps, excess = ch.mark, ch.p_components, ch.pullback_excess
    node = ch.path
    depth, top = node.depth + 1, node.top
    gens = ch.ideal.generators
    # the pullback of the multiplier, times the exceptional^mark this step
    # divided out
    excess_degree = excess.degree(center) + mark
    # Chart's fields in order: keyword arguments would cost a quarter of the
    # call
    return [
        Chart(
            ch.label,
            tuple([c for c in ch.e_components if c != k]) + (exceptional,),
            ch.n_vars,
            p_comps - {k} if k in p_comps else p_comps,
            MarkedIdeal.of(
                [g.exchanged(k, exceptional, d - mark) for g, d in zip(gens, degrees)],
                mark,
            ),
            PathNode(node, step, depth, k if k > top else top),
            k in p_comps,
            excess.exchanged(k, exceptional, excess_degree),
        )
        for k, step in zip(ks, steps)
    ]


def _record(stage: int, center, exceptional: int, outcomes) -> BlowUpRecord:
    return BlowUpRecord(
        stage,
        center,
        exceptional,
        tuple([((ch.label, ch.path), tuple([k.path for k in kids])) for ch, kids in outcomes]),
    )


def blow_up_global(cfg: Configuration, center) -> tuple[Configuration, BlowUpRecord]:
    """Blow the whole configuration up along a permissible centre.

    Appends one exceptional component to the registry, replaces every chart
    containing the centre by its children (one per centre component k, in
    component order), and keeps every other chart as it is.  Only the
    charts containing the centre are visited.  The grown configuration's
    `step` pairs each replaced chart with its children; the record names
    them by path.  Each child's path is one new node on its parent's.

    `permissible_charts` finds those charts, in one scan of the chart
    index, and hands on each generator's degree along the centre.
    """
    center = frozenset(center)
    replaced = permissible_charts(cfg, center)
    if replaced is None:
        raise _refusal(cfg.registry, center, cfg.mark)
    stage = cfg.n_blowups + 1
    exceptional = len(cfg.registry)
    ks = sorted(center)
    steps = [(stage, k) for k in ks]
    outcomes = [
        (ch, _children(ch, center, ks, steps, exceptional, degrees)) for ch, degrees in replaced
    ]
    growth = Growth(cfg)
    growth.apply(outcomes)
    return growth.grown(), _record(stage, center, exceptional, outcomes)


def blow_up_each(
    cfg: Configuration, p_components, components, on_step=None
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Blow up along P and c for each component c of `components` in turn,
    P the P-cutting set `p_components` (which no c is in); give the grown
    configuration and the records, in order.

    Each step is the blow-up `blow_up_global` makes along that centre: it
    refuses where `permissible_charts` would, with the same error, and
    builds the children by the same rule.  Of a replaced chart's children
    only the child of c holds all of P, with the step's exceptional
    component E in c's place.  So the charts holding P and c are, for each
    chart of `cfg` holding them, its one descendant holding P; once c is
    taken none holds it, and the charts holding P and E are those the step
    made in c's place.  A chart's
    descendants keep its place in chart order, so a step's charts come in
    the order of the charts of `cfg` they descend from.  No chart list is
    scanned, and one `Growth` moves the chart index once, for the run.

    `on_step(registry, outcomes, record)`, if given, is called after each
    step with the registry naming its exceptional component, its (chart,
    children) pairs and its record.
    """
    p = frozenset(p_components)
    growth = Growth(cfg)
    registry, mark = cfg.registry, cfg.mark
    first_new = len(registry)
    # each chart of `cfg` seen holding a centre -> [its descendant holding P]
    lines: dict[int, list] = {}
    # component -> the lines whose chart holds P and the component, for the
    # components the run made and has not taken, and those of `cfg` taken
    holders: dict[int, list] = {}
    records = []
    for c in components:
        center = p | {c}
        held = holders.pop(c, None)
        if held is None:
            if not (is_int(c) and 0 <= c < len(registry)) or c in p:
                raise ValidationError(f"centre references unregistered component id {c!r} or one cutting P")
            held = [] if c >= first_new else [
                lines.setdefault(id(ch), [ch]) for ch in cfg.charts_containing(center)
            ]
        stage = growth.n_blowups + 1
        exceptional = len(registry)
        ks = sorted(center)
        at = ks.index(c)
        steps = [(stage, k) for k in ks]
        outcomes = []
        for line in held:
            ch = line[0]
            if ch.p_empty or not ch.p_components <= center:
                raise _refusal(registry, center, mark)
            degrees = [g.degree(center) for g in ch.ideal.generators]
            if min(degrees) < mark:
                raise _refusal(registry, center, mark)
            kids = _children(ch, center, ks, steps, exceptional, degrees)
            line[0] = kids[at]
            outcomes.append((ch, kids))
        registry = growth.apply(outcomes)
        if c < first_new:
            holders[c] = []
        holders[exceptional] = held
        rec = _record(stage, center, exceptional, outcomes)
        records.append(rec)
        if on_step is not None:
            on_step(registry, outcomes, rec)
    return growth.grown(), records
