"""Blow-ups of configurations along permissible centres.

A blow-up along the intersection of a component set K replaces every chart
containing all of K by one child chart per k in K.  Generators move by the
substitution rule for blow-up coordinates followed by division by the m-th
power of the exceptional coordinate; on exponent vectors that is pure
integer arithmetic (`Monomial.exchanged`), verified independently by the
polynomial oracle in `arithmetic`.  `blow_up_global` is the one place the
rule is applied to charts, and `core.permissible_charts` the one place a
centre is checked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Chart,
    Configuration,
    MarkedIdeal,
    PathNode,
    grow,
    permissible_charts,
)
from .errors import NonPermissibleError

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


def blow_up_global(cfg: Configuration, center) -> tuple[Configuration, BlowUpRecord]:
    """Blow the whole configuration up along a permissible centre.

    Appends one exceptional component to the registry, replaces every chart
    containing the centre by its children (one per centre component k, in
    component order), and keeps every other chart as it is.  Only the
    charts containing the centre are visited.  The grown configuration's
    `step` pairs each replaced chart with its children; the record names
    them by path.  Each child's path is one new node on its parent's.

    `permissible_charts` finds those charts, in one scan of the chart
    index, and hands on each generator's degree along the centre, which is
    the same in every child.  In the child of k, k drops out and the
    exceptional component, whose id is above every present one, comes
    last.  No replaced chart is P-empty, so a child is P-empty just when
    its defining component cuts P; the others inherit the P-cutting set
    verbatim.
    """
    center = frozenset(center)
    replaced = permissible_charts(cfg, center)
    if replaced is None:
        names = ",".join(cfg.registry[c] for c in sorted(center))
        raise NonPermissibleError(
            f"centre {{{names}}} is not permissible: its trace on N must lie in the "
            f"support (every chart meeting it needs order >= {cfg.mark} along it)"
        )
    stage = cfg.n_blowups + 1
    exceptional = len(cfg.registry)
    ks = sorted(center)
    steps = [(stage, k) for k in ks]
    outcomes = []
    for ch, degrees in replaced:
        mark, p_comps, excess = ch.mark, ch.p_components, ch.pullback_excess
        node = ch.path
        depth, top = node.depth + 1, node.top
        gens = ch.ideal.generators
        # the pullback of the multiplier, times the exceptional^mark this step
        # divided out
        excess_degree = excess.degree(center) + mark
        # Chart's fields in order: keyword arguments would cost a quarter
        # of the call
        kids = [
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
        outcomes.append((ch, kids))
    record = BlowUpRecord(
        stage,
        center,
        exceptional,
        tuple([((ch.label, ch.path), tuple([k.path for k in kids])) for ch, kids in outcomes]),
    )
    return grow(cfg, outcomes), record
