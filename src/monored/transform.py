"""Blow-ups of configurations along permissible centres.

A blow-up along the intersection of a component set K replaces every chart
containing all of K by one child chart per k in K.  Generators move by the
substitution rule for blow-up coordinates followed by division by the m-th
power of the exceptional coordinate; on exponent vectors that is pure
integer arithmetic (`core.exchange`), verified independently by the
polynomial oracle in `arithmetic`.  `_Line.advance` is the one place the
rule is applied to a chart, and `_Line.chart` the one place a child chart
is built.  `blow_up_global` makes one blow-up along any centre, checked by
`core.permissible_charts`, and builds every child; `blow_up_each` makes a
run of them along P and one more component each, as the first monomial
stage does, refuses where that check would, and builds a chart only for
each chart that leaves the run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Chart,
    Configuration,
    Growth,
    MarkedIdeal,
    Monomial,
    PathNode,
    exchange,
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


class _Line:
    """A chart followed through blow-ups as light state: its components,
    its generators and pullback excess as pair maps (`Monomial.pairs`), in
    component order, its P-cutting set and its path, beside the chart it
    started from (root label, `n_vars`, mark).  `advance` is the one child
    rule, applying the substitution rule `exchange`, and `chart` the one
    place a child `Chart` is built.  `current` is the chart the run's
    `Growth` holds for it, or None where `Growth` holds the line itself.
    """

    __slots__ = ("start", "comps", "p_comps", "p_empty", "gens", "excess", "path", "current")

    def __init__(self, start: Chart, comps: dict, p_comps, p_empty: bool, gens: list, excess: dict, path) -> None:
        self.start, self.comps, self.p_comps, self.p_empty = start, comps, p_comps, p_empty
        self.gens, self.excess, self.path, self.current = gens, excess, path, start

    @staticmethod
    def of(ch: Chart) -> "_Line":
        gens = [g.pairs() for g in ch.ideal.generators]
        excess = ch.pullback_excess.pairs()
        return _Line(ch, dict.fromkeys(ch.e_components), ch.p_components, ch.p_empty, gens, excess, ch.path)

    def copy(self) -> "_Line":
        gens = [dict(g) for g in self.gens]
        return _Line(self.start, dict(self.comps), self.p_comps, self.p_empty, gens, dict(self.excess), self.path)

    def advance(self, step, exceptional: int, degrees, excess_degree: int) -> "_Line":
        """Become the child of k, of path step `step` = (stage, k), in a
        blow-up along a centre holding k, given each generator's and the
        excess's degree along it (the same in every child).

        k drops out and the exceptional component, whose id is above every
        present one, comes last: generators get the centre degree less the
        mark on it, the pullback excess that degree plus the mark.  No
        replaced chart is P-empty, so a child is P-empty just when k cuts
        P; the others keep the P-cutting set."""
        k, mark = step[1], self.start.mark
        del self.comps[k]
        self.comps[exceptional] = None
        self.p_empty = k in self.p_comps
        if self.p_empty:
            self.p_comps = self.p_comps - {k}
        for g, d in zip(self.gens, degrees):
            exchange(g, k, exceptional, d - mark)
        exchange(self.excess, k, exceptional, excess_degree + mark)
        node = self.path
        self.path = PathNode(node, step, node.depth + 1, k if k > node.top else node.top)
        return self

    def chart(self) -> Chart:
        start = self.start
        # Chart's fields in order: keyword arguments would cost a quarter of
        # the call
        return Chart(
            start.label,
            tuple(self.comps),
            start.n_vars,
            self.p_comps,
            MarkedIdeal.derived([Monomial.derived(g) for g in self.gens], start.mark),
            self.path,
            self.p_empty,
            Monomial.derived(self.excess),
        )


def _degree(pairs: dict, center) -> int:
    return sum([pairs[c][1] for c in center if c in pairs])


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
    steps = [(stage, k) for k in sorted(center)]
    outcomes, entries = [], []
    for ch, degrees in replaced:
        excess_degree = ch.pullback_excess.degree(center)
        kids = [_Line.of(ch).advance(step, exceptional, degrees, excess_degree).chart() for step in steps]
        outcomes.append((ch, kids))
        entries.append(((ch.label, ch.path), tuple([kid.path for kid in kids])))
    growth = Growth(cfg)
    growth.apply(outcomes)
    return growth.grown(), BlowUpRecord(stage, center, exceptional, tuple(entries))


def blow_up_each(
    cfg: Configuration, p_components, components, on_step=None
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Blow up along P and c for each component c of `components` in turn,
    P the P-cutting set `p_components` (which no c is in); give the grown
    configuration and the records, in order.

    Each step is the blow-up `blow_up_global` makes along that centre: it
    refuses where `permissible_charts` would, with the same error, and
    makes the children by the same rule.  Of a replaced chart's children
    only the child of c holds all of P, with the step's exceptional
    component E in c's place; the others lack a component of P, so no
    later centre of the run meets them.  So the charts holding P and c are, for each chart
    of `cfg` holding them, its one descendant holding P: its line
    (`_Line`), which the run advances step by step.  Once c is taken none
    holds it, and the charts holding P and E are those the step made in
    c's place.  A chart's descendants keep its place in chart order, so a
    step's charts come in the order of the charts of `cfg` they descend
    from.  No chart list is scanned, and one `Growth` moves the chart index
    once, for the run.

    A `Chart` is built for each chart that leaves the run: a child off P at
    its step, and a line's last descendant once the run is over, the line
    standing in for it in `Growth` until then.  With `on_step`, each step's
    children are built from the same state at that step instead, as the
    observer sees every step.  `on_step(registry, outcomes, record)` is
    called after each step with the registry naming its exceptional
    component, its (chart, children) pairs and its record.
    """
    p = frozenset(p_components)
    growth = Growth(cfg)
    registry, mark = cfg.registry, cfg.mark
    first_new = len(registry)
    # each chart of `cfg` seen holding a centre -> its line
    lines: dict[int, _Line] = {}
    # component -> the lines holding P and the component, for the
    # components the run made and has not taken, and those of `cfg` taken
    holders: dict[int, list] = {}
    records = []
    for c in components:
        center = p | {c}
        held = holders.pop(c, None)
        if held is None:
            if not (is_int(c) and 0 <= c < len(registry)) or c in p:
                raise ValidationError(f"centre references unregistered component id {c!r} or one cutting P")
            held = []
            if c < first_new:
                for ch in cfg.charts_containing(center):
                    if id(ch) not in lines:
                        lines[id(ch)] = _Line.of(ch)
                    held.append(lines[id(ch)])
        stage = growth.n_blowups + 1
        exceptional = len(registry)
        steps = [(stage, k) for k in sorted(center)]
        at = steps.index((stage, c))
        outcomes, entries = [], []
        for line in held:
            if line.p_empty or not line.p_comps <= center:
                raise _refusal(registry, center, mark)
            # along {c} alone a degree is c's exponent
            degrees = [_degree(g, center) for g in line.gens] if p else [g[c][1] if c in g else 0 for g in line.gens]
            if min(degrees) < mark:
                raise _refusal(registry, center, mark)
            excess_degree = _degree(line.excess, center)
            key = (line.start.label, line.path)
            kids = [
                line.copy().advance(step, exceptional, degrees, excess_degree).chart()
                for step in steps if step[1] != c
            ]
            line.advance(steps[at], exceptional, degrees, excess_degree)
            kids.insert(at, line.chart() if on_step else line)
            outcomes.append((line.current or line, kids))
            line.current = kids[at] if on_step else None
            entries.append((key, tuple([kid.path for kid in kids])))
        registry = growth.apply(outcomes)
        if c < first_new:
            holders[c] = []
        holders[exceptional] = held
        rec = BlowUpRecord(stage, center, exceptional, tuple(entries))
        records.append(rec)
        if on_step is not None:
            on_step(registry, outcomes, rec)
    for line in lines.values():
        if line.current is None:
            growth.settle(line, line.chart())
    return growth.grown(), records
