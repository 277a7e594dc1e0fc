"""Blow-ups of configurations along permissible centres.

A blow-up along the intersection of a component set K replaces every chart
containing all of K by one child chart per k in K.  Generators move by the
substitution rule for blow-up coordinates followed by division by the m-th
power of the exceptional coordinate; on exponent vectors that is pure
integer arithmetic (`core.exchange`), verified independently by the
polynomial oracle in `arithmetic`.  A chart being blown up is followed as
light state (`_Line`): `_Line.advance` is the one place the rule is applied
to it, `_Line.chart` the one place a child chart is built, and `_degrees`
the one permissibility rule.

Every sequence of blow-ups is one run, whose chart index moves once and
which builds a chart only for each chart that leaves it.  `BlowUpRun` takes
any centres, one at a time, so the next centre may depend on the last step:
the replays of order reduction, the later monomial stages and trace replay
go through it, `blow_up_sequence` for a list of centres and
`blow_up_global` for one.  `blow_up_each` makes the first monomial stage's
run, along P and one more component each, where each chart of the start
has one descendant holding P: it keeps one line per chart and needs no
index of its lines.
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
    by_place,
    centre,
    exchange,
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


def _degrees(line: _Line, center: frozenset, registry, mark: int) -> list[int]:
    """The degree of each generator of a line holding `center` along it,
    if a blow-up along `center` may replace the line; otherwise the
    refusal.  This is the one permissibility rule of a blow-up: a chart
    meeting the centre must meet P, the centre must hold its P-cutting set,
    and every generator needs degree at least the mark along it."""
    if not line.p_empty and line.p_comps <= center:
        if len(center) == 1:
            # along {c} a degree is c's exponent
            (c,) = center
            degrees = [g[c][1] if c in g else 0 for g in line.gens]
        else:
            degrees = [sum([g[c][1] for c in center if c in g]) for g in line.gens]
        if min(degrees) >= mark:
            return degrees
    raise _refusal(registry, center, mark)


_NONE: dict = {}


class BlowUpRun:
    """A permissible sequence of blow-ups of one configuration, made one
    centre at a time (`blow_up`); `grown` gives the configuration it made.

    One `Growth` moves the chart index once, for the run.  Each chart the
    run replaces is followed as a `_Line`: a chart of `cfg`, from the step
    whose centre first meets it, and every child the run makes.  A step's
    charts are the charts of `cfg` holding its centre that the run has not
    replaced (`Configuration.charts_containing`) and the lines holding it
    that the run made and has not replaced, found through the run's own
    map from each component to those lines; they are put in chart order by
    their places in `Growth`.  A step refuses where `_degrees` does, before
    it changes anything, after the centre passes `core.centre`.

    A `Chart` is built for each chart that leaves the run, once it is
    over, the line standing in for it in `Growth` until then.  With
    `on_step`, each step's children are built at that step instead, as the
    observer sees every step: `on_step(registry, outcomes, record)` is
    called after each step with the registry naming its exceptional
    component, its (chart, children) pairs and its record.  A run of no
    blow-up gives `cfg` itself.
    """

    __slots__ = ("cfg", "on_step", "growth", "_taken", "_holding", "_lines", "_children")

    def __init__(self, cfg: Configuration, on_step=None) -> None:
        self.cfg, self.on_step, self.growth = cfg, on_step, Growth(cfg)
        # ids of the charts of `cfg` the run replaced
        self._taken: set[int] = set()
        # the lines the run made and has not replaced: by id, and under
        # each component they hold
        self._lines: dict[int, _Line] = {}
        self._holding: dict[int, dict[int, _Line]] = {}
        # the children of the last blow-up
        self._children: list[_Line] = []

    def _hold(self, line: _Line) -> None:
        i = id(line)
        self._lines[i] = line
        for c in line.comps:
            self._holding.setdefault(c, {})[i] = line

    @property
    def registry(self):
        """The registry naming every component made so far."""
        return self.growth.registry

    def blow_up(self, center) -> BlowUpRecord:
        """Blow up along `center`, a set of component ids the registry
        holds; give the step's record.  Every chart holding the centre is
        replaced by its children, one per centre component k, in component
        order; each child's path is one new node on its parent's."""
        growth, mark, on_step = self.growth, self.cfg.mark, self.on_step
        registry = growth.registry
        center = centre(registry, center)
        taken, holding, lines = self._taken, self._holding, self._lines
        held = [_Line.of(ch) for ch in self.cfg.charts_containing(center) if id(ch) not in taken]
        holders = [holding.get(c, _NONE) for c in center]
        made = [line for i, line in min(holders, key=len).items() if all([i in h for h in holders])]
        if made:
            held += made
            held = by_place(held, [growth.place(line.current or line) for line in held])
        checked = [(line, _degrees(line, center, registry, mark)) for line in held]
        stage = growth.n_blowups + 1
        exceptional = len(registry)
        steps = [(stage, k) for k in sorted(center)]
        last = steps.pop()
        holding[exceptional] = {}
        outcomes, entries, children = [], [], []
        for line, degrees in checked:
            excess_degree = _degree(line.excess, center)
            key = (line.start.label, line.path)
            parent = line.current or line
            kids = [line.copy().advance(step, exceptional, degrees, excess_degree) for step in steps]
            for kid in kids:
                self._hold(kid)
            # the last child is the line itself
            if id(line) in lines:
                del holding[last[1]][id(line)]
                holding[exceptional][id(line)] = line.advance(last, exceptional, degrees, excess_degree)
            else:
                taken.add(id(parent))
                self._hold(line.advance(last, exceptional, degrees, excess_degree))
            kids.append(line)
            for kid in kids:
                kid.current = kid.chart() if on_step else None
            outcomes.append((parent, [kid.current or kid for kid in kids]))
            entries.append((key, tuple([kid.path for kid in kids])))
            children += kids
        registry = growth.apply(outcomes)
        self._children = children
        rec = BlowUpRecord(stage, center, exceptional, tuple(entries))
        if on_step is not None:
            on_step(registry, outcomes, rec)
        return rec

    def supported(self) -> list[tuple]:
        """The generators of the last blow-up's support-carrying children,
        as (component, exponent) pairs in component order
        (`Monomial.exps`): one for each generator of each child meeting P
        whose least generator degree reaches the mark."""
        mark = self.cfg.mark
        return [
            tuple(g.values())
            for kid in self._children
            if not kid.p_empty and min([sum([e for _, e in g.values()]) for g in kid.gens]) >= mark
            for g in kid.gens
        ]

    def grown(self) -> Configuration:
        """The configuration the run made."""
        growth = self.growth
        if growth.n_blowups == self.cfg.n_blowups:
            return self.cfg
        for line in self._lines.values():
            if line.current is None:
                growth.settle(line, line.chart())
        return growth.grown()


def blow_up_global(cfg: Configuration, center) -> tuple[Configuration, BlowUpRecord]:
    """Blow the whole configuration up along a permissible centre: the run
    of that one blow-up.  The grown configuration's `step` pairs each
    replaced chart with its children, in chart order."""
    run = BlowUpRun(cfg)
    rec = run.blow_up(center)
    return run.grown(), rec


def blow_up_sequence(cfg: Configuration, centres, on_step=None) -> tuple[Configuration, list[BlowUpRecord]]:
    """Blow up along each centre of `centres` in turn, in one run; give the
    grown configuration and the records, in order."""
    run = BlowUpRun(cfg, on_step)
    records = [run.blow_up(center) for center in centres]
    return run.grown(), records


def blow_up_each(
    cfg: Configuration, p_components, components, on_step=None
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Blow up along P and c for each component c of `components` in turn,
    P the P-cutting set `p_components` (which no c is in); give the grown
    configuration and the records, in order.

    Each step is the blow-up `blow_up_global` makes along that centre: it
    refuses by the same rule (`_degrees`), with the same error, and makes
    the children by the same rule.  Of a replaced chart's children
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
            degrees = _degrees(line, center, registry, mark)
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
