"""Blow-ups of configurations along permissible centres.

A blow-up along the intersection of a component set K replaces every chart
containing all of K by one child chart per k in K.  Generators move by the
substitution rule for blow-up coordinates followed by division by the m-th
power of the exceptional coordinate; on exponent vectors that is pure
integer arithmetic (`core.exchange`), verified independently by the
polynomial oracle in `arithmetic`.  A chart being blown up is followed as
light state (`_Line`) that carries its own place in chart order:
`_Line.advance` is the one place the rule is applied to it, `_Line.chart`
the one place a child chart is built, and `_degrees` the one
permissibility rule.

Every sequence of blow-ups is one run (`BlowUpRun`), which owns each chart
it makes until its end, builds a chart only for each chart that leaves it
and then moves the chart index once (`core.grow`).  It takes its centres
from an iterable, so the next centre may depend on the last step: the
monomial stages, the replays of order reduction and trace replay go
through it, `blow_up_sequence` for a list of centres and `blow_up_global`
for one.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    PathNode,
    by_place,
    centre,
    exchange,
    grow,
    name_exceptional,
)
from .errors import NonPermissibleError

ChartKey = tuple[str, PathNode]

_path = attrgetter("path")


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
    component order, its P-cutting set, its path and its place in chart
    order (`core._ChartIndex`), beside the chart it started from (root
    label, `n_vars`, mark).  `advance` is the one child rule, applying the
    substitution rule `exchange`, and `chart` the one place a child `Chart`
    is built.  `current` is the chart built for the line as it stands, or
    None: the chart it started from until it is advanced, and after that
    the chart an observed step built for it.
    """

    __slots__ = ("start", "comps", "p_comps", "p_empty", "gens", "excess", "path", "place", "current")

    def __init__(
        self, start: Chart, comps: dict, p_comps, p_empty: bool, gens: list, excess: dict, path, place: int, current
    ) -> None:
        self.start, self.comps, self.p_comps, self.p_empty = start, comps, p_comps, p_empty
        self.gens, self.excess, self.path, self.place, self.current = gens, excess, path, place, current

    @staticmethod
    def of(ch: Chart, place: int) -> "_Line":
        gens = [g.pairs() for g in ch.ideal.generators]
        excess = ch.pullback_excess.pairs()
        return _Line(ch, dict.fromkeys(ch.e_components), ch.p_components, ch.p_empty, gens, excess, ch.path, place, ch)

    def copy(self) -> "_Line":
        comps, gens, excess = dict(self.comps), [dict(g) for g in self.gens], dict(self.excess)
        return _Line(self.start, comps, self.p_comps, self.p_empty, gens, excess, self.path, self.place, None)

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


class BlowUpRun:
    """A permissible sequence of blow-ups of one configuration, made along
    the centres an iterable gives (`blow_up_along`); `grown` gives the
    configuration it made.

    Each chart the run replaces is followed as a `_Line`: a chart of `cfg`,
    from the step whose centre first meets it, with its place in the chart
    index (`Configuration.place`), and every child the run makes, placed by
    the index's split rule from its parent's place.  A step's charts are the
    charts of `cfg` holding its centre that the run has not replaced
    (`Configuration.charts_containing`) and the lines the run made holding
    it.  Two facts keep a step from looking at other lines:

    - A child the run makes off P lacks a component of P, so no centre
      holding P meets it: it is kept for the end of the run only, and
      looked for only by a centre not holding P, which any chart holding
      it refuses.
    - Each line on P is listed under each component it holds.  A replaced
      line goes on as its first child on P, and children keep their
      parent's place in chart order, so a list filled by one step is in
      chart order; only other lists are sorted (`by_place`), and the
      charts of `cfg` merged with a list.

    A step refuses where `_degrees` does, before it changes anything, after
    the centre passes `core.centre`, and names its exceptional component
    (`core.name_exceptional`).  A `Chart` is built for each chart that
    leaves the run, once it is over: `grown` groups the lines by the chart
    of `cfg` they started from, in the order the run first replaced those,
    sorts each group by place, and moves the chart index (`core.grow`).
    With `on_step`, each step's children are built at that step instead, as
    the observer sees every step: `on_step(registry, outcomes, record)` is
    called after each step with the registry naming its exceptional
    component, its (chart, children) pairs and its record.  A run of no
    blow-up gives `cfg` itself.
    """

    __slots__ = ("cfg", "on_step", "registry", "_taken", "_lines", "_holding", "_filled", "_p")

    def __init__(self, cfg: Configuration, on_step=None) -> None:
        # `registry` names every component made so far
        self.cfg, self.on_step, self.registry = cfg, on_step, cfg.registry
        # ids of the charts of `cfg` the run replaced
        self._taken: set[int] = set()
        # every line the run made, each standing for a chart of its present
        self._lines: list[_Line] = []
        # component -> the lines on P holding it, in a dict, none empty, and
        # the step that filled that list, or 0 once more than one has
        self._holding: dict[int, dict[_Line, None]] = {}
        self._filled: dict[int, int] = {}
        # the P-cutting set of the lines replaced so far
        self._p = frozenset()

    def blow_up_along(self, centres) -> list[BlowUpRecord]:
        """Blow up along each centre of `centres` in turn, a set of
        component ids the registry holds when it is taken; give the
        records.  Every chart holding a centre is replaced by its children,
        one per centre component k, in component order; each child's path
        is one new node on its parent's.  `centres` may read the run
        (`registry`, `supported`) between its steps."""
        cfg, on_step = self.cfg, self.on_step
        mark, n_start = cfg.mark, len(cfg.registry)
        taken, lines, holding, filled = self._taken, self._lines, self._holding, self._filled
        records = []
        for center in centres:
            registry = self.registry
            center = centre(registry, center)
            p = self._p
            if not p <= center and any([line.p_empty and center <= line.comps.keys() for line in lines]):
                raise _refusal(registry, center, mark)
            rest = center - p
            if len(rest) == 1:
                # each line listed under it is on P, so holds the centre
                (rarest,) = rest
                held = list(holding.get(rarest, ()))
            else:
                rarest = min(center, key=lambda c: len(holding.get(c, ())))
                held = [line for line in holding.get(rarest, ()) if center <= line.comps.keys()]
            in_order = not held or filled[rarest]
            if max(center) < n_start:
                fresh = [_Line.of(ch, cfg.place(ch)) for ch in cfg.charts_containing(center) if id(ch) not in taken]
                if fresh:
                    in_order, held = not held, fresh + held
                    # the charts on P agree on P, and one off P is refused
                    p = self._p = fresh[0].p_comps
                    rest = center - p
            if not in_order:
                held = by_place(held, [line.place for line in held])
            checked = [(line, _degrees(line, center, registry, mark)) for line in held]
            # each blow-up registers one component
            exceptional = len(registry)
            stage = cfg.n_blowups + 1 + exceptional - n_start
            registry = self.registry = name_exceptional(registry, stage)
            ks = sorted(center)
            # each line goes on as its first child on P, if it has one
            k = min(rest) if rest else ks[0]
            at, own = ks.index(k), (stage, k)
            steps = [(stage, c) for c in ks if c != k]
            width = (len(ks) - 1).bit_length()
            outcomes = [] if on_step else None
            entries = []
            for line, degrees in checked:
                excess_degree = _degree(line.excess, center)
                key = (line.start.label, line.path)
                parent, first = line.current, line.place << width
                if parent is not line.start:
                    # a line on P leaves k's list, or every list if k cuts P
                    for c in line.comps if k in line.p_comps else (k,):
                        del holding[c][line]
                        if not holding[c]:
                            del holding[c], filled[c]
                kids = [line.copy().advance(step, exceptional, degrees, excess_degree) for step in steps] if steps else []
                line.advance(own, exceptional, degrees, excess_degree)
                line.current = None
                if parent is line.start:
                    taken.add(id(parent))
                    lines.append(line)
                    if not line.p_empty:
                        self._hold(line, stage)
                elif not line.p_empty:
                    holding.setdefault(exceptional, {})[line] = None
                    filled[exceptional] = stage
                lines += kids
                for kid in kids:
                    if not kid.p_empty:
                        self._hold(kid, stage)
                kids.insert(at, line)
                for n, kid in enumerate(kids):
                    kid.place = first | n
                if on_step:
                    for kid in kids:
                        kid.current = kid.chart()
                    outcomes.append((parent, [kid.current for kid in kids]))
                entries.append((key, tuple(map(_path, kids))))
            rec = BlowUpRecord(stage, center, exceptional, tuple(entries))
            records.append(rec)
            if on_step is not None:
                on_step(registry, outcomes, rec)
        return records

    def _hold(self, line: _Line, stage: int) -> None:
        holding, filled = self._holding, self._filled
        for c in line.comps:
            listed = holding.setdefault(c, {})
            filled[c] = stage if not listed or filled[c] == stage else 0
            listed[line] = None

    def supported(self) -> list[tuple]:
        """The generators of the last blow-up's support-carrying children,
        as (component, exponent) pairs in component order
        (`Monomial.exps`): one for each generator of each child whose least
        generator degree reaches the mark, among its children on P, which
        are the lines listed under its exceptional component."""
        mark = self.cfg.mark
        return [
            tuple(g.values())
            for kid in self._holding.get(len(self.registry) - 1, ())
            if min([sum([e for _, e in g.values()]) for g in kid.gens]) >= mark
            for g in kid.gens
        ]

    def grown(self) -> Configuration:
        """The configuration the run made."""
        cfg = self.cfg
        if len(self.registry) == len(cfg.registry):
            return cfg
        starts: dict[int, list[_Line]] = {}
        for line in self._lines:
            starts.setdefault(id(line.start), []).append(line)
        step, places = [], []
        for group in starts.values():
            group = by_place(group, [line.place for line in group])
            step.append((group[0].start, [line.current or line.chart() for line in group]))
            places += [line.place for line in group]
        return grow(cfg, self.registry, step, places)


def blow_up_global(cfg: Configuration, center) -> tuple[Configuration, BlowUpRecord]:
    """Blow the whole configuration up along a permissible centre: the run
    of that one blow-up.  The grown configuration's `step` pairs each
    replaced chart with its children, in chart order."""
    run = BlowUpRun(cfg)
    (rec,) = run.blow_up_along([center])
    return run.grown(), rec


def blow_up_sequence(cfg: Configuration, centres, on_step=None) -> tuple[Configuration, list[BlowUpRecord]]:
    """Blow up along each centre of `centres` in turn, in one run; give the
    grown configuration and the records, in order."""
    run = BlowUpRun(cfg, on_step)
    records = run.blow_up_along(centres)
    return run.grown(), records
