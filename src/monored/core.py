"""Marked monomial ideals on chart complexes.

The model is chart-local and purely combinatorial.  A global registry holds
divisor component names in a fixed total order.  A chart is one affine
coordinate patch: the components present in it are coordinates, `n_vars` are
the extra coordinates cutting out the ambient subvariety N, and
`p_components` is the subset of present components whose trace on N cuts out
the centre subvariety P.  Ideals are generated by monomials in the present
components and carry a positive integer mark.

Points are strata: subsets of the present components, read as "these
coordinates vanish".  A stratum lies on P exactly when it contains
`p_components`.  The divisor meets P with simple normal crossings, so a
chart meeting P has at most `dim_p` (the relative dimension of P over the
integers) components not cutting P; configurations reject any other chart.
Within a chart every stratum is non-empty, and the full stratum, the
chart's distinguished point, is its largest point of P.

A configuration validates its charts once, when it is built; a chart
checks nothing itself.  A blow-up (`grow`) adds only children that meet
every rule by construction, and checks none: their paths end at a stage no
chart reached before, so their keys are new.  The grown configuration
carries that blow-up's (chart, children) pairs as its `step`, so whoever
follows a run finds each child by identity.  Monomials too are checked where
they enter, not where the engine derives them, and a lineage of
configurations shares one append-only list of names (`Registry`).
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

from .errors import (
    InvalidStratumError,
    MarkOverflowError,
    ValidationError,
)

MAX_MARK = 2**63 - 1


def is_int(value) -> bool:
    """Whether `value` is an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Monomial:
    """Finite map component id -> positive exponent; the empty map is 1.

    The constructor and `of` check their input; the monomials derived from
    checked ones (`power`, `drop`, `restrict`, `exchanged`) skip the check.
    """

    exps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = -1
        for comp, exp in self.exps:
            if comp <= last:
                raise ValidationError("monomial exponents must be sorted by component id")
            if exp <= 0:
                raise ValidationError("stored exponents must be positive")
            last = comp

    @staticmethod
    def of(mapping: dict[int, int] | None = None) -> "Monomial":
        if not mapping:
            return UNIT
        items = []
        for comp, exp in mapping.items():
            if comp < 0:
                raise ValidationError(f"component id {comp} is negative")
            if exp < 0:
                raise ValidationError(f"exponent {exp} for component {comp} is negative")
            if exp > 0:
                items.append((int(comp), int(exp)))
        return Monomial(tuple(sorted(items)))

    def exponent(self, comp: int) -> int:
        for c, e in self.exps:
            if c == comp:
                return e
        return 0

    def degree(self, comps=None) -> int:
        """Total degree, or degree over the given component set."""
        if comps is None:
            return sum([e for _, e in self.exps])
        if len(comps) == 1:
            (comp,) = comps
            return self.exponent(comp)
        return sum([e for c, e in self.exps if c in comps])

    @property
    def components(self) -> frozenset[int]:
        return frozenset([c for c, _ in self.exps])

    def is_unit(self) -> bool:
        return not self.exps

    def as_dict(self) -> dict[int, int]:
        return dict(self.exps)

    def times(self, other: "Monomial") -> "Monomial":
        out = self.as_dict()
        for c, e in other.exps:
            out[c] = out.get(c, 0) + e
        return Monomial.of(out)

    def power(self, k: int) -> "Monomial":
        if k < 0:
            raise ValidationError("negative power")
        return _derived(tuple([(c, e * k) for c, e in self.exps])) if k else UNIT

    def divides(self, other: "Monomial") -> bool:
        return all(other.exponent(c) >= e for c, e in self.exps)

    def divided_by(self, other: "Monomial") -> "Monomial":
        if not other.divides(self):
            raise ValidationError(f"{other} does not divide {self}")
        out = self.as_dict()
        for c, e in other.exps:
            out[c] -= e
        return Monomial.of(out)

    def drop(self, comps) -> "Monomial":
        """Remove the listed components (set them to exponent 0)."""
        return _derived(tuple([x for x in self.exps if x[0] not in comps]))

    def restrict(self, comps) -> "Monomial":
        """Keep only the listed components."""
        return _derived(tuple([x for x in self.exps if x[0] in comps]))

    def exchanged(self, k: int, exceptional: int, e: int) -> "Monomial":
        """The substitution rule x_k = E, x_c = x_c' E (c in the centre) in
        the child chart of k: k drops out, and E gets exponent `e`, the
        centre degree minus the mark for the birational transform, plus it
        for the pullback multiplier, or as is for the literal pullback."""
        if e < 0:
            raise ValidationError("stored exponents must be positive")
        exps = [x for x in self.exps if x[0] != k and x[0] != exceptional]
        if e:
            bisect.insort(exps, (exceptional, e))
        return _derived(tuple(exps))

    def sort_key(self):
        return (self.degree(), self.exps)

    def __repr__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"c{c}^{e}" if e > 1 else f"c{c}" for c, e in self.exps)


UNIT = Monomial()


def _derived(exps) -> Monomial:
    """The monomial of exponents known sorted and positive, unchecked."""
    m = object.__new__(Monomial)
    object.__setattr__(m, "exps", exps)
    return m


def minimalize(gens) -> tuple[Monomial, ...]:
    """Minimal generating set: drop duplicates and divisible generators."""
    uniq = sorted(set(gens), key=Monomial.sort_key)
    kept: list[Monomial] = []
    for g in uniq:
        if not any(h.divides(g) for h in kept):
            kept.append(g)
    return tuple(kept)


@dataclass(frozen=True)
class MarkedIdeal:
    """A monomial ideal with a positive mark; `generators` holds the
    minimal generating set (`minimalize`) of the monomials given."""

    generators: tuple[Monomial, ...]
    mark: int

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        # one generator is minimal already
        object.__setattr__(self, "generators", gens if len(gens) == 1 else minimalize(gens))
        if not self.generators:
            raise ValidationError("a marked ideal needs at least one generator")
        if not is_int(self.mark) or self.mark < 1:
            raise ValidationError("the mark must be a positive integer")
        if self.mark > MAX_MARK:
            raise MarkOverflowError(f"mark {self.mark} exceeds the 64-bit checked range")

    @staticmethod
    def of(gens, mark: int) -> "MarkedIdeal":
        return MarkedIdeal(gens, mark)

    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_unit()

    @property
    def component_support(self) -> frozenset[int]:
        out: set[int] = set()
        for g in self.generators:
            out |= g.components
        return frozenset(out)


@dataclass(frozen=True)
class Chart:
    """One affine coordinate patch of the chart complex.

    `p_empty` marks a chart that the centre subvariety P no longer meets
    (its lineage blew up one of the components cutting P); such charts carry
    no strata of P but still transform under later global centres.
    `pullback_excess` is the monomial multiplier turning the chart's
    (birational-transform) generators into literal pullback generators.
    A chart is a plain record: it checks nothing (the configuration holding
    it does) and keeps nothing derived from its fields: whether it carries
    support is recorded once, by the chart index of that configuration.
    """

    label: str
    e_components: tuple[int, ...]
    n_vars: frozenset[str]
    p_components: frozenset[int]
    ideal: MarkedIdeal
    path: tuple[tuple[int, int], ...] = ()
    p_empty: bool = False
    pullback_excess: Monomial = UNIT

    @property
    def mark(self) -> int:
        return self.ideal.mark


class Registry(Sequence):
    """A configuration's component names in id order: the first `len(self)`
    of an append-only list its lineage shares (see `grow`).  It equals, and
    hashes as, the tuple of its names."""

    __slots__ = ("_names", "_n")

    def __init__(self, names: list, n: int) -> None:
        self._names, self._n = names, n

    def extended(self, name: str) -> "Registry":
        """This registry with `name` appended: to the shared list when this
        registry reads all of it, else to a copy of its own names."""
        names = self._names if len(self._names) == self._n else self._names[: self._n]
        names.append(name)
        return Registry(names, self._n + 1)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self)[i]
        return self._names[range(self._n)[i]]

    def __iter__(self):
        return itertools.islice(self._names, self._n)

    def __eq__(self, other) -> bool:
        return tuple(self) == tuple(other) if isinstance(other, (Registry, tuple)) else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __add__(self, other):
        return tuple(self) + other

    def __repr__(self) -> str:
        return repr(tuple(self))


def chart_name(registry, label: str, path) -> str:
    """Display name of a chart: its root label, then each defining component."""
    return "/".join([label] + [registry[c] for _, c in path])


@dataclass(frozen=True)
class Stratum:
    """A vanishing set inside one chart; models a point of P when valid."""

    chart: Chart
    vanishing: frozenset[int]


class Configuration:
    """Global registry, chart list and centre dimension.

    `registry` order is the total order on the component index set; new
    exceptional components are appended, hence strictly larger; it is a
    `Registry`, equal to the tuple of its names.  All charts
    carry one mark, `mark`.  `n_blowups` counts the blow-ups made so far;
    no chart's path goes past that stage.  `step` holds the (chart,
    children) pairs of the blow-up that made this configuration (`grow`),
    in chart order, and is `()` for a configuration built here.

    The constructor is the one place that checks chart rules: strictly
    increasing, registered components holding the P-cutting set, the
    generators and pullback excess, no generator on a P-cutting component,
    at most `dim_p` components off P in a chart meeting P, registered
    components and no stage past `n_blowups` in a path, one mark, one
    P-cutting set, and unique (label, path) keys.

    The charts are held as a tuple (`charts`), in a `_ChartIndex`, or both;
    the index also maps each registry name to its id.  A blow-up (`grow`)
    moves the index on to the grown configuration and updates it there for
    the charts it replaces and adds and the name it registers, so a step
    costs what it touches.  A configuration without an index builds one
    from its chart tuple when asked.

    One rule brings back the charts of a configuration that holds neither:
    it was grown from without a tuple, and kept a link to the configuration
    it grew into (`_grown`), whose `step` has that blow-up's pairs.  It
    follows such links to the first configuration holding a tuple or an
    index and undoes the blow-ups from there back to itself.  The links are
    strong, so a kept grown-from configuration keeps alive every later
    configuration it would undo from, until it makes its tuple.  Making the
    tuple lets the index and the link go, as the tuple rebuilds the index.
    Either way a configuration's answers never change.
    """

    __slots__ = (
        "registry", "dim_p", "n_blowups", "mark", "step",
        "_p", "_meeting", "_index", "_charts", "_grown",
    )

    def __init__(self, registry, charts, dim_p: int, n_blowups: int = 0) -> None:
        registry, charts = tuple(registry), tuple(charts)
        n_names = len(registry)
        if not is_int(dim_p) or dim_p < 0:
            raise ValidationError("dim_p must be a non-negative integer")
        if not is_int(n_blowups) or n_blowups < 0:
            raise ValidationError("n_blowups must be a non-negative integer")
        if len(set(registry)) != len(registry):
            raise ValidationError("registry names must be unique")
        if not charts:
            raise ValidationError("a configuration needs at least one chart")
        marks: set = set()
        p_sets: set = set()
        keys: set = set()
        for ch in charts:
            comps = ch.e_components
            key = (ch.label, ch.path)
            if list(comps) != sorted(set(comps)):
                raise ValidationError(f"chart {ch.label!r}: components must be strictly increasing")
            if comps and comps[-1] >= n_names:
                raise ValidationError(f"chart {ch.label!r} references an unregistered component")
            present = set(comps)
            if not ch.p_components <= present:
                raise ValidationError(f"chart {ch.label!r}: p_components not present in the chart")
            for g in ch.ideal.generators:
                used = g.components
                if not used <= present:
                    raise ValidationError(f"chart {ch.label!r}: generator uses absent components")
                if used & ch.p_components:
                    raise ValidationError(f"chart {ch.label!r}: generator uses a component cutting P")
            if not ch.pullback_excess.components <= present:
                raise ValidationError(f"chart {ch.label!r}: pullback excess uses absent components")
            if ch.path:
                ks = [k for _, k in ch.path]
                if min(ks) < 0 or max(ks) >= n_names:
                    raise ValidationError(f"chart {ch.label!r}: path references an unregistered component")
                if ch.path[-1][0] > n_blowups:
                    raise ValidationError(
                        f"chart {chart_name(registry, *key)!r} has path stage "
                        f"{ch.path[-1][0]}, past n_blowups {n_blowups}"
                    )
            marks.add(ch.mark)
            if not ch.p_empty:
                off_p = len(ch.e_components) - len(ch.p_components)
                if off_p > dim_p:
                    raise ValidationError(
                        f"chart {chart_name(registry, *key)!r} meets P with "
                        f"{off_p} components not cutting P, more than dim_p {dim_p}"
                    )
                p_sets.add(ch.p_components)
            if key in keys:
                raise ValidationError(f"duplicate chart {chart_name(registry, *key)!r}")
            keys.add(key)
        if len(marks) != 1:
            raise ValidationError("all charts must carry the same mark")
        if len(p_sets) > 1:
            raise ValidationError("charts meeting P must agree on the components cutting P")
        self.registry, self.dim_p, self.n_blowups = Registry(list(registry), n_names), dim_p, n_blowups
        self.mark = marks.pop()
        self.step = ()
        self._p = next(iter(p_sets), frozenset())
        self._meeting = sum(not ch.p_empty for ch in charts)
        self._charts = charts
        self._index = self._grown = None  # the index is built on first use

    @property
    def charts(self) -> tuple[Chart, ...]:
        if self._charts is None:
            self._charts = tuple(self._ordered())
            self._index = self._grown = None
        return self._charts

    def _ordered(self) -> list[Chart]:
        """The charts of a configuration holding no tuple, in chart order:
        from the first configuration down its links holding a tuple or an
        index, with the blow-ups in between undone, last first.  Each
        replaced chart goes back in place of its children."""
        steps = []
        cfg = self
        while cfg._charts is None and cfg._index is None:
            cfg = cfg._grown
            steps.append(cfg.step)
        charts = cfg._charts
        if charts is None:
            charts = cfg._index.ordered(cfg._index.charts.values())
        for outcomes in reversed(steps):
            first = {id(kids[0]): ch for ch, kids in outcomes}
            gone = {id(kid) for _, kids in outcomes for kid in kids}
            undone = []
            for ch in charts:
                if id(ch) in first:
                    undone.append(first[id(ch)])
                if id(ch) not in gone:
                    undone.append(ch)
            charts = undone
        return charts

    def settled(self) -> "Configuration":
        """This configuration holding its charts as a tuple, its index let
        go, as suits a result: the tuple costs a pointer per chart where the
        index costs a few hundred bytes, and rebuilds the index if asked."""
        self.charts
        return self

    @property
    def p_components(self) -> frozenset[int]:
        """The components cutting P in the charts meeting P."""
        return self._p if self._meeting else frozenset()

    def charts_containing(self, center) -> list[Chart]:
        """The charts in which every component of `center` is present, in
        chart order; only the charts holding the rarest one are visited."""
        return self._own_index().containing(frozenset(center))

    def support_charts(self) -> list[Chart]:
        """The charts with non-empty support, in chart order."""
        return self._own_index().supported()

    def carries_support(self, chart: Chart) -> bool:
        """Whether `chart`, one of this configuration's charts, has
        non-empty support."""
        return id(chart) in self._own_index().supporting

    def is_registered(self, name: str) -> bool:
        return name in self._own_index().ids

    def component_id(self, name: str) -> int:
        i = self._own_index().ids.get(name)
        if i is None:
            raise ValidationError(f"unknown component name {name!r}")
        return i

    def _own_index(self) -> "_ChartIndex":
        if self._index is None:
            self._index = _ChartIndex(self.charts, self.registry)
        return self._index

    def _fields(self):
        return (self.registry, self.charts, self.dim_p, self.n_blowups)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return (
            f"Configuration(registry={self.registry!r}, charts={self.charts!r}, "
            f"dim_p={self.dim_p!r}, n_blowups={self.n_blowups!r})"
        )


class _ChartIndex:
    """The charts and names of one configuration, indexed for blow-ups.

    `ids` maps each registry name to its id.  The other maps go by
    `id(chart)`, and each holds the charts it names, so no id is reused
    while it is in the index: `charts` holds every chart; `rank` is the
    position of the root chart a chart descends from, so chart order is the
    order of (rank, path), since children replace their parent in
    centre-component order and their paths extend the parent's by (stage,
    component); `by_component` holds the charts containing each component;
    `supporting` the charts with non-empty support.
    """

    __slots__ = ("ids", "charts", "rank", "by_component", "supporting")

    def __init__(self, charts, registry) -> None:
        self.ids = {name: i for i, name in enumerate(registry)}
        self.charts: dict[int, Chart] = {}
        self.rank: dict[int, int] = {}
        self.by_component: dict[int, dict[int, Chart]] = {}
        self.supporting: dict[int, Chart] = {}
        for rank, ch in enumerate(charts):
            self.add(ch, rank)

    def add(self, ch: Chart, rank: int) -> None:
        i = id(ch)
        self.charts[i] = ch
        self.rank[i] = rank
        for c in ch.e_components:
            self.by_component.setdefault(c, {})[i] = ch
        if has_support(ch):
            self.supporting[i] = ch

    def remove(self, ch: Chart) -> int:
        """Drop `ch`; returns its rank."""
        i = id(ch)
        del self.charts[i]
        for c in ch.e_components:
            holders = self.by_component[c]
            del holders[i]
            if not holders:
                del self.by_component[c]
        self.supporting.pop(i, None)
        return self.rank.pop(i)

    def ordered(self, charts) -> list[Chart]:
        rank = self.rank
        return sorted(charts, key=lambda ch: (rank[id(ch)], ch.path))

    def containing(self, center: frozenset[int]) -> list[Chart]:
        holders = [self.by_component.get(c, {}) for c in center]
        rarest = min(holders, key=len)
        return self.ordered([ch for i, ch in rarest.items() if all(i in h for h in holders)])

    def supported(self) -> list[Chart]:
        return self.ordered(self.supporting.values())


def grow(cfg: Configuration, name: str, outcomes) -> Configuration:
    """`cfg` after one blow-up: the registry gains `name`, and each
    (chart, children) pair of `outcomes`, in chart order, puts its (one or
    more) children in the chart's place.  The result keeps `outcomes` as
    its `step`.

    Nothing is re-checked but that `name` is new.  The children of a
    blow-up of `cfg` meet every rule of the constructor by construction:
    their components are registered once `name` is, they swap one
    component for another, keep the mark and drop out of P or keep its
    P-cutting set, and their paths end at stage `cfg.n_blowups + 1`,
    which no chart of `cfg` reaches, so their keys are new.  The chart
    index of `cfg`, name map included, moves to the result, and `name` is
    appended to the name list of `cfg`, which is copied only if `cfg` was
    grown from before.  A `cfg` without a chart tuple keeps a link to the
    result to undo the blow-up from.
    """
    index = cfg._own_index()
    if name in index.ids:
        raise ValidationError("registry names must be unique")
    index.ids[name] = len(cfg.registry)
    meeting = cfg._meeting
    for ch, kids in outcomes:
        rank = index.remove(ch)
        meeting -= not ch.p_empty
        for kid in kids:
            index.add(kid, rank)
            meeting += not kid.p_empty
    new = object.__new__(Configuration)
    new.registry, new.dim_p, new.mark = cfg.registry.extended(name), cfg.dim_p, cfg.mark
    new.n_blowups, new.step = cfg.n_blowups + 1, outcomes
    new._p, new._meeting = cfg._p, meeting
    new._index, new._charts, new._grown = index, None, None
    cfg._index = None
    if cfg._charts is None:
        cfg._grown = new
    return new


def min_degree(gens, vanishing) -> int:
    """Order of a monomial generator list along a vanishing set."""
    return min([g.degree(vanishing) for g in gens])


def order_at(chart: Chart, stratum: Stratum) -> int:
    """Order of the chart's ideal at a stratum.

    Equals the order in the ambient patch, in N and in P simultaneously:
    generators use no N- or P-cutting coordinates, so restriction changes
    nothing.
    """
    if stratum.chart != chart:
        raise InvalidStratumError("stratum belongs to a different chart")
    if not stratum.vanishing <= set(chart.e_components):
        missing = stratum.vanishing - set(chart.e_components)
        raise InvalidStratumError(f"stratum references components absent from the chart: {sorted(missing)}")
    if not chart.p_components <= stratum.vanishing:
        raise InvalidStratumError("stratum does not contain the components cutting P")
    return min_degree(chart.ideal.generators, stratum.vanishing)


def distinguished_order(chart: Chart) -> int:
    """Order at the distinguished point (all present components vanish):
    generators use present components only, so their least total degree."""
    return min([g.degree() for g in chart.ideal.generators])


def chart_order(chart: Chart) -> int:
    """Maximal order of the chart's ideal over its points of P (0 off P):
    the order at its distinguished point, the largest of them."""
    return 0 if chart.p_empty else distinguished_order(chart)


def max_order(cfg: Configuration) -> int:
    """Maximal order over P."""
    return max((chart_order(ch) for ch in cfg.charts), default=0)


def chart_strata(chart: Chart):
    """All vanishing sets that are points of P in this chart: every set of
    present components containing `p_components`."""
    if chart.p_empty:
        return
    extras = [c for c in chart.e_components if c not in chart.p_components]
    for size in range(0, len(extras) + 1):
        for combo in itertools.combinations(extras, size):
            yield chart.p_components | frozenset(combo)


def chart_support(chart: Chart) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal strata of this chart with order >= mark.

    Scans every stratum; which charts have any is kept by the chart index
    of a configuration (`Configuration.support_charts`), so callers need
    ask only about those.
    """
    m = chart.mark
    minimal: list[frozenset[int]] = []
    for vanishing in chart_strata(chart):
        if any(s <= vanishing for s in minimal):
            continue
        if min_degree(chart.ideal.generators, vanishing) >= m:
            minimal.append(vanishing)
    return tuple(minimal)


def has_support(chart: Chart) -> bool:
    """Whether `chart_support(chart)` is non-empty: whether the order at
    the distinguished point reaches the mark.  Every stratum of the chart
    lies in that point, and orders only grow with the vanishing set."""
    return chart_order(chart) >= chart.mark


def support(cfg: Configuration) -> list[Stratum]:
    """Minimal strata carrying the support; empty list means empty support."""
    out: list[Stratum] = []
    for ch in cfg.support_charts():
        for vanishing in chart_support(ch):
            out.append(Stratum(ch, vanishing))
    return out


def is_permissible(cfg: Configuration, center) -> bool:
    """Whether blowing up the intersection of the given components is allowed.

    A chart missing any centre component does not meet the centre and is
    vacuously fine.  A chart containing all of them demands that the centre
    contain every P-cutting component and have order at least the mark along
    its stratum; a P-empty chart fully meeting the centre refutes
    permissibility outright, since the centre's trace on N there cannot lie
    in the support.
    """
    return permissible_charts(cfg, center) is not None


def permissible_charts(cfg: Configuration, center) -> list[Chart] | None:
    """The charts containing `center`, in chart order, if it is permissible
    (`is_permissible`), else None: the charts a blow-up replaces."""
    center = frozenset(center)
    if not center:
        raise ValidationError("the centre must be a non-empty component set")
    for c in center:
        if not 0 <= c < len(cfg.registry):
            raise ValidationError(f"centre references unregistered component id {c}")
    charts = cfg.charts_containing(center)
    for ch in charts:
        if ch.p_empty:
            return None
        if not ch.p_components <= center:
            return None
        if min_degree(ch.ideal.generators, center) < ch.mark:
            return None
    return charts


def sum_marked(ideals) -> MarkedIdeal:
    """Sum of marked ideals (J_i, b_i): (sum of J_i^[L/b_i], L), with L the
    lcm of the marks and J^[k] = (g^k : g in J), each generator raised to
    the power k rather than the whole ideal.

    Orders are minima of linear forms, so ord(J^[k]) = k*ord(J) on every
    stratum; blow-ups transform exponents linearly, so (J^[k], k*b) keeps the
    support of (J, b) after every permissible sequence.  The support of the
    result is therefore the intersection of the summands' supports.
    """
    ideals = list(ideals)
    if not ideals:
        raise ValidationError("sum_marked needs at least one summand")
    total = math.lcm(*(ideal.mark for ideal in ideals))
    gens = [g.power(total // ideal.mark) for ideal in ideals for g in ideal.generators]
    return MarkedIdeal.of(gens, total)


def map_ideals(cfg: Configuration, ideal_of) -> Configuration:
    """The configuration with each chart's ideal replaced by `ideal_of(chart)`."""
    charts = [replace(ch, ideal=ideal_of(ch)) for ch in cfg.charts]
    return Configuration(cfg.registry, charts, cfg.dim_p, cfg.n_blowups)
