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

A configuration validates its charts once, where they enter (the
constructor); a chart checks nothing itself.  The configurations the engine
derives, by a run of blow-ups (`grow`) or new ideals (`map_ideals`,
`on_locus`), meet every rule by construction and are made unchecked
(`_assemble`).  The grown configuration carries, as its `step`, each chart
the run replaced paired with the charts that replaced it.  Monomials and
marked ideals too are checked where they enter, not where the engine
derives them (`derived`, with the substitution rule `exchange` on pair
maps), and a lineage shares one name list and name -> id map (`Registry`),
where `name_exceptional` names each new component.

A chart's path is a `PathNode` linked to its parent chart's, so a blow-up
copies no path; a caller's tuple path becomes a node when a configuration
is built.  Chart order, (root position, path), is kept by the chart index
with one bit-string place per chart, which a blow-up extends for its
children only, so keeping it compares no path and relabels no chart.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from operator import itemgetter

from .errors import (
    InvalidStratumError,
    MarkOverflowError,
    ValidationError,
    is_int,
)

MAX_MARK = 2**63 - 1


@dataclass(frozen=True)
class Monomial:
    """Finite map component id -> positive exponent; the empty map is 1.

    The constructor and `of` check their input; the monomials derived from
    checked ones (`power`, `drop`, `restrict`, `exchanged`, `derived`)
    skip the check.
    """

    exps: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        last = -1
        for comp, exp in self.exps:
            if not (is_int(comp) and is_int(exp)):
                raise ValidationError("monomial component ids and exponents must be integers")
            if comp < 0:
                raise ValidationError(f"component id {comp} is negative")
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
            if not (is_int(comp) and is_int(exp)):
                raise ValidationError(f"component id {comp!r} and exponent {exp!r} must be integers")
            if comp < 0:
                raise ValidationError(f"component id {comp} is negative")
            if exp < 0:
                raise ValidationError(f"exponent {exp} for component {comp} is negative")
            if exp > 0:
                items.append((comp, exp))
        return _derived(tuple(sorted(items)))

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
        if not is_int(k) or k < 0:
            raise ValidationError(f"a power must be a non-negative integer, not {k!r}")
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
        centre degree minus the mark for the birational transform, or plus
        it for the pullback multiplier.  E is the newest component, above
        every component of the monomial, so it goes last."""
        if e < 0:
            raise ValidationError("stored exponents must be positive")
        if self.exps and self.exps[-1][0] >= exceptional:
            raise ValidationError(f"exceptional component {exceptional} is not above every component of {self!r}")
        pairs = self.pairs()
        exchange(pairs, k, exceptional, e)
        return Monomial.derived(pairs)

    def pairs(self) -> dict:
        """The monomial as a pair map: each component to its (component,
        exponent) pair, this monomial's own, in component order."""
        return {x[0]: x for x in self.exps}

    @staticmethod
    def derived(pairs: dict) -> "Monomial":
        """The monomial of a pair map in component order with positive
        exponents, as `exchange` keeps one, unchecked: it holds the map's
        pairs, so monomials derived from one another share them."""
        return _derived(tuple(pairs.values()))

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


def exchange(pairs: dict, k: int, exceptional: int, e: int) -> None:
    """The substitution rule of `Monomial.exchanged` on a pair map
    (`Monomial.pairs`), in place: k drops out and E gets exponent `e` (none
    if 0).  E is above every component of the map, so a map in component
    order stays so."""
    pairs.pop(k, None)
    if e:
        pairs[exceptional] = (exceptional, e)


def minimalize(gens) -> tuple[Monomial, ...]:
    """Minimal generating set: drop duplicates and divisible generators."""
    uniq = sorted(set(gens), key=Monomial.sort_key)
    kept: list[Monomial] = []
    for g in uniq:
        exps = dict(g.exps)
        for h in kept:
            for c, e in h.exps:
                if exps.get(c, 0) < e:
                    break
            else:  # h divides g
                break
        else:
            kept.append(g)
    return tuple(kept)


@dataclass(frozen=True)
class MarkedIdeal:
    """A monomial ideal with a positive mark; `generators` holds the
    minimal generating set (`minimalize`) of the monomials given.

    The constructor and `of` check the mark; `derived`, which a blow-up
    builds its children's ideals with, keeps its parent's."""

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

    @staticmethod
    def derived(gens, mark: int) -> "MarkedIdeal":
        """The ideal of monomials a blow-up derives from a checked ideal's
        generators, with its mark: minimalized, and not checked again."""
        ideal = object.__new__(MarkedIdeal)
        object.__setattr__(ideal, "generators", tuple(gens) if len(gens) == 1 else minimalize(gens))
        object.__setattr__(ideal, "mark", mark)
        return ideal

    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_unit()

    @property
    def component_support(self) -> frozenset[int]:
        out: set[int] = set()
        for g in self.generators:
            out |= g.components
        return frozenset(out)


@functools.total_ordering
class PathNode(Sequence):
    """A chart's path: the (stage, component) pairs of the blow-ups that
    made it from its root chart, held as a node linked to its parent's.

    It equals, hashes, compares, iterates, indexes and slices as the tuple
    of those pairs; `last` is its own pair, `depth` its length and `top` its
    largest component (-1 at the root).  A blow-up makes one node per child
    and copies nothing; the hash is taken once, on first use.
    """

    __slots__ = ("parent", "last", "depth", "top", "_hash")

    def __init__(self, parent, last, depth: int, top: int) -> None:
        self.parent, self.last, self.depth, self.top, self._hash = parent, last, depth, top, None

    def __len__(self) -> int:
        return self.depth

    def __iter__(self):
        steps = []
        node = self
        while node.depth:
            steps.append(node.last)
            node = node.parent
        return reversed(steps)

    def __getitem__(self, i):
        return tuple(self)[i]

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(tuple(self))
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PathNode, tuple)):
            return NotImplemented
        return self is other or tuple(self) == tuple(other)

    def __lt__(self, other) -> bool:
        return tuple(self) < tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        # as the tuple, which pickles flat, where the chain of parents would
        # recurse once per step
        return _path_node, ("", tuple(self))


ROOT = PathNode(None, None, 0, -1)


@dataclass(frozen=True)
class Chart:
    """One affine coordinate patch of the chart complex.

    `p_empty` marks a chart that the centre subvariety P no longer meets
    (its lineage blew up one of the components cutting P); such charts carry
    no strata of P but still transform under later global centres.
    `pullback_excess` is the monomial multiplier turning the chart's
    (birational-transform) generators into literal pullback generators.
    `path` lists the (stage, component) pairs of the blow-ups that made the
    chart from its root chart: a `PathNode`, or a tuple that the
    configuration holding the chart turns into one.
    A chart is a plain record: it checks nothing (the configuration holding
    it does) and keeps nothing derived from its fields: whether it carries
    support is recorded once, by the chart index of that configuration.
    """

    label: str
    e_components: tuple[int, ...]
    n_vars: frozenset[str]
    p_components: frozenset[int]
    ideal: MarkedIdeal
    path: PathNode = ROOT
    p_empty: bool = False
    pullback_excess: Monomial = UNIT

    @property
    def mark(self) -> int:
        return self.ideal.mark


class Registry(Sequence):
    """A configuration's component names in id order: the first `len(self)`
    of an append-only list its lineage shares, with the lineage's one map
    from name to id, which `in` reads (see `name_exceptional`).  It equals,
    and hashes as, the tuple of its names."""

    __slots__ = ("_names", "_ids", "_n")

    def __init__(self, names: list, ids: dict, n: int) -> None:
        self._names, self._ids, self._n = names, ids, n

    def extended(self, name: str) -> "Registry":
        """This registry with `name` appended, to the shared list and map
        unless another branch put it there (`name_exceptional` names each
        position alike)."""
        if len(self._names) == self._n:
            self._ids[name] = self._n
            self._names.append(name)
        return Registry(self._names, self._ids, self._n + 1)

    def __contains__(self, name) -> bool:
        return self._ids.get(name, self._n) < self._n

    def component_id(self, name: str) -> int:
        if name not in self:
            raise ValidationError(f"unknown component name {name!r}")
        return self._ids[name]

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


def _path_node(label: str, path) -> PathNode:
    """The node of a path a caller gave as a tuple of (stage, component)
    pairs of ints, stages strictly increasing from 1, components not
    negative; anything else is refused."""
    if not isinstance(path, tuple):
        raise ValidationError(f"chart {label!r}: a path must be a tuple of (stage, component) pairs")
    node, previous = ROOT, 0
    for step in path:
        if not (isinstance(step, tuple) and len(step) == 2 and is_int(step[0]) and is_int(step[1])):
            raise ValidationError(f"chart {label!r}: a path must be a tuple of (stage, component) pairs of integers")
        stage, k = step
        if stage <= previous:
            raise ValidationError(f"chart {label!r}: path stages must be strictly increasing positive integers")
        if k < 0:
            raise ValidationError(f"chart {label!r}: path references an unregistered component")
        node, previous = PathNode(node, (stage, k), node.depth + 1, max(node.top, k)), stage
    return node


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
    `Registry`, equal to the tuple of its names, whose map answers name
    lookups.  All charts carry one mark, `mark`.  `n_blowups` counts the
    blow-ups made so far; no chart's path goes past that stage.  `step`
    pairs each chart that the run of blow-ups making this configuration
    replaced (`grow`) with the charts that replaced it in the end, in
    chart order, the replaced charts in the order the run first replaced
    them; for one blow-up, its (chart, children) pairs in chart order; `()`
    for one no run made.

    The constructor is the input boundary, the one place that checks chart
    rules (`_assemble` makes derived configurations): non-empty `str` names
    and labels (checked before either is hashed), unique names, the field
    types the engine relies on (a tuple of int components, frozenset
    `p_components` and `n_vars`, a `MarkedIdeal`, a `Monomial` pullback
    excess), `str` `n_vars` labels, strictly increasing, registered
    components holding the P-cutting set, the generators and pullback
    excess, no generator on a P-cutting component, at most `dim_p`
    components off P in a chart meeting P, registered components and no
    stage past `n_blowups` in a path, one mark, one P-cutting set in the
    charts meeting P (kept by them only), and unique (label, path) keys.
    A path given as a tuple must hold (stage, component) pairs of ints with
    stages strictly increasing from 1; the chart is held with its path
    turned into a `PathNode`, and a chart whose path is one already is held
    as it is.  That `n_vars` labels are no component names is a rule of
    documents only (`load_config`): the engine names exceptional components
    without reading `n_vars`.

    The charts are held as a tuple (`charts`), in a `_ChartIndex`, or both.
    A run of blow-ups moves the index on to the grown configuration
    (`grow`) and updates it there for the charts it replaces and keeps, each
    child placed from its parent's place, so a run costs what it touches.
    A configuration without an index builds one from its chart tuple when
    asked; a copy or pickle rebuilds it.

    One rule brings back the charts of a configuration that holds neither:
    it was grown from without a tuple, and kept a link to the configuration
    it grew into (`_grown`), whose `step` has that run's pairs.  It follows
    such links to the first configuration holding a tuple or an index and
    undoes the runs from there back to itself.  The links are
    strong, so a kept grown-from configuration keeps alive every later
    configuration it would undo from, until it makes its tuple.  Making the
    tuple lets the link go but keeps the index, whose places a run of
    blow-ups from the configuration may be reading (`place`); `settled`
    lets the index go too, as the tuple rebuilds it.  Either way a
    configuration's answers never change.
    """

    __slots__ = (
        "registry", "dim_p", "n_blowups", "mark", "step",
        "_index", "_charts", "_grown",
    )

    def __init__(self, registry, charts, dim_p: int, n_blowups: int = 0) -> None:
        registry, charts = tuple(registry), list(charts)
        n_names = len(registry)
        if not is_int(dim_p) or dim_p < 0:
            raise ValidationError("dim_p must be a non-negative integer")
        if not is_int(n_blowups) or n_blowups < 0:
            raise ValidationError("n_blowups must be a non-negative integer")
        if not set(map(type, registry)) <= {str} or "" in registry:
            raise ValidationError("registry names must be non-empty strings")
        ids = {name: i for i, name in enumerate(registry)}
        if len(ids) != n_names:
            raise ValidationError("registry names must be unique")
        if not charts:
            raise ValidationError("a configuration needs at least one chart")
        marks: set = set()
        p_sets: set = set()
        keys: set = set()
        for i, ch in enumerate(charts):
            if type(ch.label) is not str or not ch.label:
                raise ValidationError("chart labels must be non-empty strings")
            comps = ch.e_components
            if not (isinstance(comps, tuple) and all(map(is_int, comps))):
                raise ValidationError(f"chart {ch.label!r}: e_components must be a tuple of integers")
            if not (isinstance(ch.p_components, frozenset) and isinstance(ch.n_vars, frozenset)):
                raise ValidationError(f"chart {ch.label!r}: p_components and n_vars must be frozensets")
            if not (isinstance(ch.ideal, MarkedIdeal) and isinstance(ch.pullback_excess, Monomial)):
                raise ValidationError(f"chart {ch.label!r}: ideal must be a MarkedIdeal, pullback_excess a Monomial")
            if not set(map(type, ch.n_vars)) <= {str}:
                raise ValidationError(f"chart {ch.label!r}: n_vars labels must be strings")
            if list(comps) != sorted(set(comps)):
                raise ValidationError(f"chart {ch.label!r}: components must be strictly increasing")
            if comps and (comps[0] < 0 or comps[-1] >= n_names):
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
            path = ch.path
            if type(path) is not PathNode:
                path = _path_node(ch.label, path)
                ch = charts[i] = replace(ch, path=path)
            if path.top >= n_names:
                raise ValidationError(f"chart {ch.label!r}: path references an unregistered component")
            key = (ch.label, path)
            if path.depth and path.last[0] > n_blowups:
                raise ValidationError(
                    f"chart {chart_name(registry, *key)!r} has path stage "
                    f"{path.last[0]}, past n_blowups {n_blowups}"
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
        _assemble(self, Registry(list(registry), ids, n_names), tuple(charts), dim_p, n_blowups, marks.pop())

    @property
    def charts(self) -> tuple[Chart, ...]:
        if self._charts is None:
            self._charts = tuple(self._ordered())
            self._grown = None
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
        self._index = None
        return self

    def charts_containing(self, center) -> list[Chart]:
        """The charts in which every component of `center` is present, in
        chart order; only the charts holding the rarest one are visited."""
        return self._own_index().containing(frozenset(center))

    def support_charts(self) -> list[Chart]:
        """The charts with non-empty support, in chart order."""
        return self._own_index().supported()

    def place(self, ch: Chart) -> int:
        """The place of `ch`, one of the charts, in the chart index."""
        return self._own_index().place[id(ch)]

    def is_registered(self, name: str) -> bool:
        return name in self.registry

    def component_id(self, name: str) -> int:
        return self.registry.component_id(name)

    def _own_index(self) -> "_ChartIndex":
        if self._index is None:
            self._index = _ChartIndex(self.charts)
        return self._index

    def _fields(self):
        return (self.registry, self.charts, self.dim_p, self.n_blowups)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):
        # rebuilt through the constructor, as the index goes by chart identity
        return Configuration, (tuple(self.registry), self.charts, self.dim_p, self.n_blowups)

    def __repr__(self) -> str:
        return (
            f"Configuration(registry={self.registry!r}, charts={self.charts!r}, "
            f"dim_p={self.dim_p!r}, n_blowups={self.n_blowups!r})"
        )


class _ChartIndex:
    """The charts of one configuration, indexed for blow-ups.

    The maps go by `id(chart)`, and each holds the charts it names, so no id
    is reused while it is in the index: `charts` holds every chart;
    `by_component` the charts containing each component; `supporting` the
    charts with non-empty support.  `place` gives each chart a bit string
    held as an int: a leading 1, the chart's root number, then one field
    per blow-up that split its line into several charts.  Root n of the N
    charts an index is built from gets `(1 << N.bit_length()) | n`; child n
    of k children gets its parent's place followed by n in a field as wide
    as k - 1 (`transform.BlowUpRun`), so a lone child keeps its parent's
    place.  Siblings' fields are equally wide and in centre-component
    order, and no place is a prefix of another chart's, so places aligned
    at the left (`ordered`) sort in chart order, (root position, path).
    """

    __slots__ = ("charts", "place", "by_component", "supporting")

    def __init__(self, charts) -> None:
        self.charts: dict[int, Chart] = {}
        self.place: dict[int, int] = {}
        self.by_component: dict[int, dict[int, Chart]] = {}
        self.supporting: dict[int, Chart] = {}
        root = 1 << len(charts).bit_length()
        for n, ch in enumerate(charts):
            self.add(ch, root | n)

    def add(self, ch: Chart, place: int) -> None:
        i = id(ch)
        self.charts[i] = ch
        self.place[i] = place
        for c in ch.e_components:
            self.by_component.setdefault(c, {})[i] = ch
        if has_support(ch):
            self.supporting[i] = ch

    def remove(self, ch: Chart) -> None:
        i = id(ch)
        del self.charts[i]
        for c in ch.e_components:
            holders = self.by_component[c]
            del holders[i]
            if not holders:
                del self.by_component[c]
        self.supporting.pop(i, None)
        del self.place[i]

    def ordered(self, charts) -> list[Chart]:
        """The charts, from this index, in chart order (`by_place`)."""
        return by_place(charts, [self.place[id(ch)] for ch in charts])

    def containing(self, center: frozenset[int]) -> list[Chart]:
        holders = [self.by_component.get(c, {}) for c in center]
        rarest = min(holders, key=len)
        return self.ordered([ch for i, ch in rarest.items() if all(i in h for h in holders)])

    def supported(self) -> list[Chart]:
        return self.ordered(self.supporting.values())


_first = itemgetter(0)


def by_place(items, places: list[int]) -> list:
    """`items` sorted by their `places` (`_ChartIndex`) aligned at the left
    to the longest, which is the largest: in chart order."""
    if len(places) < 2:
        return list(items)
    top = max(places).bit_length()
    keyed = sorted(zip([p << (top - p.bit_length()) for p in places], items), key=_first)
    return [item for _, item in keyed]


def name_exceptional(registry: Registry, stage: int) -> Registry:
    """`registry` extended by the name of the exceptional component of
    blow-up stage `stage`: `exc<stage>`, primed while the name is taken.  A
    lineage's registry length less `n_blowups` is fixed, so the name
    depends only on the names before it: branches name a position alike
    and share one name list and map."""
    name = f"exc{stage}"
    while name in registry:
        name += "'"
    return registry.extended(name)


def _assemble(new, registry, charts, dim_p: int, n_blowups: int, mark: int, step=(), index=None) -> Configuration:
    """`new`, a `Configuration`, with its slots set, the one place they are
    set.  The constructor calls it after its checks; `grow`, `map_ideals`
    and `on_locus` pass their source's registry and check nothing, as each
    rule holds by construction.  A blow-up's children swap one component
    for the exceptional one, keep the mark and the P-cutting set or leave
    P, and end their paths at a stage no chart reached, so their keys are
    new.  Re-marking, the residual and the balanced companion only divide,
    raise or drop a chart's own generators, give every chart of one call
    one mark, and change no component, P-cutting set, path or key.
    `on_locus` makes one chart, whose locus (P and contact components) is
    present in it; the companion's residues avoid the locus, and at most
    dim_p - |contact|, the new dim_p, of its components are off P."""
    new.registry, new.dim_p, new.n_blowups, new.mark, new.step = registry, dim_p, n_blowups, mark, step
    new._charts, new._index, new._grown = charts, index, None  # the index is built on first use
    return new


def grow(cfg: Configuration, registry: Registry, step: list, places: list[int]) -> Configuration:
    """The configuration a run of blow-ups of `cfg` made, holding the chart
    index of `cfg` moved on: `registry` names each component the run made,
    `step` is its `step` (see `Configuration`), and `places` gives the place
    (`_ChartIndex`) of each chart `step` keeps.  Only those charts and the
    replaced ones are visited, none is read (see `_assemble`), and a `cfg`
    without a chart tuple links to the result to undo it from."""
    index = cfg._own_index()
    for ch, _ in step:
        index.remove(ch)
    for kid, place in zip([kid for _, kids in step for kid in kids], places):
        index.add(kid, place)
    n_blowups = cfg.n_blowups + len(registry) - len(cfg.registry)
    new = _assemble(object.__new__(Configuration), registry, None, cfg.dim_p, n_blowups, cfg.mark, step, index)
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


def centre(registry, center) -> frozenset[int]:
    """`center` as a component set: non-empty, and of ids `registry`
    holds; anything else is refused."""
    center = frozenset(center)
    if not center:
        raise ValidationError("the centre must be a non-empty component set")
    for c in center:
        if not (is_int(c) and 0 <= c < len(registry)):
            raise ValidationError(f"centre references unregistered component id {c!r}")
    return center


def is_permissible(cfg: Configuration, center) -> bool:
    """Whether blowing up the intersection of the given components is allowed.

    A chart missing any centre component does not meet the centre and is
    vacuously fine.  A chart containing all of them demands that the centre
    contain every P-cutting component and have order at least the mark along
    its stratum; a P-empty chart fully meeting the centre refutes
    permissibility outright, since the centre's trace on N there cannot lie
    in the support.  A blow-up applies the same rule to the state it
    follows charts in (`transform._degrees`).
    """
    center = centre(cfg.registry, center)
    return all(
        not ch.p_empty and ch.p_components <= center and min_degree(ch.ideal.generators, center) >= ch.mark
        for ch in cfg.charts_containing(center)
    )


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


def on_locus(cfg: Configuration, chart: Chart, locus, ideal: MarkedIdeal, dim_p: int) -> Configuration:
    """`chart` alone, meeting the smaller P that `locus` cuts out, with
    `ideal` and relative dimension `dim_p`: where a companion ideal of the
    chart is reduced."""
    sub = replace(chart, p_components=frozenset(locus), ideal=ideal, p_empty=False)
    return _assemble(object.__new__(Configuration), cfg.registry, (sub,), dim_p, cfg.n_blowups, ideal.mark)


def map_ideals(cfg: Configuration, ideal_of) -> Configuration:
    """The configuration with each chart's ideal replaced by `ideal_of(chart)`."""
    charts = tuple([replace(ch, ideal=ideal_of(ch)) for ch in cfg.charts])
    return _assemble(object.__new__(Configuration), cfg.registry, charts, cfg.dim_p, cfg.n_blowups, charts[0].mark)
