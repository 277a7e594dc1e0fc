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
`p_components` and vanishes in at most `dim_p` further components (`dim_p`
is the relative dimension of P over the integers).  Within a chart every
such stratum is non-empty, and the full stratum is the chart's
distinguished point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from .errors import (
    InvalidStratumError,
    MarkOverflowError,
    ValidationError,
)

MAX_MARK = 2**63 - 1


@dataclass(frozen=True)
class Monomial:
    """Finite map component id -> positive exponent; the empty map is 1."""

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
            return sum(e for _, e in self.exps)
        return sum(e for c, e in self.exps if c in comps)

    @property
    def components(self) -> frozenset[int]:
        return frozenset(c for c, _ in self.exps)

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
        return Monomial(tuple((c, e * k) for c, e in self.exps)) if k else UNIT

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
        return Monomial(tuple((c, e) for c, e in self.exps if c not in comps))

    def restrict(self, comps) -> "Monomial":
        """Keep only the listed components."""
        return Monomial(tuple((c, e) for c, e in self.exps if c in comps))

    def sort_key(self):
        return (self.degree(), self.exps)

    def __repr__(self) -> str:
        if not self.exps:
            return "1"
        return "*".join(f"c{c}^{e}" if e > 1 else f"c{c}" for c, e in self.exps)


UNIT = Monomial()


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
    """A minimal monomial generator list together with a positive mark."""

    generators: tuple[Monomial, ...]
    mark: int

    def __post_init__(self) -> None:
        if not self.generators:
            raise ValidationError("a marked ideal needs at least one generator")
        if self.mark < 1:
            raise ValidationError("the mark must be a positive integer")
        if self.mark > MAX_MARK:
            raise MarkOverflowError(f"mark {self.mark} exceeds the 64-bit checked range")
        if self.generators != minimalize(self.generators):
            raise ValidationError("generator list is not minimal; use MarkedIdeal.of")

    @staticmethod
    def of(gens, mark: int) -> "MarkedIdeal":
        return MarkedIdeal(minimalize(gens), mark)

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
    """

    label: str
    e_components: tuple[int, ...]
    n_vars: frozenset[str]
    p_components: frozenset[int]
    ideal: MarkedIdeal
    path: tuple[tuple[int, int], ...] = ()
    p_empty: bool = False
    pullback_excess: Monomial = UNIT
    # (dim_p, chart_support(self, dim_p)) once asked for; see chart_support
    _support: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if list(self.e_components) != sorted(set(self.e_components)):
            raise ValidationError(f"chart {self.label!r}: components must be strictly increasing")
        present = set(self.e_components)
        if not self.p_components <= present:
            raise ValidationError(f"chart {self.label!r}: p_components not present in the chart")
        for g in self.ideal.generators:
            if not g.components <= present:
                raise ValidationError(f"chart {self.label!r}: generator uses absent components")
            if g.components & self.p_components:
                raise ValidationError(
                    f"chart {self.label!r}: generator uses a component cutting P"
                )
        if not self.pullback_excess.components <= present:
            raise ValidationError(f"chart {self.label!r}: pullback excess uses absent components")

    @property
    def mark(self) -> int:
        return self.ideal.mark


def chart_name(registry, label: str, path) -> str:
    """Display name of a chart: its root label, then each defining component."""
    return "/".join([label] + [registry[c] for _, c in path])


@dataclass(frozen=True)
class Stratum:
    """A vanishing set inside one chart; models a point of P when valid."""

    chart: Chart
    vanishing: frozenset[int]


@dataclass(frozen=True)
class Configuration:
    """Global registry, chart list and centre dimension.

    `registry` order is the total order on the component index set; new
    exceptional components are appended, hence strictly larger.
    """

    registry: tuple[str, ...]
    charts: tuple[Chart, ...]
    dim_p: int
    n_blowups: int = 0
    # each chart of `charts` under its (label, path) key; built once, never changed
    _keys: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.dim_p < 0:
            raise ValidationError("dim_p must be non-negative")
        if len(set(self.registry)) != len(self.registry):
            raise ValidationError("registry names must be unique")
        if not self.charts:
            raise ValidationError("a configuration needs at least one chart")
        keys: dict = {}
        _check_charts(self.registry, self.charts, set(), set(), keys)
        object.__setattr__(self, "_keys", keys)

    @property
    def mark(self) -> int:
        return self.charts[0].mark

    @property
    def p_components(self) -> frozenset[int]:
        for ch in self.charts:
            if not ch.p_empty:
                return ch.p_components
        return frozenset()

    def chart(self, key) -> Chart:
        """The chart keyed `key`, a (label, path) pair."""
        return self._keys[key]

    def component_id(self, name: str) -> int:
        try:
            return self.registry.index(name)
        except ValueError:
            raise ValidationError(f"unknown component name {name!r}") from None


def _check_charts(registry, charts, marks: set, p_sets: set, keys: dict) -> None:
    """The per-chart checks of a configuration, for `charts` joining charts
    that carry the marks `marks`, cut P by `p_sets` and are keyed `keys`.

    Each chart adds its mark and P-cutting set to the two sets and itself to
    `keys` under its (label, path) key; the checks fail on an unregistered
    component, a key already taken, a second mark or a second P-cutting set.
    """
    n = len(registry)
    for ch in charts:
        if ch.e_components and ch.e_components[-1] >= n:
            raise ValidationError(f"chart {ch.label!r} references an unregistered component")
        marks.add(ch.mark)
        if not ch.p_empty:
            p_sets.add(ch.p_components)
        key = (ch.label, ch.path)
        if key in keys:
            raise ValidationError(f"duplicate chart {chart_name(registry, *key)!r}")
        keys[key] = ch
    if len(marks) != 1:
        raise ValidationError("all charts must carry the same mark")
    if len(p_sets) > 1:
        raise ValidationError("charts meeting P must agree on the components cutting P")


def grow(cfg: Configuration, name: str, charts, added, replaced) -> Configuration:
    """`cfg` after one blow-up: the registry gains `name`, the charts keyed
    `replaced` give way to `added`, and `charts` is the new chart list.

    Checks only what the blow-up adds, by the checks of a full
    configuration: `name` must be new, and the added charts must agree with
    the mark, P-cutting set and keys of `cfg` (less the replaced keys).
    Charts carried over were checked when `cfg` was built.
    """
    if name in cfg.registry:
        raise ValidationError("registry names must be unique")
    registry = cfg.registry + (name,)
    meeting = next((ch for ch in cfg.charts if not ch.p_empty), None)
    p_sets = {meeting.p_components} if meeting is not None else set()
    keys = dict(cfg._keys)
    for key in replaced:
        del keys[key]
    _check_charts(registry, added, {cfg.mark}, p_sets, keys)
    new = object.__new__(Configuration)
    for attr, value in (
        ("registry", registry),
        ("charts", tuple(charts)),
        ("dim_p", cfg.dim_p),
        ("n_blowups", cfg.n_blowups + 1),
        ("_keys", keys),
    ):
        object.__setattr__(new, attr, value)
    return new


def min_degree(gens, vanishing) -> int:
    """Order of a monomial generator list along a vanishing set."""
    return min(g.degree(vanishing) for g in gens)


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
    """Order at the distinguished point (all present components vanish)."""
    return min_degree(chart.ideal.generators, set(chart.e_components))


def chart_order(chart: Chart, dim_p: int) -> int:
    """Maximal order of the chart's ideal over its points of P (0 off P)."""
    gens = chart.ideal.generators
    return max((min_degree(gens, s) for s in chart_strata(chart, dim_p)), default=0)


def max_order(cfg: Configuration) -> int:
    """Maximal order over P."""
    return max((chart_order(ch, cfg.dim_p) for ch in cfg.charts), default=0)


def chart_strata(chart: Chart, dim_p: int):
    """All vanishing sets that are points of P in this chart.

    Strata contain `p_components` and at most `dim_p` further components;
    larger vanishing sets fall off P (its relative dimension is exhausted).
    """
    if chart.p_empty:
        return
    extras = [c for c in chart.e_components if c not in chart.p_components]
    for size in range(0, min(dim_p, len(extras)) + 1):
        for combo in itertools.combinations(extras, size):
            yield chart.p_components | frozenset(combo)


def chart_support(chart: Chart, dim_p: int) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal strata of this chart with order >= mark.

    Charts are frozen, so the answer is kept on the chart for its `dim_p`
    and a chart carried over by a blow-up is not scanned again.
    """
    memo = chart._support
    if memo is None or memo[0] != dim_p:
        memo = (dim_p, _scan_support(chart, dim_p))
        object.__setattr__(chart, "_support", memo)
    return memo[1]


def _scan_support(chart: Chart, dim_p: int) -> tuple[frozenset[int], ...]:
    m = chart.mark
    minimal: list[frozenset[int]] = []
    for vanishing in chart_strata(chart, dim_p):
        if any(s <= vanishing for s in minimal):
            continue
        if min_degree(chart.ideal.generators, vanishing) >= m:
            minimal.append(vanishing)
    return tuple(minimal)


def support(cfg: Configuration) -> list[Stratum]:
    """Minimal strata carrying the support; empty list means empty support."""
    out: list[Stratum] = []
    for ch in cfg.charts:
        for vanishing in chart_support(ch, cfg.dim_p):
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
    center = frozenset(center)
    if not center:
        raise ValidationError("the centre must be a non-empty component set")
    for c in center:
        if not 0 <= c < len(cfg.registry):
            raise ValidationError(f"centre references unregistered component id {c}")
    for ch in cfg.charts:
        if not center <= set(ch.e_components):
            continue
        if ch.p_empty:
            return False
        if not ch.p_components <= center:
            return False
        if min_degree(ch.ideal.generators, center) < ch.mark:
            return False
    return True


def power_generators(gens, k: int) -> tuple[Monomial, ...]:
    """Minimal generators of the k-th power of a monomial ideal."""
    if k == 0:
        return (UNIT,)
    gens = minimalize(gens)
    if len(gens) == 1:
        return (gens[0].power(k),)
    out = []
    for combo in itertools.combinations_with_replacement(gens, k):
        prod = UNIT
        for g in combo:
            prod = prod.times(g)
        out.append(prod)
    return minimalize(out)


def sum_marked(ideals) -> MarkedIdeal:
    """Sum of marked ideals: each summand raised to the product of the other
    marks, all generators collected, marked with the product of the marks.

    The support of the result is the intersection of the summands' supports.
    """
    ideals = list(ideals)
    if not ideals:
        raise ValidationError("sum_marked needs at least one summand")
    total = 1
    for ideal in ideals:
        total *= ideal.mark
        if total > MAX_MARK:
            raise MarkOverflowError("product marking exceeds the 64-bit checked range")
    gens: list[Monomial] = []
    for ideal in ideals:
        cofactor = total // ideal.mark
        gens.extend(power_generators(ideal.generators, cofactor))
    return MarkedIdeal.of(gens, total)


def map_ideals(cfg: Configuration, ideal_of) -> Configuration:
    """The configuration with each chart's ideal replaced by `ideal_of(chart)`."""
    charts = tuple(replace(ch, ideal=ideal_of(ch)) for ch in cfg.charts)
    return Configuration(cfg.registry, charts, cfg.dim_p, cfg.n_blowups)
