"""Order reduction: permissible blow-up sequences emptying the support.

The driver `reduce` runs the standard two-step induction on the relative
dimension of the centre subvariety P.  While the residual (non-monomial)
part of the ideal has order at least the mark somewhere on the support, it
is order-reduced at its own maximal order; while its order is strictly
between zero and the mark, the balanced companion (residual and monomial
parts raised to complementary marks) is order-reduced instead; what remains
is locally principal and falls to the staged monomial procedure.

Maximal-order reduction works chart by chart.  The components appearing in
generators of minimal degree (the contact variables) cut a smaller-
dimensional subvariety Y carrying a companion ideal with the same support;
reducing the companion by induction and replaying its centres reduces the
chart.  When every generator has full contact degree there is no companion
and blowing up Y itself empties the chart's support in one step.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, replace

from .core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    chart_support,
    distinguished_order,
    map_ideals,
    sum_marked,
)
from .errors import (
    ContractError,
    InternalLogicError,
    NotMaximalOrderError,
    NotMonomialError,
    ValidationError,
)
from .transform import BlowUpRecord, blow_up_global

_MAX_PASSES = 4096


@dataclass(frozen=True)
class ContactSplit:
    """Factorization of each generator over the contact variables.

    Contact variables are those appearing in some generator of total degree
    exactly the mark; every generator factors as (contact part) * (residue)
    with disjoint supports, and at least one generator is pure contact of
    full degree.
    """

    contact_vars: frozenset[int]
    parts: tuple[tuple[Monomial, Monomial], ...]
    mark: int


@dataclass(frozen=True)
class MonomialSplit:
    """Greatest common monomial factor and the residual ideal."""

    monomial_part: Monomial
    nonmonomial_part: MarkedIdeal


def contact_split(chart: Chart) -> ContactSplit:
    m = chart.mark
    if distinguished_order(chart) != m:
        raise NotMaximalOrderError(
            f"chart {chart.label!r} has distinguished-point order "
            f"{distinguished_order(chart)}, mark {m}"
        )
    contact: set[int] = set()
    for g in chart.ideal.generators:
        if g.degree() == m:
            contact |= g.components
    parts = tuple(
        (g.restrict(contact), g.drop(contact)) for g in chart.ideal.generators
    )
    if not any(c.degree() == m and r.is_unit() for c, r in parts):
        raise InternalLogicError("no pure contact generator of full degree")
    return ContactSplit(frozenset(contact), parts, m)


def companion_ideal(chart: Chart, split: ContactSplit):
    """Locus cut by the contact variables and its companion marked ideal.

    Summands are the generator residues marked with the contact-degree
    deficit; generators whose contact degree already reaches the mark
    contribute nothing, and with no summand at all there is no companion
    (the support then equals the locus and blowing it up reduces order).
    """
    locus = frozenset(chart.p_components | split.contact_vars)
    summands = [
        MarkedIdeal.of([residue], split.mark - contact.degree())
        for contact, residue in split.parts
        if split.mark - contact.degree() > 0
    ]
    if not summands:
        return locus, None
    return locus, sum_marked(summands)


def monomial_split(chart: Chart) -> MonomialSplit:
    gens = chart.ideal.generators
    common: dict[int, int] = {}
    for c, e in gens[0].exps:
        common[c] = e
    for g in gens[1:]:
        for c in list(common):
            common[c] = min(common[c], g.exponent(c))
    part = Monomial.of({c: e for c, e in common.items() if e})
    residual = MarkedIdeal.of([g.divided_by(part) for g in gens], chart.mark)
    return MonomialSplit(part, residual)


def balanced_companion(chart: Chart, nu: int) -> MarkedIdeal:
    """Residual part marked nu plus monomial part marked (mark - nu)."""
    m = chart.mark
    if not 0 < nu < m:
        raise ContractError(f"nu must lie strictly between 0 and the mark; got {nu}")
    split = monomial_split(chart)
    return sum_marked(
        [
            MarkedIdeal.of(split.nonmonomial_part.generators, nu),
            MarkedIdeal.of([split.monomial_part], m - nu),
        ]
    )


def monomial_derivative(ideal: MarkedIdeal, r: int) -> tuple[Monomial, ...]:
    """All coefficient-free formal derivatives of order up to r.

    For a generator with exponent vector a this is every a - beta with
    0 <= beta <= a componentwise and |beta| <= r.  No divisibility pruning:
    the raw generator set is returned.
    """
    if r < 0:
        raise ValidationError("derivative order must be non-negative")
    out: set[Monomial] = set()
    for g in ideal.generators:
        ranges = [range(0, min(e, r) + 1) for _, e in g.exps]
        for beta in itertools.product(*ranges):
            if sum(beta) > r:
                continue
            out.add(Monomial.of({c: e - b for (c, e), b in zip(g.exps, beta)}))
    return tuple(sorted(out, key=Monomial.sort_key))


def residual_order(cfg: Configuration) -> int:
    """Maximum order of the residual part over the support strata: the
    maximum, over the support-carrying charts, of its order at the
    distinguished point.  Every stratum of a chart lies in that point,
    which carries support when any stratum does, and orders only grow with
    the vanishing set."""
    return max(
        (
            min([g.degree() for g in monomial_split(ch).nonmonomial_part.generators])
            for ch in cfg.support_charts()
        ),
        default=0,
    )


def _apply(cfg: Configuration, center, records: list[BlowUpRecord], on_step=None) -> Configuration:
    cfg, rec = blow_up_global(cfg, center)
    records.append(rec)
    if on_step is not None:
        on_step(cfg, rec)
    return cfg


def _lex_first_active(cfg: Configuration):
    """The support-carrying chart with the lexicographically least stratum.

    Support over the oldest components is attacked first; centres tailored
    to young exceptional components would otherwise keep carving overlap
    copies of old-component support out of sibling charts without ever
    exhausting it.
    """
    best = None
    best_key = None
    for index, ch in enumerate(cfg.support_charts()):
        strata = chart_support(ch)
        key = (min(tuple(sorted(s)) for s in strata), index)
        if best_key is None or key < best_key:
            best, best_key = ch, key
    return best


def reduce_maximal_order(
    cfg: Configuration, *, _depth: int = 0
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Order reduction for a configuration of maximal order.

    Processes the support-carrying charts one at a time: each processing
    pass empties the chosen chart's lineage for good (one blow-up in the
    degenerate no-companion case, otherwise the replayed reduction of the
    lower-dimensional companion), though its centres may split sibling
    lineages into new support-carrying charts that later passes pick up.
    """
    records: list[BlowUpRecord] = []
    passes = 0
    while True:
        target = _lex_first_active(cfg)
        if target is None:
            break
        passes += 1
        if passes > _MAX_PASSES:
            raise InternalLogicError("maximal-order reduction failed to converge")
        split = contact_split(target)
        locus, companion = companion_ideal(target, split)
        if companion is None:
            # The support equals the contact locus; one blow-up clears it.
            cfg = _apply(cfg, locus, records)
            continue
        sub_dim = cfg.dim_p - len(split.contact_vars)
        if not 0 <= sub_dim < cfg.dim_p:
            raise InternalLogicError("contact locus does not drop the dimension")
        sub_chart = replace(
            target, p_components=locus, ideal=companion, p_empty=False
        )
        sub = Configuration(cfg.registry, (sub_chart,), sub_dim, cfg.n_blowups)
        _, sub_records = reduce(sub, _depth=_depth + 1)
        if not sub_records:
            raise InternalLogicError(
                "companion with non-empty support emitted no blow-ups"
            )
        for rec in sub_records:
            cfg = _apply(cfg, rec.center, records)
    return cfg, records


class _StageTable:
    """The table of one monomial stage s, kept as counts.

    Over the support-carrying charts, each of them principal, it maps every
    s-subset of a generator's components whose exponent sum is at least
    `floor` to [that sum, the number of charts giving it].  Charts agree on
    the sum of a shared subset; `update` follows a blow-up by taking out the
    charts it replaced and counting the support-carrying charts it added.

    `heap` holds (-sum, subset) for every entry, so `best` reads the top
    instead of scanning the table.  Deleting an entry leaves its item in
    the heap, stale: `best` drops stale items it meets on top, and once
    stale items outnumber live ones the heap is rebuilt from the entries.
    """

    def __init__(self, s: int, floor: int, charts) -> None:
        self.s = s
        self.floor = floor
        self.entries: dict[tuple[int, ...], list[int]] = {}
        self.heap: list[tuple[int, tuple[int, ...]]] = []
        # id of a counted chart -> (that chart, its subsets); holding the
        # chart keeps its id from being reused while it is counted
        self.counted: dict[int, tuple[Chart, list]] = {}
        self.count(charts)

    def count(self, charts) -> None:
        for ch in charts:
            if len(ch.ideal.generators) != 1:
                raise NotMonomialError(
                    f"chart {ch.label!r} carries {len(ch.ideal.generators)} generators; "
                    "the monomial stage needs locally principal input"
                )
        for ch in charts:
            subsets = []
            for combo in itertools.combinations(ch.ideal.generators[0].exps, self.s):
                subset, exps = zip(*combo)
                total = sum(exps)
                if total < self.floor:
                    continue
                entry = self.entries.get(subset)
                if entry is None:
                    self.entries[subset] = [total, 1]
                    heapq.heappush(self.heap, (-total, subset))
                elif entry[0] != total:
                    raise InternalLogicError(
                        f"component {subset[0] if self.s == 1 else subset} has "
                        "inconsistent exponents across charts"
                    )
                else:
                    entry[1] += 1
                subsets.append(subset)
            self.counted[id(ch)] = (ch, subsets)
        if len(self.heap) > 2 * len(self.entries):
            self.heap = [(-v, subset) for subset, (v, _) in self.entries.items()]
            heapq.heapify(self.heap)

    def update(self, cfg: Configuration) -> None:
        """Follow the blow-up that made `cfg`, read from its `step`."""
        added = []
        for ch, kids in cfg.step:
            for subset in self.counted.pop(id(ch), (ch, ()))[1]:
                entry = self.entries[subset]
                entry[1] -= 1
                if not entry[1]:
                    del self.entries[subset]
            added.extend(kid for kid in kids if cfg.carries_support(kid))
        self.count(added)

    def best(self, mark: int):
        """The subset of largest sum at least `mark` (least subset on
        ties), or None."""
        heap, entries = self.heap, self.entries
        while heap:
            neg, subset = heap[0]
            entry = entries.get(subset)
            if entry is not None and entry[0] == -neg:
                return subset if -neg >= mark else None
            heapq.heappop(heap)
        return None


def reduce_monomial(
    cfg: Configuration, *, on_step=None
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Staged order reduction for locally principal ideals.

    Stage 1 repeatedly blows up the P-locus extended by the single component
    of maximal exponent at least the mark (smallest id on ties); the
    exceptional component re-enters with the exponent lowered by the mark.
    Stage s then clears every s-subset of P-meeting components whose
    exponent sum reaches the mark, largest sum first and lexicographically
    smallest subset on ties.  After stage dim_p the support is empty.

    Each stage's table counts the support-carrying charts, so a step
    re-tabulates only the charts its blow-up adds.  Stage 1 tabulates every
    component (checking agreement on all of them); later stages only the
    subsets reaching the mark.

    `on_step(grown, record)`, if given, is called after each blow-up with
    the configuration it grew and its record.
    """
    records: list[BlowUpRecord] = []
    m = cfg.mark
    for s in (1, *range(2, cfg.dim_p + 1)):
        table = _StageTable(s, 0 if s == 1 else m, cfg.support_charts())
        while (subset := table.best(m)) is not None:
            cfg = _apply(cfg, cfg.p_components | set(subset), records, on_step)
            table.update(cfg)
    if cfg.support_charts():
        raise InternalLogicError("monomial stage terminated with support left")
    return cfg, records


def reduce(
    cfg: Configuration, *, on_step=None, _depth: int = 0
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Full order reduction; the returned sequence empties the support.

    `on_step(grown, record)`, if given, is called after each blow-up of the
    returned sequence, in order, with the configuration that blow-up grew
    and its record (the very object returned).  It sees top-level blow-ups
    only: those made on companion and residual sub-configurations to find
    the centres never reach it.
    """
    if _depth > 64:
        raise InternalLogicError("order-reduction recursion exceeded the dimension bound")
    records: list[BlowUpRecord] = []
    previous_nu = None
    while True:
        if not cfg.support_charts():
            break
        nu = residual_order(cfg)
        if previous_nu is not None and nu >= previous_nu:
            raise InternalLogicError(
                f"residual order failed to decrease ({previous_nu} -> {nu})"
            )
        m = cfg.mark
        if nu >= m:
            sub = map_ideals(
                cfg,
                lambda ch: MarkedIdeal.of(monomial_split(ch).nonmonomial_part.generators, nu),
            )
        elif nu > 0:
            sub = map_ideals(cfg, lambda ch: balanced_companion(ch, nu))
        else:
            # this frame holds `cfg` through the whole monomial stage: as a
            # tuple it keeps no link to the configurations grown from it
            final, recs = reduce_monomial(cfg.settled(), on_step=on_step)
            records.extend(recs)
            cfg = final
            break
        _, recs = reduce_maximal_order(sub, _depth=_depth + 1)
        for rec in recs:
            cfg = _apply(cfg, rec.center, records, on_step)
        previous_nu = nu
    if cfg.support_charts():
        raise InternalLogicError("order reduction failed to empty the support")
    return cfg.settled(), records

