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

Every sequence of centres is made as one run of blow-ups
(`transform.BlowUpRun`): each replay, each pass of maximal-order
reduction, each monomial stage.  The module builds no chart and keys
nothing by chart identity; the stage tables read exponents only.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    chart_support,
    distinguished_order,
    map_ideals,
    on_locus,
    sum_marked,
)
from .errors import (
    ContractError,
    InternalLogicError,
    NotMaximalOrderError,
    NotMonomialError,
    ValidationError,
    is_int,
)
from .transform import BlowUpRecord, BlowUpRun, blow_up_sequence

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
    if not is_int(r) or r < 0:
        raise ValidationError("derivative order must be a non-negative integer")
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


def _lex_first_active(cfg: Configuration):
    """The support-carrying chart with the lexicographically least stratum.

    Support over the oldest components is attacked first; centres tailored
    to young exceptional components would otherwise keep carving overlap
    copies of old-component support out of sibling charts without ever
    exhausting it.  Ties go to the first such chart in chart order.
    """
    return min(
        cfg.support_charts(),
        key=lambda ch: min(tuple(sorted(s)) for s in chart_support(ch)),
        default=None,
    )


def reduce_maximal_order(
    cfg: Configuration, *, _depth: int = 0
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Order reduction for a configuration of maximal order.

    Processes the support-carrying charts one at a time: each processing
    pass empties the chosen chart's lineage for good (one blow-up in the
    degenerate no-companion case, otherwise the replayed reduction of the
    lower-dimensional companion), though its centres may split sibling
    lineages into new support-carrying charts that later passes pick up.
    A pass makes its blow-ups in one run (`blow_up_sequence`).
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
            centres = [locus]
        else:
            sub_dim = cfg.dim_p - len(split.contact_vars)
            if not 0 <= sub_dim < cfg.dim_p:
                raise InternalLogicError("contact locus does not drop the dimension")
            sub = on_locus(cfg, target, locus, companion, sub_dim)
            _, sub_records = reduce(sub, _depth=_depth + 1)
            if not sub_records:
                raise InternalLogicError(
                    "companion with non-empty support emitted no blow-ups"
                )
            centres = [rec.center for rec in sub_records]
        cfg, recs = blow_up_sequence(cfg, centres)
        records += recs
    return cfg, records


class _StageTable:
    """The table of one monomial stage s: subset -> exponent sum.

    Over the support-carrying charts, each principal, `sums` maps every
    s-subset of a generator's components with exponent sum at least `floor`
    to that sum, on which the charts agree; `heap` holds (-sum, subset) per
    entry, so `take` pops the largest sum, least subset on ties.  `count`
    is the one counting rule, on one chart's generator as exponent data:
    the table counts the charts it starts from, and then each step's
    support-carrying children as the stage's run gives them
    (`BlowUpRun.supported`), which are principal, as children of principal
    charts; stage 1 needs no step at all (`stage_one`).  No chart counts
    are kept, as a subset reaching the mark leaves only when it is the
    centre:

    - The blow-up at P with S replaces every support-carrying chart holding
      S.  No child holds S, nor can a later chart: a child only loses one
      component and gains the new exceptional one.
    - Any other subset T of a replaced chart reaching the mark stays, with
      its sum, in the child of some k in S outside T, and that child
      carries support: its degree is at least sum(T).
    - Stage 1 keeps entries below the mark too (floor 0), for the agreement
      check.  One can lose every holder but never reaches `take`, nor
      returns: support-carrying charts are born only of such charts.
    - `reduce_monomial` checks that no support is left after the last stage.
    """

    def __init__(self, s: int, floor: int, charts) -> None:
        self.s = s
        self.floor = floor
        self.sums: dict[tuple[int, ...], int] = {}
        self.heap: list[tuple[int, tuple[int, ...]]] = []
        for ch in charts:
            if len(ch.ideal.generators) != 1:
                raise NotMonomialError(
                    f"chart {ch.label!r} carries {len(ch.ideal.generators)} generators; "
                    "the monomial stage needs locally principal input"
                )
            self.count(ch.ideal.generators[0].exps)

    def count(self, exps) -> None:
        """Count one support-carrying chart's generator, given as its
        (component, exponent) pairs in component order."""
        for combo in itertools.combinations(exps, self.s):
            subset, values = zip(*combo)
            total = sum(values)
            if total < self.floor:
                continue
            if subset not in self.sums:
                self.put(subset, total)
            elif self.sums[subset] != total:
                raise InternalLogicError(
                    f"component {subset[0] if self.s == 1 else subset} has "
                    "inconsistent exponents across charts"
                )

    def put(self, subset: tuple[int, ...], total: int) -> None:
        self.sums[subset] = total
        heapq.heappush(self.heap, (-total, subset))

    def stage_one(self, mark: int, exceptional: int) -> list[int]:
        """Stage 1's centre components, from its table alone (s = 1).

        The step at c, of sum v >= mark, gives each chart holding c the
        step's exceptional component in c's place, with exponent v - mark,
        and changes nothing else.  So each take
        puts that component in at v - mark, the ids counting up from
        `exceptional`, and stage 1 makes sum(v // mark) blow-ups over the
        table's sums v."""
        taken = []
        while self.heap and (v := -self.heap[0][0]) >= mark:
            (c,) = self.take(mark)
            taken.append(c)
            if v > mark:
                self.put((exceptional,), v - mark)
            exceptional += 1
        return taken

    def centres(self, run, p, mark: int):
        """Each subset the table takes, with P (`p`); the table counts the
        support-carrying children of each step of `run` (`supported`)."""
        while (subset := self.take(mark)) is not None:
            yield p | set(subset)
            for exps in run.supported():
                self.count(exps)

    def take(self, mark: int):
        """Pop the top subset if its sum reaches `mark`, else give None."""
        if not self.heap or -self.heap[0][0] < mark:
            return None
        subset = heapq.heappop(self.heap)[1]
        del self.sums[subset]
        return subset


def reduce_monomial(
    cfg: Configuration, *, on_step=None
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Staged order reduction for locally principal ideals.

    Stage 1 repeatedly blows up the P-locus extended by the single component
    of maximal exponent at least the mark (smallest id on ties); the
    exceptional component re-enters with the exponent lowered by the mark,
    so stage 1 makes sum(v // mark) blow-ups over its table's sums v, as
    checked.  Its centres follow from its table alone (`_StageTable.stage_one`),
    and one run (`blow_up_sequence`) makes them all.  Stage s then clears every
    s-subset of P-meeting components whose exponent sum reaches the mark,
    largest sum first and lexicographically smallest subset on ties.  After
    stage dim_p the support is empty.

    Each stage's table holds sums only, so a step of stage s >= 2
    tabulates just the support-carrying children its blow-up makes, which
    the stage's run (`BlowUpRun`) gives as exponent data: a stage s >= 2
    is one run too, and builds a chart only for each chart that leaves it.
    A centre is the subset taken and P, cut out as in the table's first
    chart (a child keeps it or leaves P).

    `on_step(registry, outcomes, record)`, if given, is called after each
    blow-up with the registry naming its exceptional component, its (chart,
    children) pairs and its record.
    """
    m = cfg.mark
    charts = cfg.support_charts()
    table = _StageTable(1, 0, charts)
    predicted = sum(v // m for v in table.sums.values())
    p = charts[0].p_components if charts else frozenset()
    centres = table.stage_one(m, len(cfg.registry))
    cfg, records = blow_up_sequence(cfg, [p | {c} for c in centres], on_step)
    if len(records) != predicted:
        raise InternalLogicError(f"stage 1 made {len(records)} blow-ups, {predicted} predicted")
    for s in range(2, cfg.dim_p + 1):
        table = _StageTable(s, m, cfg.support_charts())
        run = BlowUpRun(cfg, on_step)
        records += run.blow_up_along(table.centres(run, p, m))
        cfg = run.grown()
    if cfg.support_charts():
        raise InternalLogicError("monomial stage terminated with support left")
    return cfg, records


def reduce(
    cfg: Configuration, *, on_step=None, _depth: int = 0
) -> tuple[Configuration, list[BlowUpRecord]]:
    """Full order reduction; the returned sequence empties the support.

    `on_step(registry, outcomes, record)`, if given, is called after each
    blow-up of the returned sequence, in order, with the registry naming its
    exceptional component, its (chart, children) pairs and its record (the
    very object returned).  It sees top-level blow-ups only: those made on
    companion and residual sub-configurations to find the centres never
    reach it.  The centres found on a sub-configuration are replayed on
    `cfg` in one run (`blow_up_sequence`).
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
        cfg, recs = blow_up_sequence(cfg, [rec.center for rec in recs], on_step)
        records += recs
        previous_nu = nu
    if cfg.support_charts():
        raise InternalLogicError("order reduction failed to empty the support")
    return cfg.settled(), records

