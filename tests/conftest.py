"""Shared builders and brute-force helpers for the test suite.

Brute-force helpers here recompute orders, supports and measures directly
from exponent dictionaries, independent of the library internals, so the
tests act as oracles for the code paths they check.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import math
import random

import pytest

from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    is_permissible,
    minimalize,
)
from monored.transform import blow_up_global

X, Y, U, V = 0, 1, 2, 3


def mono(d: dict[int, int]) -> Monomial:
    return Monomial.of(d)


def ideal(gens, mark: int) -> MarkedIdeal:
    return MarkedIdeal.of(gens, mark)


def chart(reg_size, gens, mark, p=(), n=(), label="U", e=None):
    comps = tuple(range(reg_size)) if e is None else tuple(sorted(e))
    return Chart(
        label=label,
        e_components=comps,
        n_vars=frozenset(n),
        p_components=frozenset(p),
        ideal=MarkedIdeal.of(gens, mark),
    )


def config(names, charts, dim_p) -> Configuration:
    return Configuration(tuple(names), tuple(charts), dim_p)


def fresh_step(cfg: Configuration, center) -> list:
    """The step of a blow-up of a fresh copy of `cfg` along `center`: each
    chart it replaces, in chart order, paired with its children.  `cfg`
    itself is not grown from."""
    fresh = Configuration(cfg.registry, cfg.charts, cfg.dim_p, cfg.n_blowups)
    grown, _ = blow_up_global(fresh, center)
    return grown.step


def chart_children(ch: Chart, center) -> list[Chart]:
    """The children of `ch` in a blow-up along `center` of the configuration
    holding only `ch`, over components c0, c1, ... up to its largest."""
    n = max(ch.e_components) + 1
    grown, _ = blow_up_global(config([f"c{i}" for i in range(n)], [ch], n), center)
    ((_, kids),) = grown.step
    return kids


def golden_config() -> Configuration:
    """Four components x,y,u,v; generators x2y3, x2v6, y4u5; mark 5."""
    gens = [mono({X: 2, Y: 3}), mono({X: 2, V: 6}), mono({Y: 4, U: 5})]
    return config(("x", "y", "u", "v"), [chart(4, gens, 5)], 4)


def power_generators(gens, k: int) -> tuple[Monomial, ...]:
    """Minimal generators of the k-th power J^k of a monomial ideal J."""
    out = []
    for combo in itertools.combinations_with_replacement(gens, k):
        prod = Monomial()
        for g in combo:
            prod = prod.times(g)
        out.append(prod)
    return minimalize(out)


def product_sum_marked(ideals) -> MarkedIdeal:
    """Sum of marked ideals marked with the product of the marks.

    Each summand J, marked b, is raised as a whole ideal to the power
    (product / b), mixed products included.  An equivalent marking to the
    lcm one of `sum_marked`, which raises each generator instead, kept as
    its reference.
    """
    total = math.prod(i.mark for i in ideals)
    gens = []
    for i in ideals:
        gens.extend(power_generators(i.generators, total // i.mark))
    return MarkedIdeal.of(gens, total)


SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def chain_render_ideal(registry, chart: Chart, exc_stage: dict[int, int]) -> str:
    """The chart's generators in display names, by walking the defining chain.

    `exc_stage` maps each exceptional component to the stage that made it.
    An exceptional component whose stage defined this chart shows as the
    component that defined it, followed back while that one is exceptional
    too; below the root every name is barred.  This is how the trace writer
    rendered ideals before it kept a display map per chart, kept as the
    reference for that map.
    """
    defining = dict(chart.path)
    names: dict[int, str] = {}
    for comp in chart.ideal.component_support:
        shown = comp
        seen = set()  # records that do not match the chart can map in a cycle
        while exc_stage.get(shown) in defining and shown not in seen:
            seen.add(shown)
            shown = defining[exc_stage[shown]]
        name = registry[shown]
        names[comp] = "".join(c + "\u0304" for c in name) if chart.path else name
    rendered = []
    for g in chart.ideal.generators:
        factors = [names[c] if e == 1 else names[c] + str(e).translate(SUPERSCRIPTS) for c, e in g.exps]
        rendered.append("".join(factors) if factors else "1")
    return ", ".join(rendered)


# --- brute-force oracles ----------------------------------------------------

def brute_degree(g: Monomial, vanishing) -> int:
    return sum(e for c, e in g.exps if c in vanishing)


def brute_order(gens, vanishing) -> int:
    return min(brute_degree(g, vanishing) for g in gens)


def brute_strata(ch: Chart, dim_p: int):
    """All point strata of P in a chart, enumerated from scratch."""
    if ch.p_empty:
        return []
    extras = [c for c in ch.e_components if c not in ch.p_components]
    out = []
    for size in range(0, min(dim_p, len(extras)) + 1):
        for combo in itertools.combinations(extras, size):
            out.append(ch.p_components | frozenset(combo))
    return out


def brute_support_set(ch: Chart, dim_p: int, mark=None):
    """All (not just minimal) support strata of one chart."""
    m = ch.mark if mark is None else mark
    return {
        s for s in brute_strata(ch, dim_p) if brute_order(ch.ideal.generators, s) >= m
    }


def config_support_set(cfg: Configuration):
    out = set()
    for i, ch in enumerate(cfg.charts):
        for s in brute_support_set(ch, cfg.dim_p):
            out.add((ch.label, ch.path, s))
    return out


def index_answers(cfg: Configuration) -> tuple:
    """What a configuration's chart index answers: its support-carrying
    charts and, for each registered component, the charts containing it.
    Asking for these does not make a configuration holding only an index
    build its chart tuple."""
    return (
        cfg.support_charts(),
        [cfg.charts_containing({c}) for c in range(len(cfg.registry))],
    )


@contextlib.contextmanager
def stage_tables_by_step(check):
    """Call `check(table, cfg)` on every table of a monomial stage s >= 2
    each time it is read for a centre, so after each of its steps: with a
    copy of the table and the configuration that its steps so far made,
    got by replaying the records of its `reduce_monomial` one blow-up at a
    time.  The stage's run holds no configuration between its steps."""
    from monored import reduction

    take, reduce_monomial = reduction._StageTable.take, reduction.reduce_monomial
    reads = []

    def read(table, mark):
        seen = copy.copy(table)
        seen.sums, seen.heap = dict(table.sums), list(table.heap)
        taken = take(table, mark)
        if table.s >= 2:
            reads.append((seen, taken is not None))
        return taken

    def replayed(cfg, **kwargs):
        start = len(reads)
        final, records = reduce_monomial(cfg, **kwargs)
        steps = reads[start:]
        del reads[start:]
        n = len(records) - sum(took for _, took in steps)  # stage 1's blow-ups
        for rec in records[:n]:
            cfg, _ = blow_up_global(cfg, rec.center)
        for table, took in steps:
            check(table, cfg)
            if took:
                cfg, _ = blow_up_global(cfg, records[n].center)
                n += 1
        assert cfg == final
        return final, records

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction._StageTable, "take", read)
        patch.setattr(reduction, "reduce_monomial", replayed)
        yield


def permissible_centers(cfg: Configuration):
    seen = set()
    out = []
    for ch in cfg.charts:
        comps = sorted(ch.e_components)
        for size in range(1, len(comps) + 1):
            for combo in itertools.combinations(comps, size):
                c = frozenset(combo)
                if c in seen:
                    continue
                seen.add(c)
                if is_permissible(cfg, c):
                    out.append(c)
    return sorted(out, key=sorted)


# --- seeded instance generation ---------------------------------------------

NAMES = ("a", "b", "c", "d")


def random_config(rng: random.Random, max_exp=6, max_mark=6, allow_embedded=True):
    """A one-chart instance within the acceptance bounds.

    dim_p always covers the non-P components, so every chart's distinguished
    point is an honest point of P.
    """
    k = rng.randint(1, 4) if allow_embedded else rng.randint(1, 3)
    names = NAMES[:k]
    p_count = 0
    if allow_embedded and k >= 2 and rng.random() < 0.4:
        p_count = 1
    if k - p_count > 3:
        p_count = k - 3
    p = frozenset(range(p_count))
    free = [i for i in range(k) if i not in p]
    dim = len(free)
    gens = []
    if rng.random() < 0.05:
        gens = [Monomial.of({})]
    else:
        for _ in range(rng.randint(1, 3)):
            exps = {c: rng.randint(0, max_exp) for c in free}
            if not any(exps.values()):
                exps[rng.choice(free)] = 1
            gens.append(Monomial.of(exps))
    mark = rng.randint(1, max_mark)
    n_vars = frozenset(f"n{i}" for i in range(rng.randint(0, 2)))
    ch = Chart(
        label="U",
        e_components=tuple(range(k)),
        n_vars=n_vars,
        p_components=p,
        ideal=MarkedIdeal.of(gens, mark),
    )
    return Configuration(tuple(names), (ch,), dim)


def random_maximal_order_config(rng: random.Random, max_exp=6, max_mark=6):
    """An instance whose mark equals its maximal order (between 1 and max_mark)."""
    while True:
        cfg = random_config(rng, max_exp=max_exp, max_mark=max_mark)
        ch = cfg.charts[0]
        order = min(g.degree() for g in ch.ideal.generators)
        if 1 <= order <= max_mark:
            remarked = Chart(
                label=ch.label,
                e_components=ch.e_components,
                n_vars=ch.n_vars,
                p_components=ch.p_components,
                ideal=MarkedIdeal.of(ch.ideal.generators, order),
            )
            return Configuration(cfg.registry, (remarked,), cfg.dim_p)


def random_principal_config(rng: random.Random, max_exp=6, max_mark=6):
    """A one-chart single-generator instance (monomial-stage input)."""
    k = rng.randint(1, 3)
    names = NAMES[:k]
    exps = {c: rng.randint(0, max_exp) for c in range(k)}
    if not any(exps.values()):
        exps[0] = 1
    ch = Chart(
        label="U",
        e_components=tuple(range(k)),
        n_vars=frozenset(),
        p_components=frozenset(),
        ideal=MarkedIdeal.of([Monomial.of(exps)], rng.randint(1, max_mark)),
    )
    return Configuration(tuple(names), (ch,), k)
