"""The monomial-stage table, checked after every step of real runs.

The table keeps subset -> exponent sum and a heap of (-sum, subset), and no
chart counts: a subset reaching the mark leaves it only when `take` hands
it out as the centre.  After every monomial-stage step, on principal draws
whose seeds hypothesis picks and on the worked example, the entries at or
above the mark must equal a tabulation of the support-carrying charts, the
heap must hold one item per entry, and `take` must hand out what a scan of
the entries gives; off the engine, `take` is held to the scan on tables
counted from drawn charts too.  Stage 1 takes its centres from its table
alone, with `take` checked the same way, and must make the blow-ups its
table predicts.
"""

from __future__ import annotations

import contextlib
import itertools
import random

import pytest

from conftest import chart, config, golden_config, mono, random_principal_config, stage_tables_by_step
from monored import reduction
from monored.errors import InternalLogicError

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

X, Y = 0, 1


def tabulated(cfg, s: int) -> dict:
    """Every s-subset of a support-carrying chart's generator whose sum
    reaches the mark, with that sum."""
    out = {}
    for ch in cfg.support_charts():
        for combo in itertools.combinations(ch.ideal.generators[0].exps, s):
            total = sum(e for _, e in combo)
            if total >= cfg.mark:
                out[tuple(c for c, _ in combo)] = total
    return out


def scanned(sums: dict, mark: int):
    """`take` by a scan of the entries: the largest sum at least `mark`,
    then the least subset with it, or None."""
    top = max((v for v in sums.values() if v >= mark), default=None)
    if top is None:
        return None
    return min(subset for subset, v in sums.items() if v == top)


@contextlib.contextmanager
def checked_tables():
    """Check every table after each of its steps, and each `take` against a
    scan; yields the stage of every subset taken."""
    stages = []
    take = reduction._StageTable.take

    def checked_step(table, cfg):
        assert {subset: v for subset, v in table.sums.items() if v >= cfg.mark} == tabulated(cfg, table.s)
        assert sorted(table.heap) == sorted((-v, subset) for subset, v in table.sums.items())

    def checked_take(table, mark):
        expected = scanned(table.sums, mark)
        assert take(table, mark) == expected
        if expected is not None:
            stages.append(table.s)
        return expected

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reduction._StageTable, "take", checked_take)
        with stage_tables_by_step(checked_step):
            yield stages


@hypothesis.settings(max_examples=150, database=None, derandomize=True, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1))
def test_random_principal_draws(seed):
    with checked_tables():
        reduction.reduce_monomial(random_principal_config(random.Random(seed)))


@hypothesis.settings(max_examples=150, database=None, derandomize=True, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**32 - 1))
def test_heap_best_matches_a_scan(seed):
    """The table alone, off the engine: charts agreeing on one exponent per
    component, counted in batches, ties and entries below the mark
    included.  Each `take` at a drawn mark must hand out what a scan of the
    entries gives, and the heap must stay one item per entry."""
    rng = random.Random(seed)
    exps = {c: rng.randint(0, 6) for c in range(6)}

    def drawn_charts():
        out = []
        for _ in range(rng.randint(1, 3)):
            comps = rng.sample(sorted(exps), rng.randint(1, 6))
            out.append(chart(6, [mono({c: exps[c] for c in comps})], 1, e=comps))
        return out

    s = rng.randint(1, 3)
    table = reduction._StageTable(s, rng.randint(0, 4), drawn_charts())
    for _ in range(12):
        if rng.random() < 0.3:
            for ch in drawn_charts():
                table.count(ch.ideal.generators[0].exps)
        mark = rng.randint(0, 12)
        expected = scanned(table.sums, mark)
        assert table.take(mark) == expected
        assert expected is None or expected not in table.sums
        assert sorted(table.heap) == sorted((-v, subset) for subset, v in table.sums.items())
        assert all(len(subset) == s and v >= table.floor for subset, v in table.sums.items())


def test_worked_example():
    with checked_tables() as stages:
        reduction.reduce(golden_config())
    assert stages


def x5y3():
    """x^5 y^3 with mark 2: stage 1 blows up x, y and x's exceptional."""
    return config(("x", "y"), [chart(2, [mono({X: 5, Y: 3})], 2)], 2)


def test_stage_one_makes_the_predicted_count(monkeypatch):
    """A closed form that loses each step's new entry takes too few: x^5 y^3,
    mark 2, predicts 2 + 1 blow-ups, and only x and y are blown up."""
    put = reduction._StageTable.put

    def losing(table, subset, total):
        if subset[0] < 2:  # x and y are counted; each exceptional is lost
            put(table, subset, total)

    monkeypatch.setattr(reduction._StageTable, "put", losing)
    with pytest.raises(InternalLogicError, match="^stage 1 made 2 blow-ups, 3 predicted$"):
        reduction.reduce_monomial(x5y3())


def test_a_wrong_sum_breaks_the_stage_one_count(monkeypatch):
    """A stage-1 table whose sum for x is one mark above the exponent its
    heap and the charts hold predicts one blow-up more than the closed form
    takes."""
    build = reduction._StageTable.__init__

    def inflated(table, s, floor, charts):
        build(table, s, floor, charts)
        if s == 1:
            table.sums[(X,)] += 2

    assert len(reduction.reduce_monomial(x5y3())[1]) == 4
    monkeypatch.setattr(reduction._StageTable, "__init__", inflated)
    with pytest.raises(InternalLogicError, match="^stage 1 made 3 blow-ups, 4 predicted$"):
        reduction.reduce_monomial(x5y3())
