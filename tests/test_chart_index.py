"""The chart index, the registry name lookups and the monomial-stage table.

A blow-up updates these for the charts it touches instead of rescanning the
configuration; the tests here check each against what a from-scratch
computation gives, also when a configuration is grown from twice.  The
stage table is checked step by step in `test_stage_table_property.py`;
here it must equal a rebuild after each step and refuse charts that
disagree on an exponent.
"""

from __future__ import annotations

import gc
import random
import sys

import pytest

from conftest import (
    brute_support_set,
    chart,
    config,
    golden_config,
    index_answers,
    mono,
    permissible_centers,
    random_config,
    random_principal_config,
)
from monored import core, reduction
from monored.core import Configuration, chart_support, has_support, is_permissible
from monored.errors import InternalLogicError, ValidationError
from monored.resolution import principalize
from monored.transform import blow_up_global

X, Y, U, V = 0, 1, 2, 3
K = frozenset({X, Y, U, V})


def test_has_support_agrees_with_the_full_scan():
    """The distinguished point decides emptiness, for every `dim_p` a
    configuration accepts the chart with, up to the chart's components,
    P-cutting and P-empty charts included."""
    rng = random.Random(3)
    seen = {True: 0, False: 0}
    for _ in range(150):
        cfg = random_config(rng)
        grown = [cfg.charts[0]]
        for center in permissible_centers(cfg)[:1]:
            grown = blow_up_global(cfg, center)[0].charts
        for ch in grown:
            off_p = 0 if ch.p_empty else len(ch.e_components) - len(ch.p_components)
            for dim_p in range(off_p, len(ch.e_components) + 1):
                expected = bool(brute_support_set(ch, dim_p))
                assert has_support(ch) == expected
                assert bool(chart_support(ch)) == expected
                seen[expected] += 1
    assert min(seen.values()) > 50


class TestCountedStageTable:
    def test_inconsistent_exponents_across_charts(self):
        # two support-carrying principal charts disagreeing on x's exponent
        cfg = config(
            ("x", "y"),
            [
                chart(2, [mono({X: 3, Y: 1})], 2, label="U"),
                chart(2, [mono({X: 4, Y: 1})], 2, label="V"),
            ],
            2,
        )
        message = "^component 0 has inconsistent exponents across charts$"
        with pytest.raises(InternalLogicError, match=message):
            reduction.reduce_monomial(cfg)

    def test_random_principal_draws(self, monkeypatch):
        """The table a stage s >= 2 keeps equals one rebuilt from the
        configuration after each step, on the entries at or above the mark;
        the stage ends with none of them left.  Stage 1 takes its centres
        from its table alone and updates nothing."""
        update, steps = reduction._StageTable.update, []

        def rebuilt_after(table, cfg):
            update(table, cfg)
            fresh = reduction._StageTable(table.s, table.floor, cfg.support_charts())
            live = {subset: v for subset, v in table.sums.items() if v >= cfg.mark}
            assert live == {subset: v for subset, v in fresh.sums.items() if v >= cfg.mark}
            steps.append(table.s)

        monkeypatch.setattr(reduction._StageTable, "update", rebuilt_after)
        rng = random.Random(11)
        for _ in range(200):
            final, _ = reduction.reduce_monomial(random_principal_config(rng))
            assert not final.support_charts()
        assert set(steps) == {2, 3}


def test_children_take_their_parents_place():
    """Chart order is kept by the index, not rebuilt: the children of the
    first root stay ahead of a later root whose path is shorter."""
    first = chart(2, [mono({X: 2, Y: 2})], 2, label="U")
    later = chart(2, [mono({Y: 1})], 2, label="Q", e=(Y,))
    cfg = config(("x", "y"), [first, later], 2)
    grown, rec = blow_up_global(cfg, {X, Y})
    assert [key for key, _ in rec.outcomes] == [("U", ())]
    assert [(ch.label, ch.path) for ch in grown.charts] == [
        ("U", ((1, X),)),
        ("U", ((1, Y),)),
        ("Q", ()),
    ]
    assert grown.support_charts() == [ch for ch in grown.charts if brute_support_set(ch, 2)]


def answers(cfg: Configuration, centres) -> tuple:
    return (
        index_answers(cfg),
        {name: cfg.component_id(name) for name in cfg.registry},
        [is_permissible(cfg, c) for c in centres],
    )


def assert_fully_validated(cfg: Configuration) -> None:
    full = Configuration(cfg.registry, cfg.charts, cfg.dim_p, cfg.n_blowups)
    assert full == cfg
    assert index_answers(full) == index_answers(cfg)


class TestBranchingGrowth:
    """Blowing one configuration up along two centres: the second growth
    must not see the first, and the parent must keep its answers."""

    @pytest.mark.parametrize("how", ["tuple", "undo", "replay"])
    def test_two_centres_from_one_parent(self, how):
        """The parent rebuilds its charts from its tuple, or by undoing its
        blow-up on the configuration it grew into, which it keeps alive:
        `undo` keeps the first branch, `replay` drops it."""
        parent, _ = blow_up_global(golden_config(), K)
        if how == "tuple":
            parent.charts
        twin, _ = blow_up_global(golden_config(), K)
        centres = permissible_centers(twin)
        assert len(centres) == 3
        before = answers(parent, centres)
        # a chart before the last one gives way, so order is put to the test
        first, rec1 = blow_up_global(parent, centres[1])
        assert [key for key, _ in rec1.outcomes] == [("U", ((1, U),))]
        expected_first = Configuration(first.registry, first.charts, 4, 2)
        if how == "replay":
            del first
        second, rec2 = blow_up_global(parent, centres[-1])
        assert rec1.outcomes != rec2.outcomes
        assert_fully_validated(second)
        assert answers(parent, centres) == before
        assert parent.charts == twin.charts
        with pytest.raises(ValidationError, match="unknown component name"):
            parent.component_id("exc2")
        if how != "replay":
            # the first branch is untouched by the second
            assert_fully_validated(first)
            assert first == expected_first
            assert first.component_id("exc2") == second.component_id("exc2") == 5



class TestFreshNames:
    @staticmethod
    def blown_up(names):
        cfg = config(names, [chart(len(names), [mono({0: 2, 1: 3})], 5)], len(names))
        grown, rec = blow_up_global(cfg, {0, 1})
        return grown, rec

    def test_taken_name_gets_a_prime(self):
        grown, rec = self.blown_up(("x", "exc1"))
        assert grown.registry[rec.exceptional] == "exc1'"
        assert grown.component_id("exc1'") == 2
        assert grown.component_id("exc1") == 1

    def test_two_taken_names_get_two_primes(self):
        grown, rec = self.blown_up(("x", "exc1", "exc1'"))
        assert grown.registry[rec.exceptional] == "exc1''"
        assert grown.component_id("exc1''") == 3

    def test_unknown_name(self):
        grown, _ = self.blown_up(("x", "exc1"))
        with pytest.raises(ValidationError, match="unknown component name 'exc2'"):
            grown.component_id("exc2")


def test_long_undo_chain():
    """A configuration kept after the first of 1554 blow-ups gives the
    answers of a fresh one-step blow-up, its undo walk longer than the
    recursion limit."""
    initial = config(("x", "y"), [chart(2, [mono({X: 100}), mono({Y: 3})], 1)], 2)
    records = principalize(initial).records
    assert len(records) == 1554 > sys.getrecursionlimit()
    kept, _ = blow_up_global(initial, records[0].center)
    cfg = kept
    for rec in records[1:]:
        cfg, _ = blow_up_global(cfg, rec.center)
    fresh, _ = blow_up_global(initial, records[0].center)
    assert kept.charts == fresh.charts

    def ids(c):
        return {n: c.component_id(n) for n in cfg.registry if c.is_registered(n)}

    assert ids(kept) == ids(fresh) == {"x": 0, "y": 1, "exc1": 2}
    with pytest.raises(ValidationError, match="unknown component name 'exc2'"):
        kept.component_id("exc2")


def test_name_lookups_build_no_index(monkeypatch):
    """A kept grown-from configuration answers name lookups from its
    registry: it builds no chart index and undoes no blow-up."""
    initial = config(("x", "y"), [chart(2, [mono({X: 30}), mono({Y: 3})], 1)], 2)
    records = principalize(initial).records
    kept, _ = blow_up_global(initial, records[0].center)
    cfg = kept
    for rec in records[1:]:
        cfg, _ = blow_up_global(cfg, rec.center)
    builds = []
    build = core._ChartIndex.__init__

    def counted(self, charts):
        builds.append(None)
        build(self, charts)

    monkeypatch.setattr(core._ChartIndex, "__init__", counted)
    assert kept.component_id("exc1") == 2 and kept.component_id("y") == 1
    assert kept.is_registered("x") and not kept.is_registered("exc2")
    with pytest.raises(ValidationError, match="unknown component name 'exc2'"):
        kept.component_id("exc2")
    assert builds == [] and kept._charts is None
    kept.support_charts()
    assert builds == [None]


def test_runs_keep_no_undo_links(monkeypatch):
    """`principalize` holds no configuration it has grown from without a
    chart tuple, so no undo link keeps the later configurations alive.
    Every index move, of one blow-up or of a stage-1 run, is checked."""
    grows = []
    grown = core.Growth.grown

    def counted(growth):
        grows.append(None)
        live = [o for o in gc.get_objects() if isinstance(o, Configuration)]
        assert not [o for o in live if o._grown is not None]
        return grown(growth)

    monkeypatch.setattr(core.Growth, "grown", counted)
    principalize(config(("x", "y"), [chart(2, [mono({X: 20}), mono({Y: 3})], 1)], 2))
    assert len(grows) > 10
