import collections
import itertools
import random
from dataclasses import replace

import pytest

from monored import core
from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    Stratum,
    UNIT,
    chart_support,
    is_permissible,
    max_order,
    minimalize,
    order_at,
    power_generators,
    sum_marked,
    support,
)
from monored.errors import (
    InvalidStratumError,
    MarkOverflowError,
    ValidationError,
)
from monored.resolution import principalize

from conftest import (
    U,
    V,
    X,
    Y,
    brute_order,
    brute_strata,
    brute_support_set,
    chart,
    config,
    golden_config,
    mono,
    random_config,
)


class TestMonomial:
    def test_unit(self):
        assert mono({}).is_unit()
        assert mono({0: 0}) == UNIT

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValidationError):
            Monomial.of({0: -1})

    def test_divides_and_division(self):
        g, h = mono({0: 1, 1: 2}), mono({0: 3, 1: 2, 2: 1})
        assert g.divides(h) and not h.divides(g)
        assert h.divided_by(g) == mono({0: 2, 2: 1})
        with pytest.raises(ValidationError):
            g.divided_by(h)

    def test_restrict_drop(self):
        g = mono({0: 2, 1: 3, 3: 6})
        assert g.restrict({0, 1}) == mono({0: 2, 1: 3})
        assert g.drop({0, 1}) == mono({3: 6})
        assert g.restrict({0, 1}).times(g.drop({0, 1})) == g


class TestMarkedIdeal:
    def test_minimalized(self):
        ideal = MarkedIdeal.of([mono({0: 2}), mono({0: 3, 1: 1}), mono({0: 2})], 2)
        assert ideal.generators == (mono({0: 2}),)

    def test_unit_absorbs(self):
        ideal = MarkedIdeal.of([mono({}), mono({0: 5})], 1)
        assert ideal.is_unit()

    def test_mark_validation(self):
        with pytest.raises(ValidationError):
            MarkedIdeal.of([mono({0: 1})], 0)
        with pytest.raises(MarkOverflowError):
            MarkedIdeal.of([mono({0: 1})], 2**63)

    def test_no_generator_divides_another(self):
        rng = random.Random(7)
        for _ in range(50):
            gens = [
                mono({c: rng.randint(0, 4) for c in range(3)}) for _ in range(4)
            ]
            ideal = MarkedIdeal.of(gens, 1)
            for g, h in itertools.permutations(ideal.generators, 2):
                assert not g.divides(h)


class TestChartValidation:
    def test_p_must_be_present(self):
        with pytest.raises(ValidationError):
            Chart("U", (0,), frozenset(), frozenset({1}), MarkedIdeal.of([mono({0: 1})], 1))

    def test_generators_avoid_p(self):
        with pytest.raises(ValidationError):
            Chart("U", (0, 1), frozenset(), frozenset({0}), MarkedIdeal.of([mono({0: 1})], 1))

    def test_unregistered_component(self):
        ch = chart(2, [mono({1: 1})], 1)
        with pytest.raises(ValidationError):
            Configuration(("x",), (ch,), 1)

    def test_marks_agree(self):
        a = chart(2, [mono({0: 1})], 1, label="A")
        b = chart(2, [mono({1: 1})], 2, label="B")
        with pytest.raises(ValidationError):
            Configuration(("x", "y"), (a, b), 2)


class TestOrderAt:
    def test_worked_example_full_stratum(self):
        cfg = golden_config()
        ch = cfg.charts[0]
        assert order_at(ch, Stratum(ch, frozenset({X, Y, U, V}))) == 5

    def test_unit_generator_gives_zero(self):
        ch = chart(2, [mono({})], 3)
        assert order_at(ch, Stratum(ch, frozenset({0, 1}))) == 0

    def test_partial_stratum(self):
        # by hand: degrees over {x, v} are 2, 8, 0
        cfg = golden_config()
        ch = cfg.charts[0]
        assert order_at(ch, Stratum(ch, frozenset({X, V}))) == 0

    def test_invalid_stratum(self):
        cfg = golden_config()
        ch = cfg.charts[0]
        with pytest.raises(InvalidStratumError):
            order_at(ch, Stratum(ch, frozenset({X, 9})))

    def test_stratum_must_contain_p(self):
        ch = chart(3, [mono({1: 1})], 1, p={0})
        with pytest.raises(InvalidStratumError):
            order_at(ch, Stratum(ch, frozenset({1})))

    def test_monotone_in_vanishing_set(self):
        rng = random.Random(11)
        for _ in range(40):
            gens = [mono({c: rng.randint(0, 5) for c in range(4)}) for _ in range(3)]
            ch = chart(4, gens, 1)
            for s in brute_strata(ch, 4):
                for t in brute_strata(ch, 4):
                    if s <= t:
                        assert order_at(ch, Stratum(ch, s)) <= order_at(ch, Stratum(ch, t))

    def test_order_equals_restriction_order(self):
        # generators avoid P-cutting components, so restriction changes nothing
        ch = chart(4, [mono({1: 2, 2: 1}), mono({3: 3})], 2, p={0}, n=("t",))
        for s in brute_strata(ch, 3):
            direct = order_at(ch, Stratum(ch, s))
            assert direct == brute_order(ch.ideal.generators, s - ch.p_components)


class TestMaxOrder:
    def test_worked_example(self):
        assert max_order(golden_config()) == 5

    def test_unit_everywhere(self):
        cfg = config(("x",), [chart(1, [mono({})], 2)], 1)
        assert max_order(cfg) == 0

    def test_two_charts(self):
        a = chart(1, [mono({0: 3})], 3, label="A", e=(0,))
        b = Chart("B", (1,), frozenset(), frozenset(), MarkedIdeal.of([mono({1: 7})], 3))
        cfg = config(("x", "y"), [a, b], 1)
        assert max_order(cfg) == 7


class TestSupport:
    def test_worked_example_minimal_stratum(self):
        cfg = golden_config()
        strata = support(cfg)
        assert [sorted(s.vanishing) for s in strata] == [[X, Y, U, V]]
        # brute force over all 16 subsets: {x,y,v} fails (order 4), full passes
        ch = cfg.charts[0]
        expected = brute_support_set(ch, cfg.dim_p)
        assert frozenset({X, Y, V}) not in expected
        assert frozenset({X, Y, U, V}) in expected

    def test_unit_ideal_empty(self):
        cfg = config(("x",), [chart(1, [mono({})], 1)], 1)
        assert support(cfg) == []

    def test_zero_dimensional_p_is_empty(self):
        # P is a point lying on no generator component: order 0 there, below
        # the mark, while x = 0 (order 2) is no point of P
        cfg = config(("x",), [chart(1, [mono({0: 2})], 1)], 0)
        assert support(cfg) == []
        assert max_order(cfg) == 0

    def test_upward_closure_matches_exhaustive(self):
        rng = random.Random(23)
        for _ in range(40):
            cfg = random_config(rng)
            ch = cfg.charts[0]
            minimal = chart_support(ch, cfg.dim_p)
            closed = {
                s
                for s in brute_strata(ch, cfg.dim_p)
                if any(mn <= s for mn in minimal)
            }
            assert closed == brute_support_set(ch, cfg.dim_p)


class TestSupportMemo:
    @staticmethod
    def count_scans(monkeypatch):
        """Count runs of the uncached support scan per (chart object, dim_p)."""
        runs = collections.Counter()
        charts = []  # keep every scanned chart alive, so ids stay unique
        scan = core._scan_support

        def counted(ch, dim_p):
            charts.append(ch)
            runs[id(ch), dim_p] += 1
            return scan(ch, dim_p)

        monkeypatch.setattr(core, "_scan_support", counted)
        return runs

    def test_principalize_scans_each_chart_once(self, monkeypatch):
        runs = self.count_scans(monkeypatch)
        tower = config(("x", "y"), [chart(2, [mono({X: 25}), mono({Y: 3})], 1)], 2)
        trace = principalize(tower)
        assert len(trace.records) > 100
        assert runs and max(runs.values()) == 1

    def test_second_dim_p_recomputes(self, monkeypatch):
        runs = self.count_scans(monkeypatch)
        ch = golden_config().charts[0]
        assert chart_support(ch, 4) == chart_support(ch, 4) == (frozenset({X, Y, U, V}),)
        assert chart_support(ch, 3) == ()
        assert runs == {(id(ch), 4): 1, (id(ch), 3): 1}
        assert chart_support(ch, 3) == ()
        assert runs[id(ch), 3] == 1

    def test_replace_starts_empty(self):
        ch = golden_config().charts[0]
        chart_support(ch, 4)
        assert ch._support is not None
        assert replace(ch)._support is None
        assert replace(ch, label="V")._support is None

    def test_memo_takes_no_part_in_equality(self):
        ch = golden_config().charts[0]
        fresh = replace(ch)
        chart_support(ch, 4)
        assert ch == fresh and hash(ch) == hash(fresh)
        assert repr(ch) == repr(fresh)


class TestIsPermissible:
    def test_worked_example_centre(self):
        cfg = golden_config()
        assert is_permissible(cfg, {X, Y, U, V})

    def test_single_component_fails(self):
        cfg = golden_config()
        assert not is_permissible(cfg, {X})

    def test_vacuous_when_centre_misses_all_charts(self):
        cfg = golden_config()
        two = config(
            ("x", "y", "u", "v", "w"),
            [cfg.charts[0]],
            4,
        )
        assert is_permissible(two, {4})

    def test_unregistered_centre(self):
        with pytest.raises(ValidationError):
            is_permissible(golden_config(), {12})

    def test_empty_centre(self):
        with pytest.raises(ValidationError):
            is_permissible(golden_config(), set())

    def test_p_must_be_contained(self):
        ch = chart(3, [mono({1: 2, 2: 2})], 2, p={0})
        cfg = config(("p", "a", "b"), [ch], 2)
        assert not is_permissible(cfg, {1, 2})
        assert is_permissible(cfg, {0, 1, 2})

    def test_p_empty_chart_blocks(self):
        ch = Chart(
            "U",
            (0, 1),
            frozenset(),
            frozenset(),
            MarkedIdeal.of([mono({0: 2, 1: 2})], 1),
            p_empty=True,
        )
        cfg = config(("a", "b"), [ch], 2)
        assert not is_permissible(cfg, {0, 1})


class TestSumMarked:
    def test_two_summands(self):
        a = MarkedIdeal.of([mono({V: 6})], 3)
        b = MarkedIdeal.of([mono({U: 5})], 1)
        s = sum_marked([a, b])
        assert s.mark == 3
        assert s.generators == (mono({V: 6}), mono({U: 15}))

    def test_single_summand_unchanged(self):
        a = MarkedIdeal.of([mono({0: 1}), mono({1: 2})], 4)
        assert sum_marked([a]) == a

    def test_overflow(self):
        a = MarkedIdeal.of([mono({0: 1})], 2**40)
        b = MarkedIdeal.of([mono({1: 1})], 2**40)
        with pytest.raises(MarkOverflowError):
            sum_marked([a, b])

    def test_support_law_exhaustive(self):
        rng = random.Random(5)
        for _ in range(30):
            k = rng.randint(1, 3)
            ideals = [
                MarkedIdeal.of(
                    [
                        mono({c: rng.randint(0, 3) for c in range(4)})
                        for _ in range(rng.randint(1, 2))
                    ],
                    rng.randint(1, 4),
                )
                for _ in range(k)
            ]
            total = sum_marked(ideals)
            for size in range(0, 5):
                for combo in itertools.combinations(range(4), size):
                    s = frozenset(combo)
                    in_sum = brute_order(total.generators, s) >= total.mark
                    in_all = all(
                        brute_order(i.generators, s) >= i.mark for i in ideals
                    )
                    assert in_sum == in_all

    def test_power_generators(self):
        gens = (mono({0: 1}), mono({1: 1}))
        squares = power_generators(gens, 2)
        assert squares == minimalize([mono({0: 2}), mono({0: 1, 1: 1}), mono({1: 2})])
