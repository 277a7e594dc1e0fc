import dataclasses
import importlib
import itertools
import random
import typing
from dataclasses import replace

import pytest

from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    Stratum,
    UNIT,
    chart_support,
    exchange,
    is_permissible,
    max_order,
    order_at,
    sum_marked,
    support,
)
from monored.errors import (
    InvalidStratumError,
    MarkOverflowError,
    ValidationError,
)
from monored.transform import blow_up_global

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
    fresh_step,
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


class TestMonomialBoundary:
    """Monomials are checked where they enter, by the constructor and
    `of`; the ones the engine derives from them are not checked again, and
    are the monomials a checked construction gives."""

    @pytest.mark.parametrize(
        "exps, message",
        [
            (((1, 2), (0, 1)), "^monomial exponents must be sorted by component id$"),
            (((0, 1), (0, 2)), "^monomial exponents must be sorted by component id$"),
            (((0, 0),), "^stored exponents must be positive$"),
            (((0, 1), (2, -3)), "^stored exponents must be positive$"),
            (((-1, 2),), "^component id -1 is negative$"),
            (((0, 1), (-3, 2)), "^component id -3 is negative$"),
        ],
        ids=["unsorted", "repeated", "zero", "negative", "negative id", "negative id after"],
    )
    def test_constructor_checks(self, exps, message):
        with pytest.raises(ValidationError, match=message):
            Monomial(exps)

    @pytest.mark.parametrize("exps", [((0, 2.5),), ((True, 2),), ((0, 1), (1.0, 2))])
    def test_constructor_refuses_non_integers(self, exps):
        with pytest.raises(ValidationError, match="^monomial component ids and exponents must be integers$"):
            Monomial(exps)

    def test_no_configuration_holds_a_fractional_exponent(self):
        with pytest.raises(ValidationError, match="must be integers$"):
            gens = [Monomial(((0, 2.5),)), Monomial(((1, 2),))]
            Configuration(("x", "y"), (Chart("U", (0, 1), frozenset(), frozenset(), MarkedIdeal.of(gens, 2)),), 2)

    @pytest.mark.parametrize(
        "mapping, message",
        [({-1: 2}, "^component id -1 is negative$"), ({0: -1}, "^exponent -1 for component 0 is negative$")],
    )
    def test_of_checks(self, mapping, message):
        with pytest.raises(ValidationError, match=message):
            Monomial.of(mapping)

    def test_derived_monomials_equal_checked_ones(self):
        g = mono({0: 2, 1: 3, 3: 6})
        derived = [
            (g.power(3), {0: 6, 1: 9, 3: 18}),
            (g.drop({1}), {0: 2, 3: 6}),
            (g.restrict({1, 3}), {1: 3, 3: 6}),
            (g.restrict(range(2)), {0: 2, 1: 3}),
            (g.exchanged(1, 5, 4), {0: 2, 3: 6, 5: 4}),
            (g.exchanged(0, 5, 0), {1: 3, 3: 6}),
            (g.exchanged(3, 4, 7), {0: 2, 1: 3, 4: 7}),
        ]
        for made, expected in derived:
            checked = Monomial(tuple(sorted(expected.items())))
            assert made == checked and hash(made) == hash(checked)
            assert type(made.exps) is tuple

    @pytest.mark.parametrize("k", [2.0, True, "2", -1])
    def test_power_refuses_a_non_count(self, k):
        with pytest.raises(ValidationError, match="^a power must be a non-negative integer, not "):
            mono({0: 2, 1: 3}).power(k)

    @pytest.mark.parametrize("k, exceptional, e", [(0, 2, 0), (3, 1, 7), (1, 3, 2)])
    def test_exchanged_refuses_an_exceptional_below_a_component(self, k, exceptional, e):
        # the exceptional component is the newest: it tops every component present
        message = f"^exceptional component {exceptional} is not above every component of c0\\^2\\*c1\\^3\\*c3\\^6$"
        with pytest.raises(ValidationError, match=message):
            mono({0: 2, 1: 3, 3: 6}).exchanged(k, exceptional, e)

    def test_exchanged_refuses_a_negative_exponent(self):
        with pytest.raises(ValidationError, match="^stored exponents must be positive$"):
            mono({0: 1}).exchanged(0, 1, -1)

    def test_degree_over_one_component(self):
        g = mono({0: 2, 1: 3, 3: 6})
        for c in range(5):
            assert g.degree({c}) == g.degree([c]) == g.degree(frozenset({c, 9})) == g.exponent(c)
        assert g.degree({0, 3}) == 8


class TestMarkedIdeal:
    def test_minimalized(self):
        ideal = MarkedIdeal.of([mono({0: 2}), mono({0: 3, 1: 1}), mono({0: 2})], 2)
        assert ideal.generators == (mono({0: 2}),)

    def test_unit_absorbs(self):
        ideal = MarkedIdeal.of([mono({}), mono({0: 5})], 1)
        assert ideal.is_unit()

    def test_needs_a_generator(self):
        with pytest.raises(ValidationError, match="^a marked ideal needs at least one generator$"):
            MarkedIdeal.of([], 1)

    def test_mark_validation(self):
        with pytest.raises(ValidationError):
            MarkedIdeal.of([mono({0: 1})], 0)
        with pytest.raises(MarkOverflowError):
            MarkedIdeal.of([mono({0: 1})], 2**63)

    @pytest.mark.parametrize("mark", [True, 2.0, "2"])
    def test_mark_not_an_integer(self, mark):
        with pytest.raises(ValidationError, match="^the mark must be a positive integer$"):
            MarkedIdeal.of([mono({0: 1})], mark)

    def test_no_generator_divides_another(self):
        rng = random.Random(7)
        for _ in range(50):
            gens = [
                mono({c: rng.randint(0, 4) for c in range(3)}) for _ in range(4)
            ]
            ideal = MarkedIdeal.of(gens, 1)
            for g, h in itertools.permutations(ideal.generators, 2):
                assert not g.divides(h)


    def test_derived_ideal_equals_the_checked_one(self):
        """A blow-up's derived ideal skips the mark check and keeps
        `minimalize`: on the same monomials and mark it equals, and hashes
        as, the ideal the checked constructor makes."""
        rng = random.Random(11)
        for _ in range(200):
            gens = [mono({c: rng.randint(0, 4) for c in range(3)}) for _ in range(rng.randint(1, 4))]
            mark = rng.randint(1, 6)
            checked, derived = MarkedIdeal.of(gens, mark), MarkedIdeal.derived(gens, mark)
            assert derived == checked and hash(derived) == hash(checked)
            assert type(derived.generators) is tuple

    def test_derived_monomial_equals_the_checked_one(self):
        """The substitution rule on a pair map keeps the monomial's own
        pairs, and the monomial derived from the map equals the checked one."""
        g = mono({0: 2, 1: 3, 3: 6})
        pairs = g.pairs()
        exchange(pairs, 1, 5, 4)
        derived = Monomial.derived(pairs)
        assert derived == Monomial.of({0: 2, 3: 6, 5: 4}) and hash(derived) == hash(Monomial.of({0: 2, 3: 6, 5: 4}))
        assert derived.exps[0] is g.exps[0] and derived.exps[1] is g.exps[2]
        assert Monomial.derived(UNIT.pairs()) == UNIT


class TestChartValidation:
    """A chart checks nothing itself; the configuration holding it checks
    every chart rule."""

    def test_chart_checks_nothing(self):
        Chart("U", (1, 0), frozenset(), frozenset({2}), MarkedIdeal.of([mono({2: 1})], 1))

    @pytest.mark.parametrize("comps", [(1, 0), (0, 0, 1)], ids=["unsorted", "repeated"])
    def test_components_strictly_increasing(self, comps):
        ch = replace(chart(2, [mono({0: 1})], 1), e_components=comps)
        with pytest.raises(ValidationError, match="^chart 'U': components must be strictly increasing$"):
            Configuration(("x", "y"), (ch,), 2)

    def test_p_must_be_present(self):
        ch = chart(2, [mono({0: 1})], 1, p=(1,), e=(0,))
        with pytest.raises(ValidationError, match="^chart 'U': p_components not present in the chart$"):
            Configuration(("x", "y"), (ch,), 1)

    def test_generators_use_present_components(self):
        ch = chart(2, [mono({0: 1, 1: 1})], 1, e=(0,))
        with pytest.raises(ValidationError, match="^chart 'U': generator uses absent components$"):
            Configuration(("x", "y"), (ch,), 1)

    def test_generators_avoid_p(self):
        ch = chart(2, [mono({0: 1})], 1, p=(0,))
        with pytest.raises(ValidationError, match="^chart 'U': generator uses a component cutting P$"):
            Configuration(("x", "y"), (ch,), 2)

    def test_pullback_excess_on_present_components(self):
        ch = replace(chart(2, [mono({0: 1})], 1, e=(0,)), pullback_excess=mono({1: 2}))
        with pytest.raises(ValidationError, match="^chart 'U': pullback excess uses absent components$"):
            Configuration(("x", "y"), (ch,), 1)

    def test_rules_hold_for_every_chart(self):
        good = chart(2, [mono({0: 1})], 1, label="A")
        bad = chart(2, [mono({0: 1})], 1, p=(0,), label="B")
        with pytest.raises(ValidationError, match="^chart 'B': generator uses a component cutting P$"):
            Configuration(("x", "y"), (good, bad), 2)

    @pytest.mark.parametrize("dim_p", [2.5, True, "2", -1, None])
    def test_dim_p_not_a_count(self, dim_p):
        with pytest.raises(ValidationError, match="^dim_p must be a non-negative integer$"):
            Configuration(("x", "y"), (chart(2, [mono({0: 3, 1: 1})], 2),), dim_p)

    def test_unregistered_component(self):
        ch = chart(2, [mono({1: 1})], 1)
        with pytest.raises(ValidationError):
            Configuration(("x",), (ch,), 1)

    def test_negative_component(self):
        ch = chart(2, [mono({0: 2})], 1, e=(-1, 0))
        with pytest.raises(ValidationError, match="^chart 'U' references an unregistered component$"):
            Configuration(("x", "y"), (ch,), 2)

    def test_needs_a_chart(self):
        with pytest.raises(ValidationError, match="^a configuration needs at least one chart$"):
            Configuration(("x",), (), 1)

    def test_charts_meeting_p_agree_on_its_components(self):
        """Every chart meeting P gives the configuration's one P-cutting set."""
        a = chart(3, [mono({1: 2})], 1, p=(0,), label="A")
        b = chart(3, [mono({1: 2})], 1, p=(2,), label="B")
        with pytest.raises(ValidationError, match="^charts meeting P must agree on the components cutting P$"):
            Configuration(("x", "y", "w"), (a, b), 2)
        Configuration(("x", "y", "w"), (a, replace(b, p_empty=True)), 2)

    def test_marks_agree(self):
        a = chart(2, [mono({0: 1})], 1, label="A")
        b = chart(2, [mono({1: 1})], 2, label="B")
        with pytest.raises(ValidationError):
            Configuration(("x", "y"), (a, b), 2)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"e_components": [0, 1]}, "e_components must be a tuple of integers"),
            ({"e_components": (False, True)}, "e_components must be a tuple of integers"),
            ({"e_components": (0.0, 1.0)}, "e_components must be a tuple of integers"),
            ({"p_components": []}, "p_components and n_vars must be frozensets"),
            ({"n_vars": ["n"]}, "p_components and n_vars must be frozensets"),
            ({"ideal": (mono({0: 1}),)}, "ideal must be a MarkedIdeal, pullback_excess a Monomial"),
            ({"pullback_excess": {0: 1}}, "ideal must be a MarkedIdeal, pullback_excess a Monomial"),
        ],
        ids=["list components", "bool components", "float components", "list p", "list n_vars", "ideal", "excess"],
    )
    def test_field_types(self, fields, message):
        ch = replace(chart(2, [mono({0: 1})], 1), **fields)
        with pytest.raises(ValidationError, match=f"^chart 'U': {message}$"):
            Configuration(("x", "y"), (ch,), 2)


class TestDimPCoversTheComponentsOffP:
    """A chart meeting P has at most `dim_p` components not cutting P."""

    GENS = [mono({0: 2, 1: 4, 2: 3}), mono({0: 3, 2: 5, 3: 3})]

    def test_components_cutting_p_do_not_count(self):
        cfg = config("abcde", [chart(5, self.GENS, 3, p=(4,))], 4)
        assert max_order(cfg) == 9

    def test_p_empty_chart_at_dim_p_zero(self):
        ch = replace(chart(4, self.GENS, 3), p_empty=True)
        cfg = config("abcd", [ch], 0)
        assert max_order(cfg) == 0
        assert support(cfg) == []

    def test_chart_below_the_root_is_named(self):
        (ch,) = golden_config().charts
        kid = replace(ch, e_components=(X, Y, U, V, 4), path=((1, X),))
        with pytest.raises(ValidationError, match="'U/x' meets P with 5 components"):
            Configuration(("x", "y", "u", "v", "w"), (kid,), 4, 1)


class TestBlowUpCount:
    """`n_blowups` is a non-negative int, and no chart's path ends past it:
    the next blow-up's stage, `n_blowups + 1`, then makes new keys."""

    @pytest.mark.parametrize("n_blowups", [-1, 1.5, True])
    def test_not_a_count(self, n_blowups):
        with pytest.raises(ValidationError, match="^n_blowups must be a non-negative integer$"):
            Configuration(("x", "y"), (chart(2, [mono({0: 1})], 1),), 2, n_blowups)

    def test_last_path_stage_past_the_count(self):
        ch = replace(chart(3, [mono({0: 1})], 1, e=(0, 2)), path=((1, 1), (3, 2)))
        with pytest.raises(ValidationError, match="^chart 'U/y/z' has path stage 3, past n_blowups 2$"):
            Configuration(("x", "y", "z"), (ch,), 2, 2)
        assert Configuration(("x", "y", "z"), (ch,), 2, 3).n_blowups == 3

    @pytest.mark.parametrize("n_blowups", [0, 1])
    @pytest.mark.parametrize("k", [5, 2, -1])
    def test_path_component_unregistered(self, n_blowups, k):
        """Checked before any message names the chart, which reads the
        path's names."""
        ch = replace(chart(2, [mono({0: 1})], 1), path=((1, k),))
        with pytest.raises(ValidationError, match="^chart 'U': path references an unregistered component$"):
            Configuration(("x", "y"), (ch,), 2, n_blowups)

    def test_built_configuration_has_no_step(self):
        cfg = golden_config()
        assert cfg.step == ()
        grown, _ = blow_up_global(cfg, {X, Y, U, V})
        assert grown.step == fresh_step(golden_config(), {X, Y, U, V})


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
        # every component cuts the point P, so no generator uses one: the
        # ideal is the unit ideal, of order 0 below the mark
        cfg = config(("x", "y"), [chart(2, [mono({})], 1, p=(X, Y))], 0)
        assert support(cfg) == []
        assert max_order(cfg) == 0
        # x = 0 (order 2) would be no point of a point P it does not cut
        with pytest.raises(ValidationError, match="more than dim_p 0"):
            config(("x",), [chart(1, [mono({0: 2})], 1)], 0)

    def test_upward_closure_matches_exhaustive(self):
        rng = random.Random(23)
        for _ in range(40):
            cfg = random_config(rng)
            ch = cfg.charts[0]
            minimal = chart_support(ch)
            closed = {
                s
                for s in brute_strata(ch, cfg.dim_p)
                if any(mn <= s for mn in minimal)
            }
            assert closed == brute_support_set(ch, cfg.dim_p)

    def test_support_per_dim_p(self):
        # the full stratum is a point of P at dim_p 4; at dim_p 3 it would
        # not be, and the chart is rejected
        cfg = golden_config()
        (ch,) = cfg.charts
        assert chart_support(ch) == (frozenset({X, Y, U, V}),)
        with pytest.raises(ValidationError, match="4 components not cutting P, more than dim_p 3"):
            config(cfg.registry, [ch], 3)

    def test_asking_leaves_the_chart_equal(self):
        ch = golden_config().charts[0]
        fresh = replace(ch)
        chart_support(ch)
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

    @pytest.mark.parametrize("center", [{"x"}, {0.0, 1}, {True, 0}], ids=["name", "float", "bool"])
    def test_centre_ids_are_ints(self, center):
        # a float or bool id would otherwise reach the children's paths
        for check in (is_permissible, blow_up_global):
            with pytest.raises(ValidationError, match="^centre references unregistered component id "):
                check(golden_config(), center)

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
        # lcm(4, 6) = 12, not the product 24: cofactors 3 and 2
        a = MarkedIdeal.of([mono({V: 1})], 4)
        b = MarkedIdeal.of([mono({U: 1})], 6)
        s = sum_marked([a, b])
        assert s.mark == 12
        assert s.generators == (mono({U: 2}), mono({V: 3}))

    def test_single_summand_unchanged(self):
        a = MarkedIdeal.of([mono({0: 1}), mono({1: 2})], 4)
        assert sum_marked([a]) == a

    def test_overflow(self):
        a = MarkedIdeal.of([mono({0: 1})], 2**40)
        b = MarkedIdeal.of([mono({1: 1})], 3**26)
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


@pytest.mark.parametrize("module", ["core", "transform", "reduction", "resolution", "arithmetic"])
def test_dataclass_type_hints_resolve(module):
    """Every annotation of a dataclass names something its module defines
    or imports."""
    mod = importlib.import_module(f"monored.{module}")
    classes = [
        v for v in vars(mod).values()
        if isinstance(v, type) and dataclasses.is_dataclass(v) and v.__module__ == mod.__name__
    ]
    assert classes
    for cls in classes:
        assert set(typing.get_type_hints(cls)) >= {f.name for f in dataclasses.fields(cls)}


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: sum_marked([]), ValidationError, "^sum_marked needs at least one summand$"),
        (
            lambda: order_at(chart(2, [mono({0: 1})], 1), Stratum(chart(2, [mono({1: 1})], 1), frozenset({0}))),
            InvalidStratumError,
            "^stratum belongs to a different chart$",
        ),
    ],
    ids=["empty sum", "stratum of another chart"],
)
def test_core_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
