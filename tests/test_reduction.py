import itertools
import random

import pytest

from monored.core import (
    Chart,
    MarkedIdeal,
    is_permissible,
    max_order,
    sum_marked,
    support,
)
from monored.errors import (
    ContractError,
    NotMaximalOrderError,
    NotMonomialError,
    ValidationError,
)
from monored.reduction import (
    balanced_companion,
    companion_ideal,
    contact_split,
    monomial_derivative,
    monomial_split,
    reduce,
    reduce_maximal_order,
    reduce_monomial,
    residual_order,
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
    golden_config,
    mono,
    random_config,
    random_maximal_order_config,
    random_principal_config,
)

K = frozenset({X, Y, U, V})
EXC = 4


class TestContactSplit:
    def test_golden(self):
        ch = golden_config().charts[0]
        split = contact_split(ch)
        assert split.contact_vars == frozenset({X, Y})
        assert split.parts == (
            (mono({X: 2, Y: 3}), mono({})),
            (mono({X: 2}), mono({V: 6})),
            (mono({Y: 4}), mono({U: 5})),
        )

    def test_single_full_generator(self):
        ch = chart(1, [mono({0: 4})], 4)
        split = contact_split(ch)
        assert split.contact_vars == frozenset({0})
        assert split.parts == ((mono({0: 4}), mono({})),)

    def test_not_maximal_order(self):
        ch = chart(2, [mono({0: 3, 1: 1})], 2)
        with pytest.raises(NotMaximalOrderError):
            contact_split(ch)

    def test_contact_vars_match_brute_force(self):
        rng = random.Random(31)
        for _ in range(30):
            cfg = random_maximal_order_config(rng)
            ch = cfg.charts[0]
            split = contact_split(ch)
            m = ch.mark
            expected = set()
            for g in ch.ideal.generators:
                if g.degree() == m:
                    expected |= set(g.components)
            assert split.contact_vars == frozenset(expected)


class TestCompanionIdeal:
    def test_golden(self):
        ch = golden_config().charts[0]
        locus, comp = companion_ideal(ch, contact_split(ch))
        assert locus == frozenset({X, Y})
        assert comp is not None
        assert comp.mark == 3
        assert comp.generators == (mono({V: 6}), mono({U: 15}))

    def test_no_summands(self):
        ch = chart(2, [mono({0: 1}), mono({1: 1})], 1)
        locus, comp = companion_ideal(ch, contact_split(ch))
        assert locus == frozenset({0, 1})
        assert comp is None

    def test_support_equality_on_random_instances(self):
        # the companion over the contact locus has the same support strata
        rng = random.Random(41)
        done = 0
        while done < 20:
            cfg = random_maximal_order_config(rng)
            ch = cfg.charts[0]
            split = contact_split(ch)
            locus, comp = companion_ideal(ch, split)
            if comp is None:
                continue
            sub_dim = cfg.dim_p - len(split.contact_vars)
            companion_chart = Chart(
                label=ch.label,
                e_components=ch.e_components,
                n_vars=ch.n_vars,
                p_components=frozenset(locus),
                ideal=comp,
            )
            assert brute_support_set(companion_chart, sub_dim) == brute_support_set(
                ch, cfg.dim_p
            )
            done += 1


class TestMonomialSplit:
    def test_common_factor(self):
        ch = chart(4, [mono({X: 2, Y: 3}), mono({X: 2, V: 6})], 5)
        split = monomial_split(ch)
        assert split.monomial_part == mono({X: 2})
        assert split.nonmonomial_part.generators == (mono({Y: 3}), mono({V: 6}))

    def test_single_generator(self):
        ch = chart(2, [mono({0: 2, 1: 1})], 1)
        split = monomial_split(ch)
        assert split.monomial_part == mono({0: 2, 1: 1})
        assert split.nonmonomial_part.is_unit()

    def test_no_common_factor(self):
        ch = golden_config().charts[0]
        split = monomial_split(ch)
        assert split.monomial_part.is_unit()
        assert split.nonmonomial_part.generators == ch.ideal.generators

    def test_factorization(self):
        rng = random.Random(43)
        for _ in range(30):
            cfg = random_config(rng)
            ch = cfg.charts[0]
            split = monomial_split(ch)
            rebuilt = tuple(
                split.monomial_part.times(g)
                for g in split.nonmonomial_part.generators
            )
            assert set(rebuilt) == set(ch.ideal.generators)
            # nothing divides all residual generators
            shared = None
            for g in split.nonmonomial_part.generators:
                shared = g.components if shared is None else shared & g.components
            if len(split.nonmonomial_part.generators) > 0:
                for c in shared or set():
                    assert min(
                        g.exponent(c) for g in split.nonmonomial_part.generators
                    ) == 0


class TestBalancedCompanion:
    def test_worked_values(self):
        # monomial part x2, residual (y3, v6), mark 5, nu 3
        ch = chart(4, [mono({X: 2, Y: 3}), mono({X: 2, V: 6})], 5)
        comp = balanced_companion(ch, 3)
        assert comp.mark == 6
        # each generator raised on its own: no mixed product such as y3 v6
        assert set(comp.generators) == {mono({X: 6}), mono({Y: 6}), mono({V: 12})}

    def test_degenerate_mark(self):
        ch = chart(2, [mono({0: 1, 1: 1})], 2)
        comp = balanced_companion(ch, 1)
        assert comp.mark == 1

    def test_nu_out_of_range(self):
        ch = chart(2, [mono({0: 1})], 2)
        for bad in (0, 2, 5):
            with pytest.raises(ContractError):
                balanced_companion(ch, bad)

    def test_order_formula_exhaustive(self):
        # order of the companion = min(nu * ord M, (mark - nu) * ord N)
        rng = random.Random(47)
        done = 0
        while done < 20:
            cfg = random_config(rng)
            ch = cfg.charts[0]
            m = ch.mark
            if m < 2:
                continue
            nu = rng.randint(1, m - 1)
            split = monomial_split(ch)
            comp = balanced_companion(ch, nu)
            for s in brute_strata(ch, cfg.dim_p):
                expected = min(
                    nu * split.monomial_part.degree(s),
                    (m - nu)
                    * brute_order(split.nonmonomial_part.generators, s),
                )
                assert brute_order(comp.generators, s) == expected
            done += 1


class TestMonomialDerivative:
    def test_first_derivatives(self):
        ideal = MarkedIdeal.of([mono({0: 2, 1: 1})], 3)
        out = monomial_derivative(ideal, 1)
        assert set(out) == {mono({0: 2, 1: 1}), mono({0: 1, 1: 1}), mono({0: 2})}

    def test_zeroth_unchanged(self):
        ideal = MarkedIdeal.of([mono({0: 2}), mono({1: 3})], 2)
        assert set(monomial_derivative(ideal, 0)) == set(ideal.generators)

    @pytest.mark.parametrize("r", [1.0, True, "1"])
    def test_order_must_be_an_integer(self, r):
        ideal = MarkedIdeal.of([mono({0: 2, 1: 1})], 3)
        with pytest.raises(ValidationError, match="^derivative order must be a non-negative integer$"):
            monomial_derivative(ideal, r)

    def test_contact_vars_recovered(self):
        # a variable is a contact variable iff it survives as a degree-1
        # derivative of order <= mark-1
        cfg = golden_config()
        ch = cfg.charts[0]
        m = ch.mark
        derivatives = monomial_derivative(ch.ideal, m - 1)
        detected = {
            g.exps[0][0]
            for g in derivatives
            if len(g.exps) == 1 and g.exps[0][1] == 1
        }
        assert detected == set(contact_split(ch).contact_vars) == {X, Y}

    def test_coefficient_ideal_support_matches_companion(self):
        # sum of derivative ideals restricted to the contact locus supports
        # the same strata as the companion
        cfg = golden_config()
        ch = cfg.charts[0]
        m = ch.mark
        split = contact_split(ch)
        locus, comp = companion_ideal(ch, split)
        sub_dim = cfg.dim_p - len(split.contact_vars)
        summands = []
        for r in range(1, m):
            restricted = [
                g.drop(split.contact_vars)
                for g in monomial_derivative(ch.ideal, r)
                if not (g.components & split.contact_vars)
            ]
            if restricted:
                summands.append(MarkedIdeal.of(restricted, m - r))
        companion_chart = Chart(
            "C", ch.e_components, ch.n_vars, frozenset(locus), comp
        )
        coeff_support = None
        for part in summands:
            part_chart = Chart(
                "D", ch.e_components, ch.n_vars, frozenset(locus), part
            )
            strata = brute_support_set(part_chart, sub_dim)
            coeff_support = strata if coeff_support is None else coeff_support & strata
        assert coeff_support == brute_support_set(companion_chart, sub_dim)


class TestReduceMaximalOrder:
    def test_no_companion_single_blowup(self):
        cfg = config(("x", "y"), [chart(2, [mono({0: 1}), mono({1: 1})], 1)], 2)
        final, records = reduce_maximal_order(cfg)
        assert [sorted(r.center) for r in records] == [[0, 1]]
        assert support(final) == []

    def test_empty_support_no_records(self):
        cfg = config(("x",), [chart(1, [mono({})], 1)], 1)
        final, records = reduce_maximal_order(cfg)
        assert records == []

    def test_counterexample_companions_differ_supports_agree(self):
        # after the worked blow-up, the companion construction on the v-child
        # degenerates (no positive co-mark: the residue u5 sits under a
        # contact part of degree 8), while the transform of the original
        # companion is built from exc3 and u5 exc4; the marked ideals differ
        # but the support strata agree with the transformed ideal's.
        cfg = golden_config()
        ch = cfg.charts[0]
        split = contact_split(ch)
        locus, comp = companion_ideal(ch, split)
        assert comp.generators == (mono({V: 6}), mono({U: 15}))

        cfg2, rec = blow_up_global(cfg, K)
        v_child = cfg2.charts[3]
        assert v_child.path == ((1, V),)

        child_split = contact_split(v_child)
        assert child_split.contact_vars == frozenset({X, Y, EXC})
        residues = [r for _, r in child_split.parts if not r.is_unit()]
        assert residues == [mono({U: 5})]
        child_locus, child_comp = companion_ideal(v_child, child_split)
        assert child_comp is None  # the degenerate branch

        # transported companion: transform the original summands separately
        v6, u5 = mono({V: 6}), mono({U: 5})
        t1 = v6.exchanged(V, EXC, v6.degree(K) - 3)
        t2 = u5.exchanged(V, EXC, u5.degree(K) - 1)
        assert (t1, t2) == (mono({EXC: 3}), mono({U: 5, EXC: 4}))
        transported = sum_marked(
            [MarkedIdeal.of([t1], 3), MarkedIdeal.of([t2], 1)]
        )
        fresh_based = MarkedIdeal.of([mono({U: 5})], 1)
        assert transported != fresh_based

        # support equality: the transported companion over the strict
        # transform of the contact locus has the very same strata as the
        # transformed ideal
        comp_chart = Chart(
            "C",
            v_child.e_components,
            v_child.n_vars,
            frozenset({X, Y}),
            transported,
        )
        assert brute_support_set(comp_chart, 2) == brute_support_set(v_child, 4)

    def test_golden_first_center(self):
        cfg = golden_config()
        final, records = reduce_maximal_order(cfg)
        assert sorted(records[0].center) == [X, Y, U, V]
        assert is_permissible(cfg, records[0].center)
        assert support(final) == []


class TestReduceMonomial:
    def test_two_variable_run(self):
        # single generator a3 b2, mark 2: stage 1 blows a then b, exceptional
        # exponents 1 and 0; no pair reaches the mark afterwards
        cfg = config(("a", "b"), [chart(2, [mono({0: 3, 1: 2})], 2)], 2)
        final, records = reduce_monomial(cfg)
        assert [sorted(r.center) for r in records] == [[0], [1]]
        assert support(final) == []

    def test_exact_power(self):
        cfg = config(("a",), [chart(1, [mono({0: 3})], 3)], 1)
        final, records = reduce_monomial(cfg)
        assert [sorted(r.center) for r in records] == [[0]]
        assert support(final) == []

    def test_rejects_multi_generator(self):
        cfg = config(("a", "b"), [chart(2, [mono({0: 2}), mono({1: 2})], 2)], 2)
        with pytest.raises(NotMonomialError):
            reduce_monomial(cfg)

    @staticmethod
    def _stage_measure(cfg, size):
        sums = {}
        for ch in cfg.charts:
            if ch.p_empty or len(ch.ideal.generators) != 1:
                continue
            if not brute_support_set(ch, cfg.dim_p):
                continue
            g = ch.ideal.generators[0]
            for combo in itertools.combinations(sorted(g.components), size):
                total = sum(g.exponent(c) for c in combo)
                if total >= cfg.mark:
                    sums[combo] = total
        if not sums:
            return (-1, 0)
        best = max(sums.values())
        return (best, sum(1 for v in sums.values() if v == best))

    def test_measure_strictly_decreases(self):
        rng = random.Random(53)
        for _ in range(50):
            cfg = random_principal_config(rng)
            final, records = reduce_monomial(cfg)
            assert support(final) == []
            state = cfg
            stages = []
            for rec in records:
                p = next(ch for ch in state.charts if not ch.p_empty).p_components
                size = len(rec.center - p)
                stages.append(size)
                before = self._stage_measure(state, size)
                state, _ = blow_up_global(state, rec.center)
                after = self._stage_measure(state, size)
                assert after < before
            assert stages == sorted(stages)
            assert all(s <= cfg.dim_p for s in stages)


class TestReduce:
    def test_golden_terminates(self):
        cfg = golden_config()
        final, records = reduce(cfg)
        assert support(final) == []
        assert sorted(records[0].center) == [X, Y, U, V]
        assert is_permissible(cfg, records[0].center)

    def test_unit_ideal(self):
        cfg = config(("x",), [chart(1, [mono({})], 2)], 1)
        final, records = reduce(cfg)
        assert records == []

    def test_two_lines(self):
        cfg = config(("x", "y"), [chart(2, [mono({0: 1}), mono({1: 1})], 1)], 2)
        final, records = reduce(cfg)
        assert [sorted(r.center) for r in records] == [[0, 1]]
        assert support(final) == []

    def test_zero_dimensional_base_case(self):
        # every component cuts the point P: only the unit ideal is left
        cfg = config(("x", "y"), [chart(2, [mono({})], 3, p=(X, Y))], 0)
        final, records = reduce(cfg)
        assert records == []
        assert support(final) == []

    def test_every_center_permissible_at_emission(self):
        rng = random.Random(59)
        for _ in range(25):
            cfg = random_config(rng)
            final, records = reduce(cfg)
            assert support(final) == []
            state = cfg
            for rec in records:
                assert is_permissible(state, rec.center)
                state, _ = blow_up_global(state, rec.center)
            assert state == final

    def test_max_order_non_increasing_on_maximal_order_runs(self):
        rng = random.Random(61)
        for _ in range(15):
            cfg = random_maximal_order_config(rng)
            final, records = reduce(cfg)
            state = cfg
            high = max_order(state)
            for rec in records:
                state, _ = blow_up_global(state, rec.center)
            assert support(state) == []


class TestResidualOrder:
    def test_recomputed_from_support_only(self):
        # a chart with empty support contributes nothing
        ch = chart(2, [mono({0: 1, 1: 1})], 5)
        cfg = config(("a", "b"), [ch], 2)
        assert residual_order(cfg) == 0

    def test_golden(self):
        assert residual_order(golden_config()) == 5
