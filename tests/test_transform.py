import random
import re
from dataclasses import replace

import pytest

from monored import core, reduction, resolution, transform
from monored.arithmetic import IntPoly, oracle_transform
from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    is_permissible,
    max_order,
    minimalize,
    name_exceptional,
    sum_marked,
)
from monored.errors import NonPermissibleError, ValidationError
from monored.transform import blow_up_global, blow_up_sequence

from conftest import (
    U,
    V,
    X,
    Y,
    brute_support_set,
    chart,
    chart_children,
    config,
    fresh_step,
    golden_config,
    index_answers,
    mono,
    permissible_centers,
    random_config,
    random_maximal_order_config,
)
from test_digests import RUNS

K = frozenset({X, Y, U, V})
EXC = 4


def transformed(g, center, k, mark):
    """The birational transform of one generator in the child of k: the
    generator of that child of the one-chart configuration holding `g`."""
    kids = chart_children(chart(4, [g], mark), center)
    (out,) = kids[sorted(set(center)).index(k)].ideal.generators
    return out


class TestTransformGenerator:
    def test_middle_generator(self):
        # x2 v6 in the v-chart: exponent 8 along the centre, drops to exc 3
        g = transformed(mono({X: 2, V: 6}), K, V, 5)
        assert g == mono({X: 2, EXC: 3})

    def test_third_generator(self):
        g = transformed(mono({Y: 4, U: 5}), K, V, 5)
        assert g == mono({Y: 4, U: 5, EXC: 4})

    def test_unit_result(self):
        g = transformed(mono({X: 1}), frozenset({X, Y}), X, 1)
        assert g.is_unit()

    def test_insufficient_degree(self):
        with pytest.raises(NonPermissibleError):
            transformed(mono({X: 1}), frozenset({X}), X, 3)

    @pytest.mark.parametrize("center", [[X, Y], [X, Y, X], [Y]])
    def test_list_centre_of_too_low_degree(self, center):
        g = mono({X: 2, Y: 1})
        total = g.degree(set(center))
        names = ",".join(f"c{c}" for c in sorted(set(center)))
        message = f"^centre {{{names}}} is not permissible: .* order >= 4 along it\\)$"
        with pytest.raises(NonPermissibleError, match=message):
            transformed(g, center, Y, 4)
        assert transformed(g, center, Y, total) == mono({X: 2})

    def test_exceptional_exponent_never_negative(self):
        rng = random.Random(3)
        for _ in range(100):
            g = mono({c: rng.randint(0, 6) for c in range(4)})
            center = frozenset(rng.sample(range(4), rng.randint(1, 4)))
            total = g.degree(center)
            if total == 0:
                continue
            m = rng.randint(1, total)
            k = rng.choice(sorted(center))
            out = transformed(g, center, k, m)
            assert out.exponent(EXC) == total - m >= 0
            assert out.exponent(k) == 0


class TestBlowUpChart:
    def test_golden_v_child(self):
        ((_, kids),) = fresh_step(golden_config(), K)
        v_child = kids[3]
        assert v_child.path == ((1, V),)
        assert v_child.ideal.generators == (
            mono({X: 2, Y: 3}),
            mono({X: 2, EXC: 3}),
            mono({Y: 4, U: 5, EXC: 4}),
        )
        assert v_child.e_components == (X, Y, U, EXC)

    def test_unit_minimalization(self):
        ch = chart(2, [mono({0: 1}), mono({1: 1})], 1)
        kids = chart_children(ch, frozenset({0, 1}))
        x_child = kids[0]
        assert x_child.ideal.is_unit()
        assert brute_support_set(x_child, 2) == set()

    def test_codimension_one_is_exponent_shift(self):
        # the single-component blow-up renames the component and lowers its
        # exponent by the mark on every generator
        ch = chart(2, [mono({0: 3, 1: 1}), mono({0: 2, 1: 4})], 2)
        kids = chart_children(ch, frozenset({0}))
        assert len(kids) == 1
        child = kids[0]
        assert child.e_components == (1, 2)
        assert set(child.ideal.generators) == {mono({1: 4}), mono({1: 1, 2: 1})}



class TestBlowUpGlobal:
    def test_golden(self):
        cfg = golden_config()
        cfg2, rec = blow_up_global(cfg, K)
        assert len(cfg2.registry) == 5
        assert rec.exceptional == EXC
        assert rec.stage == 1
        assert len(cfg2.charts) == 4
        # within each child its own defining component is gone
        for ch, k in zip(cfg2.charts, sorted(K)):
            assert k not in ch.e_components
        # hence no chart carries all the centre components together
        for ch in cfg2.charts:
            assert not K <= set(ch.e_components)

    def test_untouched_chart_copied(self):
        cfg = golden_config()
        extra = Chart(
            "Q",
            (X, Y),
            frozenset(),
            frozenset(),
            MarkedIdeal.of([mono({X: 5})], 5),
        )
        cfg = Configuration(cfg.registry, cfg.charts + (extra,), 4)
        cfg2, rec = blow_up_global(cfg, K)
        kept = [ch for ch in cfg2.charts if ch.label == "Q"]
        assert kept == [extra]
        assert [key for key, _ in rec.outcomes] == [("U", ())]

    def test_centre_missing_everywhere(self):
        cfg = golden_config()
        wide = Configuration(cfg.registry + ("w",), cfg.charts, 4)
        cfg2, rec = blow_up_global(wide, {4})
        assert cfg2.charts == wide.charts
        assert len(cfg2.registry) == 6
        assert rec.outcomes == ()

    def test_non_permissible_rejected(self):
        with pytest.raises(NonPermissibleError):
            blow_up_global(golden_config(), {X})

    @pytest.mark.parametrize("center", [{1}, {0, 1}], ids=["P-cutting component missing", "P held"])
    def test_centre_must_hold_the_p_cutting_set(self, center):
        """x^3 on a chart whose P is cut out by z: {x} meets the chart off
        P, and only {z, x} may be blown up; the run and `is_permissible`
        agree."""
        cfg = config(("z", "x"), [chart(2, [mono({1: 3})], 1, p=(0,))], 1)
        assert is_permissible(cfg, center) == (len(center) == 2)
        if len(center) == 2:
            assert len(blow_up_global(cfg, center)[1].outcomes) == 1
        else:
            with pytest.raises(NonPermissibleError, match=r"^centre \{x\} is not permissible"):
                blow_up_global(cfg, center)

    def test_non_permissible_message(self):
        message = (
            "centre {x,v} is not permissible: its trace on N must lie in the "
            "support (every chart meeting it needs order >= 5 along it)"
        )
        with pytest.raises(NonPermissibleError, match=f"^{re.escape(message)}$"):
            blow_up_global(golden_config(), {V, X})

    def test_one_containment_scan_per_blow_up(self, monkeypatch):
        """The permissibility check hands the charts containing the centre
        on to the blow-up."""
        scans = []
        containing = core._ChartIndex.containing

        def counted(index, center):
            scans.append(center)
            return containing(index, center)

        monkeypatch.setattr(core._ChartIndex, "containing", counted)
        cfg = golden_config()
        for center in (K, {X, Y, U, EXC}):
            cfg, _ = blow_up_global(cfg, center)
            assert scans == [frozenset(center)]
            scans.clear()
        with pytest.raises(NonPermissibleError):
            blow_up_global(cfg, {X})
        assert len(scans) == 1

    def test_one_centre_degree_per_generator(self, monkeypatch):
        """The permissibility check hands each generator's degree along the
        centre on to the blow-up: a step takes it once per generator of each
        chart it replaces, and once for that chart's pullback excess."""
        along = []
        degrees, degree = transform._degrees, transform._degree

        def counted_generators(line, center, registry, mark):
            taken = degrees(line, center, registry, mark)
            along.extend([center] * len(taken))
            return taken

        def counted(pairs, center):
            along.append(center)
            return degree(pairs, center)

        cfg, records, _ = RUNS["reduce worked"]()
        monkeypatch.setattr(transform, "_degrees", counted_generators)
        monkeypatch.setattr(transform, "_degree", counted)
        widest = 0
        for rec in records:
            cfg, _ = blow_up_global(cfg, rec.center)
            assert set(along) == {rec.center}
            assert len(along) == sum(len(ch.ideal.generators) + 1 for ch, _ in cfg.step)
            along.clear()
            widest = max(widest, len(cfg.step))
        assert widest > 1

    def test_max_order_never_increases(self):
        # holds when the mark equals the maximal order (the blown-up ideal
        # is of maximal order); with a smaller mark the order can climb
        rng = random.Random(17)
        done = 0
        while done < 25:
            cfg = random_maximal_order_config(rng)
            centers = permissible_centers(cfg)
            if not centers:
                continue
            before = max_order(cfg)
            cfg2, _ = blow_up_global(cfg, rng.choice(centers))
            assert max_order(cfg2) <= before
            # exhaustive-strata version of the same claim
            orders = [
                min(g.degree(s) for g in ch.ideal.generators)
                for ch in cfg2.charts
                if not ch.p_empty
                for s in brute_support_set(ch, cfg2.dim_p, mark=0)
            ]
            assert max(orders, default=0) <= before
            done += 1


class TestGrowthValidation:
    """A blow-up checks none of the charts it adds, which meet every rule
    by construction; the result must be the configuration that full
    validation builds from the same parts."""

    def test_grown_equals_fully_validated(self, monkeypatch):
        """Every run of blow-ups, the first monomial stage's included."""
        grown = []

        def checked(run):
            new = end_run(run)
            full = Configuration(new.registry, new.charts, new.dim_p, new.n_blowups)
            assert full == new
            assert index_answers(full) == index_answers(new)
            grown.append(new)
            return new

        def counted_stage_one(table, *args):
            # the first monomial stage's centres, which one run makes
            centres = stage_one(table, *args)
            runs.append(len(centres))
            return centres

        runs = []
        end_run = transform.BlowUpRun.grown
        stage_one = reduction._StageTable.stage_one
        monkeypatch.setattr(transform.BlowUpRun, "grown", checked)
        monkeypatch.setattr(reduction._StageTable, "stage_one", counted_stage_one)
        rng = random.Random(1)
        for _ in range(20):
            reduction.reduce(random_config(rng))
        assert len(grown) > 20 and sum(runs) > 50

    def test_derived_equals_fully_validated(self, monkeypatch):
        """The configurations order reduction and principalization derive
        with new ideals (`map_ideals`, `on_locus`) are not checked either:
        each must equal its fully validated copy, with the mark its ideals
        carry, answer its index alike and share its source's name list."""
        kinds = {"residual": 0, "balanced": 0, "locus": 0, "re-marked": 0}

        def checked(kind, derive):
            def derived(cfg, *args):
                calls = len(companions)
                new = derive(cfg, *args)
                full = Configuration(tuple(new.registry), new.charts, new.dim_p, new.n_blowups)
                assert full == new and full.mark == new.mark and new.step == ()
                assert index_answers(full) == index_answers(new)
                assert new.registry._names is cfg.registry._names
                kinds[kind if len(companions) == calls else "balanced"] += 1
                return new

            return derived

        def counted_companion(ch, nu):
            companions.append(nu)
            return companion(ch, nu)

        companions, companion = [], reduction.balanced_companion
        monkeypatch.setattr(reduction, "balanced_companion", counted_companion)
        monkeypatch.setattr(reduction, "map_ideals", checked("residual", reduction.map_ideals))
        monkeypatch.setattr(reduction, "on_locus", checked("locus", reduction.on_locus))
        monkeypatch.setattr(resolution, "map_ideals", checked("re-marked", resolution.map_ideals))
        rng = random.Random(1)
        for _ in range(100):
            cfg = random_config(rng)
            reduction.reduce(cfg)
            resolution.principalize(cfg)
        assert kinds["re-marked"] == 100 and kinds["locus"] > 60
        assert kinds["residual"] > 40 and kinds["balanced"] > 15

    def test_key_a_blow_up_would_make_is_rejected(self):
        """A chart `U/x` of stage 1 before any blow-up holds the key the
        first blow-up of `U` gives its x-child, so the input is refused;
        at one blow-up the next children end at stage 2, past every key."""
        root = chart(2, [mono({X: 2, Y: 2})], 2)
        later = Chart(
            "U", (Y,), frozenset(), frozenset(), MarkedIdeal.of([mono({Y: 1})], 2), path=((1, X),)
        )
        with pytest.raises(ValidationError, match=r"^chart 'U/x' has path stage 1, past n_blowups 0$"):
            config(("x", "y"), [root, later], 2)
        cfg = Configuration(("x", "y"), (root, later), 2, 1)
        grown, rec = blow_up_global(cfg, {X, Y})
        assert [paths for _, paths in rec.outcomes] == [(((2, X),), ((2, Y),))]
        assert grown == Configuration(grown.registry, grown.charts, 2, 2)

    def test_duplicate_key_rejected(self):
        kid = Chart(
            "U", (Y,), frozenset(), frozenset(), MarkedIdeal.of([mono({Y: 1})], 2), path=((1, X),)
        )
        with pytest.raises(ValidationError, match=r"^duplicate chart 'U/x'$"):
            Configuration(("x", "y"), (kid, replace(kid)), 2, 1)

    def test_taken_names_get_primes(self):
        """`name_exceptional` names the component of stage s `exc<s>`, primed
        past the names an input holds already, so no registered name is
        taken twice.  A run along K and then K again, which no chart holds
        any more, names both and replaces the root once."""
        gens = [mono({X: 2, Y: 3}), mono({X: 2, V: 6}), mono({Y: 4, U: 5})]
        cfg = config(("x", "exc1", "exc1'", "v"), [chart(4, gens, 5)], 4)
        ((_, kids),) = fresh_step(cfg, K)
        registry = name_exceptional(cfg.registry, 1)
        assert registry == ("x", "exc1", "exc1'", "v", "exc1''")
        assert name_exceptional(registry, 2) == ("x", "exc1", "exc1'", "v", "exc1''", "exc2")
        grown, _ = blow_up_sequence(cfg, [K, K])
        assert grown.registry == ("x", "exc1", "exc1'", "v", "exc1''", "exc2")
        assert grown.component_id("exc1''") == 4 and grown.component_id("exc1'") == 2
        assert grown.n_blowups == 2 and grown.step == [(cfg.charts[0], kids)]


def oracle_children(parent, center, k, exceptional):
    """The generators of the child of k, from the polynomial oracle: the
    literal substitution and division of each of the parent's generators,
    with the chart variable read as the exceptional component."""
    comps = parent.e_components
    names = [f"c{c}" for c in comps]
    polys = [IntPoly.monomial(names, {f"c{c}": e for c, e in g.exps}) for g in parent.ideal.generators]
    out = []
    for poly in oracle_transform(polys, [f"c{c}" for c in center], f"c{k}", parent.mark):
        ((exps, coeff),) = poly.terms
        assert coeff == 1
        out.append(Monomial.of({exceptional if c == k else c: e for c, e in zip(comps, exps)}))
    return minimalize(out)


@pytest.mark.parametrize("name", list(RUNS))
def test_children_agree_with_the_polynomial_oracle(name):
    """Every child the engine makes in a pinned run has the generators the
    exact-polynomial oracle gives for its parent's."""
    cfg, records, _ = RUNS[name]()
    children = 0
    for rec in records:
        cfg, replayed = blow_up_global(cfg, rec.center)
        assert replayed == rec
        for parent, kids in cfg.step:
            for kid in kids:
                ((stage, k),) = kid.path[len(parent.path):]
                assert stage == rec.stage
                assert kid.ideal.mark == parent.mark
                assert kid.ideal.generators == oracle_children(parent, rec.center, k, rec.exceptional)
                children += 1
    assert children or not records


@pytest.mark.parametrize("name", list(RUNS))
def test_final_configuration_passes_full_validation(name):
    """The charts a run grows unchecked, through the deep principalize and
    weak-resolve paths too, are those the constructor accepts."""
    _, _, final = RUNS[name]()
    full = Configuration(final.registry, final.charts, final.dim_p, final.n_blowups)
    assert full == final
    assert index_answers(full) == index_answers(final)


class TestSumsCommuteWithTransforms:
    def test_transform_of_sum_is_sum_of_transforms(self):
        rng = random.Random(29)
        done = 0
        while done < 30:
            k = rng.randint(1, 3)
            ideals = [
                MarkedIdeal.of(
                    [
                        mono({c: rng.randint(0, 4) for c in range(4)})
                        for _ in range(rng.randint(1, 2))
                    ],
                    rng.randint(1, 3),
                )
                for _ in range(k)
            ]
            total = sum_marked(ideals)
            summed_chart = chart(4, total.generators, total.mark)
            cfg = config(("a", "b", "c", "d"), [summed_chart], 4)
            centers = permissible_centers(cfg)
            if not centers:
                continue
            center = rng.choice(centers)
            ((_, kids_of_sum),) = fresh_step(cfg, center)
            for pos, kvar in enumerate(sorted(center)):
                parts = []
                for ideal in ideals:
                    ch_i = chart(4, ideal.generators, ideal.mark)
                    parts.append(chart_children(ch_i, center)[pos].ideal)
                recombined = sum_marked(parts)
                assert recombined.generators == kids_of_sum[pos].ideal.generators
                assert recombined.mark == kids_of_sum[pos].ideal.mark
                # supports intersect on the child chart as well
                child = kids_of_sum[pos]
                for s in brute_support_set(child, 4, mark=0) | {frozenset()}:
                    in_sum = (
                        min(g.degree(s) for g in child.ideal.generators)
                        >= child.ideal.mark
                    )
                    in_each = all(
                        min(g.degree(s) for g in p.generators) >= p.mark
                        for p in parts
                    )
                    assert in_sum == in_each
            done += 1
