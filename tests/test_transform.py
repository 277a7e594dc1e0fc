import random
import re
from dataclasses import replace

import pytest

from monored import core, reduction
from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    grow,
    max_order,
    sum_marked,
)
from monored.errors import NonPermissibleError, ValidationError
from monored.transform import blow_up_chart, blow_up_global, transform_generator

from conftest import (
    U,
    V,
    X,
    Y,
    brute_support_set,
    chart,
    config,
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


class TestTransformGenerator:
    def test_middle_generator(self):
        # x2 v6 in the v-chart: exponent 8 along the centre, drops to exc 3
        g = transform_generator(mono({X: 2, V: 6}), K, V, EXC, 5)
        assert g == mono({X: 2, EXC: 3})

    def test_third_generator(self):
        g = transform_generator(mono({Y: 4, U: 5}), K, V, EXC, 5)
        assert g == mono({Y: 4, U: 5, EXC: 4})

    def test_unit_result(self):
        g = transform_generator(mono({X: 1}), frozenset({X, Y}), X, 2, 1)
        assert g.is_unit()

    def test_insufficient_degree(self):
        with pytest.raises(NonPermissibleError):
            transform_generator(mono({X: 1}), frozenset({X}), X, 2, 3)

    @pytest.mark.parametrize("center", [[X, Y], [X, Y, X], [Y]])
    def test_list_centre_of_too_low_degree(self, center):
        g = mono({X: 2, Y: 1})
        total = g.degree(set(center))
        message = f"^generator c0\\^2\\*c1 has degree {total} < mark 4 along the centre$"
        with pytest.raises(NonPermissibleError, match=message):
            transform_generator(g, center, Y, 4, 4)
        assert transform_generator(g, center, Y, 4, total) == mono({X: 2} if Y in center else {X: 2, Y: 1})

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
            out = transform_generator(g, center, k, 9, m)
            assert out.exponent(9) == total - m >= 0
            assert out.exponent(k) == 0


class TestBlowUpChart:
    def test_golden_v_child(self):
        ch = golden_config().charts[0]
        kids = blow_up_chart(ch, K, EXC, 1)
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
        kids = blow_up_chart(ch, frozenset({0, 1}), 2, 1)
        x_child = kids[0]
        assert x_child.ideal.is_unit()
        assert brute_support_set(x_child, 2) == set()

    def test_codimension_one_is_exponent_shift(self):
        # the single-component blow-up renames the component and lowers its
        # exponent by the mark on every generator
        ch = chart(2, [mono({0: 3, 1: 1}), mono({0: 2, 1: 4})], 2)
        kids = blow_up_chart(ch, frozenset({0}), 2, 1)
        assert len(kids) == 1
        child = kids[0]
        assert child.e_components == (1, 2)
        assert set(child.ideal.generators) == {mono({1: 4}), mono({1: 1, 2: 1})}

    def test_centre_must_be_present(self):
        ch = chart(2, [mono({0: 1})], 1)
        with pytest.raises(ValidationError):
            blow_up_chart(ch, frozenset({0, 5}), 6, 1)

    def test_exceptional_below_an_existing_id(self):
        """A blow-up's exceptional id comes after every id; any other one
        is sorted into the children's components and exponents."""
        ch = replace(chart(4, [mono({0: 2, 1: 3, 3: 1})], 2, e=(0, 1, 3)), pullback_excess=mono({3: 2}))
        x_kid, y_kid = blow_up_chart(ch, {0, 1}, 2, 1)
        assert (x_kid.e_components, y_kid.e_components) == ((1, 2, 3), (0, 2, 3))
        assert x_kid.ideal.generators == (mono({1: 3, 2: 3, 3: 1}),)
        assert y_kid.ideal.generators == (mono({0: 2, 2: 3, 3: 1}),)
        assert x_kid.pullback_excess == y_kid.pullback_excess == mono({2: 2, 3: 2})
        assert (x_kid.path, y_kid.path) == (((1, 0),), ((1, 1),))

    def test_empty_centre_has_no_children(self):
        assert blow_up_chart(chart(2, [mono({0: 1})], 1), set(), 2, 1) == []


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
        grown = []

        def checked(cfg, center):
            new, rec = blow_up_global(cfg, center)
            full = Configuration(new.registry, new.charts, new.dim_p, new.n_blowups)
            assert full == new
            assert index_answers(full) == index_answers(new)
            grown.append(new)
            return new, rec

        monkeypatch.setattr(reduction, "blow_up_global", checked)
        rng = random.Random(1)
        for _ in range(20):
            reduction.reduce(random_config(rng))
        assert len(grown) > 20

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

    def test_registered_name_rejected(self):
        cfg = golden_config()
        kids = blow_up_chart(cfg.charts[0], K, EXC, 1)
        with pytest.raises(ValidationError, match="registry names must be unique"):
            grow(cfg, "x", [(cfg.charts[0], kids)])


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
            kids_of_sum = blow_up_chart(summed_chart, center, 4, 1)
            for pos, kvar in enumerate(sorted(center)):
                parts = []
                for ideal in ideals:
                    ch_i = chart(4, ideal.generators, ideal.mark)
                    parts.append(blow_up_chart(ch_i, center, 4, 1)[pos].ideal)
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
