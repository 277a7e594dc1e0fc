"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a single PASS line with its runtime; expected values are
either computed by independent brute force inside the test or frozen from
hand computation.
"""

import itertools
import random
import time

from monored.arithmetic import (
    IntPoly,
    fiber_order_check,
    frobenius_lift_check,
    normal_cone_flat_check,
    oracle_transform,
    random_poly,
    random_rees_element,
    rees_lift_check,
)
from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    max_order,
    sum_marked,
    support,
)
from monored.reduction import companion_ideal, contact_split, reduce, reduce_monomial
from monored.resolution import is_locally_principal, principalize
from monored.serialize import (
    canonical_json,
    final_state_obj,
    replay_trace,
    trace_to_obj,
)
from monored.transform import blow_up_global

from conftest import (
    U,
    V,
    X,
    Y,
    brute_support_set,
    chart,
    chart_children,
    config,
    golden_config,
    mono,
    permissible_centers,
    random_config,
    random_maximal_order_config,
    random_principal_config,
)

K = frozenset({X, Y, U, V})
EXC = 4


def report(number: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.2f}s)"
    print(f"ACCEPTANCE {number}: PASS ({elapsed * 1000:.1f} ms) {label}")


def test_c1_golden_blowup_exact():
    cfg = golden_config()
    t0 = time.perf_counter()
    cfg2, rec = blow_up_global(cfg, K)
    v_child = cfg2.charts[3]
    assert v_child.ideal.generators == (
        mono({X: 2, Y: 3}),
        mono({X: 2, EXC: 3}),
        mono({Y: 4, U: 5, EXC: 4}),
    )
    report(1, "worked-example blow-up, v-chart exponent-exact", t0, 0.010)


def test_c2_counterexample_ideals_differ_supports_agree():
    cfg = golden_config()
    t0 = time.perf_counter()
    cfg2, _ = blow_up_global(cfg, K)
    v_child = cfg2.charts[3]

    # fresh contact data on the v-chart is built from the single residue u^5
    child_split = contact_split(v_child)
    residues = [r for _, r in child_split.parts if not r.is_unit()]
    assert residues == [mono({U: 5})]
    _, child_companion = companion_ideal(v_child, child_split)
    assert child_companion is None  # no positive co-mark survives
    fresh_based = MarkedIdeal.of([mono({U: 5})], 1)

    # transported companion is built from exc^3 and u^5 exc^4
    v6, u5 = mono({V: 6}), mono({U: 5})
    t1 = v6.exchanged(V, EXC, v6.degree(K) - 3)
    t2 = u5.exchanged(V, EXC, u5.degree(K) - 1)
    assert (t1, t2) == (mono({EXC: 3}), mono({U: 5, EXC: 4}))
    transported = sum_marked([MarkedIdeal.of([t1], 3), MarkedIdeal.of([t2], 1)])
    assert transported != fresh_based  # ideal inequality

    # support equality on exhaustive strata: the transported companion over
    # the strict transform of the contact locus matches the transformed ideal
    comp_chart = Chart(
        "C", v_child.e_components, v_child.n_vars, frozenset({X, Y}), transported
    )
    assert brute_support_set(comp_chart, 2) == brute_support_set(v_child, 4)
    report(2, "worked-example companion counterexample", t0, 0.100)


def test_c3_max_order_never_increases():
    t0 = time.perf_counter()
    rng = random.Random(101)
    done = 0
    while done < 50:
        cfg = random_maximal_order_config(rng)
        centers = permissible_centers(cfg)
        if not centers:
            continue
        before = max_order(cfg)
        cfg2, _ = blow_up_global(cfg, rng.choice(centers))
        assert max_order(cfg2) <= before
        per_stratum = [
            min(g.degree(s) for g in ch.ideal.generators)
            for ch in cfg2.charts
            if not ch.p_empty
            for s in brute_support_set(ch, cfg2.dim_p, mark=0)
        ]
        assert max(per_stratum, default=0) <= before
        done += 1
    report(3, f"{done} permissible blow-ups, max order monotone", t0, 5.0)


def test_c4_sum_laws():
    t0 = time.perf_counter()
    rng = random.Random(103)
    done = 0
    while done < 50:
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
        # support of the sum is the intersection of supports, stratum-exact
        for size in range(0, 5):
            for combo in itertools.combinations(range(4), size):
                s = frozenset(combo)
                in_sum = min(g.degree(s) for g in total.generators) >= total.mark
                in_all = all(
                    min(g.degree(s) for g in i.generators) >= i.mark for i in ideals
                )
                assert in_sum == in_all
        # transform of the sum equals the sum of the transforms
        summed_chart = chart(4, total.generators, total.mark)
        cfg = config(("a", "b", "c", "d"), [summed_chart], 4)
        centers = permissible_centers(cfg)
        if not centers:
            continue
        center = rng.choice(centers)
        grown, _ = blow_up_global(cfg, center)
        ((_, kids),) = grown.step
        for pos in range(len(center)):
            parts = [chart_children(chart(4, i.generators, i.mark), center)[pos].ideal for i in ideals]
            recombined = sum_marked(parts)
            assert recombined.generators == kids[pos].ideal.generators
            assert recombined.mark == kids[pos].ideal.mark
        done += 1
    report(4, f"{done} instances, sum support and transform laws", t0, 5.0)


def test_c5_reduce_terminates_and_monomial_measure():
    t0 = time.perf_counter()
    rng = random.Random(105)
    for _ in range(100):
        cfg = random_config(rng)
        final, records = reduce(cfg)
        assert support(final) == []

    # the staged monomial procedure: stages never exceed dim_p, the stage
    # measure (max subset sum, number of maximisers) drops at every step
    def stage_measure(state, size):
        sums = {}
        for ch in state.charts:
            if ch.p_empty or len(ch.ideal.generators) != 1:
                continue
            if not brute_support_set(ch, state.dim_p):
                continue
            g = ch.ideal.generators[0]
            for combo in itertools.combinations(sorted(g.components), size):
                tot = sum(g.exponent(c) for c in combo)
                if tot >= state.mark:
                    sums[combo] = tot
        if not sums:
            return (-1, 0)
        best = max(sums.values())
        return (best, sum(1 for v in sums.values() if v == best))

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
            before = stage_measure(state, size)
            state, _ = blow_up_global(state, rec.center)
            assert stage_measure(state, size) < before
        assert stages == sorted(stages) and all(s <= cfg.dim_p for s in stages)
    report(5, "100 reductions terminate; monomial stage measure decreases", t0, 60.0)


def test_c6_oracle_equivalence_and_fibers():
    t0 = time.perf_counter()
    rng = random.Random(107)
    names = ("a", "b", "c", "d")
    done = 0
    while done < 100:
        nvars = rng.randint(2, 4)
        g = Monomial.of({c: rng.randint(0, 6) for c in range(nvars)})
        center = sorted(rng.sample(range(nvars), rng.randint(1, nvars)))
        total = g.degree(center)
        if total == 0:
            continue
        m = rng.randint(1, total)
        kvar = rng.choice(center)
        exc = nvars
        kids = chart_children(chart(nvars, [g], m), center)
        (got,) = kids[center.index(kvar)].ideal.generators

        poly = IntPoly.monomial(names[:nvars], {names[c]: e for c, e in g.exps})
        (oracle,) = oracle_transform(
            [poly], [names[c] for c in center], names[kvar], m
        )
        ((exps, coeff),) = oracle.terms or (((0,) * nvars, 1),)
        assert coeff == 1
        expected = {}
        for idx, e in enumerate(exps):
            if not e:
                continue
            expected[exc if idx == kvar else idx] = e
        assert got == Monomial.of(expected)

        gens_poly = [poly]
        for p in (0, 2, 3, 5):
            assert fiber_order_check(
                gens_poly,
                {names[c] for c in center},
                p,
                center=[names[c] for c in center],
                chart_var=names[kvar],
                mark=m,
            )
        done += 1
    report(6, f"{done} oracle/exponent transform agreements, fibers at 0,2,3,5", t0, 10.0)


def test_c7_lambda_arithmetic():
    t0 = time.perf_counter()
    rng = random.Random(109)
    vs = ("x", "y", "z")
    polys = [random_poly(rng, vs) for _ in range(200)]
    for p in (2, 3, 5):
        for f in polys:
            assert frobenius_lift_check(p, f)

    gens = [IntPoly.var(vs, "x"), IntPoly.var(vs, "y")]
    done = 0
    while done < 50:
        element = random_rees_element(rng, gens)
        for p in (2, 3, 5):
            assert rees_lift_check(p, gens, element)
        done += 1

    samples = [
        IntPoly.monomial(vs, {"x": rng.randint(0, 4), "y": rng.randint(0, 4), "z": rng.randint(0, 4)})
        for _ in range(10)
    ]
    assert normal_cone_flat_check(gens, 3, (2, 3, 5), samples)
    one_var = ("x",)
    torsion = [IntPoly.constant(one_var, 2), IntPoly.var(one_var, "x")]
    assert not normal_cone_flat_check(torsion, 2, (2,), [IntPoly.var(one_var, "x")])
    report(7, "200 Frobenius lifts, 50 Rees lifts, normal-cone verdicts", t0, 10.0)


def test_c8_principalization():
    t0 = time.perf_counter()
    rng = random.Random(111)
    for _ in range(50):
        cfg = random_config(rng, allow_embedded=False)
        tr = principalize(cfg)
        assert is_locally_principal(tr.final, tr)

    # unit-ideal charts are never subdivided
    base = config(
        ("a", "b", "w"),
        [chart(3, [mono({0: 2, 1: 1}), mono({1: 3})], 1, e=(0, 1))],
        2,
    )
    unit_chart = Chart("Q", (2,), frozenset(), frozenset(), MarkedIdeal.of([mono({})], 1))
    cfg = Configuration(base.registry, base.charts + (unit_chart,), 2)
    tr = principalize(cfg)
    assert is_locally_principal(tr.final, tr)
    kept = [ch for ch in tr.final.charts if ch.label == "Q"]
    assert kept[0].path == () and kept[0].ideal.is_unit()
    report(8, "50 principalizations, unit charts untouched", t0, 60.0)


def test_c9_replay_determinism():
    t0 = time.perf_counter()
    rng = random.Random(113)
    emitted = []
    final, records = reduce(golden_config())
    emitted.append((golden_config(), records, final))
    done = 0
    while done < 6:
        cfg = random_config(rng)
        final, records = reduce(cfg)
        if len(records) > 120:
            continue
        emitted.append((cfg, records, final))
        done += 1
    tr = principalize(
        config(("x", "y"), [chart(2, [mono({0: 1}), mono({1: 1})], 1)], 2)
    )
    emitted.append((tr.initial, list(tr.records), tr.final))
    for initial, records, final in emitted:
        obj = trace_to_obj(initial, records, final)
        refinal, rerecords = replay_trace(obj)
        assert canonical_json(final_state_obj(refinal, rerecords)) == canonical_json(
            obj["final"]
        )
    report(9, f"{len(emitted)} traces replay byte-identically", t0, 30.0)
