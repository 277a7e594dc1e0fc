import random
from dataclasses import replace

import pytest

from monored.arithmetic import IntPoly
from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    support,
)
from monored.errors import ValidationError
from monored.resolution import (
    is_locally_principal,
    principalize,
    total_transform_generators,
    weak_resolve,
)
from monored.serialize import (
    canonical_json,
    final_state_obj,
    load_config,
    replay_trace,
    trace_to_obj,
)
from monored.transform import BlowUpRecord, transform_generator

from conftest import chart, config, golden_config, mono, random_config


def lines_config():
    return config(
        ("x", "y"), [chart(2, [mono({0: 1}), mono({1: 1})], 1)], 2
    )


@pytest.fixture(scope="module")
def golden_trace():
    # the four-variable worked example re-marked to 1; expensive, shared
    return principalize(golden_config())


class TestPrincipalize:
    def test_two_lines(self):
        tr = principalize(lines_config())
        assert len(tr.records) == 1
        assert sorted(tr.records[0].center) == [0, 1]
        assert is_locally_principal(tr.final, tr)
        totals = [total_transform_generators(ch) for ch in tr.final.charts]
        # both children carry the pure exceptional as total transform
        assert totals == [(mono({2: 1}),), (mono({2: 1}),)]

    def test_already_principal(self):
        cfg = config(("x",), [chart(1, [mono({0: 2})], 3)], 1)
        tr = principalize(cfg)
        assert tr.records == ()
        assert is_locally_principal(tr.final)

    def test_worked_example_with_unit_mark(self, golden_trace):
        assert support(golden_trace.final) == []
        assert is_locally_principal(golden_trace.final, golden_trace)
        assert golden_trace.initial.mark == 1

    def test_cosupport_recorded(self):
        tr = principalize(lines_config())
        assert [(key[0], sorted(v)) for key, v in tr.cosupport] == [("U", [0, 1])]

    def test_unit_charts_never_subdivided(self):
        # an unrelated chart with unit ideal rides along untouched
        base = config(
            ("a", "b", "w"),
            [chart(3, [mono({0: 2, 1: 1}), mono({1: 3})], 1, e=(0, 1))],
            2,
        )
        unit_chart = Chart(
            "Q", (2,), frozenset(), frozenset(), MarkedIdeal.of([mono({})], 1)
        )
        cfg = Configuration(base.registry, base.charts + (unit_chart,), 2)
        tr = principalize(cfg)
        assert is_locally_principal(tr.final, tr)
        kept = [ch for ch in tr.final.charts if ch.label == "Q"]
        assert len(kept) == 1 and kept[0].path == ()
        assert kept[0].ideal.is_unit()


class TestIsLocallyPrincipal:
    def test_two_generators(self):
        cfg = lines_config()
        assert not is_locally_principal(cfg)

    def test_incomparable_generators(self):
        cfg = config(("x", "y"), [chart(2, [mono({0: 1, 1: 1}), mono({0: 2})], 1)], 2)
        assert not is_locally_principal(cfg)

    def test_trace_consistency_check(self):
        tr = principalize(lines_config())
        with pytest.raises(ValidationError):
            is_locally_principal(lines_config(), tr)


class TestWeakResolve:
    def three_component(self):
        return config(
            ("x", "y", "w"),
            [chart(3, [mono({0: 1}), mono({1: 1})], 1)],
            3,
        )

    def test_codimension_two_coordinate_subscheme(self):
        tr = weak_resolve(self.three_component())
        assert tr.separation_stage == 1
        strict = {key[1]: gens for key, gens in tr.separated}
        assert strict[((1, 0),)] == (mono({1: 1}),)
        assert strict[((1, 1),)] == (mono({0: 1}),)

    def test_codimension_one_rejected(self):
        cfg = config(("x", "y"), [chart(2, [mono({0: 1})], 1)], 2)
        with pytest.raises(ValidationError):
            weak_resolve(cfg)

    def test_resolution_also_principal(self):
        tr = weak_resolve(self.three_component())
        assert is_locally_principal(tr.final, tr)


class TestTraceReplay:
    def test_bit_for_bit(self):
        from monored.reduction import reduce

        cases = [principalize(lines_config())]
        final, records = reduce(golden_config())
        for initial, records, final in [
            (c.initial, c.records, c.final) for c in cases
        ] + [(golden_config(), records, final)]:
            obj = trace_to_obj(initial, records, final)
            refinal, rerecords = replay_trace(load_config(obj["input"]), obj)
            assert canonical_json(final_state_obj(refinal, rerecords)) == canonical_json(
                obj["final"]
            )

    def test_random_traces(self):
        from monored.reduction import reduce

        rng = random.Random(71)
        done = 0
        while done < 8:
            cfg = random_config(rng)
            final, records = reduce(cfg)
            if len(records) > 120:
                continue
            obj = trace_to_obj(cfg, records, final)
            refinal, rerecords = replay_trace(load_config(obj["input"]), obj)
            assert canonical_json(final_state_obj(refinal, rerecords)) == canonical_json(
                obj["final"]
            )
            done += 1


    def test_rendering_stops_on_a_naming_cycle(self):
        # component 0 defines the chart at stage 1 and is stage 1's own
        # exceptional component: records that do not match the
        # configuration, which the public final_state_obj still accepts
        ch = replace(chart(2, [mono({0: 1, 1: 2})], 1), path=((1, 0),))
        record = BlowUpRecord(1, frozenset({0}), 0, ())
        obj = final_state_obj(config(("x", "y"), [ch], 2), [record])
        assert obj["charts"][0]["rendered"] == "x\u0304y\u0304\u00b2"  # x̄ȳ²


class TestPullbackLedger:
    def test_total_transform_matches_polynomial_pullback(self, golden_trace):
        """Along sampled chart paths: raw birational exponents plus the
        accumulated excess equal the literal polynomial pullback."""
        tr = golden_trace
        registry = tr.final.registry
        names = tuple(registry)
        centers = {rec.stage: rec for rec in tr.records}
        sampled = [ch for ch in tr.final.charts if ch.path][:10]
        for ch in sampled:
            for g0 in tr.initial.charts[0].ideal.generators:
                # exponent chain, one birational transform per path step
                g = g0
                ok = True
                for stage, k in ch.path:
                    rec = centers[stage]
                    if g.degree(rec.center) < tr.initial.mark:
                        ok = False
                        break
                    g = transform_generator(
                        g, rec.center, k, rec.exceptional, tr.initial.mark
                    )
                if not ok:
                    continue
                # literal pullback: substitution without division
                poly = IntPoly.monomial(names, {registry[c]: e for c, e in g0.exps})
                for stage, k in ch.path:
                    rec = centers[stage]
                    mapping = {
                        registry[t]: IntPoly.var(names, registry[rec.exceptional])
                        * IntPoly.var(names, registry[t])
                        for t in rec.center
                        if t != k
                    }
                    mapping[registry[k]] = IntPoly.var(names, registry[rec.exceptional])
                    poly = poly.compose(mapping)
                expected = g.times(ch.pullback_excess)
                assert poly == IntPoly.monomial(
                    names, {registry[c]: e for c, e in expected.exps}
                )
