"""The final charts of a run as a fan: a lattice check on the engine's
charts, independent of the engine's own rule.

Every centre is a coordinate centre, so each chart of a run is a smooth
cone over its root chart.  Its coordinate change from the root is an
integer matrix M: each root coordinate's exponents over the chart's
coordinates, followed here from the identity along the chart's path (the
blow-up at K, in the child of k, gives the exceptional coordinate each
row's sum over K and drops k).  The columns of M are the cone's rays.  A
run's final charts must each have |det M| = 1, and must cover their root
exactly once: each facet of a cone (its rays, one dropped) lies in a
coordinate hyperplane and in one chart, or inside the root's cone and in
exactly two charts.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from conftest import golden_config
from monored.core import Configuration
from monored.resolution import principalize
from test_path_nodes import tower
from test_stage_one_closed_form import seeded_draws


def chart_matrix(root_comps, ch, records) -> list[tuple[int, ...]]:
    """M of the chart: one row per root coordinate, one column per chart
    coordinate, in component order."""
    rows = [{c: 1} for c in root_comps]
    for stage, k in ch.path:
        rec = records[stage]
        for row in rows:
            total = sum(row.get(c, 0) for c in rec.center)
            row.pop(k, None)
            if total:
                row[rec.exceptional] = total
    assert all(set(row) <= set(ch.e_components) for row in rows)
    return [tuple(row.get(c, 0) for c in ch.e_components) for row in rows]


def determinant(matrix) -> Fraction:
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            factor = m[r][i] / m[i][i]
            m[r] = [a - factor * b for a, b in zip(m[r], m[i])]
    return det


def cover_problems(initial: Configuration, charts, records) -> list[str]:
    """What keeps `charts` from being the smooth cones of a subdivision of
    each root chart of `initial`, covering it exactly once."""
    by_stage = {rec.stage: rec for rec in records}
    roots = {ch.label: ch.e_components for ch in initial.charts}
    problems = []
    facets: dict[str, Counter] = {label: Counter() for label in roots}
    for ch in charts:
        matrix = chart_matrix(roots[ch.label], ch, by_stage)
        if abs(determinant(matrix)) != 1:
            problems.append(f"{ch.label} {tuple(ch.path)}: |det M| is not 1")
        rays = list(zip(*matrix))
        for j in range(len(rays)):
            facets[ch.label][frozenset(rays[:j] + rays[j + 1:])] += 1
    for label, counts in facets.items():
        for facet, n in counts.items():
            on_boundary = any(all(ray[i] == 0 for ray in facet) for i in range(len(roots[label])))
            if n != (1 if on_boundary else 2):
                problems.append(f"{label}: a facet {'on' if on_boundary else 'inside'} the root lies in {n} charts")
    return problems


RUNS = {
    **{f"tower{e}": (lambda e=e: tower(e)) for e in (25, 50, 75, 100)},
    "worked example": golden_config,
}


@pytest.mark.parametrize("name", RUNS)
def test_final_charts_cover_the_root_once(name):
    trace = principalize(RUNS[name]())
    assert cover_problems(trace.initial, trace.final.charts, trace.records) == []


def test_seeded_draws_cover_their_roots_once():
    made = 0
    for cfg in seeded_draws():
        trace = principalize(cfg)
        assert cover_problems(trace.initial, trace.final.charts, trace.records) == []
        made += len(trace.final.charts) - len(trace.initial.charts)
    assert made > 500


def test_a_dropped_chart_is_flagged():
    trace = principalize(tower(25))
    charts = trace.final.charts
    assert len(charts) > 10
    for n in range(len(charts)):
        kept = charts[:n] + charts[n + 1:]
        assert cover_problems(trace.initial, kept, trace.records)
