"""Maxima over P and minimal generators, as properties.

One-chart configurations are drawn with `dim_p` from the number of
components not cutting P (the least a configuration accepts) to two more.
Every maximum over P the library takes at the distinguished point alone
must equal the brute-force maximum over all strata; and a marked ideal
built from a generator list that is not minimal must be the one
`MarkedIdeal.of` makes.
"""

from __future__ import annotations

import pytest

from conftest import brute_order, brute_strata, brute_support_set
from monored.core import (
    Chart,
    Configuration,
    MarkedIdeal,
    Monomial,
    chart_order,
    has_support,
)
from monored.reduction import residual_order

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def one_chart(draw):
    """A one-chart configuration and the raw (not minimalized) generators."""
    k = draw(st.integers(1, 4), label="components")
    p = frozenset(range(draw(st.integers(0, k - 1), label="P-cutting")))
    free = [c for c in range(k) if c not in p]
    raw = [
        Monomial.of(exps)
        for exps in draw(
            st.lists(
                st.fixed_dictionaries({c: st.integers(0, 6) for c in free}),
                min_size=1,
                max_size=4,
            ),
            label="generators",
        )
    ]
    ch = Chart(
        label="U",
        e_components=tuple(range(k)),
        n_vars=frozenset(),
        p_components=p,
        ideal=MarkedIdeal.of(raw, draw(st.integers(1, 8), label="mark")),
        p_empty=draw(st.integers(0, 5), label="p_empty") == 0,
    )
    dim_p = draw(st.integers(len(free), len(free) + 2), label="dim_p")
    return Configuration("abcd"[:k], (ch,), dim_p), raw


def brute_residual_order(ch: Chart, dim_p: int) -> int:
    """Largest order, over the support strata, of the generators divided by
    their greatest common monomial factor."""
    gens = ch.ideal.generators
    comps = {c for g in gens for c, _ in g.exps}
    common = {c: min(g.exponent(c) for g in gens) for c in comps}
    residual = [
        Monomial.of({c: e - common[c] for c, e in g.exps}) for g in gens
    ]
    return max(
        (brute_order(residual, s) for s in brute_support_set(ch, dim_p)), default=0
    )


@hypothesis.settings(max_examples=300, database=None, derandomize=True, deadline=None)
@hypothesis.given(drawn=one_chart())
def test_maxima_over_p_match_all_strata(drawn):
    cfg, _ = drawn
    (ch,) = cfg.charts
    gens = ch.ideal.generators
    orders = [brute_order(gens, s) for s in brute_strata(ch, cfg.dim_p)]
    assert chart_order(ch) == max(orders, default=0)
    assert has_support(ch) == bool(brute_support_set(ch, cfg.dim_p))
    assert residual_order(cfg) == brute_residual_order(ch, cfg.dim_p)


@hypothesis.settings(max_examples=100, database=None, derandomize=True, deadline=None)
@hypothesis.given(drawn=one_chart())
def test_constructor_minimalizes_as_of_does(drawn):
    cfg, raw = drawn
    mark = cfg.mark
    # a duplicate and a multiple of the first generator: never minimal
    padded = (*raw, raw[0], raw[0].times(Monomial.of({0: 1})))
    ideal = MarkedIdeal(padded, mark)
    assert ideal == MarkedIdeal.of(padded, mark) == cfg.charts[0].ideal
    for g in padded:
        assert any(h.divides(g) for h in ideal.generators)
    for g in ideal.generators:
        assert g in padded
        assert not any(h != g and h.divides(g) for h in ideal.generators)
