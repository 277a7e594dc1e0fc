"""The `IntPoly` operations against `IntPoly.of` normalization, as a property.

Sums, products and Adams operations build their results without the input
checks of `IntPoly.of`, and powers square no further than the last bit
needs.  Each must equal the polynomial `IntPoly.of` builds from the same
terms, and a power must equal repeated multiplication.
"""

from __future__ import annotations

import pytest

from monored.arithmetic import IntPoly, psi

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

VS = ("x", "y", "z")


@st.composite
def polys(draw, variables=VS):
    exps = st.tuples(*[st.integers(0, 3) for _ in variables])
    coeffs = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=4))
    return IntPoly.of(variables, coeffs)


def of_product(f: IntPoly, g: IntPoly) -> IntPoly:
    out: dict = {}
    for e1, c1 in f.terms:
        for e2, c2 in g.terms:
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return IntPoly.of(f.variables, out)


def of_sum(f: IntPoly, g: IntPoly) -> IntPoly:
    out = dict(f.terms)
    for e, c in g.terms:
        out[e] = out.get(e, 0) + c
    return IntPoly.of(f.variables, out)


def assert_normal(f: IntPoly) -> None:
    assert f == IntPoly.of(f.variables, dict(f.terms))
    assert all(c for _, c in f.terms)


@hypothesis.settings(max_examples=200, database=None, derandomize=True, deadline=None)
@hypothesis.given(f=polys(), g=polys(), p=st.sampled_from((2, 3, 5, 7)))
def test_sum_product_and_psi_match_of(f, g, p):
    for result, expected in [
        (f * g, of_product(f, g)),
        (f + g, of_sum(f, g)),
        (f - g, of_sum(f, -g)),
        (psi(p, f), IntPoly.of(VS, {tuple(p * e for e in exps): c for exps, c in f.terms})),
    ]:
        assert_normal(result)
        assert result == expected


@hypothesis.settings(max_examples=100, database=None, derandomize=True, deadline=None)
@hypothesis.given(f=polys(), k=st.integers(0, 8))
def test_power_is_repeated_multiplication(f, k):
    expected = IntPoly.constant(VS, 1)
    for _ in range(k):
        expected = of_product(expected, f)
    result = f**k
    assert_normal(result)
    assert result == expected
