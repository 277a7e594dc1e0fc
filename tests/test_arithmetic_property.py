"""The `IntPoly` operations against tuple arithmetic, as a property.

Sums, products, powers, Adams operations, the p-derivation and term-ideal
membership run on packed integer keys, and build their results without the
input checks of `IntPoly.of`.  Each must equal the same operation done on
exponent tuples and normalized by `IntPoly.of`: over no variables, on the
zero polynomial, at the power 0, with negative coefficients and with
exponents large enough to widen the packing.
"""

from __future__ import annotations

import itertools
import math

import pytest

from monored.arithmetic import IntPoly, delta, ideal_power_contains, psi

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

VS = ("x", "y", "z")
# an exponent this large needs a field of 41 bits, and 45 once psi_13 or a
# 13th power multiplies it
BIG = 2**40


@st.composite
def polys(draw, variables=VS, exponents=st.integers(0, 3)):
    exps = st.tuples(*[exponents for _ in variables])
    coeffs = draw(st.dictionaries(exps, st.integers(-9, 9), max_size=4))
    return IntPoly.of(variables, coeffs)


# 0, 1 or 3 variables, exponents small or past 2**40
wide_polys = st.sampled_from(((), ("x",), VS)).flatmap(
    lambda vs: polys(vs, st.integers(0, 3) | st.sampled_from((BIG, BIG + 1)))
)


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


def of_power(f: IntPoly, k: int) -> IntPoly:
    out = IntPoly.constant(f.variables, 1)
    for _ in range(k):
        out = of_product(out, f)
    return out


def of_psi(p: int, f: IntPoly) -> IntPoly:
    return IntPoly.of(f.variables, {tuple(p * e for e in exps): c for exps, c in f.terms})


def power_term_gens(term_gens, k: int):
    """(exponents, coefficient) of the k-fold products of generator terms."""
    if k == 0:
        n = len(term_gens[0][0])
        return [((0,) * n, 1)]
    out = []
    for combo in itertools.combinations_with_replacement(term_gens, k):
        exps = tuple(sum(es) for es in zip(*(e for e, _ in combo)))
        coeff = 1
        for _, c in combo:
            coeff *= c
        out.append((exps, coeff))
    return out


def term_ideal_contains(term_gens, f: IntPoly) -> bool:
    """The membership convention, scanned on exponent tuples."""
    for exps, c in f.terms:
        eligible = [gc for ge, gc in term_gens if all(a >= b for a, b in zip(exps, ge))]
        if not eligible:
            return False
        if c % math.gcd(*eligible, 0):
            return False
    return True


def reference_contains(gens, k: int, f: IntPoly) -> bool:
    return f.is_zero() or term_ideal_contains(power_term_gens([g.terms[0] for g in gens], k), f)


def assert_normal(f: IntPoly) -> None:
    assert f == IntPoly.of(f.variables, dict(f.terms))
    assert all(c for _, c in f.terms)


@hypothesis.settings(max_examples=200, database=None, derandomize=True, deadline=None)
@hypothesis.given(f=polys(), g=polys(), p=st.sampled_from((2, 3, 5, 7)))
def test_sum_product_and_psi_match_of(f, g, p):
    lift = of_sum(of_psi(p, f), -of_power(f, p))
    assert lift.divisible_by_int(p)
    for result, expected in [
        (f * g, of_product(f, g)),
        (f + g, of_sum(f, g)),
        (f - g, of_sum(f, -g)),
        (psi(p, f), of_psi(p, f)),
        # never None: psi_p lifts Frobenius on Z[x, y, z]
        (delta(p, f), IntPoly.of(VS, {e: c // p for e, c in lift.terms})),
    ]:
        assert_normal(result)
        assert result == expected


@hypothesis.settings(max_examples=100, database=None, derandomize=True, deadline=None)
@hypothesis.given(f=polys(), k=st.integers(0, 8))
def test_power_is_repeated_multiplication(f, k):
    result = f**k
    assert_normal(result)
    assert result == of_power(f, k)


@hypothesis.settings(max_examples=150, database=None, derandomize=True, deadline=None)
@hypothesis.given(data=st.data(), p=st.sampled_from((2, 13)), k=st.integers(0, 3))
@hypothesis.example(data=None, p=13, k=0)
def test_wide_keys_match_tuple_arithmetic(data, p, k):
    if data is None:
        # the zero polynomial over no variables
        f = g = IntPoly.zero(())
    else:
        f = data.draw(wide_polys)
        g = data.draw(polys(f.variables, st.integers(0, 3) | st.just(BIG)))
    lift = of_sum(of_psi(p, f), -of_power(f, p))
    for result, expected in [
        (f * g, of_product(f, g)),
        (f + g, of_sum(f, g)),
        (f**k, of_power(f, k)),
        (psi(p, f), of_psi(p, f)),
        (delta(p, f), IntPoly.of(f.variables, {e: c // p for e, c in lift.terms})),
    ]:
        assert_normal(result)
        assert result == expected


@st.composite
def memberships(draw):
    """Term generators, a power k and a candidate f: half the time a sum of
    k-fold generator products times polynomials, so both answers occur."""
    variables = draw(st.sampled_from(((), ("x",), ("x", "y"), VS)))
    exponents = st.integers(0, 3) | st.just(BIG)
    term = st.tuples(st.tuples(*[exponents for _ in variables]), st.integers(-6, 6).filter(bool))
    gens = [IntPoly.of(variables, dict([t])) for t in draw(st.lists(term, min_size=1, max_size=3))]
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        return gens, k, draw(polys(variables, exponents))
    f = IntPoly.zero(variables)
    for _ in range(draw(st.integers(1, 2))):
        prod = IntPoly.constant(variables, draw(st.integers(-3, 3)))
        for g in draw(st.lists(st.sampled_from(gens), min_size=k, max_size=k)):
            prod = prod * g
        f = f + prod * draw(polys(variables, st.integers(0, 2)))
    return gens, k, f


@hypothesis.settings(max_examples=300, database=None, derandomize=True, deadline=None)
@hypothesis.given(case=memberships())
def test_membership_matches_the_tuple_scan(case):
    gens, k, f = case
    assert ideal_power_contains(gens, k, f) == reference_contains(gens, k, f)
