"""`rees_lift_check` against a reference that multiplies out the p-th power
of a Rees element part by part.

The reference is the graded product the check used to compute itself: the
image ψ_p(a_d) t^{pd} of each part must lie in I^{pd}, and each degree of
the image minus the p-th power must be p times an element of I^d.  On
ideals with integer constants among the generators the lift can fail, so
the comparison sees both answers.
"""

from __future__ import annotations

import random

import pytest

from monored.arithmetic import (
    IntPoly,
    ReesElement,
    ideal_power_contains,
    psi,
    random_rees_element,
    rees_lift_check,
)
from monored.errors import InvalidElementError, ValidationError

VS = ("x", "y")


def x(name: str) -> IntPoly:
    return IntPoly.var(VS, name)


IDEALS = {
    "(2, x)": [IntPoly.constant(VS, 2), x("x")],
    "(x, y)": [x("x"), x("y")],
    "(3, x, y)": [IntPoly.constant(VS, 3), x("x"), x("y")],
    "(2x, y)": [x("x").scale(2), x("y")],
    "(xy, y^2)": [x("x") * x("y"), x("y") * x("y")],
}
PRIMES = (2, 3, 5)
DRAWS = 40


def reference_rees_lift(p: int, gens, element: ReesElement) -> bool:
    """The Rees lift decided on a graded product built degree by degree."""
    image = {p * d: psi(p, f) for d, f in element.parts}
    for d, f in image.items():
        if not ideal_power_contains(gens, d, f):
            return False
    base = dict(element.parts)
    variables = next(iter(base.values())).variables
    power = {0: IntPoly.constant(variables, 1)}
    for _ in range(p):
        nxt: dict[int, IntPoly] = {}
        for d1, f1 in power.items():
            for d2, f2 in base.items():
                g = f1 * f2
                nxt[d1 + d2] = nxt[d1 + d2] + g if d1 + d2 in nxt else g
        power = nxt
    zero = IntPoly.zero(variables)
    for d in set(power) | set(image):
        diff = image.get(d, zero) - power.get(d, zero)
        if diff.is_zero():
            continue
        if not diff.divisible_by_int(p):
            return False
        if not ideal_power_contains(gens, d, diff.exact_div_int(p)):
            return False
    return True


@pytest.mark.parametrize("ideal", sorted(IDEALS))
def test_rees_lift_matches_the_graded_product(ideal):
    gens = IDEALS[ideal]
    rng = random.Random(f"rees-pin {ideal}")
    results = []
    for _ in range(DRAWS):
        element = random_rees_element(rng, gens)
        for p in PRIMES:
            held = rees_lift_check(p, gens, element)
            assert held == reference_rees_lift(p, gens, element), (p, element)
            results.append(held)
    if ideal == "(x, y)":
        assert all(results)


def test_the_pin_sees_failures():
    """Over the five ideals some lifts fail, so agreeing on `False` is tested."""
    failed = 0
    for ideal, gens in IDEALS.items():
        rng = random.Random(f"rees-pin {ideal}")
        for _ in range(DRAWS):
            element = random_rees_element(rng, gens)
            failed += sum(not rees_lift_check(p, gens, element) for p in PRIMES)
    assert failed > 0


def test_invalid_input_raises_as_before():
    gens = IDEALS["(x, y)"]
    with pytest.raises(ValidationError, match="^4 is not prime$"):
        rees_lift_check(4, gens, ReesElement.of({1: x("x")}))
    with pytest.raises(InvalidElementError, match="^degree-2 part is not in the 2-th ideal power$"):
        rees_lift_check(2, gens, ReesElement.of({2: x("y")}))
    # a bad prime is reported before a bad part
    with pytest.raises(ValidationError, match="^4 is not prime$"):
        rees_lift_check(4, gens, ReesElement.of({2: x("y")}))
