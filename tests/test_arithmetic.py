import random

import pytest

from monored.arithmetic import (
    IntPoly,
    ReesElement,
    delta,
    fiber_order_check,
    frobenius_lift_check,
    ideal_power_contains,
    is_prime,
    normal_cone_flat_check,
    oracle_transform,
    proj_chart_frobenius_check,
    psi,
    random_monomial,
    random_poly,
    rees_lift_check,
)
from monored.errors import (
    ContractError,
    InvalidElementError,
    InvalidSampleError,
    NonPermissibleError,
    ValidationError,
)

VS = ("x", "y", "z")


def xvar(name, variables=VS):
    return IntPoly.var(variables, name)


class TestIntPoly:
    def test_canonical_equality(self):
        a = IntPoly.of(VS, {(1, 0, 0): 2, (0, 1, 0): -1})
        b = IntPoly.of(VS, {(0, 1, 0): -1, (1, 0, 0): 2, (2, 0, 0): 0})
        assert a == b

    def test_arith(self):
        x, y = xvar("x"), xvar("y")
        assert (x + y) * (x - y) == x**2 - y**2
        assert (x + y) ** 2 == x**2 + x * y * IntPoly.constant(VS, 2) + y**2

    def test_compose(self):
        x, y = xvar("x"), xvar("y")
        f = x**2 + y
        assert f.compose({"x": x * y}) == (x * y) ** 2 + y

    def test_exact_div(self):
        x, y = xvar("x"), xvar("y")
        f = x**2 * y + x**3
        assert f.exact_div_term({"x": 2}) == y + x
        with pytest.raises(NonPermissibleError):
            f.exact_div_term({"y": 1})

    @pytest.mark.parametrize(
        "build",
        [
            lambda: IntPoly.of(("x",), {(1.5,): 2}),
            lambda: IntPoly.of(("x",), {("1",): 1}),
            lambda: IntPoly.of(("x",), {(True,): 1}),
            lambda: IntPoly.of(("x",), {(1,): 2.7}),
            lambda: IntPoly.of(("x",), {(1,): "2"}),
            lambda: IntPoly.of(("x",), {(1,): True}),
            lambda: IntPoly.monomial(("x",), {"x": 1.0}),
            lambda: IntPoly.monomial(("x",), {"x": 1}, coeff=1.0),
            lambda: IntPoly.constant(("x",), False),
            lambda: xvar("x").scale(2.0),
            lambda: xvar("x").exact_div_int(True),
            lambda: xvar("x").mod_int("2"),
            lambda: ReesElement.of({1.0: xvar("x")}),
        ],
    )
    def test_refuses_non_integers(self, build):
        # packed keys shift exponents, so nothing is truncated through int()
        with pytest.raises(ValidationError, match="must be an integer"):
            build()

    def test_refuses_repeated_and_unknown_names(self):
        with pytest.raises(ValidationError, match="named twice"):
            IntPoly.of(("x", "x"), {(1, 0): 1})
        with pytest.raises(ValidationError, match="named twice"):
            IntPoly.var(("x", "x"), "x")
        for build in (
            lambda: IntPoly.var(VS, "w"),
            lambda: IntPoly.monomial(VS, {"w": 1}),
            lambda: xvar("x").exact_div_term({"w": 1}),
        ):
            with pytest.raises(ValidationError, match="^'w' is not one of the variables"):
                build()
        with pytest.raises(ValidationError, match="negative exponent"):
            xvar("x").exact_div_term({"x": -1})

    def test_refuses_division_by_zero(self):
        with pytest.raises(ValidationError, match="^division by zero$"):
            xvar("x").exact_div_int(0)
        with pytest.raises(ValidationError, match="^division by the zero term$"):
            xvar("x").exact_div_term({"x": 1}, coeff=0)

    def test_wide_and_empty_keys(self):
        big = IntPoly.of(("x", "y"), {(2**40, 1): -3, (0, 2): 1})
        assert psi(13, big) == IntPoly.of(("x", "y"), {(13 * 2**40, 13): -3, (0, 26): 1})
        assert big**2 == IntPoly.of(("x", "y"), {(2**41, 2): 9, (2**40, 3): -6, (0, 4): 1})
        assert repr(big**0) == "1"
        two = IntPoly.constant((), 2)
        assert (two**3, delta(3, two), IntPoly.zero(()) ** 0) == (
            IntPoly.constant((), 8),
            IntPoly.constant((), -2),
            IntPoly.constant((), 1),
        )
        assert ideal_power_contains([two], 3, IntPoly.constant((), 8))
        assert not ideal_power_contains([two], 3, IntPoly.constant((), 4))


class TestPsi:
    def test_sum_of_squares(self):
        x, y = xvar("x"), xvar("y")
        assert psi(2, x + y) == x**2 + y**2

    def test_commuting_family(self):
        x = xvar("x")
        assert psi(2, psi(3, x)) == psi(3, psi(2, x)) == x**6
        rng = random.Random(2)
        for _ in range(20):
            f = random_poly(rng, VS)
            assert psi(2, psi(5, f)) == psi(5, psi(2, f))

    def test_coefficients_fixed(self):
        f = IntPoly.of(VS, {(2, 1, 0): 3})
        assert psi(2, f) == IntPoly.of(VS, {(4, 2, 0): 3})

    def test_non_prime_rejected(self):
        with pytest.raises(ValidationError):
            psi(4, xvar("x"))
        assert is_prime(2) and is_prime(13) and not is_prime(1)


class TestFrobeniusLift:
    def test_binomial_two(self):
        x, y = xvar("x"), xvar("y")
        f = x + y
        diff = psi(2, f) - f**2
        assert diff == IntPoly.of(VS, {(1, 1, 0): -2})
        assert frobenius_lift_check(2, f)

    def test_binomial_three(self):
        x, y = xvar("x"), xvar("y")
        assert frobenius_lift_check(3, x + y)

    def test_delta_values(self):
        x, y = xvar("x"), xvar("y")
        # (x^2 + y^2 - (x + y)^2)/2 and (2 - 2^3)/3
        assert delta(2, x + y) == (x * y).scale(-1)
        assert delta(3, IntPoly.constant(VS, 2)) == IntPoly.constant(VS, -2)

    def test_random_polynomials(self):
        rng = random.Random(3)
        for _ in range(60):
            f = random_poly(rng, VS)
            for p in (2, 3, 5):
                assert frobenius_lift_check(p, f)


class TestReesLift:
    def test_principal_toric(self):
        gens = [xvar("x")]
        e = ReesElement.of({1: xvar("x")})
        assert rees_lift_check(2, gens, e)

    def test_degree_zero_reduces_to_frobenius(self):
        gens = [xvar("x")]
        f = xvar("x") + xvar("y") + IntPoly.constant(VS, 3)
        assert rees_lift_check(2, gens, ReesElement.of({0: f})) == frobenius_lift_check(2, f)

    def test_two_generator_element(self):
        gens = [xvar("x"), xvar("y")]
        e = ReesElement.of({1: xvar("x") + xvar("y")})
        assert rees_lift_check(2, gens, e)

    def test_invalid_element(self):
        gens = [xvar("x")]
        with pytest.raises(InvalidElementError):
            rees_lift_check(2, gens, ReesElement.of({2: xvar("y")}))

    def test_parts_over_different_variable_lists(self):
        for other in (("x", "y", "w"), ("x", "y")):
            with pytest.raises(ValidationError, match="^polynomials live over different variable lists$"):
                ReesElement.of({0: xvar("x"), 1: IntPoly.var(other, "x")})

    def test_empty_element_lifts(self):
        assert rees_lift_check(2, [xvar("x")], ReesElement.of({1: IntPoly.zero(VS)}))

    def test_random_elements(self):
        rng = random.Random(5)
        gens = [xvar("x"), xvar("y")]
        for _ in range(20):
            parts = {}
            for d in range(3):
                acc = IntPoly.zero(VS)
                for _ in range(rng.randint(1, 2)):
                    prod = IntPoly.constant(VS, rng.randint(-4, 4))
                    for g in rng.choices(gens, k=d):
                        prod = prod * g
                    acc = acc + prod * random_monomial(rng, VS, 2)
                if not acc.is_zero():
                    parts[d] = acc
            if not parts:
                continue
            for p in (2, 3):
                assert rees_lift_check(p, gens, ReesElement.of(parts))


class TestNormalCone:
    def test_variable_generated_passes(self):
        gens = [xvar("x"), xvar("y")]
        rng = random.Random(7)
        samples = [random_monomial(rng, VS, 4) for _ in range(15)]
        assert normal_cone_flat_check(gens, 4, (2, 3, 5), samples)

    def test_torsion_family_fails(self):
        # 2x lies in (4, 2x, x^2) but x does not
        vs = ("x",)
        gens = [IntPoly.constant(vs, 2), IntPoly.var(vs, "x")]
        assert not normal_cone_flat_check(gens, 2, (2,), [IntPoly.var(vs, "x")])
        assert ideal_power_contains(gens, 2, IntPoly.var(vs, "x").scale(2))
        assert not ideal_power_contains(gens, 2, IntPoly.var(vs, "x"))

    def test_rees_style_cancellation(self):
        # for I = (x, y): if z*f lies in I^n with z not in I then f does
        gens = [xvar("x"), xvar("y")]
        z = xvar("z")
        rng = random.Random(9)
        for _ in range(40):
            f = random_monomial(rng, VS, 5)
            for n in (1, 2, 3):
                if ideal_power_contains(gens, n, z * f):
                    assert ideal_power_contains(gens, n, f)


class TestProjChart:
    def test_pure_variable(self):
        gens = [xvar("x"), xvar("y")]
        assert proj_chart_frobenius_check(2, gens, gens[0], xvar("y"), 1)

    def test_binomial_numerator(self):
        gens = [xvar("x"), xvar("y")]
        assert proj_chart_frobenius_check(2, gens, gens[0], xvar("x") + xvar("y"), 1)

    def test_invalid_sample(self):
        gens = [xvar("x"), xvar("y")]
        with pytest.raises(InvalidSampleError):
            proj_chart_frobenius_check(2, gens, gens[0], xvar("z"), 1)

    def test_random_samples(self):
        rng = random.Random(11)
        gens = [xvar("x"), xvar("y"), xvar("z")]
        for _ in range(40):
            n = rng.randint(1, 2)
            x = IntPoly.zero(VS)
            for _ in range(rng.randint(1, 3)):
                prod = IntPoly.constant(VS, rng.randint(-5, 5))
                for g in rng.choices(gens, k=n):
                    prod = prod * g
                x = x + prod * random_monomial(rng, VS, 2)
            if x.is_zero():
                x = gens[0] ** n
            for p in (2, 3):
                assert proj_chart_frobenius_check(p, gens, gens[1], x, n)


class TestOracleTransform:
    def test_worked_generator(self):
        vs = ("x", "y", "u", "v")
        g = IntPoly.monomial(vs, {"x": 2, "v": 6})
        (out,) = oracle_transform([g], ("x", "y", "u", "v"), "v", 5)
        assert out == IntPoly.monomial(vs, {"x": 2, "v": 3})

    def test_unit(self):
        vs = ("x",)
        g = IntPoly.var(vs, "x")
        (out,) = oracle_transform([g], ("x",), "x", 1)
        assert out == IntPoly.constant(vs, 1)

    def test_division_guard(self):
        vs = ("x", "y")
        g = IntPoly.var(vs, "x")
        with pytest.raises(NonPermissibleError):
            oracle_transform([g], ("x", "y"), "x", 2)


class TestFiberOrder:
    def test_worked_example(self):
        vs = ("x", "y", "u", "v")
        gens = [
            IntPoly.monomial(vs, {"x": 2, "y": 3}),
            IntPoly.monomial(vs, {"x": 2, "v": 6}),
            IntPoly.monomial(vs, {"y": 4, "u": 5}),
        ]
        for p in (0, 2, 3, 5):
            assert fiber_order_check(gens, {"x", "y", "u", "v"}, p)

    def test_blowup_replay(self):
        vs = ("x", "y", "u", "v")
        gens = [
            IntPoly.monomial(vs, {"x": 2, "y": 3}),
            IntPoly.monomial(vs, {"x": 2, "v": 6}),
            IntPoly.monomial(vs, {"y": 4, "u": 5}),
        ]
        assert fiber_order_check(
            gens, {"x", "y", "u", "v"}, 3, center=("x", "y", "u", "v"), chart_var="v", mark=5
        )

    def test_zero_characteristic_trivial(self):
        vs = ("x",)
        gens = [IntPoly.monomial(vs, {"x": 4}, coeff=7)]
        assert fiber_order_check(gens, {"x"}, 0)


class TestKernelBoundary:
    """Every entry that takes a prime refuses a non-prime through `_prime`,
    every one that takes a count or a modulus refuses a non-integer or a
    negative one through `_natural`, and every one that takes a divisor or
    tests primality refuses a non-integer through `_integer`, each with
    `ValidationError`."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda x: ideal_power_contains([x], -1, x),
            lambda x: ideal_power_contains([x], 1.0, x),
            lambda x: normal_cone_flat_check([x], 2, [4], [x]),
            lambda x: normal_cone_flat_check([x], -1, [2], [x]),
            lambda x: x**2.0,
            lambda x: x**True,
            lambda x: psi(2.0, x),
            lambda x: fiber_order_check([x], {"x"}, 2.0),
            lambda x: proj_chart_frobenius_check(2, [x], x, x, -1),
            lambda x: x.divisible_by_int(0),
            lambda x: x.divisible_by_int(2.0),
            lambda x: is_prime(2.0),
            lambda x: is_prime("7"),
            lambda x: x.mod_int(-3),
        ],
        ids=[
            "negative ideal power",
            "fractional ideal power",
            "non-prime flatness prime",
            "negative flatness bound",
            "fractional polynomial power",
            "bool polynomial power",
            "fractional Adams prime",
            "fractional characteristic",
            "negative chart power",
            "zero divisor",
            "fractional divisor",
            "fractional primality",
            "string primality",
            "negative modulus",
        ],
    )
    def test_refuses_bad_primes_and_counts(self, call):
        with pytest.raises(ValidationError):
            call(xvar("x", ("x",)))


X, Y, Z = (xvar(name) for name in VS)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: IntPoly.of(("x",), {(1, 2): 1}), ValidationError, "^exponent vector length mismatch$"),
        (lambda: ideal_power_contains([X + Y], 1, X), ValidationError, "^ideal generators must be single terms$"),
        (
            lambda: ideal_power_contains([xvar("x", ("x",))], 1, X),
            ValidationError,
            "^polynomials live over different variable lists$",
        ),
        (lambda: X + xvar("x", ("x",)), ValidationError, "^polynomials live over different variable lists$"),
        (
            lambda: proj_chart_frobenius_check(2, [X, Y], Z, X, 1),
            ValidationError,
            "^the chart generator must be one of the ideal generators$",
        ),
        (
            lambda: oracle_transform([X], {"x", "y"}, "z", 1),
            ValidationError,
            "^the chart variable must belong to the centre$",
        ),
        (
            lambda: oracle_transform([X + Y], {"x", "y"}, "x", 1),
            ValidationError,
            "^the oracle transforms monomial generators only$",
        ),
        (lambda: fiber_order_check([X], {"x"}, 4), ValidationError, "^4 is neither 0 nor prime$"),
        (lambda: X.scale(3).exact_div_int(2), ContractError, "^coefficients are not all divisible by 2$"),
    ],
    ids=[
        "short exponent vector",
        "non-term generator",
        "generators over other variables",
        "sum over other variables",
        "chart generator outside the ideal",
        "chart variable outside the centre",
        "non-monomial oracle input",
        "composite characteristic",
        "inexact integer division",
    ],
)
def test_kernel_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()
