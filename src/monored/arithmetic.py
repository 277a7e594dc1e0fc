"""Exact multivariate integer polynomials and the verification oracle.

Everything here is independent of the exponent bookkeeping in `core` and
`transform`: substitution is honest polynomial composition, division is
exact term division, ideal membership is decided on terms.  The module also
verifies the Frobenius-lift arithmetic on polynomial rings, Rees algebras
and Proj charts, each through the p-derivation `delta`, and the
torsion-freeness of normal cones.

Membership convention: for ideals generated by terms (coefficient times
monomial), a term c*x^b belongs iff the gcd of the coefficients of the
generating terms whose monomial divides x^b divides c; a polynomial belongs
iff every term does.  Powers are generated by the k-fold products of the
generators.

Packed keys: sums, products, powers, Adams operations and membership work
on one int per term, not on exponent tuples (Monagan and Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007).  At field width w the key of x^e over n variables is

    deg(e) << n*w | e_0 << (n-1)*w | ... | e_{n-1} << 0

the total degree in the top field, then each exponent in a w-bit field,
variable 0 the most significant.  As the degree leads, int order is
graded-lex order, the key of a product is the sum of the keys and psi_p
multiplies the key by p, as long as no field overflows.  No exponent exceeds
the total degree, so a width taken from a bound on the result's degree
keeps every field in range; large exponents only widen w.  Membership packs
one bit wider, so the top bit of each field is a guard that a subtraction
borrows exactly when an exponent of the divisor is the larger.  `_pack` and
`_unpack` are the one place the layout is written.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass

from .errors import (
    ContractError,
    InvalidElementError,
    InvalidSampleError,
    NonPermissibleError,
    ValidationError,
    is_int,
)

DEFAULT_SAMPLES = 100


def _integer(value, what: str) -> int:
    """`value` if it passes `is_int`."""
    if not is_int(value):
        raise ValidationError(f"{what} must be an integer, not {value!r}")
    return value


def _natural(value, what: str, negative: str) -> int:
    """`value` if it is a count: an integer, refused with `negative` below 0."""
    if _integer(value, what) < 0:
        raise ValidationError(negative)
    return value


def _prime(p) -> int:
    """`p` if it is a prime integer."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    return p


def _exponent_vector(variables: tuple[str, ...], exps: dict) -> tuple[int, ...]:
    """The exponent vector of a name -> exponent map over `variables`."""
    vec = [0] * len(variables)
    for name, e in exps.items():
        if name not in variables:
            raise ValidationError(f"{name!r} is not one of the variables {variables}")
        vec[variables.index(name)] = _natural(e, "an exponent", "negative exponent in polynomial term")
    return tuple(vec)


def _pack(terms, w: int) -> list[tuple[int, int]]:
    """(key, coefficient) of each (exponents, coefficient) term, packed at
    field width w: every exponent must be below 2**w."""
    out = []
    for exps, c in terms:
        key = sum(exps)
        for e in exps:
            key = key << w | e
        out.append((key, c))
    return out


def _unpack(variables: tuple[str, ...], packed: dict[int, int], w: int) -> "IntPoly":
    """The polynomial of a key -> coefficient map packed at width w: terms in
    descending key order, which is graded-lex, and zero ones dropped."""
    mask = (1 << w) - 1
    shifts = [w * i for i in reversed(range(len(variables)))]
    return IntPoly(
        variables,
        tuple(
            (tuple([(key >> s) & mask for s in shifts]), packed[key])
            for key in sorted(packed, reverse=True)
            if packed[key]
        ),
    )


def _times(a, b) -> dict[int, int]:
    """key -> coefficient of the product of two (key, coefficient) lists
    packed at one width."""
    out: dict[int, int] = {}
    get = out.get
    for k1, c1 in a:
        for k2, c2 in b:
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return out


def _degree(f: "IntPoly") -> int:
    """The total degree of f, 0 for the zero polynomial: the leading term's."""
    return sum(f.terms[0][0]) if f.terms else 0


@dataclass(frozen=True)
class IntPoly:
    """Polynomial with arbitrary-precision integer coefficients.

    Terms are stored in descending graded-lex order with no zero
    coefficients, so equality of values is equality of representations.
    """

    variables: tuple[str, ...]
    terms: tuple[tuple[tuple[int, ...], int], ...]

    @staticmethod
    def of(variables, coeffs: dict) -> "IntPoly":
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValidationError(f"a variable is named twice in {variables}")
        norm: dict[tuple[int, ...], int] = {}
        for exps, c in coeffs.items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValidationError("exponent vector length mismatch")
            for e in exps:
                _natural(e, "an exponent", "negative exponent in polynomial term")
            if _integer(c, "a coefficient"):
                norm[exps] = norm.get(exps, 0) + c
        return IntPoly._normalized(variables, norm)

    @staticmethod
    def _normalized(variables: tuple[str, ...], coeffs: dict) -> "IntPoly":
        """From exponent tuples already of the right length and non-negative:
        terms sorted, zero ones dropped.  `of` checks outside input."""
        w = max(map(sum, coeffs), default=0).bit_length()
        return _unpack(variables, dict(_pack(coeffs.items(), w)), w)

    @staticmethod
    def zero(variables) -> "IntPoly":
        return IntPoly.of(variables, {})

    @staticmethod
    def constant(variables, c: int) -> "IntPoly":
        variables = tuple(variables)
        return IntPoly.of(variables, {(0,) * len(variables): c})

    @staticmethod
    def var(variables, name: str) -> "IntPoly":
        return IntPoly.monomial(variables, {name: 1})

    @staticmethod
    def monomial(variables, exps: dict, coeff: int = 1) -> "IntPoly":
        variables = tuple(variables)
        return IntPoly.of(variables, {_exponent_vector(variables, exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def _check_same(self, other: "IntPoly") -> None:
        if self.variables != other.variables:
            raise ValidationError("polynomials live over different variable lists")

    def _map_coeffs(self, fn) -> "IntPoly":
        """The terms with each coefficient c replaced by fn(c), zero ones
        dropped: the exponents stay, so their order does too."""
        return IntPoly(self.variables, tuple((e, d) for e, c in self.terms if (d := fn(c))))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        self._check_same(other)
        w = max(_degree(self), _degree(other)).bit_length()
        out = dict(_pack(self.terms, w))
        for key, c in _pack(other.terms, w):
            out[key] = out.get(key, 0) + c
        return _unpack(self.variables, out, w)

    def __neg__(self) -> "IntPoly":
        return self._map_coeffs(lambda c: -c)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        self._check_same(other)
        w = (_degree(self) + _degree(other)).bit_length()
        return _unpack(self.variables, _times(_pack(self.terms, w), _pack(other.terms, w)), w)

    def __pow__(self, k: int) -> "IntPoly":
        _natural(k, "a power", "negative polynomial power")
        w = (_degree(self) * k).bit_length()
        base = _pack(self.terms, w)
        # key 0 is the constant 1
        acc = {0: 1}
        for _ in range(k):
            acc = _times(acc.items(), base)
        return _unpack(self.variables, acc, w)

    def scale(self, c: int) -> "IntPoly":
        _integer(c, "a scalar")
        return self._map_coeffs(lambda co: co * c)

    def compose(self, mapping: dict[str, "IntPoly"]) -> "IntPoly":
        """Substitute polynomials for variables (missing names map to themselves)."""
        out = IntPoly.zero(self.variables)
        for exps, c in self.terms:
            term = IntPoly.constant(self.variables, c)
            for name, e in zip(self.variables, exps):
                if not e:
                    continue
                sub = mapping.get(name, IntPoly.var(self.variables, name))
                term = term * sub**e
            out = out + term
        return out

    def exact_div_term(self, exps: dict, coeff: int = 1) -> "IntPoly":
        vec = _exponent_vector(self.variables, exps)
        if not _integer(coeff, "a divisor"):
            raise ValidationError("division by the zero term")
        out = {}
        for e, c in self.terms:
            if any(a < b for a, b in zip(e, vec)) or c % coeff:
                raise NonPermissibleError("division by the term is not exact")
            out[tuple(a - b for a, b in zip(e, vec))] = c // coeff
        return IntPoly._normalized(self.variables, out)

    def exact_div_int(self, n: int) -> "IntPoly":
        if not _integer(n, "a divisor"):
            raise ValidationError("division by zero")
        if any(c % n for _, c in self.terms):
            raise ContractError(f"coefficients are not all divisible by {n}")
        return self._map_coeffs(lambda c: c // n)

    def mod_int(self, p: int) -> "IntPoly":
        if _natural(p, "a modulus", "negative modulus") == 0:
            return self
        return self._map_coeffs(lambda c: c % p)

    def divisible_by_int(self, n: int) -> bool:
        if not _integer(n, "a divisor"):
            raise ValidationError("division by zero")
        return all(c % n == 0 for _, c in self.terms)

    def degree_over(self, names) -> int:
        idx = [i for i, v in enumerate(self.variables) if v in names]
        return min((sum(e[i] for i in idx) for e, _ in self.terms), default=0)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v for v, k in zip(self.variables, e) if k
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(parts)


def is_prime(p: int) -> bool:
    if _integer(p, "a prime") < 2:
        return False
    for d in range(2, math.isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


def psi(p: int, f: IntPoly) -> IntPoly:
    """The p-th Adams operation: substitute x -> x^p in every variable."""
    _prime(p)
    # p * key is the key of p * exps, at a width that fits degree p * deg(f)
    w = (p * _degree(f)).bit_length()
    return _unpack(f.variables, {key * p: c for key, c in _pack(f.terms, w)}, w)


def delta(p: int, f: IntPoly) -> IntPoly | None:
    """The p-derivation (psi_p(f) - f^p)/p, or None where that is not an
    integer polynomial.  On a torsion-free ring psi_p lifts Frobenius
    exactly when delta_p is integral, so every lift check goes through it."""
    diff = psi(p, f) - f**p
    return diff.exact_div_int(p) if diff.divisible_by_int(p) else None


def frobenius_lift_check(p: int, f: IntPoly) -> bool:
    """psi_p(f) - f^p must be divisible by p for every integer polynomial."""
    return delta(p, f) is not None


# --- term-ideal membership ------------------------------------------------

@functools.lru_cache(maxsize=1024)
def _power_gens(gens: tuple["IntPoly", ...], k: int, w: int) -> tuple[tuple[int, int], ...]:
    """(key, coefficient) of each k-fold product of the generator terms,
    keys packed at width w: the generators of the k-th ideal power."""
    packed = [_pack(g.terms, w)[0] for g in gens]
    return tuple(
        (sum(key for key, _ in combo), math.prod(c for _, c in combo))
        for combo in itertools.combinations_with_replacement(packed, k)
    )


def ideal_power_contains(gens, k: int, f: IntPoly) -> bool:
    """Whether f lies in the k-th power of the ideal generated by terms."""
    _natural(k, "an ideal power", "negative ideal power")
    if f.is_zero():
        return True
    gens = tuple(gens)
    for g in gens:
        if not g.is_term():
            raise ValidationError("ideal generators must be single terms")
        if g.variables != f.variables:
            raise ValidationError("polynomials live over different variable lists")
    # a spare top bit per field: no exponent reaches it
    w = max([_degree(f)] + [k * _degree(g) for g in gens]).bit_length() + 1
    guard = sum(1 << (w * i + w - 1) for i in range(len(f.variables)))
    power = _power_gens(gens, k, w)
    for key, c in _pack(f.terms, w):
        # a generator divides the term iff no field of key - gk borrows its guard
        key |= guard
        eligible = [gc for gk, gc in power if (key - gk) & guard == guard]
        if not eligible or c % math.gcd(*eligible):
            return False
    return True


# --- Rees algebra lifts ---------------------------------------------------

@dataclass(frozen=True)
class ReesElement:
    """A finite sum of graded parts a_i t^i, each claimed to lie in I^i."""

    parts: tuple[tuple[int, IntPoly], ...]

    @staticmethod
    def of(parts: dict[int, IntPoly]) -> "ReesElement":
        negative = "Rees elements have non-negative degrees"
        items = tuple(sorted((_natural(d, "a Rees degree", negative), f) for d, f in parts.items() if not f.is_zero()))
        if len({f.variables for _, f in items}) > 1:
            raise ValidationError("polynomials live over different variable lists")
        return ReesElement(items)


def rees_lift_check(p: int, gens, element: ReesElement) -> bool:
    """Frobenius lift on the Rees algebra: part d goes to psi_p(part) t^{pd}.

    The element sum a_d t^d is read as one polynomial with the grading
    variable t appended, so psi_p and the p-th power of that polynomial are
    those of the Rees algebra.  The lift holds when the degree-d part of
    delta_p lies in I^d.  The image then lies in the Rees algebra as well,
    since psi_p(F) = F^p + p * delta_p(F), so it is not checked apart.
    """
    _prime(p)
    for d, f in element.parts:
        if not ideal_power_contains(gens, d, f):
            raise InvalidElementError(f"degree-{d} part is not in the {d}-th ideal power")
    variables = element.parts[0][1].variables if element.parts else ()
    graded = IntPoly._normalized(variables + ("t",), {e + (d,): c for d, f in element.parts for e, c in f.terms})
    lifted = delta(p, graded)
    if lifted is None:
        return False
    parts: dict[int, dict] = {}
    for e, c in lifted.terms:
        parts.setdefault(e[-1], {})[e[:-1]] = c
    return all(ideal_power_contains(gens, d, IntPoly._normalized(variables, coeffs)) for d, coeffs in parts.items())


def normal_cone_flat_check(gens, k_max: int, primes, samples) -> bool:
    """Torsion-freeness of the normal cone: p*f in I^k must force f in I^k.

    Holds for ideals generated by monic monomials in distinct variables;
    generator lists carrying integer constants (such as (2, x)) exhibit
    failures.
    """
    _natural(k_max, "an ideal power", "negative ideal power")
    primes = [_prime(p) for p in primes]
    for k in range(1, k_max + 1):
        for p in primes:
            for f in samples:
                if ideal_power_contains(gens, k, f.scale(p)) and not ideal_power_contains(
                    gens, k, f
                ):
                    return False
    return True


def proj_chart_frobenius_check(p: int, gens, a_i: IntPoly, x: IntPoly, n: int) -> bool:
    """Frobenius lift on the degree-0 part of the localization at a generator.

    For x in I^n the element x/a_i^n maps to psi_p(x)/a_i^{pn}; after
    clearing denominators the lift property reduces to
    (psi_p(x) - x^p)/p lying in I^{pn}.
    """
    _prime(p)
    _natural(n, "an ideal power", "negative ideal power")
    if a_i not in list(gens):
        raise ValidationError("the chart generator must be one of the ideal generators")
    if not ideal_power_contains(gens, n, x):
        raise InvalidSampleError(f"sample is not in the {n}-th ideal power")
    lifted = delta(p, x)
    return lifted is not None and ideal_power_contains(gens, p * n, lifted)


# --- blow-up oracle -------------------------------------------------------

def oracle_transform(gens, center, chart_var: str, mark: int) -> list[IntPoly]:
    """Literal substitution rule followed by exact division.

    Substitutes x_t -> x_k * x_t for the non-chart centre variables, leaves
    everything else alone, then divides by x_k^mark.  Independent of the
    exponent arithmetic in `transform`.
    """
    center = set(center)
    if chart_var not in center:
        raise ValidationError("the chart variable must belong to the centre")
    out = []
    for g in gens:
        if not g.is_term():
            raise ValidationError("the oracle transforms monomial generators only")
        variables = g.variables
        mapping = {
            t: IntPoly.var(variables, chart_var) * IntPoly.var(variables, t)
            for t in center
            if t != chart_var
        }
        pulled = g.compose(mapping)
        out.append(pulled.exact_div_term({chart_var: mark}))
    return out


def fiber_order_check(gens, stratum, p: int, center=None, chart_var=None, mark=None) -> bool:
    """Orders and transforms are unchanged by reduction mod p.

    Reduces the generators mod p and compares the minimum stratum degree
    with the integral one; optionally replays one blow-up both before and
    after reduction and compares the results.
    """
    if _integer(p, "a characteristic") and not is_prime(p):
        raise ValidationError(f"{p} is neither 0 nor prime")
    reduced = [g.mod_int(p) for g in gens]
    reduced = [g for g in reduced if not g.is_zero()]
    if len(reduced) != len(gens):
        return False
    if min(g.degree_over(stratum) for g in reduced) != min(
        g.degree_over(stratum) for g in gens
    ):
        return False
    if center is not None:
        before = [t.mod_int(p) for t in oracle_transform(gens, center, chart_var, mark)]
        after = oracle_transform(reduced, center, chart_var, mark)
        if before != after:
            return False
    return True


# --- deterministic sampling ----------------------------------------------

def random_poly(rng: random.Random, variables) -> IntPoly:
    """One to four terms of degree at most 5, coefficients in [-9, 9]."""
    variables = tuple(variables)
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * len(variables)
        for _ in range(rng.randint(0, 5)):
            exps[rng.randrange(len(variables))] += 1
        coeffs[tuple(exps)] = rng.randint(-9, 9)
    return IntPoly.of(variables, coeffs)


def random_monomial(rng: random.Random, variables, max_exponent: int) -> IntPoly:
    variables = tuple(variables)
    exps = tuple(rng.randint(0, max_exponent) for _ in variables)
    return IntPoly.of(variables, {exps: 1})


def random_power_element(rng: random.Random, gens, d: int) -> IntPoly:
    """An element of I^d, possibly 0: one or two terms, each an integer in
    [-3, 3] times d generators times a monomial with exponents at most 2."""
    variables = gens[0].variables
    acc = IntPoly.zero(variables)
    for _ in range(rng.randint(1, 2)):
        prod = IntPoly.constant(variables, rng.randint(-3, 3))
        for g in rng.choices(gens, k=d):
            prod = prod * g
        acc = acc + prod * random_monomial(rng, variables, 2)
    return acc


def random_rees_element(rng: random.Random, gens) -> ReesElement:
    """Parts of degrees 0 to 3, each drawn with probability 1/2."""
    parts: dict[int, IntPoly] = {}
    for d in range(4):
        if rng.random() < 0.5:
            continue
        acc = random_power_element(rng, gens, d)
        if not acc.is_zero():
            parts[d] = acc
    if not parts:
        parts[1] = gens[0]
    return ReesElement.of(parts)


# --- the battery of `monored check-lambda` ---------------------------------

def lambda_checks(primes, seed: int) -> list[tuple[str, bool]]:
    """(label, held) for the five Frobenius-lift checks of `monored
    check-lambda`, in order, on samples drawn from `random.Random(seed)`.
    Each runs at every prime in `primes` but the (2, x) torsion witness:
    only 2 witnesses it, so it runs at 2."""
    rng = random.Random(seed)
    variables = ("x", "y", "z")

    polys = [random_poly(rng, variables) for _ in range(DEFAULT_SAMPLES)]
    frob = all(frobenius_lift_check(p, f) for p in primes for f in polys)

    gens = [IntPoly.var(variables, "x"), IntPoly.var(variables, "y")]
    rees = True
    for _ in range(25):
        element = random_rees_element(rng, gens)
        for p in primes:
            rees &= rees_lift_check(p, gens, element)

    samples = [random_monomial(rng, variables, 4) for _ in range(20)]
    flat = normal_cone_flat_check(gens, 3, primes, samples)

    # 2x is in (2, x)^2 and x is not
    t = IntPoly.var(("x",), "x")
    torsion = not normal_cone_flat_check([IntPoly.constant(("x",), 2), t], 2, [2], [t])

    proj = True
    for _ in range(20):
        n = rng.randint(1, 2)
        x = random_power_element(rng, gens, n)
        if x.is_zero():
            x = gens[0] ** n
        for p in primes:
            proj &= proj_chart_frobenius_check(p, gens, gens[0], x, n)
    return [
        (f"frobenius_lift_check on {len(polys)} polynomials", frob),
        ("rees_lift_check on monomial Rees elements", rees),
        ("normal_cone_flat_check on (x, y)", flat),
        ("normal_cone_flat_check rejects (2, x)", torsion),
        ("proj_chart_frobenius_check on localization samples", proj),
    ]
