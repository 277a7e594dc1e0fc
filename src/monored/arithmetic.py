"""Exact multivariate integer polynomials and the verification oracle.

Everything here is independent of the exponent bookkeeping in `core` and
`transform`: substitution is honest polynomial composition, division is
exact term division, ideal membership is decided on terms.  The module also
verifies the Frobenius-lift arithmetic on polynomial rings, Rees algebras
and Proj charts, and the torsion-freeness of normal cones.

Membership convention: for ideals generated by terms (coefficient times
monomial), a term c*x^b belongs iff the gcd of the coefficients of the
generating terms whose monomial divides x^b divides c; a polynomial belongs
iff every term does.  Powers are generated by the k-fold products of the
generators.
"""

from __future__ import annotations

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
)

DEFAULT_SAMPLES = 100
DEFAULT_MAX_DEGREE = 5
DEFAULT_MAX_EXPONENT = 8
DEFAULT_MAX_COEFF = 9


def _grlex_key(term):
    exps = term[0]
    return (sum(exps), exps)


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
        norm: dict[tuple[int, ...], int] = {}
        for exps, c in coeffs.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != len(variables):
                raise ValidationError("exponent vector length mismatch")
            if any(e < 0 for e in exps):
                raise ValidationError("negative exponent in polynomial term")
            if c:
                norm[exps] = norm.get(exps, 0) + int(c)
        return IntPoly._normalized(variables, norm)

    @staticmethod
    def _normalized(variables: tuple[str, ...], coeffs: dict) -> "IntPoly":
        """From exponent tuples already of the right length and non-negative:
        terms sorted, zero ones dropped.  `of` checks outside input."""
        terms = sorted(((e, c) for e, c in coeffs.items() if c), key=_grlex_key, reverse=True)
        return IntPoly(variables, tuple(terms))

    @staticmethod
    def zero(variables) -> "IntPoly":
        return IntPoly.of(variables, {})

    @staticmethod
    def constant(variables, c: int) -> "IntPoly":
        variables = tuple(variables)
        return IntPoly.of(variables, {(0,) * len(variables): c})

    @staticmethod
    def var(variables, name: str) -> "IntPoly":
        variables = tuple(variables)
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return IntPoly.of(variables, {tuple(exps): 1})

    @staticmethod
    def monomial(variables, exps: dict, coeff: int = 1) -> "IntPoly":
        variables = tuple(variables)
        vec = [0] * len(variables)
        for name, e in exps.items():
            vec[variables.index(name)] = int(e)
        return IntPoly.of(variables, {tuple(vec): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_term(self) -> bool:
        return len(self.terms) == 1

    def _check_same(self, other: "IntPoly") -> None:
        if self.variables != other.variables:
            raise ValidationError("polynomials live over different variable lists")

    def __add__(self, other: "IntPoly") -> "IntPoly":
        self._check_same(other)
        out = {e: c for e, c in self.terms}
        for e, c in other.terms:
            out[e] = out.get(e, 0) + c
        return IntPoly._normalized(self.variables, out)

    def __neg__(self) -> "IntPoly":
        return IntPoly(self.variables, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        self._check_same(other)
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return IntPoly._normalized(self.variables, out)

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValidationError("negative polynomial power")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:  # the last bit needs no further square
                base = base * base
        return IntPoly.constant(self.variables, 1) if result is None else result

    def scale(self, c: int) -> "IntPoly":
        return IntPoly.of(self.variables, {e: co * c for e, co in self.terms})

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
        vec = [0] * len(self.variables)
        for name, e in exps.items():
            vec[self.variables.index(name)] = int(e)
        out = {}
        for e, c in self.terms:
            if any(a < b for a, b in zip(e, vec)) or c % coeff:
                raise NonPermissibleError("division by the term is not exact")
            out[tuple(a - b for a, b in zip(e, vec))] = c // coeff
        return IntPoly.of(self.variables, out)

    def exact_div_int(self, n: int) -> "IntPoly":
        if any(c % n for _, c in self.terms):
            raise ContractError(f"coefficients are not all divisible by {n}")
        return IntPoly.of(self.variables, {e: c // n for e, c in self.terms})

    def mod_int(self, p: int) -> "IntPoly":
        if p == 0:
            return self
        return IntPoly.of(self.variables, {e: c % p for e, c in self.terms})

    def divisible_by_int(self, n: int) -> bool:
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
    if p < 2:
        return False
    for d in range(2, math.isqrt(p) + 1):
        if p % d == 0:
            return False
    return True


def psi(p: int, f: IntPoly) -> IntPoly:
    """The p-th Adams operation: substitute x -> x^p in every variable."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    # exps -> p * exps is injective, so the terms stay distinct
    return IntPoly._normalized(f.variables, {tuple(e * p for e in exps): c for exps, c in f.terms})


def frobenius_lift_check(p: int, f: IntPoly) -> bool:
    """psi_p(f) - f^p must be divisible by p for every integer polynomial."""
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    return (psi(p, f) - f**p).divisible_by_int(p)


# --- term-ideal membership ------------------------------------------------

def _as_terms(gens) -> list[tuple[tuple[int, ...], int]]:
    out = []
    for g in gens:
        if not g.is_term():
            raise ValidationError("ideal generators must be single terms")
        out.append(g.terms[0])
    return out


def _power_term_gens(term_gens, k: int):
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


def _term_ideal_contains(term_gens, f: IntPoly) -> bool:
    for exps, c in f.terms:
        eligible = [
            gc for ge, gc in term_gens if all(a >= b for a, b in zip(exps, ge))
        ]
        if not eligible:
            return False
        if c % math.gcd(*eligible, 0):
            return False
    return True


def ideal_power_contains(gens, k: int, f: IntPoly) -> bool:
    """Whether f lies in the k-th power of the ideal generated by terms."""
    if f.is_zero():
        return True
    return _term_ideal_contains(_power_term_gens(_as_terms(gens), k), f)


# --- Rees algebra lifts ---------------------------------------------------

@dataclass(frozen=True)
class ReesElement:
    """A finite sum of graded parts a_i t^i, each claimed to lie in I^i."""

    parts: tuple[tuple[int, IntPoly], ...]

    @staticmethod
    def of(parts: dict[int, IntPoly]) -> "ReesElement":
        items = tuple(sorted((int(d), f) for d, f in parts.items() if not f.is_zero()))
        for d, _ in items:
            if d < 0:
                raise ValidationError("Rees elements have non-negative degrees")
        return ReesElement(items)


def rees_lift_check(p: int, gens, element: ReesElement) -> bool:
    """Frobenius lift on the Rees algebra: part i goes to psi_p(part) t^{pi}.

    Verifies the image parts land in I^{pi} and that the difference from the
    p-th power is p times an element whose degree-d part lies in I^d.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    for d, f in element.parts:
        if not ideal_power_contains(gens, d, f):
            raise InvalidElementError(f"degree-{d} part is not in the {d}-th ideal power")
    image = {p * d: psi(p, f) for d, f in element.parts}
    for d, f in image.items():
        if not ideal_power_contains(gens, d, f):
            return False
    # p-th power of the element, degree by degree
    power: dict[int, IntPoly] = {}
    base = dict(element.parts)
    if not base:
        return True
    variables = next(iter(base.values())).variables
    power[0] = IntPoly.constant(variables, 1)
    for _ in range(p):
        nxt: dict[int, IntPoly] = {}
        for d1, f1 in power.items():
            for d2, f2 in base.items():
                g = f1 * f2
                nxt[d1 + d2] = nxt.get(d1 + d2, g) if d1 + d2 not in nxt else nxt[d1 + d2] + g
        power = nxt
    degrees = set(power) | set(image)
    for d in degrees:
        diff = image.get(d, IntPoly.zero(variables)) - power.get(d, IntPoly.zero(variables))
        if diff.is_zero():
            continue
        if not diff.divisible_by_int(p):
            return False
        if not ideal_power_contains(gens, d, diff.exact_div_int(p)):
            return False
    return True


def normal_cone_flat_check(gens, k_max: int, primes, samples) -> bool:
    """Torsion-freeness of the normal cone: p*f in I^k must force f in I^k.

    Holds for ideals generated by monic monomials in distinct variables;
    generator lists carrying integer constants (such as (2, x)) exhibit
    failures.
    """
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
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    if a_i not in list(gens):
        raise ValidationError("the chart generator must be one of the ideal generators")
    if not ideal_power_contains(gens, n, x):
        raise InvalidSampleError(f"sample is not in the {n}-th ideal power")
    diff = psi(p, x) - x**p
    if diff.is_zero():
        return True
    if not diff.divisible_by_int(p):
        return False
    return ideal_power_contains(gens, p * n, diff.exact_div_int(p))


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
    if p != 0 and not is_prime(p):
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

def random_poly(
    rng: random.Random,
    variables,
    max_degree: int = DEFAULT_MAX_DEGREE,
    max_terms: int = 4,
    max_coeff: int = DEFAULT_MAX_COEFF,
) -> IntPoly:
    variables = tuple(variables)
    coeffs = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(variables)
        budget = rng.randint(0, max_degree)
        for _ in range(budget):
            exps[rng.randrange(len(variables))] += 1
        coeffs[tuple(exps)] = rng.randint(-max_coeff, max_coeff)
    return IntPoly.of(variables, coeffs)


def random_monomial(
    rng: random.Random, variables, max_exponent: int = DEFAULT_MAX_EXPONENT
) -> IntPoly:
    variables = tuple(variables)
    exps = tuple(rng.randint(0, max_exponent) for _ in variables)
    return IntPoly.of(variables, {exps: 1})


def random_rees_element(rng: random.Random, gens, max_degree_index: int = 3) -> ReesElement:
    variables = gens[0].variables
    parts: dict[int, IntPoly] = {}
    for d in range(0, max_degree_index + 1):
        if rng.random() < 0.5:
            continue
        acc = IntPoly.zero(variables)
        for _ in range(rng.randint(1, 2)):
            prod = IntPoly.constant(variables, rng.randint(-3, 3))
            for g in rng.choices(gens, k=d):
                prod = prod * g
            prod = prod * random_monomial(rng, variables, 2)
            acc = acc + prod
        if not acc.is_zero():
            parts[d] = acc
    if not parts:
        parts[1] = gens[0]
    return ReesElement.of(parts)
