"""Output checks that do not trust the code they check.

Every check works on plain exponent dictionaries, recomputed from scratch in
the way the program's test suite builds its brute-force oracles: orders are
sums of exponents, strata are enumerated, and pullbacks follow the
substitution rule of a blow-up chart by chart.  Results enter through two
adapters, one reading library objects attribute by attribute and one reading
a trace document, so the same checks cover library calls and CLI output.

Each check returns a list of problems; an empty list means the result
passed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from inputs import WORKED_CENTER, WORKED_V_CHART, WORKED_V_RENDERED

Exps = dict[int, int]


@dataclass(frozen=True)
class ChartData:
    label: str
    path: tuple[tuple[int, int], ...]
    e_components: tuple[int, ...]
    p_components: frozenset[int]
    p_empty: bool
    mark: int
    gens: tuple[Exps, ...]
    excess: Exps


@dataclass(frozen=True)
class Result:
    """A final configuration with the input and the centres that made it."""

    registry: tuple[str, ...]
    dim_p: int
    roots: dict[str, tuple[Exps, ...]]
    steps: dict[int, tuple[frozenset[int], int]]
    charts: tuple[ChartData, ...]


# --- adapters -----------------------------------------------------------------

def _exps(monomial) -> Exps:
    return {c: e for c, e in monomial.exps}


def from_library(initial, final, records) -> Result:
    return Result(
        registry=tuple(final.registry),
        dim_p=final.dim_p,
        roots={ch.label: tuple(_exps(g) for g in ch.ideal.generators) for ch in initial.charts},
        steps={rec.stage: (frozenset(rec.center), rec.exceptional) for rec in records},
        charts=tuple(
            ChartData(
                label=ch.label,
                path=tuple(ch.path),
                e_components=tuple(ch.e_components),
                p_components=frozenset(ch.p_components),
                p_empty=ch.p_empty,
                mark=ch.ideal.mark,
                gens=tuple(_exps(g) for g in ch.ideal.generators),
                excess=_exps(ch.pullback_excess),
            )
            for ch in final.charts
        ),
    )


def from_trace(obj: dict) -> Result:
    final = obj["final"]
    registry = tuple(final["components"])
    ids = {name: i for i, name in enumerate(registry)}

    def named(exps: dict) -> Exps:
        return {ids[c]: e for c, e in exps.items()}

    charts = []
    for ch in final["charts"]:
        path = tuple((stage, ids[comp]) for stage, comp in ch["path"])
        suffix = "".join("/" + comp for _, comp in ch["path"])
        charts.append(
            ChartData(
                label=ch["name"][: len(ch["name"]) - len(suffix)],
                path=path,
                e_components=tuple(ids[c] for c in ch["e_components"]),
                p_components=frozenset(ids[c] for c in ch["p_components"]),
                p_empty=ch["p_empty"],
                mark=ch["mark"],
                gens=tuple(named(g) for g in ch["generators"]),
                excess=named(ch["pullback_excess"]),
            )
        )
    return Result(
        registry=registry,
        dim_p=obj["input"]["dim_p"],
        roots={ch["name"]: tuple(named(g) for g in ch["generators"]) for ch in obj["input"]["charts"]},
        steps={
            rec["stage"]: (frozenset(ids[c] for c in rec["center"]), ids[rec["exceptional"]])
            for rec in obj["records"]
        },
        charts=tuple(charts),
    )


# --- brute force ----------------------------------------------------------------

def _key(exps: Exps) -> tuple[tuple[int, int], ...]:
    return tuple(sorted((c, e) for c, e in exps.items() if e))


def _divides(a, b) -> bool:
    bd = dict(b)
    return all(bd.get(c, 0) >= e for c, e in a)


def minimal(gens) -> set[tuple[tuple[int, int], ...]]:
    """Minimal generators of a monomial ideal, as sorted exponent tuples."""
    uniq = sorted({_key(g) for g in gens}, key=lambda t: (sum(e for _, e in t), t))
    kept: list[tuple[tuple[int, int], ...]] = []
    for g in uniq:
        if not any(_divides(h, g) for h in kept):
            kept.append(g)
    return set(kept)


def _order(gens, stratum) -> int:
    return min(sum(e for c, e in g.items() if c in stratum) for g in gens)


def _chart_name(res: Result, ch: ChartData) -> str:
    return "/".join([ch.label] + [res.registry[k] for _, k in ch.path])


def support_left(res: Result) -> list[str]:
    """Strata of P where some chart still has order at least its mark."""
    problems = []
    for ch in res.charts:
        if ch.p_empty:
            continue
        extras = [c for c in ch.e_components if c not in ch.p_components]
        for size in range(min(res.dim_p, len(extras)) + 1):
            for combo in itertools.combinations(extras, size):
                stratum = ch.p_components | frozenset(combo)
                if _order(ch.gens, stratum) >= ch.mark:
                    names = ",".join(res.registry[c] for c in sorted(stratum))
                    problems.append(f"chart {_chart_name(res, ch)}: support left at {{{names}}}")
    return problems


def _pull_back(g: Exps, center: frozenset[int], chart_var: int, exceptional: int) -> Exps:
    """Substitution rule in the chart of `chart_var`: x_k = E, x_c = x_c' E."""
    out = {c: e for c, e in g.items() if c != chart_var}
    degree = sum(g.get(c, 0) for c in center)
    if degree:
        out[exceptional] = degree
    return out


def pullback_problems(res: Result, principal: bool) -> list[str]:
    """Compare each chart's total transform with the recomputed literal pullback.

    The total transform is the chart's generators times its pullback excess;
    the literal pullback takes the input generators along the chart's path.
    With `principal`, each total transform must also be a single monomial.
    """
    problems = []
    pulled: dict[tuple, tuple[Exps, ...]] = {}
    for ch in res.charts:
        name = _chart_name(res, ch)
        if ch.label not in res.roots:
            problems.append(f"chart {name}: no input chart {ch.label!r}")
            continue
        gens = res.roots[ch.label]
        for i, (stage, k) in enumerate(ch.path):
            key = (ch.label, ch.path[: i + 1])
            if key not in pulled:
                center, exceptional = res.steps.get(stage, (frozenset(), -1))
                if k not in center:
                    problems.append(f"chart {name}: stage {stage} has no centre component {k}")
                    break
                pulled[key] = tuple(_pull_back(g, center, k, exceptional) for g in gens)
            gens = pulled[key]
        else:
            literal = minimal(gens)
            total = minimal(
                {c: g.get(c, 0) + ch.excess.get(c, 0) for c in set(g) | set(ch.excess)}
                for g in ch.gens
            )
            if total != literal:
                problems.append(f"chart {name}: total transform differs from the literal pullback")
            if principal and len(total) != 1:
                problems.append(f"chart {name}: total transform has {len(total)} minimal generators")
    return problems


def worked_v_chart_problems(gens: list[dict[str, int]], exceptional: str, rendered: str | None) -> list[str]:
    """The v-chart of the worked example's first blow-up, against the hand derivation."""
    expected = [{(exceptional if c == "E" else c): e for c, e in g.items()} for g in WORKED_V_CHART]
    problems = []
    if sorted(sorted(g.items()) for g in gens) != sorted(sorted(g.items()) for g in expected):
        problems.append(f"worked example v-chart is {gens}, expected {expected}")
    if rendered is not None and rendered != WORKED_V_RENDERED:
        problems.append(f"worked example v-chart renders as {rendered!r}, expected {WORKED_V_RENDERED!r}")
    return problems


def worked_v_chart_of(res: Result) -> list[dict[str, int]] | None:
    """Generators of the v-child of a one-step blow-up of the worked example."""
    v = res.registry.index("v")
    for ch in res.charts:
        if ch.path == ((1, v),):
            return [{res.registry[c]: e for c, e in g.items()} for g in ch.gens]
    return None


def trace_v_chart_problems(obj: dict) -> list[str]:
    """The worked example's first record in a trace, against the hand derivation."""
    rec = obj["records"][0]
    if tuple(rec["center"]) != WORKED_CENTER:
        return [f"first centre is {rec['center']}, expected {list(WORKED_CENTER)}"]
    for outcome in rec["outcomes"]:
        for child in outcome.get("children", ()):
            if child["chart"].endswith("/v"):
                return worked_v_chart_problems(child["generators"], rec["exceptional"], child["rendered"])
    return ["first record has no v-chart"]


# --- CLI output ------------------------------------------------------------------

LAMBDA_CHECKS = (
    "frobenius_lift_check",
    "rees_lift_check",
    "normal_cone_flat_check on (x, y)",
    "normal_cone_flat_check rejects (2, x)",
    "proj_chart_frobenius_check",
)


def check_lambda_problems(stdout: str) -> list[str]:
    """Every identity line of `check-lambda` reads ok; the identities are theorems."""
    lines = [ln for ln in stdout.splitlines() if "_check" in ln]
    problems = [f"check-lambda line not ok: {ln!r}" for ln in lines if not ln.endswith(": ok")]
    for name in LAMBDA_CHECKS:
        if not any(ln.startswith(name) for ln in lines):
            problems.append(f"check-lambda printed no {name!r} line")
    if len(lines) != len(LAMBDA_CHECKS):
        problems.append(f"check-lambda printed {len(lines)} check lines, expected {len(LAMBDA_CHECKS)}")
    return problems
