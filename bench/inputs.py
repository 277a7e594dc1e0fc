"""Workload inputs, as configuration documents in the CLI's JSON schema.

Everything here is plain data built from the standard library; the program
only ever sees the finished documents (through `serialize.load_config` or as
files handed to the CLI).

The `--seed` of a run renames components and shuffles the order of the
operations.  Names are single distinct lowercase letters and component ids
follow file order, so a renamed input does exactly the same work and writes
output of exactly the same size: runs on different seeds stay comparable.
The reduce corpus itself is a fixed seeded draw (`CORPUS_DRAW_SEED`).
"""

from __future__ import annotations

import random
import string

# Principalization of (x^e, y^3) with mark 1.  The ROADMAP series is 50, 100,
# 200; e = 200 takes ~10 s and is kept with the long cases instead, so that a
# run holds enough rounds for a steady median.
TOWER_EXPONENTS = (25, 50, 75, 100)

# The cli workload principalizes the larger member and resolves the smaller.
CLI_PRINCIPALIZE_E = 100
CLI_RESOLVE_E = 50
CLI_PRIMES = "2,3,5,7"

# The reduce corpus: the first CORPUS_SIZE draws of random.Random(seed) for
# seed CORPUS_DRAW_SEED, plus the companion-heavy draws listed below, plus the
# worked example.  Draws that spend most of their time building companion
# ideals (`sum_marked`) are rare: the first 200 draws of seeds 1-89 hold only
# these four that finish within 2 s (seed, index); see README.md.
CORPUS_DRAW_SEED = 1
CORPUS_SIZE = 100
COMPANION_HEAVY = ((11, 100), (66, 133), (68, 155), (72, 167))

WORKED_EXAMPLE = {
    "components": ["x", "y", "u", "v"],
    "dim_p": 4,
    "mark": 5,
    "charts": [
        {
            "name": "U",
            "e_components": ["x", "y", "u", "v"],
            "n_vars": [],
            "p_components": [],
            "generators": [{"x": 2, "y": 3}, {"x": 2, "v": 6}, {"y": 4, "u": 5}],
        }
    ],
}

# Hand derivation (README of the program): blowing the worked example up at
# {x, y, u, v} with mark 5 gives, in the v-chart, x2y3 (degree 5, no
# exceptional factor), x2 E^3 (degree 8) and y4 u5 E^4 (degree 9), where E is
# the exceptional component and v drops out; E displays as v-bar there.
WORKED_CENTER = ("x", "y", "u", "v")
WORKED_V_CHART = ({"x": 2, "y": 3}, {"x": 2, "E": 3}, {"y": 4, "u": 5, "E": 4})
WORKED_V_RENDERED = "x\u0304\u00b2y\u0304\u00b3, x\u0304\u00b2v\u0304\u00b3, y\u0304\u2074u\u0304\u2075v\u0304\u2074"


def tower(e: int) -> dict:
    return {
        "components": ["x", "y"],
        "dim_p": 2,
        "mark": 1,
        "charts": [
            {
                "name": "U",
                "e_components": ["x", "y"],
                "n_vars": [],
                "p_components": [],
                "generators": [{"x": e}, {"y": 3}],
            }
        ],
    }


def draw_config(rng: random.Random, max_exp: int = 6, max_mark: int = 6) -> dict:
    """One one-chart instance inside the acceptance bounds.

    Same distribution and draw order as `random_config` in the program's test
    suite: 1-4 components, one P-cutting component in some draws, N
    coordinates in some, 1-3 generators, exponents and marks up to 6, and
    `dim_p` covering the non-P components.
    """
    k = rng.randint(1, 4)
    p_count = 1 if k >= 2 and rng.random() < 0.4 else 0
    if k - p_count > 3:
        p_count = k - 3
    free = list(range(p_count, k))
    if rng.random() < 0.05:
        gens = [{}]
    else:
        gens = []
        for _ in range(rng.randint(1, 3)):
            exps = {c: rng.randint(0, max_exp) for c in free}
            if not any(exps.values()):
                exps[rng.choice(free)] = 1
            gens.append(exps)
    mark = rng.randint(1, max_mark)
    n_vars = [f"n{i}" for i in range(rng.randint(0, 2))]
    names = list("abcd"[:k])
    return {
        "components": names,
        "dim_p": len(free),
        "mark": mark,
        "charts": [
            {
                "name": "U",
                "e_components": names,
                "n_vars": n_vars,
                "p_components": names[:p_count],
                "generators": [
                    {names[c]: e for c, e in g.items() if e} for g in gens
                ],
            }
        ],
    }


def draws(seed: int, count: int) -> list[dict]:
    rng = random.Random(seed)
    return [draw_config(rng) for _ in range(count)]


def corpus() -> list[tuple[str, dict]]:
    """The reduce corpus as (label, document) pairs, before renaming."""
    out = [(f"draw{CORPUS_DRAW_SEED}.{i}", doc) for i, doc in enumerate(draws(CORPUS_DRAW_SEED, CORPUS_SIZE))]
    for seed, index in COMPANION_HEAVY:
        out.append((f"draw{seed}.{index}", draws(seed, index + 1)[index]))
    return out


def rename(doc: dict, rng: random.Random) -> dict:
    """The same configuration with fresh single-letter component names."""
    fresh = rng.sample(string.ascii_lowercase, len(doc["components"]))
    table = dict(zip(doc["components"], fresh))
    return {
        "components": [table[c] for c in doc["components"]],
        "dim_p": doc["dim_p"],
        "mark": doc["mark"],
        "charts": [
            {
                "name": ch["name"],
                "e_components": [table[c] for c in ch["e_components"]],
                "n_vars": list(ch["n_vars"]),
                "p_components": [table[c] for c in ch["p_components"]],
                "generators": [{table[c]: e for c, e in g.items()} for g in ch["generators"]],
            }
            for ch in doc["charts"]
        ],
    }
