"""A fixed reference computation that measures how fast the machine is now.

The machine is shared and its speed drifts by up to 1.5x, within a second
as well as over minutes, so two runs of the same code can differ more than
any bound worth having.  The benchmark times `unit()` next to everything it
times (after each operation, after each set-up) and scales the program's
CPU time by `UNIT_S` over the reference's CPU time taken alongside: drift
that slows both cancels, and what is left moves with the program alone.

`unit()` is pure Python of the same kind as the program: exponent tuples,
dictionaries, frozensets, sorting and small integer sums, here blowing a
fixed monomial ideal up along every pair of its variables and minimalizing
the result.  It never imports the program, so no change to the program
changes it.
"""

from __future__ import annotations

import gc
import itertools
import random
import time

# CPU seconds of one `unit()` on the machine the bounds were set on (a
# 2-vCPU Xeon KVM guest) at its usual speed; timings are scaled to it.
UNIT_S = 0.009

_RNG = random.Random(20250507)
_VARS = 6
_GENS = tuple(
    tuple(sorted((v, _RNG.randint(1, 7)) for v in _RNG.sample(range(_VARS), _RNG.randint(2, 5))))
    for _ in range(28)
)
_CENTERS = tuple(frozenset(c) for c in itertools.combinations(range(_VARS), 2))


def _minimal(gens):
    kept = []
    for g in sorted(set(gens), key=lambda t: (sum(e for _, e in t), t)):
        if not any(all(dict(g).get(c, 0) >= e for c, e in h) for h in kept):
            kept.append(g)
    return kept


def _blow_up(gens, center, chart_var):
    out = []
    for g in gens:
        d = dict(g)
        degree = sum(d.get(c, 0) for c in center)
        d.pop(chart_var, None)
        if degree:
            d[chart_var] = degree
        out.append(tuple(sorted((c, e) for c, e in d.items() if e)))
    return out


def unit() -> int:
    """One fixed amount of reference work; returns a checksum of it."""
    total = 0
    for center in _CENTERS:
        for chart_var in sorted(center):
            kept = _minimal(_blow_up(_GENS, center, chart_var))
            total += len(kept) + sum(e for g in kept for _, e in g)
    return total


def unit_seconds(units: int = 1) -> float:
    """CPU seconds of one `unit()`, averaged over `units` runs of it now.

    The cyclic garbage collector is off meanwhile: a collection here would
    walk the program's heap and charge its size to the reference.
    """
    gc.disable()
    try:
        t0 = time.process_time()
        for _ in range(units):
            unit()
        return (time.process_time() - t0) / units
    finally:
        gc.enable()
