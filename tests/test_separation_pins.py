"""Pinned separation output of `weak_resolve`.

The final-state and trace digests cover the blow-up sequence, not the
separation stage and charts `weak_resolve` reports from the strict
transforms it follows.  These pins do: a change to how the strict
transforms are followed that keeps them reports the same separation.
"""

from __future__ import annotations

import hashlib
import random

from conftest import chart, config, mono, random_config
from monored.errors import ValidationError
from monored.resolution import weak_resolve
from monored.serialize import canonical_json

X, Y, W, Z = 0, 1, 2, 3


def separation_obj(trace) -> list:
    """The separation stage and each separated chart's key and strict
    transform, as plain JSON values."""
    return [
        trace.separation_stage,
        [
            [label, [list(step) for step in path], [[list(x) for x in g.exps] for g in gens]]
            for (label, path), gens in trace.separated
        ],
    ]


def test_seed_one_draws():
    """200 draws without an embedding: 31 separate, 77 do not, and 92 are
    refused as codimension 1."""
    rng = random.Random(1)
    outputs = []
    for _ in range(200):
        cfg = random_config(rng, allow_embedded=False)
        try:
            outputs.append(separation_obj(weak_resolve(cfg)))
        except ValidationError:
            outputs.append("codimension 1")
    assert sum(o == "codimension 1" for o in outputs) == 92
    assert sum(o != "codimension 1" and o[0] is None for o in outputs) == 77
    assert sum(o != "codimension 1" and o[0] is not None for o in outputs) == 31
    digest = hashlib.sha256(canonical_json(outputs).encode("utf-8")).hexdigest()
    assert digest == "9bca3934c044856dbb73a1db4283e49f6c806bab575e941f1b4520e67bc90ef7"


def test_untouched_root_separates_at_the_first_stage():
    """Root B's strict transform (w, z) is a coordinate subscheme from the
    start; it is found at the first record, which blows up only root A."""
    a = chart(4, [mono({X: 2}), mono({Y: 3})], 1, label="A", e=(X, Y))
    b = chart(4, [mono({W: 1}), mono({Z: 1})], 1, label="B", e=(W, Z))
    trace = weak_resolve(config(("x", "y", "w", "z"), [a, b], 2))
    assert trace.records[0].center == frozenset({X, Y})
    assert separation_obj(trace) == [1, [["B", [], [[[W, 1]], [[Z, 1]]]]]]
