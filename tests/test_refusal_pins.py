"""Refusals pinned on two-chart documents.

Two charts over the same components x, y, w need not agree where they
meet, so a centre chosen for one chart can be refused in the other.  On a
seeded set of such documents `reduce` must end exactly as pinned: each
refusal with its error type and message, each finished run with its
blow-up count and final state.  The one document of this kind recorded as
a known failure must exit 2 from the three commands with its message.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest

from monored.cli import main
from monored.errors import MonoredError
from monored.reduction import reduce
from monored.serialize import canonical_json, final_state_obj, load_config

NAMES = ("x", "y", "w")


def two_chart_documents(seed: int, n: int) -> list[dict]:
    """`n` documents over x, y, w with P empty, dim_p 3 and a mark from 1
    to 3: charts A and B each over all three components, with one or two
    generators whose exponents are drawn from 0 to 3."""
    rng = random.Random(seed)
    docs = []
    for _ in range(n):
        mark = rng.randint(1, 3)
        charts = []
        for label in ("A", "B"):
            gens = []
            for _ in range(rng.randint(1, 2)):
                g = {c: e for c in NAMES if (e := rng.randint(0, 3))}
                gens.append(g or {rng.choice(NAMES): 1})
            charts.append({"name": label, "e_components": list(NAMES), "generators": gens})
        docs.append({"components": list(NAMES), "dim_p": 3, "mark": mark, "charts": charts})
    return docs


def outcome(doc: dict) -> str:
    try:
        final, records = reduce(load_config(doc))
    except MonoredError as exc:
        return f"{type(exc).__name__}: {exc}"
    state = canonical_json(final_state_obj(final, records)).encode("utf-8")
    return f"ok {len(records)} {hashlib.sha256(state).hexdigest()}"


def test_seeded_two_chart_documents():
    outcomes = [outcome(doc) for doc in two_chart_documents(3, 400)]
    assert Counter(line.split(":")[0].split()[0] for line in outcomes) == {
        "NonPermissibleError": 259,
        "InternalLogicError": 128,
        "ok": 13,
    }
    digest = hashlib.sha256("\n".join(outcomes).encode("utf-8")).hexdigest()
    assert digest == "6aad36e3b2734e409af84851c7d86feee8d4c139913e9bbbf227ef6d7b923ada"


DISAGREEING = {
    "components": list(NAMES),
    "dim_p": 3,
    "mark": 1,
    "charts": [
        {"name": "A", "e_components": list(NAMES), "generators": [{"w": 2}, {"x": 1, "y": 1}]},
        {"name": "B", "e_components": list(NAMES), "generators": [{"x": 1}, {"y": 1}]},
    ],
}


@pytest.mark.parametrize("command", ["reduce", "principalize", "resolve"])
def test_a_contact_locus_refused_in_the_other_chart(command, tmp_path, capsys):
    """A's contact locus {x, y, w} is blown up with no companion, and B has
    order 1 along it where the sub-configuration's mark is 2."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(DISAGREEING), encoding="utf-8")
    assert main([command, str(path)]) == 2
    assert capsys.readouterr() == (
        "",
        "contract violation: centre {x,y,w} is not permissible: its trace on N must lie in "
        "the support (every chart meeting it needs order >= 2 along it)\n",
    )
