"""One definition of an input configuration.

`load_config` defines what an input is.  `config_to_obj` writes a
configuration's document and refuses it unless `load_config` reads the
same configuration back, so every trace starts from an input that replays
to the state it recorded.  The constructors check the types the engine
itself relies on: registry names and chart labels are non-empty `str`,
`n_vars` labels are `str`, and monomial ids and exponents are `int`.
"""

from __future__ import annotations

import collections
import hashlib
import json

import pytest

from conftest import mono, permissible_centers
from monored.cli import main
from monored.core import UNIT, Chart, Configuration, MarkedIdeal, Monomial
from monored.errors import ValidationError
from monored.reduction import reduce
from monored.serialize import config_to_obj, load_config, trace_to_obj
from monored.transform import blow_up_global

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def lines(names=("x", "y"), label="U", n_vars=(), **fields) -> Configuration:
    """(x, y) with mark 1 on one root chart."""
    ideal = MarkedIdeal.of([mono({0: 1}), mono({1: 1})], 1)
    ch = Chart(label, (0, 1), frozenset(n_vars), frozenset(), ideal, **fields)
    return Configuration(names, (ch,), 2)


def traced(make):
    """The trace document of a library `reduce` of `make()`."""
    cfg = make()
    final, records = reduce(cfg)
    return trace_to_obj(cfg, records, final)


# Each of these was traced, and the trace then failed to replay (or, for a
# component named 3, rendering raised TypeError).
REFUSED = {
    "n_vars label is a component name": (
        lambda: lines(n_vars=("x",)),
        "^charts\\[0\\].n_vars: labels must not collide with component names$",
    ),
    "n_vars label 7": (
        lambda: lines(n_vars=(7,)),
        "^chart 'U': n_vars labels must be strings$",
    ),
    "component named ''": (
        lambda: lines(names=("x", "")),
        "^registry names must be non-empty strings$",
    ),
    "chart labelled ''": (
        lambda: lines(label=""),
        "^chart labels must be non-empty strings$",
    ),
    "component named 3": (
        lambda: lines(names=("x", 3)),
        "^registry names must be non-empty strings$",
    ),
    "empty registry": (
        lambda: Configuration(
            (), (Chart("U", (), frozenset(), frozenset(), MarkedIdeal.of([UNIT], 1)),), 0
        ),
        "^components: non-empty name list required$",
    ),
    "P-empty root chart": (
        lambda: lines(p_empty=True),
        "^configuration does not read back from its document: not an input$",
    ),
    "root chart with a pullback excess": (
        lambda: lines(pullback_excess=mono({0: 2})),
        "^configuration does not read back from its document: not an input$",
    ),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_no_trace_of_a_configuration_load_config_cannot_make(name):
    make, message = REFUSED[name]
    with pytest.raises(ValidationError, match=message):
        traced(make)


@pytest.mark.parametrize(
    "names, label, n_vars",
    [(("x", ["y"]), "U", ()), (("x", "y"), ["U"], ()), (("x", "y"), "U", [["n"]])],
    ids=["name", "label", "n_vars label"],
)
def test_unhashable_names_are_validation_errors(names, label, n_vars):
    ideal = MarkedIdeal.of([mono({0: 1})], 1)
    ch = Chart(label, (0, 1), n_vars, frozenset(), ideal)
    with pytest.raises(ValidationError):
        Configuration(names, (ch,), 2)


def test_a_grown_configuration_is_no_input():
    cfg, _ = blow_up_global(lines(), {0, 1})
    roots = Configuration(cfg.registry, (lines().charts[0],), 2, cfg.n_blowups)
    with pytest.raises(ValidationError, match="^chart 'U/x' is not a root chart: not an input$"):
        config_to_obj(cfg)
    with pytest.raises(ValidationError, match="^configuration does not read back"):
        config_to_obj(roots)


# An input whose n_vars label is the name the first exceptional component
# gets: legal as a document, and its run grows into a configuration where
# the two meet.
EXC1 = {
    "components": ["x", "y"],
    "dim_p": 2,
    "mark": 1,
    "charts": [
        {
            "name": "U",
            "e_components": ["x", "y"],
            "n_vars": ["exc1"],
            "generators": [{"x": 3}, {"y": 2}],
        }
    ],
}

# sha256 of the trace file `principalize --out` writes, and of the one it
# wrote in the indented form before names, labels and n_vars labels were
# checked in the constructor, which the file re-rendered in that form gives.
EXC1_TRACE = "13408c05495ad309f665432ac44f34f9cd3be6277e436f1d0e8d5b118941b71d"
EXC1_INDENTED_TRACE = "e2767c570d230d7e3cb112ec5446e510c50193d0bdd3950ada525e8f3d7a4458"


def test_an_n_vars_label_an_exceptional_name_takes_later(tmp_path, capsys):
    config = tmp_path / "exc1.json"
    config.write_text(json.dumps(EXC1))
    trace = tmp_path / "trace.json"
    assert main(["principalize", str(config), "--out", str(trace)]) == 0
    data = trace.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EXC1_TRACE
    indented = json.dumps(json.loads(data), indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert hashlib.sha256(indented.encode("utf-8")).hexdigest() == EXC1_INDENTED_TRACE
    assert main(["replay", "--trace", str(trace)]) == 0
    assert capsys.readouterr().out.endswith("replay: final state identical\n")


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"components": ["x", 3]}, "registry names must be non-empty strings"),
        ({"components": ["x", ["y"]]}, "registry names must be non-empty strings"),
        ({"charts": [dict(EXC1["charts"][0], name="")]}, "chart labels must be non-empty strings"),
        ({"charts": [dict(EXC1["charts"][0], name=["U"])]}, "chart labels must be non-empty strings"),
    ],
    ids=["component-3", "component-list", "label-empty", "label-list"],
)
def test_names_and_labels_are_checked_by_the_constructor(tmp_path, capsys, changes, message):
    doc = dict(EXC1, **changes)
    if "components" in changes:
        doc["charts"] = [dict(EXC1["charts"][0], e_components=["x"], generators=[{"x": 3}])]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["order", str(path)]) == 1
    assert capsys.readouterr().err == f"validation error: {message}\n"


class TestMonomialOfTakesIntegersOnly:
    """`Monomial.of` takes its ids and exponents as they are given: it
    refuses any that is not an `int`, a `bool` included, and never
    coerces one."""

    def test_float_exponent(self):
        with pytest.raises(ValidationError, match="^component id 0 and exponent 2.7 must be integers$"):
            Monomial.of({0: 2.7})

    def test_bool_exponent(self):
        with pytest.raises(ValidationError, match="^component id 0 and exponent True must be integers$"):
            Monomial.of({0: True})

    def test_float_component_id(self):
        with pytest.raises(ValidationError, match="^component id 1.9 and exponent 2 must be integers$"):
            Monomial.of({1.9: 2})


# --- every configuration the library builds ---------------------------------

GOOD_NAMES = ("x", "y", "z", "w")
BAD_NAMES = ("", 3, True, None, ("x",), ["x"])


def maybe_bad(draw, good):
    """`good`, or now and then a value that is not a non-empty `str`."""
    if draw(st.integers(0, 6)) == 0:
        return draw(st.sampled_from(BAD_NAMES))
    return good


@st.composite
def library_configurations(draw):
    """A configuration built through the library, or the ValidationError
    building it raised: bad names and labels, `n_vars` labels that are
    component names or no strings, P-empty roots, pullback excesses, blow-up
    counts and grown configurations included."""
    k = draw(st.integers(0, 4), label="components")
    registry = [maybe_bad(draw, name) for name in GOOD_NAMES[:k]]
    cuts = (0,) if k > 1 and draw(st.integers(0, 3)) == 0 else ()
    mark = draw(st.integers(1, 2), label="mark")
    charts = []
    for label in draw(st.sampled_from([("U",), ("U", "V")]), label="labels"):
        e = cuts + tuple(c for c in range(len(cuts), k) if draw(st.booleans()))
        free = [c for c in e if c not in cuts]
        gens = [
            Monomial.of(exps)
            for exps in draw(
                st.lists(
                    st.fixed_dictionaries({c: st.integers(0, 3) for c in free}), min_size=1, max_size=3
                )
            )
        ]
        n_vars = draw(st.sampled_from([(), (), ("n0",), ("x",), ("exc1",), (7,)]), label="n_vars")
        charts.append(
            Chart(
                label=maybe_bad(draw, label),
                e_components=e,
                n_vars=frozenset(n_vars),
                p_components=frozenset(cuts),
                ideal=MarkedIdeal.of(gens, mark),
                p_empty=draw(st.integers(0, 5), label="p_empty") == 0,
                pullback_excess=mono({e[-1]: 1}) if e and draw(st.integers(0, 5)) == 0 else UNIT,
            )
        )
    dim_p = draw(st.integers(max(k - 2, 0), k), label="dim_p")
    n_blowups = draw(st.sampled_from([0, 0, 0, 1]), label="n_blowups")
    try:
        cfg = Configuration(registry, charts, dim_p, n_blowups)
    except ValidationError as exc:
        return exc
    grow = draw(st.sampled_from(["no", "no", "grown", "roots of grown", "roots as input"]))
    centers = permissible_centers(cfg) if grow != "no" else []
    if not centers:
        return cfg
    grown, _ = blow_up_global(cfg, draw(st.sampled_from(centers), label="centre"))
    if grow == "grown":
        return grown
    roots = [ch for ch in grown.charts if not ch.path]
    if not roots:
        return grown
    # the untouched roots under the grown registry, after the blow-up or as
    # if before any
    n = grown.n_blowups if grow == "roots of grown" else 0
    try:
        return Configuration(grown.registry, roots, grown.dim_p, n)
    except ValidationError as exc:
        return exc


def test_every_library_configuration_is_refused_or_reads_back():
    outcomes = collections.Counter()

    @hypothesis.settings(max_examples=400, database=None, derandomize=True, deadline=None)
    @hypothesis.given(built=library_configurations())
    def check(built):
        if isinstance(built, ValidationError):
            outcomes["constructor refuses"] += 1
            return
        try:
            doc = config_to_obj(built)
        except ValidationError:
            outcomes["config_to_obj refuses"] += 1
            return
        assert load_config(doc) == built
        outcomes["reads back"] += 1

    check()
    assert min(outcomes.values()) >= 20 and len(outcomes) == 3, outcomes
