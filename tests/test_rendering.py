"""Chart names and rendered ideals against the chain-walk reference.

The trace writer keeps each live chart's name and display map and derives
a child's from its parent's in one step.  Every child a record lists and
every final chart must render as `conftest.chain_render_ideal`, which walks
the chart's defining chain from scratch, renders it, and every name must be
`core.chart_name` of the chart's path.  Each child is taken from the grown
configuration's `step`, which must name the charts its record names.
"""

from __future__ import annotations

import pytest

from conftest import chain_render_ideal
from monored.core import chart_name
from monored.errors import ValidationError
from monored.reduction import reduce
from monored.serialize import StepRenderer, final_state_obj, trace_to_obj
from monored.transform import blow_up_global
from test_digests import RUNS
from test_lcm_marking import COMPANION_DRAWS, draw


def check_against_chain_walk(initial, records, final) -> None:
    """The document of `trace_to_obj(initial, records, final)` renders
    each chart as the chain walk does."""
    doc = trace_to_obj(initial, records, final)
    assert doc["final"] == final_state_obj(final, records)
    check_records(initial, records, doc["records"], final)


def check_records(initial, records, record_objs, final) -> None:
    """`record_objs`, the rendered `records` from `initial`, and the final
    state render each chart as the chain walk does, over the records'
    stages only."""
    exc_stage: dict[int, int] = {}
    cfg = initial
    for rec, rec_obj in zip(records, record_objs, strict=True):
        cfg, _ = blow_up_global(cfg, rec.center)
        exc_stage[rec.exceptional] = rec.stage
        # the grown configuration's step and the record name the same charts
        assert (
            tuple(((p.label, p.path), tuple(k.path for k in kids)) for p, kids in cfg.step)
            == rec.outcomes
        )
        for (parent, children), outcome in zip(cfg.step, rec_obj["outcomes"], strict=True):
            assert outcome["chart"] == chart_name(cfg.registry, parent.label, parent.path)
            for child, child_obj in zip(children, outcome["children"], strict=True):
                assert child_obj["chart"] == chart_name(cfg.registry, child.label, child.path)
                assert child_obj["rendered"] == chain_render_ideal(cfg.registry, child, exc_stage)
    final_obj = final_state_obj(final, records)
    for ch, ch_obj in zip(final.charts, final_obj["charts"], strict=True):
        assert ch_obj["rendered"] == chain_render_ideal(final.registry, ch, exc_stage)


@pytest.mark.parametrize("name", list(RUNS))
def test_digest_runs(name):
    check_against_chain_walk(*RUNS[name]())


@pytest.mark.parametrize("seed,index", list(COMPANION_DRAWS))
def test_lcm_marking_draws(seed, index):
    cfg = draw(seed, index)
    final, records = reduce(cfg)
    check_against_chain_walk(cfg, records, final)


# runs whose first steps make a grown start for the rest
GROWN = {
    "reduce worked": RUNS["reduce worked"],
    "principalize tower25": RUNS["principalize tower25"],
}


@pytest.mark.parametrize("name", list(GROWN))
@pytest.mark.parametrize("share", [0.25, 0.5, 0.75])
def test_trace_from_a_grown_input(name, share):
    """A step renderer serves a library run from any configuration, but a
    grown one is no input: `trace_to_obj` refuses it, naming a chart."""
    initial, records, final = GROWN[name]()
    split = int(len(records) * share)
    grown = initial
    for rec in records[:split]:
        grown, _ = blow_up_global(grown, rec.center)
    rest = records[split:]
    steps = StepRenderer()
    cfg = grown
    for rec in rest:
        cfg, _ = blow_up_global(cfg, rec.center)
        steps(cfg.registry, cfg.step, rec)
    assert cfg == final
    check_records(grown, rest, steps.objs, final)
    with pytest.raises(ValidationError, match="^chart '[^']*/[^']*' is not a root chart"):
        trace_to_obj(grown, rest, final)
