"""The step observer against the replaying writer.

`reduce`, `principalize` and `weak_resolve` call
`on_step(registry, outcomes, record)` after each blow-up of the sequence
they return.  A document rendered from
those calls must equal the one `trace_to_obj` renders by replaying the
records (which also checks that they replay and reproduce the final
configuration), and the observer must see exactly the returned records, in
order and by identity, and none of the blow-ups made on companion or
residual sub-configurations.
"""

from __future__ import annotations

import pytest

import monored.reduction
import monored.transform
from conftest import golden_config
from monored.reduction import reduce
from monored.resolution import principalize, weak_resolve
from monored.serialize import StepRenderer, canonical_json, trace_document, trace_to_obj
from test_digests import RUNS, random_draws, tower25
from test_lcm_marking import draw

# (seed, index) of a companion-heavy draw of `test_lcm_marking`
COMPANION_DRAW = (11, 150)


def reduce_run(cfg, on_step):
    final, records = reduce(cfg, on_step=on_step)
    return cfg, records, final


def trace_run(fn):
    def run(cfg, on_step):
        tr = fn(cfg, on_step=on_step)
        return tr.initial, tr.records, tr.final

    return run


def observed_runs():
    yield "reduce worked", reduce_run, golden_config
    yield "principalize tower25", trace_run(principalize), tower25
    yield "weak_resolve tower25", trace_run(weak_resolve), tower25
    for i, cfg in enumerate(random_draws()):
        yield f"reduce draw {i}", reduce_run, lambda cfg=cfg: cfg
    yield f"reduce companion draw {COMPANION_DRAW}", reduce_run, lambda: draw(*COMPANION_DRAW)


OBSERVED = {name: (run, make) for name, run, make in observed_runs()}


def test_every_digest_run_is_observed():
    assert set(RUNS) <= set(OBSERVED)


class Recorder:
    def __init__(self, steps: StepRenderer) -> None:
        self.steps = steps
        self.seen: list = []

    def __call__(self, registry, outcomes, rec) -> None:
        self.seen.append((registry, rec))
        self.steps(registry, outcomes, rec)


@pytest.mark.parametrize("name", list(OBSERVED))
def test_observer_document_is_the_replayed_document(name):
    run, make = OBSERVED[name]
    recorder = Recorder(StepRenderer())
    initial, records, final = run(make(), recorder)
    observed = trace_document(initial, recorder.steps, final, records)
    assert canonical_json(observed) == canonical_json(trace_to_obj(initial, records, final))
    assert len(recorder.seen) == len(records)
    assert all(rec is returned for (_, rec), returned in zip(recorder.seen, records))
    registries = [registry for registry, _ in recorder.seen]
    assert [len(registry) for registry in registries] == [
        len(initial.registry) + i for i in range(1, len(records) + 1)
    ]
    if registries:
        assert registries[-1] == final.registry


def test_companion_blowups_do_not_reach_the_observer(monkeypatch):
    blow_up_global = monored.transform.blow_up_global
    calls = []

    def counted(cfg, center):
        calls.append(center)
        return blow_up_global(cfg, center)

    monkeypatch.setattr(monored.reduction, "blow_up_global", counted)
    seen = []
    _, records = reduce(draw(*COMPANION_DRAW), on_step=lambda registry, outcomes, rec: seen.append(rec))
    # the run blows up sub-configurations too, and only its own steps are seen
    assert len(calls) > len(records)
    assert len(seen) == len(records)
    assert all(a is b for a, b in zip(seen, records))
