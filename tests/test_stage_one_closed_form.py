"""Runs of blow-ups against the one-step blow-up.

Stage 1 takes its centre sequence from its table and makes all of its
blow-ups in one run (`blow_up_sequence`), as every other sequence is made.  Every record a run returns must be the record
`blow_up_global` makes when the recorded centres are replayed one at a
time, and the replay must end on the returned configuration, chart order
included.  Where a stage-1 centre is not permissible, the run must refuse
at that step with the error `blow_up_global` raises, after the observer
has seen exactly the steps before it.  Each run goes with an observer,
which gets every step's children built, and without one, when a chart is
built only for each chart that leaves the run: both must give the same.
The run (`BlowUpRun`), which also makes the replays, the later stages and
trace replay, is held to the same one-step replay on whole reductions and
written traces.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import chart, config, mono, random_config
from monored import reduction, transform
from monored.cli import main
from monored.errors import MonoredError, NonPermissibleError
from monored.reduction import reduce, reduce_monomial
from monored.resolution import principalize
from monored.serialize import config_to_obj, load_config, replay_trace
from monored.transform import blow_up_global, blow_up_sequence
from test_path_nodes import tower

X, Y = 0, 1

observed = pytest.mark.parametrize("observe", [True, False], ids=["with observer", "without observer"])


def seeded_draws():
    rng = random.Random(31)
    return [random_config(rng) for _ in range(100)]


def replayed(initial, records, final):
    """Replay the records one blow-up at a time: each must come back equal,
    and the last configuration must equal `final`."""
    cfg = initial
    for rec in records:
        cfg, again = blow_up_global(cfg, rec.center)
        assert again == rec
    assert cfg == final
    assert cfg.charts == final.charts


@observed
def test_seeded_draws_replay_one_step_at_a_time(observe):
    """Every sequence is made in runs: stage 1's, and one `BlowUpRun` for
    each replay and each later stage.  With an observer or without, the
    records and final configuration must be those of one blow-up at a
    time, and the observer must see exactly the records returned."""
    blowups = 0
    for cfg in seeded_draws():
        seen = []
        on_step = (lambda registry, outcomes, rec: seen.append(rec)) if observe else None
        final, records = reduce(cfg, on_step=on_step)
        replayed(cfg, records, final)
        trace = principalize(cfg, on_step)
        replayed(trace.initial, trace.records, trace.final)
        assert seen == (records + list(trace.records)) * observe
        blowups += len(records) + len(trace.records)
    assert blowups > 1000


@pytest.mark.parametrize("command", ["principalize", "reduce"])
def test_written_traces_replay_one_step_at_a_time(command, tmp_path):
    """`replay_trace` makes a trace's blow-ups in one run: on the traces
    the commands write for the seeded draws, it must give the records and
    configuration of one blow-up at a time from the trace's input."""
    blowups = 0
    for n, cfg in enumerate(seeded_draws()[:40]):
        path, out = tmp_path / f"{n}.json", tmp_path / f"{n}.trace.json"
        path.write_text(json.dumps(config_to_obj(cfg)), encoding="utf-8")
        assert main([command, str(path), "--out", str(out)]) == 0
        trace = json.loads(out.read_text(encoding="utf-8"))
        final, records = replay_trace(trace)
        replayed(load_config(trace["input"]), records, final)
        blowups += len(records)
    assert blowups > 200


def two_roots(b_components):
    """Chart A over x, y carrying x^3 y^2, and chart B over `b_components`
    carrying y, which has no support at mark 2; P is empty."""
    a = chart(2, [mono({X: 3, Y: 2})], 2, label="A")
    b = chart(2, [mono({Y: 1})], 2, label="B", e=b_components)
    return config(("x", "y"), [a, b], 2)


REFUSAL = (
    "^centre {%s} is not permissible: its trace on N must lie in the support "
    r"\(every chart meeting it needs order >= 2 along it\)$"
)


@observed
@pytest.mark.parametrize(
    "b_components,refused,seen",
    [((Y,), "y", 1), ((X, Y), "x", 0)],
    ids=["refused at the second step", "refused at the first step"],
)
def test_stage_one_refuses_where_one_step_refuses(b_components, refused, seen, observe):
    """Stage 1 takes x (sum 3), then y (sum 2).  B holds y at order 1, so
    {y} is refused; when B holds x too, {x} is refused first."""
    calls = []
    with pytest.raises(NonPermissibleError, match=REFUSAL % refused):
        reduce_monomial(two_roots(b_components), on_step=(lambda *args: calls.append(args)) if observe else None)
    assert len(calls) == (seen if observe else 0)
    cfg = two_roots(b_components)
    if seen:
        cfg, _ = blow_up_global(cfg, {X})
    with pytest.raises(NonPermissibleError, match=REFUSAL % refused):
        blow_up_global(cfg, {X} if refused == "x" else {Y})


def grown_once():
    """x^5 y^3, mark 2, with P cut out by z, blown up once along {z, x}:
    a configuration holding its charts in an index only."""
    cfg = config(("z", "x", "y"), [chart(3, [mono({1: 5, 2: 3})], 2, p=(0,))], 2)
    return blow_up_global(cfg, {0, 1})[0]


def test_a_run_is_undone_from_its_step():
    """A configuration grown from without a chart tuple gets its charts
    back by undoing what was grown from it, stage 1's run included: that
    run's `step` pairs each chart it replaced with the charts that replaced
    it in the end, in chart order, each step splitting a chart in two."""
    kept = grown_once()
    final, records = reduce_monomial(kept)
    assert len(records) == 3  # y and exc1 in stage 1, {exc2, exc3} in stage 2
    assert kept.charts == grown_once().charts
    replayed(grown_once(), records, final)


def drawn_roots(rng):
    """One to three root charts on four components, P empty or cut out by
    the first, each chart over a drawn set of the others with one or two
    drawn generators, at one drawn mark."""
    p = (0,) if rng.random() < 0.5 else ()
    free = [1, 2, 3]
    mark = rng.randint(1, 3)
    charts = []
    for n in range(rng.randint(1, 3)):
        comps = rng.sample(free, rng.randint(1, 3))
        gens = [mono({c: rng.randint(0, 5) for c in comps}) for _ in range(rng.randint(1, 2))]
        charts.append(chart(4, gens, mark, p=p, label=f"R{n}", e=p + tuple(comps)))
    return config(("a", "b", "c", "d"), charts, 3), frozenset(p)


def one_at_a_time(cfg, p, components):
    """The steps `blow_up_global` makes along P and each component in
    turn, until one refuses: (its (chart, children) pairs, record) per
    step, the last configuration, and the error, if any."""
    steps = []
    try:
        for c in components:
            cfg, rec = blow_up_global(cfg, p | {c})
            steps.append((cfg.step, rec))
    except MonoredError as exc:
        return steps, cfg, (type(exc), str(exc))
    return steps, cfg, None


@observed
def test_a_run_is_one_blow_up_at_a_time(observe):
    """Along drawn components, the charts of the start and the components
    the run makes among them, one run makes the steps, records,
    registry and configuration that `blow_up_global` makes one at a time,
    and refuses at the same step with the same error."""
    rng = random.Random(31)
    refused = ran = 0
    for _ in range(400):
        cfg, p = drawn_roots(rng)
        components = [rng.randrange(1, 4 + i) for i in range(rng.randint(1, 8))]
        expected, last, error = one_at_a_time(cfg, p, components)
        seen = []
        try:
            final, records = blow_up_sequence(
                cfg, [p | {c} for c in components], (lambda *step: seen.append(step)) if observe else None
            )
        except MonoredError as exc:
            assert (type(exc), str(exc)) == error
            refused += 1
        else:
            assert error is None
            assert records == [rec for _, rec in expected]
            assert final.registry == last.registry
            assert final == last and final.charts == last.charts
            ran += 1
        assert [(registry, list(outcomes), rec) for registry, outcomes, rec in seen] == [
            (tuple(last.registry)[: len(cfg.registry) + n], step, rec)
            for n, (step, rec) in enumerate(expected, 1)
        ] * observe
    assert refused > 50 and ran > 50


@observed
def test_a_chart_is_built_once_it_leaves_the_run(monkeypatch, observe):
    """Without an observer, each run of `blow_up_sequence` (stage 1's and
    the replays) builds one `Chart` per chart that leaves it, each line's
    last descendant at the end: none that the same run replaces.  With one, it
    builds every step's children, which the observer sees.  The runs
    inside companion reductions go without one either way."""
    built = []
    chart_type = transform.Chart

    def counted_chart(*fields):
        built.append(fields)
        return chart_type(*fields)

    runs = []

    def counted_run(cfg, centres, on_step=None):
        before = len(built)
        final, records = blow_up_sequence(cfg, centres, on_step)
        runs.append((len(built) - before, final.step, records, on_step is not None))
        return final, records

    monkeypatch.setattr(transform, "Chart", counted_chart)
    monkeypatch.setattr(reduction, "blow_up_sequence", counted_run)
    principalize(tower(100), on_step=(lambda *step: None) if observe else None)
    assert runs[-1][3] == observe
    steps = made_total = left_total = 0
    for n, step, records, observed in runs:
        made = sum(len(kids) for rec in records for _, kids in rec.outcomes)
        left = sum(len(kids) for _, kids in step)
        assert n == (made if observed else left)
        steps, made_total, left_total = steps + len(records), made_total + made, left_total + left
    assert steps > 1000 and left_total * 10 < made_total
