"""A run of blow-ups against one blow-up at a time.

`blow_up_sequence` makes a whole centre sequence in one run, which follows
the charts it replaces as light state and indexes them itself.  Blowing the
same centres up one at a time with `blow_up_global` starts each step from a
configuration holding every chart, so it shares none of that bookkeeping.
On drawn multi-chart roots and drawn centre sequences, both must give the
same records, registry and configuration, chart order included, or the
same error at the same step; the run's `step` must map each replaced chart
of the start to its final descendants as the composed steps do.  The draws include centres that omit P and
centres held only by a child that an earlier step of the same run made off
P, which a run must refuse as `blow_up_global` does.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from conftest import chart, config, mono
from monored.errors import MonoredError, NonPermissibleError
from monored.transform import blow_up_global, blow_up_sequence

observed = pytest.mark.parametrize("observe", [True, False], ids=["with observer", "without observer"])

NAMES = ("a", "b", "c", "d", "e")


def drawn_roots(rng):
    """One to four root charts on five components at one drawn mark.  P is
    empty or cut out by the first one or two components; a root meets P,
    holding all of them, or misses it.  Each root holds a drawn set of the
    other components and one to three drawn generators over them."""
    p = tuple(range(rng.choice([0, 1, 1, 2])))
    free = list(range(len(p), len(NAMES)))
    mark = rng.randint(1, 3)
    roots = []
    for n in range(rng.randint(1, 4)):
        comps = rng.sample(free, rng.randint(1, len(free)))
        gens = [mono({c: rng.randint(0, 4) for c in comps}) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            roots.append(replace(chart(len(NAMES), gens, mark, label=f"R{n}", e=comps), p_empty=True))
        else:
            roots.append(chart(len(NAMES), gens, mark, p=p, label=f"R{n}", e=p + tuple(comps)))
    return config(NAMES, roots, len(NAMES)), frozenset(p)


def drawn_centres(rng, p, n_names):
    """One to six centres over the components registered at their step, if
    every earlier step is made.  A centre is P and one or two more
    components, a drawn subset (which may omit P), or the last step's
    exceptional component with part of the last centre off P: that is held
    by the last step's children off P, and by no child on P when it holds
    a centre component off P."""
    centres = []
    for i in range(rng.randint(1, 6)):
        registered = list(range(n_names + i))
        draw = rng.random()
        if centres and draw < 0.3:
            rest = sorted(centres[-1] - p)
            centre = set(rng.sample(rest, rng.randint(1, len(rest)))) if rest else set()
            centre.add(n_names + i - 1)
        elif draw < 0.7:
            centre = set(p) | set(rng.sample(registered, rng.randint(1, 2)))
        else:
            centre = set(rng.sample(registered, rng.randint(1, min(3, len(registered)))))
        centres.append(frozenset(centre))
    return centres


def one_at_a_time(cfg, centres):
    """The steps `blow_up_global` makes along each centre in turn, until one
    refuses: (its (chart, children) pairs, record) per step, the last
    configuration, and the error, if any."""
    steps = []
    try:
        for centre in centres:
            cfg, rec = blow_up_global(cfg, centre)
            steps.append((cfg.step, rec))
    except MonoredError as exc:
        return steps, cfg, (type(exc), str(exc))
    return steps, cfg, None


def composed(steps):
    """The (chart, children) pairs of the run of `steps`: each chart of the
    start that a step replaced, in the order first replaced, with its
    descendants that no later step replaced, in chart order."""
    pairs = []
    for step, _ in steps:
        for ch, kids in step:
            for _, leaves in pairs:
                if ch in leaves:
                    at = leaves.index(ch)
                    leaves[at : at + 1] = kids
                    break
            else:
                pairs.append((ch, list(kids)))
    return pairs


def held_off_p_only(cfg, centre) -> bool:
    """Whether the charts of `cfg` holding `centre` are all children off P,
    and there is one."""
    holders = cfg.charts_containing(centre)
    return bool(holders) and all(ch.p_empty and ch.path.depth for ch in holders)


@observed
def test_a_run_is_one_blow_up_at_a_time(observe):
    """Both sides give the same steps, or refuse at the same step with the
    same error; the observer sees exactly the steps made, and the grown
    configuration's `step` is the composition of the steps."""
    rng = random.Random(34)
    counts = dict.fromkeys(["steps", "ran", "multi-step", "refused", "omit P", "off P only"], 0)
    for _ in range(1000):
        cfg, p = drawn_roots(rng)
        centres = drawn_centres(rng, p, len(cfg.registry))
        expected, last, error = one_at_a_time(cfg, centres)
        counts["steps"] += len(expected)
        seen = []
        on_step = (lambda *step: seen.append(step)) if observe else None
        try:
            final, records = blow_up_sequence(cfg, centres, on_step)
        except MonoredError as exc:
            assert (type(exc), str(exc)) == error
            counts["refused"] += 1
            failed = centres[len(expected)]
            counts["omit P"] += not p <= failed
            counts["off P only"] += held_off_p_only(last, failed)
        else:
            assert error is None
            assert records == [rec for _, rec in expected]
            assert final.registry == last.registry
            assert final == last and final.charts == last.charts
            assert [(ch, list(kids)) for ch, kids in final.step] == composed(expected)
            counts["ran"] += 1
            counts["multi-step"] += len(records) > 1
        assert [(registry, list(outcomes), rec) for registry, outcomes, rec in seen] == [
            (tuple(last.registry)[: len(cfg.registry) + n], step, rec)
            for n, (step, rec) in enumerate(expected, 1)
        ] * observe
    assert counts["steps"] > 1000 and counts["ran"] > 250 and counts["refused"] > 250
    assert counts["multi-step"] > 150
    assert counts["omit P"] > 100 and counts["off P only"] > 30


@observed
def test_a_centre_held_off_p_only_is_refused(observe):
    """x, y, z with P cut out by x, generator yz at mark 1.  The blow-up
    along {x, y} leaves the child of x off P holding y and exc1, and the
    child of y on P without y; so {y, exc1} meets only a chart off P, and
    the run refuses it as one blow-up at a time does."""
    cfg = config(("x", "y", "z"), [chart(3, [mono({1: 1, 2: 1})], 1, p=(0,))], 3)
    centres = [frozenset({0, 1}), frozenset({1, 3})]
    steps, last, error = one_at_a_time(cfg, centres)
    assert len(steps) == 1 and held_off_p_only(last, centres[1])
    assert error == (NonPermissibleError, error[1])
    seen = []
    with pytest.raises(NonPermissibleError) as refused:
        blow_up_sequence(cfg, centres, (lambda *step: seen.append(step)) if observe else None)
    assert str(refused.value) == error[1]
    assert [rec for _, _, rec in seen] == [rec for _, rec in steps] * observe
