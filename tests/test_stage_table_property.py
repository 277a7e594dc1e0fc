"""The monomial-stage table's heap-backed `best`, as a property.

Random sequences of `count` and `update` calls, over few components and
small exponents so that subsets often leave the table and come back with
the same sum or another one, are checked after every call: `best` must give
what a scan of the whole table gives for every mark, every entry must have
its item in the heap, and stale items must never outnumber live ones.
"""

from __future__ import annotations

import itertools

import pytest

from conftest import mono
from monored.core import Chart, MarkedIdeal
from monored.reduction import _StageTable

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

N_COMPONENTS = 4
MARKS = range(1, 8)


def scanned_best(entries: dict, mark: int):
    """`best` by a scan of every entry: the largest sum at least `mark`,
    then the least subset with it."""
    top = max((v for v, _ in entries.values() if v >= mark), default=None)
    if top is None:
        return None
    return min(subset for subset, (v, _) in entries.items() if v == top)


def sums(ch: Chart, s: int, floor: int) -> dict:
    out = {}
    for combo in itertools.combinations(ch.ideal.generators[0].exps, s):
        total = sum(e for _, e in combo)
        if total >= floor:
            out[tuple(c for c, _ in combo)] = total
    return out


class Grown:
    """Stands for the configuration a blow-up grew: its (chart, children)
    pairs, every child carrying support."""

    def __init__(self, step) -> None:
        self.step = step

    def carries_support(self, chart: Chart) -> bool:
        return True


exponent_maps = st.dictionaries(
    st.integers(0, N_COMPONENTS - 1), st.integers(1, 4), min_size=1, max_size=N_COMPONENTS
)


def check(table: _StageTable, live: dict) -> None:
    expected: dict = {}
    for ch in live.values():
        for subset, total in sums(ch, table.s, table.floor).items():
            expected.setdefault(subset, [total, 0])[1] += 1
    assert table.entries == expected
    assert {(-v, subset) for subset, (v, _) in expected.items()} <= set(table.heap)
    assert len(table.heap) <= 2 * len(table.entries)
    for mark in MARKS:
        assert table.best(mark) == scanned_best(table.entries, mark)


@hypothesis.settings(max_examples=100, database=None, derandomize=True, deadline=None)
@hypothesis.given(s=st.integers(1, 2), floor=st.integers(0, 3), data=st.data())
def test_heap_best_matches_a_scan(s, floor, data):
    # live charts under the serial number they were drawn with
    live: dict[int, Chart] = {}
    serials = itertools.count()

    def admissible(exps_list) -> list[Chart]:
        """The charts of `exps_list` that agree with the table, and with
        each other, on the sum of every subset they share."""
        held = {}
        for ch in live.values():
            held.update(sums(ch, s, floor))
        out = []
        for exps in exps_list:
            ch = Chart("U", tuple(sorted(exps)), frozenset(), frozenset(), MarkedIdeal.of([mono(exps)], 1))
            new = sums(ch, s, floor)
            if all(held.get(subset, total) == total for subset, total in new.items()):
                held.update(new)
                out.append(ch)
        return out

    first = admissible(data.draw(st.lists(exponent_maps, max_size=4), label="charts"))
    table = _StageTable(s, floor, first)
    live.update((next(serials), ch) for ch in first)
    check(table, live)
    for _ in range(data.draw(st.integers(1, 30), label="calls")):
        if live and data.draw(st.booleans(), label="update"):
            gone = data.draw(
                st.lists(st.sampled_from(sorted(live)), min_size=1, max_size=3, unique=True),
                label="replaced",
            )
            replaced = [live.pop(i) for i in gone]
            kids = admissible(data.draw(st.lists(exponent_maps, max_size=3), label="children"))
            table.update(Grown([(replaced[0], kids)] + [(ch, []) for ch in replaced[1:]]))
        else:
            kids = admissible(data.draw(st.lists(exponent_maps, max_size=3), label="charts"))
            table.count(kids)
        live.update((next(serials), ch) for ch in kids)
        check(table, live)


def test_subset_back_with_the_same_sum_and_another():
    table = _StageTable(1, 0, [])
    old = Chart("U", (0,), frozenset(), frozenset(), MarkedIdeal.of([mono({0: 5})], 1))
    table.count([old])
    assert table.best(3) == (0,)
    same = Chart("U", (0,), frozenset(), frozenset(), MarkedIdeal.of([mono({0: 5})], 1))
    table.update(Grown([(old, [same])]))
    assert table.best(3) == (0,) and table.entries == {(0,): [5, 1]}
    lower = Chart("U", (0, 1), frozenset(), frozenset(), MarkedIdeal.of([mono({0: 2, 1: 4})], 1))
    table.update(Grown([(same, [lower])]))
    assert table.best(3) == (1,)
    assert table.best(2) == (1,) and table.best(5) is None
    table.update(Grown([(lower, [])]))
    assert table.best(1) is None and table.heap == []
