"""Chart paths held as linked nodes, and chart order from index places.

A chart's path is a `PathNode`: its parent's node and its own (stage,
component) pair.  It must behave as the tuple of its pairs wherever a
caller looks, and the chart index must keep chart order that of (root
position, path) although it never compares paths: each chart has a
bit-string place, a child's being its parent's followed by its position
among its siblings, and places aligned at the left sort in chart order,
however many bits they grow past a machine word.  A caller's tuple path
becomes a node when a configuration is built, and is checked there.
"""

from __future__ import annotations

import gc
import itertools
import pickle
import tracemalloc
from dataclasses import replace

import pytest

from conftest import chart, config, golden_config, mono
from monored import core
from monored.core import ROOT, Configuration, PathNode
from monored.errors import ValidationError
from monored.reduction import reduce
from monored.resolution import principalize
from monored.serialize import load_config
from monored.transform import blow_up_global
from test_digests import RUNS
from test_lcm_marking import draw

X, Y, U, V = 0, 1, 2, 3


def tower(e: int) -> Configuration:
    """(x^e, y^3) with mark 1 on one chart."""
    return config(("x", "y"), [chart(2, [mono({X: e}), mono({Y: 3})], 1)], 2)


def two_roots() -> Configuration:
    """Two root charts on disjoint components, listed against label order."""
    return config(
        ("x", "y", "u", "v"),
        [
            chart(4, [mono({U: 7}), mono({V: 3})], 1, e=(U, V), label="V"),
            chart(4, [mono({X: 9}), mono({Y: 4})], 1, e=(X, Y), label="A"),
        ],
        2,
    )


ORDER_RUNS = {
    **RUNS,
    "principalize tower100": lambda: principalize(tower(100)),
    "principalize two roots": lambda: principalize(two_roots()),
}


@pytest.fixture
def order_checked(monkeypatch):
    """Check every chart list the runs read, `charts_containing`,
    `support_charts` and `charts`, against a sort by (root position,
    path); returns the count of lists checked."""
    counts = {"lists": 0}
    roots: dict[str, int] = {}

    def check(charts):
        charts = list(charts)
        for ch in charts:
            if not ch.path:
                roots.setdefault(ch.label, len(roots))
        assert charts == sorted(charts, key=lambda ch: (roots[ch.label], tuple(ch.path)))
        counts["lists"] += 1
        return charts

    def checking(method):
        def wrapped(self, *args):
            return check(method(self, *args))

        return wrapped

    charts = Configuration.charts.fget
    monkeypatch.setattr(Configuration, "charts", property(lambda self: tuple(check(charts(self)))))
    for name in ("charts_containing", "support_charts"):
        monkeypatch.setattr(Configuration, name, checking(getattr(Configuration, name)))
    return counts


@pytest.mark.parametrize("name", list(ORDER_RUNS))
def test_chart_order_is_root_position_then_path(name, order_checked):
    ORDER_RUNS[name]()
    assert order_checked["lists"] > 0


def test_chart_order_past_a_machine_word(order_checked, monkeypatch):
    """Reducing draw (2, 191) grows places to 551 bits over 3935 blow-ups;
    they still sort in chart order, where keys cut to 64 bits would not.
    Each record lists the charts its step replaced in chart order too,
    those of the first monomial stage's run included, which reads no
    chart list."""
    widest = [0]
    add = core._ChartIndex.add

    def widening(self, ch, place):
        widest[0] = max(widest[0], place.bit_length())
        add(self, ch, place)

    monkeypatch.setattr(core._ChartIndex, "add", widening)
    cfg = draw(2, 191)
    roots = {ch.label: n for n, ch in enumerate(cfg.charts)}
    _, records = reduce(cfg)
    for rec in records:
        keys = [key for key, _ in rec.outcomes]
        assert keys == sorted(keys, key=lambda key: (roots[key[0]], tuple(key[1])))
    assert widest[0] > 64 and order_checked["lists"] > 500 and len(records) > 3000


def run_paths(result) -> list[PathNode]:
    """Every path a run's result holds: its final charts' and its records'."""
    if isinstance(result, tuple):
        _, records, final = result
    else:
        records, final = result.records, result.final
    paths = [ch.path for ch in final.charts]
    for rec in records:
        for (_, parent), children in rec.outcomes:
            paths.append(parent)
            paths.extend(children)
    return paths


@pytest.mark.parametrize("name", list(ORDER_RUNS))
def test_nodes_behave_as_tuples(name):
    seen = 0
    for node in run_paths(ORDER_RUNS[name]()):
        t = tuple(node)
        assert isinstance(node, PathNode)
        assert node == t and t == node and not node != t
        assert hash(node) == hash(t)
        assert len(node) == len(t) == node.depth
        assert bool(node) == bool(t)
        assert list(node) == list(t)
        for i, j in itertools.product([None, 0, 1, -1, len(t) // 2], repeat=2):
            assert node[i:j] == t[i:j]
        if t:
            assert node[0] == t[0] and node[-1] == t[-1] == node.last
            assert node.parent == t[:-1]
            assert node != t[:-1] + ((t[-1][0], t[-1][1] + 1),)
            assert node < t + ((t[-1][0] + 1, 0),) and not node < t
            assert node.top == max(k for _, k in t)
        else:
            assert node is ROOT
        seen += 1
    assert seen > 0


def test_equal_nodes_of_two_runs():
    first, second = principalize(tower(25)), principalize(tower(25))
    assert first.records == second.records
    assert first.final == second.final
    a, b = first.final.charts[-1].path, second.final.charts[-1].path
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != b.parent and b.parent != a


def test_a_blow_up_makes_one_node_per_child():
    cfg = golden_config()
    (root,) = cfg.charts
    assert root.path is ROOT
    grown, rec = blow_up_global(cfg, {X, Y, U, V})
    ((_, kids),) = grown.step
    assert [kid.path.last for kid in kids] == [(1, k) for k in (X, Y, U, V)]
    assert all(kid.path.parent is ROOT and kid.path.top == kid.path.last[1] for kid in kids)
    assert rec.outcomes == ((("U", ()), tuple(((1, k),) for k in (X, Y, U, V))),)
    second = principalize(tower(25)).records[1]
    cfg = blow_up_global(tower(25), {X, Y})[0]
    for parent, kids in blow_up_global(cfg, second.center)[0].step:
        assert [kid.path.parent for kid in kids] == [parent.path] * len(kids)
        assert all(kid.path.parent is parent.path for kid in kids)


def test_the_hash_is_taken_once(monkeypatch):
    node = principalize(tower(25)).final.charts[-1].path
    walks = []
    iterate = PathNode.__iter__
    monkeypatch.setattr(PathNode, "__iter__", lambda self: walks.append(self) or iterate(self))
    fresh = PathNode(node.parent, node.last, node.depth, node.top)
    assert hash(fresh) == hash(fresh) == hash(node)
    assert [w for w in walks if w is fresh] == [fresh]


def test_deep_paths_pickle():
    """A node pickles as its tuple: a path 5000 steps deep would otherwise
    recurse past the interpreter's limit."""
    path = tuple((stage, stage % 2) for stage in range(1, 5001))
    cfg = Configuration(("x", "y"), (replace(chart(2, [mono({X: 1})], 1), path=path),), 2, 5000)
    copy = pickle.loads(pickle.dumps(cfg))
    assert copy == cfg and type(copy.charts[0].path) is PathNode
    assert pickle.loads(pickle.dumps(ROOT)) is ROOT


def test_roots_share_one_node():
    doc = {
        "components": ["x", "y"],
        "dim_p": 2,
        "mark": 1,
        "charts": [
            {"name": "A", "e_components": ["x"], "generators": [{"x": 2}]},
            {"name": "B", "e_components": ["y"], "generators": [{"y": 2}]},
        ],
    }
    assert all(ch.path is ROOT for ch in load_config(doc).charts)


class TestCallerPaths:
    """A path given as a tuple is checked and becomes a node when a
    configuration is built; a node is kept as it is."""

    def build(self, path):
        ch = replace(chart(3, [mono({X: 1})], 1), path=path)
        return Configuration(("x", "y", "z"), (ch,), 3, 5)

    def test_tuple_becomes_a_node(self):
        cfg = self.build(((1, X), (3, U)))
        (ch,) = cfg.charts
        assert type(ch.path) is PathNode and ch.path == ((1, X), (3, U))
        assert ch.path.parent.parent is ROOT
        assert self.build(()).charts[0].path is ROOT
        assert Configuration(cfg.registry, cfg.charts, 3, 5).charts[0] is ch

    @pytest.mark.parametrize(
        "path",
        [
            ((2, 0), (1, 1)),
            ((1, 0), (1, 1)),
            ((0, 0),),
            ((-1, 0),),
            ((1.5, 0),),
            ((True, 0),),
            ((1, "x"),),
            (("1", 0),),
            ((1, 0, 5),),
            (1,),
            [(1, 0)],
            ((1, None),),
        ],
    )
    def test_malformed_path_refused(self, path):
        with pytest.raises(ValidationError, match="^chart 'U': "):
            self.build(path)

    def test_node_components_must_be_registered(self):
        """Checked in O(1), from the node's largest component."""
        ch = principalize(tower(25)).final.charts[-1]
        assert ch.path.top >= 2
        bare = replace(chart(1, [mono({X: 1})], 1), path=ch.path)
        with pytest.raises(ValidationError, match="^chart 'U': path references an unregistered component$"):
            Configuration(("x", "y"), (bare,), 2, 10**6)


def retained_bytes(fn) -> int:
    """The bytes still allocated, after a collection, while `fn`'s result
    is held."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del result
    return after - before


def test_tower100_result_is_small():
    """Records hold nodes, not copies of every child's path: a 1554-step
    result keeps about 1.6 MB (3.9 MB with tuple paths)."""
    cfg = tower(100)
    assert retained_bytes(lambda: principalize(cfg)) < 2.5e6
