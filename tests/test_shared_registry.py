"""A lineage of configurations shares one append-only registry name list.

Each registry reads the list up to its own length and equals the tuple of
its names; a configuration grown from a second time copies its names to a
list of the new branch's own.  No blow-up step reads a registry whole.
"""

from __future__ import annotations

import pytest

from conftest import chart, config, golden_config, mono
from monored.core import Registry, grow
from monored.resolution import principalize
from monored.serialize import StepRenderer
from monored.transform import blow_up_chart, blow_up_global

X, Y, U, V = 0, 1, 2, 3
K = frozenset({X, Y, U, V})


class TestSharedRegistry:
    """A lineage shares one append-only name list; each registry reads it
    up to its own length, and a configuration grown from a second time
    copies its names to a list of the new branch's own."""

    NAMES = ("x", "y", "u", "v")

    def test_equals_the_tuple(self):
        grown, _ = blow_up_global(golden_config(), K)
        names = self.NAMES + ("exc1",)
        reg = grown.registry
        assert reg == names and names == reg and not reg != names
        assert hash(reg) == hash(names) and repr(reg) == repr(names)
        assert list(reg) == list(names) and len(reg) == 5
        assert reg[-1] == "exc1" and reg[1:3] == ("y", "u") and reg + ("w",) == names + ("w",)
        assert reg.index("u") == 2 and "exc1" in reg and "exc2" not in reg
        with pytest.raises(IndexError):
            reg[5]
        assert reg != names[:4] and reg != list(names)

    def test_lineage_shares_one_list(self):
        cfg = golden_config()
        first, _ = blow_up_global(cfg, K)
        second, _ = blow_up_global(first, {X, Y, U, 4})
        assert second.registry._names is first.registry._names is cfg.registry._names
        assert cfg.registry == self.NAMES
        assert first.registry == self.NAMES + ("exc1",)
        assert second.registry == self.NAMES + ("exc1", "exc2")

    def test_grown_from_twice_copies_the_prefix(self):
        parent = golden_config()
        kids = blow_up_chart(parent.charts[0], K, 4, 1)
        with_w = grow(parent, "w", [(parent.charts[0], kids)])
        with_z = grow(parent, "z", [(parent.charts[0], kids)])
        with_zw = grow(with_z, "w", [])
        with_ww = grow(with_w, "ww", [])
        assert with_z.registry._names is with_zw.registry._names
        assert with_z.registry._names is not with_w.registry._names
        assert parent.registry == self.NAMES
        assert with_ww.registry == self.NAMES + ("w", "ww")
        assert with_zw.registry == self.NAMES + ("z", "w")
        assert with_w.registry == self.NAMES + ("w",)
        assert with_w.registry != with_z.registry

    def test_steps_build_no_registry_tuple(self, monkeypatch):
        """Neither a blow-up nor the trace renderer reads a registry whole."""
        trace = principalize(config(("x", "y"), [chart(2, [mono({X: 30}), mono({Y: 3})], 1)], 2))
        cfg, records = trace.initial, trace.records
        cfg.support_charts()  # the index reads the names once
        reads = []

        def counting(name):
            method = getattr(Registry, name)

            def counted(self, *args):
                reads.append(name)
                return method(self, *args)

            return counted

        for name in ("__iter__", "__eq__", "__hash__", "__repr__"):
            monkeypatch.setattr(Registry, name, counting(name))
        renderer = StepRenderer()
        for rec in records:
            cfg, again = blow_up_global(cfg, rec.center)
            renderer(cfg, again)
        assert reads == []
        assert len(renderer.objs) == len(records) > 100
