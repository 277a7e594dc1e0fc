"""A lineage of configurations shares one append-only registry name list
and one map from name to id.

Each registry reads the list up to its own length and equals the tuple of
its names.  `Growth` names each new component by the names before it, so a
configuration grown from a second time names it as the first branch did,
and no branch copies the list or the map.  No blow-up step reads a
registry whole.
"""

from __future__ import annotations

import pytest

from conftest import chart, config, golden_config, mono, permissible_centers
from monored.core import Configuration, Growth, Registry
from monored.resolution import principalize
from monored.serialize import StepRenderer
from monored.transform import blow_up_global

X, Y, U, V = 0, 1, 2, 3
K = frozenset({X, Y, U, V})


def tower(e: int) -> Configuration:
    """(x^e, y^3) with mark 1 on one chart."""
    return config(("x", "y"), [chart(2, [mono({X: e}), mono({Y: 3})], 1)], 2)


class TestSharedRegistry:
    """A lineage shares one append-only name list and name map; each
    registry reads them up to its own length, and every branch names a
    position alike."""

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

    @staticmethod
    def assert_branches_alike(parent, *branches):
        """Each branch grown from `parent` holds the parent's list and map,
        and names the new component as a copy of the parent on a list of
        its own does, under the id after the parent's names."""
        n = len(parent.registry)
        alone = Configuration(parent.registry, parent.charts, parent.dim_p, parent.n_blowups)
        name = Growth(alone).apply([])[n]
        for branch in branches:
            assert branch.registry._names is parent.registry._names
            assert branch.registry._ids is parent.registry._ids
            assert branch.registry == parent.registry + (name,)
            assert branch.component_id(name) == n

    def test_branches_name_each_position_alike(self):
        """At every step of a run, a side branch along another centre and
        the run itself name the new component alike; so does a second run
        grown from a configuration kept after the first step."""
        records = principalize(tower(25)).records
        cfg = tower(25)
        for rec in records:
            others = [c for c in permissible_centers(cfg) if c != rec.center]
            side, _ = blow_up_global(cfg, (others or [rec.center])[0])
            grown, _ = blow_up_global(cfg, rec.center)
            self.assert_branches_alike(cfg, side, grown)
            cfg = grown
        assert cfg.registry == ("x", "y") + tuple(f"exc{s}" for s in range(1, len(records) + 1))
        kept, _ = blow_up_global(tower(25), records[0].center)
        first = kept
        for rec in records[1:]:
            first, _ = blow_up_global(first, rec.center)
        again = kept
        for rec in records[1:]:
            grown, _ = blow_up_global(again, rec.center)
            self.assert_branches_alike(again, grown)
            again = grown
        assert again == first and len(first.registry._names) == len(first.registry)

    def test_steps_build_no_registry_tuple(self, monkeypatch):
        """Neither a blow-up nor the trace renderer reads a registry whole."""
        trace = principalize(config(("x", "y"), [chart(2, [mono({X: 30}), mono({Y: 3})], 1)], 2))
        cfg, records = trace.initial, trace.records
        cfg.support_charts()
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
            renderer(cfg.registry, cfg.step, again)
        assert reads == []
        assert len(renderer.objs) == len(records) > 100
