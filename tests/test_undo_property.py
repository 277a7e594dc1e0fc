"""Branching growth against full validation, as a property.

Random one-chart draws are blown up along random permissible centres, each
step from any configuration built so far, and configurations are queried
in random order between and after the steps.  Whatever a configuration
holds when asked (its chart tuple, the index, or a link to undo from), its
answers must be those of the configuration built by full validation after
every step along the same centres.
"""

from __future__ import annotations

import random

import pytest

from conftest import index_answers, permissible_centers, random_config
from monored.core import Configuration
from monored.transform import blow_up_global

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def fully_validated(seed: int, centres) -> Configuration:
    cfg = random_config(random.Random(seed))
    for center in centres:
        grown, _ = blow_up_global(cfg, center)
        cfg = Configuration(grown.registry, grown.charts, grown.dim_p, grown.n_blowups)
    return cfg


def assert_same(cfg: Configuration, expected: Configuration) -> None:
    # names first: comparing makes the chart tuple, which lets the index go
    assert {n: cfg.component_id(n) for n in expected.registry} == {
        n: i for i, n in enumerate(expected.registry)
    }
    assert not cfg.is_registered(f"exc{expected.n_blowups + 1}")
    assert index_answers(cfg) == index_answers(expected)
    assert cfg == expected


@hypothesis.settings(max_examples=80, database=None, derandomize=True, deadline=None)
@hypothesis.given(seed=st.integers(0, 2**16), data=st.data())
def test_branching_growth_matches_full_validation(seed, data):
    nodes = [random_config(random.Random(seed))]
    paths: list[tuple] = [()]
    expected = [fully_validated(seed, ())]
    for _ in range(data.draw(st.integers(1, 16), label="actions")):
        # the newest configuration half the time, so chains of links grow
        newest = data.draw(st.booleans(), label="newest")
        i = len(nodes) - 1 if newest else data.draw(st.integers(0, len(nodes) - 1), label="node")
        centres = permissible_centers(expected[i])
        if centres and data.draw(st.integers(0, 3), label="grow"):
            center = data.draw(st.sampled_from(centres), label="center")
            grown, _ = blow_up_global(nodes[i], center)
            nodes.append(grown)
            paths.append(paths[i] + (center,))
            expected.append(fully_validated(seed, paths[-1]))
        else:
            assert_same(nodes[i], expected[i])
    for i in data.draw(st.permutations(range(len(nodes))), label="query order"):
        assert_same(nodes[i], expected[i])
