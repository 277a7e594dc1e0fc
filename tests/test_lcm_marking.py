"""Lcm marking of marked-ideal sums.

`sum_marked` marks a sum with the lcm L of the marks and raises each
generator of a summand marked b to the power L/b, not the whole ideal.  The
draws pinned here are companion-heavy.  Those at the acceptance bounds do
not finish within minutes when sums are marked with the product of the
marks.  Those at bounds <=10 are the ones whose largest sum mark fell most
when whole-ideal powers gave way to generator powers (from up to 2 910 600
to at most 231); their digests were recorded with whole-ideal powers, except
for (5, 229), which then overflowed the 64-bit mark range.  The property
tests check the equivalence the marking rests on against the product-marking
reference in `conftest`, and that a sum never has more generators than its
summands.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest

from conftest import (
    NAMES,
    chart,
    config,
    config_support_set,
    ideal,
    mono,
    permissible_centers,
    power_generators,
    product_sum_marked,
    random_config,
)
from monored.core import minimalize, sum_marked
from monored.reduction import reduce
from monored.serialize import canonical_json, final_state_obj
from monored.transform import blow_up_global

# (seed, index) of the draw -> (final-state digest, blow-ups)
COMPANION_DRAWS = {
    (2, 253): ("125a16372cd329ca6ef514d3da96098e4658487c6b819e7734eb10c1387097a2", 25),
    (9, 157): ("ae1d8b676e6a3f4eecbf84926be5c4c16f3993387292262a992607483205dfee", 471),
    (9, 195): ("d18f6b3d9f6fcaaa7580a6809663dedd786466a6a361a484b220292a1843f566", 950),
    (11, 150): ("fac3d1068d67010030796e7e83f331854c05e20bef96a2a14373557c4d2bfb8e", 127),
    (12, 142): ("a72d37e2189dfeb53552b7da762fd3507f702122309c8bc130c912a7199c25e2", 952),
    (21, 90): ("7a86da2e0b266f42e490116df3edb9fcd8907e9fd3520159328aeab6c8d85a1b", 50),
}

# Draws at exponents and marks <=10: (seed, index) -> (final-state digest,
# blow-ups), and the largest sum mark with whole-ideal powers in a comment.
WIDE_DRAWS = {
    (1, 89): ("535edf6c1d54f586187b7a734d97d6e445208975b3deef45d983e09550e9fe3d", 9),  # 2 910 600
    (1, 5): ("ff8b3ed3c539eaa57fb00f49c57bcebcf50e596dc2d9c4976cca04ed0aecb542", 661),  # 211 680
    (1, 179): ("abf748bb59f620381c6e626012c62b7a8f777a43ae4b510404bf9e228b174b22", 727),  # 30 240
    (1, 183): ("2627c83f9d3e72f207fd3481e378969660c2f23a08c85c98afe7b1a97f82ec21", 45),  # 15 120
    (5, 40): ("aabfac99afe82251d76d9b9df25e9a3d033d02acdf54222fdc34d91b76fb714c", 36),  # 2 520
    (5, 206): ("9b0f3e07db3458f91278c5e7baa5e6cb0db4777b399c820a74934bef44eaed5d", 158),  # 2 016
    # overflowed the mark range with whole-ideal powers
    (5, 229): ("ca85be529a0065c9fe074debc0af3b0c5794cbaf306b643560f5329f09210f5f", 1655),
}
WIDE_BOUNDS = {"max_exp": 10, "max_mark": 10}


def draw(seed: int, index: int, **bounds):
    rng = random.Random(seed)
    for _ in range(index + 1):
        cfg = random_config(rng, **bounds)
    return cfg


@pytest.mark.parametrize("seed,index", list(COMPANION_DRAWS))
def test_companion_draw_digest(seed, index):
    final, records = reduce(draw(seed, index))
    obj = final_state_obj(final, records)
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    assert (digest, len(records)) == COMPANION_DRAWS[(seed, index)]


@pytest.mark.parametrize("seed,index", list(WIDE_DRAWS))
def test_wide_draw_digest(seed, index):
    final, records = reduce(draw(seed, index, **WIDE_BOUNDS))
    obj = final_state_obj(final, records)
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    assert (digest, len(records)) == WIDE_DRAWS[(seed, index)]


def one_chart(marked):
    return config(NAMES[:3], [chart(3, marked.generators, marked.mark)], 3)


def test_lcm_and_product_marking_keep_one_support_under_blowups():
    rng = random.Random(17)
    informative = 0
    for _ in range(150):
        summands = [
            ideal(
                [
                    mono({c: rng.randint(0, 4) for c in range(3)})
                    for _ in range(rng.randint(1, 2))
                ],
                rng.randint(1, 4),
            )
            for _ in range(rng.randint(2, 3))
        ]
        lcm_sum, product_sum = sum_marked(summands), product_sum_marked(summands)
        lcm_cfg, product_cfg = one_chart(lcm_sum), one_chart(product_sum)
        for step in range(3):
            assert config_support_set(lcm_cfg) == config_support_set(product_cfg)
            centers = permissible_centers(lcm_cfg)
            assert centers == permissible_centers(product_cfg)
            if not centers:
                break
            informative += step == 0 and lcm_sum.mark < product_sum.mark
            center = rng.choice(centers)
            lcm_cfg, _ = blow_up_global(lcm_cfg, center)
            product_cfg, _ = blow_up_global(product_cfg, center)
        assert config_support_set(lcm_cfg) == config_support_set(product_cfg)
    # draws whose marks differ and that admit at least one blow-up
    assert informative >= 40


def test_a_sum_never_expands():
    x, y, z = mono({0: 1}), mono({1: 1}), mono({2: 1})
    total = sum_marked([ideal([x, y], 1), ideal([z], 2)])
    assert (total.generators, total.mark) == (minimalize([x.power(2), y.power(2), z]), 2)
    rng = random.Random(29)
    for _ in range(200):
        summands = [
            ideal(
                [
                    mono({c: rng.randint(0, 4) for c in range(3)})
                    for _ in range(rng.randint(1, 3))
                ],
                rng.randint(1, 6),
            )
            for _ in range(rng.randint(1, 3))
        ]
        total = sum_marked(summands)
        lcm = math.lcm(*(s.mark for s in summands))
        assert total.mark == lcm
        assert len(total.generators) <= sum(len(s.generators) for s in summands)
        assert total.generators == minimalize(
            [g.power(lcm // s.mark) for s in summands for g in s.generators]
        )


def test_power_generators():
    gens = (mono({0: 1}), mono({1: 1}))
    squares = power_generators(gens, 2)
    assert squares == minimalize([mono({0: 2}), mono({0: 1, 1: 1}), mono({1: 2})])
