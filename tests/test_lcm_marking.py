"""Lcm marking of marked-ideal sums.

`sum_marked` marks a sum with the lcm of the marks.  The draws pinned here
are companion-heavy: marking their sums with the product of the marks
instead raises 5-generator ideals to powers of 60-288, which
`power_generators` does not enumerate within minutes.  The property test
checks the equivalence the lcm marking rests on against the product-marking
reference in `conftest`.
"""

from __future__ import annotations

import hashlib
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
    product_sum_marked,
    random_config,
)
from monored.core import sum_marked
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


def draw(seed: int, index: int):
    rng = random.Random(seed)
    for _ in range(index + 1):
        cfg = random_config(rng)
    return cfg


@pytest.mark.parametrize("seed,index", list(COMPANION_DRAWS))
def test_companion_draw_digest(seed, index):
    final, records = reduce(draw(seed, index))
    obj = final_state_obj(final, records)
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    assert (digest, len(records)) == COMPANION_DRAWS[(seed, index)]


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
