"""Configurations pickle and copy as the configurations they equal.

The chart index of a configuration goes by chart identity, which no copy
keeps, so a pickled or copied configuration is rebuilt through the
constructor from its names, charts, `dim_p` and `n_blowups`.  Each copy
must answer and grow as its original does, and must not change when the
original is grown.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from conftest import golden_config, permissible_centers
from monored.core import support
from monored.serialize import config_to_obj, load_config
from monored.transform import blow_up_global

X, Y, U, V = 0, 1, 2, 3
K = frozenset({X, Y, U, V})


def queried_input():
    """A loaded input whose chart index one support query has built."""
    cfg = load_config(config_to_obj(golden_config()))
    support(cfg)
    return cfg


def grown():
    """A blow-up result, which holds its charts in the index alone."""
    return blow_up_global(golden_config(), K)[0]


def kept_grown_from():
    """A blow-up result kept after it is grown from: it holds neither a
    chart tuple nor an index, only the link to undo the blow-up from."""
    kept = grown()
    blow_up_global(kept, permissible_centers(grown())[-1])
    return kept


CASES = {"queried input": queried_input, "grown": grown, "kept grown-from": kept_grown_from}
COPIES = {
    "pickle": lambda cfg: pickle.loads(pickle.dumps(cfg)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("case", CASES)
def test_copy_answers_and_grows_as_the_original(case, how):
    original = CASES[case]()
    center = permissible_centers(CASES[case]())[0]
    duplicate = COPIES[how](original)
    assert duplicate == original
    assert duplicate.support_charts() == original.support_charts()
    assert duplicate.charts_containing(center) == original.charts_containing(center)
    assert blow_up_global(duplicate, center) == blow_up_global(original, center)


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("case", CASES)
def test_copy_stays_when_the_original_grows(case, how):
    original, twin = CASES[case](), CASES[case]()
    duplicate = COPIES[how](original)
    blow_up_global(original, permissible_centers(twin)[0])
    assert duplicate == twin
    assert duplicate.support_charts() == twin.support_charts()
