"""A pinned many-chart run.

`reduce` on (a³b²d², b⁴c²d, ab²c⁴d²) with mark 4 and `dim_p` 4 makes 509
blow-ups and ends with 2190 charts, so it exercises the chart index over a
configuration far larger than the other pinned runs.  The digest is of the
canonical final state, as in `test_digests.py`.
"""

from __future__ import annotations

import hashlib

from conftest import chart, config, mono
from monored.reduction import reduce
from monored.serialize import canonical_json, final_state_obj

A, B, C, D = 0, 1, 2, 3

DIGEST = "7d2bbf1d72923dbeaa50101670271e0053ce887a20a205ab1ed4ad3dc59f41a4"


def mark4_config():
    gens = [mono({A: 3, B: 2, D: 2}), mono({B: 4, C: 2, D: 1}), mono({A: 1, B: 2, C: 4, D: 2})]
    return config(("a", "b", "c", "d"), [chart(4, gens, 4)], 4)


def test_reduce_mark4_pinned():
    final, records = reduce(mark4_config())
    assert len(records) == 509
    assert len(final.charts) == 2190
    state = canonical_json(final_state_obj(final, records)).encode("utf-8")
    assert hashlib.sha256(state).hexdigest() == DIGEST
