"""Pinned digests of the canonical trace documents of the runs in
`test_digests`.
"""

from __future__ import annotations

import pytest

from monored.serialize import trace_to_obj
from test_digests import RUNS, _digest


# Digests of the `trace_to_obj` documents of the same runs.  Each equals the
# digest of the monored-trace-1 document the engine wrote before untouched
# charts left the blow-up records, with its "untouched" outcome entries
# removed and its format string changed to monored-trace-2.
TRACE_DIGESTS = {
    "reduce worked": "738624b400d19372682bbe4c9a39077dbf65d4f5ffcd98d8b9efe279ef1c2de1",
    "principalize tower25": "3d4d3891a0d6edc144bd5e9bc08c47c6db3680ac7f9329af07461e3037a38a22",
    "weak_resolve tower25": "3d4d3891a0d6edc144bd5e9bc08c47c6db3680ac7f9329af07461e3037a38a22",
    "reduce draw 0": "bb2bddf09b6ccd19a5a4e293f789a712a5fbdfc88fc929f4d733edb36823c59b",
    "reduce draw 1": "06cdaf2a13a820674ebb1d8f3eb98cd8dc4d16b0c870e02b0d8f87ce6ea95bbe",
    "reduce draw 2": "ed3eaa252c5aa3369d93d5ed17f1fcfde3dccb544c4b6db252b85313d4fccb2e",
    "reduce draw 3": "c844a35754c189f14fc3de1379ee6e033e2651beae6351d98dc0886b6999fcda",
    "reduce draw 4": "058b4c58742ea259f8107123a2c9ae55910694eef364df079cb82ce9febfe660",
    "reduce draw 5": "e18a10fcef7f8d9c866466a554cc68b939e6e41ffc48b392e8e0d1b7723eb7bb",
    "reduce draw 6": "e1b63605e6cc146542cdb369302753ddd35b8b441f08e9839d0d5b9ecf64709a",
    "reduce draw 7": "75011b8de834722418741e637985b91fbd2735ff6386c8c83adaf7555168cf24",
    "reduce draw 8": "9a158f6a8980c77ae71638b07b585df61dac15e545dab52a0094069f71a14a6e",
    "reduce draw 9": "b67462c4f64acb9c0103fb46bb501a55d95576a6434a34092f698e27d483fd04",
    "reduce draw 10": "502ee47c1750b2046ce718d73a9e4474c177f5a65f4b6fe39ed54df01f5f19b0",
    "reduce draw 11": "1c9a9d39ff7bb2cb6eaf076f744751e4461531339b86c64a31b4a27acdba3b9f",
    "reduce draw 12": "476876e93215d191c50696c5c6ea5ae95653f79f421a8b112388696a2c0c896b",
    "reduce draw 13": "1d72656c9d14d5e39964b2ff2f2ac6cc578ae5f6e2c0699399b32d0164a08501",
    "reduce draw 14": "ad5392dceeb0b55727a4934439d35a2515e43b850e0e14f02db5d21e38287ffe",
    "reduce draw 15": "2e24fae3ccf7f49faf462d6acdecafad553f72479b47b4c3f599e8b5a6636ec6",
    "reduce draw 16": "c708d1dd057cf6d200a1156cc2b3c8dca264d90f062f15ce857f48d7a31f5f59",
    "reduce draw 17": "a7d0714cfe03fb9430b77fea1858b5dba95e830e62524aded1e5ff3b0f95a610",
    "reduce draw 18": "32445ca7b8c9ebb9601ac45df67bcfcad0983e727711167c28d8b53c4b7f5de9",
    "reduce draw 19": "9dd38a92cb0bb82b858346b2b506d25f3481cc86bf6521fa733367cedce4b2cc",
}


@pytest.mark.parametrize("name", list(RUNS))
def test_trace_digest(name):
    initial, records, final = RUNS[name]()
    assert _digest(trace_to_obj(initial, records, final)) == TRACE_DIGESTS[name]
