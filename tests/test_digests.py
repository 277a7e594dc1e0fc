"""Pinned digests of canonical final states.

Each run below is serialized with `final_state_obj` and hashed; a change to
the engine that keeps these digests keeps the blow-up sequences and the
final configurations byte for byte.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from conftest import chart, config, golden_config, mono, random_config
from monored.reduction import reduce
from monored.resolution import principalize, weak_resolve
from monored.serialize import canonical_json, final_state_obj

X, Y = 0, 1


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def tower25():
    """(x^25, y^3) with mark 1 on one chart."""
    return config(("x", "y"), [chart(2, [mono({X: 25}), mono({Y: 3})], 1)], 2)


def random_draws():
    rng = random.Random(1)
    return [random_config(rng) for _ in range(20)]


def reduce_run(cfg):
    final, records = reduce(cfg)
    return cfg, records, final


def trace_run(fn, cfg):
    tr = fn(cfg)
    return tr.initial, tr.records, tr.final


FINAL_STATE_DIGESTS = {
    "reduce worked": "4bd3767957df0020fb14cf073073db77669e62ac2978e83b86f6fcab9c66b5f9",
    "principalize tower25": "a07b3a5bd0d55aa3dfcf4bf871b0d19d60564ccf370d62f74cbc59d84638f8fc",
    "weak_resolve tower25": "a07b3a5bd0d55aa3dfcf4bf871b0d19d60564ccf370d62f74cbc59d84638f8fc",
    "reduce draw 0": "4b17306f754593995035cf0bdc52fe9f3c4b9eb3156592df046ee691af45d108",
    "reduce draw 1": "e5ca2584fb8fe1dc36ea4d290e514a606a95bd04af0eca1248578e9bac3ae73e",
    "reduce draw 2": "4e4b0b2c0fe2ac3dcd5bfd8fccd69986afdbc9a05afd256f3bf11d11a258943c",
    "reduce draw 3": "1e1d684fa3f09cc5b1efeacdf61e315c60d726b3a23fd0f1202e1f01677bf1b7",
    "reduce draw 4": "aa3873af12ed7942ea10daea1bd23f3631f11a24ec1842c68d1c3e888d51491d",
    "reduce draw 5": "9b77f9ce6519c3a4610d9a6d618fcd58f439fb7d378ac4ce47e255c39b5a56ca",
    "reduce draw 6": "c2b51d51dc47506cbc936b043a3692d6e86f6708c4687170676a1bfdb9cac1ed",
    "reduce draw 7": "129e96f66971bb6fd812b00403b580e6b031dc2bbd8daa6ccf817203e02114ea",
    "reduce draw 8": "2e7eb7d911b663a9c77927ea48b97e465d6bce8963984c914f2709b241f95e27",
    "reduce draw 9": "76ad707486867fa2463924096aab8d3f7e090c7c0a5329299ae5d7cc5f887476",
    "reduce draw 10": "733d7e9df06edd86642b9570286832724e8011523b5e379d542bd7afa7314a43",
    "reduce draw 11": "d452e8d6ca5b312230b0fa3cfc8e6007947dab29e52d85e437f19cfb31586cf2",
    "reduce draw 12": "d568003cae763eed6a33f35868f57abf50a87d2db674cd3555c3d49f905503ed",
    "reduce draw 13": "b82f94cfbf2a41be2abd7d4defd04089a7eab3b34702aad59d9663c514005f68",
    "reduce draw 14": "3e77a6f4257becaec5583c6df7b965b5ce5eae59f08fd01f54aeba42d7b9ceb3",
    "reduce draw 15": "55f129a085c9b0a7949dcc853a5ec92bd568aa7f4a83a0c3c6754d559af176d4",
    "reduce draw 16": "4a6486c158a9588aa98d40125814b5214a42baca2a3e71999ce9c69d69775649",
    "reduce draw 17": "74fca4c284530ff6545818adae9bb0fb4b9ce4a80855a5cc5c7060509c3fbd9a",
    "reduce draw 18": "3b461468ad581fceb2445653c0ed8df81e8e49560c208959196de85ca92a0402",
    "reduce draw 19": "8020e77856d869b693f70a88b214785a38847a2fa67f03eb86f34c3170ea7dcb",
}


def runs():
    yield "reduce worked", lambda: reduce_run(golden_config())
    yield "principalize tower25", lambda: trace_run(principalize, tower25())
    yield "weak_resolve tower25", lambda: trace_run(weak_resolve, tower25())
    for i, cfg in enumerate(random_draws()):
        yield f"reduce draw {i}", lambda cfg=cfg: reduce_run(cfg)


RUNS = dict(runs())


@pytest.mark.parametrize("name", list(RUNS))
def test_final_state_digest(name):
    _, records, final = RUNS[name]()
    assert _digest(final_state_obj(final, records)) == FINAL_STATE_DIGESTS[name]
