"""Pinned output of `monored check-lambda` and of what it asks the kernel.

Every result line reads `ok` whichever order the samples are drawn in, so
the stdout pin alone cannot see a reordered draw.  The call pins can: they
digest the arguments of every call the battery makes to the four checks
of `monored.arithmetic`, in call order.
"""

from __future__ import annotations

import hashlib

import pytest

from monored import arithmetic
from monored.arithmetic import IntPoly, ReesElement
from monored.cli import main
from monored.serialize import canonical_json

CHECKS = ("frobenius_lift_check", "rees_lift_check", "normal_cone_flat_check", "proj_chart_frobenius_check")

RESULT_LINES = (
    "frobenius_lift_check on 100 polynomials: ok",
    "rees_lift_check on monomial Rees elements: ok",
    "normal_cone_flat_check on (x, y): ok",
    "normal_cone_flat_check rejects (2, x): ok",
    "proj_chart_frobenius_check on localization samples: ok",
)

# sha256 of the canonical JSON of the kernel calls, by (seed, primes)
CALL_DIGESTS = {
    (0, "2,3,5,7"):
        "af4cb1798f341c7c45b6521f48f95eb488ab18f0db4dca3718277097209b1f6e",
    (0, "3"):
        "65769202d9fb763ad78204971355885e1c117f0ec343264af630fcac0cc9647b",
    (0, "11,13"):
        "a6afdac3c3f629e4128b45d4080d3d3f20ad5d6d9b5a3370ac44f29d1fdebc5e",
    (1, "2,3,5,7"):
        "8ee84d1352bd38518040051ac881843322eaf8b9afef8335be87f6d9be77cadc",
    (1, "3"):
        "972f8cffd76f2c6c161539a13152fdf46a5018a69ebc003e969b415edfb784da",
    (1, "11,13"):
        "7f92c64dd077d559ca015ef63c175caf2d5d75b47da340fb3ed70f714aa1100c",
    (5, "2,3,5,7"):
        "6ccecf06d894404d25c0cd2f2182f78502d3c9e9a5b2845062eb7a9ca677fe4a",
    (5, "3"):
        "0cbd240a0735800434ed5937258384b724a4a83df1920c9adc6f30d5ca845b93",
    (5, "11,13"):
        "bfad9c03cf1a151a91854c1ae94ccab68faed06e4e964c19b0490a3031a9e7bd",
    (123, "2,3,5,7"):
        "8be0e85f69f2f7066a3670d0504d3aa254e76008daec7ed36d696db334eb663a",
    (123, "3"):
        "17fd313f902b4f8d5fd73b874102f1221fc6ed71e5735899e39e972f5db7125c",
    (123, "11,13"):
        "5eb2866f940d74a757ab5a2150bdd1906269fc9fef7416ce8747f71ede3df69c",
}


def plain(value):
    """A kernel argument as JSON values: polynomials by their variables and
    terms, Rees elements by their parts, any sequence as a list."""
    if isinstance(value, IntPoly):
        return {"variables": list(value.variables), "terms": [[list(e), c] for e, c in value.terms]}
    if isinstance(value, ReesElement):
        return {"parts": [[d, plain(f)] for d, f in value.parts]}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def recorded_run(monkeypatch, capsys, argv):
    """Exit code, stdout and the kernel calls of one `main(argv)`."""
    calls = []
    for name in CHECKS:
        check = getattr(arithmetic, name)

        def recording(*args, _name=name, _check=check):
            calls.append([_name, plain(args)])
            return _check(*args)

        monkeypatch.setattr(arithmetic, name, recording)
    code = main(argv)
    return code, capsys.readouterr().out, calls


@pytest.mark.parametrize("seed, primes", sorted(CALL_DIGESTS), ids=lambda v: str(v))
def test_battery_pins(monkeypatch, capsys, seed, primes):
    code, out, calls = recorded_run(monkeypatch, capsys, ["check-lambda", "--primes", primes, "--seed", str(seed)])
    assert code == 0
    listed = [int(p) for p in primes.split(",")]
    assert out == "\n".join(("monored report 1", f"seed {seed}, primes {listed}") + RESULT_LINES) + "\n"
    digest = hashlib.sha256(canonical_json(calls).encode("utf-8")).hexdigest()
    assert digest == CALL_DIGESTS[(seed, primes)]
