"""The bytes the CLI writes, and how `cli._emit` writes them.

A trace is written in its canonical form, `canonical_json(doc) + "\\n"`,
streamed in pieces.  Each output carries two pins, (bytes, SHA-256): one of
the canonical text the CLI writes, and one of the indented text it wrote
before, `json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) +
"\\n"`, checked against the output re-rendered in that form, so the
document is held to the old bytes as well as the new ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import stat
import sys
import threading
from pathlib import Path

import pytest

import monored
from monored.cli import _emit, main
from monored.resolution import principalize
from monored.serialize import StepRenderer, canonical_json, load_config, trace_document, write_canonical

WORKED = {
    "components": ["x", "y", "u", "v"],
    "dim_p": 4,
    "mark": 5,
    "charts": [
        {
            "name": "U",
            "e_components": ["x", "y", "u", "v"],
            "n_vars": [],
            "p_components": [],
            "generators": [{"x": 2, "y": 3}, {"x": 2, "v": 6}, {"y": 4, "u": 5}],
        }
    ],
}


def tower(e: int) -> dict:
    """(x^e, y^3) with mark 1 on one chart."""
    return {
        "components": ["x", "y"],
        "dim_p": 2,
        "mark": 1,
        "charts": [
            {
                "name": "U",
                "e_components": ["x", "y"],
                "n_vars": [],
                "p_components": [],
                "generators": [{"x": e}, {"y": 3}],
            }
        ],
    }


def dumps(obj) -> str:
    """The indented form the CLI wrote traces in before."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def canonical(obj) -> str:
    """The form the CLI writes traces in."""
    return canonical_json(obj) + "\n"


def pin(text: str) -> tuple[int, str]:
    data = text.encode("utf-8")
    return len(data), hashlib.sha256(data).hexdigest()


# --- the CLI's bytes ----------------------------------------------------------

# command, input, flags -> (bytes, SHA-256) of the --out file as written,
# and of the file re-rendered by `dumps`, as the CLI wrote it before
OUT_FILES = {
    "blowup": (
        WORKED, ["--center", "x,y,u,v"],
        (2015, "9e97603efcdb5fb2b5e4c2fe70d016d74756a27152d0f5c845804986fb2fc014"),
        (5232, "a1824ea3dad7fbb3f0071061463ddcd1dbdba2a58512b3832f5a8b0836bd7d3d"),
    ),
    "reduce": (
        WORKED, [],
        (27605, "90fcbfbb10944d00a2686d18ddd95b38776172da3e5a7d0ea83403db61d90530"),
        (78016, "168f6f22603f1d1474d2fbb04a8522e2802cdf1a383eb9c5259e73309c692a01"),
    ),
    "principalize": (
        tower(25), [],
        (183941, "902d251919b7f11d6952ab81c09a60468ffd12e0ddac71a48460fa7cedb0e5f2"),
        (295676, "2b77edf1e34c959738d0cb3a9ea89c62fd8e2b359c4e5ec39ef4d865258579dc"),
    ),
    "resolve": (
        tower(10), [],
        (33799, "b45a3ec5b0f49dc0aefbeec8fa0a025eb96256d25939dd5c15b7d41ec6ef6638"),
        (68133, "4fc213175677ae3ba1fd57ca9b6f810d180a837c2f8804c18cb3866a7e235f54"),
    ),
}

# command -> (bytes, SHA-256) of standard output without --out, as UTF-8,
# as written and with its last line, the trace, re-rendered by `dumps`
STDOUT = {
    "blowup": (
        (2062, "df3a646e2c9300c1e296c7f6c39938dffd4d63087517cc936ee71ad46391294d"),
        (5279, "71063f09cb5e271b3dcd0e7e5b8f241b0bc09c31ab68cfaca08acaf1991a3a9e"),
    ),
    "reduce": (
        (27670, "cc64b4d8e9379204e81d769cc020253eea1484fe12a3cb5f630d2105620771dc"),
        (78081, "63e6e523e00e2596e6a8068e76dfa19e616019cb11f25de8a24b75644acdf94d"),
    ),
}


def run(command, tmp_path, extra=()):
    doc, flags, *_ = OUT_FILES[command]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main([command, str(path), *flags, *extra]) == 0


@pytest.mark.parametrize("command", list(OUT_FILES))
def test_out_file_bytes_are_pinned(command, tmp_path, capsys):
    out = tmp_path / "trace.json"
    run(command, tmp_path, ["--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert pin(text) == OUT_FILES[command][2]
    assert pin(dumps(json.loads(text))) == OUT_FILES[command][3]


@pytest.mark.parametrize("command", list(STDOUT))
def test_stdout_bytes_are_pinned(command, tmp_path, capsys):
    run(command, tmp_path)
    text = capsys.readouterr().out
    assert pin(text) == STDOUT[command][0]
    report, _, trace = text.rstrip("\n").rpartition("\n")
    assert pin(report + "\n" + dumps(json.loads(trace))) == STDOUT[command][1]


@pytest.mark.parametrize("command", list(OUT_FILES))
def test_each_trace_file_is_its_canonical_form(command, tmp_path, capsys):
    out = tmp_path / "trace.json"
    run(command, tmp_path, ["--out", str(out)])
    text = out.read_text(encoding="utf-8")
    assert text == canonical(json.loads(text))


@pytest.mark.parametrize("command", list(OUT_FILES))
def test_an_indented_trace_still_replays(command, tmp_path, capsys):
    """A trace in the indented form the CLI wrote before, byte for byte,
    replays as the canonical one does: JSON whitespace carries no meaning."""
    out = tmp_path / "trace.json"
    run(command, tmp_path, ["--out", str(out)])
    indented = tmp_path / "indented.json"
    indented.write_text(dumps(json.loads(out.read_text(encoding="utf-8"))), encoding="utf-8")
    assert pin(indented.read_text(encoding="utf-8")) == OUT_FILES[command][3]
    capsys.readouterr()
    for trace in (out, indented):
        assert main(["replay", "--trace", str(trace)]) == 0
        assert capsys.readouterr().out.endswith("replay: final state identical\n")


# --- streaming and failures ---------------------------------------------------

class Recorder:
    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_the_tower_trace_is_written_in_pieces(monkeypatch):
    steps = StepRenderer()
    trace = principalize(load_config(tower(100)), on_step=steps)
    doc = trace_document(trace.initial, steps, trace.final, trace.records)
    out = Recorder()
    monkeypatch.setattr(sys, "stdout", out)
    _emit(None, doc)
    text = "".join(out.writes)
    assert text == canonical(doc)
    assert dumps(json.loads(text)) == dumps(doc)
    # about 5 MB of text, never handed over as one string
    assert max(map(len, out.writes)) < len(text) // 1000


@pytest.mark.parametrize(
    "doc",
    [
        {"b": [(), {}, [1, (2.5, None)]], "a": {"z": [{"y": [[{"x": [True]}]]}]}, "é": "x̄²"},
        {"keys": {2: "two", 1: "one"}, "nested": [[[[[[[[0]]]]]]]]},
        [],
        "x̄",
    ],
    ids=["mixed", "int-keys-and-depth", "empty", "scalar"],
)
def test_the_pieces_are_the_canonical_text(doc):
    out = Recorder()
    write_canonical(doc, out)
    assert "".join(out.writes) == canonical_json(doc)


# enough items that part of the document is written before the failure
UNWRITABLE = {"records": list(range(50_000)), "z": object()}


@pytest.mark.parametrize("existing", [False, True])
def test_a_failed_emit_leaves_no_partial_file(existing, tmp_path, capsys):
    out = tmp_path / "trace.json"
    if existing:
        out.write_text("an older trace", encoding="utf-8")
    with pytest.raises(TypeError):
        _emit(str(out), UNWRITABLE)
    assert [p.name for p in tmp_path.iterdir()] == (["trace.json"] if existing else [])
    if existing:
        assert out.read_text(encoding="utf-8") == "an older trace"
    assert capsys.readouterr().out == ""


def test_emit_through_a_symlink_replaces_its_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("an older trace", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    with pytest.raises(TypeError):
        _emit(str(link), UNWRITABLE)
    assert target.read_text(encoding="utf-8") == "an older trace"
    doc = {"records": [1, 2], "rendered": "x̄²"}
    _emit(str(link), doc)
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text(encoding="utf-8") == canonical(doc)
    assert target.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_emit_to_a_pipe_writes_in_place(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received: list[str] = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True
    )
    reader.start()
    doc = {"records": [1, 2], "rendered": "x̄²"}
    _emit(str(fifo), doc)
    reader.join(timeout=10)
    assert received == [canonical(doc)]
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [p.name for p in tmp_path.iterdir()] == ["pipe"]


# --- imports ------------------------------------------------------------------

def test_the_cli_leaves_the_arithmetic_kernel_unloaded():
    src = str(Path(monored.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, monored.cli; print('monored.arithmetic' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False\n")
