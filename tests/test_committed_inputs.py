"""Every input document committed in the repository loads and
round-trips.

A rule `load_config` enforces must never make a shipped input or trace
unreadable: the long benchmark cases, the input section of the pinned
trace and the example configuration in the README all have to pass it,
and `config_to_obj` must write each one's configuration back as a
document `load_config` reads as the same configuration.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from monored.core import Configuration
from monored.serialize import config_to_obj, load_config, read_json_file

ROOT = Path(__file__).resolve().parent.parent


def documents() -> dict:
    docs = {
        f"bench/long_cases/{path.name}": read_json_file(str(path))
        for path in sorted((ROOT / "bench" / "long_cases").glob("*.json"))
    }
    trace = read_json_file(str(ROOT / "tests" / "data" / "worked_blowup_trace1.json"))
    docs["worked_blowup_trace1.json input"] = trace["input"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for i, block in enumerate(re.findall(r"```json\n(.*?)```", readme, re.S)):
        docs[f"README.md json block {i}"] = json.loads(block)
    return docs


DOCUMENTS = documents()


def test_every_kind_is_found():
    names = list(DOCUMENTS)
    assert sum(n.startswith("bench/long_cases/") for n in names) == 5
    assert sum(n.startswith("README.md") for n in names) == 1


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_loads(name):
    cfg = load_config(DOCUMENTS[name])
    assert isinstance(cfg, Configuration)
    assert load_config(config_to_obj(cfg)) == cfg
