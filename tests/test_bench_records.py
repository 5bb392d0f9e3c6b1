"""The ``BENCH_<n>.json`` records at the repository root.

Each one holds the before/after runs behind a measured claim: the commit it
was measured against, the benchmark command it ran, and sets of paired
runs, each pair with a ``parent`` and a ``change`` side.  A record that
does not parse, or a pair with a side missing, cannot back its claim.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_record_parses_and_pairs_every_run(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{7,40}", record.get("parent_commit", ""))
    assert "perfbench/run.py" in record.get("benchmark", "")
    sets = record.get("sets")
    assert isinstance(sets, dict) and sets
    for name, runs in sets.items():
        pairs = runs.get("pairs")
        assert isinstance(pairs, list) and pairs, name
        for pair in pairs:
            for side in ("parent", "change"):
                assert isinstance(pair.get(side), dict), (name, pair.get("seed"), side)
                assert isinstance(pair[side].get("metrics"), dict), (name, pair.get("seed"), side)
