"""Every guest x config at default inputs against the pinned golden table
in perfbench/golden.json, which is read here and never written."""

import json
from pathlib import Path

import pytest

from conftest import run_guest
from mmulrv.guests import build_guest

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"
FIELDS = ("total_cycles", "retired", "mem_reads", "mem_writes",
          "mmul_invocations")
# 5 s and 14 s on BA; `python3 perfbench/golden.py --check` covers them
SLOW = ("modexp256/BA", "x25519_ladder/BA")
TABLE = json.loads(GOLDEN.read_text())["guests"]


@pytest.mark.parametrize("key", sorted(k for k in TABLE if k not in SLOW))
def test_guest_counts_match_golden(key):
    name, config = key.split("/")
    _, stats = run_guest(build_guest(name, config))
    assert (stats.stop_reason, stats.exit_code) == ("halt", 0)
    assert {f: getattr(stats, f) for f in FIELDS} == TABLE[key]
