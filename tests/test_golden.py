"""Every guest x config at default inputs against pinned results: its run
counts against perfbench/golden.json (read here and never written), and
its image against the SHA-256 pins in tests/guest_images.json; and its
listing against its image."""

import hashlib
import json
from pathlib import Path

import pytest

from conftest import run_guest
from mmulrv.errors import InvalidConfig
from mmulrv.guests import GUEST_NAMES, build_guest
from mmulrv.perf import CONFIGS

HERE = Path(__file__).resolve().parent
GOLDEN = HERE.parent / "perfbench" / "golden.json"
IMAGES = HERE / "guest_images.json"
FIELDS = ("total_cycles", "retired", "mem_reads", "mem_writes",
          "mmul_invocations")
# every row runs: the block path runs modexp256/BA and x25519_ladder/BA in
# about 0.6 s and 1.5 s (5 s and 14 s when the core only stepped)
SLOW = ()
TABLE = json.loads(GOLDEN.read_text())["guests"]


@pytest.mark.parametrize("key", sorted(k for k in TABLE if k not in SLOW))
def test_guest_counts_match_golden(key):
    name, config = key.split("/")
    _, stats = run_guest(build_guest(name, config))
    assert (stats.stop_reason, stats.exit_code) == ("halt", 0)
    assert {f: getattr(stats, f) for f in FIELDS} == TABLE[key]


@pytest.mark.parametrize("key", sorted(TABLE))
def test_listing_shows_the_words_of_the_image(key):
    """Every listed word is the image's word at its address, a branch or
    jump to a label after its fix-up included."""
    guest = build_guest(*key.split("/"))
    listed = {}
    for line in guest.listing.splitlines():
        if " " in line:  # not a label line
            addr, word = line.split()[:2]
            listed[int(addr.rstrip(":"), 16)] = int(word, 16)
    assert listed == {guest.entry + 4 * i: word
                      for i, word in enumerate(guest.code_words())}


def image_pins():
    """SHA-256 of code, listing and data of every buildable guest x config
    at default inputs (the irq_sweep guests build under one config only).
    `PYTHONPATH=src python3 tests/test_golden.py > tests/guest_images.json`
    rewrites the table."""
    pins = {}
    for name in GUEST_NAMES:
        for config in CONFIGS:
            try:
                g = build_guest(name, config)
            except InvalidConfig:  # a guest pinned to another config
                continue
            data = b"".join(addr.to_bytes(4, "little")
                            + len(blob).to_bytes(4, "little") + blob
                            for addr, blob in g.data_init)
            pins[f"{name}/{config}"] = {
                "code": hashlib.sha256(g.code).hexdigest(),
                "listing": hashlib.sha256(g.listing.encode()).hexdigest(),
                "data_init": hashlib.sha256(data).hexdigest()}
    return pins


def test_guest_images_match_pins():
    assert image_pins() == json.loads(IMAGES.read_text())


if __name__ == "__main__":
    print(json.dumps(image_pins(), indent=1, sort_keys=True))
