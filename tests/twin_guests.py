"""Whole BA guests on `mmulrv.isa.Cpu` and on `reference_core.ReferenceCpu`,
which must end in identical state (`conftest.twins`), at read latency 2 and
write latency 3.  BA runs spend most of their instructions in loop blocks,
and the reference stepper takes seconds on each, so this runs outside the
Tier-1 suite:

    PYTHONPATH=src:tests python tests/twin_guests.py [guest ...]

with `modexp256` and `x25519_ladder` as the default guests.
"""

import sys
import time

from conftest import build_guest, twins

GUESTS = ("modexp256", "x25519_ladder")


def main(names):
    for name in names:
        guest = build_guest(name, "BA", {})
        start = time.perf_counter()
        _, stats = twins(guest.load, 2, 3, budget=guest.budget_hint)
        if stats.stop_reason != "halt":
            raise SystemExit(f"{name}/BA stopped by {stats.stop_reason}")
        print(f"{name}/BA: {stats.total_cycles} cycles, {stats.retired} "
              f"retired, identical on both cores "
              f"({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main(sys.argv[1:] or GUESTS)
