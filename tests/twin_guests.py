"""Whole guests on `mmulrv.isa.Cpu` and on `reference_core.ReferenceCpu`,
which must end in identical state (`conftest.twins`), at read latency 2 and
write latency 3.  BA runs spend most of their instructions in loop blocks,
and the reference stepper takes seconds on each, so this runs outside the
Tier-1 suite:

    PYTHONPATH=src:tests python tests/twin_guests.py [guest ...]

By default it runs `modexp256` and `x25519_ladder` under BA, CI-AE and
CI-PE, and `montmul_once` with the interrupt harness under all three with
the interrupts of `IRQ`, so CSR prologues and handler code run as parts of
whole programs.  A named guest runs under every config it builds under,
with its default inputs and no interrupt.
"""

import sys
import time

from conftest import build_guest, twins
from mmulrv.guests import _GUESTS

# The first is asserted before the prologue enables the interrupt, which
# is then entered right after `csrrwi mstatus`; under CI-AE the second
# waits for the atomic MMUL and the third for the handler's `mret`.
IRQ = (10, 400, 640, 900)
RUNS = (("modexp256", {}, ()), ("x25519_ladder", {}, ()),
        ("montmul_once", {"irq": 1}, IRQ))  # (guest, inputs, interrupts)


def main(names):
    runs = [(name, {}, ()) for name in names] if names else RUNS
    for name, inputs, irq in runs:
        for config in _GUESTS[name].configs:
            guest = build_guest(name, config, inputs)
            start = time.perf_counter()
            _, stats = twins(guest.load, 2, 3, budget=guest.budget_hint,
                             irq_schedule=irq)
            if stats.stop_reason != "halt":
                raise SystemExit(f"{name}/{config} stopped by "
                                 f"{stats.stop_reason}")
            print(f"{name}/{config}: {stats.total_cycles} cycles, "
                  f"{stats.retired} retired, "
                  f"{len(stats.interrupt_latencies)} interrupts, identical "
                  f"on both cores ({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main(sys.argv[1:])
