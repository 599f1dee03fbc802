"""The golden table: simulated results pinned so that host-speed work can
be checked to leave the model untouched.

    python3 perfbench/golden.py --check   # recompute and compare (~1 min)
    python3 perfbench/golden.py --write   # regenerate golden.json (~3 min)

It holds total_cycles, retired, mem_reads, mem_writes and mmul_invocations
for every guest x config at default inputs, and for each workload the
simulated counts the benchmark compares its units against: compare_montmul's
64 input sets, model results and per-symbol counts at the default seed;
irq_sweep's per-point latencies and histograms (the same at every seed,
because the MMUL engine is constant-time); mmul_vectors' cycles per shape.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from mmulrv import guests  # noqa: E402

PATH = HERE / "golden.json"
FIELDS = ("total_cycles", "retired", "mem_reads", "mem_writes",
          "mmul_invocations")
# the guest runs that take 5 s or more on BA; every benchmark run checks
# the rest of the guest table (about 2 s), and --check and the tests all
SLOW_GUESTS = ("modexp256/BA", "x25519_ladder/BA")


def guest_table(skip=()):
    table = {}
    for name in guests.GUEST_NAMES:
        for config in workloads.CONFIGS:
            if f"{name}/{config}" in skip:
                continue
            try:
                guest = guests.build_guest(name, config)
            except guests.InvalidConfig:
                continue  # the irq_sweep guests exist for one config each
            _, stats = workloads.run_guest(guest)
            reason = workloads.unclean(stats)
            if reason:
                raise RuntimeError(f"{name}/{config}: {reason}")
            table[f"{name}/{config}"] = dict(zip(FIELDS,
                                                 workloads.counts(stats)))
    return table


def guest_mismatches(stored):
    """The guest x config entries, other than SLOW_GUESTS, whose counts at
    default inputs differ from the stored guest table."""
    fresh = guest_table(skip=SLOW_GUESTS)
    expect = {k: v for k, v in stored.items() if k not in SLOW_GUESTS}
    return sorted(k for k in set(fresh) | set(expect)
                  if fresh.get(k) != expect.get(k))


def traced_symbols(wl):
    """Per-symbol counts of the workload's first sim_units units."""
    with tracing.Tracer() as tracer:
        for i in range(wl.sim_units):
            wl.unit(i)
    return tracer.symbol_summary()


def compare_montmul():
    wl = workloads.CompareMontmul(workloads.DEFAULT_SEED)
    wl.setup()
    units = [wl.unit(i) for i in range(wl.inputs_per_round)]
    return {"seed": workloads.DEFAULT_SEED,
            "units": [[list(c) for c in u.signature] for u in units],
            "model": units[0].model,
            "symbols": traced_symbols(wl)}


def irq_sweep():
    wl = workloads.IrqSweep(workloads.DEFAULT_SEED)
    wl.setup()
    sweeps = {}
    for i, (s, at) in enumerate(wl.points):
        _, config, latency = wl.plan[s]
        key = wl.sweep_key(config, latency)
        unit = wl.unit(i)
        gold = sweeps.setdefault(key, {"latency": [], "total_cycles": [],
                                       "retired": [], "histogram": {}})
        assert len(gold["latency"]) == at
        lat = unit.signature[0]
        gold["latency"].append(-1 if lat is None else lat)
        gold["total_cycles"].append(unit.signature[1])
        gold["retired"].append(unit.signature[2])
    for gold in sweeps.values():
        hist = {}
        for lat in sorted(x for x in gold["latency"] if x >= 0):
            hist[str(lat)] = hist.get(str(lat), 0) + 1
        gold["histogram"] = hist
    wl.setup()
    return {"sweeps": sweeps, "symbols": traced_symbols(wl)}


def mmul_vectors():
    wl = workloads.MmulVectors(workloads.DEFAULT_SEED)
    combos = {}
    for i, (words, rl, wl_) in enumerate(wl.combos):
        combos[wl.combo_key(words, rl, wl_)] = list(wl.unit(i).signature)
    return {"combos": combos}


def compute():
    return {"guests": guest_table(), "compare_montmul": compare_montmul(),
            "irq_sweep": irq_sweep(), "mmul_vectors": mmul_vectors()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = ap.parse_args(argv)
    if args.write:
        PATH.write_text(json.dumps(compute(), separators=(",", ":"),
                                   sort_keys=True) + "\n")
        return 0
    stored = json.loads(PATH.read_text())
    fresh = compute()
    bad = sorted(k for k in set(stored) | set(fresh)
                 if stored.get(k) != fresh.get(k))
    print("golden table " + ("matches" if not bad else f"differs in {bad}"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
