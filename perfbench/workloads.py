"""The benchmark's workloads: seeded inputs, one unit of work, and the checks
every unit must pass.

A unit is the smallest piece of work the benchmark times and checks:

  compare_montmul one 256-bit Montgomery multiplication run to halt under
                  BA, CI-AE and CI-PE, then speedups and normalized energy
                  (the `compare` table);
  irq_sweep       one interrupt-assert cycle of a brute-force latency sweep
                  across one 256-bit multiplication (a fresh machine each);
  mmul_vectors    one random vector through `execute_atomic` and through
                  32*W calls of `execute_partial_call`, each on a fresh
                  machine.

Unit i draws its inputs from the seed and i alone, so any unit can be rerun
and must reproduce its simulated counts exactly (its `signature`).  Every
output is checked against an oracle that does not use the simulator.
`guests.build_guest` and the `perf` functions are called through their
modules so that the traced run can wrap them from outside.
"""

import random
from collections import Counter
from dataclasses import dataclass, field

from mmulrv import guests, perf
from mmulrv.engine import MmulOperands
from mmulrv.isa import Cpu
from mmulrv.machine import DATA_BASE, Machine, Memory

DEFAULT_SEED = 1
CONFIGS = ("BA", "CI-AE", "CI-PE")


@dataclass
class Unit:
    failed: str = None    # why the unit failed; None when every check passed
    retired: int = 0      # instructions retired (MMUL issues on mmul_vectors)
    cycles: int = 0       # simulated cycles
    signature: tuple = ()  # simulated counts that must repeat exactly
    model: dict = field(default_factory=dict)


def run_guest(guest, read_latency=1, write_latency=1, irq=(), budget=None):
    """One guest on a fresh machine, the way `mmulrv run` executes it."""
    machine = Machine(memory=Memory(read_latency=read_latency,
                                    write_latency=write_latency))
    guest.load(machine)
    stats = Cpu(machine).run(budget=budget or guest.budget_hint,
                             irq_schedule=irq, config=guest.config)
    return machine, stats


def unclean(stats):
    """Why a run did not halt cleanly, or None when it did."""
    if stats.stop_reason != "halt":
        cause = f" ({stats.trap_cause})" if stats.trap_cause else ""
        return f"{stats.config}: stopped by {stats.stop_reason}{cause}"
    if stats.exit_code != 0:
        return f"{stats.config}: exit code {stats.exit_code}"
    return None


def counts(stats):
    return (stats.total_cycles, stats.retired, stats.mem_reads,
            stats.mem_writes, stats.mmul_invocations)


def mont_oracle(a, b, n, n_bits):
    """a * b * 2^(-n_bits) mod n with Python integers."""
    return a * b * pow(1 << n_bits, -1, n) % n


def random_modulus(rng, n_bits):
    return rng.getrandbits(n_bits) | 1 | (1 << (n_bits - 1))


class CompareMontmul:
    """The `compare` table on the paper's kernel: one seeded 256-bit
    Montgomery multiplication under all three configurations.  Nearly all
    host time is the BA interpreter running the software montmul."""

    name = "compare_montmul"
    words = 8
    inputs_per_round = 64  # unit i reruns the inputs of unit i - 64
    tail_pct = 90    # ~100 units a run: about ten beyond the tail
    model_units = 1  # model.* come from the first unit
    sim_units = 1    # sim.* come from the first traced unit

    def __init__(self, seed, golden=None, budget=None):
        self.seed = seed
        self.golden = golden if seed == DEFAULT_SEED else None
        self.budget = budget

    def inputs(self, i):
        rng = random.Random(f"{self.name}/{self.seed}/{self.key(i)}")
        n = random_modulus(rng, 32 * self.words)
        return n, rng.randrange(n), rng.randrange(n)

    def build(self, config, n, a, b):
        return guests.build_guest("montmul_once", config, {
            "modulus": n, "a": a, "b": b, "words": self.words})

    def setup(self):
        n, a, b = self.inputs(0)
        for config in CONFIGS:
            machine = Machine()
            self.build(config, n, a, b).load(machine)
            Cpu(machine)

    def key(self, i):
        return i % self.inputs_per_round

    def unit(self, i):
        n, a, b = self.inputs(i)
        expect = mont_oracle(a, b, n, 32 * self.words)
        runs = {}
        for config in CONFIGS:
            guest = self.build(config, n, a, b)
            machine, stats = run_guest(guest, budget=self.budget)
            reason = unclean(stats)
            if reason:
                return Unit(failed=reason)
            if guest.read_value(machine, "result") != expect:
                return Unit(failed=f"{config}: result differs from oracle")
            runs[config] = stats
        ba, ae, pe = (runs[c] for c in CONFIGS)
        signature = tuple(counts(runs[c]) for c in CONFIGS)
        reason = self.check_counts(ae, pe, signature, i)
        if reason:
            return Unit(failed=reason)
        model = perf.PowerModel()
        ref = perf.estimate_energy(ba, model, "BA").energy
        energy = {c: perf.estimate_energy(runs[c], model, c,
                                          reference_energy=ref)
                  .normalized_energy for c in ("CI-AE", "CI-PE")}
        result = {
            "model.speedup_ae": ba.total_cycles / ae.total_cycles,
            "model.speedup_pe": ba.total_cycles / pe.total_cycles,
            "model.energy_ae": energy["CI-AE"],
            "model.energy_pe": energy["CI-PE"],
        }
        # the paper's ordering claims (acceptance criteria 5 and 6)
        if not (result["model.speedup_ae"] >= result["model.speedup_pe"] > 1
                and energy["CI-AE"] < energy["CI-PE"] < 1):
            return Unit(failed=f"speedup/energy ordering broken: {result}")
        if self.golden and i == 0 and result != self.golden["model"]:
            return Unit(failed="model results differ from the golden table")
        return Unit(retired=sum(s.retired for s in runs.values()),
                    cycles=sum(s.total_cycles for s in runs.values()),
                    signature=signature, model=result)

    def check_counts(self, ae, pe, signature, i):
        # CI-PE runs the CI-AE program with its one MMUL split into n_bits
        # issues, plus one mode write in the prologue
        extra = 32 * self.words
        if ae.mmul_invocations != 1 or pe.mmul_invocations != 1:
            return "MMUL invocation count is not 1"
        if (pe.total_cycles - ae.total_cycles != extra
                or pe.retired - ae.retired != extra):
            return "CI-PE counts are not CI-AE plus the partial issues"
        if self.golden and [list(c) for c in signature] \
                != self.golden["units"][self.key(i)]:
            return "simulated counts differ from the golden table"
        return None

    def summarize(self, models):
        return dict(models[0]) if models else {}


class IrqSweep:
    """Brute-force interrupt-latency sweep: for every assert cycle across one
    256-bit multiplication, a fresh machine runs the guest to halt with one
    interrupt.  CI-PE and CI-AE, memory latency 1 and 2."""

    name = "irq_sweep"
    words = 8
    sweeps = (("irq_sweep_atomic", "CI-AE", 1),
              ("irq_sweep_partial", "CI-PE", 1),
              ("irq_sweep_atomic", "CI-AE", 2),
              ("irq_sweep_partial", "CI-PE", 2))
    sim_units = 4  # the first point of every sweep
    tail_pct = 99

    def __init__(self, seed, golden=None):
        self.seed = seed
        self.golden = golden

    @staticmethod
    def sweep_key(config, latency):
        return f"{config}/rl{latency}"

    def setup(self):
        rng = random.Random(f"{self.name}/{self.seed}")
        n_bits = 32 * self.words
        n = random_modulus(rng, n_bits)
        a, b = rng.randrange(n), rng.randrange(n)
        self.expect = mont_oracle(a, b, n, n_bits)
        built = {}
        self.plan = []
        lengths = []
        for guest_name, config, latency in self.sweeps:
            if guest_name not in built:
                built[guest_name] = guests.build_guest(
                    guest_name, config, {"modulus": n, "a": a, "b": b})
            guest = built[guest_name]
            machine, stats = run_guest(guest, latency, latency)
            if unclean(stats) or guest.read_value(machine, "result") \
                    != self.expect:
                raise RuntimeError(f"{guest_name} reference run failed")
            self.plan.append((guest, config, latency))
            lengths.append(stats.total_cycles)
        # interleave the sweeps so that every prefix of a round has the same
        # mix of points as the whole round
        order = [((k + 0.5) / length, s, k)
                 for s, length in enumerate(lengths) for k in range(length)]
        self.points = [(s, k) for _, s, k in sorted(order)]
        self.model_units = len(self.points)  # model.* need one whole round

    def key(self, i):
        return i % len(self.points)

    def bound(self, latency):
        w = self.words
        return max(3 * w * latency + 2, w * latency + 3) + 4

    def unit(self, i):
        p = i % len(self.points)
        if p == 0:
            self.round = {self.sweep_key(c, lat): Counter()
                          for _, c, lat in self.plan}
        s, at = self.points[p]
        guest, config, latency = self.plan[s]
        sweep = self.sweep_key(config, latency)
        machine, stats = run_guest(guest, latency, latency, irq=[at])
        reason = unclean(stats)
        if reason:
            return Unit(failed=f"{sweep} at {at}: {reason}")
        if guest.read_value(machine, "result") != self.expect:
            return Unit(failed=f"{sweep} at {at}: result differs from oracle")
        latency_cycles = None
        if stats.interrupt_latencies:
            if len(stats.interrupt_latencies) != 1:
                return Unit(failed=f"{sweep} at {at}: more than one entry")
            latency_cycles = perf.interrupt_latency_report(stats)["max"]
            if config == "CI-PE" and latency_cycles > self.bound(latency):
                return Unit(failed=f"{sweep} at {at}: latency "
                                   f"{latency_cycles} over the bound")
        signature = (latency_cycles,) + counts(stats)
        gold = self.golden["sweeps"][sweep] if self.golden else None
        if gold and [gold[f][at] for f in ("latency", "total_cycles",
                                           "retired")] \
                != [-1 if latency_cycles is None else latency_cycles,
                    stats.total_cycles, stats.retired]:
            return Unit(failed=f"{sweep} at {at}: differs from the golden "
                               "table")
        if latency_cycles is not None:
            self.round[sweep][latency_cycles] += 1
        unit = Unit(retired=stats.retired, cycles=stats.total_cycles,
                    signature=signature,
                    model={"sweep": sweep, "latency": latency_cycles or 0,
                           "cycles": stats.total_cycles})
        if p == len(self.points) - 1:
            unit.failed = self.check_round()
        return unit

    def check_round(self):
        for sweep, hist in self.round.items():
            if not hist:
                return f"{sweep}: no interrupt was serviced"
            if sweep.startswith("CI-AE") and \
                    max(hist) <= 2 * 32 * self.words + 1:
                return f"{sweep}: atomic latency never exceeds 2n+1"
            if self.golden and {str(k): v for k, v in sorted(hist.items())} \
                    != self.golden["sweeps"][sweep]["histogram"]:
                return f"{sweep}: latency histogram differs from golden"
        return None

    def summarize(self, models):
        if len(models) < len(self.points):
            return {}
        peak = Counter()
        for m in models:
            peak[m["sweep"]] = max(peak[m["sweep"]], m["latency"])
        return {
            "model.irq_latency_max_pe": peak[self.sweep_key("CI-PE", 1)],
            "model.irq_latency_max_ae": peak[self.sweep_key("CI-AE", 1)],
            "sweep.useful_ratio": sum(m["latency"] for m in models)
            / sum(m["cycles"] for m in models),
        }


class MmulVectors:
    """The engine and LSU alone: no instruction is fetched.  Each unit runs
    one vector atomically and as a partial sequence on fresh machines."""

    name = "mmul_vectors"
    # five widths, so that the median unit falls inside the W=4 group of
    # unit times and not in the gap between two groups
    combos = tuple((w, rl, wl) for w in (1, 2, 4, 6, 8)
                   for rl, wl in ((1, 1), (2, 3), (3, 1)))
    model_units = len(combos)
    sim_units = len(combos)
    tail_pct = 99

    def __init__(self, seed, golden=None):
        self.seed = seed
        self.golden = golden

    @staticmethod
    def combo_key(words, rl, wl):
        return f"W{words}/rl{rl}/wl{wl}"

    def inputs(self, i):
        words, rl, wl = self.combos[i % len(self.combos)]
        rng = random.Random(f"{self.name}/{self.seed}/{i}")
        n = random_modulus(rng, 32 * words)
        return words, rl, wl, rng.randrange(n), rng.randrange(n), n

    @staticmethod
    def place(words, rl, wl, a, b, n):
        machine = Machine(memory=Memory(read_latency=rl, write_latency=wl))
        stride = 4 * words
        for k, value in enumerate((a, b, n)):
            machine.load_image(value.to_bytes(stride, "little"),
                               DATA_BASE + k * stride)
        ops = MmulOperands(DATA_BASE, DATA_BASE + stride,
                           DATA_BASE + 2 * stride, DATA_BASE + 3 * stride,
                           words)
        return machine, ops

    def setup(self):
        self.place(*self.inputs(0))

    def key(self, i):
        # the engine is constant-time: equal shapes give equal counts
        return i % len(self.combos)

    def unit(self, i):
        words, rl, wl, a, b, n = self.inputs(i)
        n_bits = 32 * words
        expect = mont_oracle(a, b, n, n_bits)
        m1, ops = self.place(words, rl, wl, a, b, n)
        atomic = m1.engine.execute_atomic(m1, ops)
        m2, _ = self.place(words, rl, wl, a, b, n)
        calls = [m2.engine.execute_partial_call(m2, ops)
                 for _ in range(n_bits)]
        key = self.combo_key(words, rl, wl)
        for label, machine in (("atomic", m1), ("partial", m2)):
            if machine.mem.read(ops.addr_p, 4 * words) != expect:
                return Unit(failed=f"{key} {label}: result differs from "
                                   "oracle")
        first, last = 3 * words * rl + 2, words * wl + 3
        if (atomic.compute_cycles != 2 * n_bits + 1
                or atomic.cycles != 2 * n_bits + 1 + 3 * words * rl
                + words * wl):
            return Unit(failed=f"{key}: atomic cycles break 2n+1 + memory")
        if ([c.cycles for c in calls] != [first] + [2] * (n_bits - 2) + [last]
                or [c.call_kind for c in calls]
                != ["first"] + ["middle"] * (n_bits - 2) + ["last"]
                or m2.engine.busy):
            return Unit(failed=f"{key}: partial calls break the call shape")
        partial = sum(c.cycles for c in calls)
        if partial != atomic.cycles:
            return Unit(failed=f"{key}: partial and atomic cycles differ")
        if self.golden and self.golden["combos"][key] \
                != [atomic.cycles, partial]:
            return Unit(failed=f"{key}: cycles differ from the golden table")
        return Unit(retired=1 + n_bits, cycles=atomic.cycles + partial,
                    signature=(atomic.cycles, partial))

    def summarize(self, models):
        return {}


WORKLOADS = {w.name: w for w in (CompareMontmul, IrqSweep, MmulVectors)}


def make(name, seed, golden):
    """The named workload, holding its part of the golden table."""
    return WORKLOADS[name](seed, golden=golden.get(name))
