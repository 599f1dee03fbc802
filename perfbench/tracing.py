"""Tracing for the benchmark's --trace 1 run.

Wraps public callables of mmulrv from outside the package and restores them
afterwards.  Boundaries that fire per instruction (fetch, decode, step, LSU,
CSR) only feed count / total / self-time accumulators.  Coarse boundaries
(a unit, a guest build, a guest run and, when asked, an engine call) are also
kept as spans with parent ids.

A layer's self time is its wall time minus the wall time of the wrapped
calls made inside it.  Every wrapped call sits inside a unit, so the self
times of all layers plus the unit's own self time (the residual: benchmark
code, oracles and wrapper cost) add up to the unit's wall time.

The step wrapper also attributes simulated cycles and retirements to guest
symbols, read from the `name:` label lines of `GuestProgram.listing`.
"""

import time
from collections import defaultdict

from mmulrv import guests, isa, perf
from mmulrv.engine import MmulEngine
from mmulrv.isa import Cpu
from mmulrv.machine import Machine, Memory

# labels that start a symbol; every other label stays in the current one
SUBROUTINES = ("montmul", "fadd", "fsub", "cswap", "hx_handler")
DRIVER_LABELS = ("hx_start",)  # where the harness returns to driver code
SYMBOLS = ("driver",) + SUBROUTINES + ("irq_entry",)


def symbol_table(guest):
    """Maps each instruction address of a guest to the symbol it belongs to."""
    table = {}
    symbol = "driver"
    for line in guest.listing.splitlines():
        if line.endswith(":") and " " not in line:
            label = line[:-1]
            if label in SUBROUTINES:
                symbol = label
            elif label in DRIVER_LABELS:
                symbol = "driver"
        else:
            table[int(line[:8], 16)] = symbol
    return table


class Acc:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Accumulators, spans and symbol counts of one traced phase."""

    def __init__(self, engine_spans=False):
        self.engine_spans = engine_spans
        self.keep_spans = True
        self.acc = defaultdict(Acc)
        self.child = [0.0]        # wall time of wrapped callees, per open call
        self.open_spans = [None]
        self.spans = []           # [id, parent, name, start_s, end_s]
        self.origin = time.perf_counter()
        self.engine_depth = 0
        self.engine_sim_cycles = 0
        self.partial_sequences = 0
        self.irq_entries = 0
        self.tables = {}          # id(machine) -> (config, symbol table)
        self.guest_tables = {}    # id(guest) -> (guest, symbol table)
        self.run_counts = None    # symbol -> [cycles, retired] of the open run
        self.run_table = {}
        self.symbol_counts = defaultdict(lambda: [0, 0])  # (config, symbol)
        self.reconcile_errors = 0
        self._saved = []

    # -- wrapping ----------------------------------------------------------

    def timed(self, name, fn, span=False):
        """fn wrapped to add its time to the `name` accumulator."""
        acc = self.acc[name]
        child = self.child
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            child.append(0.0)
            record = self._open(name, start) if span else None
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                acc.calls += 1
                acc.total_s += elapsed
                acc.self_s += elapsed - child.pop()
                child[-1] += elapsed
                if record is not None:
                    record[4] = end - self.origin
                    self.open_spans.pop()
        return wrapper

    def _open(self, name, start):
        if not self.keep_spans:
            return None
        record = [len(self.spans), self.open_spans[-1], name,
                  start - self.origin, None]
        self.spans.append(record)
        self.open_spans.append(record[0])
        return record

    def _lsu(self, fn):
        isa_side = self.timed("machine.lsu.isa", fn)
        engine_side = self.timed("machine.lsu.engine", fn)

        def wrapper(*args):
            return (engine_side if self.engine_depth else isa_side)(*args)
        return wrapper

    def _engine(self, name, fn):
        inner = self.timed(name, fn, span=self.engine_spans)

        def wrapper(engine, machine, ops):
            self.engine_depth += 1
            try:
                result = inner(engine, machine, ops)
            finally:
                self.engine_depth -= 1
            self.engine_sim_cycles += result.cycles
            if getattr(result, "call_kind", None) == "first":
                self.partial_sequences += 1
            return result
        return wrapper

    def _step(self, fn):
        inner = self.timed("isa.step", fn)

        def wrapper(cpu):
            m = cpu.m
            pc, cycle = m.pc, m.cycle
            report = inner(cpu)
            irq = report.retired == "irq"
            self.irq_entries += irq
            if self.run_counts is not None:
                symbol = "irq_entry" if irq else \
                    self.run_table.get(pc, "other")
                counts = self.run_counts[symbol]
                counts[0] += m.cycle - cycle
                counts[1] += not irq
            return report
        return wrapper

    def _run(self, fn):
        inner = self.timed("isa.run", fn, span=True)

        def wrapper(cpu, *args, **kwargs):
            config, self.run_table = self.tables.get(id(cpu.m), ("?", {}))
            self.run_counts = defaultdict(lambda: [0, 0])
            start = cpu.m.cycle, cpu.m.stats.retired
            try:
                stats = inner(cpu, *args, **kwargs)
            finally:
                counts, self.run_counts = self.run_counts, None
            cycles = sum(c for c, _ in counts.values())
            retired = sum(r for _, r in counts.values())
            if (cycles, retired) != (stats.total_cycles - start[0],
                                     stats.retired - start[1]):
                self.reconcile_errors += 1
            for symbol, (c, r) in counts.items():
                total = self.symbol_counts[config, symbol]
                total[0] += c
                total[1] += r
            return stats
        return wrapper

    def _load(self, fn):
        inner = self.timed("machine.load", fn)

        def wrapper(guest, machine):
            if id(guest) not in self.guest_tables:
                self.guest_tables[id(guest)] = (guest, symbol_table(guest))
            self.tables[id(machine)] = (guest.config,
                                        self.guest_tables[id(guest)][1])
            return inner(guest, machine)
        return wrapper

    def _decode(self, fn):
        inner = self.timed("isa.decode", fn)
        inner.cache_info = fn.cache_info
        inner.cache_clear = fn.cache_clear
        return inner

    def targets(self):
        yield Memory, "fetch_unit", self.timed("machine.fetch",
                                               Memory.fetch_unit)
        yield isa, "decode", self._decode(isa.decode)
        yield Cpu, "step", self._step(Cpu.step)
        yield Cpu, "run", self._run(Cpu.run)
        for name in ("load_word", "store_word", "load_scalar", "store_scalar"):
            yield Machine, name, self._lsu(getattr(Machine, name))
        yield Machine, "csr_access", self.timed("machine.csr",
                                                Machine.csr_access)
        yield Machine, "__init__", self.timed("machine.init", Machine.__init__)
        yield Memory, "__init__", self.timed("machine.memory", Memory.__init__)
        yield Machine, "load_image", self.timed("machine.load",
                                                Machine.load_image)
        yield guests.GuestProgram, "load", self._load(guests.GuestProgram.load)
        yield MmulEngine, "execute_atomic", self._engine(
            "engine.atomic", MmulEngine.execute_atomic)
        yield MmulEngine, "execute_partial_call", self._engine(
            "engine.partial", MmulEngine.execute_partial_call)
        yield guests, "build_guest", self.timed(
            "guests.build", guests.build_guest, span=True)
        yield perf, "estimate_energy", self.timed("perf.energy",
                                                  perf.estimate_energy)
        yield perf, "interrupt_latency_report", self.timed(
            "perf.latency_report", perf.interrupt_latency_report)

    def __enter__(self):
        """Install every wrapper; leaving the block restores the originals."""
        for owner, name, wrapper in list(self.targets()):
            self._saved.append((owner, name, getattr(owner, name)))
            setattr(owner, name, wrapper)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- reading -----------------------------------------------------------

    def symbol_summary(self):
        """{"<config>.<symbol>": [cycles, retired]} of the runs so far."""
        return {f"{config}.{symbol}": list(counts) for (config, symbol), counts
                in sorted(self.symbol_counts.items())}

    def reset(self):
        """Zero the accumulators; spans and wrappers stay."""
        for acc in self.acc.values():
            acc.calls, acc.total_s, acc.self_s = 0, 0.0, 0.0
        self.symbol_counts.clear()
        self.engine_sim_cycles = 0
        self.partial_sequences = 0
        self.irq_entries = 0
        self.reconcile_errors = 0
