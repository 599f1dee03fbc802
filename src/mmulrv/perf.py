"""Activity accounting and the normalized-energy estimator.

Dynamic power scales linearly with each module's active-cycle fraction
(a desk-scale activity proxy, not a measurement).  The per-module defaults
are FPGA power figures for the three configurations; the slice of measured
dynamic power not attributed to the five tracked modules is carried as an
`unattributed` component whose duty follows the fetch stage.
"""

from dataclasses import dataclass, field

from .errors import NoInterruptsRecorded

MODULES = ("fetch", "decode", "alu", "regfile", "mmul")
CONFIGS = ("BA", "CI-AE", "CI-PE")

# Measured average power (W) during a modular multiplication:
# config -> (static, dynamic, total)
TOTAL_POWER = {
    "BA": (0.107, 0.154, 0.261),
    "CI-AE": (0.105, 0.064, 0.170),
    "CI-PE": (0.106, 0.120, 0.226),
}

# Average dynamic power per module (W): module -> config -> watts
MODULE_POWER = {
    "fetch":   {"BA": 0.058, "CI-AE": 0.002, "CI-PE": 0.026},
    "decode":  {"BA": 0.014, "CI-AE": 0.001, "CI-PE": 0.006},
    "alu":     {"BA": 0.031, "CI-AE": 0.001, "CI-PE": 0.008},
    "regfile": {"BA": 0.012, "CI-AE": 0.002, "CI-PE": 0.003},
    "mmul":    {"BA": 0.0,   "CI-AE": 0.054, "CI-PE": 0.053},
}


class RunStats:
    """Counters populated by one simulator run; immutable by convention
    after the run completes.

    Of the module activity counters, the core adds only `alu_cycles`, one
    per retired instruction of a kind that uses the ALU, and `mmul_cycles`,
    the engine's occupancy; `settle` derives fetch, decode and regfile from
    `retired`.  Every counter is a plain slot, which a caller may set."""

    COUNTERS = (
        "total_cycles", "retired", "mem_reads", "mem_writes", "fetch_cycles",
        "decode_cycles", "alu_cycles", "regfile_cycles", "mmul_cycles",
        "mmul_invocations",
    )
    STOP_FIELDS = ("stop_reason", "exit_code", "trap_cause", "trap_pc",
                   "trap_insn")
    __slots__ = COUNTERS + STOP_FIELDS + ("config", "interrupt_latencies")

    def __init__(self, config="BA"):
        self.config = config
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self.interrupt_latencies = []  # list of (assert_cycle, service_cycle)
        self.stop_reason = None  # halt | budget | trap; None before a run
        self.exit_code = 0
        self.trap_cause = None
        self.trap_pc = None    # pc of the trapping instruction
        self.trap_insn = None  # its raw fetch unit; None if the fetch faulted

    def settle(self, read_latency):
        """Set the counters every retirement adds alike, the one place they
        are assigned: each retired instruction is fetched in `read_latency`
        cycles, decoded once and reads the register file once."""
        self.fetch_cycles = self.retired * read_latency
        self.decode_cycles = self.regfile_cycles = self.retired

    def module_active_cycles(self):
        return {m: getattr(self, m + "_cycles") for m in MODULES}

    def to_dict(self):
        return {
            "config": self.config,
            "total_cycles": self.total_cycles,
            "retired": self.retired,
            "mem_reads": self.mem_reads,
            "mem_writes": self.mem_writes,
            "module_active_cycles": self.module_active_cycles(),
            "interrupt_latencies": [list(p) for p in self.interrupt_latencies],
            "mmul_invocations": self.mmul_invocations,
            **{name: getattr(self, name) for name in self.STOP_FIELDS},
        }

    def unclean(self):
        """Why the run did not halt with exit code 0, or None when it did:
        only a clean halt's energy and speedup figures are valid."""
        if self.stop_reason != "halt":
            return f"stopped by {self.stop_reason}"
        if self.exit_code != 0:
            return f"exited with code {self.exit_code}"
        return None

    def merge(self, other):
        """Adds another run's counters and latencies into this one; an
        unclean run sets the stop fields."""
        for name in self.COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.interrupt_latencies.extend(other.interrupt_latencies)
        if other.unclean():
            for name in self.STOP_FIELDS:
                setattr(self, name, getattr(other, name))
        return self


def _unattributed(config):
    static, dynamic, _total = TOTAL_POWER[config]
    return dynamic - sum(MODULE_POWER[m][config] for m in MODULES)


@dataclass
class PowerModel:
    """Static + per-module dynamic power per configuration (watts)."""

    static_watts: dict = field(
        default_factory=lambda: {c: TOTAL_POWER[c][0] for c in CONFIGS})
    dynamic_watts: dict = field(
        default_factory=lambda: {m: dict(MODULE_POWER[m]) for m in MODULES})
    unattributed_watts: dict = field(
        default_factory=lambda: {c: _unattributed(c) for c in CONFIGS})


@dataclass(frozen=True)
class EnergyEstimate:
    config: str
    avg_power_watts: float
    static_watts: float
    dynamic_module_watts: float
    dynamic_unattributed_watts: float
    energy: float  # watts x cycles
    normalized_energy: float  # None when no reference applies


def estimate_energy(stats, model, config, reference_energy=None):
    """Estimate average power and normalized energy for a completed run.

    avg_dynamic = sum over modules of dynamic_watts[m] * duty[m], where
    duty[m] = active_cycles[m] / total_cycles.  The unattributed residual
    uses the fetch-stage duty as its activity proxy.  normalized_energy
    divides by the energy of the BA reference run of the same workload;
    without one it is 1.0 for a BA run (its own reference) and None for
    any other.
    """
    if config not in CONFIGS:
        raise ValueError(f"unknown config {config!r}")
    total = stats.total_cycles
    if total <= 0:
        raise ValueError("stats must come from a completed run")
    active = stats.module_active_cycles()
    duty = {m: min(active[m] / total, 1.0) for m in MODULES}
    dyn_mod = sum(model.dynamic_watts[m][config] * duty[m] for m in MODULES)
    dyn_unattr = model.unattributed_watts[config] * duty["fetch"]
    static = model.static_watts[config]
    avg_power = static + dyn_mod + dyn_unattr
    energy = avg_power * total
    if reference_energy is not None:
        normalized = energy / reference_energy
    else:
        normalized = 1.0 if config == "BA" else None
    return EnergyEstimate(config, avg_power, static, dyn_mod, dyn_unattr,
                          energy, normalized)


def interrupt_latency_report(stats):
    """Summarize recorded interrupt service latencies."""
    if not stats.interrupt_latencies:
        raise NoInterruptsRecorded("run recorded no interrupts")
    lats = [service - assert_ for assert_, service in stats.interrupt_latencies]
    hist = {}
    for lat in lats:
        hist[lat] = hist.get(lat, 0) + 1
    return {
        "count": len(lats),
        "max": max(lats),
        "min": min(lats),
        "mean": sum(lats) / len(lats),
        "histogram": dict(sorted(hist.items())),
    }
