"""Cycle-modeling RV32EC simulator with a memory-coupled Montgomery
multiplication custom instruction (atomic and partial execution modes)."""

from .encoding import capacity, decode_r4, encode_r4
from .engine import MmulEngine, MmulOperands, r2mm_reference
from .guests import FieldContext, build_guest
from .isa import Cpu, decode, expand_compressed
from .machine import Machine, Memory, RegisterFile
from .perf import (PowerModel, RunStats, estimate_energy,
                   interrupt_latency_report)

__version__ = "0.1.0"

__all__ = [
    "Cpu", "FieldContext", "Machine", "Memory", "MmulEngine",
    "MmulOperands", "PowerModel", "RegisterFile", "RunStats",
    "build_guest", "capacity", "decode", "decode_r4",
    "encode_r4", "estimate_energy", "expand_compressed",
    "interrupt_latency_report", "r2mm_reference",
]
