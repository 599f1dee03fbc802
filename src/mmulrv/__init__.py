"""Cycle-modeling RV32EC simulator with a memory-coupled Montgomery
multiplication custom instruction (atomic and partial execution modes)."""
