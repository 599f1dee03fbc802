"""The interpreter core before table dispatch and the decoded-instruction
cache: `step` fetches and decodes every instruction, `_execute` is an
if/elif chain on the instruction kind, as it was written first, and `run`
checks the interrupt schedule, the halt and the budget before every step.
Test-only: the differential tests run it and `mmulrv.isa.Cpu` on twin
machines.

Only `step`, `_execute`, `_exec_mmul` and `run` are kept; interrupt entry
is inherited from `Cpu`.  The timing knobs it once took are inlined at
their only values: 1 base cycle and a 1-cycle taken-branch penalty.
"""

from contextlib import suppress

from mmulrv.engine import MmulOperands
from mmulrv.errors import IllegalInstruction, SequenceBroken, SimError
from mmulrv.isa import Cpu, StepReport, decode
from mmulrv.machine import (M32, MEPC, MMUL_MODE, MSTATUS, MSTATUS_MIE,
                            MSTATUS_MPIE)


def _sext(value, bits):
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


_ALU_KINDS = frozenset([
    "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu",
    "bgeu", "lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw", "addi",
    "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai", "add",
    "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
])


class ReferenceCpu(Cpu):
    """`Cpu` stepping through the if/elif chain executor."""

    def step(self):
        """Retire one instruction (or take a pending enabled interrupt)."""
        m = self.m
        if m.interrupt_ready():
            return self._enter_interrupt()
        raw = m.mem.fetch_unit(m.pc)
        d = decode(raw)
        stats = m.stats
        fetch_wait = m.mem.read_latency - 1
        cycles = 1 + fetch_wait
        cycles += self._execute(m, d)
        m.cycle += cycles
        stats.retired += 1
        stats.fetch_cycles += 1 + fetch_wait
        stats.decode_cycles += 1
        stats.regfile_cycles += 1
        if d.kind in _ALU_KINDS:
            stats.alu_cycles += 1
        return StepReport(d.kind, cycles)

    def _execute(self, m, d):
        kind = d.kind
        regs = m.regs.x
        pc = m.pc
        extra = 0
        if kind == "addi":
            m.regs.write(d.rd, regs[d.rs1] + d.imm)
        elif kind == "add":
            m.regs.write(d.rd, regs[d.rs1] + regs[d.rs2])
        elif kind == "lw":
            val, lat = m.load_word((regs[d.rs1] + d.imm) & M32)
            m.regs.write(d.rd, val)
            extra = lat - 1
        elif kind == "sw":
            extra = m.store_word((regs[d.rs1] + d.imm) & M32,
                                 regs[d.rs2]) - 1
        elif kind in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            a, b = regs[d.rs1], regs[d.rs2]
            if kind in ("blt", "bge"):
                a, b = _sext(a, 32), _sext(b, 32)
            taken = {"beq": a == b, "bne": a != b, "blt": a < b,
                     "bge": a >= b, "bltu": a < b, "bgeu": a >= b}[kind]
            if taken:
                m.pc = (pc + d.imm) & M32
                return 1
        elif kind == "jal":
            m.regs.write(d.rd, pc + d.length)
            m.pc = (pc + d.imm) & M32
            return 1
        elif kind == "jalr":
            target = (regs[d.rs1] + d.imm) & ~1 & M32
            m.regs.write(d.rd, pc + d.length)
            m.pc = target
            return 1
        elif kind == "lui":
            m.regs.write(d.rd, d.imm)
        elif kind == "auipc":
            m.regs.write(d.rd, pc + d.imm)
        elif kind in ("slti", "sltiu", "xori", "ori", "andi", "slli",
                      "srli", "srai"):
            a = regs[d.rs1]
            if kind == "slti":
                r = 1 if _sext(a, 32) < d.imm else 0
            elif kind == "sltiu":
                r = 1 if a < (d.imm & M32) else 0
            elif kind == "xori":
                r = a ^ d.imm
            elif kind == "ori":
                r = a | d.imm
            elif kind == "andi":
                r = a & d.imm
            elif kind == "slli":
                r = a << d.imm
            elif kind == "srli":
                r = a >> d.imm
            else:
                r = _sext(a, 32) >> d.imm
            m.regs.write(d.rd, r)
        elif kind in ("sub", "sll", "slt", "sltu", "xor", "srl", "sra",
                      "or", "and"):
            a, b = regs[d.rs1], regs[d.rs2]
            if kind == "sub":
                r = a - b
            elif kind == "sll":
                r = a << (b & 31)
            elif kind == "slt":
                r = 1 if _sext(a, 32) < _sext(b, 32) else 0
            elif kind == "sltu":
                r = 1 if a < b else 0
            elif kind == "xor":
                r = a ^ b
            elif kind == "srl":
                r = a >> (b & 31)
            elif kind == "sra":
                r = _sext(a, 32) >> (b & 31)
            elif kind == "or":
                r = a | b
            else:
                r = a & b
            m.regs.write(d.rd, r)
        elif kind in ("lb", "lh", "lbu", "lhu"):
            nbytes = 1 if kind in ("lb", "lbu") else 2
            val, lat = m.load_scalar((regs[d.rs1] + d.imm) & M32, nbytes)
            if kind in ("lb", "lh"):
                val = _sext(val, 8 * nbytes) & M32
            m.regs.write(d.rd, val)
            extra = lat - 1
        elif kind in ("sb", "sh"):
            nbytes = 1 if kind == "sb" else 2
            extra = m.store_scalar((regs[d.rs1] + d.imm) & M32, nbytes,
                                   regs[d.rs2]) - 1
        elif kind in ("csrrw", "csrrs", "csrrc",
                      "csrrwi", "csrrsi", "csrrci"):
            imm_form = kind.endswith("i")
            src = d.rs1 if imm_form else regs[d.rs1]
            base = kind[:5]
            if base == "csrrw":
                old = m.csr_access(d.csr, "write", src)
            elif base == "csrrs":
                op = "set" if (imm_form and d.rs1) or \
                    (not imm_form and d.rs1) else "read"
                old = m.csr_access(d.csr, op, src)
            else:
                op = "clear" if d.rs1 else "read"
                old = m.csr_access(d.csr, op, src)
            m.regs.write(d.rd, old)
        elif kind == "mmul":
            return self._exec_mmul(m, d)
        elif kind == "fence":
            pass
        elif kind == "ecall":
            # halt convention: a0 carries the exit code
            m.halted = True
            m.exit_code = regs[10]
        elif kind == "ebreak":
            raise IllegalInstruction("ebreak (no debugger attached)")
        elif kind == "mret":
            status = m.csr[MSTATUS]
            mie = MSTATUS_MIE if status & MSTATUS_MPIE else 0
            m.csr[MSTATUS] = (status & ~MSTATUS_MIE) | mie | MSTATUS_MPIE
            m.pc = m.csr[MEPC]
            m.in_handler = False
            return 1
        else:  # pragma: no cover - decode guarantees coverage
            raise IllegalInstruction(kind)
        m.pc = (pc + d.length) & M32
        return extra

    def _exec_mmul(self, m, d):
        regs = m.regs.x
        eng = m.engine
        ops = MmulOperands(addr_a=regs[d.rs1], addr_b=regs[d.rs2],
                           addr_n=regs[d.rs3], addr_p=regs[d.rd],
                           words=d.words)
        stats = m.stats
        if eng.busy:
            if m.in_handler:
                raise SequenceBroken(
                    "MMUL issued from a trap handler mid-sequence")
            res = eng.execute_partial_call(m, ops)
        elif m.csr[MMUL_MODE] & 1:
            res = eng.execute_partial_call(m, ops)
            stats.mmul_invocations += 1
        else:
            res = eng.execute_atomic(m, ops)
            stats.mmul_invocations += 1
        stats.mmul_cycles += res.cycles
        m.pc = (m.pc + 4) & M32
        return res.cycles

    def run(self, budget=None, irq_schedule=(), config="BA"):
        """Step until a stop condition; returns populated RunStats."""
        m = self.m
        stats = m.stats
        stats.config = config
        sched = sorted(irq_schedule)
        si = 0
        try:
            while True:
                while si < len(sched) and sched[si] <= m.cycle:
                    m.raise_interrupt(at_cycle=sched[si])
                    si += 1
                if m.halted:
                    stats.stop_reason = "halt"
                    break
                if budget is not None and m.cycle >= budget:
                    stats.stop_reason = "budget"
                    break
                self.step()
        except SimError as exc:
            stats.stop_reason = "trap"
            stats.trap_cause = f"{type(exc).__name__}: {exc}"
            stats.trap_pc = m.pc
            with suppress(SimError):  # null when the fetch itself faulted
                stats.trap_insn = m.mem.fetch_unit(m.pc)
        stats.total_cycles = m.cycle
        stats.exit_code = m.exit_code
        return stats
