"""RV32E + C-extension decode and execution with a 2-stage timing model.

Timing: 1 cycle per retired instruction (covers a single-cycle fetch),
+1 cycle per taken control transfer, plus memory wait-states beyond the
first cycle for fetch and data accesses.  MMUL engine occupancy is added
on top and never double-counted.  Interrupt entry costs a fixed (default 3)
cycles.  The model is configurable and held fixed across BA/CI-AE/CI-PE.
"""

from dataclasses import dataclass
from functools import lru_cache

from . import encoding
from .engine import MmulOperands
from .errors import IllegalInstruction, SequenceBroken, SimError
from .machine import (CAUSE_MEXT_IRQ, M32, MCAUSE, MEPC, MMUL_MODE, MSTATUS,
                      MSTATUS_MIE, MSTATUS_MPIE, MTVEC)


class DecodedInstruction:
    __slots__ = ("kind", "rd", "rs1", "rs2", "rs3", "imm", "words",
                 "csr", "compressed", "length")

    def __init__(self, kind, rd=0, rs1=0, rs2=0, rs3=0, imm=0, words=0,
                 csr=0, compressed=False):
        self.kind = kind
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.rs3 = rs3
        self.imm = imm
        self.words = words
        self.csr = csr
        self.compressed = compressed
        self.length = 2 if compressed else 4

    def __repr__(self):
        return (f"DecodedInstruction({self.kind}, rd={self.rd}, "
                f"rs1={self.rs1}, rs2={self.rs2}, imm={self.imm})")


def _sext(value, bits):
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def _chk_reg(*regs):
    for r in regs:
        if r > 15:
            raise IllegalInstruction(f"x{r} not valid under RV32E")
    return regs


_BRANCHES = {0: "beq", 1: "bne", 4: "blt", 5: "bge", 6: "bltu", 7: "bgeu"}
_LOADS = {0: "lb", 1: "lh", 2: "lw", 4: "lbu", 5: "lhu"}
_STORES = {0: "sb", 1: "sh", 2: "sw"}
_OPIMM = {0: "addi", 2: "slti", 3: "sltiu", 4: "xori", 6: "ori", 7: "andi"}
_OPS = {(0, 0): "add", (0, 0x20): "sub", (1, 0): "sll", (2, 0): "slt",
        (3, 0): "sltu", (4, 0): "xor", (5, 0): "srl", (5, 0x20): "sra",
        (6, 0): "or", (7, 0): "and"}
_CSROPS = {1: "csrrw", 2: "csrrs", 3: "csrrc",
           5: "csrrwi", 6: "csrrsi", 7: "csrrci"}


def decode32(w):
    """Decode a full-length 32-bit instruction word."""
    op = w & 0x7F
    rd = (w >> 7) & 0x1F
    f3 = (w >> 12) & 7
    rs1 = (w >> 15) & 0x1F
    rs2 = (w >> 20) & 0x1F
    f7 = (w >> 25) & 0x7F

    if op == 0x37:  # lui
        _chk_reg(rd)
        return DecodedInstruction("lui", rd=rd, imm=_sext(w & 0xFFFFF000, 32))
    if op == 0x17:  # auipc
        _chk_reg(rd)
        return DecodedInstruction("auipc", rd=rd, imm=_sext(w & 0xFFFFF000, 32))
    if op == 0x6F:  # jal
        _chk_reg(rd)
        imm = (((w >> 31) & 1) << 20) | (((w >> 21) & 0x3FF) << 1) \
            | (((w >> 20) & 1) << 11) | (((w >> 12) & 0xFF) << 12)
        return DecodedInstruction("jal", rd=rd, imm=_sext(imm, 21))
    if op == 0x67 and f3 == 0:  # jalr
        _chk_reg(rd, rs1)
        return DecodedInstruction("jalr", rd=rd, rs1=rs1,
                                  imm=_sext(w >> 20, 12))
    if op == 0x63:
        kind = _BRANCHES.get(f3)
        if kind is None:
            raise IllegalInstruction(f"branch funct3={f3}")
        _chk_reg(rs1, rs2)
        imm = (((w >> 31) & 1) << 12) | (((w >> 25) & 0x3F) << 5) \
            | (((w >> 8) & 0xF) << 1) | (((w >> 7) & 1) << 11)
        return DecodedInstruction(kind, rs1=rs1, rs2=rs2, imm=_sext(imm, 13))
    if op == 0x03:
        kind = _LOADS.get(f3)
        if kind is None:
            raise IllegalInstruction(f"load funct3={f3}")
        _chk_reg(rd, rs1)
        return DecodedInstruction(kind, rd=rd, rs1=rs1, imm=_sext(w >> 20, 12))
    if op == 0x23:
        kind = _STORES.get(f3)
        if kind is None:
            raise IllegalInstruction(f"store funct3={f3}")
        _chk_reg(rs1, rs2)
        imm = ((w >> 25) << 5) | rd
        return DecodedInstruction(kind, rs1=rs1, rs2=rs2, imm=_sext(imm, 12))
    if op == 0x13:
        _chk_reg(rd, rs1)
        if f3 == 1:
            if f7 != 0:
                raise IllegalInstruction("slli funct7")
            return DecodedInstruction("slli", rd=rd, rs1=rs1, imm=rs2)
        if f3 == 5:
            if f7 == 0:
                return DecodedInstruction("srli", rd=rd, rs1=rs1, imm=rs2)
            if f7 == 0x20:
                return DecodedInstruction("srai", rd=rd, rs1=rs1, imm=rs2)
            raise IllegalInstruction("shift funct7")
        return DecodedInstruction(_OPIMM[f3], rd=rd, rs1=rs1,
                                  imm=_sext(w >> 20, 12))
    if op == 0x33:
        kind = _OPS.get((f3, f7))
        if kind is None:
            raise IllegalInstruction(f"op funct3={f3} funct7={f7:#x}")
        _chk_reg(rd, rs1, rs2)
        return DecodedInstruction(kind, rd=rd, rs1=rs1, rs2=rs2)
    if op == 0x0F:  # fence / fence.i: no-op in this model
        return DecodedInstruction("fence")
    if op == 0x73:
        if f3 == 0:
            if w == 0x00000073:
                return DecodedInstruction("ecall")
            if w == 0x00100073:
                return DecodedInstruction("ebreak")
            if w == 0x30200073:
                return DecodedInstruction("mret")
            raise IllegalInstruction(f"system 0x{w:08x}")
        kind = _CSROPS.get(f3)
        if kind is None:
            raise IllegalInstruction(f"system funct3={f3}")
        _chk_reg(rd)
        if f3 < 4:
            _chk_reg(rs1)
        return DecodedInstruction(kind, rd=rd, rs1=rs1, csr=(w >> 20) & 0xFFF)
    if op == encoding.OPCODE_CUSTOM0:
        try:
            f = encoding.decode_r4(w)
        except SimError as exc:
            raise IllegalInstruction(str(exc)) from exc
        return DecodedInstruction("mmul", rd=f["rd"], rs1=f["rs1"],
                                  rs2=f["rs2"], rs3=f["rs3"],
                                  words=f["words"])
    raise IllegalInstruction(f"opcode 0x{op:02x}")


def _creg(bits):
    return 8 + (bits & 7)


def expand_compressed(h):
    """Expand a 16-bit compressed instruction into its full-length form."""
    h &= 0xFFFF
    if h == 0:
        raise IllegalInstruction("all-zero compressed encoding")
    q = h & 3
    if q == 3:
        raise IllegalInstruction("not a compressed encoding")
    f3 = (h >> 13) & 7
    d = _expand(q, f3, h)
    d.compressed = True
    d.length = 2
    return d


def _expand(q, f3, h):
    if q == 0:
        if f3 == 0:  # c.addi4spn
            imm = (((h >> 5) & 1) << 3) | (((h >> 6) & 1) << 2) \
                | (((h >> 7) & 0xF) << 6) | (((h >> 11) & 3) << 4)
            if imm == 0:
                raise IllegalInstruction("c.addi4spn with zero immediate")
            return DecodedInstruction("addi", rd=_creg(h >> 2), rs1=2, imm=imm)
        if f3 == 2:  # c.lw
            imm = (((h >> 10) & 7) << 3) | (((h >> 6) & 1) << 2) \
                | (((h >> 5) & 1) << 6)
            return DecodedInstruction("lw", rd=_creg(h >> 2),
                                      rs1=_creg(h >> 7), imm=imm)
        if f3 == 6:  # c.sw
            imm = (((h >> 10) & 7) << 3) | (((h >> 6) & 1) << 2) \
                | (((h >> 5) & 1) << 6)
            return DecodedInstruction("sw", rs1=_creg(h >> 7),
                                      rs2=_creg(h >> 2), imm=imm)
        raise IllegalInstruction(f"compressed q0 funct3={f3}")
    if q == 1:
        imm6 = _sext((((h >> 12) & 1) << 5) | ((h >> 2) & 0x1F), 6)
        rd = (h >> 7) & 0x1F
        if f3 == 0:  # c.addi / c.nop
            _chk_reg(rd)
            return DecodedInstruction("addi", rd=rd, rs1=rd, imm=imm6)
        if f3 == 1:  # c.jal (RV32)
            return DecodedInstruction("jal", rd=1, imm=_cj_imm(h))
        if f3 == 2:  # c.li
            _chk_reg(rd)
            return DecodedInstruction("addi", rd=rd, rs1=0, imm=imm6)
        if f3 == 3:
            if rd == 2:  # c.addi16sp
                imm = (((h >> 12) & 1) << 9) | (((h >> 3) & 3) << 7) \
                    | (((h >> 5) & 1) << 6) | (((h >> 2) & 1) << 5) \
                    | (((h >> 6) & 1) << 4)
                imm = _sext(imm, 10)
                if imm == 0:
                    raise IllegalInstruction("c.addi16sp zero immediate")
                return DecodedInstruction("addi", rd=2, rs1=2, imm=imm)
            if rd != 0:  # c.lui
                _chk_reg(rd)
                if imm6 == 0:
                    raise IllegalInstruction("c.lui zero immediate")
                return DecodedInstruction("lui", rd=rd, imm=imm6 << 12)
            raise IllegalInstruction("c.lui rd=x0")
        if f3 == 4:
            sub = (h >> 10) & 3
            rdp = _creg(h >> 7)
            if sub == 0 or sub == 1:
                shamt = (((h >> 12) & 1) << 5) | ((h >> 2) & 0x1F)
                if shamt >= 32:
                    raise IllegalInstruction("compressed shift shamt[5]=1")
                kind = "srli" if sub == 0 else "srai"
                return DecodedInstruction(kind, rd=rdp, rs1=rdp, imm=shamt)
            if sub == 2:
                return DecodedInstruction("andi", rd=rdp, rs1=rdp, imm=imm6)
            if (h >> 12) & 1:
                raise IllegalInstruction("reserved compressed q1 encoding")
            kind = ("sub", "xor", "or", "and")[(h >> 5) & 3]
            return DecodedInstruction(kind, rd=rdp, rs1=rdp, rs2=_creg(h >> 2))
        if f3 == 5:  # c.j
            return DecodedInstruction("jal", rd=0, imm=_cj_imm(h))
        kind = "beq" if f3 == 6 else "bne"  # c.beqz / c.bnez
        imm = (((h >> 12) & 1) << 8) | (((h >> 10) & 3) << 3) \
            | (((h >> 5) & 3) << 6) | (((h >> 3) & 3) << 1) \
            | (((h >> 2) & 1) << 5)
        return DecodedInstruction(kind, rs1=_creg(h >> 7), rs2=0,
                                  imm=_sext(imm, 9))
    # q == 2
    rd = (h >> 7) & 0x1F
    rs2 = (h >> 2) & 0x1F
    if f3 == 0:  # c.slli
        _chk_reg(rd)
        shamt = (((h >> 12) & 1) << 5) | rs2
        if shamt >= 32:
            raise IllegalInstruction("compressed shift shamt[5]=1")
        return DecodedInstruction("slli", rd=rd, rs1=rd, imm=shamt)
    if f3 == 2:  # c.lwsp
        if rd == 0:
            raise IllegalInstruction("c.lwsp rd=x0")
        _chk_reg(rd)
        imm = (((h >> 12) & 1) << 5) | (((h >> 4) & 7) << 2) \
            | (((h >> 2) & 3) << 6)
        return DecodedInstruction("lw", rd=rd, rs1=2, imm=imm)
    if f3 == 4:
        _chk_reg(rd, rs2)
        if (h >> 12) & 1 == 0:
            if rs2 == 0:  # c.jr
                if rd == 0:
                    raise IllegalInstruction("c.jr rs1=x0")
                return DecodedInstruction("jalr", rd=0, rs1=rd, imm=0)
            return DecodedInstruction("add", rd=rd, rs1=0, rs2=rs2)  # c.mv
        if rd == 0 and rs2 == 0:
            return DecodedInstruction("ebreak")
        if rs2 == 0:  # c.jalr
            return DecodedInstruction("jalr", rd=1, rs1=rd, imm=0)
        return DecodedInstruction("add", rd=rd, rs1=rd, rs2=rs2)  # c.add
    if f3 == 6:  # c.swsp
        _chk_reg(rs2)
        imm = (((h >> 9) & 0xF) << 2) | (((h >> 7) & 3) << 6)
        return DecodedInstruction("sw", rs1=2, rs2=rs2, imm=imm)
    raise IllegalInstruction(f"compressed q2 funct3={f3}")


def _cj_imm(h):
    imm = (((h >> 12) & 1) << 11) | (((h >> 11) & 1) << 4) \
        | (((h >> 9) & 3) << 8) | (((h >> 8) & 1) << 10) \
        | (((h >> 7) & 1) << 6) | (((h >> 6) & 1) << 7) \
        | (((h >> 3) & 7) << 1) | (((h >> 2) & 1) << 5)
    return _sext(imm, 12)


@lru_cache(maxsize=1 << 16)
def decode(fetch_unit):
    """Decode a 32-bit fetch unit; the low 16 bits select compressed
    expansion.  Pure function, so results are cached by raw value."""
    if fetch_unit & 3 != 3:
        return expand_compressed(fetch_unit & 0xFFFF)
    return decode32(fetch_unit)


@dataclass(frozen=True)
class StepReport:
    retired: str  # instruction kind, or "irq" for an interrupt entry
    cycles: int
    trap: int = None


class CycleBudgetExhausted(SimError):
    pass


_ALU_KINDS = frozenset([
    "lui", "auipc", "jal", "jalr", "beq", "bne", "blt", "bge", "bltu",
    "bgeu", "lb", "lh", "lw", "lbu", "lhu", "sb", "sh", "sw", "addi",
    "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai", "add",
    "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and",
])


class Cpu:
    """Fetch/decode/execute loop over one Machine."""

    def __init__(self, machine, base_cpi=1, taken_branch_penalty=1,
                 trap_entry_cycles=3):
        self.m = machine
        self.base_cpi = base_cpi
        self.taken_branch_penalty = taken_branch_penalty
        self.trap_entry_cycles = trap_entry_cycles

    # -- trap / interrupt entry -------------------------------------------

    def _enter_interrupt(self):
        m = self.m
        m.csr[MEPC] = m.pc & ~1 & M32
        m.csr[MCAUSE] = CAUSE_MEXT_IRQ
        status = m.csr[MSTATUS]
        mpie = MSTATUS_MPIE if status & MSTATUS_MIE else 0
        m.csr[MSTATUS] = (status & ~(MSTATUS_MIE | MSTATUS_MPIE)) | mpie
        m.pc = m.csr[MTVEC]
        m.in_handler = True
        m.cycle += self.trap_entry_cycles
        m.stats.interrupt_latencies.append((m.irq_assert_cycle, m.cycle))
        return StepReport("irq", self.trap_entry_cycles, CAUSE_MEXT_IRQ)

    # -- one instruction ---------------------------------------------------

    def step(self):
        """Retire one instruction (or take a pending enabled interrupt)."""
        m = self.m
        if m.interrupt_ready():
            return self._enter_interrupt()
        raw = m.mem.fetch_unit(m.pc)
        d = decode(raw)
        stats = m.stats
        fetch_wait = m.mem.read_latency - 1
        cycles = self.base_cpi + fetch_wait
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
                return self.taken_branch_penalty
        elif kind == "jal":
            m.regs.write(d.rd, pc + d.length)
            m.pc = (pc + d.imm) & M32
            return self.taken_branch_penalty
        elif kind == "jalr":
            target = (regs[d.rs1] + d.imm) & ~1 & M32
            m.regs.write(d.rd, pc + d.length)
            m.pc = target
            return self.taken_branch_penalty
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
            return self.taken_branch_penalty
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

    # -- run loop ----------------------------------------------------------

    def run(self, budget=None, until_pc=None, irq_schedule=(), config="BA"):
        """Step until a stop condition; returns populated RunStats."""
        m = self.m
        stats = m.stats
        stats.config = config
        sched = sorted(irq_schedule)
        si = 0
        try:
            while True:
                while si < len(sched) and sched[si] <= m.cycle:
                    m.raise_interrupt(0, at_cycle=sched[si])
                    si += 1
                if m.halted:
                    stats.stop_reason = "halt"
                    break
                if budget is not None and m.cycle >= budget:
                    stats.stop_reason = "budget"
                    break
                if until_pc is not None and m.pc == until_pc:
                    stats.stop_reason = "sentinel"
                    break
                self.step()
        except SimError as exc:
            stats.stop_reason = "trap"
            stats.trap_cause = f"{type(exc).__name__}: {exc}"
        stats.total_cycles = m.cycle
        stats.exit_code = m.exit_code
        return stats
