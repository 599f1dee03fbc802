"""RV32E + C-extension decode and execution with a 2-stage timing model.

A compressed unit is expanded to the 32-bit word the RVC spec defines for
it, built with the format encoders of `encoding.py`, and decoded as that
word; only its length (2) differs.  The decoder reads the per-class tables
below, the translator's case table is built from them, and the assembler
derives its emitters from them.  Every kind but MMUL has one
implementation: `_translate` compiles a straight run of ALU, `lui`/`auipc`,
load and store units, up to and including its first branch, jump, CSR,
`mret`, `ecall`, `ebreak` or `fence`, into one generated Python function
(QEMU's translation blocks).  A CSR or system instruction may change state
the block depends on, so it ends the block and acts once the instructions
before it retire.  A straight run of MMUL units is one block, whose
function retires every MMUL issue: a middle issue of a partial sequence
costs a fixed number of cycles and only adds one to the engine's bit index,
so the run retires in one call, with one addition of k to it, the middle
issues that start before the wake.  The engine computes the product once,
at the last issue: the model shows nothing of a sequence in flight but
`MMUL_STATUS`, the busy bit and the bit index.  Any other issue retires
alone, in one call to the engine.
`Memory.blocks` keeps one block per pc for both `Cpu.run` and `Cpu.step`; a
block splits itself at the wake, a translated one retiring only its first
instruction when the wake falls before its last one starts, so `step` runs
the first instruction of the block at its pc.  Machines that
load the same image share its blocks until one of them writes into it
(see `Memory`).  A faulting access raises from inside its block, after the
instructions before it retire.  Past the block's own alignment and bounds
test, a translated `lw` or `sw` indexes `Memory.words`, the aligned word
view of the memory's bytes (QEMU's inline fast path for guest memory), so
a word store calls no `Memory` method unless it falls below `code_top`;
byte and halfword accesses use the bytes.  A block tests each distinct
(base register, offset, width) once until that register is written, and
when the memory size is a power of two the test is one mask, so the size
is part of the key under which machines share blocks.

A translated block keeps the registers it touches in Python locals, loaded
once per call and written back at every exit.  A loop block, one whose
last instruction is a conditional branch to its own first, runs all its
passes in one call (the hot-loop fragments of Dynamo, Bala et al., PLDI
2000): its body sits inside `while True:`, and its back edge goes on only
while the next whole pass's last instruction starts before the wake.  So a
call retires exactly the passes that one call per pass would, and the run
stops at the same instruction boundary.  Each exit, whether a fault, a
store into code, the fall-through or the wake, adds n whole passes' counts
and those of the partial pass once.

Timing: 1 cycle per retired instruction (covers a single-cycle fetch),
+1 cycle per taken control transfer, plus memory wait-states beyond the
first cycle for fetch and data accesses.  MMUL engine occupancy is added
on top and never double-counted.  Interrupt entry costs 3 cycles.  The
model is fixed and the same for BA/CI-AE/CI-PE.  A retirement adds only to
`retired` and, for a kind that uses the ALU, `alu_cycles`: every retired
instruction is fetched, decoded and reads the register file, so
`RunStats.settle` derives those three counters from `retired` when `run`
ends and after each `step`.
"""

import math
from contextlib import suppress
from functools import lru_cache, partial
from typing import NamedTuple

from .encoding import (OPCODE_AUIPC, OPCODE_BRANCH, OPCODE_CUSTOM0, OPCODE_JAL,
                       OPCODE_JALR, OPCODE_LOAD, OPCODE_LUI, OPCODE_MISC_MEM,
                       OPCODE_OP, OPCODE_OP_IMM, OPCODE_STORE, OPCODE_SYSTEM,
                       decode_r4, encode_b, encode_i, encode_j, encode_r,
                       encode_s, encode_u)
from .engine import BIT_CYCLES, MmulOperands
from .errors import IllegalInstruction, SequenceBroken, SimError
from .machine import (CAUSE_MEXT_IRQ, M32, MCAUSE, MEPC, MMUL_MODE, MSTATUS,
                      MSTATUS_MIE, MSTATUS_MPIE, MTVEC)


class DecodedInstruction:
    __slots__ = ("kind", "rd", "rs1", "rs2", "rs3", "imm", "words",
                 "csr", "length")

    def __init__(self, kind, rd=0, rs1=0, rs2=0, rs3=0, imm=0, words=0,
                 csr=0):
        self.kind = kind
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.rs3 = rs3
        self.imm = imm
        self.words = words
        self.csr = csr
        self.length = 4  # 2 for a compressed unit

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


def _lookup(table, key, message):
    if key not in table:
        raise IllegalInstruction(message)
    return table[key]


# One row per instruction: its encoding, kind and result.  A result is a
# Python expression of the 32-bit operands {a} and {b}, which the block
# translator compiles; an immediate form's b is d.imm & M32.
_ALU = {  # (funct3, funct7) -> (register form, immediate form, result)
    (0, 0): ("add", "addi", "{a} + {b} & 0xFFFFFFFF"),
    (0, 0x20): ("sub", None, "{a} - {b} & 0xFFFFFFFF"),
    (1, 0): ("sll", "slli", "{a} << ({b} & 31) & 0xFFFFFFFF"),
    (2, 0): ("slt", "slti", "1 if {a} ^ 0x80000000 < {b} ^ 0x80000000 else 0"),
    (3, 0): ("sltu", "sltiu", "1 if {a} < {b} else 0"),
    (4, 0): ("xor", "xori", "{a} ^ {b}"),
    (5, 0): ("srl", "srli", "{a} >> ({b} & 31)"),
    (5, 0x20): ("sra", "srai",
                "({a} ^ 0x80000000) - 0x80000000 >> ({b} & 31) & 0xFFFFFFFF"),
    (6, 0): ("or", "ori", "{a} | {b}"),
    (7, 0): ("and", "andi", "{a} & {b}"),
}
_BRANCH = {0: ("beq", "{a} == {b}"), 1: ("bne", "{a} != {b}"),
           4: ("blt", "{a} ^ 0x80000000 < {b} ^ 0x80000000"),
           5: ("bge", "{a} ^ 0x80000000 >= {b} ^ 0x80000000"),
           6: ("bltu", "{a} < {b}"),
           7: ("bgeu", "{a} >= {b}")}  # funct3 -> (kind, taken)
_LOAD = {0: ("lb", (1, True)), 1: ("lh", (2, True)), 2: ("lw", (4, False)),
         4: ("lbu", (1, False)), 5: ("lhu", (2, False))}  # (bytes, signed)
_STORE = {0: ("sb", 1), 1: ("sh", 2), 2: ("sw", 4)}  # funct3 -> (kind, bytes)
_CSR = {1: ("csrrw", ("write", False)), 2: ("csrrs", ("set", False)),
        3: ("csrrc", ("clear", False)), 5: ("csrrwi", ("write", True)),
        6: ("csrrsi", ("set", True)), 7: ("csrrci", ("clear", True))}
_SYSTEM = {0x00000073: "ecall", 0x00100073: "ebreak", 0x30200073: "mret"}


def decode32(w):
    """Decode a full-length 32-bit instruction word."""
    op = w & 0x7F
    rd = (w >> 7) & 0x1F
    f3 = (w >> 12) & 7
    rs1 = (w >> 15) & 0x1F
    rs2 = (w >> 20) & 0x1F
    f7 = (w >> 25) & 0x7F

    if op == OPCODE_LUI or op == OPCODE_AUIPC:
        _chk_reg(rd)
        return DecodedInstruction("lui" if op == OPCODE_LUI else "auipc",
                                  rd=rd, imm=_sext(w & 0xFFFFF000, 32))
    if op == OPCODE_JAL:
        _chk_reg(rd)
        imm = (((w >> 31) & 1) << 20) | (((w >> 21) & 0x3FF) << 1) \
            | (((w >> 20) & 1) << 11) | (((w >> 12) & 0xFF) << 12)
        return DecodedInstruction("jal", rd=rd, imm=_sext(imm, 21))
    if op == OPCODE_JALR and f3 == 0:
        _chk_reg(rd, rs1)
        return DecodedInstruction("jalr", rd=rd, rs1=rs1,
                                  imm=_sext(w >> 20, 12))
    if op == OPCODE_BRANCH:
        kind = _lookup(_BRANCH, f3, f"branch funct3={f3}")[0]
        _chk_reg(rs1, rs2)
        imm = (((w >> 31) & 1) << 12) | (((w >> 25) & 0x3F) << 5) \
            | (((w >> 8) & 0xF) << 1) | (((w >> 7) & 1) << 11)
        return DecodedInstruction(kind, rs1=rs1, rs2=rs2, imm=_sext(imm, 13))
    if op == OPCODE_LOAD:
        kind = _lookup(_LOAD, f3, f"load funct3={f3}")[0]
        _chk_reg(rd, rs1)
        return DecodedInstruction(kind, rd=rd, rs1=rs1, imm=_sext(w >> 20, 12))
    if op == OPCODE_STORE:
        kind = _lookup(_STORE, f3, f"store funct3={f3}")[0]
        _chk_reg(rs1, rs2)
        imm = ((w >> 25) << 5) | rd
        return DecodedInstruction(kind, rs1=rs1, rs2=rs2, imm=_sext(imm, 12))
    if op == OPCODE_OP_IMM:
        _chk_reg(rd, rs1)
        shift = f3 == 1 or f3 == 5  # funct7 selects the shift, rs2 its amount
        kind = _lookup(_ALU, (f3, f7 if shift else 0), "shift funct7")[1]
        return DecodedInstruction(kind, rd=rd, rs1=rs1,
                                  imm=rs2 if shift else _sext(w >> 20, 12))
    if op == OPCODE_OP:
        kind = _lookup(_ALU, (f3, f7), f"op funct3={f3} funct7={f7:#x}")[0]
        _chk_reg(rd, rs1, rs2)
        return DecodedInstruction(kind, rd=rd, rs1=rs1, rs2=rs2)
    if op == OPCODE_MISC_MEM:  # fence / fence.i: no-op in this model
        return DecodedInstruction("fence")
    if op == OPCODE_SYSTEM:
        if f3 == 0:
            kind = _lookup(_SYSTEM, w, f"system 0x{w:08x}")
            return DecodedInstruction(kind)
        kind = _lookup(_CSR, f3, f"system funct3={f3}")[0]
        _chk_reg(rd)
        if f3 < 4:
            _chk_reg(rs1)
        return DecodedInstruction(kind, rd=rd, rs1=rs1, csr=(w >> 20) & 0xFFF)
    if op == OPCODE_CUSTOM0:
        try:
            f = decode_r4(w)
        except SimError as exc:
            raise IllegalInstruction(str(exc)) from exc
        return DecodedInstruction("mmul", rd=f["rd"], rs1=f["rs1"],
                                  rs2=f["rs2"], rs3=f["rs3"],
                                  words=f["words"])
    raise IllegalInstruction(f"opcode 0x{op:02x}")


def expand_compressed(h):
    """The 32-bit instruction word the RVC spec defines for the 16-bit
    unit `h`.  A reserved encoding raises IllegalInstruction here; the
    RV32E register limit is left to decode32."""
    h &= 0xFFFF
    if h == 0:
        raise IllegalInstruction("all-zero compressed encoding")
    q = h & 3
    if q == 3:
        raise IllegalInstruction("not a compressed encoding")
    f3 = (h >> 13) & 7
    bit12 = (h >> 12) & 1
    r = (h >> 7) & 0x1F  # rd / rs1 of the full-register forms
    rs2 = (h >> 2) & 0x1F
    rp, rs2p = 8 + ((h >> 7) & 7), 8 + ((h >> 2) & 7)  # the x8..x15 forms
    imm6 = _sext((bit12 << 5) | rs2, 6)
    if q == 0:
        if f3 == 0:  # c.addi4spn: addi rd', x2, nzuimm
            imm = (((h >> 5) & 1) << 3) | (((h >> 6) & 1) << 2) \
                | (((h >> 7) & 0xF) << 6) | (((h >> 11) & 3) << 4)
            if imm == 0:
                raise IllegalInstruction("c.addi4spn with zero immediate")
            return encode_i(OPCODE_OP_IMM, 0, rs2p, 2, imm)
        if f3 != 2 and f3 != 6:
            raise IllegalInstruction(f"compressed q0 funct3={f3}")
        imm = (((h >> 10) & 7) << 3) | (((h >> 6) & 1) << 2) \
            | (((h >> 5) & 1) << 6)
        if f3 == 2:  # c.lw: lw rd', imm(rs1')
            return encode_i(OPCODE_LOAD, 2, rs2p, rp, imm)
        return encode_s(OPCODE_STORE, 2, rp, rs2p, imm)  # c.sw
    if q == 1:
        # c.addi: addi rd, rd, imm (x0: c.nop); c.li: addi rd, x0, imm
        if f3 == 0 or f3 == 2:
            return encode_i(OPCODE_OP_IMM, 0, r, r if f3 == 0 else 0, imm6)
        if f3 == 1 or f3 == 5:  # c.jal (RV32): jal x1; c.j: jal x0
            imm = (bit12 << 11) | (((h >> 11) & 1) << 4) \
                | (((h >> 9) & 3) << 8) | (((h >> 8) & 1) << 10) \
                | (((h >> 7) & 1) << 6) | (((h >> 6) & 1) << 7) \
                | (((h >> 3) & 7) << 1) | (((h >> 2) & 1) << 5)
            return encode_j(int(f3 == 1), _sext(imm, 12))
        if f3 == 3:
            if r == 2:  # c.addi16sp: addi x2, x2, nzimm
                imm = (bit12 << 9) | (((h >> 3) & 3) << 7) \
                    | (((h >> 5) & 1) << 6) | (((h >> 2) & 1) << 5) \
                    | (((h >> 6) & 1) << 4)
                if imm == 0:
                    raise IllegalInstruction("c.addi16sp zero immediate")
                return encode_i(OPCODE_OP_IMM, 0, 2, 2, _sext(imm, 10))
            if r == 0:
                raise IllegalInstruction("c.lui rd=x0")
            if imm6 == 0:
                raise IllegalInstruction("c.lui zero immediate")
            return encode_u(OPCODE_LUI, r, imm6)  # c.lui
        if f3 == 4:
            sub = (h >> 10) & 3
            if sub < 2:  # c.srli, c.srai: imm[10] selects srai
                if bit12:
                    raise IllegalInstruction("compressed shift shamt[5]=1")
                return encode_i(OPCODE_OP_IMM, 5, rp, rp, (sub << 10) | rs2)
            if sub == 2:  # c.andi
                return encode_i(OPCODE_OP_IMM, 7, rp, rp, imm6)
            if bit12:
                raise IllegalInstruction("reserved compressed q1 encoding")
            # c.sub, c.xor, c.or, c.and: op rd', rd', rs2'
            funct = ((0, 0x20), (4, 0), (6, 0), (7, 0))[(h >> 5) & 3]
            return encode_r(OPCODE_OP, *funct, rp, rp, rs2p)
        # c.beqz, c.bnez: beq (funct3 0), bne (funct3 1) rs1', x0
        imm = (bit12 << 8) | (((h >> 10) & 3) << 3) \
            | (((h >> 5) & 3) << 6) | (((h >> 3) & 3) << 1) \
            | (((h >> 2) & 1) << 5)
        return encode_b(f3 - 6, rp, 0, _sext(imm, 9))
    # q == 2
    if f3 == 0:  # c.slli
        if bit12:
            raise IllegalInstruction("compressed shift shamt[5]=1")
        return encode_i(OPCODE_OP_IMM, 1, r, r, rs2)
    if f3 == 2:  # c.lwsp: lw rd, imm(x2)
        if r == 0:
            raise IllegalInstruction("c.lwsp rd=x0")
        imm = (bit12 << 5) | (((h >> 4) & 7) << 2) | (((h >> 2) & 3) << 6)
        return encode_i(OPCODE_LOAD, 2, r, 2, imm)
    if f3 == 4:
        if rs2:  # c.mv: add rd, x0, rs2; c.add: add rd, rd, rs2
            return encode_r(OPCODE_OP, 0, 0, r, r if bit12 else 0, rs2)
        if r:  # c.jr: jalr x0, 0(rs1); c.jalr: jalr x1, 0(rs1)
            return encode_i(OPCODE_JALR, 0, bit12, r, 0)
        if bit12:
            return encode_i(OPCODE_SYSTEM, 0, 0, 0, 1)  # c.ebreak: ebreak
        raise IllegalInstruction("c.jr rs1=x0")
    if f3 == 6:  # c.swsp: sw rs2, imm(x2)
        imm = (((h >> 9) & 0xF) << 2) | (((h >> 7) & 3) << 6)
        return encode_s(OPCODE_STORE, 2, 2, rs2, imm)
    raise IllegalInstruction(f"compressed q2 funct3={f3}")


@lru_cache(maxsize=1 << 16)
def decode(fetch_unit):
    """Decode a 32-bit fetch unit.  When its low 16 bits are a compressed
    unit, decode that unit's 32-bit expansion with length 2.  Pure
    function, so results are cached by raw value."""
    if fetch_unit & 3 == 3:
        return decode32(fetch_unit)
    d = decode32(expand_compressed(fetch_unit & 0xFFFF))
    d.length = 2
    return d


class StepReport(NamedTuple):
    retired: str  # instruction kind, or "irq" for an interrupt entry
    cycles: int


BASE_CPI = 1              # cycles per retired instruction, fetch included
TAKEN_BRANCH_PENALTY = 1  # extra cycles of a taken control transfer
TRAP_ENTRY_CYCLES = 3     # cycles of an interrupt entry


def _mret(m):
    """Leave the trap handler, restoring mstatus.MIE from MPIE; returns
    mepc, where the handler returns to."""
    status = m.csr[MSTATUS]
    mie = MSTATUS_MIE if status & MSTATUS_MPIE else 0
    m.csr[MSTATUS] = (status & ~MSTATUS_MIE) | mie | MSTATUS_MPIE
    m.in_handler = False
    return m.csr[MEPC]


# kind -> (its `_translate` case, its table value).  An ALU or branch
# kind's value is its table row's result, with an immediate form's operand
# b as {imm}; a system kind's is its code once the instructions before it
# retire, which leaves m.pc past it ({after}) and adds its own cost ({own}).
_EXECUTE = {
    "lui": ("upper", False), "auipc": ("upper", True),
    "jal": ("jump", False), "jalr": ("jump", True),
    # ecall halts with the exit code in a0; fence is a no-op in this model
    "mret": ("system", "m.pc = _mret(m); {own}"),
    "ecall": ("system",
              "m.halted = True; m.exit_code = x[10]; m.pc = {after}; {own}"),
    "ebreak": ("system",
               'raise IllegalInstruction("ebreak (no debugger attached)")'),
    "fence": ("system", "m.pc = {after}; {own}"),
    **{reg: ("alu", result) for reg, _, result in _ALU.values()},
    **{imm: ("alu", result.replace("{b}", "{imm}"))
       for _, imm, result in _ALU.values() if imm},
    **{kind: ("branch", taken) for kind, taken in _BRANCH.values()},
    **{kind: ("load", spec) for kind, spec in _LOAD.values()},
    **{kind: ("store", nbytes) for kind, nbytes in _STORE.values()},
    **{kind: ("csr", spec) for kind, spec in _CSR.values()},
}
_STRAIGHT = ("alu", "upper", "load", "store")  # the cases a block runs past


def _plus(a, imm):
    """The expression of the 32-bit sum of operand `a` and `imm`, folded:
    registers hold 32-bit values, so a zero immediate leaves `a` as it
    is, and a sum from x0 is a constant."""
    if a == "0":
        return str(imm & M32)
    return f"{a} + {imm & M32} & 0xFFFFFFFF" if imm else a


def _translate(pc, decodes, read_latency, write_latency, size):
    """The block of the decoded units `decodes` at `pc`, in a memory of
    `size` bytes, as (run, end): `run(m, limit)` retires it, adding its
    counts in bulk, and returns its cycles, or only its first instruction
    if its last would start `limit` or more cycles after the block does;
    `end` is the end of its fetch windows.

    The registers the block touches are locals: loaded once per call and
    written back at every exit.  A loop block, whose last instruction is a
    conditional branch to `pc`, runs its body inside `while True:` and
    counts its passes in n.  Its back edge continues while the next whole
    pass's last instruction starts before `limit`, as one call per pass
    would, and each exit adds n passes' counts and those of the partial
    pass once.

    An access that would fault retires the instructions before it, leaves
    m.pc at it and calls the machine's LSU, which raises.  Each distinct
    (base register, offset, width) is tested once until its base register
    is written; when `size` is a power of two the alignment and bounds test
    is one mask.  Past that test, `lw` and `sw` index the memory's word
    view `w`; a store below `code_top`, read once per call, invalidates
    what it overlaps and ends the block.

    A CSR or system instruction is always last.  It first retires the
    instructions before it, as a fault does, so a CSR reads `mcycle` at
    its own start and a fault leaves m.pc at it; then it acts, through
    `m.csr_access` for a CSR, and adds its own cycles to `retired` but not
    to `alu_cycles`."""
    cases = [_EXECUTE[d.kind] for d in decodes]
    costs = [BASE_CPI + read_latency - 1
             + (read_latency - 1 if case == "load" else
                write_latency - 1 if case == "store" else
                TAKEN_BRANCH_PENALTY if case == "jump" or d.kind == "mret"
                else 0)
             for d, (case, _) in zip(decodes, cases)]
    last = pc + sum(d.length for d in decodes[:-1]) & M32
    loop = cases[-1][0] == "branch" and last + decodes[-1].imm & M32 == pc
    per_pass = (sum(costs) + TAKEN_BRANCH_PENALTY, len(decodes),
                sum(case == "load" for case, _ in cases),
                sum(case == "store" for case, _ in cases))
    system = cases[-1][0] in ("csr", "system")
    straight = decodes[:-1] if system else decodes  # a system kind uses x
    touched = sorted({r for d in straight for r in (d.rd, d.rs1, d.rs2) if r})
    write_back = "".join(f"x[{r}] = x{r}; " for r in touched
                         if any(d.rd == r for d in straight))
    count = cycles = reads = writes = 0

    def retire(to, extra=0, then=None, part=None):  # all use the ALU
        """Write the registers back and retire n passes and `part`, by
        default the (cycles + `extra`, count, reads, writes) of this pass
        so far, then leave at `to`, or run `then`."""
        part = part or (cycles + extra, count, reads, writes)
        total = [str(done) if not loop or not whole else
                 f"n * {whole} + {done}" if done else f"n * {whole}"
                 for whole, done in zip(per_pass, part)]
        return (f"{write_back}m.pc = {to}; t = {total[0]}; m.cycle += t; "
                f"s = m.stats; s.retired += {total[1]}; "
                f"s.alu_cycles += {total[1]}; "
                + "".join(f"s.mem_{name} += {n}; " for name, n, whole
                          in zip(("reads", "writes"), total[2:],
                                 per_pass[2:]) if whole)
                + ("return t" if then is None else then))

    lines, checked = [], set()
    at = pc
    for i, (d, (case, value)) in enumerate(zip(decodes, cases)):
        if i == 1:  # where the first instruction alone retires
            split = len(lines), retire(at)
        head, fault = cycles, retire(at, then="")
        count += 1
        cycles += costs[i]
        after = (at + d.length) & M32
        rd = f"x{d.rd} = " if d.rd else "_ = "
        a, b = (f"x{r}" if r else "0" for r in (d.rs1, d.rs2))
        if d.kind == "addi":
            lines.append(rd + _plus(a, d.imm))
        elif case == "alu":
            lines.append(rd + value.format(a=a, b=b, imm=d.imm & M32))
        elif case == "upper":
            lines.append(rd + str((at if value else 0) + d.imm & M32))
        elif case in ("load", "store"):
            load = case == "load"
            n = value[0] if load else value
            reads, writes = reads + load, writes + (not load)
            addr = _plus(a, d.imm)
            if addr != a and not addr.isdigit():
                lines.append(f"a = {addr}")
                addr = "a"
            lsu = f"m.{case}_" + ("word(" if n == 4 else "scalar(") + addr \
                + ("" if n == 4 else f", {n}") + ("" if load else f", {b}") \
                + ")"
            if (d.rs1, d.imm, n) not in checked:
                checked.add((d.rs1, d.imm, n))
                test = f"{addr} & {M32 & -size | n - 1}" \
                    if size & size - 1 == 0 else \
                    (f"{addr} & {n - 1} or " if n > 1 else "") \
                    + f"{addr} > {size - n}"
                lines.append(f"if {test}: {fault}{lsu}")
            if load and n == 4:
                lines.append(rd + f"w[{addr} >> 2]")
            elif load:
                lines.append(rd + f"int.from_bytes(data[{addr}:{addr} + {n}],"
                             " 'little'" + (", signed=True) & 0xFFFFFFFF"
                                            if value[1] else ")"))
            else:  # a write below code_top invalidates what it overlaps,
                # and the rest of the block may have been rewritten
                rest = [retire(after)] if i < len(decodes) - 1 else []
                if n == 4:
                    lines.append(f"w[{addr} >> 2] = {b}")
                    rest.insert(0, f"mem.invalidate({addr}, {addr} + 4)")
                else:
                    lines.append(f"mem.write({addr}, {n}, {b})")
                if rest:
                    lines.append(f"if {addr} < top: " + "; ".join(rest))
        elif case == "branch":
            taken = value.format(a=a, b=b)
            if loop:
                lines += [f"if {taken}:", "    n += 1",
                          f"    if n * {per_pass[0]} + {head} < limit: "
                          "continue",
                          "    " + retire(pc, part=(0, 0, 0, 0))]
            else:
                lines.append(f"if {taken}: "
                             + retire(at + d.imm & M32, TAKEN_BRANCH_PENALTY))
        elif case == "jump":  # rs1 is read before the link overwrites it
            target = at + d.imm & 0xFFFFFFFE
            if value:  # jalr
                offset = f" + {d.imm & M32}" if d.imm else ""
                lines.append(f"j = {a}{offset} & 0xFFFFFFFE")
                target = "j"
            lines.append(rd + str(after))
            after = target
        else:  # a CSR or system kind, always last: it acts once the
            # instructions before it retire, with m.pc at it
            if case == "csr":
                op, imm_form = value
                if op != "write" and not d.rs1:
                    op = "read"  # set/clear with x0 or a zero immediate
                value = (f"x[{d.rd}] = " if d.rd else "") \
                    + f"m.csr_access({d.csr}, '{op}', " \
                    + (str(d.rs1) if imm_form else f"x[{d.rs1}]") \
                    + "); m.pc = {after}; {own}"
            own = f"m.cycle += {costs[i]}; m.stats.retired += 1; return " \
                + ("t + " if i else "") + str(costs[i])
            lines.append((fault if i else "")
                         + value.format(after=after, own=own))
        checked = {key for key in checked if key[0] != d.rd}
        at = (at + d.length) & M32
    if not system:
        lines.append(retire(after))
    if len(decodes) > 1:  # `head`: the cycle at which the last one starts
        lines.insert(split[0], f"if limit <= {head}: {split[1]}")
    if loop:
        lines = ["n = 0", "while True:"] + ["    " + line for line in lines]
    binds = [f"x{r} = x[{r}]" for r in touched]
    if reads or writes:  # only a block that accesses memory binds it
        binds.append("mem = m.mem; data = mem.data; w = mem.words")
    if writes:
        binds.append("top = mem.code_top")
    namespace = {"_mret": _mret, "IllegalInstruction": IllegalInstruction}
    exec("def run(m, limit):\n    x = m.regs.x\n    "
         + "\n    ".join(binds + lines), namespace)
    return namespace["run"], last + 4


def _mmul_run(d, pc, count, cost, m, limit):
    """The block of `count` consecutive MMUL units at `pc`, `d` the first:
    the one place the core retires an MMUL issue.  A middle issue of a
    partial sequence costs `cost` cycles, so one call retires k of them by
    adding k to the engine's bit index: all the middle issues left in the
    run and in the latched sequence or, when the wake falls among them,
    those that start before it.  A first, last or atomic issue retires
    alone, in one call to the engine, and a fault leaves m.pc at it; a
    trap handler's issue into a sequence in flight is refused."""
    engine, stats = m.engine, m.stats
    in_sequence = engine.latched is not None
    if in_sequence and m.in_handler:
        raise SequenceBroken("MMUL issued from a trap handler mid-sequence")
    k = min(count, engine.n_bits - 1 - engine.bit_index) if in_sequence else 0
    if limit < k * cost:  # the wake falls among them: those before it
        k = -(-limit // cost)
    if k:
        engine.bit_index += k
        engine_cycles = k * BIT_CYCLES
    else:  # a first, last or atomic issue retires alone
        k = 1
        regs = m.regs.x
        ops = MmulOperands(addr_a=regs[d.rs1], addr_b=regs[d.rs2],
                           addr_n=regs[d.rs3], addr_p=regs[d.rd],
                           words=d.words)
        if in_sequence or m.csr[MMUL_MODE] & 1:
            engine_cycles = engine.execute_partial_call(m, ops).cycles
        else:
            engine_cycles = engine.execute_atomic(m, ops).cycles
        stats.mmul_invocations += not in_sequence
    m.pc = pc + 4 * k & M32
    cycles = k * (cost - BIT_CYCLES) + engine_cycles
    m.cycle += cycles
    stats.retired += k
    stats.mmul_cycles += engine_cycles
    return cycles


def _block_at(mem, pc):
    """The entry of `pc` in `mem.blocks`, made on its first visit: (its
    block, translated or an MMUL run; its first decode; the end of its
    fetch windows).  A translated block ends at its first branch, jump,
    CSR or system instruction, before an MMUL unit, or before a unit
    whose fetch or decode faults.  The visit that finds an MMUL run makes
    the entries of all its units from `pc` on, each the rest of the run,
    in its one scan.  A fault fetching or decoding the first unit raises
    and caches nothing.  An entry whose windows lie inside the image the
    memory shares its blocks for is added to that image's table."""
    d = decode(mem.fetch_unit(pc))
    if d.kind == "mmul":
        units = []
        try:
            while d.kind == "mmul":
                units.append(d)
                d = decode(mem.fetch_unit(pc + 4 * len(units)))
        except SimError:
            pass
        end = pc + 4 * len(units)
        cost = BASE_CPI + mem.read_latency - 1 + BIT_CYCLES
        for i, unit in enumerate(units):
            at = pc + 4 * i
            mem.keep(at, (partial(_mmul_run, unit, at, len(units) - i, cost),
                          unit, end))
        return mem.blocks[pc]
    decodes, at = [], pc
    while d.kind != "mmul":
        decodes.append(d)
        at = (at + d.length) & M32
        if _EXECUTE[d.kind][0] not in _STRAIGHT:
            break
        try:
            d = decode(mem.fetch_unit(at))
        except SimError:
            break
    run, end = _translate(pc, decodes, mem.read_latency, mem.write_latency,
                          len(mem.data))
    return mem.keep(pc, (run, decodes[0], end))


class Cpu:
    """Fetch/decode/execute loop over one Machine."""

    def __init__(self, machine):
        self.m = machine

    def _enter_interrupt(self):
        m = self.m
        m.csr[MEPC] = m.pc & ~1 & M32
        m.csr[MCAUSE] = CAUSE_MEXT_IRQ
        status = m.csr[MSTATUS]
        mpie = MSTATUS_MPIE if status & MSTATUS_MIE else 0
        m.csr[MSTATUS] = (status & ~(MSTATUS_MIE | MSTATUS_MPIE)) | mpie
        m.pc = m.csr[MTVEC]
        m.in_handler = True
        m.cycle += TRAP_ENTRY_CYCLES
        m.stats.interrupt_latencies.append((m.irq_assert_cycle, m.cycle))
        return StepReport("irq", TRAP_ENTRY_CYCLES)

    def step(self):
        """Retire one instruction (or take a pending enabled interrupt).
        A fault leaves m.pc at the faulting instruction.

        The instruction retires as `run(m, 1)`, the first instruction of
        the block at its pc in `m.mem.blocks`, which `_block_at` fills on a
        miss."""
        m = self.m
        if m.irq_pending and m.interrupt_ready():
            return self._enter_interrupt()
        run, d, _ = m.mem.blocks.get(m.pc) or _block_at(m.mem, m.pc)
        cycles = run(m, 1)
        m.stats.settle(m.mem.read_latency)
        # _make skips the NamedTuple's Python-level __new__: half the cost
        return StepReport._make((d.kind, cycles))

    def run(self, budget=None, irq_schedule=(), config="BA"):
        """Step until a stop condition; returns populated RunStats.

        Scheduled interrupts are raised, and the halt and budget checked,
        only at a wake cycle: the next scheduled interrupt or the budget,
        whichever is first, and the run stops at the first instruction
        boundary at or past it.  Between wakes, when no enabled interrupt
        is pending, the loop runs the block at the pc in one call: every pc
        has one, and a block retires no instruction that would start at or
        past the wake, except its first.  Otherwise, and always when `step`
        is overridden or wrapped, it steps."""
        m = self.m
        stats = m.stats
        stats.config = config
        step = self.step
        blocks = m.mem.blocks if type(self).step is _PLAIN_STEP else None
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
                wake = sched[si] if si < len(sched) else math.inf
                if budget is not None and budget < wake:
                    wake = budget
                while m.cycle < wake and not m.halted:
                    if blocks is None or m.irq_pending and m.interrupt_ready():
                        step()
                    else:
                        (blocks.get(m.pc) or _block_at(m.mem, m.pc))[0](
                            m, wake - m.cycle)
        except SimError as exc:
            stats.stop_reason = "trap"
            stats.trap_cause = f"{type(exc).__name__}: {exc}"
            stats.trap_pc = m.pc
            with suppress(SimError):  # null when the fetch itself faulted
                stats.trap_insn = m.mem.fetch_unit(m.pc)
        stats.total_cycles = m.cycle
        stats.settle(m.mem.read_latency)
        stats.exit_code = m.exit_code
        return stats


_PLAIN_STEP = Cpu.step
