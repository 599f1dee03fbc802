"""Tiny in-package program builder for guest code.

Emits 32-bit RV32E encodings (plus the MMUL custom instruction) into a flat
code image with label fixups.  The format encoders and opcodes live in
`encoding.py`; the emitter of every instruction in the decoder's tables
(`isa._ALU`, `_BRANCH`, `_LOAD`, `_STORE`, `_CSR`, `_SYSTEM`) is derived
from its table row, so this module writes no funct3 or funct7 value of
its own.  Every emitter refuses an operand its field cannot hold with a
`SimError` rather than truncate it.  Not a general assembler: just enough
for the benchmark kernels, with a text dump for eyeball cross-checks.
"""

import keyword

from . import isa
from .encoding import (OPCODE_JALR, OPCODE_LOAD, OPCODE_LUI, OPCODE_OP,
                       OPCODE_OP_IMM, OPCODE_STORE, OPCODE_SYSTEM, encode_b,
                       encode_i, encode_j, encode_r, encode_r4, encode_s,
                       encode_u)
from .errors import RegisterOutOfRange, SimError

IMM12 = (-2048, 2047)  # I- and S-type immediates


def _reg(*regs):
    for r in regs:
        if not 0 <= r <= 15:
            raise RegisterOutOfRange(f"x{r} not valid under RV32E")


def _fits(what, value, bounds):
    lo, hi = bounds
    if not lo <= value <= hi:
        raise SimError(f"{what} {value} outside {lo}..{hi}")


class Asm:
    def __init__(self, base=0):
        self.base = base
        self.words = []
        self.labels = {}
        self.fixups = []  # (word_index, kind, label, partial encoding args)
        self.listing = []

    @property
    def pc(self):
        return self.base + 4 * len(self.words)

    def _emit(self, word, text):
        self.words.append(word)
        self.listing.append(f"{self.pc - 4:08x}: {word:08x}  {text}")

    def label(self, name):
        if name in self.labels:
            raise SimError(f"duplicate label {name!r}")
        self.labels[name] = self.pc
        self.listing.append(f"{name}:")

    # -- outside the decoder's tables (the rest are added below) ----------

    def lui(self, rd, imm20):
        _reg(rd)
        _fits("lui immediate", imm20, (0, 0xFFFFF))
        self._emit(encode_u(OPCODE_LUI, rd, imm20),
                   f"lui x{rd}, 0x{imm20:x}")

    def jalr(self, rd, rs1, imm=0):
        _reg(rd, rs1)
        _fits("jalr offset", imm, IMM12)
        self._emit(encode_i(OPCODE_JALR, 0, rd, rs1, imm),
                   f"jalr x{rd}, x{rs1}, {imm}")

    def ret(self):
        self.jalr(0, 1, 0)

    def mmul(self, rd, rs1, rs2, rs3, words):
        self._emit(encode_r4(rd, rs1, rs2, rs3, words),
                   f"mmul x{rd}, x{rs1}, x{rs2}, x{rs3}, words={words}")

    # -- label-relative ----------------------------------------------------

    def jal(self, rd, label):
        _reg(rd)
        self.fixups.append((len(self.words), "j", label, rd, 0))
        self._emit(0, f"jal x{rd}, {label}")

    def j(self, label):
        self.jal(0, label)

    # -- pseudo-instructions ----------------------------------------------

    def li(self, rd, value):
        value &= 0xFFFFFFFF
        sval = value - (1 << 32) if value >> 31 else value
        if -2048 <= sval < 2048:
            self.addi(rd, 0, sval)
            return
        hi = ((value + 0x800) >> 12) & 0xFFFFF
        lo = value - ((hi << 12) & 0xFFFFFFFF)
        lo = lo - (1 << 32) if lo >= (1 << 31) else lo
        self.lui(rd, hi)
        if lo:
            self.addi(rd, rd, lo)

    def mv(self, rd, rs1):
        self.addi(rd, rs1, 0)

    def nop(self):
        self.addi(0, 0, 0)

    # -- assembly ----------------------------------------------------------

    def assemble(self):
        for fix in self.fixups:
            idx, kind, label = fix[0], fix[1], fix[2]
            if label not in self.labels:
                raise SimError(f"undefined label {label!r}")
            offset = self.labels[label] - (self.base + 4 * idx)
            if kind == "j":
                rd = fix[3]
                if not -(1 << 20) <= offset < (1 << 20):
                    raise SimError(f"jal offset {offset} out of range")
                self.words[idx] = encode_j(rd, offset)
            else:
                rs1, rs2, f3 = fix[3], fix[4], fix[5]
                if not -(1 << 12) <= offset < (1 << 12):
                    raise SimError(f"branch offset {offset} out of range")
                self.words[idx] = encode_b(f3, rs1, rs2, offset)
        return b"".join(w.to_bytes(4, "little") for w in self.words)

    def dump(self):
        return "\n".join(self.listing)


# -- emitters derived from the decoder's tables, one per row ---------------

def _alu(kind, f3, f7):
    def emit(self, rd, rs1, rs2):
        _reg(rd, rs1, rs2)
        self._emit(encode_r(OPCODE_OP, f3, f7, rd, rs1, rs2),
                   f"{kind} x{rd}, x{rs1}, x{rs2}")
    return emit


def _alu_imm(kind, f3, f7):  # a shift's funct7 sits in imm[11:5]
    bounds = (0, 31) if f3 == 1 or f3 == 5 else IMM12

    def emit(self, rd, rs1, imm):
        _reg(rd, rs1)
        _fits(f"{kind} immediate", imm, bounds)
        self._emit(encode_i(OPCODE_OP_IMM, f3, rd, rs1, (f7 << 5) | imm),
                   f"{kind} x{rd}, x{rs1}, {imm}")
    return emit


def _load(kind, f3):
    def emit(self, rd, rs1, imm=0):
        _reg(rd, rs1)
        _fits(f"{kind} offset", imm, IMM12)
        self._emit(encode_i(OPCODE_LOAD, f3, rd, rs1, imm),
                   f"{kind} x{rd}, {imm}(x{rs1})")
    return emit


def _store(kind, f3):
    def emit(self, rs2, rs1, imm=0):
        _reg(rs2, rs1)
        _fits(f"{kind} offset", imm, IMM12)
        self._emit(encode_s(OPCODE_STORE, f3, rs1, rs2, imm),
                   f"{kind} x{rs2}, {imm}(x{rs1})")
    return emit


def _csr(kind, f3, imm_form):  # an immediate form's rs1 is its 5-bit zimm
    def emit(self, rd, csr, rs1):
        _reg(rd)
        _fits("CSR number", csr, (0, 0xFFF))
        if imm_form:
            _fits(f"{kind} immediate", rs1, (0, 31))
        else:
            _reg(rs1)
        src = rs1 if imm_form else f"x{rs1}"
        self._emit(encode_i(OPCODE_SYSTEM, f3, rd, rs1, csr),
                   f"{kind} x{rd}, 0x{csr:03x}, {src}")
    return emit


def _system(kind, word):
    def emit(self):
        self._emit(word, kind)
    return emit


def _branch(kind, f3):
    def emit(self, rs1, rs2, label):
        _reg(rs1, rs2)
        self.fixups.append((len(self.words), "b", label, rs1, rs2, f3))
        self._emit(0, f"{kind} x{rs1}, x{rs2}, {label}")
    return emit


def _install_table_emitters():
    emitters = [(kind, _system(kind, word))
                for word, kind in isa._SYSTEM.items()]
    for (f3, f7), (reg, imm, _) in isa._ALU.items():
        emitters.append((reg, _alu(reg, f3, f7)))
        if imm:
            emitters.append((imm, _alu_imm(imm, f3, f7)))
    for table, make in ((isa._BRANCH, _branch), (isa._LOAD, _load),
                        (isa._STORE, _store)):
        emitters += [(kind, make(kind, f3)) for f3, (kind, _) in table.items()]
    for f3, (kind, (_, imm_form)) in isa._CSR.items():
        emitters.append((kind, _csr(kind, f3, imm_form)))
    for kind, emit in emitters:
        setattr(Asm, kind + "_" if keyword.iskeyword(kind) else kind, emit)


_install_table_emitters()
