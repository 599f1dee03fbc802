"""Bit layouts of the RV32 instruction formats: the one home of the
major opcodes and of the R/I/S/B/U/J encoders (the assembler emits with
them, and compressed units expand through them), plus the bit-exact
encoder/decoder of the MMUL custom instruction.

MMUL's executable format is R4-type on the custom-0 opcode.  I-type and
R-type variants exist only analytically: `capacity` reports how large an
operand each format could address.
"""

from dataclasses import dataclass

from .errors import NotMmul, RegisterOutOfRange, WordsOutOfRange

# major opcodes of the base ISA
OPCODE_LOAD, OPCODE_MISC_MEM, OPCODE_OP_IMM = 0x03, 0x0F, 0x13
OPCODE_AUIPC, OPCODE_STORE, OPCODE_OP, OPCODE_LUI = 0x17, 0x23, 0x33, 0x37
OPCODE_BRANCH, OPCODE_JALR, OPCODE_JAL, OPCODE_SYSTEM = 0x63, 0x67, 0x6F, 0x73
OPCODE_CUSTOM0 = 0x0B  # 0b0001011, reserved custom-0 space
MAX_WORDS = 32  # the most operand words MMUL's 5-bit length code carries


def encode_r(op, f3, f7, rd, rs1, rs2):
    return (f7 << 25) | (rs2 << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op


def encode_i(op, f3, rd, rs1, imm):
    return ((imm & 0xFFF) << 20) | (rs1 << 15) | (f3 << 12) | (rd << 7) | op


def encode_s(op, f3, rs1, rs2, imm):
    return (((imm >> 5) & 0x7F) << 25) | (rs2 << 20) | (rs1 << 15) \
        | (f3 << 12) | ((imm & 0x1F) << 7) | op


def encode_b(f3, rs1, rs2, imm):
    return (((imm >> 12) & 1) << 31) | (((imm >> 5) & 0x3F) << 25) \
        | (rs2 << 20) | (rs1 << 15) | (f3 << 12) \
        | (((imm >> 1) & 0xF) << 8) | (((imm >> 11) & 1) << 7) | OPCODE_BRANCH


def encode_u(op, rd, imm20):
    return ((imm20 & 0xFFFFF) << 12) | (rd << 7) | op


def encode_j(rd, imm):
    return (((imm >> 20) & 1) << 31) | (((imm >> 1) & 0x3FF) << 21) \
        | (((imm >> 11) & 1) << 20) | (((imm >> 12) & 0xFF) << 12) \
        | (rd << 7) | OPCODE_JAL


def check_registers(*regs, fields=None):
    """Raise RegisterOutOfRange for the first of `regs` outside x0..x15,
    prefixed with its entry in `fields` when given."""
    for field, r in zip(fields or ("",) * len(regs), regs):
        if not 0 <= r <= 15:
            raise RegisterOutOfRange(f"{field}x{r} not valid under RV32E")


_R4_FIELDS = ("rd=", "rs1=", "rs2=", "rs3=")


def encode_r4(rd, rs1, rs2, rs3, words):
    """Pack an MMUL instruction.

    Layout: rs3[31:27] fnc2[26:25] rs2[24:20] rs1[19:15] fnc3[14:12]
    rd[11:7] opcode[6:0].  The 5-bit length code (words - 1) is split as
    fnc2 = len[4:3], fnc3 = len[2:0].
    """
    if (rd | rs1 | rs2 | rs3) & ~15:  # one test; the message only on failure
        check_registers(rd, rs1, rs2, rs3, fields=_R4_FIELDS)
    if not 1 <= words <= MAX_WORDS:
        raise WordsOutOfRange(f"words={words} outside 1..{MAX_WORDS}")
    ln = words - 1  # R-type with funct7 = rs3:fnc2
    return encode_r(OPCODE_CUSTOM0, ln & 0x7, (rs3 << 2) | (ln >> 3),
                    rd, rs1, rs2)


def decode_r4(word):
    """Inverse of encode_r4; returns a dict of fields."""
    if word & 0x7F != OPCODE_CUSTOM0:
        raise NotMmul(f"opcode 0x{word & 0x7F:02x} is not custom-0")
    rd = (word >> 7) & 0x1F
    fnc3 = (word >> 12) & 0x7
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    fnc2 = (word >> 25) & 0x3
    rs3 = (word >> 27) & 0x1F
    if (rd | rs1 | rs2 | rs3) & ~15:
        check_registers(rd, rs1, rs2, rs3, fields=_R4_FIELDS)
    return {"rd": rd, "rs1": rs1, "rs2": rs2, "rs3": rs3,
            "words": ((fnc2 << 3) | fnc3) + 1}


@dataclass(frozen=True)
class FormatCapacity:
    format: str
    length_bits_available: int
    length_unit: str  # "bits" or "words"
    max_operand_bits: int


def capacity(fmt, xlen=32):
    """Maximum operand size each candidate instruction format can encode.

    I-type has fnc3 + imm = 15 free bits, R-type fnc3 + fnc7 = 10 bits (both
    counting length in bits); R4-type has only fnc3 + fnc2 = 5 bits, so its
    length is counted in machine words.
    """
    if xlen not in (32, 64):
        raise ValueError(f"xlen must be 32 or 64, got {xlen}")
    if fmt == "I":
        bits, unit = 15, "bits"
    elif fmt == "R":
        bits, unit = 10, "bits"
    elif fmt == "R4":
        bits, unit = 5, "words"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    max_bits = (1 << bits) * (1 if unit == "bits" else xlen)
    return FormatCapacity(fmt, bits, unit, max_bits)


def insn_directive(rd, rs1, rs2, rs3, words):
    """GCC `.insn r4` directive text for an encoding (external cross-check)."""
    word = encode_r4(rd, rs1, rs2, rs3, words)
    return (f".insn r4 0x{OPCODE_CUSTOM0:02x}, {(word >> 12) & 0x7}, "
            f"{(word >> 25) & 0x3}, x{rd}, x{rs1}, x{rs2}, x{rs3}")
