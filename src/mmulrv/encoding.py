"""Bit-exact encoder/decoder for the MMUL custom instruction.

The executable format is R4-type on the custom-0 opcode.  I-type and R-type
variants exist only analytically: `capacity` reports how large an operand each
format could address, and `layout_addresses` documents the memory layout each
one would impose.
"""

from dataclasses import dataclass

from .errors import NotMmul, RegisterOutOfRange, WordsOutOfRange

OPCODE_CUSTOM0 = 0x0B  # 0b0001011, reserved custom-0 space


def encode_r4(rd, rs1, rs2, rs3, words):
    """Pack an MMUL instruction.

    Layout: rs3[31:27] fnc2[26:25] rs2[24:20] rs1[19:15] fnc3[14:12]
    rd[11:7] opcode[6:0].  The 5-bit length code (words - 1) is split as
    fnc2 = len[4:3], fnc3 = len[2:0].
    """
    for name, r in (("rd", rd), ("rs1", rs1), ("rs2", rs2), ("rs3", rs3)):
        if not 0 <= r <= 15:
            raise RegisterOutOfRange(f"{name}=x{r} not valid under RV32E")
    if not 1 <= words <= 32:
        raise WordsOutOfRange(f"words={words} outside 1..32")
    ln = words - 1
    fnc2 = (ln >> 3) & 0x3
    fnc3 = ln & 0x7
    return (rs3 << 27) | (fnc2 << 25) | (rs2 << 20) | (rs1 << 15) \
        | (fnc3 << 12) | (rd << 7) | OPCODE_CUSTOM0


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
    for name, r in (("rd", rd), ("rs1", rs1), ("rs2", rs2), ("rs3", rs3)):
        if r > 15:
            raise RegisterOutOfRange(f"{name}=x{r} not valid under RV32E")
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


def layout_addresses(fmt, words=None, base=None, rs1=None, rs2=None,
                     rs3=None, rd=None):
    """Operand addresses {A, B, N, P} each format implies.

    I-type packs all four at consecutive word-array offsets from one base;
    R-type keeps A/B/P together but lets the modulus float (rs2); R4-type
    carries four independent addresses.
    """
    mask = 0xFFFFFFFF
    if fmt == "I":
        stride = 4 * words
        return {"addr_a": base & mask,
                "addr_b": (base + stride) & mask,
                "addr_n": (base + 2 * stride) & mask,
                "addr_p": (base + 3 * stride) & mask}
    if fmt == "R":
        stride = 4 * words
        return {"addr_a": rs1 & mask,
                "addr_b": (rs1 + stride) & mask,
                "addr_p": (rs1 + 2 * stride) & mask,
                "addr_n": rs2 & mask}
    if fmt == "R4":
        return {"addr_a": rs1 & mask, "addr_b": rs2 & mask,
                "addr_n": rs3 & mask, "addr_p": rd & mask}
    raise ValueError(f"unknown format {fmt!r}")


def insn_directive(rd, rs1, rs2, rs3, words):
    """GCC `.insn r4` directive text for an encoding (external cross-check)."""
    ln = words - 1
    fnc2 = (ln >> 3) & 0x3
    fnc3 = ln & 0x7
    return (f".insn r4 0x{OPCODE_CUSTOM0:02x}, {fnc3}, {fnc2}, "
            f"x{rd}, x{rs1}, x{rs2}, x{rs3}")
