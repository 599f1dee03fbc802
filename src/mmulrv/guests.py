"""Guest program kernels for the benchmark configurations.

Everything here is built by the in-package program builder so instruction
counts are deterministic.  Each kernel exists in three flavors selected by
the configuration:

  BA     - software Montgomery multiplication only (no MMUL encodings),
  CI-AE  - one atomic MMUL per modular multiplication,
  CI-PE  - partial mode, n_bits MMUL issues per multiplication.

Guest register conventions: x1 ra, x2 mailbox pointer (never clobbered),
x10..x13 subroutine arguments (a_ptr, b_ptr, n_ptr, p_ptr), x3..x9/x14/x15
caller-saved scratch.
"""

from collections import namedtuple
from dataclasses import dataclass

from .asm import Asm
from .engine import DEFAULT_MAX_WORDS
from .errors import GuestNotFound, InvalidConfig, UnknownInput
from .isa import Cpu
from .machine import (CODE_BASE, DATA_BASE, MCYCLE, MIE, MIP, MMUL_MODE,
                      MSTATUS, MTVEC, Machine, Memory)
from .perf import CONFIGS

P25519 = (1 << 255) - 19
P128 = (1 << 127) - 1  # Mersenne prime, 4 words
A24 = 121665


@dataclass(frozen=True)
class FieldContext:
    """Odd modulus plus the Montgomery constants for R = 2^(32*words)."""

    modulus: int
    words: int

    def __post_init__(self):
        if self.words < 1:
            raise InvalidConfig("words must be at least 1")
        if self.modulus < 1:
            raise InvalidConfig("field modulus must be at least 1")
        if self.modulus % 2 == 0:
            raise InvalidConfig("field modulus must be odd")
        if self.modulus >= 1 << self.n_bits:
            raise InvalidConfig("modulus does not fit in words*32 bits")

    @property
    def n_bits(self):
        return 32 * self.words

    @property
    def r2_mod_n(self):
        return pow(1 << self.n_bits, 2, self.modulus)


class DataLayout:
    def __init__(self, base=DATA_BASE):
        self.next = base
        self.symbols = {}
        self.init = []

    def alloc(self, name, words, value=None):
        addr = self.next
        self.symbols[name] = (addr, words)
        self.next += 4 * words
        if value is not None:
            self.init.append((addr, int(value).to_bytes(4 * words, "little")))
        return addr

    def addr(self, name):
        return self.symbols[name][0]


@dataclass
class GuestProgram:
    name: str
    config: str
    code: bytes
    entry: int
    data: dict
    data_init: list
    listing: str
    budget_hint: int
    meta: dict  # the resolved inputs it was built from

    def load(self, machine):
        machine.load_image(self.code, self.entry)
        for addr, blob in self.data_init:
            machine.load_image(blob, addr)
        machine.pc = self.entry

    def run(self, read_latency=1, write_latency=1, irq=(), budget=None,
            max_words=DEFAULT_MAX_WORDS):
        """(machine, stats) of the guest loaded into a fresh machine and
        run under its own config to `budget` (`budget_hint` when None),
        the interrupt asserted at each cycle of `irq`."""
        machine = Machine(Memory(read_latency=read_latency,
                                 write_latency=write_latency), max_words)
        self.load(machine)
        stats = Cpu(machine).run(
            budget=self.budget_hint if budget is None else budget,
            irq_schedule=irq, config=self.config)
        return machine, stats

    def read_value(self, machine, symbol):
        addr, words = self.data[symbol]
        return machine.mem.read(addr, 4 * words)

    def code_words(self):
        return [int.from_bytes(self.code[i:i + 4], "little")
                for i in range(0, len(self.code), 4)]


# ---------------------------------------------------------------------------
# modular multiplication subroutines ('montmul', args x10..x13)
# ---------------------------------------------------------------------------

def _emit_loop_end(a, tag, *pointers):
    """Advance each distinct pointer one word; loop back to tag while --x6."""
    for r in dict.fromkeys(pointers):
        a.addi(r, r, 4)
    a.addi(6, 6, -1)
    a.bne(6, 0, tag)


def _emit_add_loop(a, tag, words, src, addend, dst):
    """*dst = *src + *addend over `words` words; carry out left in x4.

    Pointer registers advance; src == dst adds in place.  Scratch: x5, x6,
    x14, x15.
    """
    a.li(4, 0)
    a.li(6, words)
    a.label(tag)
    a.lw(5, src, 0)
    a.lw(14, addend, 0)
    a.add(5, 5, 14)
    a.sltu(14, 5, 14)
    a.add(5, 5, 4)
    a.sltu(15, 5, 4)
    a.or_(4, 14, 15)
    a.sw(5, dst, 0)
    _emit_loop_end(a, tag, src, addend, dst)


def _emit_sub_loop(a, tag, words, src, subtrahend, dst, borrow=4, temp=3):
    """*dst = *src - *subtrahend over `words` words; borrow out left in
    `borrow`.  Pointer registers advance.  Scratch: x5, x6, x14, `temp`."""
    a.li(borrow, 0)
    a.li(6, words)
    a.label(tag)
    a.lw(5, src, 0)
    a.lw(14, subtrahend, 0)
    a.sltu(temp, 5, 14)
    a.sub(5, 5, 14)
    a.sltu(14, 5, borrow)
    a.sub(5, 5, borrow)
    a.or_(borrow, temp, 14)
    a.sw(5, dst, 0)
    _emit_loop_end(a, tag, src, subtrahend, dst)


def _emit_copy_loop(a, tag, words, src, dst):
    """*dst = *src over `words` words.  Scratch: x5, x6."""
    a.li(6, words)
    a.label(tag)
    a.lw(5, src, 0)
    a.sw(5, dst, 0)
    _emit_loop_end(a, tag, src, dst)


def _emit_add_into_s(a, tag, s_addr, words):
    """S[0..W] += *x9 over W words, carry propagated into S[W]."""
    a.li(8, s_addr)
    _emit_add_loop(a, tag, words, 8, 9, 8)
    a.lw(5, 8, 0)
    a.add(5, 5, 4)
    a.sw(5, 8, 0)


def emit_software_montmul(a, dl, ctx):
    """Bit-serial shift/add Montgomery multiply in pure RV32E code.

    Same memory contract as the MMUL engine: multiword little-endian
    operands at the addresses in x10 (A), x11 (B), x12 (N); result to x13.
    Uses an accumulator of words+1 machine words in scratch memory.
    """
    W = ctx.words
    if "mm_s_scratch" not in dl.symbols:
        dl.alloc("mm_s_scratch", W + 1)
    s_addr = dl.addr("mm_s_scratch")
    a.label("montmul")
    # S = 0
    a.li(5, s_addr)
    a.li(6, W + 1)
    a.label("mm_zero")
    a.sw(0, 5, 0)
    _emit_loop_end(a, "mm_zero", 5)
    a.li(3, ctx.n_bits)
    a.li(7, 0)  # bit counter
    a.label("mm_outer")
    # x5 = bit i of A
    a.srli(5, 7, 5)
    a.slli(5, 5, 2)
    a.add(5, 5, 10)
    a.lw(5, 5, 0)
    a.andi(6, 7, 31)
    a.srl(5, 5, 6)
    a.andi(5, 5, 1)
    a.beq(5, 0, "mm_no_b")
    a.mv(9, 11)
    _emit_add_into_s(a, "mm_addb", s_addr, W)
    a.label("mm_no_b")
    a.li(8, s_addr)
    a.lw(5, 8, 0)
    a.andi(5, 5, 1)
    a.beq(5, 0, "mm_no_n")
    a.mv(9, 12)
    _emit_add_into_s(a, "mm_addn", s_addr, W)
    a.label("mm_no_n")
    # S >>= 1
    a.li(8, s_addr)
    a.li(6, W)
    a.label("mm_shr")
    a.lw(5, 8, 0)
    a.lw(14, 8, 4)
    a.srli(5, 5, 1)
    a.slli(14, 14, 31)
    a.or_(5, 5, 14)
    a.sw(5, 8, 0)
    _emit_loop_end(a, "mm_shr", 8)
    a.lw(5, 8, 0)
    a.srli(5, 5, 1)
    a.sw(5, 8, 0)
    a.addi(7, 7, 1)
    a.bne(7, 3, "mm_outer")
    # final conditional subtraction: write S - N to P, keep S if S < N
    a.li(8, s_addr)
    a.mv(9, 12)
    a.mv(15, 13)
    _emit_sub_loop(a, "mm_sub", W, 8, 9, 15)
    a.lw(5, 8, 0)  # top accumulator word: nonzero means S >= 2^n > N
    a.bne(5, 0, "mm_done")
    a.beq(4, 0, "mm_done")  # no borrow: S >= N, difference stands
    a.li(8, s_addr)
    a.mv(15, 13)
    _emit_copy_loop(a, "mm_copy", W, 8, 15)
    a.label("mm_done")
    a.ret()


def emit_montmul_subroutine(a, dl, ctx, config):
    if config == "BA":
        emit_software_montmul(a, dl, ctx)
        return
    a.label("montmul")
    # CI-PE: n_bits identical issues; the caller sets the mode bit once
    for _ in range(ctx.n_bits if config == "CI-PE" else 1):
        a.mmul(13, 10, 11, 12, ctx.words)
    a.ret()


# ---------------------------------------------------------------------------
# field add/sub/cswap subroutines for the ladder
# ---------------------------------------------------------------------------

def emit_field_add(a, dl, ctx):
    """fadd: *x13 = (*x10 + *x11) mod N."""
    W = ctx.words
    if "fa_scratch" not in dl.symbols:
        dl.alloc("fa_scratch", W)
    t_addr = dl.addr("fa_scratch")
    n_addr = dl.addr("modulus")
    a.label("fadd")
    a.mv(7, 10)
    a.mv(9, 11)
    a.li(8, t_addr)
    _emit_add_loop(a, "fa_add", W, 7, 9, 8)
    # x4 = carry out; t - N into dst, borrow in x3
    a.li(8, t_addr)
    a.li(9, n_addr)
    a.mv(15, 13)
    _emit_sub_loop(a, "fa_sub", W, 8, 9, 15, borrow=3, temp=7)
    a.bne(4, 0, "fa_done")  # carry out: sum >= 2^n > N, keep difference
    a.beq(3, 0, "fa_done")  # no borrow: sum >= N, keep difference
    a.li(8, t_addr)
    a.mv(15, 13)
    _emit_copy_loop(a, "fa_copy", W, 8, 15)
    a.label("fa_done")
    a.ret()


def emit_field_sub(a, dl, ctx):
    """fsub: *x13 = (*x10 - *x11) mod N."""
    W = ctx.words
    n_addr = dl.addr("modulus")
    a.label("fsub")
    a.mv(7, 10)
    a.mv(9, 11)
    a.mv(8, 13)
    _emit_sub_loop(a, "fs_sub", W, 7, 9, 8)
    a.beq(4, 0, "fs_done")
    # borrowed: add N back
    a.mv(8, 13)
    a.li(9, n_addr)
    _emit_add_loop(a, "fs_fix", W, 8, 9, 8)
    a.label("fs_done")
    a.ret()


def emit_cswap(a, dl, ctx):
    """cswap: if x10 != 0, swap (x2||z2) with (x3||z3) in memory."""
    W = ctx.words
    a.label("cswap")
    a.beq(10, 0, "cw_done")
    a.li(8, dl.addr("lad_x2"))
    a.li(9, dl.addr("lad_x3"))
    a.li(6, 2 * W)  # x2/z2 and x3/z3 are allocated contiguously
    a.label("cw_loop")
    a.lw(5, 8, 0)
    a.lw(14, 9, 0)
    a.sw(14, 8, 0)
    a.sw(5, 9, 0)
    _emit_loop_end(a, "cw_loop", 8, 9)
    a.label("cw_done")
    a.ret()


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------

def _call(a, dl, sym_a, sym_b, sym_p, target="montmul", sym_n="modulus"):
    """Call `target` with the addresses of A, B and P in x10, x11 and x13,
    and of N in x12 when given a modulus symbol."""
    a.li(10, dl.addr(sym_a))
    a.li(11, dl.addr(sym_b))
    if sym_n:
        a.li(12, dl.addr(sym_n))
    a.li(13, dl.addr(sym_p))
    a.jal(1, target)


def _frame(config, inputs, irq=False):
    """The start of every guest: its field, its data layout with the
    mailbox and modulus words first, and its code from the prologue on,
    as (ctx, dl, a).  `_program` ends it.

    The prologue sets the mailbox pointer and, for CI-PE, the mode bit.
    With `irq` it also installs the interrupt harness, laid out as
      entry: j start / handler: ... / start: ...
    so the handler address is known without a second pass.
    """
    ctx = FieldContext(inputs["modulus"], inputs["words"])
    dl = DataLayout()
    dl.alloc("mailbox", 4)
    dl.alloc("modulus", ctx.words, ctx.modulus)
    a = Asm(base=CODE_BASE)
    a.li(2, dl.addr("mailbox"))
    if irq:
        a.j("hx_start")
        a.label("hx_handler")
        a.sw(5, 2, 8)
        a.csrrs(5, MCYCLE, 0)
        a.sw(5, 2, 0)  # mailbox[0] = service timestamp
        a.lw(5, 2, 4)
        a.addi(5, 5, 1)
        a.sw(5, 2, 4)  # mailbox[1] = interrupt count
        a.sw(6, 2, 12)
        a.addi(6, 0, 1)
        a.slli(6, 6, 11)
        a.csrrc(0, MIP, 6)  # acknowledge the external line
        a.lw(6, 2, 12)
        a.lw(5, 2, 8)
        a.mret()
        a.label("hx_start")
        a.li(5, a.labels["hx_handler"])
        a.csrrw(0, MTVEC, 5)
        a.addi(5, 0, 1)
        a.slli(5, 5, 11)
        a.csrrw(0, MIE, 5)
        a.csrrwi(0, MSTATUS, 8)  # MIE
    if config == "CI-PE":
        a.csrrwi(0, MMUL_MODE, 1)
    return ctx, dl, a


def _program(name, config, inputs, frame, budgets, *subroutines):
    """The end of every guest: the halt, then the montmul subroutine and
    `subroutines`.  `budgets` holds its cycle cap under BA and under the
    MMUL configs; `meta` is `inputs`."""
    ctx, dl, a = frame
    a.li(10, 0)
    a.ecall()
    emit_montmul_subroutine(a, dl, ctx, config)
    for emit in subroutines:
        emit(a, dl, ctx)
    return GuestProgram(
        name=name, config=config, code=a.assemble(), entry=CODE_BASE,
        data=dict(dl.symbols), data_init=list(dl.init), listing=a.dump(),
        budget_hint=budgets[config != "BA"], meta=inputs)


def emit_modexp(name, config, inputs):
    """Left-to-right square-and-multiply in the Montgomery domain."""
    ctx, dl, a = frame = _frame(config, inputs)
    exponent_bits = inputs["exponent_bits"]
    if exponent_bits < 1 or exponent_bits > 32:
        raise InvalidConfig("exponent_bits must be in 1..32 at desk scale")
    top = (1 << exponent_bits) - 1  # the guest reads only these bits
    if not 0 <= inputs["exponent"] <= top:
        raise InvalidConfig(f"exponent must be in 0..{top} for "
                            f"exponent_bits {exponent_bits}")
    W = ctx.words
    dl.alloc("r2", W, ctx.r2_mod_n)
    dl.alloc("one", W, 1)
    dl.alloc("base", W, inputs["base"] % ctx.modulus)
    dl.alloc("exponent", 1, inputs["exponent"])
    dl.alloc("acc", W)
    dl.alloc("base_mont", W)
    dl.alloc("result", W)
    dl.alloc("idx", 1)

    _call(a, dl, "one", "r2", "acc")          # acc = R mod N
    _call(a, dl, "base", "r2", "base_mont")   # to Montgomery domain
    a.li(5, dl.addr("idx"))
    a.li(6, exponent_bits)
    a.sw(6, 5, 0)
    a.label("mx_loop")
    a.li(5, dl.addr("idx"))
    a.lw(6, 5, 0)
    a.addi(6, 6, -1)
    a.sw(6, 5, 0)
    _call(a, dl, "acc", "acc", "acc")         # square
    a.li(5, dl.addr("idx"))
    a.lw(6, 5, 0)
    a.li(5, dl.addr("exponent"))
    a.lw(5, 5, 0)
    a.srl(5, 5, 6)
    a.andi(5, 5, 1)
    a.beq(5, 0, "mx_skip")
    _call(a, dl, "acc", "base_mont", "acc")   # multiply
    a.label("mx_skip")
    a.li(5, dl.addr("idx"))
    a.lw(6, 5, 0)
    a.bne(6, 0, "mx_loop")
    _call(a, dl, "acc", "one", "result")      # leave the domain
    return _program(name, config, inputs, frame, (200_000_000, 5_000_000))


def emit_ladder_x25519_field(name, config, inputs):
    """Montgomery-ladder scalar multiplication over the 2^255 - 19 field.

    Outputs the projective x-coordinate pair (out_x, out_z); the tests'
    host-side oracle runs the identical ladder on plain integers.  A
    `scalar_bits` of None resolves to the scalar's bit length.
    """
    ctx, dl, a = frame = _frame(config, inputs)
    scalar, scalar_bits = inputs["scalar"], inputs["scalar_bits"]
    if scalar < 0:
        raise InvalidConfig("scalar must be at least 0")
    if scalar_bits is None:
        scalar_bits = max(scalar.bit_length(), 1)
        inputs = {**inputs, "scalar_bits": scalar_bits}
    if scalar_bits < 1 or scalar_bits > 32:  # the scalar sits in one word
        raise InvalidConfig("scalar_bits must be in 1..32 at desk scale")
    top = (1 << scalar_bits) - 1  # the guest reads only these bits
    if scalar > top:
        raise InvalidConfig(f"scalar must be in 0..{top} for scalar_bits "
                            f"{scalar_bits}")
    W = ctx.words
    dl.alloc("r2", W, ctx.r2_mod_n)
    dl.alloc("one", W, 1)
    dl.alloc("u", W, inputs["u"] % ctx.modulus)
    dl.alloc("scalar", 1, scalar & 0xFFFFFFFF)
    dl.alloc("a24", W, A24)
    dl.alloc("a24_mont", W)
    dl.alloc("x1_mont", W)
    dl.alloc("lad_x2", W)
    dl.alloc("lad_z2", W)  # contiguous with lad_x2 for cswap
    dl.alloc("lad_x3", W)
    dl.alloc("lad_z3", W)  # contiguous with lad_x3
    for t in ("t_a", "t_aa", "t_b", "t_bb", "t_e", "t_c", "t_d",
              "t_da", "t_cb", "t_0", "t_1"):
        dl.alloc(t, W)
    dl.alloc("out_x", W)
    dl.alloc("out_z", W)
    dl.alloc("idx", 1)
    dl.alloc("swapv", 1, 0)

    _call(a, dl, "u", "r2", "x1_mont")
    _call(a, dl, "one", "r2", "lad_x2")   # x2 = 1 (domain)
    _call(a, dl, "u", "r2", "lad_x3")     # x3 = u (domain)
    _call(a, dl, "one", "r2", "lad_z3")   # z3 = 1 (domain)
    _call(a, dl, "a24", "r2", "a24_mont")
    a.li(5, dl.addr("idx"))
    a.li(6, scalar_bits)
    a.sw(6, 5, 0)
    a.label("ld_loop")
    a.li(5, dl.addr("idx"))
    a.lw(6, 5, 0)
    a.addi(6, 6, -1)
    a.sw(6, 5, 0)
    # conditional-swap bookkeeping: swap ^= k_t; cswap(swap); swap = k_t
    a.li(5, dl.addr("scalar"))
    a.lw(5, 5, 0)
    a.srl(5, 5, 6)
    a.andi(5, 5, 1)
    a.li(6, dl.addr("swapv"))
    a.lw(7, 6, 0)
    a.xor(7, 7, 5)
    a.sw(5, 6, 0)
    a.mv(10, 7)
    a.jal(1, "cswap")
    _call(a, dl, "lad_x2", "lad_z2", "t_a", target="fadd", sym_n=None)
    _call(a, dl, "t_a", "t_a", "t_aa")
    _call(a, dl, "lad_x2", "lad_z2", "t_b", target="fsub", sym_n=None)
    _call(a, dl, "t_b", "t_b", "t_bb")
    _call(a, dl, "t_aa", "t_bb", "t_e", target="fsub", sym_n=None)
    _call(a, dl, "lad_x3", "lad_z3", "t_c", target="fadd", sym_n=None)
    _call(a, dl, "lad_x3", "lad_z3", "t_d", target="fsub", sym_n=None)
    _call(a, dl, "t_d", "t_a", "t_da")
    _call(a, dl, "t_c", "t_b", "t_cb")
    _call(a, dl, "t_da", "t_cb", "t_0", target="fadd", sym_n=None)
    _call(a, dl, "t_0", "t_0", "lad_x3")
    _call(a, dl, "t_da", "t_cb", "t_1", target="fsub", sym_n=None)
    _call(a, dl, "t_1", "t_1", "t_1")
    _call(a, dl, "x1_mont", "t_1", "lad_z3")
    _call(a, dl, "t_aa", "t_bb", "lad_x2")
    _call(a, dl, "a24_mont", "t_e", "t_0")
    _call(a, dl, "t_aa", "t_0", "t_0", target="fadd", sym_n=None)
    _call(a, dl, "t_e", "t_0", "lad_z2")
    a.li(5, dl.addr("idx"))
    a.lw(6, 5, 0)
    a.bne(6, 0, "ld_loop")
    a.li(6, dl.addr("swapv"))
    a.lw(10, 6, 0)
    a.jal(1, "cswap")
    _call(a, dl, "lad_x2", "one", "out_x")
    _call(a, dl, "lad_z2", "one", "out_z")
    return _program(name, config, inputs, frame, (400_000_000, 10_000_000),
                    emit_field_add, emit_field_sub, emit_cswap)


def emit_single_montmul(name, config, inputs):
    """One modular multiplication on fixed operands, with the interrupt
    harness when `irq` is on; the interrupt-latency sweep target."""
    if inputs["irq"] not in (0, 1):
        raise InvalidConfig("irq must be 0 or 1")
    ctx, dl, a = frame = _frame(config, inputs, inputs["irq"])
    dl.alloc("op_a", ctx.words, inputs["a"] % ctx.modulus)
    dl.alloc("op_b", ctx.words, inputs["b"] % ctx.modulus)
    dl.alloc("result", ctx.words)
    _call(a, dl, "op_a", "op_b", "result")
    return _program(name, config, inputs, frame, (50_000_000, 1_000_000))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_IRQ_A = 0x1234567890ABCDEF1122334455667788 * (1 << 124) + 987654321
_IRQ_B = 0x0FEDCBA987654321AABBCCDDEEFF0011 * (1 << 120) + 123456789
_SWEEP = {"modulus": P25519, "a": _IRQ_A, "b": _IRQ_B}

# One entry per guest: its builder, the inputs --set may override with
# their defaults, the inputs fixed for it, and the configs it builds
# under.  The builder gets every input resolved.
_Guest = namedtuple("_Guest", "build inputs fixed configs")
_GUESTS = {
    "modexp128": _Guest(emit_modexp, {
        "modulus": P128, "exponent_bits": 16, "base": 3, "exponent": 0xB105},
        {"words": 4}, CONFIGS),
    "modexp256": _Guest(emit_modexp, {
        "modulus": P25519, "exponent_bits": 16, "base": 5,
        "exponent": 0xC0DE}, {"words": 8}, CONFIGS),
    "x25519_ladder": _Guest(emit_ladder_x25519_field, {
        "scalar": 0x2B, "u": 9, "scalar_bits": None},
        {"modulus": P25519, "words": 8}, CONFIGS),
    "irq_sweep_atomic": _Guest(emit_single_montmul, _SWEEP,
                               {"words": 8, "irq": True}, ("CI-AE",)),
    "irq_sweep_partial": _Guest(emit_single_montmul, _SWEEP,
                                {"words": 8, "irq": True}, ("CI-PE",)),
    "montmul_once": _Guest(emit_single_montmul, {
        "modulus": P25519, "words": 8, "a": _IRQ_A, "b": _IRQ_B,
        "irq": False}, {}, CONFIGS),
}


def build_guest(name, config, params=None):
    """Build a registered guest by name for one configuration; `params`
    overrides some of the guest's inputs."""
    if config not in CONFIGS:
        raise InvalidConfig(f"unknown configuration {config!r}")
    if name not in _GUESTS:
        raise GuestNotFound(name)
    guest = _GUESTS[name]
    unknown = sorted(set(params or ()) - set(guest.inputs))
    if unknown:
        raise UnknownInput(f"{name} has no input {', '.join(unknown)}; "
                           f"its inputs are {', '.join(guest.inputs)}")
    if config not in guest.configs:
        raise InvalidConfig(
            f"{name} requires config {' or '.join(guest.configs)}")
    return guest.build(name, config,
                       {**guest.inputs, **(params or {}), **guest.fixed})


GUEST_NAMES = tuple(_GUESTS)
