"""Radix-2 Montgomery multiplication functional unit.

The modelled unit is bit-serial: 2 cycles per processed bit plus one cycle
for the final (unconditional, constant-time) subtraction.  The host does not
step it bit by bit: it computes up to 32 bits of the recurrence per step in
closed form, with state bit-identical to the bit-serial unit after every
call.  Operands are multiword little-endian arrays in simulated memory; the
engine latches their addresses, pulls each one through the machine's
load/store unit as one transfer (`load_words`), and writes the result back
the same way (`store_words`).  A transfer of W words counts and costs what
W one-word accesses do, faults included.

Two execution shapes:
  * atomic - one call runs the whole multiplication;
  * partial - one call per bit; the first call loads operands, the last call
    performs the final subtraction and stores the result.  State persists in
    the engine between calls so interrupts can be serviced in between.

Both advance the latched operation through `advance`, the one home of the
recurrence, which the core also calls to retire k middle issues at once.
"""

from dataclasses import dataclass

from .errors import (EvenModulus, LengthExceedsHardwareMax, MisalignedAccess,
                     OperandTooLarge, SequenceBroken)


def r2mm_reference(a, b, n_mod, n_bits):
    """Executable specification: returns a * b * 2^(-n_bits) mod n_mod.

    S <- 0; for each bit i of a: S += a_i * b; if S odd: S += n_mod;
    S >>= 1.  After the loop a single conditional subtraction brings S
    below n_mod.  Inputs must be below 2^n_bits and the modulus odd.
    """
    if n_mod % 2 == 0:
        raise EvenModulus(f"modulus {n_mod} is even; gcd(R, N) != 1")
    limit = 1 << n_bits
    if a >= limit or b >= limit or n_mod >= limit:
        raise OperandTooLarge(f"operand does not fit in {n_bits} bits")
    s = 0
    for i in range(n_bits):
        if (a >> i) & 1:
            s += b
        if s & 1:
            s += n_mod
        s >>= 1
    if s >= n_mod:
        s -= n_mod
    return s


@dataclass(frozen=True)
class MmulOperands:
    addr_a: int
    addr_b: int
    addr_n: int
    addr_p: int
    words: int

    @property
    def n_bits(self):
        return 32 * self.words


@dataclass(frozen=True)
class AtomicResult:
    cycles: int          # total engine occupancy incl. memory operations
    compute_cycles: int  # 2 * n_bits + 1, data-independent
    loads: int
    stores: int


@dataclass(frozen=True)
class PartialCallResult:
    call_kind: str  # first | middle | last
    cycles: int


BIT_CYCLES = 2  # one bit of the recurrence, a middle partial call's cost
_MIDDLE = PartialCallResult("middle", BIT_CYCLES)
_CHUNK = 32  # bits of the recurrence per closed-form host step


class MmulEngine:
    """Sub-state of one machine; single-threaded stepping only.

    One datapath serves both modes: `_begin` latches an operation,
    `advance` runs k bits of it and `_finish` retires it.  An atomic call
    runs all three; partial calls spread them over n_bits issues.
    """

    def __init__(self, max_words=8):
        self.max_words = max_words
        self.reset()

    def reset(self):
        self.latched = None
        self.n_bits = 0  # the latched operation's bit count
        self.s_accum = 0
        self.bit_index = 0
        self.buf_a = 0
        self.buf_b = 0
        self.buf_n = 0
        self.n_inv = 0  # -N^-1 mod 2^32

    @property
    def busy(self):
        return self.latched is not None

    def status_word(self):
        """Read-only status CSR: busy in bit 0, the bit index mod 256 in
        bits 8..15 (it wraps for operands above 8 words)."""
        return (1 if self.busy else 0) | ((self.bit_index & 0xFF) << 8)

    # -- datapath ----------------------------------------------------------

    def _begin(self, machine, ops):
        """Checks the operation and pulls its three operands through the
        LSU, one transfer each; latches it only when every check and load
        succeeded, so a fault leaves the engine idle.  Returns the load
        cycles."""
        if ops.words > self.max_words:
            raise LengthExceedsHardwareMax(
                f"words={ops.words} exceeds hardware limit {self.max_words}")
        if ops.words < 1:
            raise LengthExceedsHardwareMax("words must be >= 1")
        for addr in (ops.addr_a, ops.addr_b, ops.addr_n, ops.addr_p):
            if addr & 3:
                raise MisalignedAccess(f"operand address 0x{addr:08x}")
        words = ops.words
        a, cycles = machine.load_words(ops.addr_a, words)
        b, lat_b = machine.load_words(ops.addr_b, words)
        n, lat_n = machine.load_words(ops.addr_n, words)
        if n % 2 == 0:
            raise EvenModulus("modulus loaded from memory is even")
        self.buf_a, self.buf_b, self.buf_n = a, b, n
        self.n_inv = -pow(n & 0xFFFFFFFF, -1, 1 << 32) & 0xFFFFFFFF
        self.n_bits = ops.n_bits
        self.s_accum = 0
        self.bit_index = 0
        self.latched = ops
        return cycles + lat_b + lat_n

    def advance(self, k):
        """k bits of the latched operation: for each bit a_i of A from
        `bit_index` on, S += a_i * B; if S is odd, S += N; S >>= 1.

        The host takes the bits in chunks of c <= 32: S += A_c * B, A_c the
        chunk's c bits of A; S += q * N, q = -S * N^-1 mod 2^c the one
        q < 2^c that makes S divisible by 2^c; S >>= c.  The c bit steps
        choose exactly q's bits, so S is the same (word-level Montgomery
        reduction: Koc, Acar and Kaliski, IEEE Micro 1996).  A single bit,
        the per-issue path, takes the bit step itself: it costs less than
        a chunk."""
        i = self.bit_index
        self.bit_index = i + k
        s, a = self.s_accum, self.buf_a >> i
        if k == 1:
            if a & 1:
                s += self.buf_b
            if s & 1:
                s += self.buf_n
            self.s_accum = s >> 1
            return
        b, n, n_inv = self.buf_b, self.buf_n, self.n_inv
        while k:
            c = _CHUNK if k > _CHUNK else k
            mask = (1 << c) - 1
            s += (a & mask) * b
            s = (s + ((s & mask) * n_inv & mask) * n) >> c
            a >>= c
            k -= c
        self.s_accum = s

    def middle_left(self):
        """The middle calls left in the latched sequence."""
        return self.n_bits - 1 - self.bit_index

    def _finish(self, machine):
        """Final subtraction and the result's one store transfer; the
        engine is idle again even if the store faults.  Returns 1 + the
        store cycles."""
        ops, s = self.latched, self.s_accum
        if s >= self.buf_n:
            s -= self.buf_n
        self.reset()
        return 1 + machine.store_words(ops.addr_p, ops.words, s)

    # -- execution modes ---------------------------------------------------

    def execute_atomic(self, machine, ops):
        """Whole multiplication in one non-interruptible call.

        Occupancy is (2 * n_bits + 1) compute cycles plus the full latency
        of 3*words loads and words stores; the compute portion is
        data-independent by construction.
        """
        if self.latched is not None:
            raise SequenceBroken(
                "atomic MMUL issued while a partial sequence is in flight")
        cycles = self._begin(machine, ops)
        n_bits = ops.n_bits
        self.advance(n_bits)
        cycles += BIT_CYCLES * n_bits + self._finish(machine)
        return AtomicResult(cycles=cycles,
                            compute_cycles=BIT_CYCLES * n_bits + 1,
                            loads=3 * ops.words, stores=ops.words)

    def execute_partial_call(self, machine, ops):
        """One bit of progress; n_bits calls complete a multiplication.

        The first call latches the operand addresses and loads the buffers
        (3*words loads + 2 cycles); middle calls take exactly 2 cycles; the
        last call adds the final subtraction and the result stores (words
        stores + 3 cycles).  Calls after the first ignore their register
        operands: the latched operation drives progress.
        """
        if self.latched is None:
            cycles = self._begin(machine, ops) + BIT_CYCLES
            self.advance(1)
            return PartialCallResult("first", cycles)
        self.advance(1)
        if self.bit_index < self.n_bits:
            return _MIDDLE
        return PartialCallResult("last", BIT_CYCLES + self._finish(machine))
