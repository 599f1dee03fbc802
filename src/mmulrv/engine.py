"""Radix-2 Montgomery multiplication functional unit.

The modelled unit is bit-serial: 2 cycles per processed bit plus one cycle
for the final (unconditional, constant-time) subtraction.  The host does not
step it bit by bit.  While a multiplication is in flight, the model shows
nothing of it but `MMUL_STATUS`: the busy bit and the bit index.  So the
engine holds only the latched operation, its three operand buffers and the
bit index; an issue adds to the bit index, and `_finish` computes the
product once, by Montgomery's REDC (Math. Comp. 1985), which gives the
n-bit recurrence's sum in one step.  Operands are multiword little-endian
arrays in simulated memory; the engine latches their addresses, pulls each
one through the machine's load/store unit as one transfer (`load_words`),
and writes the result back the same way (`store_words`).  A transfer of W
words counts and costs what W one-word accesses do, faults included.

Two execution shapes:
  * atomic - one call runs the whole multiplication;
  * partial - one call per bit; the first call loads operands, the last call
    performs the final subtraction and stores the result.  State persists in
    the engine between calls so interrupts can be serviced in between.
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
DEFAULT_MAX_WORDS = 8  # the engine's operand limit unless a machine sets one
_MIDDLE = PartialCallResult("middle", BIT_CYCLES)


class MmulEngine:
    """Sub-state of one machine; single-threaded stepping only.

    One datapath serves both modes: `_begin` latches an operation and
    `_finish` computes and stores its product.  An atomic call runs both;
    partial calls spread them over n_bits issues, each adding one to
    `bit_index`.
    """

    def __init__(self, max_words=DEFAULT_MAX_WORDS):
        self.max_words = max_words
        self.reset()

    def reset(self):
        self.latched = None
        self.n_bits = 0  # the latched operation's bit count
        self.bit_index = 0
        self.buf_a = 0
        self.buf_b = 0
        self.buf_n = 0

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
        self.n_bits = ops.n_bits
        self.bit_index = 0
        self.latched = ops
        return cycles + lat_b + lat_n

    def _finish(self, machine):
        """The product, the final subtraction and the result's one store
        transfer; the engine is idle again even if the store faults.
        Returns 1 + the store cycles.

        The n bit steps S += a_i * B; if S is odd, S += N; S >>= 1 choose
        exactly the bits of Q = -A * B * N^-1 mod 2^n, so the sum they
        leave is S = (A * B + Q * N) / 2^n for any A, B < 2^n (REDC).
        N^-1 mod 2^n is N^-1 mod 2^32 lifted by Newton's step
        x <- x * (2 - N * x), which doubles its bits; `_begin` made sure
        N is odd."""
        ops, n, n_bits = self.latched, self.buf_n, self.n_bits
        mask = (1 << n_bits) - 1
        x, bits = pow(n & 0xFFFFFFFF, -1, 1 << 32), 32
        while bits < n_bits:
            x = x * (2 - n * x) & mask
            bits *= 2
        t = self.buf_a * self.buf_b
        s = (t + (-(t & mask) * x & mask) * n) >> n_bits
        if s >= n:
            s -= n
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
            self.bit_index = 1
            return PartialCallResult("first", cycles)
        self.bit_index += 1
        if self.bit_index < self.n_bits:
            return _MIDDLE
        return PartialCallResult("last", BIT_CYCLES + self._finish(machine))
