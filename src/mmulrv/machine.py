"""Architectural state: registers, flat memory, CSR file, interrupt line."""

from .engine import MmulEngine
from .errors import (MisalignedAccess, SimError, UnimplementedCsr,
                     UnmappedAddress)
from .perf import RunStats

M32 = 0xFFFFFFFF

CODE_BASE = 0x00000
DATA_BASE = 0x10000
DEFAULT_MEM_SIZE = 0x20000  # 64 KiB code + 64 KiB data, one flat region

# CSR addresses
MSTATUS = 0x300
MIE = 0x304
MTVEC = 0x305
MSCRATCH = 0x340
MEPC = 0x341
MCAUSE = 0x342
MIP = 0x344
MMUL_MODE = 0x7C0    # bit 0: partial-execution mode select
MMUL_STATUS = 0x7C1  # read-only: busy bit 0, bit index bits 8..15
MCYCLE = 0xB00       # read-only cycle counter

MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7
MEI_BIT = 1 << 11  # machine external interrupt, in mie/mip

CAUSE_MEXT_IRQ = 0x8000000B

# writable-bit masks for read/write CSRs
_CSR_MASKS = {
    MSTATUS: MSTATUS_MIE | MSTATUS_MPIE,
    MIE: MEI_BIT,
    MTVEC: ~3 & M32,
    MSCRATCH: M32,
    MEPC: ~1 & M32,
    MCAUSE: M32,
    MMUL_MODE: 1,
}


class RegisterFile:
    """x0..x15; x0 is hardwired to zero."""

    __slots__ = ("x",)

    def __init__(self):
        self.x = [0] * 16

    def read(self, idx):
        return self.x[idx]

    def write(self, idx, value):
        if idx:
            self.x[idx] = value & M32


class Memory:
    """Single flat byte-addressed region from address 0 with configurable
    access latency.

    `decoded` caches the core's decoded instruction per pc.  Every write
    drops the entries whose 4-byte fetch window [pc, pc + 4) it overlaps,
    so a store into code is seen by the next fetch.  `code_top` is the end
    of the highest window ever cached: a write at or above it, such as a
    data or MMUL engine store, costs one comparison.
    """

    def __init__(self, size=DEFAULT_MEM_SIZE, read_latency=1, write_latency=1):
        if read_latency < 1 or write_latency < 1:  # every access takes a cycle
            raise ValueError("latencies must be at least 1")
        self.data = bytearray(size)
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.decoded = {}  # pc -> (decoded, executor, table value, uses_alu)
        self.code_top = 0

    def _check(self, addr, nbytes):
        if addr < 0 or addr + nbytes > len(self.data):
            raise UnmappedAddress(f"0x{addr:08x}")

    def read(self, addr, nbytes):
        self._check(addr, nbytes)
        return int.from_bytes(self.data[addr:addr + nbytes], "little")

    def write(self, addr, nbytes, value):
        self._check(addr, nbytes)
        self.data[addr:addr + nbytes] = (value & ((1 << (8 * nbytes)) - 1)) \
            .to_bytes(nbytes, "little")
        if addr < self.code_top:
            self._invalidate(addr, addr + nbytes)

    def fetch_unit(self, addr):
        """32-bit fetch window at addr (zero-padded at the top of memory)."""
        self._check(addr, 2)
        data = self.data
        lo = data[addr] | data[addr + 1] << 8
        if lo & 3 != 3:
            return lo
        self._check(addr, 4)
        return lo | data[addr + 2] << 16 | data[addr + 3] << 24

    def load_image(self, blob, base):
        self._check(base, len(blob))
        self.data[base:base + len(blob)] = blob
        if base < self.code_top:
            self._invalidate(base, base + len(blob))

    def _invalidate(self, start, end):
        """Drop the decoded entries whose fetch window meets [start, end)."""
        decoded = self.decoded
        for pc in [pc for pc in decoded if start - 4 < pc < end]:
            del decoded[pc]


class Machine:
    """One simulated core's worth of architectural state."""

    def __init__(self, memory=None, max_words=8):
        self.mem = memory if memory is not None else Memory()
        self.regs = RegisterFile()
        self.pc = CODE_BASE
        self.cycle = 0
        self.engine = MmulEngine(max_words=max_words)
        self.stats = RunStats()
        self.csr = {a: 0 for a in _CSR_MASKS}
        self.csr[MIP] = 0  # reads/writes routed to the interrupt line
        self.irq_pending = False  # the one external line, line 0
        self.irq_assert_cycle = 0
        self.in_handler = False
        self.halted = False
        self.exit_code = 0

    # -- LSU contract (used by both the ISA core and the MMUL engine) ------

    def load_word(self, addr):
        """Returns (value, latency_cycles); counts one memory read."""
        if addr & 3:
            raise MisalignedAccess(f"load_word at 0x{addr:08x}")
        value = self.mem.read(addr, 4)
        self.stats.mem_reads += 1
        return value, self.mem.read_latency

    def store_word(self, addr, value):
        """Returns latency_cycles; counts one memory write."""
        if addr & 3:
            raise MisalignedAccess(f"store_word at 0x{addr:08x}")
        self.mem.write(addr, 4, value)
        self.stats.mem_writes += 1
        return self.mem.write_latency

    def load_scalar(self, addr, nbytes):
        """Byte/halfword load path for lb/lh/lbu/lhu."""
        if addr & (nbytes - 1):
            raise MisalignedAccess(f"load at 0x{addr:08x}")
        value = self.mem.read(addr, nbytes)
        self.stats.mem_reads += 1
        return value, self.mem.read_latency

    def store_scalar(self, addr, nbytes, value):
        if addr & (nbytes - 1):
            raise MisalignedAccess(f"store at 0x{addr:08x}")
        self.mem.write(addr, nbytes, value)
        self.stats.mem_writes += 1
        return self.mem.write_latency

    # -- CSR file ----------------------------------------------------------

    def csr_access(self, addr, op, value=0):
        """RISC-V read/write/set/clear semantics; returns the old value."""
        writes = op == "write" or (op in ("set", "clear") and value != 0)
        if addr == MMUL_STATUS:
            old = self.engine.status_word()
            if writes:
                raise UnimplementedCsr("MMUL_STATUS is read-only")
            return old
        if addr == MCYCLE:
            old = self.cycle & M32
            if writes:
                raise UnimplementedCsr("mcycle is read-only here")
            return old
        if addr not in self.csr:
            raise UnimplementedCsr(f"csr 0x{addr:03x}")
        old = self._csr_read(addr)
        if op == "read":
            return old
        if op == "write":
            new = value
        elif op == "set":
            new = old | value
        elif op == "clear":
            new = old & ~value
        else:
            raise ValueError(f"bad csr op {op!r}")
        self._csr_write(addr, new)
        return old

    def _csr_read(self, addr):
        if addr == MIP:
            return MEI_BIT if self.irq_pending else 0
        return self.csr[addr]

    def _csr_write(self, addr, value):
        if addr == MIP:
            # writing MEIP acknowledges (or software-asserts) the line
            if value & MEI_BIT:
                self.raise_interrupt()
            else:
                self.irq_pending = False
            return
        self.csr[addr] = value & _CSR_MASKS[addr]

    # -- interrupt line ----------------------------------------------------

    def raise_interrupt(self, line=0, at_cycle=None):
        """Assert the external line; the first assertion's cycle wins."""
        if line != 0:
            raise SimError(f"interrupt line {line} not configured")
        if not self.irq_pending:
            self.irq_pending = True
            self.irq_assert_cycle = self.cycle if at_cycle is None else at_cycle

    def interrupt_ready(self):
        return (self.irq_pending
                and self.csr[MSTATUS] & MSTATUS_MIE
                and self.csr[MIE] & MEI_BIT)

    def load_image(self, blob, base):
        self.mem.load_image(blob, base)
