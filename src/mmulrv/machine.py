"""Architectural state: registers, flat memory, CSR file, interrupt line."""

import sys

from .engine import DEFAULT_MAX_WORDS, MmulEngine
from .errors import MisalignedAccess, UnimplementedCsr, UnmappedAddress
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
MMUL_STATUS = 0x7C1  # read-only: busy bit 0, bit index mod 256 bits 8..15
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

# read-only CSRs: address -> the value a read of it returns
_READ_ONLY = {
    MMUL_STATUS: lambda m: m.engine.status_word(),
    MCYCLE: lambda m: m.cycle & M32,
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


SHARED_IMAGES = 16  # the images whose blocks one process keeps
# (image bytes, base, read latency, write latency, memory size) ->
# {pc: blocks entry}, oldest image first; an image gets its table when its
# first entry is made
_shared = {}


class Memory:
    """Single flat byte-addressed region from address 0 with configurable
    access latency.

    `words` is an aligned word view of the same bytes: `words[a >> 2]` is
    the little-endian word at the aligned address a, and assigning it
    writes those 4 bytes.  Translated `lw`/`sw` index it, so the size
    must be a multiple of 4, and a host whose native unsigned int is not
    4 little-endian bytes is refused, since the view would read other
    values than the bytes hold.  The LSU's word transfers (`load_words`,
    `store_words`) go through `read` and `write` instead, a whole `MMUL`
    operand at a time.

    `blocks` is the core's one per-pc cache: the block that starts at a pc
    (a translated run or a run of MMUL units) and the decode of its first
    instruction.  Every write drops the entries
    whose fetch windows (4 bytes from each of their instructions' pcs) it
    overlaps, so a store into code is seen by the next fetch.  `code_top` is
    the end of the highest window ever cached: a write at or above it, such
    as a data or MMUL engine store, costs one comparison.

    Blocks depend only on their bytes, the latencies and the memory size
    (their bounds tests hold it), so memories that load the same image
    share them.  The first image loaded into a fresh memory starts from the
    entries earlier memories of its size made inside the same image at the
    same latencies, and `code_top` rises to its end.  Each entry
    this memory makes inside the image joins that table, until the first
    write below `code_top`, which ends the sharing for good: from then on the
    image may no longer hold its own bytes.
    """

    def __init__(self, size=DEFAULT_MEM_SIZE, read_latency=1, write_latency=1):
        if read_latency < 1 or write_latency < 1:  # every access takes a cycle
            raise ValueError("latencies must be at least 1")
        if size % 4:
            raise ValueError("memory size must be a multiple of 4")
        self.data = bytearray(size)
        self.words = memoryview(self.data).cast("I")
        if sys.byteorder != "little" or self.words.itemsize != 4:
            raise ValueError("the word view needs a little-endian host "
                             "with a 4-byte unsigned int")
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.blocks = {}  # pc -> (run, first decode, end of windows)
        self.code_top = 0
        self.image = None  # the _shared key of the image it shares blocks of

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
            self.invalidate(addr, addr + nbytes)

    def fetch_unit(self, addr):
        """The fetch unit at addr: its halfword when that is a compressed
        unit, else the 32-bit word there.  A unit that does not fit in
        memory raises UnmappedAddress, so the low half of a 32-bit unit in
        the last halfword faults."""
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
            self.invalidate(base, base + len(blob))
        elif not self.code_top and blob:  # the first image of a fresh memory
            self.image = bytes(blob), base, self.read_latency, \
                self.write_latency, len(self.data)
            self.blocks.update(_shared.get(self.image, ()))
            self.code_top = base + len(blob)

    def keep(self, pc, entry):
        """Cache the blocks entry of `pc`, and share it while this memory
        shares its image's blocks and the entry's windows lie inside it;
        returns the entry."""
        self.blocks[pc] = entry
        end = entry[2]
        if end > self.code_top:  # cheaper than max() on every first visit
            self.code_top = end
        if self.image is not None:
            image, base = self.image[:2]
            if base <= pc and end <= base + len(image):
                table = _shared.get(self.image)
                if table is None:
                    if len(_shared) >= SHARED_IMAGES:
                        del _shared[next(iter(_shared))]
                    table = _shared[self.image] = {}
                table[pc] = entry
        return entry

    def invalidate(self, start, end):
        """Drop the blocks that [start, end) overlaps, and stop sharing."""
        self.image = None
        blocks = self.blocks
        for pc in [p for p, b in blocks.items() if p < end and start < b[2]]:
            del blocks[pc]


class Machine:
    """One simulated core's worth of architectural state."""

    def __init__(self, memory=None, max_words=DEFAULT_MAX_WORDS):
        self.mem = memory if memory is not None else Memory()
        self.regs = RegisterFile()
        self.pc = CODE_BASE
        self.cycle = 0
        self.engine = MmulEngine(max_words=max_words)
        self.stats = RunStats()
        self.csr = {a: 0 for a in _CSR_MASKS}
        self.csr[MIP] = 0  # reads/writes routed to the interrupt line
        self.irq_pending = False  # the one external interrupt line
        self.irq_assert_cycle = 0
        self.in_handler = False
        self.halted = False
        self.exit_code = 0

    # -- LSU contract (the MMUL engine's, and a faulting core access's) ---

    def _fit(self, addr, count):
        """How many of the count words from addr lie in memory: all of
        them, or those below its top."""
        size = len(self.mem.data)
        if addr < 0 or addr + 4 * count > size:
            return max(size - addr, 0) >> 2 if addr >= 0 else 0
        return count

    def load_words(self, addr, count):
        """Returns (the count words from addr as one little-endian value,
        count read latencies in cycles) and counts count memory reads.  A
        transfer that runs off the top of memory counts the words below
        the top, then raises UnmappedAddress at the first word that does
        not fit."""
        if addr & 3:
            raise MisalignedAccess(f"load_word at 0x{addr:08x}")
        fit = self._fit(addr, count)
        self.stats.mem_reads += fit
        if fit < count:
            raise UnmappedAddress(f"0x{addr + 4 * fit:08x}")
        return self.mem.read(addr, 4 * count), count * self.mem.read_latency

    def store_words(self, addr, count, value):
        """Stores the low 32*count bits of value from addr on; returns
        count write latencies in cycles and counts count memory writes.  A
        transfer that runs off the top of memory stores the words below
        the top, then raises UnmappedAddress at the first word that does
        not fit."""
        if addr & 3:
            raise MisalignedAccess(f"store_word at 0x{addr:08x}")
        fit = self._fit(addr, count)
        if fit:
            self.mem.write(addr, 4 * fit, value)
        self.stats.mem_writes += fit
        if fit < count:
            raise UnmappedAddress(f"0x{addr + 4 * fit:08x}")
        return count * self.mem.write_latency

    def load_word(self, addr):
        """Returns (value, latency_cycles); counts one memory read."""
        return self.load_words(addr, 1)

    def store_word(self, addr, value):
        """Stores the low 32 bits of value; returns latency_cycles and
        counts one memory write."""
        return self.store_words(addr, 1, value)

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
        """RISC-V read/write/set/clear semantics; returns the old value.
        Every op but "read" writes, so a read-only CSR refuses it."""
        if addr in _READ_ONLY:
            if op != "read":
                raise UnimplementedCsr(f"csr 0x{addr:03x} is read-only")
            return _READ_ONLY[addr](self)
        if addr not in self.csr:
            raise UnimplementedCsr(f"csr 0x{addr:03x}")
        if addr == MIP:
            old = MEI_BIT if self.irq_pending else 0
        else:
            old = self.csr[addr]
        if op == "read":
            return old
        if op == "write":
            new = value
        elif op == "set":
            new = old | value
        else:  # "clear"
            new = old & ~value
        if addr != MIP:
            self.csr[addr] = new & _CSR_MASKS[addr]
        elif new & MEI_BIT:  # writing MEIP software-asserts the line
            self.raise_interrupt()
        else:  # and clearing it acknowledges the line
            self.irq_pending = False
        return old

    # -- interrupt line ----------------------------------------------------

    def raise_interrupt(self, at_cycle=None):
        """Assert the external line; the first assertion's cycle wins."""
        if not self.irq_pending:
            self.irq_pending = True
            self.irq_assert_cycle = self.cycle if at_cycle is None else at_cycle

    def interrupt_ready(self):
        return (self.irq_pending
                and self.csr[MSTATUS] & MSTATUS_MIE
                and self.csr[MIE] & MEI_BIT)

    def load_image(self, blob, base):
        self.mem.load_image(blob, base)
