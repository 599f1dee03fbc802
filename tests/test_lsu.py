"""The engine's operand transfers against a word-by-word engine.

`MmulEngine._begin` pulls each operand through `Machine.load_words` and
`_finish` writes the result through `Machine.store_words`, one transfer
each.  `PerWordEngine` below is the oracle: the engine's checks and state,
its product from the bit-serial spec `r2mm_reference`, and the operand
traffic done one word at a time, through a copy of the one-word LSU that
indexes the word view.  Twin machines, one with each engine, run
the same operation and must end alike: result, cycles, trap type and
message, engine state, `machine_state` (memory, counters) and the cached
blocks and shared image of their memories.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import machine_state
from mmulrv.asm import Asm
from mmulrv.engine import MmulEngine, MmulOperands, r2mm_reference
from mmulrv.errors import (EvenModulus, LengthExceedsHardwareMax,
                           MisalignedAccess, SimError, UnmappedAddress)
from mmulrv.isa import Cpu
from mmulrv.machine import Machine, Memory

SIZE = 0x800  # small, so every operand can reach the top of memory
WIDTHS = [1, 8, 32]
RL, WL = 2, 3  # latencies that tell a word count from a cycle count


def _load_word(m, addr):
    if addr & 3:
        raise MisalignedAccess(f"load_word at 0x{addr:08x}")
    mem = m.mem
    if addr < 0 or addr + 4 > len(mem.data):
        raise UnmappedAddress(f"0x{addr:08x}")
    m.stats.mem_reads += 1
    return mem.words[addr >> 2], mem.read_latency


def _store_word(m, addr, value):
    if addr & 3:
        raise MisalignedAccess(f"store_word at 0x{addr:08x}")
    mem = m.mem
    if addr < 0 or addr + 4 > len(mem.data):
        raise UnmappedAddress(f"0x{addr:08x}")
    mem.words[addr >> 2] = value & 0xFFFFFFFF
    if addr < mem.code_top:
        mem.invalidate(addr, addr + 4)
    m.stats.mem_writes += 1
    return mem.write_latency


class PerWordEngine(MmulEngine):
    """The engine with one LSU call per operand word."""

    def _begin(self, machine, ops):
        if ops.words > self.max_words:
            raise LengthExceedsHardwareMax(
                f"words={ops.words} exceeds hardware limit {self.max_words}")
        if ops.words < 1:
            raise LengthExceedsHardwareMax("words must be >= 1")
        for addr in (ops.addr_a, ops.addr_b, ops.addr_n, ops.addr_p):
            if addr & 3:
                raise MisalignedAccess(f"operand address 0x{addr:08x}")
        cycles = 0
        bufs = []
        for base in (ops.addr_a, ops.addr_b, ops.addr_n):
            value = 0
            for j in range(ops.words):
                word, lat = _load_word(machine,
                                       (base + 4 * j) & 0xFFFFFFFF)
                value |= word << (32 * j)
                cycles += lat
            bufs.append(value)
        if bufs[2] % 2 == 0:
            raise EvenModulus("modulus loaded from memory is even")
        self.buf_a, self.buf_b, self.buf_n = bufs
        self.n_bits = ops.n_bits
        self.bit_index = 0
        self.latched = ops
        return cycles

    def _finish(self, machine):
        ops = self.latched
        s = r2mm_reference(self.buf_a, self.buf_b, self.buf_n, self.n_bits)
        self.reset()
        cycles = 1
        for j in range(ops.words):
            cycles += _store_word(machine, (ops.addr_p + 4 * j) & 0xFFFFFFFF,
                                  (s >> (32 * j)) & 0xFFFFFFFF)
        return cycles


def _code():
    """A program that loops over six straight runs of `addi`, padded to
    whole words; run from the top of memory, it fills the cache with
    blocks."""
    a = Asm(base=0)
    a.li(6, 3)
    a.j("loop")
    a.label("loop")
    for i in range(48):
        a.addi(7 + i % 3, 7 + i % 3, i)
        if i % 8 == 7:  # an untaken branch ends a block
            a.bne(0, 0, "loop")
    a.addi(6, 6, -1)
    a.bne(6, 0, "loop")
    a.li(10, 0)
    a.ecall()
    blob = a.assemble()
    return blob + bytes(-len(blob) % 4)


CODE = _code()
CODE_BASE = SIZE - len(CODE)


def _machine(engine, code):
    """A machine of SIZE bytes with `engine`; with `code`, the program
    runs from the top of memory first and its blocks stay cached."""
    m = Machine(memory=Memory(SIZE, RL, WL), max_words=32)
    m.engine = engine(max_words=32)
    if code:
        m.load_image(CODE, CODE_BASE)
        m.pc = CODE_BASE
        Cpu(m).run()
        assert m.halted and m.mem.blocks and m.mem.image is not None
    return m


def _poke(m, addr, value, words):
    """Operand bytes written straight into memory, which leaves the cached
    blocks and the shared image alone."""
    m.mem.data[addr:addr + 4 * words] = value.to_bytes(4 * words, "little")


def _issue(m, ops, mode):
    if mode == "atomic":
        return m.engine.execute_atomic(m, ops)
    return [m.engine.execute_partial_call(m, ops) for _ in range(ops.n_bits)]


def _outcome(m, ops, mode):
    try:
        result, trap = _issue(m, ops, mode), None
    except SimError as err:
        result, trap = None, (type(err).__name__, str(err))
    return dict(result=result, trap=trap, busy=m.engine.busy,
                engine=vars(m.engine), state=machine_state(m),
                reads=m.stats.mem_reads, writes=m.stats.mem_writes,
                blocks=sorted(m.mem.blocks), image=m.mem.image,
                code_top=m.mem.code_top)


def _twins(values, ops, mode="atomic", code=False):
    """The outcomes of `ops` on a bulk and a per-word twin, once both are
    equal; `values` maps an address to the operand written there."""
    ends = []
    for engine in (MmulEngine, PerWordEngine):
        m = _machine(engine, code)
        for addr, value in values.items():
            _poke(m, addr, value, ops.words)
        ends.append(_outcome(m, ops, mode))
    assert ends[0] == ends[1]
    return ends[0]


def _layout(words):
    """Addresses of A, B, N and P, laid out from 0."""
    return [4 * words * i for i in range(4)]


def _operands(words, seed=0):
    """A and B above an odd N: the engine takes any operand below
    2^(32W)."""
    rng = random.Random(seed)
    high = 1 << 32 * words - 1
    n = rng.getrandbits(32 * words - 1) | 1
    return (rng.getrandbits(32 * words) | high,
            rng.getrandbits(32 * words) | high, n)


@pytest.mark.parametrize("mode", ["atomic", "partial"])
@pytest.mark.parametrize("words", WIDTHS)
def test_in_range_operands(words, mode):
    addrs = _layout(words)
    end = _twins(dict(zip(addrs, _operands(words))),
                 MmulOperands(*addrs, words), mode)
    assert end["trap"] is None and end["result"]


@pytest.mark.parametrize("code", [False, True], ids=["data", "over_code"])
@pytest.mark.parametrize("operand", range(4), ids="ABNP")
@pytest.mark.parametrize("words", WIDTHS)
def test_an_operand_off_the_top_of_memory(words, operand, code, unshared):
    """The operand starts j words below the top, j in 0..W+1: it faults
    at word j for j < W, after moving the j words that fit.  An operand
    that does not fit is not written; it reads what memory holds."""
    for j in range(words + 2):
        addrs = _layout(words)
        addrs[operand] = SIZE - 4 * j
        values = dict(zip(addrs[:3], _operands(words)))
        if j < words:
            values.pop(addrs[operand], None)
        for mode in ("atomic", "partial"):
            end = _twins(values, MmulOperands(*addrs, words), mode, code)
            if j < words:
                assert end["trap"] == ("UnmappedAddress", f"0x{SIZE:08x}")
                assert not end["busy"]
            else:
                assert end["trap"] is None


@pytest.mark.parametrize("words", WIDTHS)
def test_a_result_stored_over_cached_code(words, unshared):
    """The result starts inside the cached program or ends past it; the
    same blocks are dropped and the memory stops sharing its image."""
    addrs = _layout(words)
    values = dict(zip(addrs, _operands(words)))
    cached = len(_machine(MmulEngine, True).mem.blocks)
    for p in (CODE_BASE - 4 * words + 4, CODE_BASE + 12, SIZE - 4 * words):
        ops = MmulOperands(*addrs[:3], p, words)
        for mode in ("atomic", "partial"):
            end = _twins(values, ops, mode, code=True)
            assert end["trap"] is None and end["image"] is None
            assert len(end["blocks"]) < cached


@pytest.mark.parametrize("shift", [0, 1, 2])
@pytest.mark.parametrize("words", WIDTHS)
def test_a_result_over_its_operands(words, shift):
    """P in place of A, or one or two words above A's start."""
    addrs = _layout(words)
    values = dict(zip(addrs, _operands(words, seed=1)))
    ops = MmulOperands(*addrs[:3], addrs[0] + 4 * shift, words)
    for mode in ("atomic", "partial"):
        assert _twins(values, ops, mode)["trap"] is None


@given(data=st.data(), words=st.sampled_from(WIDTHS),
       mode=st.sampled_from(["atomic", "partial"]))
@settings(max_examples=60, deadline=None)
def test_any_operands_below_2_to_the_32w(data, words, mode):
    """A and B range over every value the engine accepts, at or above N
    as well as below it; N is any odd value."""
    top = (1 << 32 * words) - 1
    n = data.draw(st.integers(0, top)) | 1
    a, b = (data.draw(st.integers(n, top) | st.integers(0, top))
            for _ in range(2))
    addrs = _layout(words)
    end = _twins(dict(zip(addrs, (a, b, n))), MmulOperands(*addrs, words),
                 mode)
    assert end["trap"] is None
