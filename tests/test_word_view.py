"""`Memory.words`, the aligned word view, against the bytes it views.

Translated `lw`/`sw` index the view, while images, sub-word accesses, the
LSU's word transfers, `fetch_unit` and `Memory.read` use the bytes.  Each
program here mixes the two paths and must end, on `isa.Cpu`, in the state
`reference_core.ReferenceCpu` reaches on a twin machine, at three memory
latency pairs.  `Memory` refuses what the view cannot hold.
"""

import sys

import pytest

from conftest import (LATENCIES, NEW, build_guest, make_machine, mont_oracle,
                      operand_block, twins)
from mmulrv import isa
from mmulrv.asm import Asm
from mmulrv.machine import DATA_BASE, Memory

VALUE = 0x89ABCDEF
MODULUS = 0xFFFFFFFB  # 2^32 mod MODULUS is 5, so mont(v, 5) is v


def _loop(body, setup=()):
    """`setup`, then two passes of `body` (x6 counts), then a halt;
    returns the image and the address of the loop."""
    a = Asm(base=0)
    for emit in setup:
        emit(a)
    a.li(6, 2)
    a.j("loop")
    a.label("loop")
    body(a)
    a.addi(6, 6, -1)
    a.bne(6, 0, "loop")
    a.li(10, 0)
    a.ecall()
    return a.assemble(), a.labels["loop"]


@pytest.mark.parametrize("size", [6, 0x20002])
def test_a_size_not_a_multiple_of_4_is_refused(size):
    with pytest.raises(ValueError, match="multiple of 4"):
        Memory(size=size)


def test_a_big_endian_host_is_refused(monkeypatch):
    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(ValueError, match="little-endian"):
        Memory()


def test_store_word_keeps_the_low_32_bits():
    m = make_machine()
    m.store_word(DATA_BASE, 1 << 40 | VALUE)
    assert m.load_word(DATA_BASE) == (VALUE, 1)
    assert m.mem.read(DATA_BASE, 4) == VALUE


def test_ba_blocks_index_the_word_view(monkeypatch, unshared):
    """The blocks of the BA kernels load and store words through the view
    and add no zero offset."""
    sources = []

    def recorded(source, namespace):
        sources.append(source)
        exec(source, namespace)

    monkeypatch.setattr(isa, "exec", recorded, raising=False)
    for name, params in (("montmul_once", {}), ("modexp256", {}),
                         ("x25519_ladder", {"scalar": 0xB, "scalar_bits": 4})):
        _, stats = build_guest(name, "BA", params).run()
        assert stats.stop_reason == "halt"
    source = "\n".join(sources)
    assert "x5 = w[x8 >> 2]" in source and "w[x8 >> 2] = x5" in source
    assert "mem.write(" not in source
    assert "int.from_bytes" not in source
    assert "+ 0 &" not in source


@pytest.mark.parametrize("rl,wl", LATENCIES)
def test_a_loaded_image_is_read_by_lw(rl, wl):
    words = [VALUE, 0x01234567, 0xFFFFFFFF]

    def body(a):
        for k in range(len(words)):
            a.lw(7, 8, 4 * k)
            a.add(5, 5, 7)

    code, _ = _loop(body, [lambda a: a.li(8, DATA_BASE)])

    def load(m):
        m.load_image(code, 0)
        m.load_image(b"".join(w.to_bytes(4, "little") for w in words),
                     DATA_BASE)

    m, stats = twins(load, rl, wl, budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    assert m.regs.x[5] == 2 * sum(words) & 0xFFFFFFFF


@pytest.mark.parametrize("rl,wl", LATENCIES)
def test_a_translated_sw_is_seen_by_the_bytes(rl, wl):
    """Each pass stores a word into data and reads its bytes back with
    `lbu`/`lh`, stores a halfword over the low half of a word and reads
    the word with `lw`, and stores NEW over the loop's first unit, which
    the next pass fetches."""
    def body(a):
        a.addi(5, 5, 1)
        a.sw(7, 8, 0)
        a.lbu(12, 8, 1)
        a.lh(13, 8, 2)
        a.sw(7, 8, 4)
        a.sh(6, 8, 4)
        a.lw(14, 8, 4)
        a.sw(9, 0, a.labels["loop"])

    code, loop = _loop(body, [lambda a: a.li(8, DATA_BASE),
                              lambda a: a.li(7, VALUE),
                              lambda a: a.li(9, NEW)])
    m, stats = twins(lambda m: m.load_image(code, 0), rl, wl, budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    assert m.regs.x[5] == 1 + 17
    assert (m.regs.x[12], m.regs.x[13], m.regs.x[14]) == (
        VALUE >> 8 & 0xFF, 0xFFFF89AB, 0x89AB0001)
    assert m.mem.read(DATA_BASE, 4) == VALUE
    assert m.mem.fetch_unit(loop) == m.mem.read(loop, 4) == NEW


def _with_mmul(body, p, a_value):
    """`body` from address 4 on, entered at its label `entry` with x6 = 2
    and an atomic one-word MMUL's operand addresses in x10..x12 and its
    result address `p` in x13; the MMUL computes a_value * 5 * 2^-32 mod
    MODULUS, which is a_value.  Returns the loader of the program and its
    operands."""
    a = Asm(base=0)
    a.j("start")
    body(a)
    a.label("done")
    a.li(10, 0)
    a.ecall()
    a.label("start")
    for reg, value in ((10, DATA_BASE), (11, DATA_BASE + 4),
                       (12, DATA_BASE + 8), (13, p), (6, 2)):
        a.li(reg, value)
    a.j("entry")
    code = a.assemble()

    def load(m):
        m.load_image(code, 0)
        operand_block(m, a_value, 5, MODULUS, 1)
    return load


@pytest.mark.parametrize("rl,wl", LATENCIES)
def test_an_engine_result_store_is_read_by_lw(rl, wl):
    """The first pass reads the result word before the MMUL writes it, so
    its block is made before the store; the second pass reads the result."""
    assert mont_oracle(VALUE, 5, MODULUS, 32) == VALUE
    p = DATA_BASE + 0x100

    def body(a):
        a.label("entry")
        a.lw(14, 13, 0)
        a.addi(6, 6, -1)
        a.beq(6, 0, "done")
        a.mmul(13, 10, 11, 12, 1)
        a.j("entry")

    m, stats = twins(_with_mmul(body, p, VALUE), rl, wl, budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    assert m.regs.x[14] == VALUE
    assert m.mem.read(p, 4) == VALUE


@pytest.mark.parametrize("rl,wl", LATENCIES)
def test_an_engine_result_store_into_code_drops_its_block(rl, wl):
    """The first pass runs the block at address 4 (x5 += 1), then an MMUL
    writes NEW over that unit; the second pass must run NEW."""
    def body(a):
        a.label("entry")
        a.addi(5, 5, 1)
        a.addi(6, 6, -1)
        a.beq(6, 0, "done")
        a.mmul(13, 10, 11, 12, 1)
        a.j("entry")

    m, stats = twins(_with_mmul(body, 4, NEW), rl, wl, budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    assert m.regs.x[5] == 1 + 17
    assert m.mem.fetch_unit(4) == NEW
