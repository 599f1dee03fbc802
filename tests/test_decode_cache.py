"""Self-modifying code against the per-pc block cache, `Memory.blocks`.

`mmulrv.isa.Cpu` caches the block that starts at each pc, with the decode
of its first instruction; a store, an MMUL result or a loaded image that
overlaps a cached fetch window must drop the entry.  Each program rewrites code it has already executed, and
`reference_core.ReferenceCpu`, which fetches and decodes every instruction,
runs it on a twin machine: both must end in identical state, and the result
register shows that the rewritten instruction is the one that ran.
"""

import pytest

from conftest import NEW, machine_state, make_machine, twins
from mmulrv import isa
from mmulrv.asm import Asm
from mmulrv.machine import DATA_BASE
from reference_core import ReferenceCpu

LOOPS = 3
ECALL = 0x00000073


def _addi(rd, rs1, imm):
    return (imm & 0xFFF) << 20 | rs1 << 15 | rd << 7 | 0x13


def _auipc(rd):  # rd = the address of this instruction
    return rd << 7 | 0x17


def _store(width, rs2, rs1, imm):
    """sb, sh or sw rs2, imm(rs1) for width 1, 2 or 4."""
    return ((imm >> 5) & 0x7F) << 25 | rs2 << 20 | rs1 << 15 \
        | {1: 0, 2: 1, 4: 2}[width] << 12 | (imm & 0x1F) << 7 | 0x23


def _bne(rs1, offset):  # bne rs1, x0, offset
    imm = offset & 0x1FFE
    return (imm >> 12 & 1) << 31 | (imm >> 5 & 0x3F) << 25 | rs1 << 15 \
        | 1 << 12 | (imm >> 1 & 0xF) << 8 | (imm >> 11 & 1) << 7 | 0x63


class Program:
    """16- and 32-bit units from address 0."""

    def __init__(self):
        self.code = bytearray()

    def units(self, *units):
        for unit in units:
            self.code += unit.to_bytes(4 if unit & 3 == 3 else 2, "little")

    def li(self, rd, value):
        asm = Asm(base=len(self.code))
        asm.li(rd, value)
        self.code += asm.assemble()

    def loop(self, counter, body):
        """body, then counter -= 1 and back to the body while it is not
        zero, then ecall."""
        start = len(self.code)
        self.units(*body, _addi(counter, counter, -1))
        self.units(_bne(counter, start - len(self.code)), ECALL)


def _patch_loop(target, width, offset, value):
    """Each pass runs the `target` units, then stores `value` (`width`
    bytes) at offset `offset` into them.  x5 accumulates, x6 counts."""
    p = Program()
    p.li(6, LOOPS)
    p.li(9, value)
    p.loop(6, [_auipc(8), *target, _store(width, 9, 8, 4 + offset)])
    return bytes(p.code)


@pytest.mark.parametrize("width,offset,value", [
    (4, 0, NEW),
    (2, 2, NEW >> 16),          # the upper half of the word
    (1, 3, NEW >> 24 & 0xFF),   # its top byte only
], ids=["sw", "sh-upper-half", "sb-top-byte"])
def test_store_into_executed_instruction(width, offset, value):
    code = _patch_loop([_addi(5, 5, 1)], width, offset, value)
    m, stats = twins(lambda m: m.load_image(code, 0), budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    assert m.regs.x[5] == 1 + 17 * (LOOPS - 1)


def test_store_turns_compressed_unit_into_32_bit():
    """c.addi x5, 1 then c.slli x1, 0 (a no-op); writing the low half of
    addi x5, x5, 8 over the first makes one 32-bit unit of the two."""
    c_addi, c_slli = 0x0285, 0x0082
    assert [(d.kind, d.length) for d in map(isa.decode, (c_addi, c_slli))] \
        == [("addi", 2), ("slli", 2)]
    assert c_slli << 16 | _addi(5, 5, 8) & 0xFFFF == _addi(5, 5, 8)
    code = _patch_loop([c_addi, c_slli], 2, 0, _addi(5, 5, 8) & 0xFFFF)
    m, stats = twins(lambda m: m.load_image(code, 0), budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    assert m.regs.x[5] == 1 + 8 * (LOOPS - 1)


def test_mmul_result_lands_on_executed_code():
    """An atomic one-word MMUL writes A * R * R^-1 mod N = A, the word of
    addi x5, x5, 100, over an instruction the loop already ran."""
    n = 0xFFFFFFFB
    a, b = _addi(5, 5, 100), (1 << 32) % n
    asm = Asm(base=0)
    asm.mmul(13, 10, 11, 12, 1)  # P = x13, A = x10, B = x11, N = x12
    mmul = int.from_bytes(asm.assemble(), "little")
    p = Program()
    p.li(6, 2)
    for k, reg in enumerate((10, 11, 12)):
        p.li(reg, DATA_BASE + 4 * k)
    p.loop(6, [_auipc(13), _addi(13, 13, 8), _addi(5, 5, 1), mmul])

    def load(m):
        m.load_image(bytes(p.code), 0)
        for k, value in enumerate((a, b, n)):
            m.load_image(value.to_bytes(4, "little"), DATA_BASE + 4 * k)

    m, stats = twins(load, budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    assert m.regs.x[5] == 1 + 100
    assert m.stats.mmul_invocations == 2


@pytest.mark.parametrize("base,blob", [
    (0, _addi(5, 0, 0x107).to_bytes(4, "little")),  # the whole word
    (3, bytes([_addi(5, 0, 0x107) >> 24])),          # its top byte only
], ids=["whole-word", "top-byte"])
def test_load_image_over_cached_code(base, blob):
    """addi x5, x0, 7; ecall runs to halt, an image that makes the addi
    load 0x107 is loaded over it, and the machine runs again from 0."""
    machines = []
    for core in (isa.Cpu, ReferenceCpu):
        m = make_machine()
        m.load_image(_addi(5, 0, 7).to_bytes(4, "little")
                     + ECALL.to_bytes(4, "little"), 0)
        cpu = core(m)
        assert cpu.run(budget=100).stop_reason == "halt"
        assert m.regs.x[5] == 7
        m.load_image(blob, base)
        m.halted, m.pc = False, 0
        assert cpu.run(budget=100).stop_reason == "halt"
        machines.append(m)
    assert machine_state(machines[0]) == machine_state(machines[1])
    assert machines[0].regs.x[5] == 0x107


def test_faulting_fetch_caches_nothing(unshared):
    """Nor does it share anything for the image it faults in."""
    m = make_machine()  # all-zero memory: an illegal compressed unit at 0
    m.load_image(bytes(8), 0)
    stats = isa.Cpu(m).run(budget=100)
    assert (stats.stop_reason, stats.trap_pc, m.pc) == ("trap", 0, 0)
    assert m.mem.blocks == unshared == {}
