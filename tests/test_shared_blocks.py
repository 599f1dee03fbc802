"""Blocks shared between machines that load the same image.

The first image loaded into a fresh `Memory` starts from the blocks that
earlier memories of its size made inside it at the same latencies, and
adds its own.
A memory that writes below its `code_top` stops sharing for good, so code
rewritten on one machine never runs on another: each program here runs on
`isa.Cpu` after another machine rewrote it, and must end in the state that
`reference_core.ReferenceCpu` reaches on a twin machine.
"""

import pytest

from conftest import NEW, encoding, machine_state, make_machine
from mmulrv import isa
from mmulrv.asm import Asm
from mmulrv.machine import DEFAULT_MEM_SIZE, SHARED_IMAGES
from reference_core import ReferenceCpu


def _program(store):
    """Two passes of a loop whose first unit adds 1 to x5; with `store`,
    each pass then writes NEW over that unit.  Every pass enters the loop
    through the block at its label.  Returns the image and the address of
    the loop."""
    a = Asm(base=0)
    a.li(9, NEW)
    a.li(6, 2)
    a.j("loop")
    a.label("loop")
    a.addi(5, 5, 1)
    if store:
        a.sw(9, 0, a.labels["loop"])
    a.addi(6, 6, -1)
    a.bne(6, 0, "loop")
    a.li(10, 0)
    a.ecall()
    return a.assemble(), a.labels["loop"]


def _loaded(code, rl=1, wl=1, size=DEFAULT_MEM_SIZE):
    m = make_machine(read_latency=rl, write_latency=wl, size=size)
    m.load_image(code, 0)
    return m


def _run(core, m):
    stats = core(m).run(budget=10_000)
    assert stats.stop_reason == "halt", stats.trap_cause
    return m


@pytest.mark.parametrize("when", ["before", "after"])
@pytest.mark.parametrize("how", ["sw", "load_image"])
def test_code_rewritten_on_one_machine_never_runs_on_another(how, when,
                                                             unshared):
    """Machine `first` rewrites the loop's addi, by a `sw` of its own
    program or by loading a word over it, and runs the new code; `other`,
    made before or after that, runs the original code as the reference
    stepper does."""
    code, loop = _program(store=how == "sw")
    first = _loaded(code)
    if when == "before":
        other = _loaded(code)
    _run(isa.Cpu, first)
    if how == "load_image":
        first.load_image(NEW.to_bytes(4, "little"), loop)
        first.pc, first.halted = 0, False
        _run(isa.Cpu, first)
        assert first.regs.x[5] == 2 + 17 * 2
    else:
        assert first.regs.x[5] == 1 + 17
    if when == "after":
        other = _loaded(code)
    reference = _run(ReferenceCpu, _loaded(code))
    assert machine_state(_run(isa.Cpu, other)) == machine_state(reference)


@pytest.mark.parametrize("how", ["sw", "load_image"])
def test_a_machine_that_writes_its_image_before_running_shares_nothing(
        how, unshared):
    code, loop = _program(store=False)
    m = _loaded(code)
    if how == "sw":
        m.store_word(loop, NEW)
    else:
        m.load_image(NEW.to_bytes(4, "little"), loop)
    assert _run(isa.Cpu, m).regs.x[5] == 17 * 2
    assert unshared == {}


def test_machines_that_load_one_image_share_its_blocks(unshared):
    """A second machine starts from the first one's blocks, and only at the
    same latencies and memory size, which its blocks' bounds tests hold;
    an image that never runs an instruction gets no table."""
    code, _ = _program(store=False)
    first = _run(isa.Cpu, _loaded(code))
    assert _loaded(code).mem.blocks == first.mem.blocks != {}
    assert _loaded(code, rl=2).mem.blocks == {}
    assert _loaded(code, size=DEFAULT_MEM_SIZE // 2).mem.blocks == {}
    _loaded(b"\x13\x00\x00\x00" + code)
    assert len(unshared) == 1


def test_the_table_keeps_at_most_its_bound_of_images(unshared):
    """Each distinct image run adds a table, and the oldest goes first."""
    images = [encoding(lambda a: a.addi(5, 0, k)).to_bytes(4, "little")
              + encoding(lambda a: a.ecall()).to_bytes(4, "little")
              for k in range(SHARED_IMAGES + 4)]
    for image in images:
        _run(isa.Cpu, _loaded(image))
    assert len(unshared) == SHARED_IMAGES
    assert [key[0] for key in unshared] == images[4:]
