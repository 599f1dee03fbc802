"""The block path of `mmulrv.isa.Cpu.run` against the reference stepper.

`Cpu.run` executes a translated block in one call, and the block retires
only its first instruction when the wake falls before its last one starts.
Each program here runs its loop body as a block;
`reference_core.ReferenceCpu`, which steps every instruction, runs it on a
twin machine, and both must end in identical state at three memory latency
pairs: a fault in the middle of a block, a budget or interrupt at every cycle
across one, a loop block's or one that a CSR or system instruction closes,
and a store into a later instruction of the running block.
"""

import pytest

from conftest import LATENCIES, NEW, encoding, make_machine, twins
from mmulrv import isa
from mmulrv.asm import Asm
from mmulrv.guests import build_guest
from mmulrv.isa import TRAP_ENTRY_CYCLES
from mmulrv.machine import (DATA_BASE, DEFAULT_MEM_SIZE, MCYCLE, MEPC, MIE,
                            MIP, MSTATUS, MTVEC)
from reference_core import ReferenceCpu

PASSES = 4


def _loop(body, setup=()):
    """A program that runs `setup`, then `body` PASSES times (x6 counts),
    then halts; returns its image and the address of the loop."""
    a = Asm(base=0)
    for emit in setup:
        emit(a)
    a.li(6, PASSES)
    a.label("loop")
    body(a)
    a.addi(6, 6, -1)
    a.bne(6, 0, "loop")
    a.li(10, 0)
    a.ecall()
    return a.assemble(), a.labels["loop"]


def _translated(m, pc):
    """A block of more than one instruction starts at pc."""
    return pc in m.mem.blocks and m.mem.blocks[pc][2] > pc + 4


def _access(kind, start, stride):
    """x8 walks from `start` by `stride`; the second pass's access faults."""
    def body(a):
        a.addi(5, 5, 1)
        getattr(a, kind)(5 if kind.startswith("s") else 7, 8, 0)
        a.addi(5, 5, 1)
        a.addi(8, 8, stride)
    return _loop(body, [lambda a: a.li(8, start)])


@pytest.mark.parametrize("rl,wl", LATENCIES)
@pytest.mark.parametrize("kind,start,stride", [
    ("lw", DATA_BASE, 2), ("lh", DATA_BASE, 1), ("sw", DATA_BASE, 2),
    ("lw", DEFAULT_MEM_SIZE - 4, 4), ("sw", DEFAULT_MEM_SIZE - 4, 4),
], ids=["misaligned-lw", "misaligned-lh", "misaligned-sw", "unmapped-load",
        "unmapped-store"])
def test_fault_inside_a_block(kind, start, stride, rl, wl):
    code, loop = _access(kind, start, stride)
    m, stats = twins(lambda m: m.load_image(code, 0), rl, wl, budget=10_000)
    assert _translated(m, loop)
    assert (stats.stop_reason, stats.trap_pc) == ("trap", loop + 4)
    assert m.regs.x[5] == 3  # the prefix before the access retired


def _steps(load, rl, wl, **run):
    """The (pc, cycle) at which each step of a reference run of the
    machine that `load` sets up starts, then those at which it ends."""
    steps = []

    class Recording(ReferenceCpu):
        def step(self):
            steps.append((self.m.pc, self.m.cycle))
            return super().step()

    m = make_machine(read_latency=rl, write_latency=wl)
    load(m)
    Recording(m).run(**run)
    return steps + [(m.pc, m.cycle)]


def _inner_loop_block(rl, wl):
    """A two-word BA montmul with the interrupt harness, the pc of its
    `mm_addb` loop and the cycle at which that block starts for the third
    time.  The loop runs twice per addition: its first pass falls in from
    the block before it, its second is a block of its own."""
    guest = build_guest("montmul_once", "BA", {
        "modulus": (1 << 64) - 59, "words": 2, "a": 0x123456789ABCDEF,
        "b": 0xFEDCBA987654321, "irq": True})
    lines = guest.listing.splitlines()
    pc = int(lines[lines.index("mm_addb:") + 1][:8], 16)
    starts = [cycle for at, cycle in _steps(guest.load, rl, wl,
                                             budget=guest.budget_hint)
              if at == pc]
    return guest, pc, starts[5]


FENCE = 0x0FF0000F  # fence iorw, iorw, which the assembler does not emit

# case -> (the emitter of the instruction that closes the block at
# "block", the stop of a budget run that retires that instruction).  The
# "mret" case's block is the handler's "tail", which `mret` closes.
_CLOSING = {
    "csrrs-mcycle": (lambda a: a.csrrs(6, MCYCLE, 0), "budget"),
    "csrrwi-mstatus": (lambda a: a.csrrwi(0, MSTATUS, 8), "budget"),
    "csrrw-unimplemented": (lambda a: a.csrrw(0, 0x123, 7), "trap"),
    "ecall": (lambda a: a.ecall(), "halt"),
    "ebreak": (lambda a: a.ebreak(), "trap"),
    "mret": (lambda a: a.nop(), "budget"),
    "fence": (lambda a: a._emit(FENCE, "fence"), "budget"),
}


def _closing_block(case, rl, wl):
    """A program with an interrupt handler, whose last block "tail" is
    addi, lw, sw and `mret`, and whose main block "block" is li x10, 5,
    addi, lw and sw, closed by the case's instruction at "last".  Returns
    its loader, the pc of the case's block, the interrupts to run it with
    (for "mret" one at the start of "block", which enters the handler),
    the pc its last instruction leaves for, and the cycles at which the
    block starts, its last instruction starts, and it ends."""
    a = Asm(base=0)
    a.j("start")
    a.label("handler")
    a.csrrs(13, MCYCLE, 0)
    a.addi(12, 0, 1)
    a.slli(12, 12, 11)
    a.csrrc(0, MIP, 12)  # acknowledge the line
    a.label("tail")
    a.addi(11, 11, 1)
    a.lw(8, 9, 0)
    a.sw(11, 9, 8)
    a.label("mret")
    a.mret()
    a.label("start")
    a.li(5, a.labels["handler"])
    a.csrrw(0, MTVEC, 5)
    a.li(9, DATA_BASE)
    a.addi(5, 0, 1)
    a.slli(5, 5, 11)
    a.csrrw(0, MIE, 5)
    if case != "csrrwi-mstatus":  # whose own block enables the interrupt
        a.csrrwi(0, MSTATUS, 8)
    a.label("block")
    a.li(10, 5)
    a.addi(7, 7, 1)
    a.lw(8, 9, 0)
    a.sw(7, 9, 4)
    a.label("last")
    _CLOSING[case][0](a)
    a.li(10, 0)
    a.ecall()
    code, labels = a.assemble(), a.labels

    def load(m):
        m.load_image(code, 0)

    pc, last, irq = labels["block"], labels["last"], []
    if case == "mret":
        pc, last = labels["tail"], labels["mret"]
        irq = [next(c for at, c in _steps(load, rl, wl, budget=10_000)
                    if at == labels["block"])]
    steps = _steps(load, rl, wl, budget=10_000, irq_schedule=irq)
    i = next(i for i, (at, _) in enumerate(steps) if at == pc)
    j = next(j for j in range(i, len(steps)) if steps[j][0] == last)
    return load, pc, last, irq, steps[j + 1][0], \
        (steps[i][1], steps[j][1], steps[j + 1][1])


@pytest.mark.parametrize("case,rl,wl", [
    *(pytest.param("mm_addb", rl, wl, id=f"{rl}-{wl}")
      for rl, wl in LATENCIES),
    *(pytest.param(case, rl, wl, id=f"{case}-{rl}-{wl}")
      for case in _CLOSING for rl, wl in LATENCIES)])
def test_budget_and_interrupt_at_every_cycle_of_a_block(case, rl, wl):
    """A run stops, or takes its interrupt, at the first instruction
    boundary at or past the wake, also inside a translated block: the
    `mm_addb` loop block, and straight runs of ALU, load and store units
    that each CSR or system kind closes.  Such an instruction acts once
    those before it retire: `mcycle` reads its start cycle, a fault or
    `ebreak` traps at it after the store before it, `ecall` halts with
    the exit code set before it, and a line held pending through the
    block is entered right after `csrrwi mstatus` or `mret` enables it."""
    if case == "mm_addb":
        guest, pc, start = _inner_loop_block(rl, wl)
        load, last_pc, irq, stop = guest.load, None, [], "budget"
        # 12 instructions, 2 loads and 1 store
        end = last = start + 12 * rl + 2 * (rl - 1) + (wl - 1)
    else:
        load, pc, last_pc, irq, resume, (start, last, end) = \
            _closing_block(case, rl, wl)
        stop = _CLOSING[case][1]
    for at in range(start - 1, end + 2):
        m, stats = twins(load, rl, wl, budget=at, irq_schedule=irq)
        ran = at > last  # the block's last instruction started before it
        assert stats.stop_reason == (stop if ran else "budget")
        if stats.stop_reason == "budget":
            assert stats.total_cycles >= at
        if case == "mm_addb":
            assert _translated(m, pc)
        elif ran:
            assert m.mem.read(DATA_BASE + 4 if case != "mret" else
                              DATA_BASE + 8, 4) == 1  # the store retired
            if stop == "trap":
                assert stats.trap_pc == last_pc
            if case == "csrrs-mcycle":
                assert m.regs.x[6] == last
            if case == "ecall":
                assert (m.pc, stats.exit_code) == (resume, 5)
        m, stats = twins(load, rl, wl, budget=at + 400,
                         irq_schedule=[*irq, at])
        assert _translated(m, pc)
        latencies = stats.interrupt_latencies[len(irq):]
        if case == "mm_addb":
            assert [a for a, _ in latencies] == [at]
        elif case == "csrrwi-mstatus" and at <= end \
                or case == "mret" and start <= at <= end:
            assert latencies == [(at, end + TRAP_ENTRY_CYCLES)]
            assert m.csr[MEPC] == resume


@pytest.mark.parametrize("rl,wl", LATENCIES)
def test_store_into_a_later_instruction_of_the_running_block(rl, wl):
    """Each pass stores x9 over the `addi x5, x5, ...` two instructions on
    in its own block, then flips x9 between the two encodings, so every
    pass runs the word its store left, never the translated one."""
    one, seventeen = encoding(lambda a: a.addi(5, 5, 1)), NEW

    def body(a):
        a.li(8, a.pc)        # x8 = this instruction's address
        a.sw(9, 8, 12)       # over the addi at x8 + 12
        a.xor(9, 9, 10)
        a.addi(5, 5, 1)

    code, loop = _loop(body, [lambda a: a.li(9, seventeen),
                              lambda a: a.li(10, one ^ seventeen)])
    m, stats = twins(lambda m: m.load_image(code, 0), rl, wl, budget=10_000)
    assert stats.stop_reason == "halt"
    assert m.regs.x[5] == 17 + 1 + 17 + 1
    assert _translated(m, loop + 8)  # where each pass resumes after its store


@pytest.mark.parametrize("wrap", ["subclass", "patched"])
def test_wrapped_step_sees_every_instruction(wrap, monkeypatch):
    """A `step` that is overridden or wrapped forces the per-step path."""
    calls = []
    plain = isa.Cpu.step

    def counted(cpu):
        calls.append(cpu.m.pc)
        return plain(cpu)

    if wrap == "subclass":
        core = type("Counting", (isa.Cpu,), {"step": counted})
    else:
        monkeypatch.setattr(isa.Cpu, "step", counted)
        core = isa.Cpu
    guest = build_guest("montmul_once", "BA", {
        "modulus": 0xFFFFFFFB, "words": 1, "a": 7, "b": 11, "irq": True})
    m = make_machine()
    guest.load(m)
    stats = core(m).run(budget=guest.budget_hint, irq_schedule=[700])
    assert stats.stop_reason == "halt"
    assert len(stats.interrupt_latencies) == 1
    assert len(calls) == stats.retired + len(stats.interrupt_latencies)


def test_step_and_run_share_the_block_at_a_pc(monkeypatch, unshared):
    """`Cpu.step` at the head of a straight run caches that pc's block in
    `m.mem.blocks`, and a `Cpu.run` from the same pc translates nothing
    new there."""
    def body(a):
        a.addi(5, 5, 1)
        a.addi(7, 7, 2)

    code, loop = _loop(body)
    m = make_machine()
    m.load_image(code, 0)
    cpu = isa.Cpu(m)
    while m.pc != loop:
        cpu.step()
    cpu.step()
    assert _translated(m, loop)
    translated = []
    translate = isa._translate

    def recorded(pc, *key):
        translated.append(pc)
        return translate(pc, *key)

    monkeypatch.setattr(isa, "_translate", recorded)
    m.pc = loop
    assert cpu.run(budget=10_000).stop_reason == "halt"
    assert m.regs.x[5] == PASSES + 1
    assert translated and loop not in translated  # only the code after it


def test_every_instruction_retires_through_one_block_lookup(unshared):
    """Every entry of `m.mem.blocks` holds a callable block, translated or
    an MMUL run, so the run loop looks a pc up once per block it runs: the
    CI-PE montmul's 257 MMUL issues take no second lookup in `step`, and
    each CSR or system instruction retires inside a translated block."""
    class Counting(dict):
        gets = 0

        def get(self, *key):
            self.gets += 1
            return super().get(*key)

    guest = build_guest("montmul_once", "CI-PE", {"words": 8})
    m = make_machine()
    m.mem.blocks = blocks = Counting()
    guest.load(m)
    stats = isa.Cpu(m).run(budget=guest.budget_hint)
    assert stats.stop_reason == "halt"
    assert all(callable(run) for run, _, _ in blocks.values())
    # a generated `run`, or `_mmul_run` bound to its run of units
    assert {getattr(run, "func", run).__name__
            for run, _, _ in blocks.values()} == {"run", "_mmul_run"}
    assert blocks.gets <= stats.retired
