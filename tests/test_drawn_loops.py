"""Drawn counted loops against the reference stepper.

A hypothesis strategy builds, with `Asm`, programs that always terminate:
counted loops of 3-12 instructions whose last one branches back to the
loop's own first, so each is one block that iterates, with the counter in
a drawn register.  Loop bodies mix ALU units with loads and stores of
every width through two pointer registers that walk a data window, often
the same access on both sides of a move of its pointer.  A pointer may be
placed so that its walk first runs off the top of memory at a drawn pass
k > 0, or given a stride that misaligns it from the second pass on.  A
body may also store, with `sw` or `sb`, over an `addi` of its own loop at
a drawn pass k > 0 (its address lies in free memory on every other pass;
these 6-7 instructions come on top of the 12), so the passes after it run
the rewritten word.

Each program runs through `conftest.twins` (`isa.Cpu` and
`reference_core.ReferenceCpu` on twin machines must end in identical state)
at read and write latencies drawn from 1..3, with a power-of-two or another
memory size, with or without an interrupt handler: to its halt or fault,
then under drawn interrupt schedules and budgets.  `Cpu.step`, which runs
the first instruction of each block alone, must also step it to the state
`Cpu.run` ends in.
"""

from contextlib import suppress

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import machine_state, make_machine, twins
from mmulrv import isa
from mmulrv.asm import Asm
from mmulrv.errors import SimError
from mmulrv.machine import (DATA_BASE, DEFAULT_MEM_SIZE, MEI_BIT, MIE, MIP,
                            MSCRATCH, MSTATUS, MTVEC)
from reference_core import ReferenceCpu

WINDOW = DATA_BASE + 0x100  # in-bounds walks start here
DATA = bytes(range(7, 256, 3)) * 8  # loaded at DATA_BASE
SIZES = (DEFAULT_MEM_SIZE, DEFAULT_MEM_SIZE - 0x8000)  # 2^17, and not 2^k
ALU = ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or_",
       "and_")
ALU_IMM = ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli",
           "srai")
LOADS = {1: ("lb", "lbu"), 2: ("lh", "lhu"), 4: ("lw",)}  # by width
STORES = {1: "sb", 2: "sh", 4: "sw"}
WIDTH = {kind: n for n, kinds in LOADS.items() for kind in kinds} | {
    kind: n for n, kind in STORES.items()}
BUDGET = 200_000  # far beyond any drawn program's length


@st.composite
def loops(draw, pointers, data_regs):
    """One counted loop: (passes, branch kind, first counter value, body,
    each pointer's start: "window", "top" or "misaligned", and each
    pointer's pass k > 0 at which a "top" walk first leaves memory)."""
    regs = data_regs + pointers
    passes = draw(st.integers(1, 8), label="passes")
    branch = draw(st.sampled_from(("bne", "blt", "bltu")), label="branch")
    first = draw(st.integers(0, 7), label="first")
    starts = {p: draw(st.sampled_from(("window", "top", "misaligned")),
                      label="start") for p in pointers}
    # the loop's accesses share one or two (pointer, offset, width)
    # triples, as real ones do, and one may repeat after its pointer moves
    accesses = draw(st.lists(st.tuples(
        st.sampled_from(pointers), st.sampled_from((0, 4, -4, 8, 2, 1)),
        st.sampled_from((1, 2, 4))), min_size=1, max_size=2), label="accesses")

    def access(ptr, off, width):
        if draw(st.booleans(), label="load"):
            return (draw(st.sampled_from(LOADS[width])),
                    draw(st.sampled_from((0,) + data_regs)), ptr, off)
        return STORES[width], draw(st.sampled_from((0,) + regs)), ptr, off

    def advance(ptr):
        return "addi", ptr, ptr, draw(st.sampled_from(
            (1, 2, 3, 6) if starts[ptr] == "misaligned" else (4, 8, 16)))

    body, units = [], draw(st.integers(1, 8), label="body units")
    while len(body) < units:
        what = draw(st.sampled_from(("alu", "alui", "access", "access",
                                     "advance", "step", "mark")))
        ptr, off, width = key = draw(st.sampled_from(accesses))
        if what == "alu":
            body.append((draw(st.sampled_from(ALU)),
                         draw(st.sampled_from((0,) + data_regs)),
                         draw(st.sampled_from((0,) + regs)),
                         draw(st.sampled_from(regs))))
        elif what == "alui":
            kind = draw(st.sampled_from(ALU_IMM))
            shift = kind in ("slli", "srli", "srai")
            body.append((kind, draw(st.sampled_from(data_regs)),
                         draw(st.sampled_from((0,) + regs)),
                         draw(st.integers(0, 31) if shift
                              else st.integers(-2048, 2047))))
        elif what == "access":
            body.append(access(*key))
        elif what == "advance":
            body.append(advance(ptr))
        elif what == "step":  # the same access on both sides of a move
            body += [access(*key), advance(ptr), access(*key)]
        else:
            body.append(("mark",))
    if passes > 1 and draw(st.booleans(), label="store into code"):
        if ("mark",) not in body:
            body.insert(draw(st.integers(0, len(body))), ("mark",))
        body.insert(draw(st.integers(0, len(body))),
                    ("code", draw(st.sampled_from(("sw", "sb"))),
                     draw(st.integers(1, passes - 1), label="k")))
    late = {p: draw(st.integers(1, max(passes - 1, 1)), label="k")
            for p in pointers}
    return passes, branch, first, body, starts, late


def _start(start, k, body, ptr, size):
    """Where `ptr` starts: in the window, or so that its walk first runs off
    the top of memory at pass k."""
    advance = reach = 0
    for op in body:
        if op[0] == "addi" and op[1] == op[2] == ptr:
            advance += op[3]
        elif op[0] in WIDTH and op[2] == ptr:
            reach = max(reach, advance + op[3] + WIDTH[op[0]])
    if start == "top" and advance > 0 and reach:
        return size - reach - k * advance + 4 & ~3
    return WINDOW + 0x40 * ptr


@st.composite
def programs(draw):
    """(code, memory size, the pc of each loop) of a drawn program: the
    data registers set from drawn values, 1-2 counted loops, then a halt.  With
    the interrupt harness, an enabled interrupt enters a handler that
    acknowledges the line and returns, and saves the one register it uses
    in mscratch."""
    roles = draw(st.permutations(range(1, 16)), label="registers")
    counter, bound, value, temp, target = roles[:5]
    pointers, data_regs = tuple(roles[5:7]), tuple(roles[7:])
    mark = data_regs[0]
    shapes = draw(st.lists(loops(pointers, data_regs), min_size=1,
                           max_size=2), label="loops")
    harness = draw(st.booleans(), label="harness")
    size = draw(st.sampled_from(SIZES), label="memory size")
    inits = draw(st.lists(st.one_of(st.integers(-2048, 2047),
                                    st.integers(0, 0xFFFFFFFF)),
                          min_size=len(data_regs), max_size=len(data_regs)),
                 label="register values")
    rewrite = Asm()
    rewrite.addi(mark, mark, draw(st.integers(-2048, 2047), label="imm"))
    rewritten = int.from_bytes(rewrite.assemble(), "little")

    def emit(marks):
        """The program, with marks[i] the address of loop i's first mark
        (each `li` of one is a single unit, so two passes agree)."""
        a = Asm(base=0)
        if harness:
            a.j("start")
            a.label("handler")
            a.csrrw(5, MSCRATCH, 5)
            a.li(5, MEI_BIT)
            a.csrrc(0, MIP, 5)
            a.csrrw(5, MSCRATCH, 5)
            a.mret()
            a.label("start")
            a.li(5, a.labels["handler"])
            a.csrrw(0, MTVEC, 5)
            a.li(5, MEI_BIT)
            a.csrrw(0, MIE, 5)
            a.csrrwi(0, MSTATUS, 8)
        for reg, init in zip(data_regs, inits):
            a.li(reg, init)
        for i, (passes, branch, first, body, starts, late) in \
                enumerate(shapes):
            for ptr in pointers:
                a.li(ptr, _start(starts[ptr], late[ptr], body, ptr, size))
            down = branch == "bne"  # count down to 0, else up to `bound`
            a.li(counter, passes if down else first)
            a.li(bound, first + passes)
            a.li(target, marks.get(i, 0))
            a.label(f"loop{i}")
            for op in body:
                if op == ("mark",):
                    if f"mark{i}" not in a.labels:
                        a.label(f"mark{i}")
                    a.addi(mark, mark, 1)
                elif op[0] == "code":  # the mark's address at pass k only
                    kind, k = op[1:]
                    a.li(temp, passes - k if down else first + k)
                    a.xor(temp, temp, counter)
                    a.slli(temp, temp, 12)
                    a.add(temp, temp, target)
                    if kind == "sw":
                        a.li(value, rewritten)
                        a.sw(value, temp, 0)
                    else:  # the top byte, imm[11:4] of the addi
                        a.li(value, rewritten >> 24)
                        a.sb(value, temp, 3)
                else:
                    getattr(a, op[0])(*op[1:])
            a.addi(counter, counter, -1 if down else 1)
            a.label(f"back{i}")
            if down:
                a.bne(counter, 0, f"loop{i}")
            else:
                getattr(a, branch)(counter, bound, f"loop{i}")
        a.li(10, 0)
        a.ecall()
        return a

    marks = emit({}).labels
    a = emit({i: marks[f"mark{i}"] for i in range(len(shapes))
              if f"mark{i}" in marks})
    return a.assemble(), size, [(a.labels[f"loop{i}"], a.labels[f"back{i}"])
                                for i in range(len(shapes))]


def _load(code):
    def load(m):
        m.load_image(code, 0)
        m.load_image(DATA, DATA_BASE)
    return load


def _retired(code, size, rl=1, wl=1):
    """The machine and stats of `ReferenceCpu` run to its halt or first
    fault, and the (cycle, pc) at which each instruction it retired
    started."""
    starts = []

    class Recording(ReferenceCpu):
        def step(self):
            starts.append((self.m.cycle, self.m.pc))
            return super().step()

    m = make_machine(read_latency=rl, write_latency=wl, size=size)
    _load(code)(m)
    return m, Recording(m).run(budget=BUDGET), starts


def _stepped(code, rl, wl, size):
    """The state of a machine that `Cpu.step` steps until it halts or
    faults, with the stop fields and counters that `Cpu.run` sets."""
    m = make_machine(read_latency=rl, write_latency=wl, size=size)
    _load(code)(m)
    cpu, stats = isa.Cpu(m), m.stats
    try:
        while not m.halted and m.cycle < BUDGET:
            cpu.step()
        stats.stop_reason = "halt" if m.halted else "budget"
    except SimError as exc:
        stats.stop_reason = "trap"
        stats.trap_cause = f"{type(exc).__name__}: {exc}"
        stats.trap_pc = m.pc
        with suppress(SimError):
            stats.trap_insn = m.mem.fetch_unit(m.pc)
    stats.total_cycles = m.cycle
    stats.exit_code = m.exit_code
    return machine_state(m)


LATENCY = st.integers(1, 3)


@given(program=programs(), rl=LATENCY, wl=LATENCY, data=st.data())
@settings(max_examples=100, deadline=None)
def test_drawn_loops_match_reference(program, rl, wl, data):
    """To the halt or first fault; three times more under 0-3 interrupts
    and a budget, each drawn from any cycle of the program, the cycles at
    which its instructions start, and those at which a branch back to its
    loop starts (where a loop block stops iterating); and stepped to the
    state the first run ends in."""
    code, size, loops_at = program
    load = _load(code)
    m, stats = twins(load, rl, wl, size=size, budget=BUDGET)
    assert stats.stop_reason in ("halt", "trap")
    starts = _retired(code, size, rl, wl)[2]
    backs = [cycle for cycle, pc in starts if pc in dict(loops_at).values()]
    wakes = st.one_of(st.integers(0, stats.total_cycles + 1),
                      st.sampled_from([cycle for cycle, _ in starts]),
                      st.sampled_from(backs or [0]))
    for _ in range(3):
        twins(load, rl, wl, size=size, budget=data.draw(wakes, label="budget"),
              irq_schedule=data.draw(st.lists(wakes, max_size=3),
                                     label="schedule"))
    assert _stepped(code, rl, wl, size) == machine_state(m)


def test_the_generator_draws_every_shape():
    """Among its examples the strategy draws a loop that runs as one block,
    a fault at a later pass of a loop, and a store into the code of a
    running loop that the loop survives."""
    found = set()

    @given(program=programs())
    @settings(max_examples=100, deadline=None, database=None,
              derandomize=True)
    def census(program):
        code, size, loops_at = program
        m = make_machine(size=size)
        _load(code)(m)
        isa.Cpu(m).run(budget=BUDGET)
        blocks = m.mem.blocks
        if any(pc in blocks and blocks[pc][2] > pc + 4 for pc, _ in loops_at):
            found.add("loop block")
        m, stats, starts = _retired(code, size)
        pcs = [pc for _, pc in starts]  # the faulting one's last
        if stats.stop_reason == "trap" and pcs.count(stats.trap_pc) > 1:
            found.add("late fault")
        if stats.stop_reason == "halt" and bytes(
                m.mem.data[:len(code)]) != code:
            found.add("code store")
    census()
    assert found == {"loop block", "late fault", "code store"}
