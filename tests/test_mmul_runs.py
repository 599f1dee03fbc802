"""Runs of consecutive `MMUL` units against the reference stepper.

`mmulrv.isa.Cpu` binds one block over a straight run of `MMUL` units, and
that block retires in one call the middle issues of a partial sequence that
start before the wake.  `reference_core.ReferenceCpu` steps every issue
through `execute_partial_call` on a twin machine, and both must end in
identical state: runs shorter than, equal to and longer than the latched
sequence, a run broken by another unit or by a mode write, atomic issues,
an interrupt, a budget or a handler's `MMUL` at every cycle, and a resume
after a budget stop at every cycle, at three memory latency pairs.  A
hypothesis test draws programs of unrolled runs, counted loops of one
`MMUL`, other units and mode writes, with or without the interrupt
harness, under drawn interrupt schedules and budgets.

The fast core must also call the engine only for the issues that are not
middle ones (a first, a last or an atomic issue), so that every middle
issue outside a handler retired through the run's bulk path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LATENCIES, machine_state, make_machine, mont_oracle, \
    twins
from mmulrv import isa
from mmulrv.asm import Asm
from mmulrv.machine import DATA_BASE, MEI_BIT, MIE, MIP, MMUL_MODE, MSTATUS, \
    MTVEC
from reference_core import ReferenceCpu

MODULUS = {1: 0xFFFFFFFB, 2: (1 << 64) - 59}  # by operand words
A, B = 0x12345678, 0x9ABCDEF1
RESULT = DATA_BASE + 0x100


def _program(words, shape, harness=False, handler_mmul=False):
    """Operands at DATA_BASE, x10..x13 their pointers and the result's,
    partial mode, then `shape`: ("mmul", n) is a run of n units, ("loop",
    n) n passes of a loop of one unit counted down in x14, ("addi",) one
    other unit between runs, ("mode", bit) a csrrwi of MMUL_MODE.  With
    `harness`, an enabled interrupt enters a handler that acknowledges the
    line (after one MMUL of its own with `handler_mmul`) and returns."""
    a = Asm(base=0)
    for reg, addr in zip((10, 11, 12, 13), (0, 4 * words, 8 * words,
                                            RESULT - DATA_BASE)):
        a.li(reg, DATA_BASE + addr)
    if harness:
        a.j("start")
        a.label("handler")
        if handler_mmul:
            a.mmul(13, 10, 11, 12, words)
        a.addi(9, 9, 1)
        a.csrrc(0, MIP, 7)
        a.mret()
        a.label("start")
        a.li(5, a.labels["handler"])
        a.csrrw(0, MTVEC, 5)
        a.li(7, MEI_BIT)
        a.csrrw(0, MIE, 7)
        a.csrrwi(0, MSTATUS, 8)
    a.csrrwi(0, MMUL_MODE, 1)
    for i, step in enumerate(shape):
        if step[0] == "mmul":
            for _ in range(step[1]):
                a.mmul(13, 10, 11, 12, words)
        elif step[0] == "loop":
            a.li(14, step[1])
            a.label(f"loop{i}")
            a.mmul(13, 10, 11, 12, words)
            a.addi(14, 14, -1)
            a.bne(14, 0, f"loop{i}")
        elif step[0] == "addi":
            a.addi(6, 6, 1)
        else:
            a.csrrwi(0, MMUL_MODE, step[1])
    a.li(10, 0)
    a.ecall()
    n = MODULUS[words]
    data = b"".join(v.to_bytes(4 * words, "little") for v in (A, B, n))
    return a.assemble(), data, n


def _counted(m, calls):
    """Record the kind of each of `m`'s engine calls in `calls`."""
    engine = m.engine
    for name in ("execute_partial_call", "execute_atomic"):
        method = getattr(engine, name)

        def counted(machine, ops, method=method):
            result = method(machine, ops)
            calls.append(getattr(result, "call_kind", "atomic"))
            return result
        setattr(engine, name, counted)


def _twins(code, data, rl, wl, **run):
    """Runs the program on both cores; returns the fast core's machine and
    stats once both ended in identical state, and the fast core called the
    engine for exactly the issues that are not middle ones."""
    calls = []  # the fast core's, then the reference core's

    def load(m):
        m.load_image(code, 0)
        m.load_image(data, DATA_BASE)
        calls.append([])
        _counted(m, calls[-1])
    ends = twins(load, rl, wl, **run)
    assert calls[0] == [kind for kind in calls[1] if kind != "middle"]
    return ends


SHAPES = {
    "shorter-broken": (1, [("mmul", 10), ("addi",), ("mmul", 22)], 1),
    "equal": (1, [("mmul", 32)], 1),
    "longer": (2, [("mmul", 70)], 2),
    "mode-write-between": (1, [("mmul", 12), ("mode", 0), ("mmul", 22)], 3),
    "atomic": (1, [("mode", 0), ("mmul", 3)], 3),
}


@pytest.mark.parametrize("rl,wl", LATENCIES)
@pytest.mark.parametrize("shape", SHAPES)
def test_mmul_run_matches_reference(shape, rl, wl):
    """Each shape halts with the product of its last whole multiplication:
    the `longer` run starts a second sequence it never finishes, and the
    mode write changes nothing until the sequence in flight retires, after
    which each issue in mode 0 is atomic."""
    words, steps, multiplications = SHAPES[shape]
    code, data, n = _program(words, steps)
    m, stats = _twins(code, data, rl, wl, budget=100_000)
    assert stats.stop_reason == "halt"
    assert stats.mmul_invocations == multiplications
    assert m.mem.read(RESULT, 4 * words) == mont_oracle(A, B, n, 32 * words)
    assert m.engine.busy == (shape == "longer")


@pytest.mark.parametrize("rl,wl", LATENCIES)
@pytest.mark.parametrize("handler_mmul", [False, True],
                         ids=["handler", "handler-mmul"])
def test_interrupt_and_budget_at_every_cycle_of_a_run(handler_mmul, rl, wl):
    """A run stops, or takes its interrupt, at the first issue boundary at
    or past the wake.  A handler's MMUL while the sequence is in flight
    traps with SequenceBroken; before the run it starts the sequence."""
    code, data, _ = _program(1, [("mmul", 40)], True, handler_mmul)
    end = _twins(code, data, rl, wl, budget=100_000)[1].total_cycles
    stops, serviced = set(), 0
    for at in range(end + 2):
        stats = _twins(code, data, rl, wl, budget=at)[1]
        assert stats.total_cycles >= min(at, end)
        assert stats.stop_reason == \
            ("halt" if stats.total_cycles == end else "budget")
        stats = _twins(code, data, rl, wl, budget=100_000,
                       irq_schedule=[at])[1]
        stops.add(stats.stop_reason)
        entries = [a for a, _ in stats.interrupt_latencies]
        assert entries in ([], [at])  # none once the program halted
        serviced += len(entries)
    assert stops == ({"halt", "trap"} if handler_mmul else {"halt"})
    assert serviced > 40  # at least one per issue of the run


@pytest.mark.parametrize("rl,wl", LATENCIES)
def test_a_run_stopped_mid_sequence_resumes_on_the_same_machine(rl, wl):
    """Each core runs to a budget at every cycle of a 40-unit run, then
    again to halt on the same machine: both stop alike and end as one
    uninterrupted run, with the product stored.  The latched operands and
    the bit index alone carry the sequence across runs."""
    code, data, n = _program(1, [("mmul", 40)])
    end = _twins(code, data, rl, wl, budget=100_000)[1].total_cycles
    for at in range(end + 2):
        ends = []
        for core in (isa.Cpu, ReferenceCpu):
            m = make_machine(read_latency=rl, write_latency=wl)
            m.load_image(code, 0)
            m.load_image(data, DATA_BASE)
            cpu = core(m)
            cpu.run(budget=at)
            stopped = machine_state(m)
            stats = cpu.run(budget=100_000)
            assert (stats.stop_reason, stats.total_cycles) == ("halt", end)
            assert m.mem.read(RESULT, 4) == mont_oracle(A, B, n, 32)
            ends.append((stopped, machine_state(m)))
        assert ends[0] == ends[1]


SEGMENTS = st.one_of(
    st.tuples(st.sampled_from(("mmul", "loop")), st.integers(1, 70)),
    st.just(("addi",)),
    st.tuples(st.just("mode"), st.integers(0, 1)))


@given(words=st.integers(1, 2), shape=st.lists(SEGMENTS, min_size=1,
                                               max_size=4),
       harness=st.sampled_from(((False, False), (True, False), (True, True))),
       latencies=st.sampled_from(LATENCIES), data=st.data())
@settings(max_examples=150, deadline=None)
def test_drawn_programs_match_reference(words, shape, harness, latencies,
                                        data):
    """Drawn runs, loops, other units and mode writes, with or without the
    interrupt harness and a handler's MMUL, under 0-3 interrupts and an
    optional budget within the program's length."""
    code, data_bytes, _ = _program(words, shape, *harness)
    end = _twins(code, data_bytes, *latencies,
                 budget=100_000)[1].total_cycles
    cycles = st.integers(0, end)
    schedule = data.draw(st.lists(cycles, max_size=3), label="schedule")
    budget = data.draw(st.one_of(st.just(100_000), cycles), label="budget")
    _twins(code, data_bytes, *latencies, budget=budget,
           irq_schedule=schedule)


def test_first_visit_of_a_run_makes_every_later_entry(unshared):
    """The first visit of a run of MMUL units makes the entry of every unit
    after it in the same scan, so a first visit at a later issue, such as
    a resume after an interrupt, fetches nothing."""
    code, data, _ = _program(1, [("mmul", 40)])
    m = make_machine()
    m.load_image(code, 0)
    m.load_image(data, DATA_BASE)
    start = next(pc for pc in range(0, len(code), 4) if isa.decode(
        int.from_bytes(code[pc:pc + 4], "little")).kind == "mmul")
    mem, fetched = m.mem, []
    fetch_unit = mem.fetch_unit
    mem.fetch_unit = lambda addr: fetched.append(addr) or fetch_unit(addr)
    isa._block_at(mem, start)
    assert len(fetched) == 41  # the 40 units and the one that ends the run
    fetched.clear()
    for at in range(start + 4, start + 160, 4):
        mem.blocks.get(at) or isa._block_at(mem, at)
    assert fetched == []
