"""`mmulrv.isa.Cpu` against `reference_core.ReferenceCpu`, on twin machines
that must end in identical state, reports and faults:

- the table executor against the chain executor, stepping the same
  decode-valid units;
- the run loop, which checks interrupts, halt and budget only at wake
  cycles, against the loop that checks them before every step, on random
  programs and on real guests under interrupt schedules and budgets.

Units are drawn by kind, so every kind is reached; register values point
both into mapped data (aligned or not) and at unmapped addresses, so loads,
stores and MMUL both retire and fault.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_guest, machine_state, make_machine, twins
from mmulrv import isa
from mmulrv.engine import MmulOperands
from mmulrv.errors import IllegalInstruction, SimError
from mmulrv.machine import (DATA_BASE, DEFAULT_MEM_SIZE, M32, MCAUSE, MCYCLE,
                            MEI_BIT, MEPC, MIE, MIP, MMUL_MODE, MMUL_STATUS,
                            MSCRATCH, MSTATUS, MSTATUS_MIE, MTVEC)
from reference_core import ReferenceCpu

CSRS = (MSTATUS, MIE, MTVEC, MSCRATCH, MEPC, MCAUSE, MIP, MMUL_MODE,
        MMUL_STATUS, MCYCLE, 0x123)
WINDOW = DATA_BASE + 0x4000  # pointer registers aim at these 256 bytes
WINDOW_BYTES = 256
DATA = WINDOW - 0x800  # random bytes around them, within a 12-bit offset
DATA_BYTES = WINDOW_BYTES + 0x1000
# operand bits of a 32-bit word: all but the opcode, funct3, and bit 4 of
# rd and rs1 (RV32E has 16 registers)
OPERANDS = 0xFFFF8F80 & ~(1 << 11) & ~(1 << 19)
REGISTERS = (0xF << 7) | (0xF << 15) | (0xF << 20)


def _units_by_kind():
    """kind -> (16-bit units, 32-bit units): every decode-valid halfword,
    and one word per opcode/funct3/funct7 with zero operands."""
    decode = isa.decode.__wrapped__  # leave the shared cache alone
    words = [op | f3 << 12 | f7 << 25 for op in range(3, 128, 4)
             for f3 in range(8) for f7 in (0, 0x20)]
    words += [0x00000073, 0x00100073, 0x30200073]  # ecall, ebreak, mret
    units = {}
    for unit in [h for h in range(1 << 16) if h & 3 != 3] + words:
        try:
            kind = decode(unit).kind
        except IllegalInstruction:
            continue
        units.setdefault(kind, ([], []))[unit & 3 == 3].append(unit)
    return units


UNITS = _units_by_kind()
KINDS = sorted(UNITS)


def _unit(rng, kind):
    """A decode-valid fetch unit of `kind` with random operands."""
    halves, words = UNITS[kind]
    if halves and (not words or rng.random() < 0.4):
        return rng.choice(halves)
    word = rng.choice(words)
    spread = rng.getrandbits(32)
    for candidate in (word ^ (spread & OPERANDS), word ^ (spread & REGISTERS)):
        if kind.startswith("csr"):
            candidate = (candidate & 0xFFFFF) | rng.choice(CSRS) << 20
        try:
            if isa.decode(candidate).kind == kind:
                return candidate
        except IllegalInstruction:
            pass
    return word


def _aligned(rng):
    return WINDOW + 4 * rng.randrange(WINDOW_BYTES // 4)


def _register(rng):
    pick = rng.randrange(5)
    if pick == 0:
        return _aligned(rng)
    if pick == 1:  # into the data window, any byte
        return WINDOW + rng.randrange(WINDOW_BYTES)
    if pick == 2:  # unmapped, or wrapping below address 0
        return rng.choice((DEFAULT_MEM_SIZE, M32 - 3, 0x80000000))
    if pick == 3:  # small: shift amounts, x0-like values, code addresses
        return rng.randrange(32)
    return rng.getrandbits(32)


def _twins(rng, first_kind=None):
    """Two identical machines with a short program at pc, one per core."""
    program = [_unit(rng, first_kind or rng.choice(KINDS))]
    program += [_unit(rng, rng.choice(KINDS)) for _ in range(rng.randrange(4))]
    latencies = rng.choice(((1, 1), (2, 1), (3, 2)))
    data = random.Random(rng.getrandbits(64)).randbytes(DATA_BYTES)
    latched = None
    # MMUL retires only with four aligned operands and an odd modulus
    if rng.random() < 0.3:
        regs = [_aligned(rng) for _ in range(16)]
        data = bytes(b | 1 for b in data)
        if rng.random() < 0.5:  # a partial sequence is already in flight
            latched = MmulOperands(*(_aligned(rng) for _ in range(4)),
                                   rng.randint(1, 8))
    else:
        regs = [_register(rng) for _ in range(16)]
    pc = 2 * rng.randrange(0x800)
    partial, in_handler = rng.random() < 0.3, rng.random() < 0.2
    cores = []
    for core in (isa.Cpu, ReferenceCpu):
        m = make_machine(*latencies)
        m.load_image(data, DATA)
        addr = pc
        for unit in program:
            length = 4 if unit & 3 == 3 else 2
            m.load_image(unit.to_bytes(length, "little"), addr)
            addr += length
        for idx, value in enumerate(regs):
            m.regs.write(idx, value)
        m.csr[MMUL_MODE] = int(partial)
        if latched:
            m.engine.execute_partial_call(m, latched)
        m.in_handler = in_handler
        m.pc = pc
        cores.append(core(m))
    return cores, len(program)


def _step(cpu):
    try:
        report = cpu.step()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return report.retired, report.cycles


def _check(rng, first_kind=None):
    """Steps both cores until a fault or a halt; returns {kind: outcomes}
    with outcome "retired" or "fault" per attempted unit."""
    (fast, ref), steps = _twins(rng, first_kind)
    seen = {}
    for _ in range(steps + 1):
        try:
            kind = isa.decode(fast.m.mem.fetch_unit(fast.m.pc)).kind
        except SimError:  # the step below faults the same way
            kind = None
        outcome = _step(fast)
        assert outcome == _step(ref), kind
        assert machine_state(fast.m) == machine_state(ref.m), kind
        faulted = isinstance(outcome[0], type)
        seen.setdefault(kind, set()).add("fault" if faulted else "retired")
        if faulted or fast.m.halted:
            break
    return seen


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_table_executor_matches_reference(rng):
    _check(rng)


def test_every_table_kind_retires_and_matches():
    """Every kind the decoder yields is stepped on both cores; each
    retires at least once, and loads, stores and MMUL also fault."""
    rng = random.Random(0x5EED)
    seen = Counter()
    for kind in KINDS:
        for _ in range(40):
            for k, outcomes in _check(rng, kind).items():
                seen.update((k, o) for o in outcomes)
    never_retired = {k for k in KINDS if not seen[k, "retired"]}
    assert never_retired == {"ebreak"}  # ebreak always traps
    assert all(seen[k, "fault"] for k in ("lw", "lh", "lhu", "sw", "sh",
                                          "mmul", "csrrw", "ebreak"))


def _run_twins(cores, budget, schedule):
    """Runs both cores to a stop; their machines must end identical."""
    fast, ref = (core.run(budget=budget, irq_schedule=schedule)
                 for core in cores)
    assert (fast.stop_reason, fast.trap_cause) == \
        (ref.stop_reason, ref.trap_cause)
    assert machine_state(cores[0].m) == machine_state(cores[1].m)
    return fast


def _schedule(rng, end):
    """Assert cycles in [0, end]: sometimes none, sometimes 0 or repeats."""
    cycles = [rng.randrange(end + 1) for _ in range(rng.randrange(4))]
    if rng.random() < 0.2:
        cycles.append(0)
    if cycles and rng.random() < 0.3:
        cycles.append(rng.choice(cycles))
    return cycles


@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_run_loop_matches_reference(rng):
    """Random programs, interrupts enabled or not, random schedules and
    budgets: both run loops stop at the same cycle for the same reason."""
    cores, _ = _twins(rng)
    handler = rng.choice((cores[0].m.pc, 2 * rng.randrange(0x800)))
    enabled = rng.random() < 0.7
    for core in cores:
        m = core.m
        m.csr[MTVEC] = handler
        if enabled:
            m.csr[MSTATUS] |= MSTATUS_MIE
            m.csr[MIE] = MEI_BIT
    budget = rng.choice((0, rng.randrange(1, 40), 400))  # programs may spin
    _run_twins(cores, budget, _schedule(rng, 40))


@pytest.mark.parametrize("name,config", [("irq_sweep_atomic", "CI-AE"),
                                         ("irq_sweep_partial", "CI-PE")])
def test_run_loop_matches_reference_on_irq_sweeps(name, config):
    """Whole interrupt-sweep guests under schedules that assert at cycle 0,
    twice at one cycle, and after the halt, at memory latency 1 and 2."""
    rng = random.Random(f"run-loop/{name}")
    guest = build_guest(name, config)
    budget = guest.budget_hint
    for latency in (1, 2):
        end = twins(guest.load, latency, latency, budget=budget,
                    config=guest.config)[1].total_cycles
        schedules = [[0], [end], [end + 5], [7, 7], [0, end // 2, end + 1]]
        schedules += [_schedule(rng, end + 20) for _ in range(12)]
        for schedule in schedules:
            stats = twins(guest.load, latency, latency, budget=budget,
                          irq_schedule=schedule, config=guest.config)[1]
            assert stats.stop_reason == "halt"


@pytest.mark.parametrize("config", ["BA", "CI-AE", "CI-PE"])
def test_run_loop_matches_reference_under_budgets(config):
    """montmul_once to halt, and a small field under budgets of 0, a few
    cycles, around the halt cycle and with interrupts."""
    rng = random.Random(f"run-loop/{config}")
    guest = build_guest("montmul_once", config)
    stats = twins(guest.load, config=guest.config)[1]
    assert stats.stop_reason == "halt"
    small = build_guest("montmul_once", config,
                        {"modulus": 239, "words": 1, "a": 100, "b": 55,
                         "irq": 1})
    end = twins(small.load, config=small.config)[1].total_cycles
    budgets = [0, 1, 2, 3, end - 1, end, end + 1]
    budgets += [rng.randrange(end) for _ in range(8)]
    for budget in budgets:
        for schedule in ((), _schedule(rng, end)):
            latency = rng.choice((1, 2))
            stats = twins(small.load, latency, latency, budget=budget,
                          irq_schedule=schedule, config=small.config)[1]
            assert stats.stop_reason in ("halt", "budget")
