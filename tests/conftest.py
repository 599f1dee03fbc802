import random

import pytest

from mmulrv import machine as machine_module
from mmulrv.asm import Asm
from mmulrv.guests import build_guest
from mmulrv.isa import Cpu
from mmulrv.machine import DATA_BASE, DEFAULT_MEM_SIZE, Machine, Memory
from mmulrv.perf import RunStats
from reference_core import ReferenceCpu

LATENCIES = [(1, 1), (2, 3), (3, 1)]  # (read, write) pairs of twin runs


def make_machine(read_latency=1, write_latency=1, max_words=8,
                 size=DEFAULT_MEM_SIZE):
    mem = Memory(size=size, read_latency=read_latency,
                 write_latency=write_latency)
    return Machine(memory=mem, max_words=max_words)


def machine_state(m):
    """Everything a step or a run can change, to compare twin machines."""
    stats = m.stats
    return (list(m.regs.x), m.pc, m.cycle, bytes(m.mem.data), dict(m.csr),
            m.halted, m.exit_code, m.in_handler, m.engine.status_word(),
            m.irq_pending, m.irq_assert_cycle, stats.config,
            list(stats.interrupt_latencies),
            [getattr(stats, name)
             for name in RunStats.COUNTERS + RunStats.STOP_FIELDS])


def twins(load, rl=1, wl=1, size=DEFAULT_MEM_SIZE, **run):
    """Runs the machine that `load` sets up, with `size` bytes of memory,
    on `isa.Cpu` and on `ReferenceCpu`, with `run` as the keywords of both
    runs; returns the fast core's machine and stats once both ended in
    identical state."""
    ends = []
    for core in (Cpu, ReferenceCpu):
        m = make_machine(read_latency=rl, write_latency=wl, size=size)
        load(m)
        ends.append((m, core(m).run(**run)))
    assert machine_state(ends[0][0]) == machine_state(ends[1][0])
    return ends[0]


def encoding(emit):
    """The instruction word that `emit` assembles."""
    a = Asm()
    emit(a)
    return int.from_bytes(a.assemble(), "little")


NEW = encoding(lambda a: a.addi(5, 5, 17))  # stored over addi x5, x5, 1


def write_value(machine, addr, value, words):
    machine.load_image(int(value).to_bytes(4 * words, "little"), addr)


def read_value(machine, addr, words):
    return machine.mem.read(addr, 4 * words)


def operand_block(machine, a, b, n, words, base=DATA_BASE):
    """Lay A, B, N, P consecutively; returns their addresses."""
    stride = 4 * words
    write_value(machine, base, a, words)
    write_value(machine, base + stride, b, words)
    write_value(machine, base + 2 * stride, n, words)
    return base, base + stride, base + 2 * stride, base + 3 * stride


def run_guest(guest, **run):
    """(machine, stats) of `guest` run on a fresh machine: `run` holds the
    keywords of `GuestProgram.run`."""
    return guest.run(**run)


def mont_oracle(a, b, n, n_bits):
    """Independent big-integer computation of a * b * 2^(-n_bits) mod n."""
    return (a * b * pow(1 << n_bits, -1, n)) % n


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import ACCEPTANCE_LINES
    except ImportError:
        return
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def machine():
    return make_machine()


@pytest.fixture
def unshared(monkeypatch):
    """An empty process-wide table of shared blocks for the test: its
    machines make every block themselves, whatever ran before it."""
    monkeypatch.setattr(machine_module, "_shared", {})
    return machine_module._shared


__all__ = ["LATENCIES", "NEW", "build_guest", "encoding", "machine_state",
           "make_machine", "mont_oracle", "operand_block", "read_value",
           "run_guest", "twins", "write_value"]
