import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_machine, twins
from mmulrv import isa
from mmulrv.asm import Asm
from mmulrv.errors import IllegalInstruction, SimError
from mmulrv.isa import Cpu, decode
from mmulrv.machine import (DEFAULT_MEM_SIZE, M32, MCYCLE, MEPC, MIE,
                            MMUL_STATUS, MSTATUS, MTVEC)


def _load(machine, blob, base=0):
    machine.load_image(blob, base)


def _cpu_with(blob, regs=None):
    m = make_machine()
    _load(m, blob)
    if regs:
        for idx, val in regs.items():
            m.regs.write(idx, val)
    return m, Cpu(m)


# -- decode vectors, frozen from a hand assembly pass ----------------------

DECODE32 = [
    (0x00500093, ("addi", 1, 0, 0, 5)),
    (0x002081B3, ("add", 3, 1, 2, 0)),
    (0x402081B3, ("sub", 3, 1, 2, 0)),
    (0x00812283, ("lw", 5, 2, 0, 8)),
    (0x00208463, ("beq", 0, 1, 2, 8)),
    (0x010000EF, ("jal", 1, 0, 0, 16)),
    (0x123452B7, ("lui", 5, 0, 0, 0x12345000)),
    (0x00008067, ("jalr", 0, 1, 0, 0)),
]


@pytest.mark.parametrize("word,expect", DECODE32)
def test_decode32_vectors(word, expect):
    kind, rd, rs1, rs2, imm = expect
    d = decode(word)
    assert (d.kind, d.rd, d.rs1, d.rs2, d.imm) == (kind, rd, rs1, rs2, imm)
    assert d.length == 4


def test_decode_store():
    d = decode(0x00512623)  # sw x5, 12(x2)
    assert (d.kind, d.rs1, d.rs2, d.imm) == ("sw", 2, 5, 12)


def test_decode_csr():
    d = decode(0x7C009073)  # csrrw x0, 0x7c0, x1
    assert (d.kind, d.rd, d.rs1, d.csr) == ("csrrw", 0, 1, 0x7C0)


def test_decode_system():
    assert decode(0x00000073).kind == "ecall"
    assert decode(0x30200073).kind == "mret"


def test_decode_mmul():
    d = decode(0x68C5B50B)
    assert (d.kind, d.rd, d.rs1, d.rs2, d.rs3, d.words) == \
        ("mmul", 10, 11, 12, 13, 4)


def test_decode_rv32e_register_limit():
    with pytest.raises(IllegalInstruction):
        decode(0x00500813)  # addi x16, x0, 5


@pytest.mark.parametrize("word", [0x00000000, 0xFFFFFFFF, 0x0000007F])
def test_decode_illegal(word):
    with pytest.raises(IllegalInstruction):
        decode(word)


COMPRESSED = [
    (0x4501, ("addi", 10, 0, 0, 0)),   # c.li a0, 0
    (0x0001, ("addi", 0, 0, 0, 0)),    # c.nop
    (0x0505, ("addi", 10, 10, 0, 1)),  # c.addi a0, 1
    (0x852E, ("add", 10, 0, 11, 0)),   # c.mv a0, a1
    (0x8082, ("jalr", 0, 1, 0, 0)),    # c.jr ra
    (0x0506, ("slli", 10, 10, 0, 1)),  # c.slli a0, 1
    (0x4188, ("lw", 10, 11, 0, 0)),    # c.lw a0, 0(a1)
    (0xC188, ("sw", 0, 11, 10, 0)),    # c.sw a0, 0(a1)
    (0xA001, ("jal", 0, 0, 0, 0)),     # c.j .
]


@pytest.mark.parametrize("half,expect", COMPRESSED)
def test_compressed_vectors(half, expect):
    kind, rd, rs1, rs2, imm = expect
    d = decode(half)
    assert (d.kind, d.rd, d.rs1, d.rs2, d.imm) == (kind, rd, rs1, rs2, imm)
    assert d.length == 2


def test_compressed_all_zero_is_illegal():
    with pytest.raises(IllegalInstruction):
        isa.expand_compressed(0)


# one unit per compressed form, each expansion written by hand from the
# RVC spec; registers start as x2 = 0x10000, x9 = 5, x10 = 7,
# x11 = 0x10040, x12 = 3, and the word at 0x10040 holds 0x1234
@pytest.mark.parametrize("half,full", [
    (0x0505, 0x00150513),  # c.addi a0,1       == addi x10, x10, 1
    (0x852E, 0x00B00533),  # c.mv a0,a1        == add x10, x0, x11
    (0x4188, 0x0005A503),  # c.lw a0,0(a1)     == lw x10, 0(x11)
    (0xC188, 0x00A5A023),  # c.sw a0,0(a1)     == sw x10, 0(x11)
    (0x0804, 0x01010493),  # c.addi4spn s1,16  == addi x9, x2, 16
    (0x2021, 0x008000EF),  # c.jal +8          == jal x1, 8
    (0x5675, 0xFFD00613),  # c.li a2,-3        == addi x12, x0, -3
    (0x713D, 0xFE010113),  # c.addi16sp -32    == addi x2, x2, -32
    (0x7681, 0xFFFE06B7),  # c.lui a3,0xfffe0  == lui x13, 0xfffe0
    (0x810D, 0x00355513),  # c.srli a0,3       == srli x10, x10, 3
    (0x8511, 0x40455513),  # c.srai a0,4       == srai x10, x10, 4
    (0x99F9, 0xFFE5F593),  # c.andi a1,-2      == andi x11, x11, -2
    (0x8D11, 0x40C50533),  # c.sub a0,a2       == sub x10, x10, x12
    (0x8D31, 0x00C54533),  # c.xor a0,a2       == xor x10, x10, x12
    (0x8D51, 0x00C56533),  # c.or a0,a2        == or x10, x10, x12
    (0x8D71, 0x00C57533),  # c.and a0,a2       == and x10, x10, x12
    (0xBFF5, 0xFFDFF06F),  # c.j -4            == jal x0, -4
    (0xC411, 0x00040663),  # c.beqz s0,+12     == beq x8, x0, 12
    (0xFCED, 0xFE049DE3),  # c.bnez s1,-6      == bne x9, x0, -6
    (0x0616, 0x00561613),  # c.slli a2,5       == slli x12, x12, 5
    (0x4686, 0x04012683),  # c.lwsp a3,64(sp)  == lw x13, 64(x2)
    (0x8582, 0x00058067),  # c.jr a1           == jalr x0, 0(x11)
    (0x9002, 0x00100073),  # c.ebreak          == ebreak
    (0x9582, 0x000580E7),  # c.jalr a1         == jalr x1, 0(x11)
    (0x9532, 0x00C50533),  # c.add a0,a2       == add x10, x10, x12
    (0xC0B2, 0x04C12023),  # c.swsp a2,64(sp)  == sw x12, 64(x2)
])
def test_compressed_executes_like_expansion(half, full):
    assert isa.expand_compressed(half) == full
    init = {2: 0x10000, 9: 5, 10: 7, 11: 0x10040, 12: 3}
    mc, cc = _cpu_with(half.to_bytes(2, "little"), init)
    mf, cf = _cpu_with(full.to_bytes(4, "little"), init)
    traps = []
    for m, cpu in ((mc, cc), (mf, cf)):
        m.store_word(0x10040, 0x1234)
        try:
            cpu.step()
        except IllegalInstruction as exc:  # c.ebreak, like ebreak
            traps.append(str(exc))
    assert len(traps) in (0, 2) and len(set(traps)) <= 1
    d = decode(full)
    expect = list(mf.regs.x)
    if d.kind in ("jal", "jalr") and d.rd:
        expect[d.rd] -= 2  # the link is the address after the 2-byte unit
    assert mc.regs.x == expect
    assert mc.pc == (2 if mf.pc == 4 else mf.pc)  # fall-through or target
    assert mc.mem.read(0x10040, 4) == mf.mem.read(0x10040, 4)


# -- assembler against decoder ---------------------------------------------

ASM_EMITTERS = sorted(
    name for name, attr in vars(Asm).items()
    if callable(attr) and not name.startswith("_")
    and name not in ("label", "assemble", "dump",  # not instructions
                     "li", "mv", "nop", "ret", "j"))  # pseudo-instructions


def _bounds(name, param):
    """The lowest and highest RV32E value of `param` of Asm.`name`."""
    if param == "imm":
        shift = name in ("slli", "srli", "srai")
        return (0, 31) if shift else (-2048, 2047)
    if param == "rs1" and name.startswith("csr") and name.endswith("i"):
        return 0, 31  # the 5-bit zimm of a CSR immediate form
    if param == "words":
        return 1, 32
    return 0, {"csr": 0xFFF, "imm20": 0xFFFFF}.get(param, 15)


def _operand(rng, name, param):
    """A random in-range RV32E operand for `param` of Asm.`name`."""
    if param == "label":
        return rng.choice(("back", "ahead"))
    return rng.randint(*_bounds(name, param))


@pytest.mark.parametrize("name", ASM_EMITTERS)
def test_assembler_matches_decoder(name):
    """Every instruction emitter, with random operands, emits a word that
    decodes to its kind and the same operands."""
    rng = random.Random(name)
    params = list(inspect.signature(getattr(Asm, name)).parameters)[1:]
    for _ in range(200):
        ops = {p: _operand(rng, name, p) for p in params}
        back, ahead = rng.randrange(64), rng.randrange(64)
        a = Asm()
        a.label("back")
        for _ in range(back):
            a.nop()
        getattr(a, name)(*ops.values())
        for _ in range(ahead):
            a.nop()
        a.label("ahead")
        word = int.from_bytes(a.assemble()[4 * back:4 * back + 4], "little")
        d = decode(word)
        assert (d.kind, d.length) == (name.rstrip("_"), 4)
        for param, value in ops.items():
            if param == "imm20":
                assert d.imm & M32 == value << 12
            elif param == "label":
                assert d.imm == (-4 * back if value == "back" else
                                 4 * (ahead + 1))
            else:
                assert getattr(d, param) == value, param


def _params(name):
    return list(inspect.signature(getattr(Asm, name)).parameters)[1:]


@pytest.mark.parametrize("name", [n for n in ASM_EMITTERS if _params(n)])
def test_assembler_refuses_out_of_range(name):
    """An operand one past either end of its field raises a SimError and
    emits nothing, where a masking encoder would truncate it."""
    low = {p: "ahead" if p == "label" else _bounds(name, p)[0]
           for p in _params(name)}
    for param in low.keys() - {"label"}:
        lo, hi = _bounds(name, param)
        for bad in (lo - 1, hi + 1):
            a = Asm()
            a.label("ahead")
            with pytest.raises(SimError):
                getattr(a, name)(**{**low, param: bad})
            assert a.words == [], (param, bad)
    high = {p: v if p == "label" else _bounds(name, p)[1]
            for p, v in low.items()}
    for ends in (low, high):  # the ends themselves are accepted
        a = Asm()
        a.label("ahead")
        getattr(a, name)(**ends)
        assert len(a.words) == 1


@given(word=st.integers(0, 0xFFFFFFFF))
@settings(max_examples=500)
def test_decode_never_crashes(word):
    try:
        d = decode(word)
    except IllegalInstruction:
        return
    assert d.kind
    assert d.length in (2, 4)


# -- timing model ----------------------------------------------------------

def test_addi_takes_one_cycle():
    m, cpu = _cpu_with((0x00500093).to_bytes(4, "little"))
    report = cpu.step()
    assert report.cycles == 1
    assert m.cycle == 1
    assert m.regs.read(1) == 5


def test_taken_branch_pays_penalty():
    m, cpu = _cpu_with((0x00208463).to_bytes(4, "little"))  # beq x1,x2,+8
    assert cpu.step().cycles == 2  # x1 == x2 == 0: taken
    assert m.pc == 8


def test_untaken_branch_is_one_cycle():
    m, cpu = _cpu_with((0x00208463).to_bytes(4, "little"), {1: 1})
    assert cpu.step().cycles == 1
    assert m.pc == 4


def test_jal_pays_penalty():
    m, cpu = _cpu_with((0x010000EF).to_bytes(4, "little"))
    assert cpu.step().cycles == 2
    assert m.pc == 16
    assert m.regs.read(1) == 4


def test_load_wait_states():
    blob = (0x00812283).to_bytes(4, "little")  # lw x5, 8(x2)
    m = make_machine(read_latency=3)
    _load(m, blob)
    cpu = Cpu(m)
    # 1 base + 2 fetch wait + 2 data wait
    assert cpu.step().cycles == 5


def test_store_wait_states():
    blob = (0x00512623).to_bytes(4, "little")  # sw x5, 12(x2)
    m = make_machine(write_latency=4)
    _load(m, blob)
    m.regs.write(2, 0x10000)
    assert Cpu(m).step().cycles == 1 + 3


def test_x0_stays_zero():
    m, cpu = _cpu_with((0x00500013).to_bytes(4, "little"))  # addi x0, x0, 5
    cpu.step()
    assert m.regs.read(0) == 0


# -- run-loop stop conditions ---------------------------------------------

def _asm(build):
    a = Asm()
    build(a)
    return a.assemble()


def test_run_halts_on_ecall():
    def prog(a):
        a.li(10, 42)
        a.ecall()
    m, cpu = _cpu_with(_asm(prog))
    stats = cpu.run(budget=1000)
    assert stats.stop_reason == "halt"
    assert stats.exit_code == 42
    assert stats.retired == 2


def test_run_stops_on_budget():
    def prog(a):
        a.label("spin")
        a.j("spin")
    m, cpu = _cpu_with(_asm(prog))
    stats = cpu.run(budget=100)
    assert stats.stop_reason == "budget"
    assert 100 <= stats.total_cycles <= 102


def test_run_traps_on_illegal():
    m, cpu = _cpu_with(b"\x00\x00\x00\x00")
    stats = cpu.run(budget=10)
    assert stats.stop_reason == "trap"
    assert "IllegalInstruction" in stats.trap_cause


def _assert_trap_at(blob, pc, cause, raw):
    m, cpu = _cpu_with(blob)
    stats = cpu.run(budget=100)
    assert stats.stop_reason == "trap"
    assert stats.trap_cause.startswith(cause)
    assert (stats.trap_pc, stats.trap_insn) == (pc, raw)
    assert m.pc == pc  # a fault leaves pc at the faulting instruction
    assert stats.to_dict()["trap_pc"] == pc


@pytest.mark.parametrize("csr", [MMUL_STATUS, MCYCLE],
                         ids=["mmul_status", "mcycle"])
@pytest.mark.parametrize("kind", ["csrrs", "csrrc"])
def test_set_or_clear_from_a_register_writes_a_read_only_csr(kind, csr):
    """Zicsr: csrrs/csrrc with rs1 != x0 write, even when rs1 holds 0, so
    a read-only CSR refuses them on both cores; the x0 and zero-immediate
    forms only read it."""
    def program(*emits):
        def load(m):
            a = Asm(base=0)
            a.li(5, 0)
            a.li(6, -1)
            a.li(7, -1)
            for emit in emits:
                emit(a)
            a.li(10, 0)
            a.ecall()
            m.load_image(a.assemble(), 0)
        return load

    stats = twins(program(lambda a: getattr(a, kind)(6, csr, 5)),
                  budget=100)[1]
    assert stats.stop_reason == "trap"
    assert stats.trap_cause.startswith("UnimplementedCsr")
    m, stats = twins(program(lambda a: getattr(a, kind)(6, csr, 0),
                             lambda a: getattr(a, kind + "i")(7, csr, 0)),
                     budget=100)
    assert stats.stop_reason == "halt"
    # an idle engine's status, or the cycle after three one-cycle units
    assert (m.regs.x[6], m.regs.x[7]) == \
        {MMUL_STATUS: (0, 0), MCYCLE: (3, 4)}[csr]


def test_trap_reports_illegal_word():
    blob = _asm(lambda a: (a.nop(), a.nop())) + b"\xff\xff\xff\xff"
    _assert_trap_at(blob, 8, "IllegalInstruction", 0xFFFFFFFF)


def test_trap_reports_misaligned_load():
    blob = _asm(lambda a: (a.li(2, 0x10001), a.lw(5, 2, 0)))
    _assert_trap_at(blob, len(blob) - 4, "MisalignedAccess",
                    int.from_bytes(blob[-4:], "little"))


def test_trap_reports_pc_off_the_end_of_memory():
    blob = _asm(lambda a: (a.li(1, DEFAULT_MEM_SIZE), a.jalr(0, 1)))
    # the fetch itself faults, so there is no raw unit
    _assert_trap_at(blob, DEFAULT_MEM_SIZE, "UnmappedAddress", None)


def _run_at_the_top(unit):
    """Jump to a 16-bit `unit` in the last halfword of memory."""
    top = DEFAULT_MEM_SIZE - 2
    m, cpu = _cpu_with(_asm(lambda a: (a.li(1, top), a.jalr(0, 1))))
    m.mem.write(top, 2, unit)
    return m, cpu.run(budget=100)


def test_compressed_unit_in_the_last_halfword_retires():
    m, stats = _run_at_the_top(0x4515)  # c.li x10, 5
    assert m.regs.read(10) == 5
    assert stats.trap_cause.startswith("UnmappedAddress")
    assert (stats.trap_pc, stats.trap_insn) == (DEFAULT_MEM_SIZE, None)


def test_32_bit_unit_cut_by_the_top_of_memory_traps():
    m, stats = _run_at_the_top(0x0013)  # the low half of addi x0, x0, 0
    assert stats.trap_cause.startswith("UnmappedAddress")
    assert (stats.trap_pc, stats.trap_insn) == (DEFAULT_MEM_SIZE - 2, None)
    assert m.pc == DEFAULT_MEM_SIZE - 2


def test_run_counts_memory_traffic():
    def prog(a):
        a.li(2, 0x10000)
        a.li(5, 99)
        a.sw(5, 2, 0)
        a.lw(6, 2, 0)
        a.li(10, 0)
        a.ecall()
    m, cpu = _cpu_with(_asm(prog))
    stats = cpu.run(budget=1000)
    assert stats.mem_writes == 1
    assert stats.mem_reads == 1
    assert m.regs.read(6) == 99


def test_runs_are_deterministic():
    def prog(a):
        for i in range(20):
            a.addi(5, 5, i)
        a.li(10, 0)
        a.ecall()
    outs = []
    for _ in range(2):
        m, cpu = _cpu_with(_asm(prog))
        outs.append(cpu.run(budget=10_000).to_dict())
    assert outs[0] == outs[1]


# -- interrupts ------------------------------------------------------------

def _interruptible_program():
    a = Asm()
    a.j("start")
    # handler at pc=4: record mcycle, ack, return
    a.label("handler")
    a.csrrs(6, 0xB00, 0)
    a.li(7, 1 << 11)
    a.csrrc(0, 0x344, 7)
    a.mret()
    a.label("start")
    for _ in range(40):
        a.nop()
    a.li(10, 0)
    a.ecall()
    return a, a.assemble()


def test_interrupt_entry_and_return():
    a, blob = _interruptible_program()
    m, cpu = _cpu_with(blob)
    m.csr_access(MTVEC, "write", a.labels["handler"])
    m.csr_access(MIE, "write", 1 << 11)
    m.csr_access(MSTATUS, "write", 8)
    stats = cpu.run(budget=10_000, irq_schedule=[10])
    assert stats.stop_reason == "halt"
    assert len(stats.interrupt_latencies) == 1
    asserted, serviced = stats.interrupt_latencies[0]
    assert asserted == 10
    # entry is taken at the next instruction boundary plus 3 entry cycles
    assert 13 <= serviced <= 10 + 1 + 3
    assert m.regs.read(6) == serviced  # handler read mcycle right away


def test_interrupt_entry_costs_three_cycles():
    a, blob = _interruptible_program()
    m, cpu = _cpu_with(blob)
    m.csr_access(MTVEC, "write", a.labels["handler"])
    m.csr_access(MIE, "write", 1 << 11)
    m.csr_access(MSTATUS, "write", 8)
    m.raise_interrupt()
    before = m.cycle
    report = cpu.step()
    assert report.retired == "irq"
    assert m.cycle - before == 3
    assert m.pc == a.labels["handler"]
    assert m.csr[MEPC] == 0


def test_masked_interrupt_is_held_pending():
    a, blob = _interruptible_program()
    m, cpu = _cpu_with(blob)
    m.csr_access(MTVEC, "write", a.labels["handler"])
    stats = cpu.run(budget=10_000, irq_schedule=[10])
    assert stats.stop_reason == "halt"
    assert stats.interrupt_latencies == []
    assert m.irq_pending
