import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_machine
from mmulrv.errors import (MisalignedAccess, SimError, UnimplementedCsr,
                           UnmappedAddress)
from mmulrv.machine import MIE, MIP, MMUL_MODE, MMUL_STATUS, MSTATUS, Memory


class TestMemory:
    def test_read_after_write(self, machine):
        machine.store_word(0x100, 0xDEADBEEF)
        assert machine.load_word(0x100) == (0xDEADBEEF, 1)

    def test_fresh_memory_reads_zero(self, machine):
        assert machine.load_word(0x104) == (0x00000000, 1)

    def test_misaligned_load(self, machine):
        with pytest.raises(MisalignedAccess):
            machine.load_word(0x102)

    def test_word_round_trip(self, machine):
        machine.store_word(0x200, 1)
        assert machine.load_word(0x200)[0] == 1

    def test_configured_write_latency(self):
        m = make_machine(write_latency=2)
        assert m.store_word(0x200, 0xFFFFFFFF) == 2

    def test_out_of_range(self, machine):
        with pytest.raises(UnmappedAddress):
            machine.store_word(0xFFFFFFF0, 0)

    def test_counters_exact(self, machine):
        for i in range(7):
            machine.store_word(0x100 + 4 * i, i)
        for i in range(3):
            machine.load_word(0x100 + 4 * i)
        assert machine.stats.mem_writes == 7
        assert machine.stats.mem_reads == 3

    @given(addr=st.integers(0, 0x7FFC).map(lambda a: a * 4),
           value=st.integers(0, 0xFFFFFFFF))
    @settings(max_examples=100)
    def test_round_trip_property(self, addr, value):
        m = make_machine()
        m.store_word(addr, value)
        assert m.load_word(addr)[0] == value

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Memory(read_latency=-1)

    @pytest.mark.parametrize("latency", ["read_latency", "write_latency"])
    def test_zero_latency_rejected(self, latency):
        # a zero-cycle access would make every instruction cost 0 cycles
        with pytest.raises(ValueError, match="latencies must be at least 1"):
            Memory(**{latency: 0})


class TestCsr:
    def test_mmul_mode_write_read(self, machine):
        assert machine.csr_access(MMUL_MODE, "write", 1) == 0
        assert machine.csr_access(MMUL_MODE, "read") == 1

    def test_mmul_mode_mask(self, machine):
        machine.csr_access(MMUL_MODE, "write", 0xFFFFFFFE)
        assert machine.csr_access(MMUL_MODE, "read") == 0

    def test_mmul_mode_only_bit0_changes(self, machine):
        for value in (0xFFFFFFFF, 0x12345678, 0):
            old = machine.csr_access(MMUL_MODE, "write", value)
            new = machine.csr_access(MMUL_MODE, "read")
            assert (old ^ new) & ~1 == 0

    def test_unimplemented(self, machine):
        with pytest.raises(UnimplementedCsr):
            machine.csr_access(0x123, "read")

    def test_set_clear(self, machine):
        machine.csr_access(MIE, "set", 1 << 11)
        assert machine.csr_access(MIE, "read") == 1 << 11
        machine.csr_access(MIE, "clear", 1 << 11)
        assert machine.csr_access(MIE, "read") == 0

    def test_status_read_only(self, machine):
        assert machine.csr_access(MMUL_STATUS, "read") == 0
        with pytest.raises(UnimplementedCsr):
            machine.csr_access(MMUL_STATUS, "write", 1)

    def test_mcycle_tracks_cycle(self, machine):
        machine.cycle = 42
        assert machine.csr_access(0xB00, "read") == 42


class TestInterruptLine:
    def test_assert_visible(self, machine):
        machine.raise_interrupt(0, at_cycle=1000)
        assert machine.irq_pending
        assert machine.csr_access(MIP, "read") == 1 << 11

    def test_first_assert_wins(self, machine):
        machine.raise_interrupt(0, at_cycle=1000)
        machine.raise_interrupt(0, at_cycle=2000)
        assert machine.irq_assert_cycle == 1000

    def test_unconfigured_line(self, machine):
        with pytest.raises(SimError):
            machine.raise_interrupt(7, at_cycle=0)

    def test_ack_via_mip_clear(self, machine):
        machine.raise_interrupt(0)
        machine.csr_access(MIP, "clear", 1 << 11)
        assert not machine.irq_pending

    def test_not_ready_without_enables(self, machine):
        machine.raise_interrupt(0)
        assert not machine.interrupt_ready()
        machine.csr_access(MIE, "write", 1 << 11)
        machine.csr_access(MSTATUS, "write", 8)
        assert machine.interrupt_ready()
