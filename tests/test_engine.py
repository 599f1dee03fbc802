from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_machine, mont_oracle, operand_block, read_value
from mmulrv.engine import MmulOperands, r2mm_reference
from mmulrv.errors import (EvenModulus, LengthExceedsHardwareMax,
                           MisalignedAccess, OperandTooLarge, SequenceBroken,
                           UnmappedAddress)
from mmulrv.machine import MMUL_STATUS


class TestReference:
    def test_zero_multiplicand(self):
        for b, n in ((55, 239), (1, 3), (170, 171)):
            assert r2mm_reference(0, b, n, 8) == 0

    def test_oracle_frozen_value(self):
        # (100 * 55 * inverse(2^8, 239)) mod 239, computed independently
        assert mont_oracle(100, 55, 239, 8) == 197
        assert r2mm_reference(100, 55, 239, 8) == 197

    def test_montgomery_identity(self):
        # 17 == 2^8 mod 239, so A = R mod N returns B
        assert r2mm_reference(17, 23, 239, 8) == 23

    def test_even_modulus(self):
        with pytest.raises(EvenModulus):
            r2mm_reference(1, 1, 240, 8)

    def test_operand_too_large(self):
        with pytest.raises(OperandTooLarge):
            r2mm_reference(256, 1, 239, 8)

    @given(data=st.data(), n_bits=st.sampled_from([8, 16, 32, 64]))
    @settings(max_examples=200)
    def test_matches_big_integer_oracle(self, data, n_bits):
        n = data.draw(st.integers(3, (1 << n_bits) - 1)) | 1
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        assert r2mm_reference(a, b, n, n_bits) == mont_oracle(a, b, n, n_bits)


def _atomic(machine, a, b, n, words):
    aa, ab, an, ap = operand_block(machine, a, b, n, words)
    ops = MmulOperands(aa, ab, an, ap, words)
    res = machine.engine.execute_atomic(machine, ops)
    return res, read_value(machine, ap, words)


class TestAtomic:
    def test_cycle_formula_128bit(self):
        m = make_machine()
        res, _ = _atomic(m, 100, 55, (1 << 127) - 1, 4)
        assert res.compute_cycles == 2 * 128 + 1 == 257
        assert res.loads == 12
        assert res.stores == 4
        assert res.cycles == 257 + 12 + 4  # 1-cycle memory

    def test_zero_multiplicand_one_word(self):
        m = make_machine()
        res, p = _atomic(m, 0, 12345, 0xFFFFFFFB, 1)
        assert p == 0
        assert res.compute_cycles == 65
        assert res.loads == 3
        assert res.stores == 1

    def test_constant_time_across_operands(self, rng):
        words = 2
        n = (rng.getrandbits(64) | 1) | (1 << 63)
        cases = [(0, 0), (n - 1, n - 1), (1, 1),
                 (rng.randrange(n), rng.randrange(n))]
        cycle_counts = set()
        for a, b in cases:
            m = make_machine()
            res, _ = _atomic(m, a, b, n, words)
            cycle_counts.add((res.cycles, res.compute_cycles))
        assert len(cycle_counts) == 1

    def test_result_matches_oracle_random(self, rng):
        for words in (1, 2, 4, 8):
            n_bits = 32 * words
            for _ in range(25):
                n = rng.getrandbits(n_bits) | 1
                if n < 3:
                    n = 3
                a, b = rng.randrange(n), rng.randrange(n)
                m = make_machine()
                _, p = _atomic(m, a, b, n, words)
                assert p == mont_oracle(a, b, n, n_bits)
                assert p == r2mm_reference(a, b, n, n_bits)

    def test_montgomery_identity_in_memory(self, rng):
        words = 4
        n = (rng.getrandbits(128) | 1) | (1 << 127)
        b = rng.randrange(n)
        m = make_machine()
        _, p = _atomic(m, (1 << 128) % n, b, n, words)
        assert p == b % n

    def test_even_modulus_refused(self):
        m = make_machine()
        with pytest.raises(EvenModulus):
            _atomic(m, 1, 1, 0xFFFFFFFE, 1)
        assert not m.engine.busy

    def test_length_limit(self):
        m = make_machine(max_words=4)
        with pytest.raises(LengthExceedsHardwareMax):
            _atomic(m, 1, 1, (1 << 255) - 19, 8)

    def test_misaligned_operand(self):
        m = make_machine()
        ops = MmulOperands(0x10002, 0x10010, 0x10020, 0x10030, 1)
        with pytest.raises(MisalignedAccess):
            m.engine.execute_atomic(m, ops)

    @pytest.mark.parametrize("field", ["addr_a", "addr_p"])
    def test_fault_leaves_engine_idle(self, field):
        # a 4-word operand at 0x1FFF8 runs off the top of memory
        m = make_machine()
        aa, ab, an, ap = operand_block(m, 7, 9, 0xFFFFFFFB, 4)
        ops = MmulOperands(aa, ab, an, ap, 4)
        with pytest.raises(UnmappedAddress):
            m.engine.execute_atomic(m, replace(ops, **{field: 0x1FFF8}))
        assert not m.engine.busy
        assert m.csr_access(MMUL_STATUS, "read") == 0
        m.engine.execute_atomic(m, ops)
        assert read_value(m, ap, 4) == mont_oracle(7, 9, 0xFFFFFFFB, 128)

    def test_memory_op_counters(self):
        m = make_machine()
        _atomic(m, 3, 5, 0xFFFFFFFB, 1)
        assert m.stats.mem_reads == 3
        assert m.stats.mem_writes == 1

    def test_result_aliasing_in_place(self, rng):
        # P overlapping A is well-defined: store happens after compute
        words = 2
        n = (rng.getrandbits(64) | 1) | (1 << 63)
        a, b = rng.randrange(n), rng.randrange(n)
        m = make_machine()
        aa, ab, an, _ = operand_block(m, a, b, n, words)
        ops = MmulOperands(aa, ab, an, aa, words)
        m.engine.execute_atomic(m, ops)
        assert read_value(m, aa, words) == mont_oracle(a, b, n, 64)


class TestPartial:
    def _partial_run(self, machine, a, b, n, words):
        aa, ab, an, ap = operand_block(machine, a, b, n, words)
        ops = MmulOperands(aa, ab, an, ap, words)
        calls = []
        for _ in range(32 * words):
            calls.append(machine.engine.execute_partial_call(machine, ops))
        assert not machine.engine.busy
        return calls, read_value(machine, ap, words)

    def test_call_latencies_1cycle_memory(self, rng):
        words = 4
        n = (rng.getrandbits(128) | 1) | (1 << 127)
        a, b = rng.randrange(n), rng.randrange(n)
        m = make_machine()
        calls, _ = self._partial_run(m, a, b, n, words)
        assert calls[0].call_kind == "first"
        assert calls[0].cycles == 3 * words + 2 == 14
        assert all(c.call_kind == "middle" and c.cycles == 2
                   for c in calls[1:-1])
        assert calls[-1].call_kind == "last"
        assert calls[-1].cycles == words + 3 == 7

    def test_call_latencies_slow_memory(self, rng):
        words = 2
        rl, wl = 3, 2
        n = (rng.getrandbits(64) | 1) | (1 << 63)
        a, b = rng.randrange(n), rng.randrange(n)
        m = make_machine(read_latency=rl, write_latency=wl)
        calls, _ = self._partial_run(m, a, b, n, words)
        assert calls[0].cycles == 3 * words * rl + 2
        assert calls[-1].cycles == words * wl + 3

    def test_partial_equals_atomic(self, rng):
        for words in (1, 2, 8):
            n_bits = 32 * words
            n = rng.getrandbits(n_bits) | 1
            if n < 3:
                n = 3
            a, b = rng.randrange(n), rng.randrange(n)
            m1 = make_machine()
            res, p_atomic = _atomic(m1, a, b, n, words)
            m2 = make_machine()
            calls, p_partial = self._partial_run(m2, a, b, n, words)
            assert p_partial == p_atomic == mont_oracle(a, b, n, n_bits)
            assert sum(c.cycles for c in calls) == res.cycles

    def test_status_csr_bit_index_wraps_above_8_words(self, rng):
        # bits 8..15 hold the bit index mod 256: 300 reads as 44
        words = 32
        n = rng.getrandbits(1024) | 1 | (1 << 1023)
        a, b = rng.randrange(n), rng.randrange(n)
        m = make_machine(max_words=words)
        aa, ab, an, ap = operand_block(m, a, b, n, words)
        ops = MmulOperands(aa, ab, an, ap, words)
        for _ in range(300):
            m.engine.execute_partial_call(m, ops)
        assert m.csr_access(MMUL_STATUS, "read") == 1 | (44 << 8)
        for _ in range(1024 - 300):
            m.engine.execute_partial_call(m, ops)
        assert m.csr_access(MMUL_STATUS, "read") == 0
        assert read_value(m, ap, words) == mont_oracle(a, b, n, 1024)

    def test_status_csr_reflects_progress(self):
        from mmulrv.machine import MMUL_STATUS
        m = make_machine()
        aa, ab, an, ap = operand_block(m, 7, 9, 0xFFFFFFFB, 1)
        ops = MmulOperands(aa, ab, an, ap, 1)
        m.engine.execute_partial_call(m, ops)
        status = m.csr_access(MMUL_STATUS, "read")
        assert status & 1 == 1
        assert (status >> 8) & 0xFF == 1
        for _ in range(31):
            m.engine.execute_partial_call(m, ops)
        assert m.csr_access(MMUL_STATUS, "read") == 0

    def test_faulting_first_call_latches_nothing(self):
        m = make_machine()
        aa, ab, an, ap = operand_block(m, 7, 9, 0xFFFFFFFB, 4)
        with pytest.raises(UnmappedAddress):
            m.engine.execute_partial_call(
                m, MmulOperands(0x1FFF8, ab, an, ap, 4))
        assert not m.engine.busy
        ops = MmulOperands(aa, ab, an, ap, 4)
        assert m.engine.execute_partial_call(m, ops).call_kind == "first"

    def test_atomic_issue_mid_sequence_refused(self):
        m = make_machine()
        aa, ab, an, ap = operand_block(m, 7, 9, 0xFFFFFFFB, 1)
        ops = MmulOperands(aa, ab, an, ap, 1)
        m.engine.execute_partial_call(m, ops)
        with pytest.raises(SequenceBroken):
            m.engine.execute_atomic(m, ops)
        for _ in range(31):
            m.engine.execute_partial_call(m, ops)
        assert read_value(m, ap, 1) == mont_oracle(7, 9, 0xFFFFFFFB, 32)

    def test_middle_calls_ignore_operands(self, rng):
        # calls 2..n carry garbage addresses; the latched operation wins
        words = 1
        n = rng.getrandbits(32) | 1 | (1 << 31)
        a, b = rng.randrange(n), rng.randrange(n)
        m = make_machine()
        aa, ab, an, ap = operand_block(m, a, b, n, words)
        ops = MmulOperands(aa, ab, an, ap, words)
        garbage = MmulOperands(0x1F000, 0x1F100, 0x1F200, 0x1F300, words)
        m.engine.execute_partial_call(m, ops)
        for _ in range(31):
            m.engine.execute_partial_call(m, garbage)
        assert read_value(m, ap, words) == mont_oracle(a, b, n, 32)


class TestProductAtTheStore:
    """A middle issue only adds to `bit_index`; `_finish` computes the
    product once, by REDC.  Stored, it must equal the bit-serial spec for
    any A, B < 2^n, A, B >= N included, atomic and as n_bits partial
    calls."""

    @given(data=st.data(), words=st.sampled_from([1, 2, 3, 8, 32]))
    @settings(max_examples=150, deadline=None)
    def test_matches_bit_serial_spec(self, data, words):
        n_bits = 32 * words
        n = data.draw(st.integers(0, (1 << n_bits) - 1)) | 1
        a = data.draw(st.integers(0, (1 << n_bits) - 1))
        b = data.draw(st.integers(0, (1 << n_bits) - 1))
        expect = r2mm_reference(a, b, n, n_bits)
        for partial in (False, True):
            m = make_machine(max_words=32)
            aa, ab, an, ap = operand_block(m, a, b, n, words)
            ops = MmulOperands(aa, ab, an, ap, words)
            engine = m.engine
            if partial:
                for i in range(1, n_bits):
                    engine.execute_partial_call(m, ops)
                    assert engine.status_word() == 1 | (i & 0xFF) << 8
                engine.execute_partial_call(m, ops)
            else:
                engine.execute_atomic(m, ops)
            assert engine.status_word() == 0
            assert read_value(m, ap, words) == expect
