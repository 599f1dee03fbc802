import dataclasses
from pathlib import Path

import pytest

from conftest import machine_state, make_machine, mont_oracle, run_guest
from mmulrv import guests
from mmulrv.encoding import OPCODE_CUSTOM0
from mmulrv.guests import CONFIGS, FieldContext, build_guest, emit_modexp
from mmulrv.errors import GuestNotFound, InvalidConfig, UnknownInput
from mmulrv import isa


P25519 = (1 << 255) - 19  # RFC 7748's field
A24 = 121665  # and its curve constant (486662 - 2) / 4


def ladder_reference(u, scalar, scalar_bits, p=P25519):
    """Host-side oracle: the x-only ladder on plain integers.

    Returns the projective pair (x2, z2) the guest stores to out_x/out_z.
    """
    x1 = u % p
    x2, z2, x3, z3 = 1, 0, x1, 1
    swap = 0
    for t in reversed(range(scalar_bits)):
        kt = (scalar >> t) & 1
        swap ^= kt
        if swap:
            x2, x3 = x3, x2
            z2, z3 = z3, z2
        swap = kt
        aa_ = (x2 + z2) % p
        asq = aa_ * aa_ % p
        bb_ = (x2 - z2) % p
        bsq = bb_ * bb_ % p
        e = (asq - bsq) % p
        c = (x3 + z3) % p
        d = (x3 - z3) % p
        da = d * aa_ % p
        cb = c * bb_ % p
        x3 = (da + cb) * (da + cb) % p
        z3 = x1 * ((da - cb) * (da - cb) % p) % p
        x2 = asq * bsq % p
        z2 = e * ((asq + A24 * e) % p) % p
    if swap:
        x2, x3 = x3, x2
        z2, z3 = z3, z2
    return x2, z2


def _mmul_count(words_list):
    return sum(1 for w in words_list if w & 0x7F == OPCODE_CUSTOM0)


class TestFieldContext:
    def test_montgomery_constants(self):
        ctx = FieldContext(239, 1)
        assert ctx.n_bits == 32
        assert ctx.r2_mod_n == pow(1 << 32, 2, 239)

    def test_even_modulus_rejected(self):
        with pytest.raises(InvalidConfig):
            FieldContext(240, 1)

    def test_oversized_modulus_rejected(self):
        with pytest.raises(InvalidConfig):
            FieldContext((1 << 40) + 1, 1)


class TestSingleMultiplication:
    """The software kernel and the engine agree bit for bit."""

    @pytest.mark.parametrize("config", CONFIGS)
    def test_small_field(self, config):
        guest = build_guest("montmul_once", config,
                            {"modulus": 239, "words": 1, "a": 100, "b": 55})
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        assert guest.read_value(machine, "result") == \
            mont_oracle(100, 55, 239, 32)

    @pytest.mark.parametrize("config", CONFIGS)
    def test_two_words(self, config):
        n = (1 << 61) - 1
        a, b = 0x123456789ABCDEF, 0xFEDCBA987654321
        guest = build_guest("montmul_once", config,
                            {"modulus": n, "words": 2, "a": a, "b": b})
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        assert guest.read_value(machine, "result") == mont_oracle(a, b, n, 64)

    def test_full_width_default_operands(self):
        results = set()
        for config in ("CI-AE", "CI-PE"):
            guest = build_guest("montmul_once", config)
            machine, stats = run_guest(guest)
            assert stats.stop_reason == "halt"
            results.add(guest.read_value(machine, "result"))
        a = guest.meta["a"] % guest.meta["modulus"]
        b = guest.meta["b"] % guest.meta["modulus"]
        results.add(mont_oracle(a, b, guest.meta["modulus"], 256))
        assert len(results) == 1

    def test_partial_costs_one_extra_cycle_per_bit(self):
        runs = {}
        for config in ("CI-AE", "CI-PE"):
            guest = build_guest("montmul_once", config)
            _, stats = run_guest(guest)
            runs[config] = stats
        # same engine occupancy either way
        assert runs["CI-AE"].mmul_cycles == runs["CI-PE"].mmul_cycles
        # 255 extra instruction issues plus one mode-select csr write
        delta = runs["CI-PE"].total_cycles - runs["CI-AE"].total_cycles
        assert delta == 256

    @pytest.mark.parametrize("irq", [2, -1])
    def test_irq_other_than_0_or_1_refused(self, irq):
        with pytest.raises(InvalidConfig, match="irq must be 0 or 1"):
            build_guest("montmul_once", "CI-PE", {"irq": irq})


class TestModexp:
    def test_known_answer_small(self):
        inputs = {"modulus": 239, "words": 1, "exponent_bits": 4, "base": 2,
                  "exponent": 10}
        for config in CONFIGS:
            guest = emit_modexp("modexp", config, inputs)
            machine, stats = run_guest(guest)
            assert stats.stop_reason == "halt"
            assert guest.read_value(machine, "result") == 68  # 2^10 mod 239

    @pytest.mark.parametrize("config", ("CI-AE", "CI-PE"))
    def test_modexp128_registry(self, config):
        guest = build_guest("modexp128", config)
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        expect = pow(guest.meta["base"], guest.meta["exponent"],
                     guest.meta["modulus"])
        assert guest.read_value(machine, "result") == expect

    def test_modexp128_software_matches(self):
        guest = build_guest("modexp128", "BA")
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        assert guest.read_value(machine, "result") == \
            pow(guest.meta["base"], guest.meta["exponent"],
                guest.meta["modulus"])
        assert stats.mmul_invocations == 0

    @pytest.mark.parametrize("config", ("CI-AE", "CI-PE"))
    def test_modexp256_registry(self, config):
        guest = build_guest("modexp256", config)
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        expect = pow(guest.meta["base"], guest.meta["exponent"],
                     guest.meta["modulus"])
        assert guest.read_value(machine, "result") == expect

    def test_exponent_width_guard(self):
        with pytest.raises(InvalidConfig):
            emit_modexp("modexp", "BA", {"modulus": 239, "words": 1,
                                         "exponent_bits": 40, "base": 2,
                                         "exponent": 3})

    @pytest.mark.parametrize("exponent", [0x10000, 0x1FFFF, -1])
    def test_exponent_outside_its_bits_refused(self, exponent):
        """The guest reads only `exponent_bits` bits of the exponent, so
        one it would silently change is refused."""
        with pytest.raises(InvalidConfig, match="0..65535"):
            build_guest("modexp128", "CI-AE", {"exponent": exponent})

    def test_exponent_at_the_top_of_its_bits(self):
        guest = build_guest("modexp128", "CI-AE", {"exponent": 0xFFFF})
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        assert guest.read_value(machine, "result") == \
            pow(3, 0xFFFF, guest.meta["modulus"])


class TestLadder:
    @pytest.mark.parametrize("config", ("CI-AE", "CI-PE"))
    def test_matches_host_ladder(self, config):
        guest = build_guest("x25519_ladder", config)
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        x2, z2 = ladder_reference(guest.meta["u"], guest.meta["scalar"],
                                  guest.meta["scalar_bits"])
        assert guest.read_value(machine, "out_x") == x2
        assert guest.read_value(machine, "out_z") == z2
        # projective pair reduces to the expected affine coordinate
        p = P25519
        affine = x2 * pow(z2, -1, p) % p
        got = guest.read_value(machine, "out_x") * \
            pow(guest.read_value(machine, "out_z"), -1, p) % p
        assert got == affine

    def test_trivial_scalar_software(self):
        guest = build_guest("x25519_ladder", "BA", {"scalar": 1})
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        x2, z2 = ladder_reference(9, 1, 1)
        assert guest.read_value(machine, "out_x") == x2
        assert guest.read_value(machine, "out_z") == z2
        p = P25519
        assert x2 * pow(z2, -1, p) % p == 9  # 1 * P has u-coordinate 9

    def test_scalar_width_guard(self):
        with pytest.raises(InvalidConfig):
            build_guest("x25519_ladder", "BA", {"scalar": 1 << 40})

    @pytest.mark.parametrize("scalar,bits", [(0x1FF, 4), (0x10, 4),
                                             (1 << 32, 32)])
    def test_scalar_outside_its_bits_refused(self, scalar, bits):
        """The guest reads only `scalar_bits` bits of the scalar, so a
        wider one would run as its low bits while `meta` kept it whole."""
        with pytest.raises(InvalidConfig, match="scalar must be in 0.."):
            build_guest("x25519_ladder", "BA",
                        {"scalar": scalar, "scalar_bits": bits})

    def test_scalar_at_the_top_of_its_bits(self):
        guest = build_guest("x25519_ladder", "CI-AE",
                            {"scalar": 0xF, "scalar_bits": 4})
        machine, stats = run_guest(guest)
        assert stats.stop_reason == "halt"
        x2, z2 = ladder_reference(9, 0xF, 4)
        assert guest.read_value(machine, "out_x") == x2
        assert guest.read_value(machine, "out_z") == z2

    def test_negative_scalar_refused(self):
        with pytest.raises(InvalidConfig, match="scalar must be at least 0"):
            build_guest("x25519_ladder", "CI-AE", {"scalar": -5})


class TestCodeShape:
    def test_software_kernels_have_no_custom_encodings(self):
        for name in ("modexp128", "x25519_ladder"):
            guest = build_guest(name, "BA")
            assert _mmul_count(guest.code_words()) == 0

    def test_atomic_kernel_has_one_mmul_per_multiplication(self):
        guest = build_guest("montmul_once", "CI-AE")
        assert _mmul_count(guest.code_words()) == 1

    def test_partial_kernel_has_one_mmul_per_bit(self):
        guest = build_guest("montmul_once", "CI-PE",
                            {"modulus": 239, "words": 1})
        assert _mmul_count(guest.code_words()) == 32

    @pytest.mark.parametrize("name", guests.GUEST_NAMES)
    def test_every_guest_decodes_cleanly(self, name):
        for config in guests._GUESTS[name].configs:
            guest = build_guest(name, config)
            for w in guest.code_words():
                isa.decode(w)  # raises on any bad encoding


class TestRegistry:
    def test_unknown_guest(self):
        with pytest.raises(GuestNotFound):
            build_guest("nonesuch", "BA")

    def test_unknown_config(self):
        with pytest.raises(InvalidConfig):
            build_guest("modexp128", "TURBO")

    @pytest.mark.parametrize("name", guests.GUEST_NAMES)
    def test_unknown_input_rejected(self, name):
        config = guests._GUESTS[name].configs[0]
        with pytest.raises(UnknownInput,
                           match=f"^{name} has no input modulo, z; its "
                                 "inputs are "):
            build_guest(name, config, {"z": 1, "modulo": 3})

    def test_sweep_guests_pin_their_config(self):
        with pytest.raises(InvalidConfig):
            build_guest("irq_sweep_atomic", "BA")
        with pytest.raises(InvalidConfig):
            build_guest("irq_sweep_partial", "CI-AE")

    @pytest.mark.parametrize("name", ("irq_sweep_atomic",
                                      "irq_sweep_partial"))
    def test_sweep_guests_are_montmul_once_with_irq(self, name):
        """An irq_sweep guest is montmul_once at 8 words with the
        interrupt harness, under its one config, and those two inputs are
        fixed."""
        (config,) = guests._GUESTS[name].configs
        sweep = build_guest(name, config)
        once = build_guest("montmul_once", config, {"irq": 1})
        for field in ("code", "data_init", "listing", "budget_hint"):
            assert getattr(sweep, field) == getattr(once, field), field
        for fixed in ("words", "irq"):
            with pytest.raises(UnknownInput, match=f"has no input {fixed};"):
                build_guest(name, config, {fixed: 1})


def _value(v):
    """An input value as the README's guest table shows it."""
    if v is None:
        return "unset"
    v = int(v)
    if v.bit_length() <= 32:
        return str(v) if v < 1024 else hex(v)
    gap = (1 << v.bit_length()) - v
    return f"2^{v.bit_length()} - {gap}" if gap < 1024 else \
        f"a {v.bit_length()}-bit constant"


def guest_table():
    """README's "Guests" table, rendered from the guest registry."""
    def inputs(values):
        return ", ".join(f"`{k}` = {_value(v)}" for k, v in values.items()) \
            or "none"
    rows = ["| Guest | Configs | `--set` inputs and defaults | Fixed inputs |",
            "|---|---|---|---|"]
    for name, guest in guests._GUESTS.items():
        rows.append(f"| `{name}` | {', '.join(guest.configs)} | "
                    f"{inputs(guest.inputs)} | {inputs(guest.fixed)} |")
    return "\n".join(rows) + "\n"


def test_readme_guest_table_matches_the_registry():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    assert guest_table() in readme.read_text(), guest_table()


SMALL = {"modulus": 239, "words": 1, "a": 100, "b": 55}


class TestRun:
    """`GuestProgram.run`: the guest on a fresh machine, under its own
    config."""

    def test_budget_zero_stops_before_the_first_instruction(self):
        guest = build_guest("montmul_once", "CI-AE", SMALL)
        machine, stats = guest.run(budget=0)
        assert (stats.stop_reason, stats.total_cycles, stats.retired) == \
            ("budget", 0, 0)
        assert (machine.cycle, machine.pc) == (0, guest.entry)

    def test_no_budget_is_the_budget_hint(self):
        guest = build_guest("montmul_once", "BA", SMALL)
        _, stats = guest.run()
        assert (stats.stop_reason, stats.exit_code) == ("halt", 0)
        assert stats.total_cycles < guest.budget_hint
        hinted = dataclasses.replace(guest, budget_hint=50)
        _, stats = hinted.run()
        assert stats.stop_reason == "budget"
        assert 50 <= stats.total_cycles < 60

    def test_latencies_and_max_words_reach_the_machine(self):
        guest = build_guest("montmul_once", "CI-AE", SMALL)
        machine, stats = guest.run(read_latency=2, write_latency=3,
                                   max_words=1)
        assert (machine.mem.read_latency, machine.mem.write_latency,
                machine.engine.max_words) == (2, 3, 1)
        assert stats.stop_reason == "halt"
        assert stats.total_cycles > guest.run()[1].total_cycles
        _, stats = build_guest("montmul_once", "CI-AE").run(max_words=4)
        assert stats.stop_reason == "trap"
        assert "exceeds hardware limit 4" in stats.trap_cause
        with pytest.raises(ValueError, match="latencies must be at least 1"):
            guest.run(write_latency=0)

    def test_irq_asserts_the_interrupt_at_its_cycle(self):
        _, stats = build_guest("irq_sweep_partial", "CI-PE").run(irq=[200])
        assert (stats.stop_reason, stats.exit_code) == ("halt", 0)
        assert [asserted for asserted, _ in stats.interrupt_latencies] == \
            [200]

    @pytest.mark.parametrize("config", CONFIGS)
    def test_matches_loading_and_running_by_hand(self, config):
        guest = build_guest("montmul_once", config, {**SMALL, "irq": True})
        machine, stats = guest.run(read_latency=2, write_latency=3, irq=[40])
        assert stats.config == config and stats.interrupt_latencies
        by_hand = make_machine(read_latency=2, write_latency=3)
        guest.load(by_hand)
        isa.Cpu(by_hand).run(budget=guest.budget_hint, irq_schedule=[40],
                             config=config)
        assert machine_state(machine) == machine_state(by_hand)
