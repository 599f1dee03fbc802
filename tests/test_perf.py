import math

import pytest

from mmulrv.errors import MissingReferenceRun, NoInterruptsRecorded
from mmulrv.perf import (CONFIGS, MODULE_POWER, MODULES, TOTAL_POWER,
                         PowerModel, RunStats, estimate_energy,
                         interrupt_latency_report)


def _saturated_stats(config="BA", total=10_000):
    """Every module busy on every cycle."""
    stats = RunStats(config)
    stats.total_cycles = total
    for m in MODULES:
        setattr(stats, m + "_cycles", total)
    return stats


class TestRecordActivity:
    def test_active_cycle_view(self):
        stats = RunStats()
        stats.mmul_cycles = 9
        assert stats.module_active_cycles()["mmul"] == 9
        assert set(stats.module_active_cycles()) == set(MODULES)


class TestPowerModel:
    def test_static_plus_dynamic_is_total(self):
        # the measured table carries mW-level rounding (CI-AE sums to 0.169)
        for config in CONFIGS:
            static, dynamic, total = TOTAL_POWER[config]
            assert math.isclose(static + dynamic, total, abs_tol=1.5e-3)

    def test_unattributed_residual(self):
        model = PowerModel()
        for config, expect in (("BA", 0.039), ("CI-AE", 0.004),
                               ("CI-PE", 0.024)):
            module_sum = sum(MODULE_POWER[m][config] for m in MODULES)
            assert math.isclose(model.unattributed_watts[config],
                                TOTAL_POWER[config][1] - module_sum,
                                abs_tol=1e-9)
            assert math.isclose(model.unattributed_watts[config], expect,
                                abs_tol=1e-9)


class TestEstimate:
    def test_full_duty_ba_breakdown(self):
        est = estimate_energy(_saturated_stats(), PowerModel(), "BA")
        # static plus the five tracked modules at duty 1.0
        assert math.isclose(est.static_watts + est.dynamic_module_watts,
                            0.222, abs_tol=1e-9)
        # adding the unattributed slice reproduces the measured average
        assert math.isclose(est.avg_power_watts, 0.261, abs_tol=1e-3)

    def test_full_duty_matches_table_everywhere(self):
        model = PowerModel()
        for config in CONFIGS:
            est = estimate_energy(_saturated_stats(config), model, config,
                                  reference_energy=1.0)
            assert math.isclose(est.avg_power_watts,
                                TOTAL_POWER[config][2], abs_tol=1.5e-3)

    def test_idle_run_draws_static_only(self):
        stats = RunStats("BA")
        stats.total_cycles = 1000
        est = estimate_energy(stats, PowerModel(), "BA")
        assert math.isclose(est.avg_power_watts, 0.107, abs_tol=1e-9)

    def test_duty_scales_linearly(self):
        stats = RunStats("BA")
        stats.total_cycles = 1000
        stats.alu_cycles = 500
        est = estimate_energy(stats, PowerModel(), "BA")
        assert math.isclose(est.avg_power_watts,
                            0.107 + 0.5 * 0.031, abs_tol=1e-9)

    def test_ba_self_normalizes_to_one(self):
        est = estimate_energy(_saturated_stats(), PowerModel(), "BA")
        assert est.normalized_energy == 1.0

    def test_non_ba_requires_reference(self):
        stats = _saturated_stats("CI-AE")
        with pytest.raises(MissingReferenceRun):
            estimate_energy(stats, PowerModel(), "CI-AE")

    def test_normalization_against_reference(self):
        model = PowerModel()
        ref = estimate_energy(_saturated_stats("BA"), model, "BA")
        stats = _saturated_stats("CI-AE", total=1000)
        est = estimate_energy(stats, model, "CI-AE",
                              reference_energy=ref.energy)
        assert math.isclose(est.normalized_energy,
                            est.energy / ref.energy, rel_tol=1e-12)
        assert est.normalized_energy < 1.0  # 10x fewer cycles, lower power

    def test_energy_is_power_times_cycles(self):
        est = estimate_energy(_saturated_stats(total=123), PowerModel(), "BA")
        assert math.isclose(est.energy, est.avg_power_watts * 123,
                            rel_tol=1e-12)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError):
            estimate_energy(RunStats(), PowerModel(), "BA")

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            estimate_energy(_saturated_stats(), PowerModel(), "XX")


class TestInterruptReport:
    def test_summary(self):
        stats = RunStats()
        stats.interrupt_latencies = [(100, 110), (200, 205), (300, 315)]
        rep = interrupt_latency_report(stats)
        assert rep["count"] == 3
        assert rep["min"] == 5
        assert rep["max"] == 15
        assert math.isclose(rep["mean"], (10 + 5 + 15) / 3)
        assert rep["histogram"] == {5: 1, 10: 1, 15: 1}

    def test_no_interrupts(self):
        with pytest.raises(NoInterruptsRecorded):
            interrupt_latency_report(RunStats())
