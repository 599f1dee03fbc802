"""The benchmark's own tests.

    python3 -m pytest perfbench -q
"""

import json
import math
import random
import statistics
import sys

import pytest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import golden  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mmulrv import guests  # noqa: E402


def test_budget_truncated_unit_counts_as_failed():
    wl = workloads.CompareMontmul(seed=1, budget=500)
    wl.setup()
    phase = run.run_phase(wl, seconds=0, min_units=1, seen={})
    assert (phase.attempted, phase.failed) == (1, 1)
    assert "stopped by budget" in phase.failures[0][1]
    # a truncated run contributes no speedup and no normalized energy
    assert phase.models == [] and wl.summarize(phase.models) == {}


def test_drifting_unit_counts_as_failed():
    wl = workloads.MmulVectors(seed=1)
    seen = {0: ("not", "these", "counts")}
    phase = run.run_phase(wl, seconds=0, min_units=1, seen=seen)
    assert phase.failed == 1 and "drifted" in phase.failures[0][1]


def test_symbol_cycles_reconcile_with_total_cycles():
    runs = [(guests.build_guest("x25519_ladder", "CI-AE"), ()),
            (guests.build_guest("irq_sweep_partial", "CI-PE"), (300,))]
    for guest, irq in runs:
        with tracing.Tracer() as tracer:
            _, stats = workloads.run_guest(guest, irq=irq)
        counts = tracer.symbol_summary()
        assert tracer.reconcile_errors == 0
        assert sum(c for c, _ in counts.values()) == stats.total_cycles
        assert sum(r for _, r in counts.values()) == stats.retired
        assert not any(key.endswith(".other") for key in counts)
    assert counts["CI-PE.irq_entry"] == [3, 0]
    assert counts["CI-PE.hx_handler"][1] == 13


def test_tracer_restores_the_library():
    def library():
        return (guests.build_guest, workloads.Cpu.step,
                workloads.Machine.__init__)
    before = library()
    with tracing.Tracer():
        assert guests.build_guest is not before[0]
    assert library() == before


def test_tail_is_a_fixed_nearest_rank_percentile():
    # 2 % apart, so every sample has a histogram bucket of its own
    times = [1e-5 * 1.02 ** k for k in range(1000)]
    assert run.tail(run.Durations(times), 99) == (times[989], 10)
    assert run.tail(run.Durations(times[:12]), 90) == (times[10], 1)
    assert run.tail(run.Durations([3.0, 1.0, 2.0]), 100) == (3.0, 0)


def test_figures_come_from_the_slowest_tenth_of_the_windows():
    phase = run.Phase(seconds=30)
    for k in range(30, 0, -1):  # window k holds k units of k ms each
        phase.close([1.0, k, 10 * k, 100 * k], run.Durations([k / 1e3] * k))
    assert len(phase.slow) == 3
    assert phase.rate(1) == 2.0 and phase.rate(3) == 200.0
    assert phase.slow_times().median() == pytest.approx(2.5e-3)


def test_durations_keep_quantiles_in_fixed_memory():
    rng = random.Random(5)
    times = [rng.lognormvariate(-7, 1) for _ in range(5001)]
    durations = run.Durations(times)
    size = len(durations.counts), len(durations.sums)
    assert math.isclose(durations.median(), statistics.median(times),
                        rel_tol=1e-2)
    assert run.Durations([2.0, 1.0, 4.0, 3.0]).median() == 2.5
    for t in times:
        durations.add(t)
    assert (len(durations.counts), len(durations.sums)) == size


def test_each_mode_prints_the_metrics_of_benchmark_json(capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "mmul_vectors", "--seed", "3",
                         "--seconds", "0.3", "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[kind]]


def test_golden_guest_table():
    stored = json.loads(golden.PATH.read_text())
    assert golden.guest_table() == stored["guests"]


def test_benchmark_run_checks_the_guest_table():
    stored = json.loads(golden.PATH.read_text())["guests"]
    assert golden.guest_mismatches(stored) == []
    stored["modexp256/CI-AE"] = dict(stored["modexp256/CI-AE"],
                                     total_cycles=1)
    assert golden.guest_mismatches(stored) == ["modexp256/CI-AE"]
