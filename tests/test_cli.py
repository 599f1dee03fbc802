import json
from dataclasses import replace

import pytest

from mmulrv import cli, isa
from mmulrv.cli import (EXIT_BUDGET, EXIT_ERROR, EXIT_OK, EXIT_TRAP, main)
from mmulrv.engine import MmulEngine

RUN_KEYS = {"config", "total_cycles", "retired", "mem_reads", "mem_writes",
            "module_active_cycles", "interrupt_latencies",
            "avg_power_watts", "normalized_energy", "mmul_invocations",
            "stop_reason", "exit_code", "trap_cause", "trap_pc", "trap_insn",
            "normalized_energy_reason"}
SMALL_FIELD = ["--set", "modulus=239", "--set", "words=1"]


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_run_json_schema(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "montmul_once", "--config", "CI-AE",
        "--set", "modulus=239", "--set", "words=1"])
    assert code == EXIT_OK
    assert RUN_KEYS <= set(doc)
    assert doc["config"] == "CI-AE"
    assert doc["total_cycles"] > 0
    assert set(doc["module_active_cycles"]) == \
        {"fetch", "decode", "alu", "regfile", "mmul"}
    # normalized against an in-process software-only rerun
    assert 0 < doc["normalized_energy"] < 1


def test_run_ba_normalizes_to_one(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "montmul_once", "--config", "BA",
        "--set", "modulus=239", "--set", "words=1"])
    assert code == EXIT_OK
    assert doc["normalized_energy"] == 1.0
    assert doc["module_active_cycles"]["mmul"] == 0


def test_run_table_format(capsys):
    code = main(["run", "--guest", "montmul_once", "--config", "CI-AE",
                 "--set", "modulus=239", "--set", "words=1",
                 "--format", "table"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "total_cycles" in out
    assert "active.mmul" in out


def test_run_budget_exit_code(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "modexp256", "--config", "CI-AE", "--budget", "50"])
    assert code == EXIT_BUDGET


def test_run_budget_zero_is_honoured(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "montmul_once", "--config", "CI-AE", *SMALL_FIELD,
        "--budget", "0"])
    assert code == EXIT_BUDGET
    assert (doc["total_cycles"], doc["stop_reason"]) == (0, "budget")


def test_run_report_fields(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "montmul_once", "--config", "CI-AE", *SMALL_FIELD])
    assert code == EXIT_OK
    assert (doc["stop_reason"], doc["exit_code"], doc["trap_cause"],
            doc["mmul_invocations"]) == ("halt", 0, None, 1)
    assert (doc["trap_pc"], doc["trap_insn"]) == (None, None)
    assert doc["normalized_energy"] > 0
    assert doc["normalized_energy_reason"] is None


def test_truncated_run_reports_no_energy(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "modexp128", "--config", "CI-PE", "--budget", "500"])
    assert code == EXIT_BUDGET
    assert doc["stop_reason"] == "budget"
    assert doc["normalized_energy"] is None
    assert doc["normalized_energy_reason"] == "the run stopped by budget"
    assert doc["avg_power_watts"] is None


def test_truncated_reference_reports_no_energy(capsys):
    # CI-AE halts within 8000 cycles, its BA reference does not
    code, doc = _run_json(capsys, [
        "run", "--guest", "modexp128", "--config", "CI-AE",
        "--budget", "8000"])
    assert code == EXIT_OK
    assert doc["avg_power_watts"] > 0
    assert doc["normalized_energy"] is None
    assert doc["normalized_energy_reason"] == \
        "the BA reference stopped by budget"


def test_pinned_guest_reports_why_no_energy(capsys):
    # the irq_sweep guests exist for one configuration: no BA reference
    code, doc = _run_json(capsys, [
        "run", "--guest", "irq_sweep_atomic", "--config", "CI-AE",
        "--irq", "200"])
    assert code == EXIT_OK
    assert doc["normalized_energy"] is None
    assert "pins its configuration" in doc["normalized_energy_reason"]


def test_run_writes_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["run", "--guest", "montmul_once", "--config", "CI-AE",
                 "--set", "modulus=239", "--set", "words=1",
                 "--out", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert RUN_KEYS <= set(doc)


def test_unwritable_out_is_a_usage_error(tmp_path, capsys, monkeypatch):
    """The --out file is opened before the runs: no guest runs at all."""
    runs = []
    monkeypatch.setattr(isa.Cpu, "run", lambda *a, **k: runs.append(a))
    out = tmp_path / "missing" / "report.json"
    for argv in (["run", "--guest", "montmul_once", "--config", "CI-AE",
                  *SMALL_FIELD], ["compare", "--guest", "x25519_ladder"]):
        code = main(argv + ["--out", str(out)])
        assert (code, runs) == (EXIT_ERROR, [])
        assert capsys.readouterr().err == (
            f"error: cannot write --out {out}: No such file or directory\n")


def test_run_with_interrupt(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "irq_sweep_atomic", "--config", "CI-AE",
        "--irq", "200"])
    assert code == EXIT_OK
    assert len(doc["interrupt_latencies"]) == 1
    rep = doc["interrupt_latency_report"]
    assert rep["count"] == 1
    assert rep["max"] >= 4  # at least entry cost + one instruction boundary


def test_run_sweep_aggregates(capsys):
    code, doc = _run_json(capsys, [
        "run", "--guest", "irq_sweep_partial", "--config", "CI-PE",
        "--sweep", "100:160:20"])
    assert code == EXIT_OK
    assert len(doc["interrupt_latencies"]) == 3
    # every service happened within the responsiveness bound for 8 words
    for asserted, serviced in doc["interrupt_latencies"]:
        assert serviced - asserted <= max(3 * 8 + 2, 8 + 3) + 4


def test_run_sweep_sums_counters(capsys):
    argv = ["run", "--guest", "irq_sweep_partial", "--config", "CI-PE"]
    _, agg = _run_json(capsys, argv + ["--sweep", "100:160:20"])
    points = [_run_json(capsys, argv + ["--irq", str(at)])[1]
              for at in (100, 120, 140)]
    for key in ("total_cycles", "retired", "mem_reads", "mem_writes",
                "mmul_invocations"):
        assert agg[key] == sum(p[key] for p in points), key
    assert agg["module_active_cycles"] == {
        mod: sum(p["module_active_cycles"][mod] for p in points)
        for mod in agg["module_active_cycles"]}
    assert agg["interrupt_latencies"] == \
        [lat for p in points for lat in p["interrupt_latencies"]]


def test_bad_set_syntax(capsys):
    code = main(["run", "--guest", "montmul_once", "--set", "oops"])
    assert code == EXIT_ERROR
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["--guest", "irq_sweep_partial", "--config", "CI-PE", "--sweep", "1:2"],
     "bad sweep spec '1:2'"),
    (["--guest", "irq_sweep_partial", "--config", "CI-PE",
      "--sweep", "1:x:1"], "--sweep expects an integer, got 'x'"),
    (["--guest", "montmul_once", "--set", "a=xyz"],
     "--set a expects an integer, got 'xyz'"),
    (["--guest", "montmul_once", "--irq", "xyz"],
     "--irq expects an integer, got 'xyz'"),
], ids=["sweep-fields", "sweep-value", "set-value", "irq-value"])
def test_malformed_number_is_a_usage_error(capsys, argv, message):
    assert main(["run", *argv]) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


RUN_ONCE = ["run", "--guest", "montmul_once"]


@pytest.mark.parametrize("argv,message", [
    (RUN_ONCE + ["--read-latency", "-1"], "latencies must be at least 1"),
    (RUN_ONCE + ["--write-latency", "-2"], "latencies must be at least 1"),
    (RUN_ONCE + ["--config", "CI-AE", "--read-latency", "0"],
     "latencies must be at least 1"),
    (RUN_ONCE + ["--config", "CI-AE", "--write-latency", "0"],
     "latencies must be at least 1"),
    (RUN_ONCE + ["--set", "foo=1"], "montmul_once has no input foo; its "
                                    "inputs are modulus, words, a, b, irq"),
    (RUN_ONCE + ["--config", "CI-AE", "--words", "-3"],
     "--words must be at least 1"),
    (["selftest", "--words", "0", "--vectors", "2"],
     "--words must be at least 1"),
    (RUN_ONCE + ["--words", "33"], "--words must be at most 32"),
    (["selftest", "--words", "33", "--vectors", "1"],
     "--words must be at most 32"),
    (["selftest", "--vectors", "0"], "--vectors must be at least 1"),
    (["run", "--guest", "irq_sweep_partial", "--config", "CI-PE",
      "--irq", "-50"], "--irq cycles must be at least 0"),
    (["run", "--guest", "irq_sweep_partial", "--config", "CI-PE",
      "--sweep=-20:-10:1"], "--sweep start must be at least 0"),
    (["run", "--guest", "irq_sweep_partial", "--config", "CI-PE",
      "--sweep", "100:120:10", "--irq", "5"],
     "--irq and --sweep cannot be combined"),
    (["run", "--guest", "x25519_ladder", "--config", "CI-AE",
      "--set", "scalar_bits=0"], "scalar_bits must be in 1..32 at desk scale"),
    (["run", "--guest", "modexp128", "--config", "CI-AE",
      "--set", "exponent=0x1FFFF"],
     "exponent must be in 0..65535 for exponent_bits 16"),
    (["run", "--guest", "x25519_ladder", "--config", "CI-AE",
      "--set", "scalar=0x1FF", "--set", "scalar_bits=4"],
     "scalar must be in 0..15 for scalar_bits 4"),
    (RUN_ONCE + ["--config", "CI-AE", "--set", "modulus=239", "--set",
                 "words=1", "--budget", "-5"], "--budget must be at least 0"),
    (["compare", "--guest", "montmul_once", "--budget", "-1"],
     "--budget must be at least 0"),
    (RUN_ONCE + ["--set", "modulus=-7", "--set", "words=1"],
     "field modulus must be at least 1"),
    (RUN_ONCE + ["--set", "words=-1"], "words must be at least 1"),
    (["compare", "--guest", "montmul_once", "--set", "words=0"],
     "words must be at least 1"),
], ids=["read-latency", "write-latency", "read-latency-zero",
        "write-latency-zero", "set-name", "run-words",
        "selftest-words", "run-words-above-encoding",
        "selftest-words-above-encoding", "selftest-vectors", "irq-negative",
        "sweep-negative-start", "irq-with-sweep", "scalar-bits-zero", "set-exponent-too-wide",
        "set-scalar-too-wide",
        "run-budget-negative",
        "compare-budget-negative", "set-modulus-negative",
        "set-words-negative", "compare-set-words-zero"])
def test_bad_machine_or_guest_input_is_a_usage_error(capsys, argv, message):
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"


def test_only_a_clean_run_gets_a_reference_run(capsys, monkeypatch):
    """`run` reruns the guest under BA for normalized energy, which an
    unclean run does not report: a trapped CI-AE run makes no BA run."""
    configs = []
    run_one = cli._run_one

    def counted(args, config, **kwargs):
        configs.append(config)
        return run_one(args, config, **kwargs)

    monkeypatch.setattr(cli, "_run_one", counted)
    code, doc = _run_json(capsys, [
        "run", "--guest", "x25519_ladder", "--config", "CI-AE",
        "--words", "4"])
    assert (code, doc["stop_reason"], configs) == (EXIT_TRAP, "trap",
                                                   ["CI-AE"])
    configs.clear()
    code, doc = _run_json(capsys, [
        "run", "--guest", "montmul_once", "--config", "CI-AE", *SMALL_FIELD])
    assert (code, configs) == (EXIT_OK, ["CI-AE", "BA"])
    assert doc["normalized_energy"] is not None


def test_empty_sweep_rejected(capsys):
    code = main(["run", "--guest", "irq_sweep_partial", "--config", "CI-PE",
                 "--sweep", "100:100:1"])
    assert code == EXIT_ERROR
    assert "bad sweep spec" in capsys.readouterr().err


def test_compare_table(capsys):
    code = main(["compare", "--guest", "montmul_once",
                 "--set", "modulus=239", "--set", "words=1",
                 "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    rows = {r["config"]: r for r in doc["rows"]}
    assert set(rows) == {"BA", "CI-AE", "CI-PE"}
    assert rows["BA"]["speedup"] == 1.0
    assert rows["CI-AE"]["speedup"] > rows["CI-PE"]["speedup"] > 1.0
    assert rows["CI-AE"]["normalized_energy"] < \
        rows["CI-PE"]["normalized_energy"] < 1.0


def test_compare_subset(capsys):
    code = main(["compare", "--guest", "montmul_once",
                 "--set", "modulus=239", "--set", "words=1",
                 "--configs", "CI-AE", "CI-PE"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert [r["config"] for r in doc["rows"]] == ["CI-AE", "CI-PE"]
    # no BA run: nothing to normalize against
    assert all(r["normalized_energy"] is None for r in doc["rows"])
    assert all(r["normalized_energy_reason"] == "no BA run among --configs"
               for r in doc["rows"])
    assert all(r["speedup"] is not None and r["speedup_reason"] is None
               for r in doc["rows"])


def test_compare_truncated_rows(capsys):
    code = main(["compare", "--guest", "modexp128", "--budget", "2000"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_BUDGET
    for row in doc["rows"]:
        assert row["speedup"] is None
        assert row["normalized_energy"] is None
        assert row["speedup_reason"] == row["normalized_energy_reason"] == \
            "the run stopped by budget"
    code = main(["compare", "--guest", "modexp128", "--budget", "2000",
                 "--format", "table"])
    assert code == EXIT_BUDGET
    out = capsys.readouterr().out
    assert "BA" in out
    assert "CI-PE    no norm.energy: the run stopped by budget" in out
    # CI-AE halts within 8000 cycles, BA (the first configuration) does not
    code = main(["compare", "--guest", "modexp128", "--budget", "8000",
                 "--configs", "BA", "CI-AE"])
    assert code == EXIT_BUDGET
    ba, ae = json.loads(capsys.readouterr().out)["rows"]
    assert ba["speedup_reason"] == "the run stopped by budget"
    assert (ae["speedup"], ae["speedup_reason"]) == \
        (None, "BA stopped by budget")
    assert (ae["normalized_energy"], ae["normalized_energy_reason"]) == \
        (None, "the BA reference stopped by budget")
    assert ae["avg_power_watts"] > 0


def test_selftest_passes(capsys):
    code = main(["selftest", "--vectors", "5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "selftest PASSED" in out


def test_selftest_reports_every_width_up_to_words(capsys, monkeypatch):
    """One line for each width from 1 word to --words, by its own
    vectors: a failure at one width leaves the others ok."""
    argv = ["selftest", "--words", "3", "--vectors", "2"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "words=1: 2 vectors ok", "words=2: 2 vectors ok",
        "words=3: 2 vectors ok", "selftest PASSED"]
    reference = cli.r2mm_reference
    monkeypatch.setattr(cli, "r2mm_reference", lambda a, b, n, n_bits:
                        reference(a, b, n, n_bits) + (n_bits == 64))
    assert main(argv) == EXIT_ERROR
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("words=")] == [
        "words=1: 2 vectors ok", "words=2: 2 vectors FAILED",
        "words=3: 2 vectors ok"]
    assert lines[-1] == "selftest FAILED (2 vectors)"


@pytest.mark.parametrize("breaks", ["result", "cycles"])
def test_selftest_fails_a_broken_partial_path(capsys, monkeypatch, breaks):
    """Each vector also runs as 32*W partial calls on a fresh machine,
    which must give the atomic run's result and total cycles."""
    real = MmulEngine.execute_partial_call

    def broken(engine, machine, ops):
        res = real(engine, machine, ops)
        if ops.words != 2 or res.call_kind != "last":
            return res
        if breaks == "cycles":
            return replace(res, cycles=res.cycles + 1)
        p = machine.mem.read(ops.addr_p, 8)
        machine.load_image((p ^ 1).to_bytes(8, "little"), ops.addr_p)
        return res

    monkeypatch.setattr(MmulEngine, "execute_partial_call", broken)
    assert main(["selftest", "--words", "3", "--vectors", "2"]) == EXIT_ERROR
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("words=")] == [
        "words=1: 2 vectors ok", "words=2: 2 vectors FAILED",
        "words=3: 2 vectors ok"]
    assert lines[-1] == "selftest FAILED (2 vectors)"


def test_selftest_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("MMULRV_SEED", "0x1234")
    assert main(["selftest", "--vectors", "2"]) == EXIT_OK


def test_selftest_malformed_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("MMULRV_SEED", "abc")
    assert main(["selftest", "--vectors", "2"]) == EXIT_ERROR
    assert capsys.readouterr().err == \
        "error: MMULRV_SEED expects an integer, got 'abc'\n"


def test_encode_output(capsys):
    code = main(["encode", "10", "11", "12", "13", "4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0x68C5B50B" in out
    assert ".insn r4 0x0b, 3, 0, x10, x11, x12, x13" in out
    assert "32768" in out and "2048" in out


def test_trap_exit_code(capsys):
    # an even modulus makes the engine fault; the run stops as a trap
    code, doc = _run_json(capsys, [
        "run", "--guest", "montmul_once", "--config", "CI-AE",
        "--set", "modulus=239", "--set", "words=1", "--set", "a=0"])
    assert code == EXIT_OK  # sanity: a=0 is still a clean run
    code = main(["run", "--guest", "modexp128", "--config", "CI-AE",
                 "--set", "modulus=" + str((1 << 127) - 2)])
    assert code == EXIT_ERROR or code == EXIT_TRAP
