"""Command-line front end: run guests, compare configurations, inspect
encodings, and self-test the engine against the big-integer oracle."""

import argparse
import functools
import json
import os
import random
import sys

from . import encoding
from .engine import DEFAULT_MAX_WORDS, MmulOperands, r2mm_reference
from .errors import InvalidConfig, SimError
from .guests import GUEST_NAMES, build_guest
from .machine import DATA_BASE, Machine
from .perf import (CONFIGS, PowerModel, RunStats, estimate_energy,
                   interrupt_latency_report)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TRAP = 2
EXIT_BUDGET = 3


def _int(text, option):
    """An integer option value, hex or decimal."""
    try:
        return int(text, 0)
    except ValueError:
        raise SimError(f"{option} expects an integer, got {text!r}") from None


def _parse_params(pairs):
    params = {}
    for item in pairs or ():
        key, _, value = item.partition("=")
        if not _:
            raise SimError(f"--set expects name=value, got {item!r}")
        params[key] = _int(value, f"--set {key}")
    return params


def _parse_sweep(spec):
    parts = spec.split(":")
    if len(parts) != 3:
        raise SimError(f"bad sweep spec {spec!r}")
    start, end, step = (_int(x, "--sweep") for x in parts)
    if step <= 0 or end <= start:
        raise SimError(f"bad sweep spec {spec!r}")
    if start < 0:
        raise SimError("--sweep start must be at least 0")
    return range(start, end, step)


def _run_one(args, config, irq_cycles=()):
    guest = build_guest(args.guest, config, _parse_params(args.set))
    run = functools.partial(guest.run, args.read_latency, args.write_latency,
                            budget=args.budget, max_words=args.words)
    if args.sweep:
        # one run per assert cycle; counters and latencies add up
        return functools.reduce(RunStats.merge, (
            run([at])[1] for at in _parse_sweep(args.sweep)))
    return run(irq_cycles)[1]


def _exit_code(stats):
    if stats.unclean() is None:
        return EXIT_OK
    if stats.stop_reason == "budget":
        return EXIT_BUDGET
    return EXIT_TRAP


def _reference(args, runs):
    """The clean BA run that normalizes the energy of `runs` (config ->
    RunStats of the guest), or why there is none.  It is the BA run among
    `runs`; `run` reruns BA in-process when that is missing."""
    if "BA" in runs:
        stats = runs["BA"]
    elif args.sweep:
        return "a --sweep report has no BA reference"
    elif args.command == "compare":
        return "no BA run among --configs"
    else:
        try:
            stats = _run_one(args, "BA")
        except InvalidConfig:
            return f"{args.guest} pins its configuration: no BA reference"
    unclean = stats.unclean()
    return f"the BA reference {unclean}" if unclean else stats


def _report(stats, reference):
    """The run's report doc, its energy figures null unless the run halted
    cleanly.  `reference` is what `_reference` gave; without a reference
    run normalized_energy stays null, and normalized_energy_reason says
    why."""
    doc = stats.to_dict()
    doc["avg_power_watts"] = doc["normalized_energy"] = None
    doc["normalized_energy_reason"] = None
    unclean = stats.unclean()
    if unclean:
        doc["normalized_energy_reason"] = f"the run {unclean}"
        return doc
    model = PowerModel()
    reference_energy = None
    if isinstance(reference, RunStats):
        reference_energy = estimate_energy(reference, model, "BA").energy
    est = estimate_energy(stats, model, stats.config, reference_energy)
    doc["avg_power_watts"] = est.avg_power_watts
    doc["normalized_energy"] = est.normalized_energy
    if est.normalized_energy is None:
        doc["normalized_energy_reason"] = reference
    return doc


def _write(args, doc, table):
    """doc as JSON or as the text `table(doc)`, to the --out file that
    `main` opened or to stdout."""
    text = json.dumps(doc, indent=2) if args.format == "json" else table(doc)
    print(text, file=args.out)


def _run_table(doc):
    lines = [f"{'field':<24} value"]
    for key, value in doc.items():
        if key == "module_active_cycles":
            for mod, cyc in value.items():
                lines.append(f"{'active.' + mod:<24} {cyc}")
        elif key == "interrupt_latencies":
            lats = [s - a for a, s in value]
            lines.append(f"{'irq.count':<24} {len(lats)}")
            if lats:
                lines.append(f"{'irq.max_latency':<24} {max(lats)}")
        else:
            lines.append(f"{key:<24} {value}")
    return "\n".join(lines)


def _compare_table(doc):
    lines = [f"guest: {doc['guest']}",
             f"{'config':<8} {'cycles':>12} {'speedup':>9} "
             f"{'power(W)':>9} {'norm.energy':>12}"]
    reasons = []
    for row in doc["rows"]:
        cells = ["-" if row[k] is None else row[k]
                 for k in ("speedup", "avg_power_watts", "normalized_energy")]
        lines.append(f"{row['config']:<8} {row['cycles']:>12} "
                     f"{cells[0]:>9} {cells[1]:>9} {cells[2]:>12}")
        for label, key in (("speedup", "speedup_reason"),
                           ("norm.energy", "normalized_energy_reason")):
            if row[key]:
                reasons.append(f"{row['config']:<8} no {label}: {row[key]}")
    return "\n".join(lines + reasons)


def cmd_run(args):
    irq = [_int(x, "--irq") for x in args.irq or ()]
    if any(at < 0 for at in irq):
        raise SimError("--irq cycles must be at least 0")
    if irq and args.sweep:  # a sweep asserts its own cycle in each run
        raise SimError("--irq and --sweep cannot be combined")
    stats = _run_one(args, args.config, irq_cycles=irq)
    # an unclean run reports no energy: it needs no BA reference run
    reference = None if stats.unclean() else \
        _reference(args, {args.config: stats})
    doc = _report(stats, reference)
    if stats.interrupt_latencies:
        doc["interrupt_latency_report"] = interrupt_latency_report(stats)
    _write(args, doc, _run_table)
    return _exit_code(stats)


def _rounded(value, digits):
    return None if value is None else round(value, digits)


def cmd_compare(args):
    """Speedup is against the first configuration and, like the energy
    figures, null unless both runs halted cleanly; each row says why a
    figure is null.  The exit code is that of the first run that did
    not halt cleanly."""
    configs = args.configs or list(CONFIGS)
    runs = {config: _run_one(args, config) for config in configs}
    reference = _reference(args, runs)
    base = runs[configs[0]]
    rows = []
    for config in configs:
        stats = runs[config]
        doc = _report(stats, reference)
        speedup = speedup_reason = None
        if stats.unclean():
            speedup_reason = f"the run {stats.unclean()}"
        elif base.unclean():
            speedup_reason = f"{configs[0]} {base.unclean()}"
        else:
            speedup = round(base.total_cycles / stats.total_cycles, 3)
        rows.append({"config": config, "cycles": stats.total_cycles,
                     "speedup": speedup, "speedup_reason": speedup_reason,
                     "avg_power_watts": _rounded(doc["avg_power_watts"], 4),
                     "normalized_energy":
                         _rounded(doc["normalized_energy"], 5),
                     "normalized_energy_reason":
                         doc["normalized_energy_reason"]})
    _write(args, {"guest": args.guest, "rows": rows}, _compare_table)
    codes = [_exit_code(runs[config]) for config in configs]
    return next((code for code in codes if code != EXIT_OK), EXIT_OK)


def cmd_selftest(args):
    seed = os.environ.get("MMULRV_SEED")
    rng = random.Random(_int(seed, "MMULRV_SEED") if seed else 12345)
    failures = 0
    for words in range(1, args.words + 1):
        n_bits = 32 * words
        addrs = [DATA_BASE + 4 * words * i for i in range(4)]  # A B N P
        ops = MmulOperands(*addrs, words)
        failed_before = failures
        for _ in range(args.vectors):
            n_mod = max(rng.getrandbits(n_bits) | 1, 3)
            a = rng.randrange(n_mod)
            b = rng.randrange(n_mod)
            expect = (a * b * pow(1 << n_bits, -1, n_mod)) % n_mod
            runs = []  # (result, total cycles): atomic, then partial
            for partial in (False, True):
                machine = Machine(max_words=args.words)
                for addr, val in zip(addrs, (a, b, n_mod)):
                    machine.load_image(val.to_bytes(4 * words, "little"), addr)
                engine = machine.engine
                if partial:
                    cycles = sum(engine.execute_partial_call(
                        machine, ops).cycles for _ in range(n_bits))
                else:
                    cycles = engine.execute_atomic(machine, ops).cycles
                runs.append((machine.mem.read(addrs[3], 4 * words), cycles))
            ref = r2mm_reference(a, b, n_mod, n_bits)
            if runs[0][0] != expect or runs[1] != runs[0] or ref != expect:
                failures += 1
                print(f"FAIL words={words} a={a:#x} b={b:#x} n={n_mod:#x}")
        print(f"words={words}: {args.vectors} vectors "
              f"{'ok' if failures == failed_before else 'FAILED'}")
    print("selftest " + ("PASSED" if failures == 0 else
                         f"FAILED ({failures} vectors)"))
    return EXIT_OK if failures == 0 else EXIT_ERROR


def cmd_encode(args):
    word = encoding.encode_r4(args.rd, args.rs1, args.rs2, args.rs3,
                              args.op_words)
    print(f"encoding: 0x{word:08X}")
    print(f"directive: {encoding.insn_directive(args.rd, args.rs1, args.rs2, args.rs3, args.op_words)}")
    print(f"decoded: {encoding.decode_r4(word)}")
    print("format capacity (max operand bits):")
    for fmt in ("I", "R", "R4"):
        for xlen in (32, 64):
            cap = encoding.capacity(fmt, xlen)
            print(f"  {fmt:<3} xlen={xlen}: {cap.length_bits_available} bits "
                  f"({cap.length_unit}) -> {cap.max_operand_bits}")
    return EXIT_OK


def _add_words_arg(sp):
    sp.add_argument("--words", type=int, default=DEFAULT_MAX_WORDS,
                    help="hardware max operand length in 32-bit words")


def _add_run_args(sp):
    sp.add_argument("--guest", required=True, choices=GUEST_NAMES)
    sp.add_argument("--set", action="append", metavar="NAME=VALUE",
                    help="override a guest input (hex or decimal)")
    sp.add_argument("--budget", type=int, default=None,
                    help="cycle budget (defaults to a per-guest hint)")
    sp.add_argument("--format", choices=("json", "table"), default="json")
    sp.add_argument("--out", default=None)
    _add_words_arg(sp)
    sp.add_argument("--read-latency", type=int, default=1)
    sp.add_argument("--write-latency", type=int, default=1)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mmulrv",
        description="Cycle-modeling RV32EC simulator with a Montgomery "
                    "multiplication custom instruction")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run one guest under one configuration")
    _add_run_args(sp)
    sp.add_argument("--config", choices=CONFIGS, default="BA")
    sp.add_argument("--irq", action="append", metavar="CYCLE",
                    help="assert the external interrupt at this cycle")
    sp.add_argument("--sweep", metavar="START:END:STEP", default=None,
                    help="run once per assert cycle in the range")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("compare",
                        help="run the same guest under several configurations")
    _add_run_args(sp)
    sp.add_argument("--configs", nargs="+", choices=CONFIGS, default=None)
    sp.set_defaults(func=cmd_compare, sweep=None)

    sp = sub.add_parser("selftest",
                        help="engine, atomic and partial, vs big-integer "
                        "oracle on random vectors")
    sp.add_argument("--vectors", type=int, default=250)
    _add_words_arg(sp)
    sp.set_defaults(func=cmd_selftest)

    sp = sub.add_parser("encode", help="inspect an MMUL encoding")
    sp.add_argument("rd", type=int)
    sp.add_argument("rs1", type=int)
    sp.add_argument("rs2", type=int)
    sp.add_argument("rs3", type=int)
    sp.add_argument("op_words", type=int)
    sp.set_defaults(func=cmd_encode)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        for option in ("words", "vectors"):  # below 1, nothing would run
            if getattr(args, option, 1) < 1:
                raise SimError(f"--{option} must be at least 1")
        if getattr(args, "words", 1) > encoding.MAX_WORDS:
            raise SimError(f"--words must be at most {encoding.MAX_WORDS}")
        if (getattr(args, "budget", None) or 0) < 0:
            raise SimError("--budget must be at least 0")
        if min(getattr(args, "read_latency", 1),
               getattr(args, "write_latency", 1)) < 1:
            raise SimError("latencies must be at least 1")
        path = getattr(args, "out", None)
        if path is None:
            return args.func(args)
        try:  # before the runs, so that a bad path costs no simulation
            args.out = open(path, "w")
        except OSError as exc:
            raise SimError(f"cannot write --out {path}: "
                           f"{exc.strerror}") from exc
        with args.out:
            return args.func(args)
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
