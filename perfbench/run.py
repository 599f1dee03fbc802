"""mmulrv benchmark: host speed end to end and per layer, with the simulated
model results pinned.

    python3 perfbench/run.py --workload compare_montmul --seed 1 \
        --seconds 30 --trace 0

Runs from the root of a source checkout and imports mmulrv from its `src/`.
One process, one closed-loop client: the next unit starts when the previous
one has finished and been checked.  --trace 0 prints the end-to-end metrics;
--trace 1 first measures untraced, then wraps the library's layers and
prints the per-layer metrics.  The metric names and units are those listed
in BENCHMARK.json.  The last line of standard output is the JSON result; a
fuller record goes to perfbench/out/.
"""

import argparse
import array
import bisect
import gc
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6        # fresh-interpreter set-ups before and again after
                        # the measured phase; setup_s is their median
SPAN_UNITS = 20         # traced units whose spans are written out
WINDOW_S = 1.0          # host-time figures are read from the slowest
SLOW_SHARE = 0.1        # tenth of the windows of at least this length
SIM_SYMBOLS = ("driver", "montmul", "hx_handler", "irq_entry")
MAX_FAILURES_KEPT = 20


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("compare_montmul", "irq_sweep", "mmul_vectors"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment():
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "mmulrv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "started_utc": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "loadavg_start": os.getloadavg(),
    }


def setup_probes(workload, seed):
    """Seconds that fresh interpreters take to import mmulrv and set up the
    workload, as each one reports it."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


class Durations:
    """Unit wall times in a fixed-size histogram of log-spaced buckets, each
    1 % wide, that also sums the times in each bucket.  Its memory does not
    grow with the number of units, so a faster program, which completes more
    units, does not raise the peak RSS the benchmark reports.  A quantile is
    the mean of the samples in the bucket that holds its rank: exact when
    that bucket holds one sample, and within 1 % otherwise."""

    LOW = 1e-6          # seconds; shorter and longer times go into the
    HIGH = 1e4          # first and last bucket
    RATIO = 1.01
    SCALE = 1 / math.log(RATIO)
    SIZE = math.ceil(math.log(HIGH / LOW) * SCALE) + 1

    def __init__(self, values=()):
        self.counts = array.array("q", bytes(8 * self.SIZE))
        self.sums = array.array("d", bytes(8 * self.SIZE))
        self.n = 0
        for value in values:
            self.add(value)

    def add(self, seconds):
        b = math.log(seconds / self.LOW) * self.SCALE if seconds > self.LOW \
            else 0
        b = min(int(b), self.SIZE - 1)
        self.counts[b] += 1
        self.sums[b] += seconds
        self.n += 1

    def update(self, other):
        for b in range(self.SIZE):
            self.counts[b] += other.counts[b]
            self.sums[b] += other.sums[b]
        self.n += other.n

    def __len__(self):
        return self.n

    def at_rank(self, rank):
        """The sample of 1-based rank `rank` in ascending order."""
        if not 1 <= rank <= self.n:
            raise IndexError(rank)
        b = bisect.bisect_left(list(itertools.accumulate(self.counts)), rank)
        return self.sums[b] / self.counts[b]

    def median(self):
        return (self.at_rank((self.n + 1) // 2)
                + self.at_rank(self.n // 2 + 1)) / 2


class Phase:
    """Units run back to back for a fixed time, and what they produced.

    Host-time figures are read from the slowest tenth of the phase's
    windows, by units per second.  The shared host this was tuned on
    alternates between a slower, contended speed, present in nearly every
    run, and bursts up to twice as fast that fill a varying share of a run.
    The slowest tenth of ~1 s windows reads the contended speed and so
    repeats from run to run, where figures over the whole run follow the
    share of bursts."""

    def __init__(self, seconds):
        self.attempted = 0
        self.failures = []
        self.unit_s = Durations()  # wall time of every unit that passed
        self.windows = []     # [seconds, units passed, retired, cycles]
        self.keep = max(1, round(SLOW_SHARE * seconds / WINDOW_S))
        self.slow = []        # the `keep` slowest windows as (units/s,
                              # number, window, their unit times)
        self.elapsed = 0.0
        self.models = []      # model data of the first model_units units

    @property
    def failed(self):
        return self.attempted - len(self.unit_s)

    def close(self, window, times):
        self.windows.append(window)
        self.slow.append((window[1] / window[0], len(self.windows), window,
                          times))
        self.slow.sort(key=lambda entry: entry[:2])
        del self.slow[self.keep:]

    def rate(self, column):
        """Units, retired instructions (2) or simulated cycles (3) per second
        over the slowest windows."""
        return (sum(w[column] for _, _, w, _ in self.slow)
                / sum(w[0] for _, _, w, _ in self.slow))

    def slow_times(self):
        """The unit times of the slowest windows."""
        pooled = Durations()
        for _, _, _, times in self.slow:
            pooled.update(times)
        return pooled


def run_phase(wl, seconds, min_units, seen, unit_fn=None, after_unit=None):
    """Run units 0, 1, ... until `seconds` have passed and at least
    `min_units` were attempted.  A unit fails when a check fails, when the
    simulator raises, or when its simulated counts differ from an earlier
    run of the same unit (`seen`)."""
    from mmulrv.errors import SimError
    from workloads import Unit

    unit_fn = unit_fn or wl.unit
    phase = Phase(seconds)
    clock = time.perf_counter
    start = window_start = clock()
    window, times = [0.0, 0, 0, 0], Durations()
    i = 0
    while i < min_units or clock() - start < seconds:
        t0 = clock()
        try:
            unit = unit_fn(i)
        except SimError as exc:
            unit = Unit(failed=f"{type(exc).__name__}: {exc}")
        elapsed = clock() - t0
        if unit.failed is None and \
                seen.setdefault(wl.key(i), unit.signature) != unit.signature:
            unit.failed = "simulated counts drifted from an earlier run"
        reason = after_unit(i) if after_unit is not None else None
        unit.failed = unit.failed or reason
        phase.attempted += 1
        if unit.failed is None:
            phase.unit_s.add(elapsed)
            times.add(elapsed)
            window[1] += 1
            window[2] += unit.retired
            window[3] += unit.cycles
            if i < wl.model_units:
                phase.models.append(unit.model)
        elif len(phase.failures) < MAX_FAILURES_KEPT:
            phase.failures.append([i, unit.failed])
        i += 1
        now = clock()
        if now - window_start >= WINDOW_S:
            window[0] = now - window_start
            phase.close(window, times)
            window, times, window_start = [0.0, 0, 0, 0], Durations(), now
    phase.elapsed = clock() - start
    if not phase.windows:  # a last window shorter than WINDOW_S is dropped
        window[0] = phase.elapsed
        phase.close(window, times)
    return phase


def tail(durations, pct):
    """(value, samples beyond it): the nearest-rank `pct` percentile.  The
    percentile is fixed per workload, so that a faster program, which
    completes more units, is compared at the same percentile as its
    parent."""
    n = len(durations)
    rank = max(1, math.ceil(pct * n / 100))
    return durations.at_rank(rank), n - rank


def end_to_end(wl, seconds):
    probes = setup_probes(wl.name, wl.seed)
    wl.setup()
    gc.collect()
    phase = run_phase(wl, seconds, wl.model_units, {})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    probes += setup_probes(wl.name, wl.seed)
    slow, times = phase.slow_times(), phase.unit_s
    # the tail over the whole run: the slowest units come from the contended
    # speed anyway, and the whole run gives more samples beyond the tail
    value, beyond = tail(times, wl.tail_pct) if times else (0.0, 0)
    metrics = {
        "setup_s": statistics.median(probes),
        "units_per_s": phase.rate(1),
        "unit_ms_p50": 1e3 * slow.median() if slow else 0.0,
        "unit_ms_tail": 1e3 * value,
        "sim_kips": phase.rate(2) / 1e3,
        "sim_kcycles_per_s": phase.rate(3) / 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {"units": len(times), "elapsed_s": phase.elapsed,
              "windows": len(phase.windows),
              "window_units_per_s": sorted(w[1] / w[0] for w in phase.windows),
              "slow_windows": len(phase.slow), "slow_units": len(slow),
              "setup_probe_s": probes,
              "unit_ms_tail_percentile": wl.tail_pct,
              "unit_ms_tail_samples_beyond": beyond,
              "unit_ms_quantiles_all_units": {
                  f"p{q / 10:g}": 1e3 * times.at_rank(
                      max(1, math.ceil(q * len(times) / 1000)))
                  for q in (100, 250, 500, 750, 900, 990, 999) if times},
              "model": wl.summarize(phase.models)}
    return [phase], metrics, detail


def per_layer(wl, seconds):
    import tracing
    import workloads
    from mmulrv import isa

    # untraced first: the reference for the tracing overhead and the
    # source of the model results
    wl.setup()
    gc.collect()
    seen = {}
    phase_a = run_phase(wl, seconds / 3, wl.model_units, seen)
    model = wl.summarize(phase_a.models)

    tracer = tracing.Tracer(engine_spans=wl.name == "mmul_vectors")
    window = {}
    gold = (wl.golden or {}).get("symbols")
    per_unit = []  # the first SPAN_UNITS units' wall time split by layer
    last = {}

    def account(i):
        now = {name: (a.total_s, a.self_s) for name, a in tracer.acc.items()}
        split = {name: self_s - last.get(name, (0.0, 0.0))[1]
                 for name, (_, self_s) in now.items()}
        wall = now["unit"][0] - last.get("unit", (0.0, 0.0))[0]
        residual = split.pop("unit")
        per_unit.append({"unit": i, "wall_s": wall, "residual_s": residual,
                         "self_s": {k: v for k, v in split.items() if v}})
        last.update(now)

    def after_unit(i):
        if i < SPAN_UNITS:
            account(i)
        if i + 1 == SPAN_UNITS:
            tracer.keep_spans = False
        errors, tracer.reconcile_errors = tracer.reconcile_errors, 0
        if errors:
            return "symbol cycles do not add up to total_cycles"
        if i + 1 != wl.sim_units:
            return None
        window.update(
            symbols=tracer.symbol_summary(),
            engine_cycles=tracer.engine_sim_cycles,
            partial_calls=tracer.acc["engine.partial"].calls,
            partial_sequences=tracer.partial_sequences)
        if gold is not None and window["symbols"] != gold:
            return "per-symbol counts differ from the golden table"
        return None

    with tracer:
        set_up = tracer.timed("setup", wl.setup, span=True)
        set_up()
        build = tracer.acc["guests.build"]
        build_calls, build_s = build.calls, build.self_s
        tracer.reset()
        # from a cold cache, so that the ratio shows the traced units' own
        # misses rather than a cache the untraced phase has warmed
        isa.decode.cache_clear()
        remaining = seconds - phase_a.elapsed
        phase_b = run_phase(wl, remaining, wl.sim_units, seen,
                            unit_fn=tracer.timed("unit", wl.unit, span=True),
                            after_unit=after_unit)
        decode = isa.decode.cache_info()
    acc = tracer.acc
    n = phase_b.attempted
    hits, misses = decode.hits, decode.misses
    unit = acc["unit"]
    layers = {name: {"calls": a.calls, "total_s": a.total_s,
                     "self_s": a.self_s} for name, a in sorted(acc.items())}

    def calls(name):
        return acc[name].calls / n

    def self_s(*names):
        return sum(acc[name].self_s for name in names) / n

    metrics = {
        "machine.fetch_calls": calls("machine.fetch"),
        "machine.fetch_s": self_s("machine.fetch"),
        "isa.decode_calls": calls("isa.decode"),
        "isa.decode_s": self_s("isa.decode"),
        "isa.decode_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "isa.decode_misses": misses,
        "isa.steps": calls("isa.step"),
        "isa.step_self_s": self_s("isa.step"),
        "isa.run_self_s": self_s("isa.run"),
        "machine.lsu_calls.isa": calls("machine.lsu.isa"),
        "machine.lsu_s.isa": self_s("machine.lsu.isa"),
        "engine.atomic_calls": calls("engine.atomic"),
        "engine.atomic_self_s": self_s("engine.atomic"),
        "engine.partial_calls": calls("engine.partial"),
        "engine.partial_self_s": self_s("engine.partial"),
        "machine.lsu_calls.engine": calls("machine.lsu.engine"),
        "machine.lsu_s.engine": self_s("machine.lsu.engine"),
        "engine.sim_cycles": window.get("engine_cycles", 0),
        "engine.partial_calls_per_mmul":
            window["partial_calls"] / window["partial_sequences"]
            if window.get("partial_sequences") else 0.0,
        "machine.init_calls": calls("machine.init"),
        "machine.init_s": self_s("machine.init", "machine.memory",
                                 "machine.load"),
        "machine.csr_calls": calls("machine.csr"),
        "machine.csr_s": self_s("machine.csr"),
        "isa.irq_entries": tracer.irq_entries / n,
        "perf.latency_report_s": self_s("perf.latency_report"),
        "sweep.useful_ratio": model.get("sweep.useful_ratio", 0.0),
        "guests.build_calls": build_calls,
        "guests.build_s": build_s,
        "perf.energy_calls": calls("perf.energy"),
        "perf.energy_s": self_s("perf.energy"),
    }
    symbols = window.get("symbols", {})
    for config in workloads.CONFIGS:
        for symbol in SIM_SYMBOLS:
            c, r = symbols.get(f"{config}.{symbol}", (0, 0))
            metrics[f"sim.cycles.{config}.{symbol}"] = c
            metrics[f"sim.retired.{config}.{symbol}"] = r
    for name in ("model.speedup_ae", "model.speedup_pe", "model.energy_ae",
                 "model.energy_pe", "model.irq_latency_max_pe",
                 "model.irq_latency_max_ae"):
        metrics[name] = model.get(name, 0)
    attempted = phase_a.attempted + phase_b.attempted
    metrics.update({
        "failed_ratio": (phase_a.failed + phase_b.failed) / attempted,
        "trace.units_per_s_untraced": phase_a.rate(1),
        "trace.units_per_s_traced": phase_b.rate(1),
        "trace.overhead_x": phase_a.rate(1) / phase_b.rate(1)
        if phase_b.rate(1) else 0.0,
        "trace.unit_wall_s": unit.total_s / n,
        "trace.residual_s": unit.self_s / n,
        "trace.residual_ratio": unit.self_s / unit.total_s,
    })
    detail = {
        "units_untraced": len(phase_a.unit_s), "units_traced": n,
        "model": model, "sim_window": window, "layers": layers,
        "layer_self_s_sum": sum(a.self_s for name, a in acc.items()
                                if name != "unit"),
        "per_unit": per_unit,
        "spans": tracer.spans,
    }
    return [phase_a, phase_b], metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mmulrv" / "__init__.py").is_file():
        print(f"error: no mmulrv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import golden as golden_table
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads(golden_table.PATH.read_text())
    env = environment()
    wl = workloads.make(args.workload, args.seed, golden)
    measure = per_layer if args.trace else end_to_end
    phases, values, detail = measure(wl, args.seconds)
    # after the measured phase, so that it moves neither time nor peak RSS;
    # counted as one more unit
    guests_differ = golden_table.guest_mismatches(golden["guests"])
    env["loadavg_end"] = os.getloadavg()

    listed = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in listed}
    if set(values) != names:
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(set(values) ^ names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    attempted = sum(p.attempted for p in phases) + 1
    failed = sum(p.failed for p in phases) + bool(guests_differ)
    failures = [f for p in phases for f in p.failures]
    if guests_differ:
        failures.append(["guests", "counts differ from the golden table: "
                                   + ", ".join(guests_differ)])
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}

    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failures=failures, environment=env, detail=detail)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    path = out / (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
                  f"{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{attempted} units attempted, {failed} failed")
    for index, reason in failures:
        print(f"  FAILED unit {index}: {reason}")
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        for name, value in sorted(detail["model"].items()):
            print(f"  {name:<34} {value:>16.6g} (sim)")
        print(f"  unit_ms_p50 is over the {detail['slow_units']} units of "
              f"the slowest {detail['slow_windows']} of {detail['windows']} "
              f"windows; unit_ms_tail is p{wl.tail_pct} of all "
              f"{detail['units']} units, {detail['unit_ms_tail_samples_beyond']}"
              " beyond it")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
