"""stablesde benchmark: end-to-end and per-layer metrics of four workloads.

Run from the repository root:

    python3 benchmarks/run.py --workload hitting [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Workloads: hitting, clock, analytic, paths (see bench_workloads.py and
BENCHMARK.json). The library is imported from ./src of the checkout, never
from an installed copy.

--trace 0 repeats the workload's round for --seconds seconds (by default
the run_seconds of BENCHMARK.json) and reports the end-to-end metrics:
wall_s and the rates are trimmed means over the rounds, call_ms_p50 /
call_ms_p90 are percentiles over the round's calls of each call's trimmed
mean, and time_to_ci01_s is wall_s times the rounds needed for a 95%
interval of half-width 0.01 on every estimate of the round. Set-up is timed
once in this process and again in child processes, and the median is
reported.

Times are reported at a reference machine speed. On a shared 2-vCPU virtual
machine the speed of the same code drifts by up to 2x over tens of seconds
as neighbours load the host, which no statistic of one run removes: over
ten seeds, raw wall times spread by up to 24% and their medians moved by up
to 39% between two sets of runs. So a fixed calibration loop (numpy and
Python, the benchmark's own code) runs between operations, after every
CALIBRATE_EVERY_S of operation time, and each operation's time is scaled by
CALIBRATION_REF_S over the mean of the two calibrations around it. Every
time reported in s or ms is therefore in reference seconds of that loop,
not the program's own wall time; the raw times are kept in the run record.

--trace 1 runs a fixed number of rounds twice each, untraced and with the
outside-in tracer installed, checks that both give the same estimates and
output digests, and reports the per-layer metrics from the traced rounds
and the calibrated traced-over-untraced overhead.

Every metric is printed by name with its unit, then a run record (machine,
versions, seeds, threads, output digests) is written under .bench_out/, and
the last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`attempted` counts checked operations, `failed` those whose output check
failed; error_rate = failed / attempted. --smoke shrinks every size and
times SMOKE_SECONDS, for a quick check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one thread per BLAS / OpenMP pool, fixed before numpy is imported
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MODULES = ("stable", "funcspec", "intervals", "integrals", "functionals", "sde",
           "experiments", "cli")
#: set-up is measured this many times per run (this process + children)
SETUP_RUNS = 5
#: fewest timed rounds per run, whatever --seconds says
MIN_ROUNDS = 3
#: timed phase length of a --smoke run
SMOKE_SECONDS = 0.5
#: calibration loop length, and its time at the reference machine speed
CALIBRATION_LOOPS = 300
CALIBRATION_REF_S = 0.03
#: operation time between two calibrations of the timed phase
CALIBRATE_EVERY_S = 0.1
#: share of the round or call times cut from each end before averaging
TRIM = 0.1
#: calibrations after set-up, of which the median scales the set-up time
SETUP_CALIBRATIONS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("hitting", "clock", "analytic", "paths"))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the acceptance seed)")
    p.add_argument("--seconds", type=float,
                   default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
                   help="timed phase length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"tiny sizes, one set-up, {SMOKE_SECONDS} s timed")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    return args


def calibrate() -> float:
    """Seconds taken by a fixed mix of small numpy calls and Python string
    work, similar in kind to the library's hot paths."""
    import numpy as np

    start = perf_counter()
    acc = 0.0
    for i in range(CALIBRATION_LOOPS):
        g = np.random.Generator(np.random.Philox(key=i))
        x = g.uniform(-1.0, 1.0, 500)
        y = np.sin(x) / np.cos(x) ** 2
        z = np.insert(np.cumsum(y), [3, 7], [0.0, 1.0])
        text = ",".join([repr(float(v)) for v in z[:20]])
        acc += sum(float(v) for v in text.split(","))
    if not math.isfinite(acc):
        raise RuntimeError("calibration loop produced a non-finite sum")
    return perf_counter() - start


class Calibrator:
    """Calibrates after every CALIBRATE_EVERY_S of operation time and scales
    each operation by the calibrations taken just before and after it."""

    def __init__(self):
        self.samples = [calibrate()]
        self.before: list[int] = []  # per operation: last calibration before it
        self.pending = 0.0

    def after_op(self, seconds: float) -> None:
        self.before.append(len(self.samples) - 1)
        self.pending += seconds
        if self.pending >= CALIBRATE_EVERY_S:
            self.samples.append(calibrate())
            self.pending = 0.0

    def scales(self) -> list[float]:
        """Per operation: reference speed over the speed around it."""
        if self.pending or len(self.samples) == 1:
            self.samples.append(calibrate())
            self.pending = 0.0
        return [2.0 * CALIBRATION_REF_S / (self.samples[b] + self.samples[b + 1])
                for b in self.before]


def setup_workload(args, workdir: Path):
    """Import the library, build the workload and warm it up; returns
    (workload, seconds)."""
    start = perf_counter()
    import bench_workloads

    cls = bench_workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    wl = cls(seed, args.smoke, workdir)
    wl.setup()
    return wl, perf_counter() - start


def child_setup_seconds(args, n: int) -> list[tuple[float, float]]:
    """(set-up, calibration) seconds measured in n fresh interpreters, one
    after another."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = []
    for _ in range(n):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT, check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((doc["setup_s"], doc["calibration_s"]))
    return out


def trimmed_mean(values) -> float:
    """Mean of the values left after cutting TRIM of them from each end.

    Once calibration has taken out the drift in machine speed, what scatter
    is left is close to symmetric, and over ten runs this spread less from
    run to run than the median of the same values did."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pool(rounds) -> dict:
    pooled = {}
    for rd in rounds:
        for key, (yes, resolved, n) in rd.estimates.items():
            y, r, m = pooled.get(key, (0, 0, 0))
            pooled[key] = (y + yes, r + resolved, m + n)
    return pooled


def accuracy_factor(rounds) -> float:
    """Rounds' worth of replicates needed before every Monte Carlo estimate
    of the round has a 95% Wilson half-width <= 0.01, undetermined replicates
    counted as spent; 1 for a workload whose answers are exact."""
    from bench_workloads import sample_size_for

    factor = 1.0
    for yes, resolved, n in pool(rounds).values():
        per_round = n / len(rounds)
        needed = sample_size_for(yes / resolved) * n / resolved
        factor = max(factor, needed / per_round)
    return factor


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, args, setup: tuple[float, float]):
    rounds, calibrator = [], Calibrator()
    wl.after_op = calibrator.after_op
    start = perf_counter()
    min_rounds = 1 if args.smoke else MIN_ROUNDS
    while len(rounds) < min_rounds or perf_counter() - start < args.seconds:
        rounds.append(wl.run_round(len(rounds)))
    wl.after_op = None
    rss = peak_rss_mb()
    setups = [setup]
    if not args.smoke:
        setups += child_setup_seconds(args, SETUP_RUNS - 1)

    scales = iter(calibrator.scales())
    scaled = [[op.seconds * next(scales) for op in rd.ops] for rd in rounds]
    walls = [sum(times) for times in scaled]
    # latency of each call of the round's fixed mix is its trimmed mean over
    # the rounds; the percentiles are taken over the mix
    calls_ms = sorted(trimmed_mean(times) * 1e3 for times in zip(*scaled))
    wall_s = trimmed_mean(walls)
    metrics = {
        "wall_s": (wall_s, "s"),
        "replicates_per_s": (trimmed_mean(
            [rd.replicates / w for rd, w in zip(rounds, walls)]), "1/s"),
        "cells_per_s": (trimmed_mean([rd.cells / w for rd, w in zip(rounds, walls)]), "1/s"),
        "time_to_ci01_s": (wall_s * accuracy_factor(rounds), "s"),
        "call_ms_p50": (percentile(calls_ms, 50), "ms"),
        "call_ms_p90": (percentile(calls_ms, 90), "ms"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(t * CALIBRATION_REF_S / c for t, c in setups), "s"),
    }
    notes = {
        "rounds": len(rounds),
        "calls": len(calls_ms) * len(rounds),
        "calls_per_round": len(calls_ms),
        "raw_setup_s": [t for t, _ in setups],
        "setup_calibration_s": [c for _, c in setups],
        "ops": [op.name for op in rounds[0].ops],
        "raw_op_s": [[op.seconds for op in rd.ops] for rd in rounds],
        "scaled_round_wall_s": walls,
        "calibration_s": calibrator.samples,
        "raw_wall_s_median": statistics.median(rd.wall for rd in rounds),
    }
    return rounds, metrics, notes


def layer_observers():
    """Counts taken at layer boundaries, from call arguments and results."""

    def size(x) -> int:
        n = getattr(x, "size", None)
        if n is not None:
            return int(n)
        return len(x) if isinstance(x, (list, tuple)) else 1

    def sample_path(c, args, kwargs, res):
        horizon = kwargs.get("horizon", args[2] if len(args) > 2 else None)
        step = kwargs.get("step", args[3] if len(args) > 3 else None)
        cells = max(1, int(math.ceil(horizon / step)))
        c["stable.cells"] += cells
        if res.killed_at is None:
            c["stable.refined_nodes"] += len(res.times) - (cells + 1)

    def funcspec_call(c, args, kwargs, res):
        c["funcspec.points"] += size(args[1] if len(args) > 1 else kwargs["x"])

    def contains(c, args, kwargs, res):
        c["intervals.contains_points"] += size(args[1] if len(args) > 1 else kwargs["x"])

    def effective_contributions(c, args, kwargs, res):
        path = args[0] if args else kwargs["path"]
        c["functionals.cells_clocked"] += len(path.times)

    return {
        "stable.sample_path": sample_path,
        "funcspec.FunctionSpec.__call__": funcspec_call,
        "intervals.IntervalSet.contains": contains,
        "functionals.effective_contributions": effective_contributions,
    }


def cold_round(wl, r: int, tracer=None):
    """Round r from an empty tail-integral cache, traced when a tracer is
    given; returns the round and the cache's hit/miss counts."""
    from stablesde import integrals

    integrals.tail_kernel_finiteness.cache_clear()
    if tracer is not None:
        wl.tracer = tracer
        tracer.install()
    try:
        rd = wl.run_round(r)
    finally:
        if tracer is not None:
            tracer.uninstall()
            wl.tracer = None
    return rd, integrals.tail_kernel_finiteness.cache_info()


def run_traced(wl, args):
    """Untraced and traced run of the same rounds; per-layer metrics."""
    from bench_tracer import Tracer

    tracer = Tracer("stablesde", observers=layer_observers())
    calibrator = Calibrator()
    wl.after_op = calibrator.after_op
    hits = misses = 0
    mismatched = 0
    executed = []  # (traced?, round) in the order they ran
    rounds = []
    for r in range(wl.trace_rounds):
        # odd rounds run traced first, so that drift in machine speed does
        # not all land on one side of the overhead
        if r % 2:
            traced, info = cold_round(wl, r, tracer)
            plain, _ = cold_round(wl, r)
            executed += [(True, traced), (False, plain)]
        else:
            plain, _ = cold_round(wl, r)
            traced, info = cold_round(wl, r, tracer)
            executed += [(False, plain), (True, traced)]
        hits, misses = hits + info.hits, misses + info.misses
        mismatched += plain.fingerprint() != traced.fingerprint()
        rounds.append(traced)
    wl.after_op = None
    scales = iter(calibrator.scales())
    untraced_s = traced_s = 0.0
    for is_traced, rd in executed:
        wall = sum(op.seconds * next(scales) for op in rd.ops)
        if is_traced:
            traced_s += wall
        else:
            untraced_s += wall

    traced_raw_s = sum(rd.wall for rd in rounds)  # on the spans' clock
    self_times = tracer.self_times()
    calls = dict.fromkeys(MODULES, 0)
    busy = dict.fromkeys(MODULES, 0.0)
    span_counts: dict[str, int] = {}
    span_seconds: dict[str, float] = {}
    for sid, name, layer, start, end, _, _ in tracer.spans:
        span_counts[name] = span_counts.get(name, 0) + 1
        span_seconds[name] = span_seconds.get(name, 0.0) + (end - start)
        if layer in calls:
            calls[layer] += 1
            busy[layer] += self_times[sid]

    c = tracer.counters
    metrics = {}
    for m in MODULES:
        metrics[f"{m}.calls"] = (calls[m], "count")
        metrics[f"{m}.self_s"] = (busy[m], "s")
        metrics[f"{m}.self_share"] = (busy[m] / traced_raw_s, "ratio")
    solves = span_counts.get("sde.solve_time_change", 0)
    replicates = sum(n for rd in rounds for _, _, n in rd.estimates.values())
    resolved = sum(r_ for rd in rounds for _, r_, _ in rd.estimates.values())
    oracle = wl.oracle_report(pool(rounds)) if hasattr(wl, "oracle_report") else {}
    metrics.update({
        "stable.ns_per_cell": (busy["stable"] / c["stable.cells"] * 1e9
                               if c["stable.cells"] else 0.0, "ns"),
        "stable.refined_nodes": (c["stable.refined_nodes"], "count"),
        "stable.rng_streams": (span_counts.get("stable.stream_rng", 0), "count"),
        "stable.pathsample_inits": (span_counts.get("stable.PathSample.__init__", 0), "count"),
        "funcspec.points": (c["funcspec.points"], "count"),
        "funcspec.inverse_power_calls": (
            span_counts.get("funcspec.FunctionSpec.inverse_power", 0), "count"),
        "functionals.cells_clocked": (c["functionals.cells_clocked"], "count"),
        "sde.us_per_solve": (span_seconds.get("sde.solve_time_change", 0.0) / solves * 1e6
                             if solves else 0.0, "us"),
        "intervals.contains_points": (c["intervals.contains_points"], "count"),
        "intervals.wiener_shells": (span_counts.get("intervals.shell", 0), "count"),
        "integrals.quad_calls": (span_counts.get("integrals.quad", 0), "count"),
        "integrals.quad_s": (span_seconds.get("integrals.quad", 0.0), "s"),
        "integrals.tail_cache_hit_share": (hits / (hits + misses) if hits + misses else 0.0,
                                           "ratio"),
        "experiments.resolved_share": (resolved / replicates if replicates else 0.0, "ratio"),
        "experiments.hit_bias": (max((abs(o["bias"]) for o in oracle.values()), default=0.0),
                                 "prob"),
        "experiments.oracle_covered": (sum(o["covered"] for o in oracle.values()), "count"),
        "cli.bytes_out": (sum(rd.bytes_out for rd in rounds), "bytes"),
        "cli.rows_out": (sum(rd.rows_out for rd in rounds), "count"),
        "trace.overhead_share": (traced_s / untraced_s - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    notes = {
        "rounds": len(rounds),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "traced_matches_untraced": mismatched == 0,
        "oracle": {repr(z): o for z, o in oracle.items()},
        "span_counts": span_counts,
    }
    return rounds, metrics, notes, tracer, mismatched


def machine_record(wl, args) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "workload": wl.name,
        "seed": wl.seed,
        "threads": wl.threads,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "blas_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "stablesde" / "__init__.py").is_file():
        sys.stderr.write(f"benchmark: no stablesde package under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl, setup_s = setup_workload(args, workdir)
        setup = (setup_s, statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS)))
        import stablesde

        if Path(stablesde.__file__).resolve().parent != (SRC / "stablesde").resolve():
            sys.stderr.write(f"benchmark: imported stablesde from {stablesde.__file__}\n")
            return 2
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0], "calibration_s": setup[1]}))
            return 0
        tracer = None
        if args.trace:
            rounds, metrics, notes, tracer, mismatched = run_traced(wl, args)
        else:
            rounds, metrics, notes = run_untraced(wl, args, setup)
            mismatched = 0
    finally:
        shutil.rmtree(workdir)

    attempted = sum(len(rd.ops) for rd in rounds)
    failed = sum(not op.ok for rd in rounds for op in rd.ops) + mismatched
    stem = f"{wl.name}-seed{wl.seed}-trace{args.trace}"
    record = {
        "machine": machine_record(wl, args),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "digests": [rd.digests for rd in rounds],
        "estimates": [rd.estimates for rd in rounds],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    print(f"workload {wl.name}  seed {wl.seed}  threads {wl.threads}  "
          f"rounds {notes['rounds']}" + (f"  calls {notes['calls']} ({notes['calls_per_round']} a round)"
                                         if "calls" in notes else ""))
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value!r} {unit}")
    print(f"  {'error_rate':32s} {failed / attempted!r} ratio  ({failed} of {attempted} operations)")
    outputs = hashlib.sha256("".join(d for rd in rounds for d in rd.digests).encode())
    print(f"outputs sha256 {outputs.hexdigest()}  record {OUT / (stem + '.json')}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
