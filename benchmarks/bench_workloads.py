"""The four benchmark workloads, their output checks and the exact oracle.

Each workload repeats a fixed round of calls into stablesde's public API.
Importing this module imports stablesde, numpy and scipy, so the importer
counts that as set-up. Library calls go through module attributes
(`experiments.run_experiment`, `cli.main`, ...) so that a tracer that
patches those attributes sees them.

- hitting: the criterion 5 config (alpha 0.5, sigma 1, target [1, 2),
  horizon 1000, step 1, z in {0, -5}) on one thread; long paths, one cheap
  decision per path.
- clock: the two criterion 6 freeze configs and the ten criterion 7
  small-time configs on two threads; short paths, so the fixed cost per
  replicate dominates.
- analytic: classify / test / wiener CLI calls over the criterion 1, 2 and
  6 grids, plus kernel integrals off the pole; no random numbers.
- paths: simulate, read back and solve one path of 1e5 cells through the
  CLI and CSV files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.integrate import quad

from stablesde import cli, experiments, funcspec, integrals, intervals, stable

Z95 = 1.959963984540054
#: half-width of the 95% interval that `time_to_ci01_s` asks for
TARGET_HALF_WIDTH = 0.01

ALPHAS = (0.3, 0.5, 0.7, 0.9)
BETAS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
#: start point of the off-pole kernel integrals of the analytic workload
OFFSET_Z = 0.5
SMALLTIME_CASES = (
    (0.3, 0.5), (0.5, 0.25), (0.5, 0.5), (0.5, 0.75), (0.5, 1.0),
    (0.5, 1.25), (0.5, 1.5), (0.7, 0.5), (0.7, 2.0), (0.9, 0.75),
)


def round_seed(seed: int, r: int) -> int:
    """Seed of round r; round 0 uses the workload seed itself."""
    return seed + (r << 32)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def wilson_half_width(p: float, n: float) -> float:
    """Half-width of the 95% Wilson score interval at proportion p, size n."""
    denom = 1.0 + Z95 * Z95 / n
    return Z95 * math.sqrt(p * (1.0 - p) / n + Z95 * Z95 / (4.0 * n * n)) / denom


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    p = k / n
    center = (p + Z95 * Z95 / (2 * n)) / (1.0 + Z95 * Z95 / n)
    half = wilson_half_width(p, n)
    return max(0.0, center - half), min(1.0, center + half)


def sample_size_for(p: float, half_width: float = TARGET_HALF_WIDTH) -> int:
    """Smallest n whose Wilson half-width at proportion p is <= half_width."""
    hi = 1
    while wilson_half_width(p, hi) > half_width:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if wilson_half_width(p, mid) > half_width:
            lo = mid
        else:
            hi = mid
    return hi


def riesz_hitting_probability(alpha: float, z: float, a: float, b: float) -> float:
    """P_z(the symmetric alpha-stable process ever hits [a, b]), alpha < 1.

    Integral of the potential kernel |z - y|^(alpha-1) against M. Riesz's
    equilibrium measure (sin(pi alpha/2)/pi) (r^2 - (y-c)^2)^(-alpha/2) dy of
    the interval with centre c and half-width r.
    """
    if a <= z <= b:
        return 1.0
    value, _ = quad(
        lambda y: abs(z - y) ** (alpha - 1.0), a, b,
        weight="alg", wvar=(-alpha / 2.0, -alpha / 2.0),
    )
    return math.sin(math.pi * alpha / 2.0) / math.pi * value


def power_kernel_reference(alpha: float, e: float, z: float) -> float:
    """int_{-1}^{1} |y|^e |z - y|^(alpha-1) dy for 0 < z < 1 and e > -1, with
    both singularities taken as exact endpoint weights of scipy's `quad`."""
    k = alpha - 1.0
    left, _ = quad(lambda y: (z - y) ** k, -1.0, 0.0, weight="alg", wvar=(0.0, e))
    middle, _ = quad(lambda y: 1.0, 0.0, z, weight="alg", wvar=(e, k))
    right, _ = quad(lambda y: y ** e, z, 1.0, weight="alg", wvar=(k, 0.0))
    return left + middle + right


def verdict_check(finite: bool, expected: float):
    """Check of a TestVerdict's JSON against a known finiteness and value."""

    def ok(doc) -> bool:
        if doc["finiteness"] != ("finite" if finite else "infinite"):
            return False
        return not finite or math.isclose(doc["value"], expected, rel_tol=1e-8)

    return ok


def tally(est) -> tuple[int, int, int]:
    """(yes, resolved, n) recovered from an Estimate."""
    resolved = est.n - round(est.undetermined_fraction * est.n)
    return round(est.point * resolved), resolved, est.n


def grid_cells(horizon: float, step: float) -> int:
    return max(1, int(math.ceil(horizon / step)))


@dataclasses.dataclass
class Op:
    name: str
    seconds: float
    ok: bool


@dataclasses.dataclass
class Round:
    ops: list[Op]
    replicates: int  # independent answers produced by the round
    cells: int  # path cells (or Wiener shells) processed by the round
    digests: list[str]  # sha256 of every estimator CSV / CLI output
    estimates: dict  # key -> (yes, resolved, n) of each Monte Carlo estimate
    bytes_out: int = 0
    rows_out: int = 0

    @property
    def wall(self) -> float:
        return sum(op.seconds for op in self.ops)

    def fingerprint(self):
        return (self.digests, self.estimates, self.bytes_out, self.rows_out)


class Workload:
    name = ""
    default_seed = 0
    threads = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        #: rounds of a traced run (each also runs once untraced)
        self.trace_rounds = 1 if smoke else 3
        #: set to a Tracer while a traced round runs
        self.tracer = None
        #: called with each operation's seconds once it has ended
        self.after_op = None

    def timed(self, name: str, fn, *args):
        """Run one operation; returns (result, seconds)."""
        with self.tracer.request(name) if self.tracer else contextlib.nullcontext():
            start = perf_counter()
            out = fn(*args)
            seconds = perf_counter() - start
        if self.after_op is not None:
            self.after_op(seconds)
        return out, seconds

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> Round:
        raise NotImplementedError


class Hitting(Workload):
    name = "hitting"
    default_seed = 31337
    threads = 1
    ZS = (0.0, -5.0)
    TARGET = (1.0, 2.0)
    ALPHA = 0.5
    HORIZON, STEP = 1000.0, 1.0

    def setup(self) -> None:
        self.replicates = 200 if self.smoke else 1000
        self.config = experiments.ExperimentConfig(
            alpha=self.ALPHA,
            f_or_sigma=funcspec.FunctionSpec.constant(1.0),
            z=self.ZS,
            replicates=self.replicates,
            horizon=self.HORIZON,
            step=self.STEP,
            estimator="hitting_prob",
            seed=self.seed,
            target=intervals.IntervalSet.of(self.TARGET),
        )
        self.oracle = {
            z: riesz_hitting_probability(self.ALPHA, z, *self.TARGET) for z in self.ZS
        }
        warm = dataclasses.replace(self.config, replicates=10)
        experiments.run_experiment(warm, io.StringIO(), threads=self.threads)

    def run_round(self, r: int) -> Round:
        cfg = dataclasses.replace(self.config, seed=round_seed(self.seed, r))
        sink = io.StringIO()
        rows, dt = self.timed(
            "run_experiment", experiments.run_experiment, cfg, sink, self.threads
        )
        at_zero, at_minus_five = rows
        # criterion 5, unchanged
        ok = (
            0.05 < at_zero.point < 0.95
            and at_zero.undetermined_fraction < 0.05
            and at_minus_five.point < at_zero.point
        )
        n = self.replicates * len(self.ZS)
        return Round(
            ops=[Op("run_experiment", dt, ok)],
            replicates=n,
            cells=n * grid_cells(self.HORIZON, self.STEP),
            digests=[digest(sink.getvalue())],
            estimates={f"z={z!r}": tally(est) for z, est in zip(self.ZS, rows)},
        )

    def oracle_report(self, pooled: dict) -> dict:
        """Bias of the pooled estimates against the exact hitting
        probabilities, and how many 95% intervals cover them."""
        out = {}
        for z in self.ZS:
            yes, resolved, _ = pooled[f"z={z!r}"]
            lo, hi = wilson_interval(yes, resolved)
            out[z] = {
                "estimate": yes / resolved,
                "oracle": self.oracle[z],
                "bias": yes / resolved - self.oracle[z],
                "ci95": [lo, hi],
                "covered": lo <= self.oracle[z] <= hi,
            }
        return out


class Clock(Workload):
    name = "clock"
    default_seed = 55
    threads = 2
    FREEZE_BETAS = (0.5, 1.5)
    #: criterion 7 runs on seed 606 when criterion 6 runs on 55
    SMALLTIME_OFFSET = 551

    def setup(self) -> None:
        self.replicates = 20 if self.smoke else 100
        FunctionSpec = funcspec.FunctionSpec
        self.configs = []  # (key, config, check)
        for beta in self.FREEZE_BETAS:
            cfg = experiments.ExperimentConfig(
                alpha=0.5, f_or_sigma=FunctionSpec.power(beta), z=(0.0,),
                replicates=self.replicates, horizon=1.0, step=0.01,
                estimator="freeze_prob", seed=self.seed,
            )
            # criterion 6, unchanged
            check = (lambda p: p <= 0.01) if beta < 1.0 else (lambda p: p >= 0.99)
            self.configs.append((f"freeze beta={beta!r}", cfg, check))
        for alpha, beta in SMALLTIME_CASES:
            f = FunctionSpec.power(beta).inverse_power(alpha)
            finite = integrals.monotone_pole_test(alpha, 0.0, f, 1.0).finiteness == "finite"
            cfg = experiments.ExperimentConfig(
                alpha=alpha, f_or_sigma=f, z=(0.0,),
                replicates=self.replicates, horizon=0.01, step=0.001,
                estimator="smalltime_finiteness",
                seed=self.seed + self.SMALLTIME_OFFSET,
            )
            # criterion 7, unchanged
            check = lambda p, finite=finite: (p > 0.5) == finite
            self.configs.append((f"smalltime alpha={alpha!r} beta={beta!r}", cfg, check))
        warm = dataclasses.replace(self.configs[0][1], replicates=10)
        experiments.run_experiment(warm, io.StringIO(), threads=self.threads)

    def run_round(self, r: int) -> Round:
        ops, digests, estimates, cells = [], [], {}, 0
        for key, base, check in self.configs:
            cfg = dataclasses.replace(base, seed=round_seed(base.seed, r))
            sink = io.StringIO()
            rows, dt = self.timed(
                "run_experiment", experiments.run_experiment, cfg, sink, self.threads
            )
            ops.append(Op("run_experiment", dt, check(rows[0].point)))
            digests.append(digest(sink.getvalue()))
            estimates[key] = tally(rows[0])
            cells += cfg.replicates * grid_cells(cfg.horizon, cfg.step)
        return Round(
            ops=ops,
            replicates=sum(cfg.replicates for _, cfg, _ in self.configs),
            cells=cells,
            digests=digests,
            estimates=estimates,
        )


class Analytic(Workload):
    name = "analytic"
    default_seed = 0
    threads = 1
    WIENER_NMAX = 200

    def setup(self) -> None:
        alphas = ALPHAS[:2] if self.smoke else ALPHAS
        FunctionSpec = funcspec.FunctionSpec
        specs = self.workdir / "specs"
        specs.mkdir(parents=True, exist_ok=True)
        self.out = self.workdir / "out.json"
        calls = []  # (kind, argv, check)
        for alpha in alphas:
            for beta in BETAS:
                spec = specs / f"f_{alpha}_{beta}.json"
                spec.write_text(FunctionSpec.power(beta).inverse_power(alpha).to_json())
                a = repr(alpha)
                # criterion 1, unchanged: finite iff beta < 1, value 2/(alpha(1-beta))
                at_pole = verdict_check(
                    beta < 1.0, 2.0 / (alpha * (1.0 - beta)) if beta < 1.0 else math.inf)
                # off the pole, kernel_integral takes its quadrature path; no
                # acceptance criterion covers it, so an independent quadrature
                # with exact endpoint weights is the reference
                e = -alpha * beta
                off_pole = verdict_check(
                    e > -1.0, power_kernel_reference(alpha, e, OFFSET_Z) if e > -1.0 else math.inf)
                calls += [
                    # criterion 6, unchanged: unique in law iff beta >= 1
                    ("classify", ["classify", "--alpha", a, "--sigma", f"power:|x|^{beta!r}"],
                     lambda doc, beta=beta: doc["unique_all"] == (beta >= 1.0)),
                    ("test-beta", ["test", "--alpha", a, "--beta", repr(beta)], at_pole),
                    ("test-domain", ["test", "--alpha", a, "--f", f"@{spec}",
                                     "--domain", "[[-1.0, 1.0]]"], at_pole),
                    ("test-pole", ["test", "--alpha", a, "--f", f"@{spec}",
                                   "--epsilon", "1.0"], at_pole),
                    ("test-offset", ["test", "--alpha", a, "--f", f"@{spec}",
                                     "--z", repr(OFFSET_Z), "--domain", "[[-1.0, 1.0]]"],
                     off_pole),
                ]
        closed = (
            intervals.ball_capacity(0.5, 1.0) * 2.0 ** (-2.0 / 3.0)
            * 2.0 ** (-1.0 / 3.0) / (1.0 - 2.0 ** (-1.0 / 3.0))
        )
        for alpha in alphas:
            def series_ok(doc, alpha=alpha):
                # criterion 2, unchanged
                if doc["verdict"] != "convergent":
                    return False
                return alpha != 0.5 or abs(doc["partial_sums"][-1] - closed) <= 1e-6

            calls.append(("wiener", [
                "wiener", "--alpha", repr(alpha), "--set", "example2.2",
                "--nmax", str(self.WIENER_NMAX),
            ], series_ok))
        random.Random(self.seed).shuffle(calls)
        self.calls = calls
        warmed = set()
        for kind, argv, _ in calls:
            if kind not in warmed:
                warmed.add(kind)
                cli.main(["--out", str(self.out)] + argv)

    def run_round(self, r: int) -> Round:
        ops, outputs = [], []
        for kind, argv, check in self.calls:
            code, dt = self.timed(kind, cli.main, ["--out", str(self.out)] + argv)
            text = self.out.read_text() if code == 0 else ""
            ops.append(Op(kind, dt, code == 0 and check(json.loads(text))))
            outputs.append(text)
        shells = sum(self.WIENER_NMAX for kind, _, _ in self.calls if kind == "wiener")
        return Round(
            ops=ops,
            replicates=len(self.calls),
            cells=shells,
            digests=[digest("".join(outputs))],
            estimates={},
        )


def _csv_columns(text: str, ncols: int) -> np.ndarray:
    """The data rows of a stablesde CSV (comment and header lines skipped),
    parsed independently of the library."""
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")][1:]
    return np.array(",".join(rows).split(","), dtype=float).reshape(-1, ncols)


class Paths(Workload):
    name = "paths"
    default_seed = 5
    threads = 1
    ALPHA, STEP = 0.5, 0.01
    SIGMA = "power:|x|^0.5"

    def setup(self) -> None:
        self.horizon = 10.0 if self.smoke else 1000.0
        self.sim = self.workdir / "path.csv"
        self.sol = self.workdir / "solution.csv"
        self._simulate(self.seed, 1.0)
        stable.PathSample.from_csv(self.sim.read_text())
        self._solve(self.seed, 1.0)

    def _simulate(self, seed: int, horizon: float) -> int:
        return cli.main([
            "--seed", str(seed), "--out", str(self.sim), "simulate",
            "--alpha", repr(self.ALPHA), "--horizon", repr(horizon), "--step", repr(self.STEP),
        ])

    def _solve(self, seed: int, horizon: float) -> int:
        return cli.main([
            "--seed", str(seed), "--out", str(self.sol), "solve",
            "--alpha", repr(self.ALPHA), "--sigma", self.SIGMA,
            "--horizon", repr(horizon), "--step", repr(self.STEP),
        ])

    def _read(self):
        return stable.PathSample.from_csv(self.sim.read_text())

    def run_round(self, r: int) -> Round:
        seed = round_seed(self.seed, r)
        code_sim, t_sim = self.timed("simulate", self._simulate, seed, self.horizon)
        path, t_read = self.timed("read", self._read)
        code_sol, t_sol = self.timed("solve", self._solve, seed, self.horizon)
        sim_text, sol_text = self.sim.read_text(), self.sol.read_text()

        written = _csv_columns(sim_text, 2)
        solution = _csv_columns(sol_text, 3)
        n = grid_cells(self.horizon, self.STEP)
        # solve re-samples the same driver (same seed, stream 0); the zero of
        # sigma = |x|^0.5 at 0 is regular (beta < 1, criterion 6), so the
        # solution never freezes and Z = X node by node: the simulated path
        # equals the solution's (phi, z_value) columns
        sim_ok = (
            code_sim == 0
            and len(written) >= n + 1
            and np.array_equal(written, solution[:, 1:])
        )
        # the CSV round trip: the library's parse equals the file's rows
        read_ok = (
            np.array_equal(path.times, written[:, 0])
            and np.array_equal(path.values, written[:, 1])
        )
        # the solution itself: it reaches the horizon from z = 0, and its
        # clock s starts at 0 and never decreases
        clock = solution[:, 0]
        solve_ok = (
            code_sol == 0
            and sol_text.startswith("# status=horizon_reached\n")
            and len(solution) >= n + 1
            and solution[0, 2] == 0.0
            and clock[0] == 0.0
            and bool(np.all(np.isfinite(clock)))
            and bool(np.all(np.diff(clock) >= 0.0))
        )
        rows = len(written) + len(solution)
        return Round(
            ops=[Op("simulate", t_sim, sim_ok), Op("read", t_read, read_ok),
                 Op("solve", t_sol, solve_ok)],
            replicates=2,
            cells=rows + len(path.times),
            digests=[digest(sim_text), digest(sol_text)],
            estimates={},
            bytes_out=len(sim_text.encode()) + len(sol_text.encode()),
            rows_out=rows,
        )


WORKLOADS = {w.name: w for w in (Hitting, Clock, Analytic, Paths)}
