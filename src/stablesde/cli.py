"""Command-line front end.

Subcommands are thin adapters over the library: simulate (driver paths),
solve (time-changed SDE paths), classify (existence/uniqueness report),
test (integral finiteness tests), wiener (avoidability/thinness summation),
experiment (Monte Carlo estimators from a JSON config).

Exit codes: 0 success, 1 validation error (JSON diagnostics on stderr),
2 runtime failure.

`main` builds its parser once per process and reuses it on every later
call, since parsing leaves the parser unchanged; `build_parser()` returns a
fresh one.

`--out` keeps the command's text in memory and, on leaving (also when the
command fails part way), writes it from offset 0 in one write loop and cuts
a regular file to the bytes written, so no text stream is built per call.
The file is overwritten in place rather than truncated to zero length on
open: on ext4 (default `auto_da_alloc`) a file truncated to zero and
rewritten is written back to disk when it is closed, ~70 us per call, which
is more than a whole `test --beta` call computes and follows the disk's
load, not the CPU's. Input files are read whole through one descriptor.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import re
import stat
import sys

from .experiments import ExperimentConfig, run_experiment
from .funcspec import FunctionSpec, FunctionSpecError, parse_inline
from .functionals import Thresholds
from .integrals import kernel_integral, monotone_pole_test, power_law_test
from .intervals import IntervalSet, ShellSpec, build_example_set, wiener_sum
from .sde import classify_sde, solve_time_change
from .stable import KillingSpec, StableParams, sample_path, stream_rng


class CliValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-" then a digit, "." and a digit, inf or nan opens a value such as
        # -1e-3, not an option (newer CPythons read -\.?\d); subparsers are _Parsers
        self._negative_number_matcher = re.compile(r"-(?:\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):  # argparse default exits with code 2
        raise CliValidationError(message)


def _read_text(path: str) -> str:
    """The whole file at path, read through one descriptor, as UTF-8."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    except OSError as exc:  # os.read names no file
        raise OSError(exc.errno, exc.strerror, path) from None
    finally:
        os.close(fd)
    return b"".join(chunks).decode()


def _load_function(text: str) -> FunctionSpec:
    if text.startswith("@"):
        return FunctionSpec.from_json(_read_text(text[1:]))
    return parse_inline(text)


def _load_set(text: str, nmax: int) -> IntervalSet:
    if text == "example2.2":
        return build_example_set(nmax)
    if text.startswith("@"):
        return IntervalSet.from_json(_read_text(text[1:]))
    return IntervalSet.from_json(text)


def build_parser() -> _Parser:
    parser = _Parser(prog="stablesde", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument("--threads", type=int, default=1, help="worker threads")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a stable driver path to CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--z", type=float, default=0.0, help="starting point")
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--killing", type=float, default=None, help="exponential killing rate")

    p = sub.add_parser("solve", help="time-changed SDE solution path to CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma", required=True, help="inline coefficient or @file.json")
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--horizon", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--big-m", type=float, default=1e9, help="numeric infinity M")
    p.add_argument("--radius", type=float, default=None, help="escape radius R")

    p = sub.add_parser("classify", help="existence/uniqueness report to JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--sigma", required=True)
    p.add_argument("--at", type=float, action="append", default=[],
                   help="evaluate the local predicate at this z (repeatable)")

    p = sub.add_parser("test", help="integral finiteness tests to JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=None, help="closed-form power-law test")
    p.add_argument("--f", default=None, help="integrand for the kernel/pole test")
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=None, help="pole-test radius")
    p.add_argument("--domain", default=None, help="JSON interval list for kernel_integral")

    p = sub.add_parser("wiener", help="avoidability/thinness summation test to JSON")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--set", dest="target", required=True,
                   help="'example2.2', @file.json, or inline JSON intervals")
    p.add_argument("--nmax", type=int, default=200)
    p.add_argument("--nmin", type=int, default=1)
    p.add_argument("--lam", type=float, default=2.0)
    p.add_argument("--center", type=float, default=0.0)

    p = sub.add_parser("experiment", help="Monte Carlo estimators from a JSON config")
    p.add_argument("--config", required=True)
    return parser


@functools.cache
def _parser() -> _Parser:
    return build_parser()


@contextlib.contextmanager
def _output_file(path: str):
    """A text sink for `path`, opened for writing first; on leaving, also
    when the command fails part way, what the sink holds is written from
    offset 0 and a regular file is cut to it, so the file holds the same
    bytes as after open(path, "w")."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        text = io.StringIO()
        try:
            yield text
        finally:
            data = text.getvalue().encode()
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):
                os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _dispatch(args, out) -> None:
    if args.command == "simulate":
        killing = KillingSpec(args.killing) if args.killing is not None else None
        path = sample_path(
            StableParams(args.alpha), args.z, args.horizon, args.step,
            stream_rng(args.seed, 0), killing=killing,
        )
        out.write(path.to_csv())
    elif args.command == "solve":
        sigma = _load_function(args.sigma)
        sol = solve_time_change(
            args.alpha, sigma, args.z, args.horizon, args.step,
            stream_rng(args.seed, 0),
            Thresholds(m=args.big_m, r=args.radius),
        )
        out.write(sol.to_csv())
    elif args.command == "classify":
        report = classify_sde(args.alpha, _load_function(args.sigma))
        out.write(report.to_json(at=tuple(args.at)) + "\n")
    elif args.command == "test":
        if args.beta is not None:
            verdict = power_law_test(args.alpha, args.beta)
        elif args.f is not None and args.epsilon is not None:
            verdict = monotone_pole_test(
                args.alpha, args.z, _load_function(args.f), args.epsilon
            )
        elif args.f is not None and args.domain is not None:
            verdict = kernel_integral(
                args.alpha, args.z, _load_function(args.f),
                IntervalSet.from_json(args.domain),
            )
        else:
            raise CliValidationError(
                "test needs --beta, or --f with --epsilon or --domain"
            )
        out.write(verdict.to_json() + "\n")
    elif args.command == "wiener":
        target = _load_set(args.target, args.nmax)
        spec = ShellSpec(center=args.center, lam=args.lam,
                         n_min=args.nmin, n_max=args.nmax)
        out.write(wiener_sum(args.alpha, spec, target).to_json() + "\n")
    elif args.command == "experiment":
        cfg = ExperimentConfig.from_json(_read_text(args.config), seed=args.seed)
        run_experiment(cfg, out, threads=args.threads)
    else:  # pragma: no cover - argparse enforces the choices
        raise CliValidationError(f"unknown subcommand {args.command!r}")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except CliValidationError as exc:
        sys.stderr.write(json.dumps({"error": "validation", "detail": str(exc)}) + "\n")
        return 1
    try:
        if args.out is not None:
            with _output_file(args.out) as out:
                _dispatch(args, out)
        else:
            _dispatch(args, sys.stdout)
    except (CliValidationError, FunctionSpecError, ValueError, json.JSONDecodeError) as exc:
        sys.stderr.write(json.dumps({"error": "validation", "detail": str(exc)}) + "\n")
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        sys.stderr.write(json.dumps({"error": "runtime", "detail": str(exc)}) + "\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
