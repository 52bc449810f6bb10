"""Sampling and elementary analytics of the symmetric alpha-stable process.

Increments use the Chambers-Mallows-Stuck transform (exact, no series
truncation).  Paths are piecewise-constant skeletons on a uniform grid with
jump-adapted refinement: a cell whose increment exceeds JUMP_FACTOR *
step^(1/alpha) gets an extra node at a uniformly placed jump time, which
reduces hitting and occupation bias without changing any grid marginal.

`sample_block` samples many paths from one generator, a row of 2n + 1 nodes
per path on a grid of n cells, from one start or one per row; `sample_path`
is its one-row case, without the nodes that dwell for no time.
`cell_dwell` is the one rule that turns node times into dwell, cut at the
killing time or the horizon.  A run's replicates, numbered z-major, are cut
into chunks, and chunk c draws from `stream_rng(seed, c)`, so one block may
hold rows from two starts; the single paths of `simulate` and `solve` are
chunk 0.

`PathSample.to_csv` and `SolutionPath.to_csv` share one writer,
`_node_csv`.  It formats a large table in contiguous row slices at once,
one per usable CPU, each but the first in a forked child that writes its
text to a pipe; the bytes are the same for any number of slices.
`PathSample.from_csv` is the one reader.  The line loop `_read_lines`
defines the format; text in the writer's own shape (a head, `t,x`, then
bare rows of one comma) has its rows parsed `_CSV_ROWS` at a time instead,
and any other text goes whole through the loop.

On glibc the first `sample_block` of a process fixes two malloc thresholds,
process-wide; nothing else in the package touches them, and elsewhere, or in
a process that samples no path, the allocator keeps its defaults.  glibc's
own thresholds move with the sizes freed so far: arrays above the mmap
threshold get fresh mappings, and a freed heap top above the trim threshold,
twice the largest mapping freed (about 320 KB after a block of 100 paths of
100 cells, whose node arrays take 157 KiB each), goes back to the OS.  Such
a block peaks at 1.08 MiB of temporaries, so every block handed its memory
back and faulted it in again as fresh zero pages.  `_hold_block_memory`
sets M_MMAP_THRESHOLD to 4 MiB and, only if glibc takes that,
M_TRIM_THRESHOLD to 32 MiB (the trim threshold alone would also pin the
mmap threshold, at 128 KiB).  The next block then reuses the heap.  The cost
to a host process: every array under 4 MiB comes from the heap, and up to
32 MiB of freed heap stays in the process.  Draws and bytes do not change.
"""

from __future__ import annotations

import ctypes
import functools
import io
import math
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

_WORD = (1 << 64) - 1
#: a cell is refined when its increment exceeds JUMP_FACTOR * step^(1/alpha)
JUMP_FACTOR = 10.0
#: rows per format operation in _node_csv and per parse operation in
#: PathSample.from_csv: one operation over many rows is faster than one per
#: row, and a bounded chunk keeps the argument tuple or token list small
_CSV_ROWS = 4096
#: fewest rows of a slice of _node_csv formatted in a forked child.  On a
#: 2-vCPU VM, a process holding a paths-sized table forks, reads an empty
#: pipe to its end and reaps the child in 2.7-3.7 ms, and formats 32 768
#: two-column rows in 51-55 ms, so the fork costs a slice at most 7%.
_SLICE_ROWS = 32768
#: the largest float, at which a path's increments are clipped before they
#: are summed, and the machine epsilon that keeps a jump time inside its cell
_FLOAT_MAX = np.finfo(float).max
_FLOAT_EPS = np.finfo(float).eps
#: glibc malloc thresholds that `_hold_block_memory` sets.  At the block
#: engine's 2^15 cells the largest block array is (32768, 3) float64,
#: 768 KiB, so every one comes from the heap; a whole freeze block peaks at
#: 2.9-6.2 MiB (tracemalloc, rows of 1000, 100, 10 and 1 cells), so freeing
#: it trims nothing back to the OS.  The parameter numbers are glibc's
#: malloc.h.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 32 << 20


def stream_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based generator keyed by (experiment seed, stream index),
    the index of a chunk of replicates; reproducible regardless of worker
    count."""
    key = (int(seed) & _WORD) << 64 | (int(index) & _WORD)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class StableParams:
    """Driving law: stability index alpha, unit scale (CMS parametrization)."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0,2], got {self.alpha}")


@dataclass(frozen=True)
class KillingSpec:
    """Independent exponential killing at rate q."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < math.inf:
            raise ValueError("killing rate must be finite and positive")


@functools.cache
def _hold_block_memory() -> None:
    """Fix glibc's mmap and trim thresholds once per process (see the
    module docstring): the trim threshold only if glibc took the mmap one,
    and nothing where the C library is not glibc."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1:
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _node_csv(comments: dict, header: str, *columns) -> str:
    """CSV text of a node table: a `# key=value` line for each comment that
    is not None, the header, then one row of float reprs per node.

    The rows are formatted in contiguous slices at once, one per usable CPU
    but none under _SLICE_ROWS rows (so a small table, one CPU or no
    os.fork gives one slice).  This process formats the first slice and a
    forked child each other one, which it writes to a pipe; the slices are
    read back in order, so the text is the same for any number of them.
    Every child is reaped before this returns or raises, and one that
    fails is a RuntimeError."""
    buf = io.StringIO()
    for key, value in comments.items():
        if value is not None:
            buf.write(f"# {key}={value}\n")
    buf.write(header + "\n")
    table = np.column_stack([np.asarray(c, float) for c in columns])
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    slices = max(1, min(cpus or 1, len(table) // _SLICE_ROWS)) if hasattr(os, "fork") else 1
    cuts = [len(table) * i // slices for i in range(slices + 1)]
    children = []
    try:
        for lo, hi in zip(cuts[1:], cuts[2:]):
            children.append(_fork_slice(table[lo:hi]))
        _write_rows(buf, table[: cuts[1]])
        for _, fd in children:
            while chunk := os.read(fd, 1 << 16):  # a Linux pipe's default size
                buf.write(chunk.decode())
    finally:
        for _, fd in children:
            os.close(fd)  # a child still writing gets EPIPE and exits
        failed = sum(os.waitpid(pid, 0)[1] != 0 for pid, _ in children)
    if failed:
        raise RuntimeError(f"{failed} of {len(children)} forked CSV slices failed")
    return buf.getvalue()


def _write_rows(out, table: np.ndarray) -> None:
    """Write one line of float reprs per row of table to out, _CSV_ROWS
    rows per %."""
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    for part in np.split(table, range(_CSV_ROWS, len(table), _CSV_ROWS)):
        out.write(row * len(part) % tuple(part.ravel().tolist()))


def _fork_slice(table: np.ndarray) -> tuple[int, int]:
    """(pid, read end of its pipe) of a forked child that writes the
    `_write_rows` text of table to the pipe and exits, with status 0 only if
    all of it was written.  The child touches nothing else and never
    returns."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(r)
            buf = io.StringIO()
            _write_rows(buf, table)
            data = memoryview(buf.getvalue().encode())
            while data:
                data = data[os.write(w, data):]
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, r


@dataclass(frozen=True)
class PathSample:
    """Piecewise-constant right-continuous path skeleton."""

    times: np.ndarray
    values: np.ndarray
    horizon: float
    killed_at: float | None = None

    def __post_init__(self):
        t, v = np.asarray(self.times, float), np.asarray(self.values, float)
        if len(t) != len(v) or len(t) < 1:
            raise ValueError("times and values must be nonempty and aligned")
        # +-inf values stay legal: a tiny alpha can overflow an increment
        ends = [self.horizon, self.end_time]
        if not (np.isfinite(t).all() and np.isfinite(ends).all()) or np.isnan(v).any():
            raise ValueError("times, horizon and killing time must be finite, values not NaN")
        if np.any(np.diff(t) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if t[-1] > self.horizon:
            raise ValueError("grid extends beyond the horizon")
        if self.killed_at is not None:
            if self.killed_at > self.horizon or t[-1] >= self.killed_at:
                raise ValueError("values recorded after the killing time")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def origin(self) -> float:
        return float(self.values[0])

    @property
    def end_time(self) -> float:
        """Right end of the last dwell cell (killing time or horizon)."""
        return self.horizon if self.killed_at is None else self.killed_at

    def to_csv(self) -> str:
        return _node_csv({"killed_at": self.killed_at}, "t,x", self.times, self.values)

    @classmethod
    def from_csv(cls, text: str, horizon: float | None = None) -> "PathSample":
        """Read a path CSV: the text `to_csv` writes, or any text that
        `_read_lines` reads.  The horizon defaults to the killing time, else
        the last t.  ValueError is raised for the first bad line, then for a
        text without rows, then for what `PathSample` refuses (NaN, times
        that do not increase, ...).

        Text in the writer's shape takes a fast path: a head of lines, a
        `t,x` line, then ASCII rows that each hold one comma, no `#`, no `t`
        and no byte at or below " " but their final "\\n".  The head goes
        through `_read_lines`, and the rows' fields through `float` _CSV_ROWS
        rows at a time.  Any other text goes whole through `_read_lines`."""
        head, _, body = text.partition("t,x\n")
        fast = (head[-1:] in ("", "\n") and body.endswith("\n") and body.isascii()
                and "#" not in body and "t" not in body)
        if fast:
            raw = np.frombuffer(body.encode(), np.uint8)
            ends = np.flatnonzero(raw == ord("\n"))
            commas = np.flatnonzero(raw == ord(","))
            # the only whitespace is "\n", and the k-th comma lies in the k-th line
            fast = (np.count_nonzero(raw <= ord(" ")) == len(ends) == len(commas)
                    and (commas < ends).all() and (commas[1:] > ends[:-1]).all())
        killed_at, rows = _read_lines(head if fast else text)
        if fast:
            cuts = [0, *(ends[_CSV_ROWS - 1 : -1 : _CSV_ROWS] + 1).tolist(), len(body)]
            fields = (body[i : j - 1].replace("\n", ",").split(",") for i, j in zip(cuts, cuts[1:]))
            parsed = np.fromiter(map(float, chain.from_iterable(fields)), float, 2 * len(ends))
            rows = np.concatenate((rows, parsed.reshape(-1, 2).T), axis=1)
        if not rows.shape[1]:
            raise ValueError("a path CSV needs at least one row")
        if horizon is None:
            horizon = killed_at if killed_at is not None else float(rows[0, -1])
        return cls(rows[0], rows[1], horizon=horizon, killed_at=killed_at)


def _read_lines(text: str) -> tuple[float | None, np.ndarray]:
    """(killed_at, (2, n) rows t, x) of a path CSV, read line by line; this
    loop defines the format.  Lines are those of `str.splitlines`, stripped.
    Blank and `t,x` lines are skipped, and so are `#` comments, of which the
    last that holds `killed_at=` gives the killing time.  Every other line is
    a row: two fields split by one comma, each read by `float`.  A row
    without exactly one comma raises ValueError, quoted."""
    killed_at, rows = None, []
    for line in text.splitlines():
        line = line.strip()
        if not line or line == "t,x":
            continue
        if line.startswith("#"):
            if "killed_at=" in line:
                killed_at = float(line.split("killed_at=")[1])
            continue
        row = line.split(",")
        if len(row) != 2:
            raise ValueError(f"a path CSV row must be t,x, got {line!r}")
        rows.append((float(row[0]), float(row[1])))
    return killed_at, np.array(rows, float).reshape(-1, 2).T


def _cms(alpha: float, u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Chambers-Mallows-Stuck transform of uniforms u on (-pi/2, pi/2) and
    unit exponentials w into unit-time symmetric standard stable variates.
    For alpha near 0 a factor can leave the float range, and inf * 0 is NaN:
    the variates that are not finite are recomputed from logarithms, so
    they come out +-inf or finite, and every finite one keeps its bits."""
    if alpha == 1.0:
        return np.tan(u)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x = (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
        # one pass over x; finite variates whose sum overflows only cost a mask
        if not math.isfinite(x.sum()):
            bad = ~np.isfinite(x)
            u, w = u[bad], w[bad]
            log = (
                np.log(np.abs(np.sin(alpha * u)))
                - np.log(np.cos(u)) / alpha
                + (np.log(np.cos((1.0 - alpha) * u)) - np.log(w)) * ((1.0 - alpha) / alpha)
            )
            x[bad] = np.sign(u) * np.exp(log)
    return x


def _self_similar(t: float, alpha: float, x):
    """t^(1/alpha) * x, the scale of time t applied to x.  Where t^(1/alpha)
    leaves the float range (alpha near 0), the product is taken from
    logarithms instead, so it comes out +-inf, +-0 or finite, never NaN."""
    try:
        scale = t ** (1.0 / alpha)
    except OverflowError:
        scale = math.inf
    if 0.0 < scale < math.inf:
        with np.errstate(over="ignore"):  # a finite x times scale may overflow
            return scale * x
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        return np.sign(x) * np.exp(math.log(t) / alpha + np.log(np.abs(x)))


def sample_increment(params: StableParams, dt: float, rng: np.random.Generator) -> float:
    """One increment of X over a window of length dt; self-similarity scales
    a unit-time sample by dt^(1/alpha)."""
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=1)
    w = rng.exponential(1.0, size=1)
    return float(_self_similar(dt, params.alpha, _cms(params.alpha, u, w))[0])


def grid_cells(horizon: float, step: float) -> int:
    """Number of cells of the uniform grid of mesh <= step on [0, horizon];
    a horizon or step that is not finite and positive, or whose ratio
    overflows, raises ValueError."""
    if not (0.0 < horizon < math.inf and 0.0 < step < math.inf and horizon / step < math.inf):
        raise ValueError(
            f"horizon and step must be finite and positive, with a finite ratio, "
            f"got {horizon}, {step}"
        )
    return max(1, int(math.ceil(horizon / step)))


def cell_dwell(times, end) -> np.ndarray:
    """The dwell of every node of times (a node list, or rows of them, never
    decreasing): the time to the next node or to end, whichever comes
    first, and 0 from end on.  end is one end per node list."""
    times, end = np.asarray(times, float), np.asarray(end, float)[..., None]
    # the cut at end moves no node when no list ends before its last node
    if not (times[..., -1:] <= end).all():
        times = np.minimum(times, end)
    return np.diff(times, append=end)


@dataclass(frozen=True)
class PathBlock:
    """Skeletons of several paths on one uniform grid of n cells, one row of
    2n + 1 nodes per path.

    Node 2k holds grid value k from grid time k.  Node 2k + 1 holds grid
    value k + 1 from the cell's jump time when cell k was refined, and from
    grid time k + 1 otherwise, where it dwells for no time.
    """

    times: np.ndarray  # (B, 2n + 1) node times
    values: np.ndarray  # (B, 2n + 1) node values
    killed_at: np.ndarray  # (B,) killing times, +inf for rows alive at the horizon
    horizon: float

    def __len__(self) -> int:
        return len(self.values)

    def cells(self, width: int | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(values, dwell) of the first width nodes of every row (all of them
        without width), with `cell_dwell` cut at the killing time.  A node
        without dwell adds +0.0 to a row's running sum, so sums along rows
        equal those along path(i)."""
        stop = None if width is None else width + 1
        end = np.minimum(self.killed_at, self.horizon)
        return self.values[:, :width], cell_dwell(self.times[:, :stop], end)[:, :width]

    def path(self, i: int) -> PathSample:
        """Row i as a PathSample: the nodes whose time is below both the next
        node's time and the killing time, and always the first."""
        times, tau = self.times[i], float(self.killed_at[i])
        keep = np.append(times[:-1] < times[1:], True) & (times < tau)
        keep[0] = True
        return PathSample(
            times[keep], self.values[i, keep], horizon=self.horizon,
            killed_at=tau if tau <= self.horizon else None,
        )


def sample_block(
    params: StableParams,
    z: float | np.ndarray,
    horizon: float,
    step: float,
    rng: np.random.Generator,
    killing: KillingSpec | None = None,
    rows: int = 1,
) -> PathBlock:
    """Simulate rows paths on a shared grid of n cells of mesh <= step, from
    z: one start for every row, or a column of one per row.

    The draws from rng come in this order: (rows, n) uniforms, then
    (rows, n) exponentials for the increments, one uniform per refined cell
    in row-major order, then rows killing times; with rows = 1 that is the
    order of a single path.  Any cell whose increment exceeds JUMP_FACTOR *
    step^(1/alpha) gets a jump time drawn uniformly inside it, attributing
    the move to a single jump there: the time of the cell's odd node.
    """
    if not np.isfinite(z).all():
        raise ValueError(f"z must be finite, got {z}")
    if rows < 1:
        raise ValueError(f"rows must be >= 1, got {rows}")
    _hold_block_memory()
    n = grid_cells(horizon, step)
    dt = horizon / n
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size=(rows, n))
    w = rng.exponential(1.0, size=(rows, n))
    incs = _self_similar(dt, params.alpha, _cms(params.alpha, u, w))
    # the grid on the even nodes, each odd node a copy of the next even one;
    # k * dt with the horizon last is np.linspace(0, horizon, n + 1), bit for bit
    grid = np.arange(n + 1) * dt
    grid[-1] = horizon
    times, values = np.empty((rows, 2 * n + 1)), np.empty((rows, 2 * n + 1))
    times[:] = grid.repeat(2)[1:]
    values[:, :1] = z
    # a path that leaves the float range stays at that infinity: the sums
    # add finite increments, never -inf to +inf
    clipped = np.minimum(np.maximum(incs, -_FLOAT_MAX), _FLOAT_MAX)
    with np.errstate(over="ignore"):
        sums = np.cumsum(clipped, axis=1)
        sums += z
    values[:, 1::2] = values[:, 2::2] = sums

    row, cell = np.nonzero(np.abs(incs) > _self_similar(step, params.alpha, JUMP_FACTOR))
    jumps = rng.uniform(_FLOAT_EPS, 1.0 - _FLOAT_EPS, row.size)
    times[row, 2 * cell + 1] = times[row, 2 * cell] + dt * jumps

    killed_at = np.full(rows, math.inf)
    if killing is not None:
        tau = rng.exponential(1.0 / killing.q, size=rows)
        killed_at = np.where(tau <= horizon, tau, math.inf)
    return PathBlock(times, values, killed_at, horizon)


def sample_path(
    params: StableParams,
    z: float,
    horizon: float,
    step: float,
    rng: np.random.Generator,
    killing: KillingSpec | None = None,
) -> PathSample:
    """Simulate a path skeleton from z on a grid of mesh <= step: the one-row
    `sample_block`, without the nodes that dwell for no time."""
    return sample_block(params, z, horizon, step, rng, killing=killing).path(0)
