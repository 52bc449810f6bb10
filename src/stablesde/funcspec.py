"""Structured nonnegative functions: piecewise power laws and bounded tables,
with marked poles and zeros.

A FunctionSpec describes sigma (the SDE coefficient) or an integrand f with
values in [0, +inf].  Pieces cover the line without overlap; each piece is
either a power law c*|x-p|^e or a finite tabulated function.  Zeros and poles
are marked explicitly because finiteness verdicts hinge on them; a zero (of
sigma) may carry the `isolated_monotone` flag meaning sigma is monotone on a
one-sided neighborhood of radius delta on each side.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .intervals import IntervalSet

INF = math.inf


@dataclass(frozen=True)
class PowerForm:
    """c * |x - p|^e on a piece; c may be 0 (zero piece) or +inf (pole piece,
    used with e = 0 for functions that are infinite on a set)."""

    c: float
    e: float = 0.0
    p: float = 0.0

    def __post_init__(self):
        if not self.c >= 0:
            raise ValueError(f"power coefficient must be nonnegative, got {self.c}")
        if not (math.isfinite(self.e) and math.isfinite(self.p)):
            raise ValueError(f"power exponent and anchor must be finite, got {self.e}, {self.p}")


@dataclass(frozen=True)
class TableForm:
    """Bounded tabulated function, linearly interpolated inside its piece."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self):
        if len(self.xs) != len(self.ys) or len(self.xs) < 2:
            raise ValueError("table needs matching xs/ys with >= 2 nodes")
        if any(not math.isfinite(y) or y < 0 for y in self.ys):
            raise ValueError("tabulated values must be finite and nonnegative")


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    form: PowerForm | TableForm

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("piece interval is empty")


@dataclass(frozen=True)
class ZeroMark:
    """A marked zero: either a point (`at`) or an interval.  The monotone
    flag applies to point zeros only and certifies a one-sided monotone
    neighborhood of radius delta."""

    at: float | None = None
    interval: tuple[float, float] | None = None
    isolated_monotone: bool = False
    delta: float = INF

    def __post_init__(self):
        if (self.at is None) == (self.interval is None):
            raise ValueError("a zero mark is either a point or an interval")
        iv = self.interval
        if iv is not None and not (len(iv) == 2 and iv[0] < iv[1]):
            raise ValueError(f"an interval zero must be a pair [a, b] with a < b, got {iv}")
        _check_mark(self.at, self.delta)


@dataclass(frozen=True)
class PoleMark:
    at: float
    isolated_monotone: bool = False
    delta: float = INF

    def __post_init__(self):
        _check_mark(self.at, self.delta)


def _check_mark(at, delta) -> None:
    if (at is not None and math.isnan(at)) or math.isnan(delta):
        raise ValueError("a marked zero or pole must not sit at NaN or have a NaN delta")


class FunctionSpecError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionSpec:
    """Piecewise power-law / tabulated function with marked poles and zeros."""

    pieces: tuple[Piece, ...]
    poles: tuple[PoleMark, ...] = ()
    zeros: tuple[ZeroMark, ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted(self.pieces, key=lambda pc: pc.lo))
        for a, b in zip(ordered, ordered[1:]):
            if a.hi > b.lo:
                raise FunctionSpecError("pieces overlap")
        object.__setattr__(self, "pieces", ordered)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "FunctionSpec":
        return cls((Piece(-INF, INF, PowerForm(c=float(c))),))

    @classmethod
    def power(cls, e: float, c: float = 1.0, p: float = 0.0) -> "FunctionSpec":
        """c*|x-p|^e on the whole line.  e > 0 marks a monotone zero at p,
        e < 0 marks a monotone pole at p."""
        spec = cls((Piece(-INF, INF, PowerForm(c=float(c), e=float(e), p=float(p))),))
        if e > 0 and c > 0:
            spec = cls(
                spec.pieces,
                zeros=(ZeroMark(at=float(p), isolated_monotone=True),),
            )
        elif e < 0 and c > 0:
            spec = cls(
                spec.pieces,
                poles=(PoleMark(at=float(p), isolated_monotone=True),),
            )
        return spec

    @classmethod
    def indicator_complement(cls, s: IntervalSet) -> "FunctionSpec":
        """1 off the set, 0 on it; the set is recorded as interval zeros."""
        zeros = tuple(ZeroMark(interval=(a, b)) for a, b in s.intervals)
        return cls(_two_level(s, 0.0, 1.0), zeros=zeros)

    @classmethod
    def infinite_indicator(cls, s: IntervalSet) -> "FunctionSpec":
        """+inf on the set, 0 elsewhere (the drastic path-integral example)."""
        return cls(_two_level(s, INF, 0.0))

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Vectorized evaluation; returns +inf at poles, 0 on zero sets."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.full(arr.shape, np.nan)
        for pc in self.pieces:
            mask = (arr >= pc.lo) & (arr < pc.hi)
            if not mask.any():
                continue
            xs = arr[mask]
            if isinstance(pc.form, PowerForm):
                c, e, p = pc.form.c, pc.form.e, pc.form.p
                if c == 0.0:
                    out[mask] = 0.0
                elif not math.isfinite(c):
                    out[mask] = INF
                elif e == 0.0:
                    out[mask] = c
                else:
                    d = np.abs(xs - p)
                    with np.errstate(divide="ignore"):
                        out[mask] = c * d ** e
            else:
                out[mask] = np.interp(xs, pc.form.xs, pc.form.ys)
        for mark in self.poles:
            out[arr == mark.at] = INF
        for mark in self.zeros:
            if mark.at is not None:
                out[arr == mark.at] = 0.0
            else:
                a, b = mark.interval
                out[(arr >= a) & (arr < b)] = 0.0
        if np.isnan(out).any():
            raise FunctionSpecError("evaluation outside the declared domain")
        return float(out[0]) if scalar else out

    # -- structure queries -------------------------------------------------

    def piece_at(self, x: float) -> Piece:
        for pc in self.pieces:
            if pc.lo <= x < pc.hi:
                return pc
        raise FunctionSpecError(f"no piece covers x={x}")

    def pole_mark_at(self, x: float) -> PoleMark | None:
        for mark in self.poles:
            if mark.at == x:
                return mark
        return None

    def pole_points(self) -> tuple[float, ...]:
        """All points where the function is +inf on an isolated point: marked
        poles plus anchors of negative-exponent power pieces."""
        pts = {m.at for m in self.poles}
        for pc in self.pieces:
            if (
                isinstance(pc.form, PowerForm)
                and pc.form.c > 0
                and math.isfinite(pc.form.c)
                and pc.form.e < 0
                and pc.lo <= pc.form.p <= pc.hi
            ):
                pts.add(pc.form.p)
        return tuple(sorted(pts))

    def infinite_intervals(self) -> IntervalSet:
        """Intervals of positive measure where the function is +inf."""
        pieces = [
            (pc.lo, pc.hi)
            for pc in self.pieces
            if isinstance(pc.form, PowerForm) and not math.isfinite(pc.form.c)
        ]
        return IntervalSet.of(*pieces)

    def local_power(self, x: float) -> tuple[float, float]:
        """(c, e) of the power behavior c*|y-x|^e of the function near x.
        Only meaningful when x anchors a power piece; a finite positive value
        reads as (value, 0)."""
        pc = self.piece_at(x)
        if isinstance(pc.form, PowerForm) and pc.form.p == x and pc.form.e != 0.0:
            return pc.form.c, pc.form.e
        v = self(x)
        if math.isfinite(v):
            return v, 0.0
        raise FunctionSpecError(
            f"cannot determine the local power behavior at x={x}"
        )

    def lower_bound(self) -> float:
        """Global infimum of the function over the line."""
        if self.zeros:
            return 0.0
        best = INF
        for pc in self.pieces:
            if isinstance(pc.form, TableForm):
                best = min(best, min(pc.form.ys))
                continue
            c, e, p = pc.form.c, pc.form.e, pc.form.p
            if c == 0.0:
                return 0.0
            if not math.isfinite(c):
                continue
            if e == 0.0:
                best = min(best, c)
            else:
                ds = [abs(x - p) for x in (pc.lo, pc.hi) ]
                if pc.lo <= p <= pc.hi:
                    ds.append(0.0)
                vals = []
                for d in ds:
                    if d == 0.0:
                        vals.append(0.0 if e > 0 else INF)
                    elif math.isinf(d):
                        vals.append(INF if e > 0 else 0.0)
                    else:
                        vals.append(c * d ** e)
                best = min(best, min(vals))
        return best

    def inverse_power(self, alpha: float) -> "FunctionSpec":
        """The integrand sigma^(-alpha) of the time change: power pieces map
        (c, e) -> (c^-alpha, -alpha*e); zeros become poles and vice versa."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        pieces = []
        for pc in self.pieces:
            if isinstance(pc.form, TableForm):
                if any(y == 0.0 for y in pc.form.ys):
                    raise FunctionSpecError(
                        "tabulated sigma with zeros cannot be inverted; mark "
                        "the zero and cover it with a power piece"
                    )
                ys = tuple(y ** (-alpha) for y in pc.form.ys)
                pieces.append(Piece(pc.lo, pc.hi, TableForm(pc.form.xs, ys)))
                continue
            c, e, p = pc.form.c, pc.form.e, pc.form.p
            if c == 0.0:
                nc = INF
            elif not math.isfinite(c):
                nc = 0.0
            else:
                nc = c ** (-alpha)
            pieces.append(Piece(pc.lo, pc.hi, PowerForm(c=nc, e=-alpha * e, p=p)))
        poles = tuple(
            PoleMark(at=z.at, isolated_monotone=z.isolated_monotone, delta=z.delta)
            for z in self.zeros
            if z.at is not None
        )
        zeros = tuple(
            ZeroMark(at=m.at, isolated_monotone=m.isolated_monotone, delta=m.delta)
            for m in self.poles
        )
        # interval zeros of sigma turn into infinite pieces of the integrand
        extra = []
        for z in self.zeros:
            if z.interval is not None:
                a, b = z.interval
                extra.append((a, b))
        if extra:
            pieces = _override_with_infinite(pieces, extra)
        return FunctionSpec(tuple(pieces), poles=poles, zeros=zeros)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {"pieces": [], "poles": [], "zeros": []}
        for pc in self.pieces:
            if isinstance(pc.form, PowerForm):
                form = {"power": {"c": pc.form.c, "e": pc.form.e, "p": pc.form.p}}
            else:
                form = {"table": {"x": list(pc.form.xs), "y": list(pc.form.ys)}}
            doc["pieces"].append({"interval": [pc.lo, pc.hi], "form": form})
        for m in self.poles:
            doc["poles"].append(
                {"at": m.at, "isolated_monotone": m.isolated_monotone, "delta": m.delta}
            )
        for z in self.zeros:
            entry = {"isolated_monotone": z.isolated_monotone, "delta": z.delta}
            if z.at is not None:
                entry["at"] = z.at
            else:
                entry["interval"] = list(z.interval)
            doc["zeros"].append(entry)
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "FunctionSpec":
        """A spec from JSON, every number read through float().  A piece,
        pole or zero without a key it needs, or a document of the wrong
        shape (say a list where an object belongs, a boolean where a number
        belongs or a string where a boolean belongs), raises
        FunctionSpecError, as any other malformed spec does."""
        try:
            doc = json.loads(text)
            pieces = []
            for item in doc.get("pieces", []):
                interval = _numbers(item["interval"])
                if len(interval) != 2:
                    raise FunctionSpecError(
                        f"a piece interval must be a pair [a, b] with a < b, got {interval}"
                    )
                lo, hi = interval
                form = item["form"]
                if "power" in form:
                    d = form["power"]
                    power = PowerForm(
                        _number(d["c"]), _number(d.get("e", 0.0)), _number(d.get("p", 0.0))
                    )
                    pieces.append(Piece(lo, hi, power))
                elif "table" in form:
                    d = form["table"]
                    table = TableForm(_numbers(d["x"]), _numbers(d["y"]))
                    pieces.append(Piece(lo, hi, table))
                else:
                    raise FunctionSpecError(f"unknown form {form}")
            poles = tuple(
                PoleMark(
                    _number(m["at"]),
                    _flag(m.get("isolated_monotone", False)),
                    _number(m.get("delta", INF)),
                )
                for m in doc.get("poles", [])
            )
            zeros = []
            for z in doc.get("zeros", []):
                zeros.append(
                    ZeroMark(
                        at=None if z.get("at") is None else _number(z["at"]),
                        interval=_numbers(z["interval"]) if "interval" in z else None,
                        isolated_monotone=_flag(z.get("isolated_monotone", False)),
                        delta=_number(z.get("delta", INF)),
                    )
                )
            return cls(tuple(pieces), poles=poles, zeros=tuple(zeros))
        except KeyError as exc:
            raise FunctionSpecError(f"FunctionSpec JSON lacks the key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise FunctionSpecError(f"malformed FunctionSpec JSON: {exc}") from None


def _number(value) -> float:
    """A JSON number, or a string float() reads; a boolean is refused."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} where a number belongs")
    return float(value)


def _numbers(value) -> tuple[float, ...]:
    """A JSON list of numbers; a string is not read character by character."""
    if not isinstance(value, list):
        raise TypeError(f"{value!r} where a list of numbers belongs")
    return tuple(map(_number, value))


def _flag(value) -> bool:
    """A JSON boolean; the string "false" is not read as true."""
    if not isinstance(value, bool):
        raise TypeError(f"{value!r} where true or false belongs")
    return value


def _two_level(s: IntervalSet, inside: float, outside: float) -> tuple[Piece, ...]:
    """Constant pieces covering the line: `inside` on the set, `outside` off it."""
    off = s.complement_within((-INF, INF)).intervals
    return tuple(
        [Piece(a, b, PowerForm(c=outside)) for a, b in off]
        + [Piece(a, b, PowerForm(c=inside)) for a, b in s.intervals]
    )


def _override_with_infinite(pieces, spans):
    """Replace piece content with +inf on the given spans."""
    out = list(pieces)
    for a, b in spans:
        new = []
        for pc in out:
            lo, hi = max(pc.lo, a), min(pc.hi, b)
            if lo >= hi:
                new.append(pc)
                continue
            if pc.lo < lo:
                new.append(Piece(pc.lo, lo, pc.form))
            new.append(Piece(lo, hi, PowerForm(c=INF)))
            if hi < pc.hi:
                new.append(Piece(hi, pc.hi, pc.form))
        out = new
    return out


_POWER_RE = re.compile(
    r"^power:\|x(?:-(?P<p>-?[0-9.eE+]+))?\|\^(?P<e>-?[0-9.eE+]+)(?:\*(?P<c>[0-9.eE+-]+))?$"
)
_INDICATOR_RE = re.compile(
    r"^indicator:complement:\[(?P<a>-?[0-9.eE+]+),(?P<b>-?[0-9.eE+]+)\)$"
)
_CONST_RE = re.compile(r"^const:(?P<c>[0-9.eE+-]+)$")


def parse_inline(text: str) -> FunctionSpec:
    """Mini-language for common coefficients: `power:|x-p|^e*c`,
    `indicator:complement:[a,b)`, `const:c`, or `example2.2` via callers."""
    text = text.strip()
    m = _POWER_RE.match(text)
    if m:
        p = float(m.group("p") or 0.0)
        e = float(m.group("e"))
        c = float(m.group("c") or 1.0)
        return FunctionSpec.power(e=e, c=c, p=p)
    m = _INDICATOR_RE.match(text)
    if m:
        a, b = float(m.group("a")), float(m.group("b"))
        return FunctionSpec.indicator_complement(IntervalSet.of((a, b)))
    m = _CONST_RE.match(text)
    if m:
        return FunctionSpec.constant(float(m.group("c")))
    raise FunctionSpecError(
        f"cannot parse inline function {text!r}; pass a JSON FunctionSpec file"
    )
