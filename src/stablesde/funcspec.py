"""Structured nonnegative functions: piecewise power laws and bounded tables.

A FunctionSpec describes sigma (the SDE coefficient) or an integrand f with
values in [0, +inf].  Pieces cover the line without overlap; each piece is
either a power law c*|x-p|^e or a finite tabulated function.  The pieces are
the whole spec: where the function vanishes (`zero_points`,
`zero_intervals`), where it is infinite (`pole_points`,
`infinite_intervals`) and how far it is monotone on each side of a point
(`monotone_radius`) are all derived from them, and finiteness verdicts read
nothing else.  A pole's power, which the Monte Carlo clock charges a cell
parked on it by, is that of the most singular power piece anchored there,
on either side.  The "poles" and "zeros" marks of the JSON format are
checked against the pieces and then dropped.

A spec is frozen, so the structure every estimator call reads (its poles
with their forms and its infinite intervals) is worked out once per spec
and kept in the instance, and so is `inverse_power(alpha)` for the last
alpha asked.  That memo is no field: equality, hashing and the JSON form
never see it.
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
        # np.interp reads its nodes as sorted and never checks them
        xs = self.xs
        if not (all(map(math.isfinite, xs)) and all(a < b for a, b in zip(xs, xs[1:]))):
            raise ValueError(f"table nodes must be finite and strictly increasing, got {xs}")


@dataclass(frozen=True)
class Piece:
    lo: float
    hi: float
    form: PowerForm | TableForm

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError("piece interval is empty")


class FunctionSpecError(ValueError):
    pass


@dataclass(frozen=True)
class FunctionSpec:
    """Piecewise power-law / tabulated function."""

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.pieces, key=lambda pc: pc.lo))
        for a, b in zip(ordered, ordered[1:]):
            if a.hi > b.lo:
                raise FunctionSpecError("pieces overlap")
        object.__setattr__(self, "pieces", ordered)
        object.__setattr__(self, "_memo", {})

    def _once(self, key, make):
        """make(), worked out on the first call with this key and kept."""
        memo = self._memo
        if key not in memo:
            memo[key] = make()
        return memo[key]

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "FunctionSpec":
        return cls((Piece(-INF, INF, PowerForm(c=float(c))),))

    @classmethod
    def power(cls, e: float, c: float = 1.0, p: float = 0.0) -> "FunctionSpec":
        """c*|x-p|^e on the whole line.  For finite c > 0 its pieces give a
        zero at p when e > 0 and a pole when e < 0, monotone on each side
        without bound."""
        return cls((Piece(-INF, INF, PowerForm(c=float(c), e=float(e), p=float(p))),))

    @classmethod
    def indicator_complement(cls, s: IntervalSet) -> "FunctionSpec":
        """1 off the set, 0 on it: the set is the spec's `zero_intervals`."""
        return cls(_two_level(s, 0.0, 1.0))

    @classmethod
    def infinite_indicator(cls, s: IntervalSet) -> "FunctionSpec":
        """+inf on the set, 0 elsewhere (the drastic path-integral example)."""
        return cls(_two_level(s, INF, 0.0))

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Vectorized evaluation; returns +inf at poles, 0 on zero sets.  At
        -inf or +inf, a piece reaching it gives its limit there."""
        arr = np.asarray(x, dtype=float)
        scalar = arr.ndim == 0
        arr = np.atleast_1d(arr)
        out = np.full(arr.shape, np.nan)
        for pc in self.pieces:
            below = np.less_equal if pc.hi == INF else np.less
            mask = (arr >= pc.lo) & below(arr, pc.hi)
            if mask.all():
                # one piece covers the input: read and write it as views
                mask = ...
            elif not mask.any():
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
        if np.isnan(out).any():
            raise FunctionSpecError("evaluation outside the declared domain")
        return float(out[0]) if scalar else out

    # -- structure queries -------------------------------------------------

    def pole_points(self) -> tuple[float, ...]:
        """The isolated points where the function blows up: the anchors p in
        [lo, hi] of power pieces with finite c > 0 and e < 0."""
        return tuple(p for p, _ in self.pole_forms())

    def pole_forms(self) -> tuple[tuple[float, PowerForm], ...]:
        """(p, form) for each of `pole_points` p, in order: the most singular
        power anchored at p among the pieces touching p (lower e wins, then
        higher c), which decides whether p is irregular and by which the
        clock charges a cell parked on p."""
        return self._once("pole_forms", self._pole_forms)

    def _pole_forms(self):
        out = []
        for p in sorted({pc.form.p for pc in self._anchored(-1.0) if pc.lo <= pc.form.p <= pc.hi}):
            singular = min((pc.form for pc in self._anchored(-1.0)
                            if pc.form.p == p and pc.lo <= p <= pc.hi),
                           key=lambda form: (form.e, -form.c))
            out.append((p, singular))
        return tuple(out)

    def zero_points(self) -> tuple[float, ...]:
        """The isolated points where the function vanishes: the anchors p in
        [lo, hi) of power pieces with finite c > 0 and e > 0."""
        return tuple(sorted({pc.form.p for pc in self._anchored(1.0)
                              if pc.lo <= pc.form.p < pc.hi}))

    def _anchored(self, sign: float):
        """The power pieces with finite c > 0 whose exponent has this sign."""
        for pc in self.pieces:
            form = pc.form
            if isinstance(form, PowerForm) and 0.0 < form.c < INF and form.e * sign > 0.0:
                yield pc

    def infinite_intervals(self) -> IntervalSet:
        """Intervals of positive measure where the function is +inf."""
        return self._once("infinite_intervals", lambda: self._level_intervals(INF))

    def zero_intervals(self) -> IntervalSet:
        """Intervals of positive measure where the function vanishes."""
        return self._level_intervals(0.0)

    def _level_intervals(self, c: float) -> IntervalSet:
        return IntervalSet.of(*(
            (pc.lo, pc.hi) for pc in self.pieces
            if isinstance(pc.form, PowerForm) and pc.form.c == c
        ))

    def monotone_radius(self, x: float) -> float:
        """How far the pieces make the function monotone on each side of x:
        the distance from x to the nearest piece end other than x (rounded
        down so that the window x -+ radius stays inside the pieces), when up
        to it each side lies in one power piece (a constant counts) with no
        anchor strictly inside; 0.0 when they do not.  inverse_power keeps
        every piece's ends and anchor, so sigma and sigma^-alpha share it."""
        left = [pc for pc in self.pieces if pc.lo < x <= pc.hi]
        right = [pc for pc in self.pieces if pc.lo <= x < pc.hi]
        if not (left and right):
            return 0.0
        lo, hi = left[0].lo, right[0].hi
        radius = min(x - lo, hi - x)
        # rounded down until x - radius and x + radius lie inside the pieces
        while x - radius < lo or x + radius > hi:
            radius = math.nextafter(radius, 0.0)
        for pc, a, b in ((left[0], x - radius, x), (right[0], x, x + radius)):
            form = pc.form
            if not isinstance(form, PowerForm):
                return 0.0
            if form.e != 0.0 and 0.0 < form.c < INF and a < form.p < b:
                return 0.0
        return radius

    def inverse_power(self, alpha: float) -> "FunctionSpec":
        """The integrand sigma^(-alpha) of the time change: power pieces map
        (c, e) -> (c^-alpha, -alpha*e), so zeros become poles and vice versa
        (a c = 0 piece becomes a c = +inf one); tables map pointwise."""
        if not alpha > 0:
            raise ValueError("alpha must be positive")
        # the last alpha's inverse is kept, keyed by type too: a numpy alpha
        # gives numpy coefficients
        key = (type(alpha), alpha)
        last = self._memo.get("inverse_power")
        if last is None or last[0] != key:
            last = self._memo["inverse_power"] = (key, self._inverse_power(alpha))
        return last[1]

    def _inverse_power(self, alpha: float) -> "FunctionSpec":
        pieces = []
        for pc in self.pieces:
            if isinstance(pc.form, TableForm):
                if any(y == 0.0 for y in pc.form.ys):
                    raise FunctionSpecError(
                        "tabulated sigma with zeros cannot be inverted; cover "
                        "the zero with a power piece"
                    )
                ys = tuple(_inverse(y, alpha, pc) for y in pc.form.ys)
                pieces.append(Piece(pc.lo, pc.hi, TableForm(pc.form.xs, ys)))
                continue
            c, e, p = pc.form.c, pc.form.e, pc.form.p
            if c == 0.0:
                nc = INF
            elif not math.isfinite(c):
                nc = 0.0
            else:
                nc = _inverse(c, alpha, pc)
            pieces.append(Piece(pc.lo, pc.hi, PowerForm(c=nc, e=-alpha * e, p=p)))
        return FunctionSpec(tuple(pieces))

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        doc = {"pieces": []}
        for pc in self.pieces:
            if isinstance(pc.form, PowerForm):
                form = {"power": {"c": pc.form.c, "e": pc.form.e, "p": pc.form.p}}
            else:
                form = {"table": {"x": list(pc.form.xs), "y": list(pc.form.ys)}}
            doc["pieces"].append({"interval": [pc.lo, pc.hi], "form": form})
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "FunctionSpec":
        """A spec from JSON, every number read through float().  A piece,
        pole or zero without a key it needs, or a document of the wrong
        shape (say a list where an object belongs, a boolean where a number
        belongs or a string where a boolean belongs), raises
        FunctionSpecError, as any other malformed spec does.  The "poles"
        and "zeros" marks are checked against the pieces (`_check_marks`)
        and not kept."""
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
            spec = cls(tuple(pieces))
            _check_marks(spec, doc.get("poles", []), doc.get("zeros", []))
            return spec
        except KeyError as exc:
            raise FunctionSpecError(f"FunctionSpec JSON lacks the key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise FunctionSpecError(f"malformed FunctionSpec JSON: {exc}") from None


def _inverse(y: float, alpha: float, pc: Piece) -> float:
    """y ** -alpha for a positive value y of the piece pc.  Where that
    leaves the float range (a subnormal y near alpha = 1), a float alpha
    raises OverflowError and a numpy one gives inf: FunctionSpecError either
    way, since inf would read a positive sigma as a zero interval."""
    try:
        with np.errstate(over="ignore"):
            v = y ** (-alpha)
    except OverflowError:
        v = INF
    if not math.isfinite(v):
        raise FunctionSpecError(
            f"sigma^-alpha leaves the float range on the piece [{pc.lo}, {pc.hi}) "
            f"at alpha={alpha}: {y} ** -{alpha} is not finite"
        )
    return v


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


def _check_marks(spec: FunctionSpec, poles, zeros) -> None:
    """Refuse a JSON mark its spec's pieces do not bear out.  A pole mark
    needs an `at` among `pole_points`; a zero mark needs an `at` where the
    pieces vanish, or an `interval` [a, b] inside `zero_intervals`.  An
    `isolated_monotone` flag needs `monotone_radius` at least `delta`."""
    marks = [("pole", m, m["at"]) for m in poles] + [("zero", m, m.get("at")) for m in zeros]
    if not marks:
        return
    vanish = spec.zero_intervals()
    for kind, mark, at in marks:
        flag = _flag(mark.get("isolated_monotone", False))
        delta = _number(mark.get("delta", INF))
        at = None if at is None else _number(at)
        iv = _numbers(mark["interval"]) if kind == "zero" and "interval" in mark else None
        if (at is None) == (iv is None):
            raise FunctionSpecError(f"a {kind} mark needs one point, or a zero one interval")
        if (at is not None and math.isnan(at)) or math.isnan(delta):
            raise FunctionSpecError("a marked zero or pole must not sit at NaN or have a NaN delta")
        if iv is not None:
            if not (len(iv) == 2 and iv[0] < iv[1]):
                raise FunctionSpecError(
                    f"an interval zero must be a pair [a, b] with a < b, got {iv}"
                )
            if not any(a <= iv[0] and iv[1] <= b for a, b in vanish.intervals):
                raise FunctionSpecError(f"the pieces do not vanish on all of the zero mark {iv}")
            continue
        if kind == "pole":
            named = at in spec.pole_points()
        else:
            named = at in spec.zero_points() or vanish.contains(at)
        if not named:
            raise FunctionSpecError(f"the {kind} mark at {at} names no {kind} of the pieces")
        if flag and not spec.monotone_radius(at) >= delta:
            raise FunctionSpecError(
                f"the pieces are monotone on each side of {at} up to "
                f"{spec.monotone_radius(at)}, not up to the marked delta {delta}"
            )


def _two_level(s: IntervalSet, inside: float, outside: float) -> tuple[Piece, ...]:
    """Constant pieces covering the line: `inside` on the set, `outside` off it."""
    off = s.complement_within((-INF, INF)).intervals
    return tuple(
        [Piece(a, b, PowerForm(c=outside)) for a, b in off]
        + [Piece(a, b, PowerForm(c=inside)) for a, b in s.intervals]
    )


# the inline forms: each group takes a number's text up to its delimiter
# and the constructor reads it, so float() alone decides what a number is
_INLINE = (
    (re.compile(r"power:\|x(?:-(?P<p>[^|]+))?\|\^(?P<e>[^*]+)(?:\*(?P<c>.+))?"),
     FunctionSpec.power),
    (re.compile(r"indicator:complement:\[(?P<a>[^,]+),(?P<b>.+)\)"),
     lambda a, b: FunctionSpec.indicator_complement(IntervalSet.of((a, b)))),
    (re.compile(r"const:(?P<c>.+)"), FunctionSpec.constant),
)


def parse_inline(text: str) -> FunctionSpec:
    """Mini-language for common coefficients: `power:|x-p|^e*c`,
    `indicator:complement:[a,b)`, `const:c`, or `example2.2` via callers; a
    number float() cannot read, or the spec refuses, raises FunctionSpecError."""
    for pattern, make in _INLINE:
        if m := pattern.fullmatch(text.strip()):
            try:
                return make(**{k: v for k, v in m.groupdict().items() if v is not None})
            except ValueError as exc:
                raise FunctionSpecError(f"inline function {text!r}: {exc}") from None
    raise FunctionSpecError(f"cannot parse inline function {text!r}; pass a JSON FunctionSpec file")
