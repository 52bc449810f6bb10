"""Weak solutions of dZ = sigma(Z-) dX by time change (Z = X_phi) and the
four-way existence/uniqueness classification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .funcspec import FunctionSpec
from .functionals import Thresholds, _clock
from .integrals import PointedSet, _require_cover, irregular_set, zero_set
from .intervals import _check_alpha
from .stable import PathSample, StableParams, _node_csv, sample_path, stream_rng


@dataclass(frozen=True)
class SolutionPath:
    """Time-changed solution skeleton: Z at s equals the driver at phi_s.

    s_grid holds the accumulated clock I at the retained driver nodes, the
    first len(s_grid) of them: time_change reads their driver times phi,
    values the solution Z = X(phi) and z its start.  The status is frozen,
    exploded or horizon_reached, as frozen_at or exploded_at is set or
    neither.  value_at is the right-continuous step lookup.
    """

    driver: PathSample
    s_grid: np.ndarray
    frozen_at: float | None = None
    exploded_at: float | None = None

    def __post_init__(self):
        if self.frozen_at is not None and self.exploded_at is not None:
            raise ValueError("freezing and explosion preclude one another")

    @property
    def time_change(self) -> np.ndarray:
        return self.driver.times[: len(self.s_grid)]

    @property
    def values(self) -> np.ndarray:
        return self.driver.values[: len(self.s_grid)]

    @property
    def z(self) -> float:
        return self.driver.origin

    @property
    def status(self) -> str:
        if self.frozen_at is not None:
            return "frozen"
        return "horizon_reached" if self.exploded_at is None else "exploded"

    def value_at(self, s: float) -> float:
        """Z_s: right-continuous step interpolation; constant after the grid
        ends (frozen paths stay at their terminal value)."""
        if not s >= 0.0:
            raise ValueError(f"s must be nonnegative, got {s}")
        idx = int(np.searchsorted(self.s_grid, s, side="right")) - 1
        return float(self.values[max(idx, 0)])

    def to_csv(self) -> str:
        comments = {
            "status": self.status, "frozen_at": self.frozen_at, "exploded_at": self.exploded_at
        }
        return _node_csv(comments, "s,phi,z_value", self.s_grid, self.time_change, self.values)


def solve_time_change(
    alpha: float,
    sigma: FunctionSpec,
    z: float,
    horizon: float,
    step: float,
    rng_state,
    thresholds: Thresholds = Thresholds(),
) -> SolutionPath:
    """Simulate a driver from z, accumulate I_t = int sigma(X)^-alpha, and
    read the solution off the inverse clock.

    Frozen when I reaches +inf or M at a finite driver time (the driver
    entered the irregular set).  Exploded, with lifetime estimate
    exploded_at, when the driver's last value makes it certain: it can
    never enter a zero interval of sigma, and the tail integral of
    sigma^-alpha is finite.  horizon_reached otherwise; thresholds.r has no
    effect.
    """
    _check_alpha(alpha)
    rng = stream_rng(rng_state, 0) if isinstance(rng_state, int) else rng_state
    driver = sample_path(StableParams(alpha), z, horizon, step, rng)
    _, cum, k, _, explodes = _clock(driver, sigma.inverse_power(alpha), alpha, thresholds)
    frozen, exploded = k is not None, explodes == "yes"
    end = k + 1 if frozen else len(driver.times)
    return SolutionPath(
        driver=driver,
        s_grid=cum[:end],
        frozen_at=float(cum[k]) if frozen else None,
        exploded_at=float(cum[-1]) if exploded else None,
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Existence/uniqueness classification from the irregular set O and the
    zero set N: local nontrivial solutions exist from z iff z is not in O;
    solutions exist from every z iff O is contained in N; nontrivial global
    solutions iff O is empty; uniqueness in law everywhere iff O = N."""

    irregular: PointedSet
    zeros: PointedSet
    notes: str = ""

    @property
    def global_all_z(self) -> bool:
        return self.irregular.issubset(self.zeros)

    @property
    def nontrivial_global_all_z(self) -> bool:
        return self.irregular.is_empty()

    @property
    def unique_global_all_z(self) -> bool:
        return self.irregular == self.zeros

    def local_nontrivial_at(self, z: float) -> bool:
        if not math.isfinite(z):
            raise ValueError(f"z must be finite, got {z}")
        return not self.irregular.contains(z)

    def to_json(self, at: tuple[float, ...] = ()) -> str:
        """O and N in `PointedSet.to_dict`'s form, the local predicate at
        each z of `at`, the three global answers and the notes, encoded
        once."""
        return json.dumps(
            {
                "O": self.irregular.to_dict(),
                "N": self.zeros.to_dict(),
                "local_at": {str(z): self.local_nontrivial_at(z) for z in at},
                "global_all": self.global_all_z,
                "nontrivial_global_all": self.nontrivial_global_all_z,
                "unique_all": self.unique_global_all_z,
                "notes": self.notes,
            }
        )


def classify_sde(alpha: float, sigma: FunctionSpec) -> ClassificationReport:
    """Compute O and N; the four-way classification compares them.  A sigma
    whose pieces leave part of the line uncovered is refused."""
    _require_cover("sigma must cover the whole line", sigma.pieces)
    return ClassificationReport(irregular_set(alpha, sigma), zero_set(sigma))
