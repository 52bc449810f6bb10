"""Simulation and analytic classification of one-dimensional SDEs
dZ = sigma(Z-) dX driven by symmetric alpha-stable processes, alpha in (0,1).
"""

from .funcspec import (
    FunctionSpec,
    FunctionSpecError,
    Piece,
    PowerForm,
    TableForm,
    parse_inline,
)
from .functionals import (
    PathVerdict,
    Thresholds,
    classify_path,
    inverse_time_change,
    path_integral,
)
from .integrals import (
    PointedSet,
    TestVerdict,
    green_constant,
    hitting_probability,
    irregular_set,
    kernel_integral,
    monotone_pole_test,
    power_law_test,
    zero_set,
)
from .intervals import (
    IntervalSet,
    SeriesVerdict,
    ShellSpec,
    ball_capacity,
    build_example_set,
    example_set_potential_partial_sums,
    interval_capacity_upper,
    wiener_sum,
)
from .sde import (
    ClassificationReport,
    SolutionPath,
    classify_sde,
    solve_time_change,
)
from .experiments import (
    Estimate,
    ExperimentConfig,
    run_experiment,
    wilson_ci,
)
from .stable import (
    KillingSpec,
    PathSample,
    StableParams,
    sample_increment,
    sample_path,
    stream_rng,
)

__all__ = [
    "FunctionSpec",
    "FunctionSpecError",
    "Piece",
    "PowerForm",
    "TableForm",
    "parse_inline",
    "PathVerdict",
    "Thresholds",
    "classify_path",
    "inverse_time_change",
    "path_integral",
    "PointedSet",
    "TestVerdict",
    "green_constant",
    "hitting_probability",
    "irregular_set",
    "kernel_integral",
    "monotone_pole_test",
    "power_law_test",
    "zero_set",
    "IntervalSet",
    "SeriesVerdict",
    "ShellSpec",
    "ball_capacity",
    "build_example_set",
    "example_set_potential_partial_sums",
    "interval_capacity_upper",
    "wiener_sum",
    "ClassificationReport",
    "SolutionPath",
    "classify_sde",
    "solve_time_change",
    "Estimate",
    "ExperimentConfig",
    "run_experiment",
    "wilson_ci",
    "KillingSpec",
    "PathSample",
    "StableParams",
    "sample_increment",
    "sample_path",
    "stream_rng",
]

__version__ = "0.1.0"
