"""Numerical laboratory for reflected stochastic Burgers-type equations.

Desk-scale experiments around a semi-implicit finite-difference scheme with
exact discrete reflection bookkeeping: rare-event estimation with and
without a Girsanov tilt, rate-function recovery by control optimization,
and coupled-path averaging studies for fast-oscillation coefficients.
"""

from .core import (
    SpatialGrid,
    TimeMesh,
    h_norm,
    path_distance,
    sample_noise,
    sine_field,
    v_norm,
)
from .coefficients import (
    CoefficientSet,
    burgers_multiscale_family,
    estimate_kappa,
    make_burgers_set,
    make_multiscale_set,
)
from .solver import (
    BlowUpError,
    Control,
    ReflectedPath,
    SchemeConfig,
    complementarity_residual,
    solve,
    solve_batch,
    solve_skeleton,
    total_variation_k,
)
from .ratefn import (
    RateFunctionResult,
    rate_function,
)
from .ldp import (
    EventSpec,
    RareEventEstimate,
    condition_convergence_probe,
    estimate_importance,
    estimate_naive,
    fw_lower_bound_probe,
)
from .averaging import (
    AveragingReport,
    penalization_convergence_probe,
    run_averaging_experiment,
)

__version__ = "0.1.0"
