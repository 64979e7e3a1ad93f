"""noisyflow: stationary densities of randomly perturbed conservative flows.

A finite-volume laboratory on flat circles, tori, intervals and
rectangles: conservative flux-form discretization of the density
operator, exact stationary solves, chi^2 decay measurement, and a
closed-form 1D oracle for cross-validation.
"""

from .geometry import Circle, Grid, Interval, Rectangle, Torus2, build_grid, refine_grid
from .fields import (
    Affine,
    Const,
    ConservativeSystem,
    Noise,
    Power,
    Product,
    Sum,
    Trig,
    VectorField,
    builtin_catalog,
    check_admissible,
    construct_selecting_noise,
    coordinate_noise,
    divergence,
    transform_div_free,
)
from .operator import FokkerPlanckOperator, assemble_for, assemble_fp_operator, derive_drift_diffusion
from .stationary import (
    Density,
    StationaryReport,
    discrete_w12_seminorm,
    oracle_1d_circle,
    oracle_1d_interval,
    solve_stationary,
)
from .evolution import (
    DecayFit,
    EvolutionTrace,
    chi_squared,
    evolve,
    fit_decay_rate,
    perturbed_initial,
    poincare_quotient,
)
from .experiments import (
    NoiseSpec,
    SweepConfig,
    SystemSpec,
    Thresholds,
    run_decay_study,
    run_selection,
    run_stability_sweep,
)
from .config import parse_config, serialize_config

__version__ = "0.1.0"
