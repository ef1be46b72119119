"""Hellinger-Kantorovich geometry on discrete nonnegative measures.

Entropy-transport solvers with duality certificates, mollified Legendre
potentials, cylinder-function calculus, samplers and validators for the
multiplicative infinite-dimensional Lebesgue measure, and squared-Bessel
radial dynamics.
"""

from .measures import (
    DiscreteMeasure,
    dilate,
    hellinger_sq,
    load_measure,
    measure_from_csv,
    measure_from_json,
    measure_to_csv,
    measure_to_json,
    save_measure,
    wasserstein_sq,
)
from .cone import cone_dist, g_transform, let_cost
from .let import (
    ConePlan,
    LetProblem,
    LetSolution,
    ghk_sq,
    hk_sq,
    let_problem,
    lift_to_cone,
    limit_diagnostics,
    solve_let,
    verify_optimality,
)
from .mollify import MollifierConfig, mollify
from .potentials import (
    PotentialPair,
    gradient_duality_value,
    grid_measure_on_ball,
    legendre_pair,
)
from .cylinders import (
    CylinderFunction,
    OuterFunction,
    ScalarField,
    evaluate,
    gradient,
    linear_lip_bound,
    perturbation_derivative,
    slope_probe,
    tangent_norm_14,
    truncation,
)
from .randmeas import (
    CheckReport,
    IntensityParams,
    MeasureBatch,
    SampleBatch,
    df_batch,
    estimate_intensity,
    invariance_checks,
    mecke_check_df,
    mecke_check_mlp,
)
from .bessel import (
    dirichlet_form_mc,
    generator_symmetry,
    hitting_prob,
    hyp0f1,
    quadrature_E,
    radial_form_mc,
)

__version__ = "0.1.0"
