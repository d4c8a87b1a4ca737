"""Differentially private median (L1) regression toolkit.

Three private fitters over a shared bounded data model:

* ``alg1`` -- smoothed objective perturbation (random linear tilt of the
  Huber-smoothed program),
* ``alg2`` -- output-perturbed iteratively reweighted least squares,
* ``alg3`` -- noisy batched greedy coordinate descent,

plus noiseless baselines, a brute-force grid oracle, a synthetic-data
generator with domain normalization, sensitivity probes, and a benchmark CLI.
"""

__version__ = "0.1.0"

from .model import (
    Dataset,
    ObjectiveConfig,
    Theta,
    directional_derivatives,
    huber_rho,
    objective_l1,
    perturbed_objective_le,
    residuals,
    sign_vector,
    smoothed_gradient,
    smoothed_objective,
)
from .sampling import (
    NoiseVector,
    RngStream,
    gamma_tail_bound,
    sample_l1_perturbation,
    sample_l1_perturbations,
    sample_laplace,
)
from .smoothing import (
    ConvergenceError,
    SmoothingConfig,
    SmoothingReport,
    fit_smoothed_baseline,
    fit_smoothed_private,
    smoothing_accuracy_bound,
)
from .irls import (
    IrlsConfig,
    IrlsReport,
    IrlsTrace,
    SingularSystemError,
    default_coefficient_bound,
    fit_irls_private,
    irls_accuracy_bound,
    irls_fit,
    irls_sensitivity,
    irls_sensitivity_probe,
    weighted_ridge_solve,
)
from .gcd import (
    BatchPlan,
    GcdConfig,
    GcdTrace,
    coordinate_step_vector,
    fit_gcd_private,
    gcd_step_probe,
    split_batches,
)
from .datagen import (
    GeneratorSpec,
    ScalingRecord,
    default_generator_spec,
    generate,
    normalize,
    read_csv,
    unscale_theta,
    write_csv,
)
from .verification import (
    GridSpec,
    NeighborPair,
    ProbeResult,
    make_neighbor_pair,
    oracle_l1_fit,
    random_dataset,
    random_theta,
)

__all__ = [
    "__version__",
    "Dataset", "Theta", "ObjectiveConfig",
    "residuals", "objective_l1", "huber_rho", "sign_vector",
    "smoothed_objective", "smoothed_gradient", "directional_derivatives",
    "perturbed_objective_le",
    "RngStream", "NoiseVector", "sample_laplace", "sample_l1_perturbation",
    "sample_l1_perturbations", "gamma_tail_bound",
    "SmoothingConfig", "SmoothingReport", "ConvergenceError",
    "fit_smoothed_baseline", "fit_smoothed_private", "smoothing_accuracy_bound",
    "IrlsConfig", "IrlsTrace", "IrlsReport", "SingularSystemError",
    "default_coefficient_bound", "weighted_ridge_solve", "irls_fit",
    "irls_sensitivity", "fit_irls_private", "irls_accuracy_bound",
    "irls_sensitivity_probe",
    "GcdConfig", "BatchPlan", "GcdTrace", "split_batches",
    "coordinate_step_vector", "fit_gcd_private", "gcd_step_probe",
    "GeneratorSpec", "ScalingRecord", "default_generator_spec", "generate",
    "normalize", "unscale_theta", "read_csv", "write_csv",
    "GridSpec", "NeighborPair", "ProbeResult", "oracle_l1_fit",
    "make_neighbor_pair", "random_dataset", "random_theta",
]
