import inspect
from dataclasses import fields, is_dataclass

import dpmedreg

# The package's public surface, in order; cross-module internals such as
# ``design_matrix`` and ``neighbor_probe`` must not appear in it.
PUBLIC = [
    "__version__",
    "Dataset", "Theta", "Release",
    "residuals", "objective_l1", "huber_rho",
    "smoothed_objective", "smoothed_gradient", "directional_derivatives",
    "perturbed_objective_le",
    "RngStream", "sample_l1_perturbation",
    "sample_l1_perturbations", "gamma_tail_bound",
    "SmoothingConfig", "ConvergenceError",
    "fit_smoothed_private", "smoothing_accuracy_bound",
    "IrlsConfig", "IrlsTrace", "SingularSystemError",
    "default_coefficient_bound", "weighted_ridge_solve", "irls_fit",
    "irls_sensitivity", "fit_irls_private", "irls_accuracy_bound",
    "GcdConfig", "split_batches",
    "coordinate_step_vector", "fit_gcd_private",
    "GeneratorSpec", "ScalingRecord", "default_generator_spec", "generate",
    "normalize", "unscale_theta", "read_csv", "write_csv",
    "NeighborPair", "ProbeResult", "oracle_l1_fit",
    "make_neighbor_pair", "random_dataset", "random_theta",
    "irls_sensitivity_probe", "gcd_step_probe",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 48
    assert dpmedreg.__all__ == PUBLIC
    assert len(set(dpmedreg.__all__)) == len(dpmedreg.__all__)
    for name in dpmedreg.__all__:
        assert getattr(dpmedreg, name) is not None


# The package's settable surface: the fields of every public dataclass, and
# the parameters with a default of every public callable.  A new field or
# knob shows up as a diff to these pins.
FIELDS = {
    "Dataset": ["X", "Y", "B"],
    "Theta": ["mu", "beta"],
    "Release": ["theta", "noise", "noise_scale", "solver_iters"],
    "SmoothingConfig": ["epsilon", "lam", "gamma"],
    "IrlsConfig": ["epsilon", "lam", "e", "tau", "max_iters"],
    "IrlsTrace": ["iterates", "converged", "bracket_violations"],
    "GcdConfig": ["epsilon", "lam", "ell", "batches", "init"],
    "GeneratorSpec": ["n", "mu", "beta", "noise_scale", "box"],
    "ScalingRecord": ["x_scale", "y_scale"],
    "NeighborPair": ["a", "b", "index"],
    "ProbeResult": ["name", "observed", "bound", "ok"],
}
DEFAULTED = {
    "RngStream": ["stream"],
    "SmoothingConfig": ["epsilon", "lam", "gamma"],
    "IrlsConfig": ["epsilon", "lam", "e", "tau", "max_iters"],
    "GcdConfig": ["epsilon", "lam", "ell", "batches", "init"],
    "GeneratorSpec": ["box"],
    "default_generator_spec": ["n"],
    "normalize": ["target_b"],
    "make_neighbor_pair": ["index", "replacement", "rng"],
    "random_theta": ["scale"],
}


def test_settable_surface_is_pinned():
    public = {name: getattr(dpmedreg, name) for name in dpmedreg.__all__}
    found = {name: [f.name for f in fields(obj)] for name, obj in public.items() if is_dataclass(obj)}
    assert found == FIELDS
    defaulted = {}
    for name, obj in public.items():
        # an exception class has no signature of its own to inspect
        if not callable(obj) or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        params = inspect.signature(obj).parameters.values()
        names = [p.name for p in params if p.default is not inspect.Parameter.empty]
        if names:
            defaulted[name] = names
    assert defaulted == DEFAULTED
