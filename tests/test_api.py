import inspect
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import dpmedreg
from dpmedreg import (
    Dataset,
    IrlsTrace,
    NeighborPair,
    Release,
    Theta,
    default_generator_spec,
)
from dpmedreg.bench import CellResult

# The package's public surface, in order; cross-module internals such as
# ``design_matrix`` and ``neighbor_probe`` must not appear in it.
PUBLIC = [
    "__version__",
    "Dataset", "Theta", "Release",
    "residuals", "objective_l1", "directional_derivatives",
    "RngStream", "sample_l1_perturbation", "gamma_tail_bound",
    "SmoothingConfig", "ConvergenceError",
    "fit_smoothed_private", "smoothed_gradient", "smoothing_accuracy_bound",
    "IrlsConfig", "IrlsTrace", "SingularSystemError",
    "default_coefficient_bound", "weighted_ridge_solve", "irls_fit",
    "irls_fits", "irls_sensitivity", "fit_irls_private", "irls_accuracy_bound",
    "GcdConfig", "split_batches",
    "coordinate_step_vector", "fit_gcd_private",
    "GeneratorSpec", "ScalingRecord", "default_generator_spec", "generate",
    "normalize", "unscale_theta", "read_csv", "write_csv",
    "NeighborPair", "ProbeResult", "oracle_l1_fit",
    "smoothed_program", "perturbed_objective_le",
    "make_neighbor_pair", "random_dataset", "random_theta",
    "irls_sensitivity_probe", "gcd_step_probe",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC) == 47
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
    "objective_l1": ["gamma"],
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


def _array_holders():
    theta = Theta(0.0, np.zeros(2))
    data = Dataset(X=np.zeros((2, 2)), Y=np.zeros(2), B=1.0)
    return [
        theta,
        data,
        Release(theta=theta, noise=np.zeros(3), noise_scale=0.0, solver_iters=0),
        IrlsTrace(iterates=np.zeros((1, 3)), converged=True, bracket_violations=0),
        default_generator_spec(10),
        NeighborPair(a=data, b=Dataset(X=np.zeros((2, 2)), Y=np.array([0.0, 1.0]), B=1.0)),
        CellResult("alg1", 10, theta, 0.0, 0.0, theta),
    ]


# the generated == compared the array fields with == and raised ValueError,
# and the generated __hash__ was None, so a set of them raised TypeError:
# each compares and hashes by identity
@pytest.mark.parametrize("obj", _array_holders(), ids=lambda obj: type(obj).__name__)
def test_array_holding_dataclasses_compare_and_hash_by_identity(obj):
    twin = replace(obj)
    assert obj == obj and not obj != obj
    assert (obj == twin) is False and obj != twin
    assert len({obj, twin, obj}) == 2 and {obj: 1}[obj] == 1
