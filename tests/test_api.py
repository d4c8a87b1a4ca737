import dpmedreg

# The package's public surface, in order; cross-module internals such as
# ``design_matrix`` and ``neighbor_probe`` must not appear in it.
PUBLIC = [
    "__version__",
    "Dataset", "Theta", "Release",
    "residuals", "objective_l1", "huber_rho", "sign_vector",
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
    assert len(PUBLIC) == 49
    assert dpmedreg.__all__ == PUBLIC
    assert len(set(dpmedreg.__all__)) == len(dpmedreg.__all__)
    for name in dpmedreg.__all__:
        assert getattr(dpmedreg, name) is not None
