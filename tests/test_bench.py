import numpy as np
import pytest

from dpmedreg import RngStream
from dpmedreg.bench import ALGORITHMS, resolve_params, run_fit

from conftest import benchmark_instance

# The protocol defaults as the README states them.
README_DEFAULTS = {
    "alg1": {"epsilon": 0.1, "lam": 0.002, "gamma": 0.05},
    "alg2": {"epsilon": 0.1, "lam": 0.002, "e": 0.2, "tau": 1e-6, "v": None, "n0": 200},
    "alg3": {"epsilon": 0.1, "lam": 0.002, "ell": 0.1, "n0": 40, "init": "ridge"},
    "baseline-smooth": {"lam": 0.002, "gamma": 0.05},
    "baseline-irls": {"lam": 0.002, "e": 0.2, "tau": 1e-6, "n0": 200},
}


def test_resolve_params_defaults_are_the_protocol_defaults():
    assert ALGORITHMS == ("alg1", "alg2", "alg3", "baseline-smooth", "baseline-irls")
    for algo in ALGORITHMS:
        assert resolve_params(algo, {}) == README_DEFAULTS[algo]


def test_resolve_params_overrides():
    params = resolve_params("alg3", {"n0": 7, "ell": None})
    assert params["n0"] == 7 and params["ell"] == 0.1  # None keeps the default
    with pytest.raises(ValueError, match="does not apply"):
        resolve_params("alg2", {"gamma": 0.1})
    with pytest.raises(ValueError, match="unknown algorithm"):
        resolve_params("alg9", {})


def test_run_fit_maps_n0_and_returns_extras():
    data, _, _ = benchmark_instance(103, RngStream(1))
    # n0 is alg3's batch count: 5 batches of 20 rows drop 3 of 103
    _, elapsed, extras = run_fit("alg3", data, resolve_params("alg3", {"n0": 5}), RngStream(2))
    assert extras == {"dropped": 3} and elapsed > 0.0
    # and baseline-irls's iteration cap
    _, _, extras = run_fit("baseline-irls", data, resolve_params("baseline-irls", {"n0": 1}), None)
    assert extras == {"iterations": 1, "converged": False}
    theta, _, extras = run_fit("alg2", data, resolve_params("alg2", {}), RngStream(3))
    assert extras["noise"].shape == (4,) and extras["noise_scale"] > 0.0
    assert set(extras) == {"noise_scale", "noise", "iterations"}
    assert np.all(np.isfinite(theta.as_vector()))
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_fit("alg9", data, {}, None)
