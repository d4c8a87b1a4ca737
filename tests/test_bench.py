import math

import numpy as np
import pytest

from dpmedreg import (
    GcdConfig,
    IrlsConfig,
    RngStream,
    SmoothingConfig,
    fit_gcd_private,
    fit_irls_private,
    fit_smoothed_baseline,
    fit_smoothed_private,
    irls_fit,
)
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


def _bits(theta):
    return theta.as_vector().tobytes()


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
    theta, elapsed, extras = run_fit("alg3", data, resolve_params("alg3", {"n0": 5}), RngStream(2))
    trace = fit_gcd_private(data, GcdConfig(epsilon=0.1, batches=5), RngStream(2))
    assert trace.plan.dropped == 3 and _bits(theta) == _bits(trace.final)
    assert extras == {} and elapsed > 0.0
    # and baseline-irls's iteration cap
    theta, _, _ = run_fit("baseline-irls", data, resolve_params("baseline-irls", {"n0": 1}), None)
    capped = irls_fit(data, IrlsConfig(max_iters=1))
    assert capped.iterations == 1 and not capped.converged
    assert _bits(theta) == _bits(capped.final)
    theta, _, extras = run_fit("alg2", data, resolve_params("alg2", {}), RngStream(3))
    assert extras["noise"].shape == (4,) and extras["noise_scale"] > 0.0
    assert set(extras) == {"noise_scale", "noise"}
    assert np.all(np.isfinite(theta.as_vector()))
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_fit("alg9", data, {}, None)


def test_baseline_smooth_is_alg1_at_infinite_epsilon():
    data, _, _ = benchmark_instance(2000, RngStream(11))
    base = fit_smoothed_baseline(data, SmoothingConfig())
    theta, _, extras = run_fit("baseline-smooth", data, resolve_params("baseline-smooth", {}), None)
    private = fit_smoothed_private(data, SmoothingConfig(epsilon=math.inf), RngStream(12))
    assert _bits(theta) == _bits(base) == _bits(private.theta)
    assert extras == {} and not private.noise.any()


def test_baseline_irls_is_alg2_at_infinite_epsilon():
    data, _, _ = benchmark_instance(2000, RngStream(13))
    trace = irls_fit(data, IrlsConfig())
    theta, _, extras = run_fit("baseline-irls", data, resolve_params("baseline-irls", {}), None)
    report = fit_irls_private(data, IrlsConfig(epsilon=math.inf), RngStream(14))
    # the release is the fit itself, not fit + 0.0 (which would turn a -0.0
    # into +0.0)
    assert _bits(theta) == _bits(trace.final)
    assert report.theta is report.trace.final and _bits(report.theta) == _bits(trace.final)
    assert extras["noise_scale"] == 0.0 and not extras["noise"].any()
