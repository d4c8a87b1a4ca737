import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from dpmedreg import (
    GcdConfig,
    IrlsConfig,
    RngStream,
    SmoothingConfig,
    bench,
    default_generator_spec,
    fit_gcd_private,
    fit_irls_private,
    fit_smoothed_private,
    irls,
    irls_fit,
)
from dpmedreg.bench import ALGORITHM_TABLE, ALGORITHMS, resolve_params, run_cell, run_fit
from dpmedreg.gcd import _descend

from conftest import benchmark_instance, smoothed_baseline

# The protocol defaults as the README states them.
README_DEFAULTS = {
    "alg1": {"epsilon": 0.1, "lam": 0.002, "gamma": 0.05},
    "alg2": {"epsilon": 0.1, "lam": 0.002, "e": 0.2, "tau": 1e-6, "n0": 200},
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


@pytest.mark.parametrize("config", [SmoothingConfig, IrlsConfig, GcdConfig], ids=lambda c: c.__name__)
def test_mechanism_configs_share_epsilon_and_lam(config):
    # every field is a knob of the algorithm table, so no setting is
    # reachable from the library alone; the shared epsilon and lam come first
    names = [f.name for f in fields(config)]
    mapped = {field for row in ALGORITHM_TABLE.values() if row.config is config for field in row.knobs.values()}
    assert names[:2] == ["epsilon", "lam"] and sorted(names) == sorted(mapped | {"epsilon"})
    assert repr(config()).startswith(f"{config.__name__}(epsilon=0.1, lam=0.002, ")
    assert config(0.5, 0.01) == config(epsilon=0.5, lam=0.01)
    with pytest.raises(ValueError, match="^epsilon must be positive, got 0.0$"):
        config(epsilon=0.0)
    with pytest.raises(ValueError, match="^lam must be nonnegative and finite, got -0.1$"):
        config(lam=-0.1)
    # epsilon has two states, finite or math.inf; None is no third one
    with pytest.raises(TypeError):
        config(epsilon=None)


FITTERS = {
    "alg1": (SmoothingConfig, fit_smoothed_private),
    "alg2": (IrlsConfig, fit_irls_private),
    "alg3": (GcdConfig, fit_gcd_private),
}


@pytest.mark.parametrize("algo", FITTERS)
def test_default_config_releases_at_protocol_epsilon(algo):
    config, fit = FITTERS[algo]
    data, _, _ = benchmark_instance(500, RngStream(21))
    default = fit(data, config(), RngStream(22)).theta
    assert _bits(default) == _bits(fit(data, config(epsilon=0.1), RngStream(22)).theta)
    assert _bits(default) != _bits(fit(data, config(epsilon=math.inf), RngStream(22)).theta)


@pytest.mark.parametrize("algo", FITTERS)
def test_an_overflowing_noise_scale_is_refused_before_any_draw(algo):
    # epsilon = 1e-320 is positive but 1/epsilon is not finite; each fitter
    # names epsilon without a draw, a fit or a floating-point warning
    config, fit = FITTERS[algo]
    data, _, _ = benchmark_instance(200, RngStream(23))
    stream = RngStream(24)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^epsilon=1e-320 overflows the noise scale"):
            fit(data, config(epsilon=1e-320), stream)
    assert stream.uniform_open(1)[0] == RngStream(24).uniform_open(1)[0]


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
    release, _, batches = _descend(data, GcdConfig(epsilon=0.1, batches=5), RngStream(2))
    assert data.n - batches.size == 3 and _bits(theta) == _bits(release.theta)
    # every row's extras are its release's noise and noise scale
    assert set(extras) == {"noise_scale", "noise"} and elapsed > 0.0
    assert np.array_equal(extras["noise"], release.noise) and extras["noise_scale"] == release.noise_scale
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
    base = smoothed_baseline(data, SmoothingConfig())
    theta, _, extras = run_fit("baseline-smooth", data, resolve_params("baseline-smooth", {}), None)
    private = fit_smoothed_private(data, SmoothingConfig(epsilon=math.inf), RngStream(12))
    assert _bits(theta) == _bits(base) == _bits(private.theta)
    assert extras["noise_scale"] == 0.0 and not extras["noise"].any() and not private.noise.any()


def test_baseline_irls_is_alg2_at_infinite_epsilon(monkeypatch):
    data, _, _ = benchmark_instance(2000, RngStream(13))
    trace = irls_fit(data, IrlsConfig())
    theta, _, extras = run_fit("baseline-irls", data, resolve_params("baseline-irls", {}), None)
    fits = []

    def recording_fit(*args):
        fits.append(irls_fit(*args))
        return fits[-1]

    monkeypatch.setattr(irls, "irls_fit", recording_fit)
    release = fit_irls_private(data, IrlsConfig(epsilon=math.inf), RngStream(14))
    # the release is the fit itself, not fit + 0.0 (which would turn a -0.0
    # into +0.0)
    assert _bits(theta) == _bits(trace.final)
    assert release.theta is fits[0].final and _bits(release.theta) == _bits(trace.final)
    assert extras["noise_scale"] == 0.0 and not extras["noise"].any()


# The fitter each row runs, spelled out rather than read from the table.
FITTER_OF = {
    "alg1": "fit_smoothed_private",
    "alg2": "fit_irls_private",
    "alg3": "fit_gcd_private",
    "baseline-smooth": "fit_smoothed_private",
    "baseline-irls": "fit_irls_private",
}


def test_run_fit_looks_up_its_fitter_on_the_module_when_called(monkeypatch):
    # the benchmark tracer rebinds the fitters on dpmedreg.bench; a fitter
    # held by the table instead would run unseen
    data, _, _ = benchmark_instance(200, RngStream(15))
    calls = []

    def counting(name):
        fit = getattr(bench, name)

        def counted(*args):
            calls.append(name)
            return fit(*args)

        return counted

    for name in set(FITTER_OF.values()):
        monkeypatch.setattr(bench, name, counting(name))
    for algo in ALGORITHMS:
        run_fit(algo, data, resolve_params(algo, {}), RngStream(16))
    assert calls == [FITTER_OF[algo] for algo in ALGORITHMS]


def test_run_cell_refuses_a_spec_of_another_n():
    spec = default_generator_spec(300)
    with pytest.raises(ValueError, match="^spec draws 300 rows, but the cell is n=999$"):
        run_cell("alg1", 999, 2, 1, 0, resolve_params("alg1", {}), spec)


@pytest.mark.parametrize("replicates", [0, -1, 2.0, True, None])
def test_run_cell_refuses_a_replicate_count_below_one_before_any_draw(replicates, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "generate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^replicates must be a positive integer, got "):
        run_cell("alg1", 300, replicates, 1, 0, resolve_params("alg1", {}))
    assert calls == []
