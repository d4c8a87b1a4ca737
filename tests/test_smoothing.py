import math

import numpy as np
import pytest

from dpmedreg import (
    ConvergenceError,
    Dataset,
    RngStream,
    SmoothingConfig,
    Theta,
    fit_smoothed_private,
    huber_rho,
    smoothed_gradient,
    smoothed_objective,
    smoothing_accuracy_bound,
)
from dpmedreg.verification import random_dataset
from dpmedreg import model, smoothing

from conftest import benchmark_instance, bounded_instance, smoothed_baseline


def _tilted_objective(theta, data, cfg, tilt):
    return (
        smoothed_objective(theta, data, cfg.lam, cfg.gamma)
        + float(tilt @ theta.as_vector()) / data.n
        + theta.mu**2 / math.sqrt(data.n)
    )


def test_baseline_intercept_only_matches_1d_grid():
    # replicate the (1, 2, 9) pattern so the intercept damping term is small
    reps = 100
    Y = np.tile([1.0, 2.0, 9.0], reps)
    data = Dataset(X=np.zeros((3 * reps, 1)), Y=Y, B=9.0)
    cfg = SmoothingConfig(lam=0.0, gamma=1e-4)
    theta = smoothed_baseline(data, cfg)
    assert abs(theta.mu - 2.0) <= 0.05
    # 1-d grid oracle over mu of the same objective
    mus = np.linspace(1.8, 2.2, 40001)
    n = Y.shape[0]
    vals = [
        float(np.sum(huber_rho(m - Y, cfg.gamma)) / n + m * m / math.sqrt(n)) for m in mus
    ]
    best = mus[int(np.argmin(vals))]
    assert abs(theta.mu - best) <= 2e-5


def test_baseline_recovers_exact_linear(rng):
    data, beta = bounded_instance(rng, n=60, d=3, noise=1e-300)
    theta = smoothed_baseline(data, SmoothingConfig(lam=0.0, gamma=1e-4))
    assert abs(theta.mu) <= 1e-3
    assert np.all(np.abs(theta.beta - beta) <= 1e-3)


def test_baseline_benchmark_single_run_close_to_truth():
    from dpmedreg import unscale_theta

    data, record, truth = benchmark_instance(5000, RngStream(42))
    theta = smoothed_baseline(data, SmoothingConfig(lam=0.002, gamma=0.05))
    est = unscale_theta(theta, record).as_vector()
    assert np.all(np.abs(est - truth.as_vector()) <= 0.2)


def test_private_fit_infinite_epsilon_equals_baseline(rng):
    data, _ = bounded_instance(rng, n=200, d=3)
    cfg = SmoothingConfig(epsilon=math.inf, lam=0.01, gamma=0.05)
    base = smoothed_baseline(data, cfg)
    release = fit_smoothed_private(data, cfg, rng)
    assert np.all(release.noise == 0.0) and release.noise_scale == 0.0
    assert abs(release.theta.mu - base.mu) <= 1e-7
    assert np.all(np.abs(release.theta.beta - base.beta) <= 1e-7)


def test_private_fit_noise_is_read_only(rng):
    data, _ = bounded_instance(rng, n=50, d=2)
    for epsilon in (0.1, math.inf):
        cfg = SmoothingConfig(epsilon=epsilon, lam=0.01, gamma=0.05)
        release = fit_smoothed_private(data, cfg, RngStream(4))
        assert not release.noise.flags.writeable
        with pytest.raises(ValueError):
            release.noise[0] = 1.0


def test_private_fit_refuses_zero_lam_at_finite_epsilon():
    # without the ridge the tilt can make the program unbounded below; the
    # fit must refuse before it draws or runs, not fail after max_iters
    # Newton steps
    data = random_dataset(20, 2, 1.0, RngStream(5).derive(0))
    rng = RngStream(1)
    with pytest.raises(ValueError, match=r"^lam \(lambda\) must be positive when epsilon is finite$"):
        fit_smoothed_private(data, SmoothingConfig(epsilon=0.1, lam=0.0), rng)
    assert rng.uniform_open(1)[0] == RngStream(1).uniform_open(1)[0]
    # the config itself builds: lam = 0 is refused at fit time only
    assert SmoothingConfig(lam=0.0).epsilon == 0.1
    # the baseline and the noiseless private fit keep accepting lam = 0
    base = smoothed_baseline(data, SmoothingConfig(lam=0.0))
    release = fit_smoothed_private(data, SmoothingConfig(epsilon=math.inf, lam=0.0), RngStream(1))
    assert np.array_equal(release.theta.as_vector(), base.as_vector())


def test_private_fit_refuses_a_missing_stream_before_fitting(monkeypatch):
    # a finite epsilon draws the tilt from the stream, so None is refused
    # before the draw and the Newton solve
    data = random_dataset(20, 2, 1.0, RngStream(5).derive(0))
    calls = []
    monkeypatch.setattr(smoothing, "_minimize_smoothed", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^a finite epsilon needs an RngStream"):
        fit_smoothed_private(data, SmoothingConfig(), None)
    assert calls == []


def test_private_fit_deterministic_given_seed(rng):
    data, _ = bounded_instance(rng, n=150, d=2)
    cfg = SmoothingConfig(epsilon=0.5, lam=0.01, gamma=0.05)
    r1 = fit_smoothed_private(data, cfg, RngStream(77, stream=3))
    r2 = fit_smoothed_private(data, cfg, RngStream(77, stream=3))
    assert r1.theta.mu == r2.theta.mu
    assert np.array_equal(r1.theta.beta, r2.theta.beta)
    assert np.array_equal(r1.noise, r2.noise)


def test_private_fit_gradient_and_shift_bound():
    # the realized shift obeys ||b||_1 / (n min(lam, 2/sqrt(n))) on every run,
    # and the fitted point is stationary for the tilted objective
    root = RngStream(55)
    cfg = SmoothingConfig(epsilon=0.1, lam=0.002, gamma=0.05)
    for rep in range(5):
        data, record, _ = benchmark_instance(2000, root.derive(rep, 0))
        base = smoothed_baseline(data, cfg)
        release = fit_smoothed_private(data, cfg, root.derive(rep, 1))
        # the solver's own gradient norm at the released point
        omega, iters, grad_norm = smoothing._minimize_smoothed(
            data, cfg.lam, cfg.gamma, release.noise / data.n, cfg.solver_tol, cfg.max_iters
        )
        assert omega.tobytes() == release.theta.as_vector().tobytes()
        assert release.solver_iters == iters and release.noise_scale == 4.0 / cfg.epsilon
        assert grad_norm <= cfg.solver_tol
        dist = abs(base.mu - release.theta.mu) + float(
            np.abs(base.beta - release.theta.beta).sum()
        )
        bound = float(np.abs(release.noise).sum()) / (data.n * min(cfg.lam, 2.0 / math.sqrt(data.n)))
        assert dist <= bound
        # optimality certificate for the tilted program
        assert _tilted_objective(release.theta, data, cfg, release.noise) <= (
            _tilted_objective(base, data, cfg, release.noise) + 1e-10
        )


def test_private_fit_full_gradient_small(rng):
    data, _ = bounded_instance(rng, n=300, d=3)
    cfg = SmoothingConfig(epsilon=0.2, lam=0.01, gamma=0.05)
    release = fit_smoothed_private(data, cfg, rng)
    # rebuild the tilted gradient at the solution
    theta = release.theta
    g = smoothed_gradient(theta, data, cfg.lam, cfg.gamma)
    full = np.concatenate(([g.mu + 2 * theta.mu / math.sqrt(data.n)], g.beta))
    full += release.noise / data.n
    assert float(np.abs(full).max()) <= cfg.solver_tol


def test_zero_column_without_ridge_takes_damped_newton_steps(rng, monkeypatch):
    # lam = 0 and a zero column leave every Newton matrix singular, so the
    # solver must fall back to its Levenberg-damped retry to make progress
    data, _ = bounded_instance(rng, n=100, d=3)
    X = data.X.copy()
    X[:, 1] = 0.0
    flat = Dataset(X=X, Y=data.Y, B=data.B)
    solves = []

    def recording_solve(A, rhs):
        solves.append(model._spd_solve(A, rhs))
        return solves[-1]

    monkeypatch.setattr(smoothing, "_spd_solve", recording_solve)
    cfg = SmoothingConfig(lam=0.0, gamma=1e-4)
    theta = smoothed_baseline(flat, cfg)
    assert any(x is None for x in solves)
    assert theta.beta[1] == 0.0
    g = smoothed_gradient(theta, flat, cfg.lam, cfg.gamma)
    full = np.concatenate(([g.mu + 2 * theta.mu / math.sqrt(flat.n)], g.beta))
    assert float(np.abs(full).max()) <= cfg.solver_tol


def test_nonconvergence_carries_last_iterate(rng):
    data, _ = bounded_instance(rng, n=40, d=2)
    cfg = SmoothingConfig(lam=0.0, gamma=1e-4, max_iters=1, solver_tol=1e-14)
    with pytest.raises(ConvergenceError) as info:
        smoothed_baseline(data, cfg)
    assert isinstance(info.value.last_theta, Theta)
    assert info.value.iters == 1
    assert info.value.grad_norm > 0


def test_accuracy_bound_value_and_monotonicity():
    got = smoothing_accuracy_bound(3, 0.1, 5000, 0.002, 0.1)
    assert got == pytest.approx(59.02207126582298, abs=1e-2)
    # shrinks to zero monotonically as n grows
    prev = math.inf
    for n in (10**3, 10**4, 10**5, 10**6, 10**8, 10**10):
        cur = smoothing_accuracy_bound(3, 0.1, n, 0.002, 0.1)
        assert cur < prev
        prev = cur
    assert prev < 1e-2
    with pytest.raises(ValueError):
        smoothing_accuracy_bound(3, 1.2, 5000, 0.002, 0.1)
    with pytest.raises(ValueError):
        smoothing_accuracy_bound(3, 0.1, 5000, 0.0, 0.1)


def test_config_validation():
    with pytest.raises(ValueError):
        SmoothingConfig(gamma=0.0)
    for count in (2.5, True, 0):
        with pytest.raises(ValueError, match=f"^max_iters must be a positive integer, got {count!r}$"):
            SmoothingConfig(max_iters=count)
    with pytest.raises(ValueError):
        SmoothingConfig(lam=-0.1)
    with pytest.raises(ValueError):
        SmoothingConfig(epsilon=0.0)


# NaN and both infinities; epsilon alone may be +inf (the noiseless mode)
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("knob", ["lam", "gamma", "solver_tol"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_config_refuses_non_finite_knobs(knob, value):
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        SmoothingConfig(**{knob: value})
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        SmoothingConfig(epsilon=math.inf, **{knob: value})
    assert SmoothingConfig(epsilon=math.inf).epsilon == math.inf
