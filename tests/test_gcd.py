import math

import numpy as np
import pytest

from dpmedreg import (
    BatchPlan,
    Dataset,
    GcdConfig,
    RngStream,
    Theta,
    coordinate_step_vector,
    fit_gcd_private,
    gcd_step_probe,
    objective_l1,
    residuals,
    split_batches,
)

from conftest import benchmark_instance, bounded_instance


def test_split_batches_even():
    plan = split_batches(100, 4, RngStream(1))
    assert len(plan.batches) == 4
    assert all(b.shape[0] == 25 for b in plan.batches)
    assert plan.dropped == 0
    flat = np.concatenate(plan.batches)
    assert np.unique(flat).shape[0] == 100


def test_split_batches_remainder_dropped():
    plan = split_batches(103, 4, RngStream(2))
    assert all(b.shape[0] == 25 for b in plan.batches)
    assert plan.dropped == 3
    flat = np.concatenate(plan.batches)
    assert np.unique(flat).shape[0] == flat.shape[0] == 100


def test_batch_plan_rejects_overlap_and_unequal_sizes():
    # the disjointness check backs alg3's privacy argument: each record may
    # sit in exactly one batch
    with pytest.raises(ValueError, match="batches overlap"):
        BatchPlan(batches=(np.array([0, 1, 2]), np.array([3, 2, 4])), dropped=0)
    with pytest.raises(ValueError, match="batches overlap"):
        BatchPlan(batches=(np.array([5, 5]),), dropped=0)
    with pytest.raises(ValueError, match="share one size"):
        BatchPlan(batches=(np.array([0, 1, 2]), np.array([3, 4])), dropped=0)
    # split_batches builds its plan through the same check
    assert split_batches(1003, 10, RngStream(12)).batch_size == 100


def test_split_batches_validation():
    with pytest.raises(ValueError):
        split_batches(3, 4, RngStream(0))
    with pytest.raises(ValueError):
        split_batches(10, 0, RngStream(0))


def test_step_zero_at_joint_kink():
    # all residuals exactly zero: both one-sided slopes are nonnegative
    X = np.array([[0.3, -0.4], [0.2, 0.1], [-0.5, 0.2]])
    beta = np.array([1.0, 2.0])
    Y = X @ beta
    theta = Theta(0.0, beta)
    assert np.all(coordinate_step_vector(theta, X, Y, 0.0, eta=0.1) == 0.0)


def test_step_equals_gradient_step_at_smooth_points(rng):
    # away from kinks the rule is exactly -eta * gradient, with or without the
    # ridge term; a central difference recovers that gradient because the loss
    # is locally linear and the ridge term quadratic
    eta = 0.07
    h = 1e-4  # stays inside one linear segment since min |r_i| > 1e-3 and |x| <= 1
    for lam in (0.0, 0.3):
        checked = 0
        t = 0
        while checked < 30:
            sub = rng.derive(t)
            t += 1
            data, _ = bounded_instance(sub, n=25, d=3)
            theta = Theta(float(sub.uniforms(-1, 1, 1)[0]), sub.uniforms(-1, 1, 3))
            if float(np.min(np.abs(residuals(theta, data)))) < 1e-3:
                continue
            checked += 1
            steps = coordinate_step_vector(theta, data.X, data.Y, lam, eta)
            for k in range(3):
                ek = np.zeros(3)
                ek[k] = h
                grad = (
                    objective_l1(Theta(theta.mu, theta.beta + ek), data, lam)
                    - objective_l1(Theta(theta.mu, theta.beta - ek), data, lam)
                ) / (2 * h)
                assert abs(steps[k] - (-eta * grad)) <= 1e-11


def test_step_magnitude_bound(rng):
    eta, lam = 0.3, 0.05
    for t in range(20):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=20, d=2)
        theta = Theta(float(sub.uniforms(-2, 2, 1)[0]), sub.uniforms(-2, 2, 2))
        steps = coordinate_step_vector(theta, data.X, data.Y, lam, eta)
        assert np.all(np.abs(steps) <= eta * (1.0 + lam * np.abs(theta.beta)) + 1e-15)


def test_fit_fixed_point_stays_put():
    # zero data, zero start, one batch, no noise: nothing moves
    data = Dataset(X=np.array([[0.2], [0.1], [-0.3], [0.4]]), Y=np.zeros(4), B=1.0)
    cfg = GcdConfig(epsilon=math.inf, lam=0.0, ell=0.1, batches=1, init="zero")
    trace = fit_gcd_private(data, cfg, RngStream(0))
    assert trace.final.mu == 0.0
    assert np.all(trace.final.beta == 0.0)


def test_fit_trace_metadata_exact():
    data, _, _ = benchmark_instance(5000, RngStream(3))
    cfg = GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=40)
    trace = fit_gcd_private(data, cfg, RngStream(4))
    n0 = trace.plan.batch_size
    assert n0 == 125
    assert len(trace.thetas) == 41


def test_fit_iterate_stability_inequality():
    data, _, _ = benchmark_instance(5000, RngStream(5))
    cfg = GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=40)
    trace = fit_gcd_private(data, cfg, RngStream(6))
    for t in range(cfg.batches):
        prev = trace.thetas[t].beta
        nxt = trace.thetas[t + 1].beta
        rhs = cfg.ell / (t + 1) * (1.0 + cfg.lam * np.abs(prev)) + np.abs(trace.noises[t])
        assert np.all(np.abs(nxt - prev) <= rhs + 1e-12)


def test_fit_batches_disjoint_and_noiseless_descends():
    rng = RngStream(8)
    data, _ = bounded_instance(rng, n=400, d=1, noise=0.3)
    cfg = GcdConfig(epsilon=math.inf, lam=0.0, ell=0.2, batches=8, init="zero")
    trace = fit_gcd_private(data, cfg, RngStream(9))
    flat = np.concatenate([b for b in trace.plan.batches])
    assert np.unique(flat).shape[0] == flat.shape[0]
    # overall descent versus the start (per-step monotonicity not required)
    assert objective_l1(trace.final, data, 0.0) <= objective_l1(trace.thetas[0], data, 0.0)


def test_fit_deterministic_given_seed():
    data, _, _ = benchmark_instance(1000, RngStream(10))
    cfg = GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=10)
    t1 = fit_gcd_private(data, cfg, RngStream(11))
    t2 = fit_gcd_private(data, cfg, RngStream(11))
    assert t1.final.mu == t2.final.mu
    assert np.array_equal(t1.final.beta, t2.final.beta)
    assert np.array_equal(t1.noises, t2.noises)


def test_fit_requires_enough_rows():
    data = Dataset(X=np.zeros((3, 1)), Y=np.zeros(3), B=1.0)
    cfg = GcdConfig(epsilon=1.0, batches=10)
    with pytest.raises(ValueError):
        fit_gcd_private(data, cfg, RngStream(0))


def test_step_probe_dominated_and_scales():
    cfg = GcdConfig(lam=0.002, ell=0.1)
    r50 = gcd_step_probe(50, 3, 400, cfg, RngStream(7))
    assert r50.ok
    assert r50.observed > 0
    r100 = gcd_step_probe(100, 3, 400, cfg, RngStream(8))
    assert r100.ok
    assert r100.bound == pytest.approx(2 * cfg.ell / 100 + 1e-12)
    ratio = r50.observed / r100.observed
    assert 1.5 <= ratio <= 2.5


def test_config_validation():
    with pytest.raises(ValueError):
        GcdConfig(ell=0.0)
    with pytest.raises(ValueError):
        GcdConfig(batches=0)
    with pytest.raises(ValueError):
        GcdConfig(init="random")


# NaN and both infinities; epsilon alone may be +inf (the noiseless mode)
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("knob", ["lam", "ell"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_config_refuses_non_finite_knobs(knob, value):
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        GcdConfig(**{knob: value})
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        GcdConfig(epsilon=math.inf, **{knob: value})
    assert GcdConfig(epsilon=math.inf).epsilon == math.inf
