import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from dpmedreg import (
    Dataset,
    GcdConfig,
    IrlsConfig,
    RngStream,
    ScalingRecord,
    SmoothingConfig,
    Theta,
    coordinate_step_vector,
    default_coefficient_bound,
    directional_derivatives,
    gamma_tail_bound,
    gcd_step_probe,
    irls_sensitivity,
    objective_l1,
    perturbed_objective_le,
    residuals,
    smoothed_gradient,
    smoothed_program,
    smoothing_accuracy_bound,
    split_batches,
    weighted_ridge_solve,
)
from dpmedreg.model import _coordinate_step, _row_sums, _spd_solve, design_matrix
from dpmedreg.smoothing import _band_signs, _ridge, _smoothed_terms
from dpmedreg.verification import random_theta

from conftest import bounded_instance


def test_dataset_invariants_enforced():
    with pytest.raises(ValueError):
        Dataset(X=np.array([[0.8, 0.4]]), Y=np.array([0.5]), B=1.0)  # row norm 1.2
    with pytest.raises(ValueError):
        Dataset(X=np.array([[0.5]]), Y=np.array([2.0]), B=1.0)  # |y| > B
    with pytest.raises(ValueError):
        Dataset(X=np.array([[0.5]]), Y=np.array([np.nan]), B=1.0)
    with pytest.raises(ValueError):
        Dataset(X=np.zeros((0, 1)), Y=np.zeros(0), B=1.0)
    for B in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^B must be positive and finite"):
            Dataset(X=np.array([[0.5]]), Y=np.array([0.5]), B=B)
    data = Dataset(X=np.array([[0.5]]), Y=np.array([0.5]), B=1.0)
    with pytest.raises(ValueError):
        data.X[0, 0] = 0.0  # immutable


def _row_sum_table(rng, n, d):
    """(n, d) floats of mixed sign and magnitudes 2**-60 to 2**60, with -0.0
    entries, a row of -0.0 only and (for n >= 4) rows holding inf and nan."""
    A = rng.uniforms(-1.0, 1.0, n * d) * np.exp2(np.floor(rng.uniforms(-60.0, 60.0, n * d)))
    A = A.reshape(n, d)
    A[rng.uniforms(0.0, 1.0, n * d).reshape(n, d) < 0.1] = -0.0
    A[0] = -0.0
    if n >= 4:
        A[1, 0] = np.inf
        A[2, d - 1] = np.nan
        A[3, 0], A[3, d - 1] = np.inf, -np.inf
    return A


@pytest.mark.parametrize("d", range(1, 13))
def test_row_sums_are_numpys_bit_for_bit(rng, d):
    # widths below 8 are added a column at a time, wider ones by numpy;
    # if numpy changes its reduction order this fails before any pin does
    with np.errstate(invalid="ignore"):
        for n in (1, 2, 7, 8, 9, 50, 8191, 8192, 8193):
            A = _row_sum_table(rng, n, d)
            for view in (A, np.abs(A), A[:, ::-1], np.asfortranarray(A)):
                assert _row_sums(view).tobytes() == view.sum(axis=1).tobytes(), (n, d)


def test_residuals_identity_case():
    data = Dataset(X=np.zeros((2, 1)), Y=np.array([1.0, -2.0]), B=2.0)
    r = residuals(Theta(mu=0.0, beta=np.zeros(1)), data)
    assert np.array_equal(r, [-1.0, 2.0])


def test_residuals_arithmetic_case():
    data = Dataset(X=np.array([[0.1, 0.2, 0.1]]), Y=np.array([1.9]), B=2.0)
    r = residuals(Theta(mu=2.0, beta=np.array([3.0, 0.0, -4.0])), data)
    assert r[0] == pytest.approx(0.0, abs=1e-15)


def test_residuals_match_scalar_loop(rng):
    data, _ = bounded_instance(rng, n=10, d=3)
    theta = random_theta(3, rng)
    r = residuals(theta, data)
    for i in range(10):
        manual = theta.mu - data.Y[i]
        for j in range(3):
            manual += data.X[i, j] * theta.beta[j]
        assert r[i] == pytest.approx(manual, abs=1e-14)


def test_residuals_dimension_mismatch():
    data = Dataset(X=np.zeros((2, 2)), Y=np.zeros(2), B=1.0)
    with pytest.raises(ValueError):
        residuals(Theta(mu=0.0, beta=np.zeros(3)), data)


def test_objective_l1_plain_cases():
    data = Dataset(X=np.array([[0.5]]), Y=np.array([1.0]), B=1.0)
    assert objective_l1(Theta(0.0, np.zeros(1)), data, 0.0) == pytest.approx(1.0)
    # |0.5 - 1| + (2/2)*1 = 1.5
    assert objective_l1(Theta(0.0, np.array([1.0])), data, 2.0) == pytest.approx(1.5)


def test_objective_l1_matches_scalar_loop(rng):
    data, _ = bounded_instance(rng, n=100, d=3)
    theta = random_theta(3, rng)
    lam = 0.37
    total = 0.0
    for i in range(100):
        total += abs(theta.mu + float(data.X[i] @ theta.beta) - data.Y[i])
    ridge = 0.0
    for b in theta.beta:
        ridge += b * b
    expected = total / 100 + 0.5 * lam * ridge
    assert objective_l1(theta, data, lam) == pytest.approx(expected, abs=1e-12)


def _rho(t, gamma):
    """rho_gamma(t_i) for each t_i: objective_l1 at theta = 0 on the one-row
    dataset whose residual there is t_i."""
    zero = Theta(0.0, np.zeros(1))
    rows = [Dataset(X=np.zeros((1, 1)), Y=np.array([-v]), B=max(abs(v), 1.0)) for v in np.asarray(t, dtype=float)]
    return np.array([objective_l1(zero, row, 0.0, gamma) for row in rows])


def test_huber_rho_values_and_branches():
    assert _rho([0.0], 0.05)[0] == 0.0
    assert _rho([0.5], 1.0)[0] == pytest.approx(0.125)
    assert _rho([2.0], 1.0)[0] == pytest.approx(1.5)
    # gamma = 0 is the exact absolute value; a negative gamma is refused
    assert _rho([-1.0, 0.25], 0.0).tolist() == [1.0, 0.25]
    with pytest.raises(ValueError, match="^gamma must be nonnegative"):
        _rho([1.0], -0.1)


def test_huber_rho_envelope(rng):
    # rho <= |t| everywhere; on |t| > gamma the gap is exactly gamma/2
    t = rng.uniforms(-3, 3, 1000)
    gamma = 0.3
    rho = _rho(t, gamma)
    assert np.all(rho <= np.abs(t) + 1e-15)
    outside = np.abs(t) > gamma
    assert np.allclose(np.abs(t[outside]) - rho[outside], gamma / 2)
    assert np.all(np.abs(t) - rho <= gamma / 2 + 1e-15)


def _quadratic_decomposition(theta, data, lam, gamma):
    # per-sample quadratic/linear split of the smoothed loss
    r = residuals(theta, data)
    s = _band_signs(r, gamma)
    w = 1.0 - s * s
    pieces = w * r * r / (2 * gamma) + s * (r - 0.5 * gamma * s)
    return float(pieces.sum() / data.n + 0.5 * lam * theta.beta @ theta.beta)


def test_smoothed_objective_equals_decomposition(rng):
    for t in range(20):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=40, d=3)
        lam, gamma = 0.05, 0.1
        theta = random_theta(3, sub)
        direct = objective_l1(theta, data, lam, gamma)
        assert abs(direct - _quadratic_decomposition(theta, data, lam, gamma)) <= 1e-12


def test_smoothed_objective_outer_branch_equals_l1_shift():
    # all residuals outside the band: smoothed = exact minus gamma/2
    data = Dataset(X=np.zeros((3, 1)), Y=np.array([1.0, 2.0, 3.0]), B=3.0)
    lam, gamma = 0.0, 0.05
    theta = Theta(0.0, np.zeros(1))
    assert objective_l1(theta, data, lam, gamma) == pytest.approx(
        objective_l1(theta, data, 0.0) - gamma / 2
    )


def test_smoothed_objective_zero_case():
    data = Dataset(X=np.zeros((4, 2)), Y=np.zeros(4), B=1.0)
    lam, gamma = 0.7, 0.1
    assert objective_l1(Theta(0.0, np.zeros(2)), data, lam, gamma) == 0.0


def test_uniform_smoothing_gap(rng):
    # |exact - smoothed| <= gamma/2 for any theta
    for t in range(30):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=30, d=2)
        lam, gamma = 0.4, 0.08
        theta = random_theta(2, sub, scale=2.0)
        gap = objective_l1(theta, data, lam) - objective_l1(theta, data, lam, gamma)
        assert -1e-14 <= gap <= gamma / 2 + 1e-14


def test_smoothed_objective_convexity(rng):
    for t in range(30):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=25, d=2)
        lam, gamma = 0.02, 0.05
        t1 = random_theta(2, sub, scale=2.0)
        t2 = random_theta(2, sub, scale=2.0)
        a = float(sub.uniform_open(1)[0])
        mid = Theta(a * t1.mu + (1 - a) * t2.mu, a * t1.beta + (1 - a) * t2.beta)
        lhs = objective_l1(mid, data, lam, gamma)
        rhs = a * objective_l1(t1, data, lam, gamma) + (1 - a) * objective_l1(
            t2, data, lam, gamma
        )
        assert lhs <= rhs + 1e-12


def test_smoothed_objective_and_gradient_reject_bad_knobs():
    data = Dataset(X=np.zeros((2, 1)), Y=np.zeros(2), B=1.0)
    theta = Theta(0.0, np.zeros(1))
    with pytest.raises(ValueError, match="lam"):
        objective_l1(theta, data, -0.1, 0.05)
    with pytest.raises(ValueError, match="gamma"):
        objective_l1(theta, data, 0.0, -0.05)
    # the gradient takes the fit's config, which refuses both when built
    with pytest.raises(ValueError, match="lam"):
        smoothed_gradient(theta, data, SmoothingConfig(lam=-0.1, gamma=0.05), np.zeros(2))
    with pytest.raises(ValueError, match="gamma"):
        smoothed_gradient(theta, data, SmoothingConfig(lam=0.0, gamma=0.0), np.zeros(2))


_KD = Dataset(X=np.array([[0.4], [-0.2]]), Y=np.array([0.5, -0.5]), B=1.0)
_KT = Theta(0.1, np.array([0.3]))
_KR = np.array([0.2, -1.0])
_KB = np.zeros(2)
# (case, knob, the call with that knob set to v and the others good): the
# smoothed objective is objective_l1 at gamma > 0 and rho its per-residual
# term; smoothed_gradient and perturbed_objective_le take the fit's config,
# which refuses the knob when it is built
_KNOB_CALLS = [
    ("objective_l1", "lam", lambda v: objective_l1(_KT, _KD, v)),
    ("smoothed_objective", "lam", lambda v: objective_l1(_KT, _KD, v, 0.05)),
    ("smoothed_objective", "gamma", lambda v: objective_l1(_KT, _KD, 0.01, v)),
    ("smoothed_gradient", "lam", lambda v: smoothed_gradient(_KT, _KD, SmoothingConfig(lam=v), _KB)),
    ("smoothed_gradient", "gamma", lambda v: smoothed_gradient(_KT, _KD, SmoothingConfig(gamma=v), _KB)),
    ("directional_derivatives", "lam", lambda v: directional_derivatives(_KT, _KD, v, 0)),
    ("perturbed_objective_le", "lam", lambda v: perturbed_objective_le(_KT, _KD, IrlsConfig(lam=v))),
    ("perturbed_objective_le", "e", lambda v: perturbed_objective_le(_KT, _KD, IrlsConfig(e=v))),
    ("huber_rho", "gamma", lambda v: _rho(_KR, v)),
]


@pytest.mark.parametrize("value", [-0.1, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("knob, call", [c[1:] for c in _KNOB_CALLS], ids=[f"{c[0]}-{c[1]}" for c in _KNOB_CALLS])
def test_math_functions_refuse_bad_knobs_as_the_configs_do(knob, call, value):
    # NaN and infinity are refused as a negative value is; they used to give
    # nan, -inf, a bare ridge term or all zeros
    with pytest.raises(ValueError, match=f"^{knob} must be (nonnegative|positive) and finite, got "):
        call(value)


# each call used to return a number, or to fail without naming the knob,
# for a knob outside its domain
_LEAKS = [
    pytest.param(
        lambda: RngStream(1).laplaces(math.inf, 3),
        "scale must be positive and finite, got inf",
        id="laplaces-scale-inf",
    ),
    pytest.param(
        lambda: RngStream(1).laplaces(-1.0, 3),
        "scale must be positive and finite, got -1.0",
        id="laplaces-scale-negative",
    ),
    pytest.param(
        lambda: smoothing_accuracy_bound(3, 0.1, 200, math.inf, 0.1),
        "lam must be positive and finite, got inf",
        id="smoothing_accuracy_bound-lam-inf",
    ),
    pytest.param(
        lambda: weighted_ridge_solve(_KD, np.ones(2), math.nan),
        "lam must be nonnegative and finite, got nan",
        id="weighted_ridge_solve-lam-nan",
    ),
    pytest.param(
        lambda: weighted_ridge_solve(_KD, np.ones(2), math.inf),
        "lam must be nonnegative and finite, got inf",
        id="weighted_ridge_solve-lam-inf",
    ),
    pytest.param(
        lambda: default_coefficient_bound(math.inf, 0.002, 0.2),
        "B must be positive and finite, got inf",
        id="default_coefficient_bound-B-inf",
    ),
    pytest.param(
        lambda: default_coefficient_bound(2.0, math.inf, 0.2),
        "lam must be nonnegative and finite, got inf",
        id="default_coefficient_bound-lam-inf",
    ),
    pytest.param(
        lambda: default_coefficient_bound(2.0, 0.002, math.inf),
        "e must be positive and finite, got inf",
        id="default_coefficient_bound-e-inf",
    ),
    pytest.param(
        lambda: irls_sensitivity(3, 100, 2.0, math.inf, 0.2),
        "lam must be positive and finite, got inf",
        id="irls_sensitivity-lam-inf",
    ),
    pytest.param(
        lambda: irls_sensitivity(1.5, 100, 2.0, 0.002, 0.2),
        "d must be a positive integer, got 1.5",
        id="irls_sensitivity-d-fraction",
    ),
    pytest.param(
        lambda: split_batches(10, 2.5, RngStream(1)),
        "n_batches must be a positive integer, got 2.5",
        id="split_batches-n_batches-fraction",
    ),
    pytest.param(
        lambda: ScalingRecord(math.inf, 1.0),
        "x_scale must be positive and finite, got inf",
        id="ScalingRecord-x_scale-inf",
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", _LEAKS)
def test_knobs_outside_their_domain_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


# each call used to return infinities, NaNs, too few draws or another seed's
# stream, or to fail with a ZeroDivisionError or a float warning
_UNCHECKED = [
    pytest.param(
        lambda: RngStream(1).uniforms(0.0, math.inf, 2),
        "hi - lo must be positive and finite, got inf",
        id="uniforms-hi-inf",
    ),
    pytest.param(
        lambda: RngStream(1).uniforms(math.nan, 1.0, 2),
        "hi - lo must be positive and finite, got nan",
        id="uniforms-lo-nan",
    ),
    pytest.param(
        lambda: RngStream(1).uniforms(0.0, 1.0, 2.5),
        "k must be a positive integer, got 2.5",
        id="uniforms-k-fraction",
    ),
    pytest.param(
        lambda: random_theta(3, RngStream(1), scale=-1.0),
        "hi - lo must be positive and finite, got -2.0",
        id="random_theta-scale-negative",
    ),
    pytest.param(
        lambda: random_theta(3, RngStream(1), scale=math.inf),
        "hi - lo must be positive and finite, got inf",
        id="random_theta-scale-inf",
    ),
    pytest.param(
        lambda: coordinate_step_vector(Theta(0.0, np.zeros(3)), np.zeros((0, 3)), np.zeros(0), 0.002, 0.1),
        "rows of X must be a positive integer, got 0",
        id="coordinate_step_vector-empty-batch",
    ),
    pytest.param(
        lambda: gcd_step_probe(0, 3, 2, GcdConfig(), RngStream(1)),
        "need n0 >= 1, got 0",
        id="gcd_step_probe-empty-batch",
    ),
    pytest.param(lambda: RngStream(1.7), "seed must be an integer, got 1.7", id="RngStream-seed-float"),
    pytest.param(lambda: RngStream(True), "seed must be an integer, got True", id="RngStream-seed-bool"),
    pytest.param(lambda: RngStream("3"), "seed must be an integer, got '3'", id="RngStream-seed-string"),
    pytest.param(
        lambda: RngStream(1).derive(2.5), "stream id must be an integer, got 2.5", id="derive-stream-id-float"
    ),
    # each of these used to return a permutation of int(n) (an empty one for
    # -1) or an integer drawn between truncated ends
    pytest.param(
        lambda: RngStream(1).permutation(2.5), "n must be a positive integer, got 2.5", id="permutation-float"
    ),
    pytest.param(
        lambda: RngStream(1).permutation(True), "n must be a positive integer, got True", id="permutation-bool"
    ),
    pytest.param(
        lambda: RngStream(1).permutation(-1), "n must be a positive integer, got -1", id="permutation-negative"
    ),
    pytest.param(
        lambda: RngStream(1).integer(0, 2.5), "hi must be an integer, got 2.5", id="integer-hi-float"
    ),
    pytest.param(
        lambda: RngStream(1).integer(0.5, 3), "lo must be an integer, got 0.5", id="integer-lo-float"
    ),
    # each of these used to fail inside numpy without naming k
    pytest.param(
        lambda: directional_derivatives(_KT, _KD, 0.0, True), "k must be an integer, got True", id="directional-k-bool"
    ),
    pytest.param(
        lambda: directional_derivatives(_KT, _KD, 0.0, 1.0), "k must be an integer, got 1.0", id="directional-k-float"
    ),
    # 2.5 gave 497.7 and True gave 239.7
    pytest.param(
        lambda: gamma_tail_bound(2.5, 0.1, 0.1), "d must be an integer, got 2.5", id="gamma_tail_bound-d-fraction"
    ),
    pytest.param(
        lambda: gamma_tail_bound(True, 0.1, 0.1), "d must be an integer, got True", id="gamma_tail_bound-d-bool"
    ),
    pytest.param(
        lambda: gamma_tail_bound(3.0, 0.1, 0.1), "d must be an integer, got 3.0", id="gamma_tail_bound-d-float"
    ),
    pytest.param(
        lambda: gamma_tail_bound("3", 0.1, 0.1), "d must be an integer, got '3'", id="gamma_tail_bound-d-string"
    ),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, message", _UNCHECKED)
def test_unchecked_arguments_are_refused_by_name(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_smoothed_gradient_simple_case():
    # single sample sitting mid-band: bracket value r/gamma = 1/2
    gamma = 0.1
    data = Dataset(X=np.array([[0.5]]), Y=np.array([-gamma / 2]), B=1.0)
    g = smoothed_gradient(Theta(0.0, np.zeros(1)), data, SmoothingConfig(lam=0.0, gamma=gamma), np.zeros(2))
    assert g[0] == pytest.approx(0.5)
    assert g[1] == pytest.approx(0.25)


def test_smoothed_gradient_zero_at_perfect_fit(rng):
    data, beta = bounded_instance(rng, n=20, d=2, noise=1e-12)
    g = smoothed_gradient(Theta(0.0, beta), data, SmoothingConfig(lam=0.0, gamma=0.05), np.zeros(3))
    assert abs(g[0]) < 1e-10
    assert np.all(np.abs(g[1:]) < 1e-10)


def test_smoothed_gradient_matches_central_differences(rng):
    # the tilted program alg1 minimizes: the mu^2/sqrt(n) term and a tilt b
    cfg = SmoothingConfig(lam=0.01, gamma=0.05)
    gamma = cfg.gamma
    h = 1e-6
    checked = 0
    t = 0
    while checked < 100:
        sub = rng.derive(t)
        t += 1
        d = 1 + checked % 5
        data, _ = bounded_instance(sub, n=10 + checked % 41, d=d)
        theta = random_theta(d, sub)
        r = residuals(theta, data)
        # stay clear of the band edges so the finite difference is one-branch
        if float(np.min(np.abs(np.abs(r) - gamma))) < 1e-3:
            continue
        checked += 1
        b = sub.uniforms(-2.0, 2.0, d + 1)
        g = smoothed_gradient(theta, data, cfg, b)
        up = smoothed_program(Theta(theta.mu + h, theta.beta), data, cfg, b)
        dn = smoothed_program(Theta(theta.mu - h, theta.beta), data, cfg, b)
        assert abs(g[0] - (up - dn) / (2 * h)) < 1e-5
        for k in range(d):
            ek = np.zeros(d)
            ek[k] = h
            up = smoothed_program(Theta(theta.mu, theta.beta + ek), data, cfg, b)
            dn = smoothed_program(Theta(theta.mu, theta.beta - ek), data, cfg, b)
            assert abs(g[1 + k] - (up - dn) / (2 * h)) < 1e-5


def test_gradient_bracket_vector_bounded(rng):
    # the per-sample factor driving the gradient lies in [-1, 1]
    for t in range(25):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=30, d=3)
        gamma = 0.07
        theta = random_theta(3, sub, scale=2.0)
        # at theta = 0 on a one-row dataset with x = 0 the gradient's mu entry
        # is the factor at the residual -y
        cfg, zero = SmoothingConfig(lam=0.0, gamma=gamma), Theta(0.0, np.zeros(1))
        for r in residuals(theta, data):
            row = Dataset(X=np.zeros((1, 1)), Y=np.array([-r]), B=max(abs(r), 1.0))
            assert abs(smoothed_gradient(zero, row, cfg, np.zeros(2))[0]) <= 1.0 + 1e-12


def test_directional_derivatives_kink_case():
    # every residual exactly zero: both sides equal the mean |x_k|
    X = np.array([[0.3, -0.2], [-0.4, 0.1], [0.2, 0.5]])
    Y = X @ np.array([1.0, -1.0])
    data = Dataset(X=X, Y=Y, B=2.0)
    theta = Theta(0.0, np.array([1.0, -1.0]))
    for k in range(2):
        dp, dm = directional_derivatives(theta, data, 0.0, k)
        expected = float(np.abs(X[:, k]).mean())
        assert dp == pytest.approx(expected)
        assert dm == pytest.approx(expected)
        assert dp >= 0.0


def test_directional_derivatives_single_sample():
    data = Dataset(X=np.array([[0.4]]), Y=np.array([-1.0]), B=1.0)
    theta = Theta(0.0, np.zeros(1))  # r = 1 > 0
    dp, dm = directional_derivatives(theta, data, 0.0, 0)
    assert dp == pytest.approx(0.4)
    assert dm == pytest.approx(-0.4)


def test_directional_derivatives_match_one_sided_differences(rng):
    h = 1e-6
    checked = 0
    t = 0
    while checked < 60:
        sub = rng.derive(t)
        t += 1
        d = 1 + checked % 4
        data, _ = bounded_instance(sub, n=15 + checked % 30, d=d)
        theta = random_theta(d, sub)
        if float(np.min(np.abs(residuals(theta, data)))) < 1e-3:
            continue
        checked += 1
        base = objective_l1(theta, data, 0.0)
        for k in range(d):
            dp, dm = directional_derivatives(theta, data, 0.0, k)
            ek = np.zeros(d)
            ek[k] = h
            fwd = (objective_l1(Theta(theta.mu, theta.beta + ek), data, 0.0) - base) / h
            bwd = (objective_l1(Theta(theta.mu, theta.beta - ek), data, 0.0) - base) / h
            assert abs(dp - fwd) < 1e-5
            assert abs(dm - bwd) < 1e-5


def test_directional_derivatives_ridge_identity(rng):
    # away from kinks the ridge term adds +lam beta_k forward and -lam beta_k
    # backward, so the two one-sided slopes are exact negatives
    lam = 0.3
    for t in range(25):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=20, d=3)
        theta = random_theta(3, sub)
        if float(np.min(np.abs(residuals(theta, data)))) < 1e-9:
            continue
        for k in range(3):
            dp, dm = directional_derivatives(theta, data, lam, k)
            dp0, dm0 = directional_derivatives(theta, data, 0.0, k)
            assert dp == pytest.approx(-dm, abs=1e-12)
            assert dp == pytest.approx(dp0 + lam * theta.beta[k], abs=1e-12)
            assert dm == pytest.approx(dm0 - lam * theta.beta[k], abs=1e-12)


def test_directional_derivatives_convexity_sum(rng):
    # without the ridge term the two one-sided slopes cannot sum negative;
    # the kink contribution makes the sum strictly positive
    for t in range(25):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=20, d=2)
        theta = random_theta(2, sub, scale=2.0)
        for k in range(2):
            dp, dm = directional_derivatives(theta, data, 0.0, k)
            assert dp + dm >= -1e-14
    # exact-kink instance: sum equals twice the mean |x_k| over the kink rows
    X = np.array([[0.5], [-0.25]])
    Y = X @ np.array([2.0])
    data = Dataset(X=X, Y=Y, B=1.0)
    dp, dm = directional_derivatives(Theta(0.0, np.array([2.0])), data, 0.0, 0)
    assert dp + dm == pytest.approx(2 * np.abs(X[:, 0]).mean())


def test_directional_derivatives_range_check():
    data = Dataset(X=np.zeros((2, 2)), Y=np.zeros(2), B=1.0)
    with pytest.raises(IndexError):
        directional_derivatives(Theta(0.0, np.zeros(2)), data, 0.0, 2)
    # a numpy integer is an index like an int
    theta = Theta(0.5, np.array([1.0, -1.0]))
    assert directional_derivatives(theta, data, 0.0, np.int64(1)) == directional_derivatives(theta, data, 0.0, 1)


def test_directional_derivatives_refuse_negative_lambda():
    # as objective_l1 does: a negative ridge weight is no objective of ours
    data = Dataset(X=np.array([[0.4]]), Y=np.array([-1.0]), B=1.0)
    for lam in (-0.1, -math.inf):
        with pytest.raises(ValueError, match="^lam must be nonnegative"):
            directional_derivatives(Theta(0.0, np.zeros(1)), data, lam, 0)


def _masked_step(r, xk, n, lam_beta_k, eta):
    """The coordinate step written from its definition: zero, positive and
    negative residuals each masked out of the whole vector."""
    pos = r > 0
    neg = r < 0
    zero = ~(pos | neg)
    kink = float(np.abs(xk[zero]).sum())
    swing = float(xk[pos].sum() - xk[neg].sum())
    d_plus = (swing + kink) / n + lam_beta_k
    d_minus = (-swing + kink) / n - lam_beta_k
    if d_plus < 0.0:
        return d_plus, d_minus, -eta * d_plus
    if d_minus < 0.0:
        return d_plus, d_minus, eta * d_minus
    return d_plus, d_minus, 0.0


@st.composite
def step_inputs(draw):
    """Residuals with exact zeros, -0.0 or one sign only, at lengths on both
    sides of numpy's pairwise-sum blocks (8 and 128), and a column that is
    sometimes a strided view."""
    n = draw(st.sampled_from([1, 7, 8, 9, 128, 129, 5000]))
    sub = RngStream(draw(st.integers(0, 2**32 - 1)))
    r = sub.uniforms(-1.0, 1.0, n)
    signs = draw(st.sampled_from(["both", "positive", "negative"]))
    if signs != "both":
        r = np.abs(r) if signs == "positive" else -np.abs(r)
    for value in (0.0, -0.0):
        share = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        r[sub.uniform_open(n) < share] = value
    table = sub.uniforms(-1.0, 1.0, 2 * n).reshape(n, 2)
    xk = table[:, 1] if draw(st.booleans()) else table[:, 1].copy()
    lam_beta_k = draw(st.sampled_from([0.0, -0.0, 1e-3, -0.3]))
    eta = draw(st.sampled_from([0.0, 0.1, 2.5]))
    return r, xk, n, lam_beta_k, eta


# the step alg3 runs is the masked definition bit for bit: slopes, step and
# the sign of every zero
@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=step_inputs())
def test_coordinate_step_is_the_masked_definition_bit_for_bit(case):
    got = _coordinate_step(*case)
    want = _masked_step(*case)
    assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


def test_perturbed_objective_plugin_case():
    # every residual is 0, so each term is -e ln e and the mean is doubled
    n, e = 5, 0.1
    data = Dataset(X=np.zeros((n, 1)), Y=np.zeros(n), B=1.0)
    theta = Theta(0.0, np.zeros(1))
    assert perturbed_objective_le(theta, data, IrlsConfig(lam=0.0, e=e)) == pytest.approx(-2 * e * np.log(e))


def test_perturbed_objective_small_e_limit(rng):
    data, _ = bounded_instance(rng, n=50, d=2, noise=0.5)
    theta = random_theta(2, rng)
    value = perturbed_objective_le(theta, data, IrlsConfig(lam=0.0, e=1e-12))
    plain = 2.0 / data.n * float(np.abs(residuals(theta, data)).sum())
    assert abs(value - plain) < 1e-6


def test_perturbed_objective_forms(rng):
    data, _ = bounded_instance(rng, n=30, d=2)
    theta = random_theta(2, rng)
    lam, e = 0.1, 0.2
    r = np.abs(residuals(theta, data))
    ridge = 0.5 * lam * float(theta.beta @ theta.beta)
    mm = float(2.0 / data.n * np.sum(r - e * np.log(e + r)) + ridge)
    assert perturbed_objective_le(theta, data, IrlsConfig(lam=lam, e=e)) == pytest.approx(mm)
    with pytest.raises(ValueError):
        perturbed_objective_le(theta, data, IrlsConfig(lam=lam, e=0.0))


def test_spd_solve_rejects_indefinite_and_non_finite():
    assert _spd_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.ones(2)) is None
    assert _spd_solve(np.zeros((2, 2)), np.ones(2)) is None
    with pytest.raises(ValueError, match="infs or NaNs"):
        _spd_solve(np.array([[1.0, 0.0], [0.0, np.inf]]), np.ones(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        _spd_solve(np.eye(2), np.array([1.0, np.nan]))


def test_spd_solve_bits_match_scipy_cholesky_on_newton_hessians(rng):
    # alg1's Newton system at a random iterate: in-band pseudo-Hessian plus ridge
    for n, d, gamma in ((50, 2, 0.5), (300, 3, 0.05), (2000, 5, 0.2)):
        data, _ = bounded_instance(rng, n=n, d=d)
        Xt = design_matrix(data.X)
        ridge = _ridge(n, d, 0.002)
        omega = random_theta(d, rng, scale=0.5).as_vector()
        _, _, w, grad = _smoothed_terms(Xt, data.Y, omega, gamma, ridge, 0.0)
        H = (Xt.T * w) @ Xt / (n * gamma)
        H[np.diag_indices_from(H)] += ridge
        before = H.copy()
        got = _spd_solve(H, -grad)
        expected = cho_solve(cho_factor(H, lower=True), -grad)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert np.array_equal(H, before)
