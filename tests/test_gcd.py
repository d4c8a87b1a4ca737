import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpmedreg import (
    Dataset,
    GcdConfig,
    RngStream,
    SingularSystemError,
    Theta,
    coordinate_step_vector,
    fit_gcd_private,
    gcd,
    gcd_step_probe,
    objective_l1,
    random_dataset,
    residuals,
    split_batches,
)
from dpmedreg.gcd import _descend
from dpmedreg.model import design_matrix

from conftest import benchmark_instance, bounded_instance, traced_peak


def _bits(values):
    return [float(v).hex() for v in values]


def test_split_batches_even():
    batches = split_batches(100, 4, RngStream(1))
    assert batches.shape == (4, 25)
    assert np.unique(batches).shape[0] == 100


def test_split_batches_remainder_dropped():
    batches = split_batches(103, 4, RngStream(2))
    assert batches.shape == (4, 25)
    assert np.unique(batches).shape[0] == batches.size == 100


# disjoint batches back alg3's privacy argument: each record may sit in
# exactly one batch
@settings(max_examples=200, deadline=None, derandomize=True)
@given(n=st.integers(1, 5000), data=st.data(), seed=st.integers(0, 2**32))
def test_split_batches_is_a_read_only_partition(n, data, seed):
    k = data.draw(st.integers(1, n), label="k")
    batches = split_batches(n, k, RngStream(seed))
    assert batches.shape == (k, n // k)
    assert not batches.flags.writeable
    assert np.unique(batches).shape[0] == batches.size
    assert 0 <= batches.min() <= batches.max() < n


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
    release = fit_gcd_private(data, cfg, RngStream(0))
    assert release.theta.mu == 0.0
    assert np.all(release.theta.beta == 0.0)


def test_fit_trace_metadata_exact():
    data, _, _ = benchmark_instance(5000, RngStream(3))
    cfg = GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=40)
    release, iterates, batches = _descend(data, cfg, RngStream(4))
    n0 = batches.shape[1]
    assert n0 == 125
    assert iterates.shape == (41, data.d + 1) and not iterates.flags.writeable
    assert release.solver_iters == 40
    assert _bits(release.theta.as_vector()) == _bits(iterates[-1])


def test_fit_iterate_stability_inequality():
    data, _, _ = benchmark_instance(5000, RngStream(5))
    cfg = GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=40)
    release, iterates, _ = _descend(data, cfg, RngStream(6))
    for t in range(cfg.batches):
        prev = iterates[t, 1:]
        nxt = iterates[t + 1, 1:]
        rhs = cfg.ell / (t + 1) * (1.0 + cfg.lam * np.abs(prev)) + np.abs(release.noise[t])
        assert np.all(np.abs(nxt - prev) <= rhs + 1e-12)


def test_fit_batches_disjoint_and_noiseless_descends():
    rng = RngStream(8)
    data, _ = bounded_instance(rng, n=400, d=1, noise=0.3)
    cfg = GcdConfig(epsilon=math.inf, lam=0.0, ell=0.2, batches=8, init="zero")
    release, iterates, batches = _descend(data, cfg, RngStream(9))
    assert np.unique(batches).shape[0] == batches.size
    # overall descent versus the start (per-step monotonicity not required)
    assert objective_l1(release.theta, data, 0.0) <= objective_l1(Theta.from_vector(iterates[0]), data, 0.0)


def test_fit_deterministic_given_seed():
    data, _, _ = benchmark_instance(1000, RngStream(10))
    cfg = GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=10)
    r1 = fit_gcd_private(data, cfg, RngStream(11))
    r2 = fit_gcd_private(data, cfg, RngStream(11))
    assert r1.theta.mu == r2.theta.mu
    assert np.array_equal(r1.theta.beta, r2.theta.beta)
    assert np.array_equal(r1.noise, r2.noise)


@pytest.mark.parametrize("init", ["ridge", "zero"])
def test_fit_noise_is_one_draw_per_coordinate_in_order(init):
    # noise[t, k] is the (t d + k)-th Laplace draw after the batch
    # permutation, at scale 2 eta_t / (epsilon n0), bit for bit
    data, _, _ = benchmark_instance(1000, RngStream(12))
    cfg = GcdConfig(epsilon=0.5, batches=7, init=init)
    release, _, batches = _descend(data, cfg, RngStream(13))
    twin = RngStream(13)
    twin.permutation(data.n)
    n0 = batches.shape[1]
    for t in range(cfg.batches):
        scale = 2.0 * (cfg.ell / (t + 1)) / (cfg.epsilon * n0)
        for k in range(data.d):
            assert release.noise[t, k] == twin.laplaces(scale, 1)[0]
    assert release.noise_scale == 2.0 * cfg.ell / (cfg.epsilon * n0)
    assert not release.noise.flags.writeable
    noiseless = fit_gcd_private(data, GcdConfig(epsilon=math.inf, batches=7, init=init), RngStream(13))
    assert noiseless.noise.shape == (7, data.d) and np.all(noiseless.noise == 0.0)
    assert noiseless.noise_scale == 0.0


def test_fit_refuses_a_missing_stream_before_any_work(monkeypatch):
    # the batch permutation needs a stream even when no noise is drawn
    data = Dataset(X=np.array([[0.2], [0.1], [-0.3], [0.4]]), Y=np.zeros(4), B=1.0)
    calls = []
    monkeypatch.setattr(gcd, "_descend", lambda *args: calls.append(args))
    for epsilon in (math.inf, 0.1):
        with pytest.raises(ValueError, match=r"^alg3 needs an RngStream for its batch permutation"):
            fit_gcd_private(data, GcdConfig(epsilon=epsilon, batches=2), None)
    assert calls == []


GCD_KINDS = ["few_rows", "rows_equal_batches", "remainder", "constant_y", "saturated_y", "zero_column"]


@st.composite
def degenerate_gcd_cases(draw):
    """A small Dataset of one degenerate kind, a config and a stream seed."""
    kind = draw(st.sampled_from(GCD_KINDS))
    batches = draw(st.integers(2, 6))
    if kind == "few_rows":
        n = draw(st.integers(1, batches - 1))
    elif kind == "rows_equal_batches":
        n = batches
    elif kind == "remainder":
        n = batches * draw(st.integers(1, 4)) + draw(st.integers(1, batches - 1))
    else:
        n = draw(st.integers(batches, 5 * batches))
    d = draw(st.integers(2 if kind == "zero_column" else 1, 4))
    B = draw(st.sampled_from([0.5, 1.0, 3.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    data = random_dataset(n, d, B, RngStream(seed).derive(0))
    X, Y = data.X.copy(), data.Y.copy()
    if kind == "constant_y":
        Y[:] = Y[0]
    elif kind == "saturated_y":
        Y = np.where(RngStream(seed).derive(1).uniform_open(n) < 0.5, -B, B)
    elif kind == "zero_column":
        X[:, draw(st.integers(0, d - 1))] = 0.0
    cfg = GcdConfig(
        epsilon=draw(st.sampled_from([0.1, math.inf])),
        lam=draw(st.sampled_from([0.0, 0.002])),
        batches=batches,
        init=draw(st.sampled_from(["ridge", "zero"])),
    )
    return Dataset(X=X, Y=Y, B=B), cfg, seed


# alg3 on degenerate input gives a finite release or a typed error: n <
# batches is a ValueError, a ridge start at lam = 0 on a rank-deficient
# design is a SingularSystemError, and nothing else fails
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=degenerate_gcd_cases())
def test_fit_on_degenerate_data_is_finite_or_a_typed_error(case):
    data, cfg, seed = case
    try:
        release = fit_gcd_private(data, cfg, RngStream(seed).derive(2))
    except ValueError as exc:
        assert data.n < cfg.batches, exc
        return
    except SingularSystemError:
        assert cfg.init == "ridge" and cfg.lam == 0
        assert np.linalg.matrix_rank(design_matrix(data.X)) < data.d + 1
        return
    assert data.n >= cfg.batches
    assert np.all(np.isfinite(release.theta.as_vector()))
    assert release.noise.shape == (cfg.batches, data.d)
    assert release.solver_iters == cfg.batches
    if math.isinf(cfg.epsilon):
        assert release.noise_scale == 0.0 and np.all(release.noise == 0.0)


def _tied_table():
    # 120 rows of 4 distinct predictors and 3 responses on a dyadic grid: most
    # residuals are exactly 0 on the first three batches of the pinned fit
    X = np.tile([[0.0, 0.25], [0.25, -0.25], [-0.5, 0.0], [0.25, 0.25]], (30, 1))
    Y = np.resize([0.0, 0.0, 0.5, 0.0, -0.5, 0.0], 120)
    return Dataset(X=X, Y=Y, B=1.0)


# float.hex of alg3's theta = (mu, beta) on three fixed-seed fits, as the
# masked coordinate step gave them; a faster descent must keep these bits
ALG3_PINS = [
    (
        lambda: benchmark_instance(5000, RngStream(51))[0],
        GcdConfig(),
        52,
        ["0x1.56de638c874a9p-3", "0x1.81ba7a4dae961p-2", "0x1.a41a52ec2b101p-6", "-0x1.d47be5c25ace5p-2"],
    ),
    (
        lambda: benchmark_instance(200_000, RngStream(61))[0],
        GcdConfig(init="zero"),
        62,
        ["0x1.30a2f88261f1cp-3", "0x1.45f2ff93d67d7p-6", "-0x1.5b111935bd000p-10", "-0x1.c311fd0c50dc4p-6"],
    ),
    (
        _tied_table,
        GcdConfig(epsilon=math.inf, lam=0.0, ell=1.0, batches=4, init="zero"),
        6,
        ["0x1.0d3a06d3a06d3p-5", "0x1.1111111111111p-7", "0x1.999999999999ap-8"],
    ),
]


@pytest.mark.parametrize("make_data, cfg, seed, pinned", ALG3_PINS, ids=["n5000", "n200000", "tied"])
def test_fixed_seed_fits_keep_their_bits(make_data, cfg, seed, pinned):
    release = fit_gcd_private(make_data(), cfg, RngStream(seed))
    assert _bits(release.theta.as_vector()) == pinned


def test_fit_memory_stays_within_budget():
    # the n = 2e5 zero-start pin's fit, traced above its input: about 2.1 MB
    # (mostly the batch permutation) with one batch gathered at a time, and
    # 12.9 MB with the whole table's rows and columns gathered in batch
    # order up front
    make_data, cfg, seed, pinned = ALG3_PINS[1]
    data = make_data()
    release, peak = traced_peak(fit_gcd_private, data, cfg, RngStream(seed))
    assert _bits(release.theta.as_vector()) == pinned
    assert peak < 3e6


# the tied table at two points: 10 and 40 of its 120 residuals exactly 0
@pytest.mark.parametrize(
    "theta, pinned",
    [
        (Theta(0.25, np.array([0.5, -0.5])), ["-0x1.62fc962fc9630p-7", "0x1.b4e81b4e81b54p-12"]),
        (Theta(-0.125, np.array([1.0, 0.5])), ["-0x1.1eb851eb851ebp-6", "-0x1.b4e81b4e81b54p-12"]),
    ],
    ids=["ten_zeros", "forty_zeros"],
)
def test_step_vector_on_tied_table_keeps_its_bits(theta, pinned):
    data = _tied_table()
    steps = coordinate_step_vector(theta, data.X, data.Y, 0.05, 0.1)
    assert _bits(steps) == pinned


# each of these used to broadcast or flip a sign into wrong steps instead of
# failing: Y = [0.5] against 3 rows gave [0, -0.00333], eta = -0.1 gave
# [0.0133, 0.01]; a NaN response counted as a kink (steps [0, 0]) and an
# infinite X entry gave a -inf step
@pytest.mark.parametrize(
    "X, Y, beta, lam, eta, message",
    [
        (np.array([0.1, 0.2, 0.3]), np.zeros(3), [0.0], 0.0, 0.1, "^X must have 2 dimensions"),
        (np.zeros((1, 3, 2)), np.zeros(1), [0.0, 0.0], 0.0, 0.1, "^X must have 2 dimensions"),
        (None, np.array([0.5]), [0.5, -0.5], 0.0, 0.1, r"^Y must have shape \(3,\)"),
        (None, np.zeros((3, 1)), [0.5, -0.5], 0.0, 0.1, r"^Y must have shape \(3,\)"),
        (None, np.zeros(4), [0.5, -0.5], 0.0, 0.1, r"^Y must have shape \(3,\)"),
        (None, np.zeros(3), [0.5], 0.0, 0.1, "^theta has d=1 but X has 2 columns"),
        (None, np.zeros(3), [0.5, -0.5, 0.0], 0.0, 0.1, "^theta has d=3 but X has 2 columns"),
        (None, np.zeros(3), [0.5, -0.5], 0.0, -0.1, "^eta must be nonnegative and finite"),
        (None, np.zeros(3), [0.5, -0.5], 0.0, math.inf, "^eta must be nonnegative and finite"),
        (None, np.zeros(3), [0.5, -0.5], 0.0, math.nan, "^eta must be nonnegative and finite"),
        (None, np.zeros(3), [0.5, -0.5], -0.05, 0.1, "^lam must be nonnegative and finite"),
        (None, np.zeros(3), [0.5, -0.5], math.inf, 0.1, "^lam must be nonnegative and finite"),
        (None, np.zeros(3), [0.5, -0.5], math.nan, 0.1, "^lam must be nonnegative and finite"),
        (None, np.array([0.0, math.nan, 0.0]), [0.5, -0.5], 0.05, 0.1, "^Y contains non-finite values"),
        (None, np.array([0.0, -math.inf, 0.0]), [0.5, -0.5], 0.05, 0.1, "^Y contains non-finite values"),
        (np.array([[0.3, -0.4], [math.inf, 0.1], [-0.5, 0.2]]), np.zeros(3), [0.5, -0.5], 0.05, 0.1,
         "^X contains non-finite values"),
        (np.array([[0.3, -0.4], [math.nan, 0.1], [-0.5, 0.2]]), np.zeros(3), [0.5, -0.5], 0.05, 0.1,
         "^X contains non-finite values"),
    ],
)
def test_step_vector_refuses_bad_input_before_any_work(monkeypatch, X, Y, beta, lam, eta, message):
    if X is None:
        X = np.array([[0.3, -0.4], [0.2, 0.1], [-0.5, 0.2]])
    calls = []
    monkeypatch.setattr(gcd, "_coordinate_step", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=message):
        coordinate_step_vector(Theta(0.1, np.array(beta)), X, Y, lam, eta)
    assert calls == []


def test_step_vector_names_an_infinite_x_that_meets_a_zero_coefficient():
    # inf * 0 is NaN, so the residual still shows it; numpy warns on the way
    X = np.array([[0.3, math.inf], [0.2, 0.1], [-0.5, 0.2]])
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="^X contains non-finite values"):
        coordinate_step_vector(Theta(0.1, np.array([0.5, 0.0])), X, np.zeros(3), 0.05, 0.1)


def test_step_vector_refuses_residuals_that_overflow():
    X = np.array([[1e308, 0.0], [0.2, 0.1]])
    with pytest.warns(RuntimeWarning), pytest.raises(ValueError, match="^the residuals mu"):
        coordinate_step_vector(Theta(0.1, np.array([10.0, 0.0])), X, np.zeros(2), 0.05, 0.1)


def test_step_vector_accepts_zero_eta_and_lam():
    X = np.array([[0.3, -0.4], [0.2, 0.1], [-0.5, 0.2]])
    theta = Theta(0.1, np.array([0.5, -0.5]))
    # residuals 0.45, 0.15, -0.25: one backward and one forward step at eta > 0
    assert np.all(coordinate_step_vector(theta, X, np.zeros(3), 0.0, 0.0) == 0.0)
    steps = coordinate_step_vector(theta, X, np.zeros(3), 0.0, 0.1)
    assert steps[0] < 0.0 < steps[1]


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
    for count in (2.5, True, 0):
        with pytest.raises(ValueError, match=f"^batches must be a positive integer, got {count!r}$"):
            GcdConfig(batches=count)
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
