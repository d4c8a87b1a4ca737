import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import cho_factor, cho_solve

from dpmedreg import (
    Dataset,
    IrlsConfig,
    RngStream,
    SingularSystemError,
    SmoothingConfig,
    Theta,
    default_coefficient_bound,
    fit_irls_private,
    irls,
    irls_accuracy_bound,
    irls_fit,
    irls_sensitivity,
    irls_sensitivity_probe,
    perturbed_objective_le,
    random_dataset,
    residuals,
    weighted_ridge_solve,
)
from dpmedreg.model import design_matrix

from conftest import benchmark_instance, bounded_instance, smoothed_baseline


def test_weighted_solve_intercept_only_sample():
    data = Dataset(X=np.zeros((1, 1)), Y=np.array([3.0]), B=3.0)
    theta = weighted_ridge_solve(data, np.ones(1), lam=0.5)
    assert theta.mu == pytest.approx(3.0)
    assert theta.beta[0] == pytest.approx(0.0)


def test_fit_refuses_weights_that_are_not_positive_and_finite():
    # at B = 1e308 the unit-weight start overflows to beta = inf, so every
    # residual is infinite and every weight 1/(|r| + e) is 0; the loop names
    # that before it solves with those weights
    data = Dataset(X=np.array([[0.5], [-0.5]]), Y=np.array([1e308, -1e308]), B=1e308)
    with pytest.raises(ValueError, match="^weights must be positive and finite$"):
        fit_irls_private(data, IrlsConfig(epsilon=math.inf), None)


def test_weighted_solve_equals_ols(rng):
    # unit weights, lam = 0, full-rank X: ordinary least squares
    X = rng.uniforms(-0.5, 0.5, 10).reshape(5, 2)
    Y = rng.uniforms(-1, 1, 5)
    data = Dataset(X=X, Y=Y, B=2.0)
    theta = weighted_ridge_solve(data, np.ones(5), lam=0.0)
    Xt = np.column_stack([np.ones(5), X])
    expected, *_ = np.linalg.lstsq(Xt, Y, rcond=None)
    assert np.allclose(theta.as_vector(), expected, atol=1e-10)


def test_weighted_solve_stationarity_identity(rng):
    data, _ = bounded_instance(rng, n=50, d=3)
    w = 0.5 + rng.uniform_open(50)
    theta = weighted_ridge_solve(data, w, lam=0.05)
    expected_mu = -float(np.sum(w * (data.X @ theta.beta - data.Y))) / float(np.sum(w))
    assert theta.mu == pytest.approx(expected_mu, abs=1e-10)


def test_weighted_solve_singular_raises():
    data = Dataset(X=np.zeros((3, 1)), Y=np.array([1.0, 2.0, 3.0]), B=3.0)
    with pytest.raises(SingularSystemError):
        weighted_ridge_solve(data, np.ones(3), lam=0.0)


@pytest.mark.parametrize("n", [50, 5000])
def test_weighted_solve_bits_match_scipy_cholesky(n):
    # the direct LAPACK calls must give exactly what cho_factor/cho_solve give
    for t in range(5):
        sub = RngStream(77).derive(n, t)
        data = random_dataset(n, 3, 2.0, sub)
        w = 1.0 / (np.abs(sub.laplaces(1.0, n)) + 0.2)
        for lam in (0.0, 0.002, 0.3):
            Xt = design_matrix(data.X)
            A = Xt.T @ (Xt * w[:, None])
            A[np.arange(1, 4), np.arange(1, 4)] += n * lam / 2.0
            expected = cho_solve(cho_factor(A, lower=True), Xt.T @ (w * data.Y))
            got = weighted_ridge_solve(data, w, lam).as_vector()
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_zero_column_without_ridge_is_singular(rng):
    data, _ = bounded_instance(rng, n=20, d=3)
    X = data.X.copy()
    X[:, 1] = 0.0
    flat = Dataset(X=X, Y=data.Y, B=data.B)
    with pytest.raises(SingularSystemError):
        weighted_ridge_solve(flat, np.ones(20), lam=0.0)
    with pytest.raises(SingularSystemError):
        irls_fit(flat, IrlsConfig(lam=0.0))
    # any ridge makes the same system definite
    assert np.all(np.isfinite(weighted_ridge_solve(flat, np.ones(20), lam=0.01).as_vector()))


def test_weighted_solve_rejects_non_finite_system(rng):
    data, _ = bounded_instance(rng, n=5, d=1)
    with pytest.raises(ValueError, match="^lam must be nonnegative and finite, got inf$"):
        weighted_ridge_solve(data, np.ones(5), lam=math.inf)


def test_weighted_solve_weight_validation(rng):
    data, _ = bounded_instance(rng, n=5, d=1)
    with pytest.raises(ValueError):
        weighted_ridge_solve(data, np.array([1.0, 1.0, 0.0, 1.0, 1.0]), lam=0.1)
    with pytest.raises(ValueError):
        weighted_ridge_solve(data, np.ones(4), lam=0.1)


def _reference_irls(data, cfg):
    """irls_fit's loop rebuilt from the public weighted_ridge_solve and
    residuals, with its convergence and bracket rules: (iterates,
    bracket violations, converged)."""
    v = default_coefficient_bound(data.B, cfg.lam, cfg.e)
    w_lo = 1.0 / (2.0 * (math.sqrt(data.d * v) + data.B) + cfg.e)
    w_hi = 1.0 / cfg.e
    theta = weighted_ridge_solve(data, np.ones(data.n), cfg.lam)
    thetas = [theta]
    violations = 0
    for _ in range(cfg.max_iters):
        w = 1.0 / (np.abs(residuals(theta, data)) + cfg.e)
        if float(w.min()) < w_lo * (1.0 - 1e-12) or float(w.max()) > w_hi * (1.0 + 1e-12):
            violations += 1
        new = weighted_ridge_solve(data, w, cfg.lam)
        thetas.append(new)
        moved = abs(new.mu - theta.mu), float(np.abs(new.beta - theta.beta).sum())
        theta = new
        if max(moved) <= cfg.tau:
            return thetas, violations, True
    return thetas, violations, False


def _assert_is_reference(trace, data, cfg):
    thetas, violations, converged = _reference_irls(data, cfg)
    assert len(trace.iterates) == len(thetas)
    for got, want in zip(trace.iterates, thetas):
        assert np.array_equal(got.view(np.int64), want.as_vector().view(np.int64))
    assert trace.iterations == len(thetas) - 1
    assert trace.bracket_violations == violations
    assert trace.converged == converged


def test_irls_fit_iterates_are_the_public_solve_bit_for_bit():
    cfg = IrlsConfig(lam=0.002, e=0.2)
    root = RngStream(31)
    for t in range(20):
        data = random_dataset(50, 3, 1.0, root.derive(t))
        _assert_is_reference(irls_fit(data, cfg), data, cfg)
    data, _, _ = benchmark_instance(5000, RngStream(32))
    trace = irls_fit(data, cfg)
    _assert_is_reference(trace, data, cfg)
    assert trace.converged


def test_irls_fit_builds_one_design_matrix_per_fit(monkeypatch):
    calls = []

    def counted(X):
        calls.append(X.shape)
        return design_matrix(X)

    monkeypatch.setattr(irls, "design_matrix", counted)
    data, _, _ = benchmark_instance(5000, RngStream(34))
    trace = irls_fit(data, IrlsConfig(lam=0.002, e=0.2))
    assert trace.iterations > 1
    # one table, built once as a stack of one
    assert calls == [(1, 5000, data.d)]
    calls.clear()
    tables = [random_dataset(50, 3, 1.0, RngStream(34).derive(k)) for k in range(3)]
    assert all(trace.iterations > 1 for trace in irls.irls_fits(tables, IrlsConfig()))
    assert calls == [(3, 50, 3)]


def _assert_same_trace(got, want):
    assert got.iterates.shape == want.iterates.shape
    assert got.iterates.tobytes() == want.iterates.tobytes()
    assert not got.iterates.flags.writeable and got.iterates.flags.c_contiguous
    assert (got.converged, got.bracket_violations) == (want.converged, want.bracket_violations)


def test_irls_fits_is_each_tables_own_fit_bit_for_bit():
    # probe-size tables converge after 18 to 33 passes: at max_iters = 26 the
    # batch loses tables at several passes and one runs out of passes
    cfg = IrlsConfig(max_iters=26)
    root = RngStream(34)
    tables = [random_dataset(50, 3, 1.0, root.derive(k)) for k in range(8)]
    singles = [irls_fit(data, cfg) for data in tables]
    assert len({trace.iterations for trace in singles if trace.converged}) >= 4
    assert not singles[0].converged and singles[0].iterations == 26
    batch = irls.irls_fits(tables, cfg)
    assert len(batch) == len(tables)
    for got, want in zip(batch, singles):
        _assert_same_trace(got, want)
    # the order of the tables does not matter, nor a table given twice
    for got, want in zip(irls.irls_fits(tables[::-1] + tables[:1], cfg), singles[::-1] + singles[:1]):
        _assert_same_trace(got, want)


def test_irls_fits_counts_each_tables_bracket_violations(monkeypatch):
    # the derived bracket never fails; a narrower one makes each table
    # escape it on its own passes: on none, some or all of them
    monkeypatch.setattr(irls, "_weight_bracket", lambda d, B, cfg: (0.78, 5.0))
    cfg = IrlsConfig()
    tables = [random_dataset(50, 3, 1.0, RngStream(35).derive(k)) for k in range(6)]
    singles = [irls_fit(data, cfg) for data in tables]
    counts = [(trace.bracket_violations, trace.iterations) for trace in singles]
    assert any(v == 0 for v, _ in counts) and any(v == t for v, t in counts)
    assert any(0 < v < t for v, t in counts)
    for got, want in zip(irls.irls_fits(tables, cfg), singles):
        _assert_same_trace(got, want)


def test_irls_fits_refuses_an_empty_or_mixed_batch():
    data = random_dataset(50, 3, 1.0, RngStream(36))
    with pytest.raises(ValueError, match="^need at least one dataset$"):
        irls.irls_fits([], IrlsConfig())
    others = [
        random_dataset(49, 3, 1.0, RngStream(36)),
        random_dataset(50, 2, 1.0, RngStream(36)),
        Dataset(X=data.X, Y=data.Y, B=2.0),
    ]
    for other in others:
        with pytest.raises(ValueError, match="^batched datasets must share n, d and B$"):
            irls.irls_fits([data, other], IrlsConfig())


def test_irls_fits_raises_what_a_singular_tables_own_fit_raises():
    cfg = IrlsConfig(epsilon=math.inf, lam=0.0)
    good = [random_dataset(20, 3, 1.0, RngStream(37).derive(k)) for k in range(2)]
    X = good[1].X.copy()
    X[:, 1] = 0.0
    flat = Dataset(X=X, Y=good[1].Y, B=1.0)
    with pytest.raises(SingularSystemError) as single:
        irls_fit(flat, cfg)
    with pytest.raises(SingularSystemError) as batch:
        irls.irls_fits([good[0], flat, good[1]], cfg)
    assert str(batch.value) == str(single.value)


ALG2_PINS = [
    (
        lambda: benchmark_instance(5000, RngStream(71))[0],
        IrlsConfig(),
        72,
        ["-0x1.2a6c2384f8e1bp+11", "-0x1.d9c1040e61016p+9", "0x1.e1564e176d277p+13", "-0x1.60031e2d574d6p+12"],
    ),
    # recorded with OpenBLAS at 2 threads: at this n the normal equations'
    # transposed product Xt.T @ (w * Y) sums in another order with 1 thread,
    # so this pin fails under OPENBLAS_NUM_THREADS=1 (see the README's
    # determinism contract)
    (
        lambda: benchmark_instance(200_000, RngStream(81))[0],
        IrlsConfig(epsilon=math.inf),
        None,
        ["0x1.532c8aa385e0ap-3", "0x1.72028e935e35ap-2", "0x1.a91c4b7f12b2ap-9", "-0x1.f03416343204dp-2"],
    ),
    # a probe-size table: 32 weighted solves before the moves fall below tau
    (
        lambda: random_dataset(50, 3, 1.0, RngStream(95)),
        IrlsConfig(epsilon=math.inf),
        None,
        ["0x1.6c4198134c830p-5", "-0x1.63a28be1e55eap-4", "0x1.dd15a01433024p-2", "-0x1.438493965bdeep-2"],
    ),
]


@pytest.mark.parametrize("make_data, cfg, seed, pinned", ALG2_PINS, ids=["n5000", "n200000", "probe_size"])
def test_fixed_seed_fits_keep_their_bits(make_data, cfg, seed, pinned):
    release = fit_irls_private(make_data(), cfg, None if seed is None else RngStream(seed))
    assert [float(v).hex() for v in release.theta.as_vector()] == pinned


def test_irls_trace_iterates_are_one_read_only_array():
    data, _, _ = benchmark_instance(2000, RngStream(36))
    cfg = IrlsConfig(lam=0.002, e=0.2)
    trace = irls_fit(data, cfg)
    assert trace.iterations > 1
    assert trace.iterates.shape == (trace.iterations + 1, data.d + 1)
    assert not trace.iterates.flags.writeable
    with pytest.raises(ValueError):
        trace.iterates[0, 0] = 1.0
    start = weighted_ridge_solve(data, np.ones(data.n), cfg.lam).as_vector()
    assert trace.iterates[0].tobytes() == start.tobytes()
    assert trace.iterates[-1].tobytes() == trace.final.as_vector().tobytes()


def test_irls_fit_builds_no_theta(monkeypatch):
    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("built a Theta")

        @classmethod
        def from_vector(cls, omega):
            return cls(omega)

    monkeypatch.setattr(irls, "Theta", Refused)
    data, _, _ = benchmark_instance(500, RngStream(37))
    trace = irls_fit(data, IrlsConfig(lam=0.002, e=0.2))
    assert trace.iterations > 1
    with pytest.raises(AssertionError, match="built a Theta"):
        trace.final


DEGENERATE_KINDS = ["one_row", "constant_y", "saturated_y", "duplicate_columns", "wide", "zero_column"]


@st.composite
def degenerate_irls_cases(draw):
    """A small Dataset of one degenerate kind and a config that fits it."""
    kind = draw(st.sampled_from(DEGENERATE_KINDS))
    sub = RngStream(draw(st.integers(0, 2**32 - 1)))
    n = 1 if kind == "one_row" else draw(st.integers(2, 12))
    d = draw(st.integers(n + 1, n + 4)) if kind == "wide" else draw(st.integers(1, 4))
    if kind in ("duplicate_columns", "zero_column"):
        d = max(d, 2)
    B = draw(st.sampled_from([0.5, 1.0, 3.0]))
    data = random_dataset(n, d, B, sub)
    X, Y = data.X.copy(), data.Y.copy()
    if kind == "constant_y":
        Y[:] = Y[0]
    elif kind == "saturated_y":
        Y = np.where(sub.uniform_open(n) < 0.5, -B, B)
    elif kind == "duplicate_columns":
        X[:, 1] = X[:, 0]
        X = X / np.maximum(np.abs(X).sum(axis=1, keepdims=True), 1.0)
    elif kind == "zero_column":
        X[:, draw(st.integers(0, d - 1))] = 0.0
    if kind == "wide":
        lam = draw(st.sampled_from([1e-3, 0.002, 0.5]))
    elif kind == "zero_column":
        lam = 0.0
    else:
        lam = draw(st.sampled_from([0.0, 1e-3, 0.002, 0.5]))
    e = draw(st.sampled_from([0.05, 0.2]))
    return Dataset(X=X, Y=Y, B=B), IrlsConfig(epsilon=math.inf, lam=lam, e=e, max_iters=50)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=degenerate_irls_cases())
def test_irls_fit_on_degenerate_data_is_singular_or_the_reference(case):
    data, cfg = case
    try:
        trace = irls_fit(data, cfg)
    except SingularSystemError:
        with pytest.raises(SingularSystemError):
            _reference_irls(data, cfg)
        return
    _assert_is_reference(trace, data, cfg)
    for row in trace.iterates:
        assert np.all(np.isfinite(Theta.from_vector(row).as_vector()))


def test_irls_intercept_only_fixed_point():
    # a vanishing ridge pins beta at zero, leaving the pure intercept recursion
    data = Dataset(X=np.zeros((3, 1)), Y=np.array([1.0, 2.0, 9.0]), B=9.0)
    e = 0.05
    cfg = IrlsConfig(lam=1e-12, e=e, tau=1e-12, max_iters=500)
    trace = irls_fit(data, cfg)
    assert trace.converged
    mu = trace.final.mu
    assert abs(trace.final.beta[0]) < 1e-9
    # fixed point solves sum_i r_i / (|r_i| + e) = 0
    r = mu - data.Y
    assert float(np.sum(r / (np.abs(r) + e))) == pytest.approx(0.0, abs=1e-8)
    # grid minimizer of the descent-certified criterion coincides
    mus = np.linspace(1.8, 2.2, 400001)
    dev = np.abs(mus[:, None] - data.Y)
    vals = np.sum(dev - e * np.log(e + dev), axis=1)
    assert abs(mu - mus[int(np.argmin(vals))]) <= 1e-5
    # the classically displayed criterion has its minimizer nearby (at the kink)
    vals_raw = np.sum(dev - 0.5 * e * np.log(e + dev), axis=1)
    assert abs(mu - mus[int(np.argmin(vals_raw))]) <= 0.01
    assert abs(mu - 2.0) <= 0.01


def test_irls_exact_linear_noise_free(rng):
    data, beta = bounded_instance(rng, n=80, d=2, noise=1e-300)
    trace = irls_fit(data, IrlsConfig(lam=1e-10, e=1e-6, tau=1e-10, max_iters=500))
    assert trace.converged
    assert np.all(np.abs(trace.final.beta - beta) < 1e-4)
    assert float(np.abs(residuals(trace.final, data)).max()) < 1e-4


def test_irls_benchmark_converges_quickly():
    data, _, _ = benchmark_instance(5000, RngStream(7))
    cfg = IrlsConfig(lam=0.002, e=0.2, tau=1e-6, max_iters=200)
    trace = irls_fit(data, cfg)
    assert trace.converged
    assert trace.iterations < 30
    assert trace.bracket_violations == 0
    # converged means the last move was within tau in both blocks
    prev, last = (Theta.from_vector(row) for row in trace.iterates[-2:])
    assert abs(last.mu - prev.mu) <= cfg.tau
    assert float(np.abs(last.beta - prev.beta).sum()) <= cfg.tau


def test_irls_descent_and_iterate_bounds():
    root = RngStream(21)
    for rep in range(5):
        data, _, _ = benchmark_instance(5000, root.derive(rep))
        cfg = IrlsConfig(lam=0.002, e=0.2, tau=1e-6, max_iters=200)
        trace = irls_fit(data, cfg)
        thetas = [Theta.from_vector(row) for row in trace.iterates]
        vals = [perturbed_objective_le(th, data, cfg) for th in thetas]
        assert float(np.max(np.diff(vals))) <= 1e-10
        v = default_coefficient_bound(data.B, cfg.lam, cfg.e)
        reach = math.sqrt(data.d * v) + data.B
        for th in thetas:
            assert float(th.beta @ th.beta) <= v
        assert abs(trace.final.mu) <= reach


def test_irls_weights_inside_bracket_every_iteration():
    data, _, _ = benchmark_instance(2000, RngStream(3))
    cfg = IrlsConfig(lam=0.002, e=0.2)
    trace = irls_fit(data, cfg)
    assert trace.bracket_violations == 0
    v = default_coefficient_bound(data.B, cfg.lam, cfg.e)
    lo = 1.0 / (2.0 * (math.sqrt(data.d * v) + data.B) + cfg.e)
    for row in trace.iterates:
        w = 1.0 / (np.abs(residuals(Theta.from_vector(row), data)) + cfg.e)
        assert float(w.max()) <= 1.0 / cfg.e + 1e-12
        assert float(w.min()) >= lo - 1e-12


def test_default_coefficient_bound_formula():
    assert default_coefficient_bound(2.0, 0.002, 0.2) == pytest.approx(80000.0)
    # no a-priori bound exists without the ridge
    assert default_coefficient_bound(2.0, 0.0, 0.2) == math.inf
    for B, lam, e, message in (
        (0.0, 0.002, 0.2, "B must be positive and finite, got 0.0"),
        (2.0, 0.002, 0.0, "e must be positive and finite, got 0.0"),
        (2.0, -0.002, 0.2, "lam must be nonnegative and finite, got -0.002"),
        (2.0, math.nan, 0.2, "lam must be nonnegative and finite, got nan"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_coefficient_bound(B, lam, e)


def test_sensitivity_value_and_scalings():
    c = irls_sensitivity(3, 5000, 2.0, 0.002, 0.2)
    # v = 8 * 2^2 / (0.002 * 0.2) = 8e4, and the curvature term is lam
    assert c == pytest.approx(8 * (math.sqrt(3 * 8e4) + 2) / (5000 * 0.002 * 0.2), rel=1e-12)
    assert c == pytest.approx(1967.5917942265426, rel=1e-12)
    # halves when n doubles
    assert irls_sensitivity(3, 10000, 2.0, 0.002, 0.2) == pytest.approx(c / 2)
    # increases in B (and v with it) and as lam falls, decreases in n
    assert irls_sensitivity(3, 5000, 3.0, 0.002, 0.2) > c
    assert irls_sensitivity(3, 5000, 2.0, 0.001, 0.2) > c
    assert irls_sensitivity(3, 50000, 2.0, 0.002, 0.2) < c


def test_accuracy_bound_value_and_scaling():
    got = irls_accuracy_bound(3, 0.1, 5000, 0.002, 0.1, 0.2, 2.0)
    c = irls_sensitivity(3, 5000, 2.0, 0.002, 0.2)
    assert got == pytest.approx(c * 4 * math.log(4 / 0.1) / 0.1, rel=1e-12)
    assert got == pytest.approx(290328.3577522187, rel=1e-6)
    assert irls_accuracy_bound(3, 0.1, 10000, 0.002, 0.1, 0.2, 2.0) == pytest.approx(got / 2)
    with pytest.raises(ValueError):
        irls_accuracy_bound(3, 0.1, 5000, 0.002, 0.0, 0.2, 2.0)


def test_private_fit_infinite_epsilon_matches_noiseless(rng):
    data, _ = bounded_instance(rng, n=100, d=2)
    cfg = IrlsConfig(epsilon=math.inf, lam=0.01, e=0.2)
    release = fit_irls_private(data, cfg, rng)
    plain = irls_fit(data, cfg)
    assert release.theta.mu == plain.final.mu
    assert np.array_equal(release.theta.beta, plain.final.beta)
    assert np.all(release.noise == 0.0)


def test_noiseless_fit_at_zero_lambda_needs_no_v(rng):
    # no a-priori coefficient bound exists at lam = 0, and the noiseless fit needs none
    data, _ = bounded_instance(rng, n=100, d=2)
    cfg = IrlsConfig(epsilon=math.inf, lam=0.0)
    assert default_coefficient_bound(data.B, cfg.lam, cfg.e) == math.inf
    release = fit_irls_private(data, cfg, None)
    plain = irls_fit(data, cfg)
    assert plain.bracket_violations == 0
    assert release.theta.mu == plain.final.mu
    assert np.array_equal(release.theta.beta, plain.final.beta)
    assert release.noise_scale == 0.0 and np.all(release.noise == 0.0)
    assert np.all(np.isfinite(release.theta.as_vector()))


def test_private_fit_refuses_zero_lambda_before_fitting(rng, monkeypatch):
    data, _ = bounded_instance(rng, n=50, d=2)
    calls = []
    monkeypatch.setattr(irls, "irls_fit", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"^lam \(lambda\) must be positive when epsilon is finite$"):
        fit_irls_private(data, IrlsConfig(epsilon=0.1, lam=0.0), RngStream(1))
    assert calls == []


def test_private_fit_refuses_an_overflowing_sensitivity_before_fitting(rng, monkeypatch):
    # lam = 1e-320 passes the lam > 0 check, but the sensitivity constant
    # overflows; the refusal comes before the reweighted fit and the draw
    data, _ = bounded_instance(rng, n=50, d=2)
    calls = []
    monkeypatch.setattr(irls, "irls_fit", lambda *args: calls.append(args))
    stream = RngStream(1)
    with pytest.raises(ValueError, match=r"^B=.*, lam=1e-320 and e=0\.2 overflow the sensitivity constant$"):
        fit_irls_private(data, IrlsConfig(epsilon=0.1, lam=1e-320, e=0.2), stream)
    assert calls == []
    assert stream.uniform_open(1)[0] == RngStream(1).uniform_open(1)[0]


def test_private_fit_refuses_a_missing_stream_before_fitting(rng, monkeypatch):
    data, _ = bounded_instance(rng, n=50, d=2)
    calls = []
    monkeypatch.setattr(irls, "irls_fit", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="^a finite epsilon needs an RngStream"):
        fit_irls_private(data, IrlsConfig(), None)
    assert calls == []


def test_private_fit_noise_is_read_only(rng):
    data, _ = bounded_instance(rng, n=50, d=2)
    for epsilon in (0.1, math.inf):
        release = fit_irls_private(data, IrlsConfig(epsilon=epsilon, lam=0.01, e=0.2), RngStream(4))
        assert not release.noise.flags.writeable
        with pytest.raises(ValueError):
            release.noise[0] = 1.0


def test_private_fit_noise_metadata(rng):
    data, _ = bounded_instance(rng, n=100, d=2)
    cfg = IrlsConfig(epsilon=0.5, lam=0.01, e=0.2)
    release = fit_irls_private(data, cfg, RngStream(5))
    assert release.noise_scale == irls_sensitivity(2, 100, data.B, 0.01, 0.2) / 0.5
    trace = irls_fit(data, cfg)
    assert release.solver_iters == trace.iterations
    delta = release.theta.as_vector() - trace.final.as_vector()
    assert np.allclose(delta, release.noise)


def test_sensitivity_probe_dominated_and_scales(rng):
    cfg = IrlsConfig(lam=0.002, e=0.2)
    r50 = irls_sensitivity_probe(50, 3, 150, cfg, RngStream(5))
    assert r50.ok
    assert r50.observed > 0
    r100 = irls_sensitivity_probe(100, 3, 150, cfg, RngStream(6))
    assert r100.ok
    # one-record influence decays like 1/n
    ratio = r50.observed / r100.observed
    assert 1.2 <= ratio <= 3.0


def test_probe_identical_data_gives_identical_fits(rng):
    data, _ = bounded_instance(rng, n=50, d=3)
    cfg = IrlsConfig(lam=0.002, e=0.2)
    a = irls_fit(data, cfg).final
    b = irls_fit(data, cfg).final
    assert a.mu == b.mu and np.array_equal(a.beta, b.beta)


def test_irls_limit_matches_smoothed_baseline(rng):
    # both solvers approximate the same L1 minimizer on sharp-noise data
    worst = 0.0
    for t in range(8):
        sub = rng.derive(3, t)
        X = sub.uniforms(-0.5, 0.5, 200 * 3).reshape(200, 3)
        X = X / max(float(np.abs(X).sum(axis=1).max()), 1.0)
        beta = np.array([0.8, -0.5, 0.3])
        Y = X @ beta + sub.laplaces(0.05, 200)
        B = max(2.0, float(np.abs(Y).max()) + 0.1)
        data = Dataset(X=X, Y=Y, B=B)
        lam = 1e-3
        ti = irls_fit(data, IrlsConfig(lam=lam, e=1e-4, tau=1e-10, max_iters=2000))
        assert ti.converged
        ts = smoothed_baseline(data, SmoothingConfig(lam=lam, gamma=1e-3))
        diff = abs(ti.final.mu - ts.mu) + float(np.abs(ti.final.beta - ts.beta).sum())
        worst = max(worst, diff)
    assert worst <= 1e-2


def test_config_validation():
    with pytest.raises(ValueError):
        IrlsConfig(e=0.0)
    for count in (2.5, True, 0):
        with pytest.raises(ValueError, match=f"^max_iters must be a positive integer, got {count!r}$"):
            IrlsConfig(max_iters=count)
    with pytest.raises(ValueError):
        IrlsConfig(tau=-1.0)
    with pytest.raises(ValueError):
        irls_sensitivity(3, 5000, 2.0, 0.0, 0.2)
    # v = 8 B^2 / (lam e) overflows to inf, so the curvature term would be 0
    with pytest.raises(ValueError, match="overflow"):
        irls_sensitivity(3, 400, 2.0, 1e-320, 0.2)
    with pytest.raises(ValueError, match="overflow"):
        irls_sensitivity(3, 400, 1e200, 0.002, 0.2)


# NaN and both infinities; epsilon alone may be +inf (the noiseless mode)
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("knob", ["lam", "e", "tau"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_config_refuses_non_finite_knobs(knob, value):
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        IrlsConfig(**{knob: value})
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        IrlsConfig(epsilon=math.inf, **{knob: value})
    assert IrlsConfig(epsilon=math.inf).epsilon == math.inf
