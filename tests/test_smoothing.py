import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpmedreg import (
    ConvergenceError,
    Dataset,
    RngStream,
    SmoothingConfig,
    Theta,
    fit_smoothed_private,
    smoothed_gradient,
    smoothed_program,
    smoothing_accuracy_bound,
)
from dpmedreg.verification import random_dataset
from dpmedreg import model, smoothing

from conftest import benchmark_instance, bounded_instance, smoothed_baseline, traced_peak


def test_baseline_intercept_only_matches_1d_grid():
    # replicate the (1, 2, 9) pattern so the intercept damping term is small
    reps = 100
    Y = np.tile([1.0, 2.0, 9.0], reps)
    data = Dataset(X=np.zeros((3 * reps, 1)), Y=Y, B=9.0)
    cfg = SmoothingConfig(lam=0.0, gamma=1e-4)
    theta = smoothed_baseline(data, cfg)
    assert abs(theta.mu - 2.0) <= 0.05
    # 1-d grid oracle over mu of the same program
    mus = np.linspace(1.8, 2.2, 40001)
    vals = [smoothed_program(Theta(m, np.zeros(1)), data, cfg, np.zeros(2)) for m in mus]
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


@pytest.mark.filterwarnings("error")
def test_private_fit_refuses_an_epsilon_whose_tilt_overflows_the_solve():
    # 4/epsilon is finite at each of these, but the tilt overflowed inside the
    # Newton solve under float warnings and then failed without naming epsilon
    data, _, _ = benchmark_instance(200, RngStream(4))
    for epsilon in (1e-300, 1e-200, 1e-155):
        with pytest.raises(ValueError, match=f"^epsilon={epsilon} overflows the smoothed fit"):
            fit_smoothed_private(data, SmoothingConfig(epsilon=epsilon), RngStream(2))
    release = fit_smoothed_private(data, SmoothingConfig(epsilon=1e-150), RngStream(2))
    assert np.all(np.isfinite(release.theta.as_vector()))


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
        omega, iters, grad_norm = smoothing._minimize_smoothed(data, cfg.lam, cfg.gamma, release.noise / data.n)
        assert omega.tobytes() == release.theta.as_vector().tobytes()
        assert release.solver_iters == iters and release.noise_scale == 4.0 / cfg.epsilon
        assert grad_norm <= smoothing._TOL
        # the public gradient is the vector the solver tested, bit for bit
        g = smoothed_gradient(release.theta, data, cfg, release.noise)
        assert float(np.abs(g).max()).hex() == grad_norm.hex()
        dist = abs(base.mu - release.theta.mu) + float(
            np.abs(base.beta - release.theta.beta).sum()
        )
        bound = float(np.abs(release.noise).sum()) / (data.n * min(cfg.lam, 2.0 / math.sqrt(data.n)))
        assert dist <= bound
        # optimality certificate for the tilted program
        assert smoothed_program(release.theta, data, cfg, release.noise) <= (
            smoothed_program(base, data, cfg, release.noise) + 1e-10
        )


def test_private_fit_full_gradient_small(rng):
    data, _ = bounded_instance(rng, n=300, d=3)
    cfg = SmoothingConfig(epsilon=0.2, lam=0.01, gamma=0.05)
    release = fit_smoothed_private(data, cfg, rng)
    # the tilted gradient at the solution
    full = smoothed_gradient(release.theta, data, cfg, release.noise)
    assert float(np.abs(full).max()) <= smoothing._TOL


@pytest.mark.parametrize("size", [1, 3, 5])
def test_program_and_gradient_refuse_a_tilt_of_another_shape(size):
    # d = 3 takes a tilt of shape (4,); a length-1 tilt used to be broadcast
    # into every coordinate
    data = random_dataset(20, 3, 1.0, RngStream(5).derive(0))
    theta, cfg = Theta(0.1, np.array([0.2, -0.3, 0.4])), SmoothingConfig()
    for fn in (smoothed_gradient, smoothed_program):
        with pytest.raises(ValueError, match=rf"^b must have shape \(4,\), got \({size},\)$"):
            fn(theta, data, cfg, np.ones(size))
    assert smoothed_gradient(theta, data, cfg, np.ones(4)).shape == (4,)


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
    full = smoothed_gradient(theta, flat, cfg, np.zeros(flat.d + 1))
    assert float(np.abs(full).max()) <= smoothing._TOL


def test_nonconvergence_carries_last_iterate(rng, monkeypatch):
    # the step cap and tolerance are module constants, read on every fit
    data, _ = bounded_instance(rng, n=40, d=2)
    monkeypatch.setattr(smoothing, "_MAX_ITERS", 1)
    monkeypatch.setattr(smoothing, "_TOL", 1e-14)
    with pytest.raises(ConvergenceError) as info:
        smoothed_baseline(data, SmoothingConfig(lam=0.0, gamma=1e-4))
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
    with pytest.raises(ValueError):
        SmoothingConfig(lam=-0.1)
    with pytest.raises(ValueError):
        SmoothingConfig(epsilon=0.0)


# NaN and both infinities; epsilon alone may be +inf (the noiseless mode)
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("knob", ["lam", "gamma"])
@pytest.mark.parametrize("value", NON_FINITE)
def test_config_refuses_non_finite_knobs(knob, value):
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        SmoothingConfig(**{knob: value})
    with pytest.raises(ValueError, match=f"^{knob} must be"):
        SmoothingConfig(epsilon=math.inf, **{knob: value})
    assert SmoothingConfig(epsilon=math.inf).epsilon == math.inf


def test_band_signs_thresholds():
    # the solver's band signs, as floats
    s = smoothing._band_signs(np.array([-0.1, 0.02, 0.3]), 0.05)
    assert s.tolist() == [-1.0, 0.0, 1.0]
    # boundary inclusive
    assert smoothing._band_signs(np.array([0.05, -0.05]), 0.05).tolist() == [0.0, 0.0]


def test_band_signs_match_elementwise_oracle(rng):
    r = rng.uniforms(-1, 1, 500)
    gamma = 0.2
    s = smoothing._band_signs(r, gamma)
    for i in range(500):
        if r[i] < -gamma:
            assert s[i] == -1
        elif r[i] > gamma:
            assert s[i] == 1
        else:
            assert s[i] == 0


def _full_sort_line_search(r, s, delta, gamma, n, q1, q2):
    """The exact line search with every breakpoint stable-sorted: the
    reference the solver's prefix-sorting line search must match bit for
    bit."""
    inband = s == 0.0
    A0 = float(np.where(inband, r * delta / gamma, s * delta).sum()) / n + q1
    B0 = float(np.where(inband, delta * delta / gamma, 0.0).sum()) / n + q2
    if A0 >= 0.0:
        return 0.0

    d_pos = delta > 0
    d_neg = delta < 0
    below = s < 0.0
    above = s > 0.0
    ent_mask = (d_pos & below) | (d_neg & above)
    ex_mask = (d_pos & ~above) | (d_neg & ~below)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent_t = np.where(d_pos, -gamma - r, gamma - r) / np.where(delta == 0, 1.0, delta)
        ex_t = np.where(d_pos, gamma - r, -gamma - r) / np.where(delta == 0, 1.0, delta)

    sgn = np.sign(delta)
    ent_dA = (r * delta / gamma + sgn * delta) / n
    ent_dB = (delta * delta / gamma) / n
    ex_dA = (sgn * delta - r * delta / gamma) / n
    ex_dB = -(delta * delta / gamma) / n

    alphas = np.concatenate([ent_t[ent_mask], ex_t[ex_mask]])
    dA = np.concatenate([ent_dA[ent_mask], ex_dA[ex_mask]])
    dB = np.concatenate([ent_dB[ent_mask], ex_dB[ex_mask]])
    keep = alphas >= 0.0
    alphas, dA, dB = alphas[keep], dA[keep], dB[keep]

    if alphas.size:
        order = np.argsort(alphas, kind="stable")
        alphas = alphas[order]
        A_seg = A0 + np.cumsum(dA[order])
        B_seg = B0 + np.cumsum(dB[order])
        starts = np.concatenate([[A0], A_seg[:-1]])
        curves = np.concatenate([[B0], B_seg[:-1]])
        slope_end = starts + curves * alphas
        hit = np.flatnonzero(slope_end >= 0.0)
        if hit.size:
            j = int(hit[0])
            if starts[j] < 0.0:
                return float(-starts[j] / curves[j])
            return float(alphas[j - 1]) if j > 0 else 0.0
        A_tail, B_tail = float(A_seg[-1]), float(B_seg[-1])
        lo = float(alphas[-1])
    else:
        A_tail, B_tail, lo = A0, B0, 0.0
    if B_tail <= 0.0:
        raise FloatingPointError("objective is unbounded along the search direction")
    return max(float(-A_tail / B_tail), lo)


def _outcome(search, args):
    try:
        return search(*args)
    except FloatingPointError as exc:
        return type(exc), str(exc)


# the solver's root bracket share as it stands, and 0, which puts every
# search through the bracket
BRACKET_SHARES = (smoothing._BRACKET_SHARE, 0.0)


def _assert_same_as_full_sort(args):
    """The solver's line search returns the reference's float, sign of zero
    included, or raises the same error, with and without its root bracket;
    returns that outcome."""
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(_full_sort_line_search, args)
        for share in BRACKET_SHARES:
            with mock.patch.object(smoothing, "_BRACKET_SHARE", share):
                got = _outcome(smoothing._exact_line_search, args)
            if isinstance(want, float):
                assert type(got) is float and got.hex() == want.hex()
            else:
                assert got == want
    return got


def _spied_search(args, share=0.0):
    """(bounds, prefixes) of the solver's line search of ``args`` at the
    root bracket share ``share`` (0 puts it through the bracket): the bounds
    :func:`smoothing._root_bracket` gave, none where the share skips it, and
    the number of prefixes sorted."""
    bounds, prefixes = [], []
    bracket, sorted_rows = smoothing._root_bracket, smoothing._sorted_rows

    def bracket_spy(*a):
        bounds.append(bracket(*a))
        return bounds[-1]

    def sorted_rows_spy(*a):
        prefixes.append(a[1:])
        return sorted_rows(*a)

    with mock.patch.object(smoothing, "_BRACKET_SHARE", share), np.errstate(over="ignore", invalid="ignore"):
        with mock.patch.object(smoothing, "_root_bracket", bracket_spy):
            with mock.patch.object(smoothing, "_sorted_rows", sorted_rows_spy):
                smoothing._exact_line_search(*args)
    return bounds, len(prefixes)


def _prefixes(args):
    """The number of prefixes the solver's line search of ``args`` sorts, the
    same with and without its root bracket."""
    (count,) = {_spied_search(args, share)[1] for share in BRACKET_SHARES}
    return count


def _line_search_args(r, delta, q1, q2, gamma=1.0):
    r, delta = np.asarray(r, dtype=float), np.asarray(delta, dtype=float)
    return r, smoothing._band_signs(r, gamma), delta, gamma, r.size, q1, q2


def test_line_search_matches_full_sort_on_named_cases():
    def same(*args):
        return _assert_same_as_full_sort(_line_search_args(*args))

    # eight samples enter the band at alpha = 1 and four exit it together
    assert 0.0 < same([-2] * 4 + [2] * 4 + [0] * 4, [1] * 4 + [-1] * 4 + [0.5] * 4, -0.5, 0.1)
    # residuals exactly on the band edges count as in the band; two exit at 0
    assert same([1, -1, 1, -1, 0.5], [1, 1, -1, -1, 0.25], -0.5, 0.0) > 0.0
    # samples with delta = 0 never cross
    assert same([-3, 0, 3, 0.5, -0.5], [0, 0, 0, 1, -1], -0.25, 0.0) > 0.0
    # the slope reaches zero exactly at the exit breakpoint alpha = 1
    assert same([0], [1], -1.0, 0.0) == 1.0
    # the root lies past the last breakpoint (1), on the outside slope
    assert same([0], [1], -3.0, 1.0) == 2.0
    # the root (60) lies before the first breakpoint (150)
    assert same([-0.5], [0.01], -0.001, 0.0) < 150.0
    # phi'(0) >= 0: no step
    assert same([0.5], [1], 0.0, 0.0) == 0.0
    # unbounded rays, with and without a breakpoint before the flat tail
    for r, delta, q1 in (([0], [1], -5.0), ([2], [0], -1.0)):
        assert same(r, delta, q1, 0.0) == (
            FloatingPointError,
            "objective is unbounded along the search direction",
        )


def test_line_search_grows_its_prefix_when_the_hint_undercounts():
    # 200 samples enter the band at alphas t = 2, 2.25, ... and exit it at
    # t + 2, none at or below 1, and the root lies past more breakpoints than
    # the first three prefixes hold (1, 8 and 64 rows), so a fourth is sorted
    t = 2.0 + 0.25 * np.arange(200)
    args = _line_search_args(-1.0 - t, np.ones(200), 0.0, 0.0)
    alpha = _assert_same_as_full_sort(args)
    assert np.count_nonzero(t <= 1.0) == 0
    assert np.count_nonzero(t < alpha) + np.count_nonzero(t + 2.0 < alpha) > 1 + 8 + 64
    assert _prefixes(args) == 4


# Searches put through the root bracket, each returning the full sort's float:
# - at a breakpoint: two in-band samples exit the band at 0.5, where phi' is
#   exactly 0, and two enter it at 0.8 and 3;
# - inside a segment: the same samples, with the root at 0.6 and the bound
#   below 0.8, so the first prefix must reach past the bound to hold the
#   root's segment;
# - past the last breakpoint: all three samples exit the band below the root
#   2/3, and phi'(1) > 0, so the bound lies past them all;
# - past one: phi'(1) < 0 (the root is 8.5), so the bound is the Newton
#   step 1 and the root lies past the first prefix, which grows once.
BRACKET_SEARCHES = {
    "root_at_a_breakpoint": (([0, 0, -2.6, -4], [2, 2, 2, 1], -0.75, 1.0), 0.5),
    "root_inside_a_segment": (([0, 0, -2.6, -4], [2, 2, 2, 1], -0.85, 1.0), 0.6),
    "root_past_the_last_breakpoint": (([0, 0.5, -0.5], [4, 4, -8], -8.0, 4.0), 2 / 3),
    "root_past_one": (([0, 0, -2, 0.5], [2, 2, 1, -1], -10.0, 1.0), 8.5),
}


@pytest.mark.parametrize("name", list(BRACKET_SEARCHES))
def test_line_search_brackets_the_root_on_named_cases(name):
    case, root = BRACKET_SEARCHES[name]
    args = _line_search_args(*case)
    assert _assert_same_as_full_sort(args) == pytest.approx(root, rel=1e-14)
    (bound,), prefixes = _spied_search(args)
    if name == "root_past_one":
        assert bound == 1.0 and prefixes == _prefixes(args) == 2
    else:
        # one prefix: the first one holds the root's segment
        assert root <= bound <= 1.0 and prefixes == 1


def test_line_search_bracket_raises_nothing_under_the_fit_errstate():
    # |delta| near 1.34e154, the largest whose square is finite: the search
    # runs under the fit's errstate, where a floating-point error is a
    # ConvergenceError, and its bracket must raise none the search does not
    r = 1e154 * np.array([-0.5, -0.25, 0.3, 0.6, -0.9, 0.1])
    delta = 1.3e154 * np.array([1.0, 1.0, -1.0, -1.0, 1.0, 0.5])
    args = _line_search_args(r, delta, -1e153, 0.0)
    want = _assert_same_as_full_sort(args)
    assert _spied_search(args)[0][0] < 1.0
    with np.errstate(over="raise", invalid="raise"), mock.patch.object(smoothing, "_BRACKET_SHARE", 0.0):
        assert smoothing._exact_line_search(*args).hex() == want.hex()


# residual and direction values on a grid make ties and exact band edges
# common; the scaled directions put the breakpoints far past alpha = 1
_GRID = st.sampled_from([-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
_DIRECTIONS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])


@st.composite
def line_search_inputs(draw):
    gamma = draw(st.sampled_from([0.05, 0.25, 1.0]))
    m = draw(st.integers(1, 60))
    r = gamma * np.array(draw(st.lists(st.one_of(_GRID, st.floats(-4, 4)), min_size=m, max_size=m)))
    steps = draw(st.lists(st.one_of(_DIRECTIONS, st.floats(-2, 2)), min_size=m, max_size=m))
    delta = draw(st.sampled_from([1.0, 1 / 64, 64.0])) * np.array(steps)
    q1 = draw(st.one_of(st.sampled_from([-1.0, 0.0]), st.floats(-4, 1)))
    q2 = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    return _line_search_args(r, delta, q1, q2, gamma)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=line_search_inputs())
def test_line_search_matches_full_sort(args):
    _assert_same_as_full_sort(args)


# the scan's block size changes only how many increments are built at a
# time: at blocks of 1 and 2 every carry and almost every run of ties crosses
# a block boundary, and the result is the same
@pytest.mark.parametrize("block", [1, 2])
@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=line_search_inputs())
def test_line_search_matches_full_sort_in_small_blocks(block, args):
    with mock.patch.object(smoothing, "_SCAN_BLOCK", block):
        _assert_same_as_full_sort(args)


def _ties_reversed(alphas, lo, hi):
    """The solver's prefix order with every run of ties in descending row order."""
    rows = np.flatnonzero((alphas > lo) & (alphas <= hi))
    rows = rows[np.lexsort((-rows, alphas[rows]))]
    return rows, alphas[rows]


# The first prefix ends at a run of tied breakpoints, the first past alpha =
# 1, and the root lies past it, so a second prefix is sorted; blocks of 1
# and 2 split the runs.  The order within the runs changes the result, so
# only the stable order passes.
TIED_SEARCHES = {
    # four samples on the band edges exit at -0.0, -0.0, 0.0 and 0.0, and two
    # enter together at alpha = 2, the fifth smallest breakpoint
    "signed_zeros": (
        [-0.25, -0.25, 0.25, 0.25, -2.25, 0.75],
        [-0.1, -0.7, 0.7, 1.0, 1.0, -0.25],
        -1.0,
        0.01,
        0.25,
    ),
    # the first sample enters and exits the band at alpha = inf (its distance
    # over its step overflows), after two that enter together at alpha = 2
    "infinite": ([-1e300, -3.0, -3.0], [1e-10, 1.0, 1.0], -1.0, 0.0, 1.0),
}


@pytest.mark.parametrize("block", [1, 2, smoothing._SCAN_BLOCK])
@pytest.mark.parametrize("name", list(TIED_SEARCHES))
def test_line_search_keeps_the_stable_order_of_tied_breakpoints(name, block):
    args = _line_search_args(*TIED_SEARCHES[name])
    assert _prefixes(args) == 2
    with mock.patch.object(smoothing, "_SCAN_BLOCK", block):
        got = _assert_same_as_full_sort(args)
        for share in BRACKET_SHARES:
            with mock.patch.object(smoothing, "_sorted_rows", _ties_reversed):
                with mock.patch.object(smoothing, "_BRACKET_SHARE", share):
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert repr(_outcome(smoothing._exact_line_search, args)) != repr(got)


def test_sorted_rows_is_the_stable_order():
    # distinct alphas, and tied ones with signed zeros and infinities among
    # them, on which numpy's default sort can break ties out of row order
    perm = RngStream(3).permutation(4000)
    for alphas in (perm / 7.0, np.repeat([-0.0, 0.0, 0.5, 2.0, math.inf], 800)[perm]):
        for lo, hi in ((-math.inf, math.inf), (0.0, 2.0), (-1.0, 0.5)):
            rows, keys = smoothing._sorted_rows(alphas, lo, hi)
            want = np.flatnonzero((alphas > lo) & (alphas <= hi))
            want = want[np.argsort(alphas[want], kind="stable")]
            assert np.array_equal(rows, want)
            assert keys.tobytes() == alphas[want].tobytes()


def test_fit_memory_stays_within_budget():
    # the n = 2e5 pin's fit, traced above its input: 19.3 MB, set by the
    # pseudo-Hessian's assembly once each crossing is read off one sign
    # product; 20.0 MB when four direction/band masks set the first line
    # search's peak above it, 22.8 MB when the first prefix held every
    # breakpoint at or below alpha = 1, 45.8 MB when the increments were
    # built for every crossing sample
    make_data, cfg, seed, pinned = ALG1_PINS[1]
    data = make_data()
    release, peak = traced_peak(fit_smoothed_private, data, cfg, RngStream(seed))
    # the pin holds for the thread count it was recorded at (see ALG1_PINS)
    assert [float(v).hex() for v in release.theta.as_vector()] == pinned
    assert peak < 30e6


def test_line_search_set_up_holds_one_sign_product():
    # the n = 2e5 pin fit's second line search, traced above its arguments:
    # 5.46 MB with each crossing read off the one product s delta, 6.46 MB
    # with four direction/band masks and their combinations
    make_data, cfg, seed, _ = ALG1_PINS[1]
    exact_line_search = smoothing._exact_line_search
    peaks = []

    def traced_line_search(*args):
        alpha, peak = traced_peak(exact_line_search, *args)
        peaks.append(peak)
        return alpha

    with mock.patch.object(smoothing, "_exact_line_search", traced_line_search):
        fit_smoothed_private(make_data(), cfg, RngStream(seed))
    assert len(peaks) >= 2
    assert peaks[1] < 6.0e6


def _tied_table():
    X = np.tile([[0.0, 0.25], [0.25, -0.25], [-0.5, 0.0], [0.25, 0.25]], (15, 1))
    Y = np.tile([0.5, -0.5, 0.0, 1.0, 0.5, -1.0], 10)
    return Dataset(X=X, Y=Y, B=1.0)


# float.hex of alg1's theta = (mu, beta) on three fixed-seed fits, as the
# full-sort line search gave them; a faster solver must keep these bits
ALG1_PINS = [
    (
        lambda: benchmark_instance(5000, RngStream(11))[0],
        SmoothingConfig(),
        12,
        ["0x1.a418c6be21dcap-3", "0x1.6b644d5483632p-2", "-0x1.0d376281e8872p-5", "-0x1.1dc81d0a34b4fp-1"],
    ),
    # recorded with OpenBLAS at 2 threads: at this n the gradient's
    # transposed product Xt.T @ v sums in another order with 1 thread, so
    # this pin fails under OPENBLAS_NUM_THREADS=1 (see the README's
    # determinism contract)
    (
        lambda: benchmark_instance(200_000, RngStream(21))[0],
        SmoothingConfig(),
        22,
        ["0x1.3f4f577dcb626p-3", "0x1.5a833faf46a3fp-2", "-0x1.059451f021525p-7", "-0x1.d29698c82a222p-2"],
    ),
    # 60 rows of 4 distinct predictors: many residuals start on the band edges
    # and their breakpoints tie
    (
        _tied_table,
        SmoothingConfig(gamma=0.5, lam=0.05),
        31,
        ["-0x1.67ba96a84d162p+1", "0x1.9dd8f44f45e1ap+3", "-0x1.586a2f15ee2b4p+1"],
    ),
]


@pytest.mark.parametrize("make_data, cfg, seed, pinned", ALG1_PINS, ids=["n5000", "n200000", "tied"])
def test_fixed_seed_fits_keep_their_bits(make_data, cfg, seed, pinned):
    release = fit_smoothed_private(make_data(), cfg, RngStream(seed))
    assert [float(v).hex() for v in release.theta.as_vector()] == pinned


@pytest.mark.parametrize("make_data, cfg, seed, pinned", ALG1_PINS[:2], ids=["n5000", "n200000"])
def test_line_search_sorts_little_more_than_the_breakpoints_below_its_roots(make_data, cfg, seed, pinned):
    # over a fit's line searches, the rows stable-sorted against the
    # breakpoints at or below each search's returned alpha: 1.03 and 1.00
    # (2982 / 2887 and 118459 / 118241) with every first prefix ending at
    # the first breakpoint past the root's bracket or the Newton step; 1.05
    # and 1.00 when a prefix the bracket did not set ended 16 breakpoints
    # past those at or below alpha = 1; 2.00 and 2.07 when every first
    # prefix did
    sorted_rows, exact_line_search = smoothing._sorted_rows, smoothing._exact_line_search
    count = {"sorted": 0, "below": 0}
    seen = {}

    def counting_sorted_rows(alphas, lo, hi):
        seen["alphas"] = alphas
        rows, ordered = sorted_rows(alphas, lo, hi)
        count["sorted"] += rows.size
        return rows, ordered

    def counting_line_search(*args):
        seen.clear()
        alpha = exact_line_search(*args)
        if seen:
            count["below"] += int(np.count_nonzero(seen["alphas"] <= alpha))
        return alpha

    with mock.patch.object(smoothing, "_sorted_rows", counting_sorted_rows):
        with mock.patch.object(smoothing, "_exact_line_search", counting_line_search):
            fit_smoothed_private(make_data(), cfg, RngStream(seed))
    assert count["below"] > 0
    assert count["sorted"] <= 1.25 * count["below"]


ALG1_KINDS = ["one_row", "wide", "constant_y", "saturated_y", "zero_column", "duplicate_columns"]


@st.composite
def degenerate_alg1_cases(draw):
    """A small Dataset of one degenerate kind, a config, a stream seed and a
    Newton step cap."""
    kind = draw(st.sampled_from(ALG1_KINDS))
    seed = draw(st.integers(0, 2**32 - 1))
    sub = RngStream(seed).derive(0)
    n = 1 if kind == "one_row" else draw(st.integers(2, 40))
    d = draw(st.integers(n + 1, n + 4)) if kind == "wide" else draw(st.integers(2, 4))
    B = draw(st.sampled_from([0.5, 1.0, 3.0]))
    data = random_dataset(n, d, B, sub)
    X, Y = data.X.copy(), data.Y.copy()
    if kind == "constant_y":
        Y[:] = Y[0]
    elif kind == "saturated_y":
        Y = np.where(sub.uniform_open(n) < 0.5, -B, B)
    elif kind == "zero_column":
        X[:, draw(st.integers(0, d - 1))] = 0.0
    elif kind == "duplicate_columns":
        X[:, 1] = X[:, 0]
        X = X / np.maximum(np.abs(X).sum(axis=1, keepdims=True), 1.0)
    epsilon, lam = draw(st.sampled_from([(math.inf, 0.0), (math.inf, 0.002), (0.1, 0.002), (0.1, 0.0)]))
    cfg = SmoothingConfig(epsilon=epsilon, lam=lam, gamma=draw(st.sampled_from([0.05, 0.5])))
    return Dataset(X=X, Y=Y, B=B), cfg, seed, draw(st.sampled_from([2, 500]))


# alg1 on degenerate input (all-in-band and all-tied line searches among
# them) gives a finite, stationary release or a typed error: lam = 0 at a
# finite epsilon is a ValueError, and a solver that runs out of Newton steps
# carries its last iterate
@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=degenerate_alg1_cases())
def test_fit_on_degenerate_data_is_finite_or_a_typed_error(case):
    data, cfg, seed, max_iters = case
    try:
        # the solver's step cap, set here for this example only
        with mock.patch.object(smoothing, "_MAX_ITERS", max_iters):
            release = fit_smoothed_private(data, cfg, RngStream(seed).derive(1))
    except ValueError as exc:
        assert cfg.lam == 0 and math.isfinite(cfg.epsilon), exc
        return
    except ConvergenceError as exc:
        assert isinstance(exc.last_theta, Theta) and exc.last_theta.beta.shape == (data.d,)
        assert 0 <= exc.iters <= max_iters
        return
    assert np.all(np.isfinite(release.theta.as_vector()))
    assert release.noise.shape == (data.d + 1,)
    assert 0 <= release.solver_iters <= max_iters
    assert float(np.abs(smoothed_gradient(release.theta, data, cfg, release.noise)).max()) <= smoothing._TOL
    if math.isinf(cfg.epsilon):
        assert release.noise_scale == 0.0 and np.all(release.noise == 0.0)
