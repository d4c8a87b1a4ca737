import math
import re
import warnings

import numpy as np
import pytest

from dpmedreg import (
    RngStream,
    gamma_tail_bound,
    sample_l1_perturbation,
)

STREAMS = [(0, (0,)), (7, (3,)), (20240901, (1, 5)), (2**40 + 3, (2, 9, 4))]


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def _twin(seed, path):
    """The stream as a bare numpy Generator, built the documented way."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=path)
    return np.random.Generator(np.random.PCG64(ss))


def test_stream_replay_is_bit_identical():
    a = RngStream(123, stream=4).laplaces(1.0, 1000)
    b = RngStream(123, stream=4).laplaces(1.0, 1000)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = RngStream(123, stream=0).uniform_open(100)
    b = RngStream(123, stream=1).uniform_open(100)
    assert not np.array_equal(a, b)
    c = RngStream(123).derive(7).uniform_open(100)
    d = RngStream(123).derive(8).uniform_open(100)
    assert not np.array_equal(c, d)
    assert np.array_equal(c, RngStream(123).derive(7).uniform_open(100))


@pytest.mark.parametrize("seed,path", STREAMS)
def test_uniform_open_is_top_53_bits_of_the_documented_stream(seed, path):
    # the same stream Generator.integers(0, 2**53) gives, with the other
    # draws interleaved so the shared state must advance identically; the
    # state check after each draw pins one raw output per uniform, at a
    # large count (65 536) too
    rng = RngStream(seed, path[0]).derive(*path[1:])
    twin = _twin(seed, path)
    for k in (1, 7, 100_000, 1, 65_536, 7):
        ref = (twin.integers(0, 2**53, size=k, dtype=np.int64) + 0.5) / 2.0**53
        assert _same_bits(rng.uniform_open(k), ref)
        assert rng._gen.bit_generator.state == twin.bit_generator.state
        assert rng.integer(-3, 1000) == int(twin.integers(-3, 1000))
        assert np.array_equal(rng.permutation(11), twin.permutation(11))
        u = (twin.integers(0, 2**53, size=5, dtype=np.int64) + 0.5) / 2.0**53 - 0.5
        ref = -0.7 * np.sign(u) * np.log1p(-2.0 * np.abs(u))
        assert _same_bits(rng.laplaces(0.7, 5), ref)


def test_stream_repr_names_its_seed_and_stream():
    assert repr(RngStream(7, stream=3)) == "RngStream(seed=7, stream=3)"
    assert repr(RngStream(7).derive(2, 5)) == "RngStream(seed=7, stream=(0, 2, 5))"


def test_derive_paths_compose():
    # derive(1, i), derive(1).derive(i) and the documented stream on the same
    # path agree
    for seed in (0, 5, 123456789):
        root = RngStream(seed)
        for i in (0, 1, 99_999):
            a, b, twin = root.derive(1, i), root.derive(1).derive(i), _twin(seed, (0, 1, i))
            assert a.stream == b.stream == (0, 1, i)
            ref = (twin.integers(0, 2**53, size=9, dtype=np.int64) + 0.5) / 2.0**53
            assert _same_bits(a.uniform_open(9), ref) and _same_bits(b.uniform_open(9), ref)
            assert a.integer(0, 10**9) == b.integer(0, 10**9) == int(twin.integers(0, 10**9))


def test_numpy_integer_seeds_and_stream_ids_name_the_same_stream():
    a = RngStream(np.int64(3), np.uint8(1)).derive(np.int32(2))
    b = RngStream(3, 1).derive(2)
    assert a.seed == 3 and a.stream == b.stream == (1, 2)
    assert _same_bits(a.uniform_open(5), b.uniform_open(5))


@pytest.mark.parametrize("dim", [1, 2, 4, 9, 17])
def test_l1_perturbation_matches_reference_formula(dim):
    # the draw as a plain numpy computation on the documented stream: dim
    # Laplaces of scale 4/eps
    for seed, path in STREAMS:
        rng = RngStream(seed, path[0]).derive(*path[1:])
        twin = _twin(seed, path)
        for eps in (0.1, 3.0):
            u = (twin.integers(0, 2**53, size=dim, dtype=np.int64) + 0.5) / 2.0**53 - 0.5
            expected = -(4.0 / eps) * np.sign(u) * np.log1p(-2.0 * np.abs(u))
            assert _same_bits(sample_l1_perturbation(dim, eps, rng), expected)


def test_batched_perturbations_validation():
    # a block of rows is one draw of dim * rows values (as the sampler probe
    # draws it); it refuses a bad dim or epsilon exactly as one row does
    for dim, eps in ((0, 1.0), (4, 0.0), (4, -1.0), (4, math.inf), (4, math.nan), (4, 1e-320)):
        with pytest.raises(ValueError) as single:
            sample_l1_perturbation(dim, eps, RngStream(0))
        with pytest.raises(ValueError) as batch:
            sample_l1_perturbation(dim * 10, eps, RngStream(0))
        assert str(batch.value) == str(single.value)
    for count in (2.5, True, 0, -1):
        with pytest.raises(ValueError, match=f"^dim must be a positive integer, got {count!r}$"):
            sample_l1_perturbation(count, 1.0, RngStream(0))


def test_uniform_open_strictly_interior():
    u = RngStream(0).uniform_open(100_000)
    assert u.min() > 0.0
    assert u.max() < 1.0


class _EdgeCells:
    """A generator whose ``random`` gives cells 0, 2**52 - 1, 2**52 and
    2**53 - 1 of the 2**-53 lattice, the ends of both rounding regimes."""

    def random(self, k):
        assert k == 4
        return np.array([0, 2**52 - 1, 2**52, 2**53 - 1], dtype=float) * 2.0**-53


def test_uniform_open_edge_cells_stay_inside_the_stated_interval():
    # the top cell's midpoint rounds to 1.0, where a Laplace draw is infinite
    rng = RngStream(0)
    rng._gen = _EdgeCells()
    u = rng.uniform_open(4)
    assert _same_bits(u, [2.0**-54, 0.5 - 2.0**-54, 0.5, 1.0 - 2.0**-53])
    assert ((0.0 < u) & (u < 1.0)).all()
    x = rng.laplaces(1.0, 4)
    assert np.isfinite(x).all()
    assert np.abs(x).max() <= 53 * math.log(2)


@pytest.mark.parametrize(
    "scale, k, message",
    [
        (0.0, 5, "scale must be positive and finite, got 0.0"),
        (-1.0, 5, "scale must be positive and finite, got -1.0"),
        (math.inf, 5, "scale must be positive and finite, got inf"),
        (math.nan, 5, "scale must be positive and finite, got nan"),
        (1.0, 2.5, "k must be a positive integer, got 2.5"),
        (1.0, True, "k must be a positive integer, got True"),
        (1.0, 0, "k must be a positive integer, got 0"),
    ],
    ids=["scale-0", "scale-negative", "scale-inf", "scale-nan", "k-2.5", "k-True", "k-0"],
)
def test_laplaces_validation(scale, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        RngStream(0).laplaces(scale, k)


# Draws whose scale is finite but whose largest value is not: each used to
# return infinite entries with an overflow warning.  At 4/epsilon = 2e306 one
# Laplace draw is finite whatever its uniform, the L1 norm's sum of four
# need not be.
@pytest.mark.parametrize(
    "draw, message",
    [
        (lambda rng: rng.laplaces(1e308, 20), "scale=1e+308 draws values that overflow the float range"),
        (lambda rng: sample_l1_perturbation(4, 5e-308, rng), "epsilon=5e-308 overflows the noise scale"),
        (lambda rng: sample_l1_perturbation(4, 2e-306, rng), "epsilon=2e-306 overflows the noise scale"),
    ],
    ids=["laplaces", "l1", "l1-gamma-sum"],
)
def test_a_draw_that_can_overflow_is_refused_before_any_draw(draw, message):
    stream = RngStream(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw(stream)
        assert np.isfinite(sample_l1_perturbation(1, 2e-306, RngStream(1))).all()
    assert stream.uniform_open(1)[0] == RngStream(0).uniform_open(1)[0]


def test_laplace_median_of_absolute_values():
    # P(|x| <= c ln 2) is exactly 1/2
    c = 0.7
    draws = RngStream(1).laplaces(c, 1_000_000)
    frac = float(np.mean(np.abs(draws) <= c * math.log(2)))
    assert abs(frac - 0.5) < 0.01


def test_laplace_variance():
    draws = RngStream(2).laplaces(1.0, 1_000_000)
    assert abs(float(np.var(draws)) - 2.0) < 0.02


def test_laplace_ks_distance():
    draws = np.sort(RngStream(3).laplaces(1.0, 100_000))
    cdf = np.where(draws < 0, 0.5 * np.exp(draws), 1.0 - 0.5 * np.exp(-draws))
    n = draws.shape[0]
    hi = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(np.abs(hi - cdf), np.abs(hi - 1.0 / n - cdf))))
    assert ks < 0.01


def test_l1_perturbation_norm_is_the_gamma_draw():
    # replay the stream: the norm is the sum of dim |Laplace(4/eps)| draws,
    # exponentials of mean 4/eps
    dim, eps = 4, 0.1
    vec = sample_l1_perturbation(dim, eps, RngStream(9, stream=2))
    replay = RngStream(9, stream=2)
    expected_norm = float(np.abs(replay.laplaces(4.0 / eps, dim)).sum())
    assert float(np.abs(vec).sum()) == pytest.approx(expected_norm, rel=1e-12)


def test_l1_perturbation_gamma_mean():
    dim, eps = 4, 0.1
    # the rows are successive draws from RngStream(5), bit for bit
    norms = np.abs(sample_l1_perturbation(dim * 100_000, eps, RngStream(5)).reshape(100_000, dim)).sum(axis=1)
    expected = dim * 4.0 / eps  # 160
    assert abs(float(norms.mean()) - expected) / expected < 0.02


def test_l1_perturbation_sign_symmetry():
    rng = RngStream(6)
    vals = sample_l1_perturbation(2 * 100_000, 1.0, rng).reshape(100_000, 2)
    for k in range(2):
        frac = float(np.mean(vals[:, k] > 0))
        assert abs(frac - 0.5) < 0.01


def test_l1_perturbation_direction_shares_are_symmetric_dirichlet():
    rng = RngStream(7)
    dim = 4
    v = np.abs(sample_l1_perturbation(dim * 100_000, 0.5, rng).reshape(100_000, dim))
    shares = v / v.sum(axis=1, keepdims=True)
    means = shares.mean(axis=0)
    assert np.all(np.abs(means - 1.0 / dim) < 0.01 * (1.0 / dim))  # within 1% of 1/dim


def test_l1_perturbation_validation():
    for dim, eps in ((0, 1.0), (4, 0.0), (4, -1.0), (4, math.inf), (4, math.nan)):
        with pytest.raises(ValueError):
            sample_l1_perturbation(dim, eps, RngStream(0))


def test_gamma_tail_bound_value():
    # 4 * (3+1) * ln(4/0.1) / 0.1, natural log
    assert gamma_tail_bound(3, 0.1, 0.1) == pytest.approx(590.2207126582298, abs=1e-3)


def test_gamma_tail_bound_monotone_and_limit():
    assert gamma_tail_bound(3, 0.2, 0.1) < gamma_tail_bound(3, 0.1, 0.1)
    assert gamma_tail_bound(3, 0.1, 0.2) < gamma_tail_bound(3, 0.1, 0.1)
    assert gamma_tail_bound(0, 1 - 1e-12, 1.0) == pytest.approx(0.0, abs=1e-8)
    with pytest.raises(ValueError):
        gamma_tail_bound(3, 1.5, 0.1)
    with pytest.raises(ValueError):
        gamma_tail_bound(3, 0.1, 0.0)


def test_gamma_tail_bound_takes_a_numpy_integer_d():
    assert gamma_tail_bound(np.int64(3), 0.1, 0.1) == gamma_tail_bound(3, 0.1, 0.1)


def test_gamma_tail_bound_empirical_coverage():
    d, eps = 3, 0.1
    rng = RngStream(8)
    norms = np.abs(sample_l1_perturbation((d + 1) * 100_000, eps, rng).reshape(100_000, d + 1)).sum(axis=1)
    for alpha in (0.5, 0.1, 0.01):
        bound = gamma_tail_bound(d, alpha, eps)
        assert float(np.mean(norms <= bound)) >= 1.0 - alpha
