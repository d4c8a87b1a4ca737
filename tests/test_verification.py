import numpy as np
import pytest
from scipy.optimize import linprog

from dpmedreg import (
    Dataset,
    NeighborPair,
    RngStream,
    SmoothingConfig,
    make_neighbor_pair,
    objective_l1,
    oracle_l1_fit,
    random_dataset,
    verification,
)
from dpmedreg.model import design_matrix

from conftest import benchmark_instance, bounded_instance, smoothed_baseline


def test_oracle_intercept_only_median():
    data = Dataset(X=np.zeros((3, 1)), Y=np.array([1.0, 2.0, 9.0]), B=9.0)
    theta = oracle_l1_fit(data)
    assert abs(theta.mu - 2.0) <= 2e-4


def test_oracle_recovers_exact_linear(rng):
    data, beta = bounded_instance(rng, n=20, d=2, noise=1e-15, beta_scale=1.0)
    theta = oracle_l1_fit(data)
    assert abs(theta.mu) <= 1e-9
    assert np.all(np.abs(theta.beta - beta) <= 1e-9)


def test_oracle_dominates_smoothed_baseline(rng):
    gamma = 1e-4
    for t in range(5):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=7, d=1, noise=0.2, beta_scale=1.0)
        oracle = oracle_l1_fit(data)
        base = smoothed_baseline(data, SmoothingConfig(lam=0.0, gamma=gamma))
        assert objective_l1(oracle, data, 0.0) <= objective_l1(base, data, 0.0) + gamma / 2


def test_oracle_is_exact_at_benchmark_scale():
    # the oracle's objective is the LP dual's optimal value y'u/n (strong
    # duality), and no smoothed fit does better
    data, _, _ = benchmark_instance(2000, RngStream(9))
    assert (data.n, data.d) == (2000, 3)
    oracle = objective_l1(oracle_l1_fit(data), data, 0.0)
    base = smoothed_baseline(data, SmoothingConfig(lam=0.0, gamma=1e-4))
    assert oracle <= objective_l1(base, data, 0.0)
    res = linprog(-data.Y, A_eq=design_matrix(data.X).T, b_eq=np.zeros(4), bounds=(-1, 1), method="highs")
    assert res.status == 0
    assert abs(oracle - float(data.Y @ res.x) / data.n) <= 1e-12


def test_neighbor_pair_explicit_replacement(rng):
    base = random_dataset(10, 3, 1.0, rng)
    new_row = np.array([0.2, -0.3, 0.1])
    pair = make_neighbor_pair(base, index=4, replacement=(new_row, 0.5))
    assert pair.index == 4
    assert pair.a is base  # no second copy of the base data
    differs = np.any(pair.a.X != pair.b.X, axis=1) | (pair.a.Y != pair.b.Y)
    assert np.flatnonzero(differs).tolist() == [4]


def test_neighbor_pair_rejects_identical_replacement(rng):
    base = random_dataset(10, 3, 1.0, rng)
    with pytest.raises(ValueError):
        make_neighbor_pair(base, index=2, replacement=(base.X[2].copy(), float(base.Y[2])))


def test_neighbor_pair_rejects_out_of_domain(rng):
    base = random_dataset(5, 2, 1.0, rng)
    with pytest.raises(ValueError):
        make_neighbor_pair(base, index=0, replacement=(np.array([0.9, 0.9]), 0.0))
    with pytest.raises(ValueError):
        make_neighbor_pair(base, index=0, replacement=(np.array([0.1, 0.1]), 5.0))


def test_neighbor_pair_random_replacement_valid(rng):
    for t in range(20):
        sub = rng.derive(t)
        base = random_dataset(8, 2, 1.5, sub)
        pair = make_neighbor_pair(base, rng=sub)
        assert isinstance(pair, NeighborPair)
        assert pair.b.n == base.n and pair.b.d == base.d and pair.b.B == base.B


def test_neighbor_pair_symmetry(rng):
    base = random_dataset(6, 2, 1.0, rng)
    pair = make_neighbor_pair(base, rng=rng)
    swapped = NeighborPair(a=pair.b, b=pair.a)
    assert swapped.index == pair.index


def test_random_dataset_respects_bounds(rng):
    data = random_dataset(200, 4, 1.5, rng)
    assert float(np.abs(data.X).sum(axis=1).max()) <= 1.0
    assert float(np.abs(data.Y).max()) <= 1.5


def test_sampler_probe_derives_a_fixed_number_of_streams(monkeypatch):
    calls = []
    derive = RngStream.derive

    def counted(self, *subids):
        calls.append(subids)
        return derive(self, *subids)

    monkeypatch.setattr(RngStream, "derive", counted)
    counts = []
    for trials in (10, 10_000):
        calls.clear()
        verification._probe_samplers(trials, 3)
        counts.append(len(calls))
    assert counts[0] == counts[1]
