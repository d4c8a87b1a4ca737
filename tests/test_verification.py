import numpy as np
import pytest

from dpmedreg import (
    Dataset,
    NeighborPair,
    SmoothingConfig,
    fit_smoothed_baseline,
    make_neighbor_pair,
    objective_l1,
    oracle_l1_fit,
    random_dataset,
)

from conftest import bounded_instance


def test_oracle_intercept_only_median():
    data = Dataset(X=np.zeros((3, 1)), Y=np.array([1.0, 2.0, 9.0]), B=9.0)
    theta = oracle_l1_fit(data, 0.0, radius=10.0)
    assert abs(theta.mu - 2.0) <= 2e-4


def test_oracle_recovers_exact_linear(rng):
    data, beta = bounded_instance(rng, n=20, d=2, noise=1e-15, beta_scale=1.0)
    theta = oracle_l1_fit(data, 0.0, radius=2.0)
    assert abs(theta.mu) <= 2e-4
    assert np.all(np.abs(theta.beta - beta) <= 2e-4)


def test_oracle_dominates_smoothed_baseline(rng):
    gamma = 1e-4
    for t in range(5):
        sub = rng.derive(t)
        data, _ = bounded_instance(sub, n=7, d=1, noise=0.2, beta_scale=1.0)
        oracle = oracle_l1_fit(data, 0.0, radius=3.0)
        base = fit_smoothed_baseline(data, SmoothingConfig(lam=0.0, gamma=gamma))
        assert objective_l1(oracle, data, 0.0) <= (
            objective_l1(base, data, 0.0) + gamma / 2 + 2e-4
        )


def test_oracle_rejects_large_problems():
    with pytest.raises(ValueError):
        oracle_l1_fit(Dataset(X=np.zeros((5, 3)), Y=np.zeros(5), B=1.0), 0.0)
    with pytest.raises(ValueError):
        oracle_l1_fit(Dataset(X=np.zeros((51, 1)), Y=np.zeros(51), B=1.0), 0.0)


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
    swapped = NeighborPair(a=pair.b, b=pair.a, index=pair.index)
    assert swapped.index == pair.index


def test_random_dataset_respects_bounds(rng):
    data = random_dataset(200, 4, 1.5, rng)
    assert float(np.abs(data.X).sum(axis=1).max()) <= 1.0
    assert float(np.abs(data.Y).max()) <= 1.5
