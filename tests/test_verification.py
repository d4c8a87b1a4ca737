import hashlib
import re
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from dpmedreg import (
    Dataset,
    GcdConfig,
    IrlsConfig,
    NeighborPair,
    RngStream,
    SmoothingConfig,
    Theta,
    gcd_step_probe,
    irls_sensitivity_probe,
    make_neighbor_pair,
    objective_l1,
    oracle_l1_fit,
    random_dataset,
    random_theta,
    smoothed_program,
    verification,
)
from dpmedreg.model import design_matrix

from conftest import benchmark_instance, bounded_instance, smoothed_baseline, traced_peak


def test_oracle_intercept_only_median():
    data = Dataset(X=np.zeros((3, 1)), Y=np.array([1.0, 2.0, 9.0]), B=9.0)
    theta = oracle_l1_fit(data)
    assert abs(theta.mu - 2.0) <= 2e-4


def test_oracle_refuses_an_lp_that_was_not_solved(monkeypatch):
    # the LAD dual is always feasible and bounded, so a status other than
    # optimal is the solver's own failure; its message is passed on
    import scipy.optimize

    failed = SimpleNamespace(status=4, message="Numerical difficulties encountered.")
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs: failed)
    data = Dataset(X=np.zeros((3, 1)), Y=np.array([1.0, 2.0, 9.0]), B=9.0)
    with pytest.raises(RuntimeError, match="^LAD linear program not solved: Numerical difficulties encountered.$"):
        oracle_l1_fit(data)


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


def test_smoothed_program_adds_the_intercept_term_and_the_tilt():
    # n = 4, so P = objective_l1 + mu^2/2 + b'omega/4
    data = Dataset(X=np.array([[0.5], [-0.5], [0.25], [0.0]]), Y=np.array([1.0, 0.0, -1.0, 0.5]), B=1.0)
    theta = Theta(0.5, np.array([1.0]))
    want = objective_l1(theta, data, 0.1, 0.05) + 0.125 + (2.0 * 0.5 - 4.0 * 1.0) / 4
    got = smoothed_program(theta, data, SmoothingConfig(lam=0.1, gamma=0.05), np.array([2.0, -4.0]))
    assert got == pytest.approx(want, abs=1e-15)


def test_neighbor_pair_explicit_replacement(rng):
    base = random_dataset(10, 3, 1.0, rng)
    new_row = np.array([0.2, -0.3, 0.1])
    pair = make_neighbor_pair(base, index=4, replacement=(new_row, 0.5))
    assert pair.index == 4
    assert pair.a is base  # no second copy of the base data
    differs = np.any(pair.a.X != pair.b.X, axis=1) | (pair.a.Y != pair.b.Y)
    assert np.flatnonzero(differs).tolist() == [4]


@pytest.mark.parametrize("index", [2.7, True, 2.0, "2"])
def test_neighbor_pair_refuses_a_non_integer_index_before_any_draw(index):
    # 2.7 and True used to be truncated to rows 2 and 1
    base = random_dataset(10, 3, 1.0, RngStream(5))
    stream = RngStream(6)
    with pytest.raises(ValueError, match=f"^index must be an integer, got {index!r}$"):
        make_neighbor_pair(base, index=index, rng=stream)
    assert stream.uniform_open(1)[0] == RngStream(6).uniform_open(1)[0]


# a float count used to fail inside range() or a draw that named k, and
# True ran one trial
_BAD_PROBE_COUNTS = [
    pytest.param(
        lambda: irls_sensitivity_probe(50, 3, 2.5, IrlsConfig(), RngStream(1)),
        "trials must be an integer, got 2.5",
        id="alg2-trials-float",
    ),
    pytest.param(
        lambda: irls_sensitivity_probe(50, 3, True, IrlsConfig(), RngStream(1)),
        "trials must be an integer, got True",
        id="alg2-trials-bool",
    ),
    pytest.param(
        lambda: gcd_step_probe(2.5, 3, 2, GcdConfig(), RngStream(1)),
        "n0 must be an integer, got 2.5",
        id="alg3-n0-float",
    ),
    pytest.param(
        lambda: gcd_step_probe(True, 3, 2, GcdConfig(), RngStream(1)),
        "n0 must be an integer, got True",
        id="alg3-n0-bool",
    ),
    pytest.param(
        lambda: gcd_step_probe(50, 3, 2.0, GcdConfig(), RngStream(1)),
        "trials must be an integer, got 2.0",
        id="alg3-trials-float",
    ),
    pytest.param(
        lambda: gcd_step_probe(50, 3, 0, GcdConfig(), RngStream(1)),
        "need trials >= 1, got 0",
        id="alg3-trials-zero",
    ),
    pytest.param(
        lambda: verification._probe_samplers(True, 1),
        "trials must be an integer, got True",
        id="samplers-trials-bool",
    ),
    pytest.param(
        lambda: verification._probe_samplers(0, 1), "need trials >= 1, got 0", id="samplers-trials-zero"
    ),
    pytest.param(
        lambda: verification._probe_bounds(1.5, 1), "trials must be an integer, got 1.5", id="bounds-trials-float"
    ),
    # the random helpers' sizes used to fail inside numpy's reshape or a
    # draw that named k
    pytest.param(lambda: random_dataset(-3, -2, 1.0, RngStream(1)), "need n >= 1, got -3", id="dataset-n-negative"),
    pytest.param(lambda: random_dataset(3, 0, 1.0, RngStream(1)), "need d >= 1, got 0", id="dataset-d-zero"),
    pytest.param(
        lambda: random_dataset(2.5, 3, 1.0, RngStream(1)), "n must be an integer, got 2.5", id="dataset-n-float"
    ),
    pytest.param(lambda: random_theta(2.5, RngStream(1)), "d must be an integer, got 2.5", id="theta-d-float"),
    pytest.param(lambda: random_theta(True, RngStream(1)), "d must be an integer, got True", id="theta-d-bool"),
]


@pytest.mark.parametrize("call, message", _BAD_PROBE_COUNTS)
def test_probe_counts_are_refused_by_name_before_any_draw(call, message, monkeypatch):
    draws = []
    for name in ("derive", "laplaces", "uniform_open", "uniforms"):
        monkeypatch.setattr(RngStream, name, lambda *args, name=name: draws.append(name))
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
    assert draws == []


def test_probes_take_numpy_integer_counts():
    cfg = GcdConfig()
    want = gcd_step_probe(50, 3, 2, cfg, RngStream(1))
    got = gcd_step_probe(np.int64(50), 3, np.int64(2), cfg, RngStream(1))
    assert got.observed.hex() == want.observed.hex() and got.bound == want.bound


def test_neighbor_pair_takes_a_numpy_integer_index():
    base = random_dataset(10, 3, 1.0, RngStream(5))
    pair = make_neighbor_pair(base, index=np.int64(3), rng=RngStream(6))
    assert pair.index == 3
    assert pair.b.Y.tobytes() == make_neighbor_pair(base, index=3, rng=RngStream(6)).b.Y.tobytes()


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


def _with_rows(data, rows, B=None):
    """``data`` with Y negated in the given rows (none of which is 0) and
    bound ``B`` (data.B by default)."""
    Y = data.Y.copy()
    Y[rows] *= -1.0
    return Dataset(X=data.X, Y=Y, B=data.B if B is None else B)


# each call takes random_dataset(10, 3, 1.0, RngStream(5)), whose Y_i are
# all nonzero
_BAD_NEIGHBOR_PAIRS = [
    pytest.param(lambda base: make_neighbor_pair(base), ValueError, "need rng when index is omitted", id="no-rng-index"),
    pytest.param(
        lambda base: make_neighbor_pair(base, index=1), ValueError, "need rng when replacement is omitted",
        id="no-rng-replacement",
    ),
    pytest.param(
        lambda base: make_neighbor_pair(base, index=10, rng=RngStream(6)), IndexError,
        "row index 10 out of range for n=10", id="index-past-end",
    ),
    pytest.param(
        lambda base: make_neighbor_pair(base, index=-1, rng=RngStream(6)), IndexError,
        "row index -1 out of range for n=10", id="index-negative",
    ),
    pytest.param(
        lambda base: make_neighbor_pair(base, index=1, replacement=(np.zeros(2), 0.0)), ValueError,
        "replacement row must have shape (3,)", id="replacement-shape",
    ),
    pytest.param(
        lambda base: NeighborPair(a=base, b=Dataset(X=base.X[:, :2], Y=base.Y, B=base.B)), ValueError,
        "paired datasets must share n, d and B", id="pair-shape",
    ),
    pytest.param(
        lambda base: NeighborPair(a=base, b=_with_rows(base, [1], B=2.0)), ValueError,
        "paired datasets must share n, d and B", id="pair-B",
    ),
    pytest.param(
        lambda base: NeighborPair(a=base, b=base), ValueError, "pair must differ in exactly one row, found 0",
        id="pair-same",
    ),
    pytest.param(
        lambda base: NeighborPair(a=base, b=_with_rows(base, [1, 4])), ValueError,
        "pair must differ in exactly one row, found 2", id="pair-two-rows",
    ),
]


@pytest.mark.parametrize("call, error, message", _BAD_NEIGHBOR_PAIRS)
def test_neighbor_pair_refusals_name_the_fault_before_any_draw(call, error, message, monkeypatch):
    base = random_dataset(10, 3, 1.0, RngStream(5))
    assert base.Y.all()
    draws = []
    for name in ("integer", "laplaces", "uniform_open", "uniforms"):
        monkeypatch.setattr(RngStream, name, lambda *args, name=name: draws.append(name))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(base)
    assert draws == []


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


def _record_bits(x, y):
    return [v.hex() for v in x.tolist()] + [float(y).hex()]


# The draws of a probe trial at the probes' size, per seed: the sha256 of
# random_dataset(50, 3, 1.0, rng)'s X then Y bytes with its first and last
# records, the (index, record) make_neighbor_pair then draws from the same
# stream, and random_theta(3, RngStream(seed)).
PROBE_DRAW_PINS = {
    0: (
        "778734e378b0f6376dddae9082ae45cb61039ea81515b7d753db2c68153cc422",
        ["0x1.86e5b9ddf9149p-6", "-0x1.49cbe09f86673p-8", "0x1.a7c02d65edfa5p-8", "0x1.60ea81d481210p-2"],
        ["0x1.204c8cb6b641cp-4", "-0x1.a39abb5b20f36p-1", "0x1.09be95d64558fp-4", "0x1.a3f484151b510p-3"],
        (35, ["-0x1.14cdca0883717p-4", "0x1.37704f210aa49p-9", "0x1.82acef3ba2e0dp-6", "-0x1.9568e950af62bp-1"]),
        ["0x1.c5916bff357dcp-1", "-0x1.78243a1ff4c56p-2", "0x1.c75b8d1612648p-2", "-0x1.7f61e79f28d87p-1"],
    ),
    21: (
        "08f40ada9b6b152acdfacf56fdd19850781cd932bbc1033a4736507e60a4cc51",
        ["-0x1.b5d087cda9897p-2", "-0x1.0f44d081844f4p-2", "-0x1.d685797afe797p-3", "0x1.0b7824e196858p-2"],
        ["-0x1.c35d130c10438p-4", "-0x1.da32aa36260aap-3", "-0x1.1e9952f42aed4p-1", "0x1.e16c0829a8030p-2"],
        (32, ["-0x1.e2f5d7834b36bp-4", "-0x1.14d5636e37e9dp-9", "0x1.2d40ca0d409b2p-6", "0x1.dd0fce8d97730p-3"]),
        ["-0x1.c28d087cddb87p-1", "-0x1.7659e0dea3fc1p-1", "-0x1.5c213169a18d9p-1", "0x1.da54a058fe048p-2"],
    ),
    95: (
        "ed553c02992ba6d16bd4f70a31636fd77f213c9c5ddce21208d27d91f3113f69",
        ["0x1.655e9f4dc767fp-6", "0x1.5535bde1018e4p-6", "0x1.2007e4aeb7297p-7", "-0x1.29fe942f82a45p-1"],
        ["0x1.ad82134ce5465p-6", "-0x1.03366e5840030p-4", "0x1.1ae19417355f7p-2", "-0x1.76c89623db2a3p-1"],
        (46, ["-0x1.352f1cac79a20p-3", "0x1.22007d5334389p-3", "0x1.10f8977fe852cp-9", "-0x1.721ddd942deb3p-1"]),
        ["0x1.d487eb55d8298p-1", "0x1.cf670ef5fb414p-1", "0x1.427d2eca97b68p-1", "0x1.9c4d821421fc0p-2"],
    ),
}


@pytest.mark.parametrize("seed", sorted(PROBE_DRAW_PINS))
def test_probe_helpers_keep_their_draws(seed):
    digest, first, last, (index, record), theta = PROBE_DRAW_PINS[seed]
    rng = RngStream(seed)
    data = random_dataset(50, 3, 1.0, rng)
    assert hashlib.sha256(data.X.tobytes() + data.Y.tobytes()).hexdigest() == digest
    assert _record_bits(data.X[0], data.Y[0]) == first
    assert _record_bits(data.X[-1], data.Y[-1]) == last
    pair = make_neighbor_pair(data, rng=rng)
    assert pair.index == index
    assert _record_bits(pair.b.X[index], pair.b.Y[index]) == record
    assert [v.hex() for v in random_theta(3, RngStream(seed)).as_vector().tolist()] == theta


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


# The largest shift each pair probe observes at seed 69 after 1 trial, one
# chunk of trials and one chunk + 3, recorded before the trials ran in chunks
# (the alg2 probe's largest shift rises at trial 65)
PROBE_OBSERVED_PINS = {
    "alg2": ["0x1.551cacafdd742p-3", "0x1.3e432fe8d1eb2p-1", "0x1.c14cc163b394ap-1"],
    "alg3": ["0x1.e183f933ff2cap-11", "0x1.cd01b1fc39ef8p-9", "0x1.cd01b1fc39ef8p-9"],
}
PAIR_PROBES = {
    "alg2": lambda trials: irls_sensitivity_probe(50, 3, trials, IrlsConfig(), RngStream(69)),
    "alg3": lambda trials: gcd_step_probe(50, 3, trials, GcdConfig(), RngStream(69)),
}


@pytest.mark.parametrize("target", sorted(PROBE_OBSERVED_PINS))
def test_pair_probes_keep_their_observed_shift_across_chunks(target):
    assert verification._PROBE_CHUNK == 64
    observed = [PAIR_PROBES[target](trials).observed.hex() for trials in (1, 64, 67)]
    assert observed == PROBE_OBSERVED_PINS[target]


def test_alg2_probe_memory_stays_at_one_chunk():
    # the pairs are drawn and fitted a chunk at a time, so four chunks of
    # trials peak where one does: --trials 10**6 never stacks every pair
    chunk = verification._PROBE_CHUNK
    cfg = IrlsConfig()
    _, one = traced_peak(irls_sensitivity_probe, 50, 3, chunk, cfg, RngStream(69))
    _, four = traced_peak(irls_sensitivity_probe, 50, 3, 4 * chunk, cfg, RngStream(69))
    assert four <= one + 64 * 1024


def test_sampler_probe_memory_stays_at_one_block(monkeypatch):
    # the tilts are drawn and reduced to their norms a block of rows at a
    # time, so four blocks of trials peak above one block only by the
    # per-trial arrays: the norms and the KS check's draws, sorted draws and
    # CDF (5.3 arrays of three blocks' floats; 12 when every tilt is drawn
    # at once)
    block = verification._SAMPLER_BLOCK_ROWS
    assert block == 8192
    verification._probe_samplers(1, 3)  # leaves out a first call's one-time allocations
    _, one = traced_peak(verification._probe_samplers, block, 3)
    blocked, four = traced_peak(verification._probe_samplers, 4 * block, 3)
    assert four <= one + 6 * 3 * block * 8 + 64 * 1024
    # successive draws from the one stream have the bits of one long draw
    monkeypatch.setattr(verification, "_SAMPLER_BLOCK_ROWS", 4 * block)
    assert verification._probe_samplers(4 * block, 3) == blocked
