"""Independent oracles and the probes that check the mechanisms: the exact
L1 fit as a linear program at any n and d, the values of the programs alg1
minimizes and alg2 descends, at the fit's config, bounded random datasets,
one-record-neighbor dataset pairs, and the ``dpmedreg probe`` targets of
:data:`PROBES`.  This module sits above the mechanisms; none of them imports
it."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import default_generator_spec, generate, normalize
from .gcd import GcdConfig, coordinate_step_vector
from .irls import IrlsConfig, fit_irls_private, irls_accuracy_bound, irls_fits, irls_sensitivity
from .model import Dataset, Theta, design_matrix, objective_l1, residuals
from .sampling import RngStream, gamma_tail_bound, sample_l1_perturbations
from .smoothing import SmoothingConfig, fit_smoothed_private, smoothing_accuracy_bound

__all__ = [
    "NeighborPair",
    "ProbeResult",
    "oracle_l1_fit",
    "smoothed_program",
    "perturbed_objective_le",
    "make_neighbor_pair",
    "random_dataset",
    "random_theta",
    "irls_sensitivity_probe",
    "gcd_step_probe",
]


def oracle_l1_fit(data: Dataset) -> Theta:
    """Exact minimizer of the unpenalized L1 objective, at any n and d.

    Least absolute deviations is a linear program (Koenker and Bassett,
    1978).  This solves its dual, maximize y'u subject to (1, X)'u = 0 and
    -1 <= u <= 1, with HiGHS; the multipliers of the equality constraints
    are, up to sign, a primal minimizer (mu, beta).  A solver status other
    than optimal is a ``RuntimeError``.
    """
    # imported here: scipy.optimize would add a quarter second to every
    # ``import dpmedreg`` for a function only tests and checks call
    from scipy.optimize import linprog

    res = linprog(
        -data.Y, A_eq=design_matrix(data.X).T, b_eq=np.zeros(data.d + 1), bounds=(-1, 1), method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"LAD linear program not solved: {res.message}")
    return Theta.from_vector(-res.eqlin.marginals)


def smoothed_program(theta: Theta, data: Dataset, cfg: SmoothingConfig, b) -> float:
    """P(omega) = objective_l1(theta, data, lam, gamma) + mu^2/sqrt(n) + b'omega/n,
    the program alg1 minimizes for the tilt ``b`` (a release's ``noise``; all
    zeros for the baseline), whose gradient is
    :func:`dpmedreg.smoothing.smoothed_gradient`."""
    b = np.asarray(b, dtype=float)
    if b.shape != (data.d + 1,):
        raise ValueError(f"b must have shape ({data.d + 1},), got {b.shape}")
    value = objective_l1(theta, data, cfg.lam, cfg.gamma) + theta.mu**2 / math.sqrt(data.n)
    return value + float(b @ theta.as_vector()) / data.n


def perturbed_objective_le(theta: Theta, data: Dataset, cfg: IrlsConfig) -> float:
    """(2/n) sum_i [|r_i| - e ln(e + |r_i|)] + (lam/2) beta'beta, tangent from
    below to the 1/(|r| + e)-reweighted quadratic criterion: alg2's
    reweighted least-squares update cannot increase it."""
    r = np.abs(residuals(theta, data))
    ridge = 0.5 * cfg.lam * float(theta.beta @ theta.beta)
    return float(2.0 / data.n * np.sum(r - cfg.e * np.log(cfg.e + r)) + ridge)


@dataclass(frozen=True, eq=False)
class NeighborPair:
    """Two datasets of identical shape and bound differing in exactly one
    row; ``index`` is that row's, found at construction."""

    a: Dataset
    b: Dataset
    index: int = field(init=False)

    def __post_init__(self) -> None:
        if self.a.X.shape != self.b.X.shape or self.a.B != self.b.B:
            raise ValueError("paired datasets must share n, d and B")
        differs = (self.a.X != self.b.X).any(axis=1)
        differs |= self.a.Y != self.b.Y
        where = differs.nonzero()[0]
        if where.shape[0] != 1:
            raise ValueError(f"pair must differ in exactly one row, found {where.shape[0]}")
        object.__setattr__(self, "index", int(where[0]))


def _check_integer(name: str, value) -> None:
    """Refuse a bool or a non-integer ``value`` (a float would be truncated or
    fail deep inside a draw) with a ValueError naming ``name``; numpy
    integers pass."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_at_least_one(name: str, value) -> None:
    _check_integer(name, value)
    if value < 1:
        raise ValueError(f"need {name} >= 1, got {value}")


def make_neighbor_pair(
    base: Dataset,
    index: int | None = None,
    replacement: tuple[np.ndarray, float] | None = None,
    rng: RngStream | None = None,
) -> NeighborPair:
    """Replace one record of ``base`` with a bounded record.

    A ``replacement`` of (x_row, y) must satisfy ||x||_1 <= 1 and |y| <= B,
    which the neighbor's :class:`Dataset` checks; when omitted, a random valid
    record is drawn from ``rng``.  Replacing a record with itself is a
    degenerate (zero-difference) pair and is rejected.
    """
    if index is None:
        if rng is None:
            raise ValueError("need rng when index is omitted")
        index = rng.integer(0, base.n)
    else:
        _check_integer("index", index)
    index = int(index)
    if not 0 <= index < base.n:
        raise IndexError(f"row index {index} out of range for n={base.n}")
    if replacement is None:
        if rng is None:
            raise ValueError("need rng when replacement is omitted")
        raw = rng.laplaces(1.0, base.d)
        radius = float(rng.uniform_open(1)[0])
        x_new = radius * raw / np.abs(raw).sum()
        y_new = float(rng.uniforms(-base.B, base.B, 1)[0])
    else:
        x_new = np.asarray(replacement[0], dtype=float)
        y_new = float(replacement[1])
        if x_new.shape != (base.d,):
            raise ValueError(f"replacement row must have shape ({base.d},)")
    if base.Y[index] == y_new and (base.X[index] == x_new).all():
        raise ValueError("replacement equals the original record (degenerate pair)")
    X2 = base.X.copy()
    Y2 = base.Y.copy()
    X2[index] = x_new
    Y2[index] = y_new
    return NeighborPair(a=base, b=Dataset(X=X2, Y=Y2, B=base.B))


def random_dataset(n: int, d: int, B: float, rng: RngStream) -> Dataset:
    """Random dataset satisfying the domain bounds: rows uniform-direction
    with L1 radius in (0, 1), responses uniform on (-B, B)."""
    _check_at_least_one("n", n)
    _check_at_least_one("d", d)
    raw = rng.laplaces(1.0, n * d).reshape(n, d)
    radii = rng.uniform_open(n)
    X = raw / np.abs(raw).sum(axis=1, keepdims=True) * radii[:, None]
    Y = rng.uniforms(-B, B, n)
    return Dataset(X=X, Y=Y, B=B)


def random_theta(d: int, rng: RngStream, scale: float = 1.0) -> Theta:
    """Theta with mu then beta_1, ..., beta_d drawn uniform on (-scale, scale),
    as d + 1 successive uniforms."""
    _check_at_least_one("d", d)
    return Theta.from_vector(rng.uniforms(-scale, scale, d + 1))


@dataclass(frozen=True)
class ProbeResult:
    """One probe check against its bound; ``ok`` is stored because checks
    compare in different directions (a distance below, a coverage above)."""

    name: str
    observed: float
    bound: float
    ok: bool


# neighbor pairs drawn and handed to a probe's ``shifts`` at a time: enough
# to batch the alg2 probe's fits, few enough that any trial count keeps its
# stacked tables small
_PROBE_CHUNK = 64


def neighbor_probe(name: str, n: int, d: int, trials: int, bound: float, rng: RngStream, shifts):
    """Largest shift over ``trials`` random neighbor pairs of n x d datasets
    with B = 1, which must stay at or below ``bound``.

    Trial t draws the base dataset and then the replaced record from
    ``sub = rng.derive(t)``.  The trials run in chunks of
    :data:`_PROBE_CHUNK`: ``shifts(pairs, subs)`` gets a chunk's pairs and
    streams in trial order and returns one shift per pair; it may draw
    further from each pair's own stream.
    """
    _check_at_least_one("trials", trials)
    worst = 0.0
    for start in range(0, trials, _PROBE_CHUNK):
        subs = [rng.derive(t) for t in range(start, min(start + _PROBE_CHUNK, trials))]
        pairs = [make_neighbor_pair(random_dataset(n, d, 1.0, sub), rng=sub) for sub in subs]
        for shift in shifts(pairs, subs):
            worst = max(worst, shift)
    return ProbeResult(name=name, observed=worst, bound=bound, ok=worst <= bound)


def irls_sensitivity_probe(n: int, d: int, trials: int, cfg: IrlsConfig, rng: RngStream) -> ProbeResult:
    """Empirical domination check for :func:`dpmedreg.irls.irls_sensitivity`.

    Generates random one-record-differing dataset pairs with B = 1, runs the
    noiseless reweighted fit on both sides, and reports the largest observed
    L1 output difference against the analytic constant at B = 1.  A chunk's
    pairs are fitted as one :func:`dpmedreg.irls.irls_fits` batch, each fit
    bit for bit its own ``irls_fit``.
    """
    bound = irls_sensitivity(d, n, 1.0, cfg.lam, cfg.e)

    def shifts(pairs, subs):
        tables = [data for pair in pairs for data in (pair.a, pair.b)]
        fits = [trace.final for trace in irls_fits(tables, cfg)]
        return [
            abs(fit_a.mu - fit_b.mu) + float(np.abs(fit_a.beta - fit_b.beta).sum())
            for fit_a, fit_b in zip(fits[::2], fits[1::2])
        ]

    return neighbor_probe("alg2_max_l1_shift", n, d, trials, bound, rng, shifts)


def gcd_step_probe(n0: int, d: int, trials: int, cfg: GcdConfig, rng: RngStream) -> ProbeResult:
    """Empirical one-record sensitivity of the pre-noise step vector.

    For random pairs of n0-record batches (B = 1) differing in one record,
    evaluated at the same random theta with step size eta = ell (the
    largest), the L1 distance between the two step vectors must stay within
    2 eta / n0 (a 1e-12 float-roundoff allowance is folded into the bound).
    """
    _check_at_least_one("n0", n0)
    eta = cfg.ell

    def shift(pair, sub):
        theta = random_theta(d, sub)
        s_a = coordinate_step_vector(theta, pair.a.X, pair.a.Y, cfg.lam, eta)
        s_b = coordinate_step_vector(theta, pair.b.X, pair.b.Y, cfg.lam, eta)
        return float(np.abs(s_a - s_b).sum())

    def shifts(pairs, subs):
        return map(shift, pairs, subs)

    bound = 2.0 * eta / n0 + 1e-12
    return neighbor_probe("alg3_max_step_shift", n0, d, trials, bound, rng, shifts)


def _probe_alg2(trials: int, seed: int) -> list[ProbeResult]:
    return [irls_sensitivity_probe(50, 3, trials, IrlsConfig(), RngStream(seed))]


def _probe_alg3(trials: int, seed: int) -> list[ProbeResult]:
    return [gcd_step_probe(50, 3, trials, GcdConfig(), RngStream(seed))]


def _probe_samplers(trials: int, seed: int) -> list[ProbeResult]:
    _check_at_least_one("trials", trials)
    rng = RngStream(seed)
    xs = np.sort(rng.derive(0).laplaces(1.0, trials))
    cdf = np.where(xs < 0, 0.5 * np.exp(xs), 1.0 - 0.5 * np.exp(-xs))
    grid = np.arange(1, trials + 1) / trials
    ks = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / trials - cdf))))
    # Dvoretzky-Kiefer-Wolfowitz: a correct sampler exceeds this with
    # probability at most 2 exp(-20); 0.01 at the default 100 000 trials
    ks_bound = math.sqrt(10 / trials)
    results = [ProbeResult("laplace_ks", ks, ks_bound, ks < ks_bound)]

    d = 3
    eps = SmoothingConfig().epsilon
    # the rows are drawn one after another from the stream rng.derive(1)
    values = sample_l1_perturbations(d + 1, eps, rng.derive(1), trials)
    norms = np.abs(values, out=values).sum(axis=1)
    expect = (d + 1) * 4.0 / eps
    rel = abs(float(norms.mean()) - expect) / expect
    # the Gamma(d + 1) norm's relative standard error is 1/sqrt((d + 1) trials),
    # so this is about 12.6 of them; 0.02 at the default 100 000 trials
    rel_bound = math.sqrt(40 / trials)
    results.append(ProbeResult("gamma_norm_mean_rel_err", rel, rel_bound, rel < rel_bound))

    for alpha in (0.5, 0.1, 0.01):
        bound = gamma_tail_bound(d, alpha, eps)
        cover = float(np.mean(norms <= bound))
        name = f"gamma_tail_coverage_alpha_{alpha}"
        results.append(ProbeResult(name, cover, 1.0 - alpha, cover >= 1.0 - alpha))
    return results


def _probe_bounds(trials: int, seed: int) -> list[ProbeResult]:
    _check_at_least_one("trials", trials)
    alpha = 0.1
    floor = 1.0 - alpha - 0.05
    cfg1 = SmoothingConfig()
    cfg2 = IrlsConfig()

    def alg1_hit(data, rng):
        base = fit_smoothed_private(data, replace(cfg1, epsilon=math.inf), None).theta
        noisy = fit_smoothed_private(data, cfg1, rng).theta
        dist = abs(base.mu - noisy.mu) + float(np.abs(base.beta - noisy.beta).sum())
        return dist <= smoothing_accuracy_bound(data.d, alpha, data.n, cfg1.lam, cfg1.epsilon)

    def alg2_hit(data, rng):
        noise = fit_irls_private(data, cfg2, rng).noise
        bound = irls_accuracy_bound(data.d, alpha, data.n, cfg2.lam, cfg2.epsilon, cfg2.e, data.B)
        return float(np.abs(noise).sum()) <= bound

    # replicate rep of check c draws its data from stream (c, rep, 0) and its
    # noise from (c, rep, 1)
    root = RngStream(seed)
    checks = (("alg1_bound_coverage", 2000, alg1_hit), ("alg2_bound_coverage", 10_000, alg2_hit))
    results = []
    for c, (name, n, hit) in enumerate(checks):
        spec = default_generator_spec(n)
        hits = 0
        for rep in range(trials):
            data, _ = normalize(*generate(spec, root.derive(c, rep, 0))[:2])
            hits += hit(data, root.derive(c, rep, 1))
        cover = hits / trials
        results.append(ProbeResult(name, cover, floor, cover >= floor))
    return results


# Probe target -> (runner, default trials).  A runner takes (trials, seed) and
# returns its results in the order they are printed.  The sampler thresholds
# shrink as 1/sqrt(trials); the Monte-Carlo coverage check needs full refits.
PROBES = {
    "alg2": (_probe_alg2, 1000),
    "alg3": (_probe_alg3, 1000),
    "samplers": (_probe_samplers, 100_000),
    "bounds": (_probe_bounds, 200),
}
