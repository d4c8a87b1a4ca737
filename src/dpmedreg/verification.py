"""Independent oracles and probe machinery: brute-force L1 fits on tiny
instances, bounded random datasets, one-record-neighbor dataset pairs, and
the neighbor-pair probe loop that the alg2 and alg3 sensitivity probes share."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, Theta
from .sampling import RngStream

__all__ = [
    "GridSpec",
    "NeighborPair",
    "ProbeResult",
    "oracle_l1_fit",
    "make_neighbor_pair",
    "random_dataset",
    "random_theta",
]

_ROW_SLACK = 1e-9


@dataclass(frozen=True)
class GridSpec:
    """Coarse-to-fine grid-search resolution spec.

    Each level lays ``points`` per coordinate across the current box, then
    recenters on the argmin with a two-cell safety margin.  Search stops once
    the cell spacing is at most ``resolution`` in every coordinate.
    """

    radius: float = 4.0
    resolution: float = 1e-4
    points: int = 21

    def __post_init__(self) -> None:
        if not self.radius > 0 or not self.resolution > 0:
            raise ValueError("radius and resolution must be positive")
        if self.points < 5:
            raise ValueError("need at least 5 points per level")


def oracle_l1_fit(data: Dataset, lam: float, grid: GridSpec = GridSpec()) -> Theta:
    """Brute-force minimizer of the L1 objective by coarse-to-fine grid search.

    Desk scale only (d <= 2, n <= 50).  Ties resolve to the lexicographically
    first grid point, so the result is deterministic.  Two safeguards keep the
    search honest on the narrow polyhedral valleys an L1 objective can have:
    a level whose argmin lands near the box edge while improving the incumbent
    recenters without shrinking, and the final point is polished by greedy
    neighbor descent on the resolution lattice until no neighbor improves.
    """
    if data.d > 2:
        raise ValueError(f"oracle supports d <= 2, got d={data.d}")
    if data.n > 50:
        raise ValueError(f"oracle supports n <= 50, got n={data.n}")
    dims = data.d + 1

    def values(omegas: np.ndarray) -> np.ndarray:
        r = omegas[:, 0][None, :] + data.X @ omegas[:, 1:].T - data.Y[:, None]
        return np.abs(r).mean(axis=0) + 0.5 * lam * np.sum(omegas[:, 1:] ** 2, axis=1)

    center = np.zeros(dims)
    half = np.full(dims, float(grid.radius))
    best_val = math.inf
    for _ in range(500):
        axes = [np.linspace(center[j] - half[j], center[j] + half[j], grid.points) for j in range(dims)]
        mesh = np.meshgrid(*axes, indexing="ij")
        omegas = np.stack([m.ravel() for m in mesh], axis=1)
        vals = values(omegas)
        pick = int(np.argmin(vals))
        level_val = float(vals[pick])
        improved = level_val < best_val - 1e-15 * max(1.0, abs(best_val))
        best_val = min(best_val, level_val)
        spacing = 2.0 * half / (grid.points - 1)
        new_center = omegas[pick]
        on_edge = any(
            abs(new_center[j] - (center[j] - half[j])) < 1.5 * spacing[j]
            or abs(new_center[j] - (center[j] + half[j])) < 1.5 * spacing[j]
            for j in range(dims)
        )
        center = new_center
        if on_edge and improved:
            continue  # track the valley at the current scale
        if float(spacing.max()) <= grid.resolution:
            break
        half = 4.0 * spacing
    else:
        raise RuntimeError("grid search failed to localize a minimizer")

    offsets = [o for o in itertools.product((-1, 0, 1), repeat=dims) if any(o)]
    offsets = np.array(offsets, dtype=float) * grid.resolution
    for _ in range(20000):
        cand = center[None, :] + offsets
        vals = values(cand)
        k = int(np.argmin(vals))
        if vals[k] < best_val - 1e-15 * max(1.0, abs(best_val)):
            best_val = float(vals[k])
            center = cand[k]
        else:
            break
    return Theta(mu=float(center[0]), beta=center[1:])


@dataclass(frozen=True)
class NeighborPair:
    """Two datasets of identical shape and bound differing in exactly one row."""

    a: Dataset
    b: Dataset
    index: int

    def __post_init__(self) -> None:
        if self.a.X.shape != self.b.X.shape or self.a.B != self.b.B:
            raise ValueError("paired datasets must share n, d and B")
        differs = np.any(self.a.X != self.b.X, axis=1) | (self.a.Y != self.b.Y)
        where = np.flatnonzero(differs)
        if where.shape[0] != 1:
            raise ValueError(f"pair must differ in exactly one row, found {where.shape[0]}")
        if int(where[0]) != self.index:
            raise ValueError(f"differing row {int(where[0])} does not match index {self.index}")


def make_neighbor_pair(
    base: Dataset,
    index: int | None = None,
    replacement: tuple[np.ndarray, float] | None = None,
    rng: RngStream | None = None,
) -> NeighborPair:
    """Replace one record of ``base`` with a bounded record.

    A ``replacement`` of (x_row, y) must satisfy ||x||_1 <= 1 and |y| <= B;
    when omitted, a random valid record is drawn from ``rng``.  Replacing a
    record with itself is a degenerate (zero-difference) pair and is rejected.
    """
    if index is None:
        if rng is None:
            raise ValueError("need rng when index is omitted")
        index = rng.integer(0, base.n)
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
        if float(np.abs(x_new).sum()) > 1.0 + _ROW_SLACK:
            raise ValueError("replacement row L1 norm exceeds 1")
        if abs(y_new) > base.B + _ROW_SLACK:
            raise ValueError(f"replacement |y| exceeds B={base.B}")
    if np.array_equal(base.X[index], x_new) and base.Y[index] == y_new:
        raise ValueError("replacement equals the original record (degenerate pair)")
    X2 = base.X.copy()
    Y2 = base.Y.copy()
    X2[index] = x_new
    Y2[index] = y_new
    return NeighborPair(a=base, b=Dataset(X=X2, Y=Y2, B=base.B), index=index)


def random_dataset(n: int, d: int, B: float, rng: RngStream) -> Dataset:
    """Random dataset satisfying the domain bounds: rows uniform-direction
    with L1 radius in (0, 1), responses uniform on (-B, B)."""
    raw = rng.laplaces(1.0, n * d).reshape(n, d)
    radii = rng.uniform_open(n)
    X = raw / np.abs(raw).sum(axis=1, keepdims=True) * radii[:, None]
    Y = rng.uniforms(-B, B, n)
    return Dataset(X=X, Y=Y, B=B)


def random_theta(d: int, rng: RngStream, scale: float = 1.0) -> Theta:
    return Theta(
        mu=float(rng.uniforms(-scale, scale, 1)[0]),
        beta=rng.uniforms(-scale, scale, d),
    )


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of an empirical domination probe against an analytic bound."""

    observed: float
    bound: float
    trials: int

    @property
    def ok(self) -> bool:
        return self.observed <= self.bound


def neighbor_probe(n: int, d: int, B: float, trials: int, bound: float, rng: RngStream, shift):
    """Largest ``shift(pair, sub)`` over ``trials`` random neighbor pairs of
    n x d datasets bounded by B, reported against ``bound``.

    Trial t draws the base dataset and then the replaced record from
    ``sub = rng.derive(t)``; ``shift`` may draw further from ``sub``.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    worst = 0.0
    for t in range(trials):
        sub = rng.derive(t)
        pair = make_neighbor_pair(random_dataset(n, d, B, sub), rng=sub)
        worst = max(worst, shift(pair, sub))
    return ProbeResult(observed=worst, bound=bound, trials=trials)
