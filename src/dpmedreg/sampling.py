"""Seedable randomness: replayable streams, Laplace noise, and the
Gamma-norm / uniform-L1-direction perturbation vector.

Every sampler checks its arguments and is an inverse-CDF construction (no
rejection steps), so a fixed (seed, stream) pair replays bit-identically.
All randomness in the package flows through :class:`RngStream`.  Each uniform
is the top 53 bits of one raw PCG64 output, ``((raw >> 11) + 0.5) / 2**53``:
the same stream that ``Generator.integers(0, 2**53)`` gives, without its
per-call overhead.  :func:`sample_l1_perturbations` draws its rows one after
another from the stream it is given, so it equals ``count`` successive calls
of :func:`sample_l1_perturbation` on that stream bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _as_integer, _check_count, _check_epsilon, _check_nonnegative
from .model import _check_positive, _check_probability

__all__ = [
    "RngStream",
    "sample_l1_perturbation",
    "sample_l1_perturbations",
    "gamma_tail_bound",
]

_TWO53 = float(2**53)

# Rows of :func:`sample_l1_perturbations` drawn and transformed together.
_L1_BLOCK_ROWS = 8192


def _exponential(u: np.ndarray, scale: float) -> np.ndarray:
    """Inverse CDF of the exponential with mean ``scale``."""
    return -float(scale) * np.log(u)


def _laplace(u: np.ndarray, scale: float) -> np.ndarray:
    """Inverse CDF of the Laplace with scale ``scale``."""
    u = u - 0.5
    return -float(scale) * np.sign(u) * np.log1p(-2.0 * np.abs(u))


class RngStream:
    """Single-owner random stream identified by an integer seed and stream id.

    The same (seed, stream) always yields the same draw sequence; distinct
    stream ids are statistically independent.  A stream must not be shared
    across threads; give concurrent work units their own :meth:`derive` child.
    """

    __slots__ = ("seed", "stream", "_path", "_gen")

    def __init__(self, seed: int, stream: int = 0):
        self.seed = _as_integer("seed", seed)
        self._bind((), (stream,))

    def _bind(self, path: tuple, ids: tuple) -> None:
        """Attach the generator of (self.seed, path + ids); path is already ints."""
        path += tuple(_as_integer("stream id", i) for i in ids)
        self.stream = path[0] if len(path) == 1 else path
        self._path = path
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=path)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def derive(self, *subids: int) -> "RngStream":
        """Independent child stream; children with distinct subids are independent."""
        child = RngStream.__new__(RngStream)
        child.seed = self.seed
        child._bind(self._path, subids)
        return child

    def uniform_open(self, k: int) -> np.ndarray:
        """k uniforms strictly inside (0, 1), one raw 64-bit output each: its
        top 53 bits pick one of 2**53 equal cells and the uniform is the
        cell's midpoint."""
        _check_count("k", k)
        raw = self._gen.bit_generator.random_raw(k)
        return ((raw >> 11).astype(float) + 0.5) / _TWO53

    def laplaces(self, scale: float, k: int) -> np.ndarray:
        """k i.i.d. draws with density (1/2c) exp(-|x|/c), c = ``scale``
        (positive and finite), one uniform each: the inverse CDF
        x = -c sign(u - 1/2) ln(1 - 2|u - 1/2|)."""
        _check_positive("scale", scale)
        return _laplace(self.uniform_open(k), scale)

    def uniforms(self, lo: float, hi: float, k: int) -> np.ndarray:
        """k i.i.d. draws uniform on (lo, hi); the width hi - lo must be positive and finite."""
        _check_positive("hi - lo", hi - lo)
        return lo + (hi - lo) * self.uniform_open(k)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))

    def integer(self, lo: int, hi: int) -> int:
        """One integer in [lo, hi)."""
        return int(self._gen.integers(lo, hi))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _l1_scale(dim: int, epsilon: float) -> float:
    _check_count("dim", dim)
    _check_positive("epsilon", epsilon)
    scale = 4.0 / epsilon
    if not math.isfinite(scale):
        raise ValueError(f"epsilon={epsilon} overflows the noise scale 4/epsilon")
    return scale


def sample_l1_perturbation(dim: int, epsilon: float, rng: RngStream) -> np.ndarray:
    """Random vector b with density proportional to exp(-epsilon ||b||_1 / 4).

    ||b||_1 is drawn as the sum of ``dim`` i.i.d. exponentials of mean
    4/epsilon (a Gamma(dim, 4/epsilon) variate), then multiplied by a
    direction uniform on the L1 sphere (``dim`` unit-Laplace draws divided by
    their L1 norm).  Draw order: norm first, then direction.
    """
    return sample_l1_perturbations(dim, epsilon, rng, 1)[0]


def sample_l1_perturbations(dim: int, epsilon: float, rng: RngStream, count: int) -> np.ndarray:
    """``count`` draws of :func:`sample_l1_perturbation` as a (count, dim)
    array, drawn one after another from ``rng``: row i is the i-th of
    ``count`` successive ``sample_l1_perturbation(dim, epsilon, rng)`` calls,
    bit for bit, and the stream ends where those calls leave it.

    Each row takes ``2 dim`` uniforms, the norm's then the direction's.  They
    are drawn and transformed one block of rows at a time, so memory stays at
    one block plus the result, whatever ``count`` is.
    """
    scale = _l1_scale(dim, epsilon)
    _check_count("count", count)
    out = np.empty((count, dim))
    for start in range(0, count, _L1_BLOCK_ROWS):
        rows = min(count - start, _L1_BLOCK_ROWS)
        u = rng.uniform_open(2 * dim * rows).reshape(rows, 2 * dim)
        norms = _exponential(u[:, :dim], scale).sum(axis=1, keepdims=True)
        raw = _laplace(u[:, dim:], 1.0)
        np.multiply(norms, raw / np.abs(raw).sum(axis=1, keepdims=True), out=out[start : start + rows])
    return out


def gamma_tail_bound(d: int, alpha: float, epsilon: float) -> float:
    """(1 - alpha)-quantile upper bound for a Gamma(d+1, 4/epsilon) norm draw.

    Returns 4 (d+1) ln((d+1)/alpha) / epsilon (natural log).  Monotone
    decreasing in both alpha and epsilon.
    """
    _check_nonnegative("d", d)
    _check_probability("alpha", alpha)
    _check_epsilon(epsilon)
    return 4.0 * (d + 1) * math.log((d + 1) / alpha) / epsilon
