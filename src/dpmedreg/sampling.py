"""Seedable randomness: replayable streams, Laplace noise, and the
objective-perturbation tilt, a vector of i.i.d. Laplace draws.

Every sampler checks its arguments and is an inverse-CDF construction (no
rejection steps), so a fixed (seed, stream) pair replays bit-identically.
All randomness in the package flows through :class:`RngStream`, and every
release's noise is drawn by :meth:`RngStream.laplaces`.  Each uniform
is one raw PCG64 output: ``Generator.random`` takes its top 53 bits m as
m / 2**53, and adding 2**-54 gives ``(m + 0.5) / 2**53``, the midpoint of
cell m, for m < 2**52.  Above 1/2 that midpoint falls between two doubles and
the sum rounds to the even one, as ``(m + 0.5)`` rounds before its division,
so the stream is the one ``Generator.integers(0, 2**53)`` gives.  The top
cell would round to 1.0 and is clamped to 1 - 2**-53, so every uniform lies
in [2**-54, 1 - 2**-53].  Each draw takes one uniform, so successive draws
from one stream have the bits of one draw of their total length.
"""

from __future__ import annotations

import math

import numpy as np

from .model import _as_integer, _check_count, _check_epsilon, _check_nonnegative
from .model import _check_positive, _check_probability, _check_scale_finite, _UNIT_DRAW_BOUND

__all__ = [
    "RngStream",
    "sample_l1_perturbation",
    "gamma_tail_bound",
]


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
        path += tuple([_as_integer("stream id", i) for i in ids])
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
        top 53 bits pick one of 2**53 equal cells, and the uniform is the
        cell's midpoint (above 1/2, the even double next to it), with the top
        cell's 1.0 clamped to 1 - 2**-53."""
        _check_count("k", k)
        u = self._gen.random(k)
        u += 2.0**-54
        np.minimum(u, 1.0 - 2.0**-53, out=u)
        return u

    def laplaces(self, scale: float, k: int) -> np.ndarray:
        """k i.i.d. draws with density (1/2c) exp(-|x|/c), c = ``scale``
        (positive, and small enough that no draw overflows), one uniform
        each: the inverse CDF x = -c sign(u - 1/2) ln(1 - 2|u - 1/2|).  Every
        step runs in place and is the formula's operation, so the bits are
        those of the out-of-place form."""
        _check_positive("scale", scale)
        if not float(scale) * _UNIT_DRAW_BOUND < math.inf:
            raise ValueError(f"scale={scale} draws values that overflow the float range")
        u = self.uniform_open(k)
        u -= 0.5
        out = np.sign(u)
        out *= -float(scale)
        np.abs(u, out=u)
        u *= -2.0
        out *= np.log1p(u, out=u)
        return out

    def uniforms(self, lo: float, hi: float, k: int) -> np.ndarray:
        """k i.i.d. draws uniform on (lo, hi); the width hi - lo must be positive and finite."""
        _check_positive("hi - lo", hi - lo)
        u = self.uniform_open(k)
        u *= hi - lo
        u += lo
        return u

    def permutation(self, n: int) -> np.ndarray:
        """A uniformly random ordering of 0, ..., n - 1; n is a positive integer."""
        _check_count("n", n)
        return self._gen.permutation(int(n))

    def integer(self, lo: int, hi: int) -> int:
        """One integer in [lo, hi); both ends are integers."""
        return int(self._gen.integers(_as_integer("lo", lo), _as_integer("hi", hi)))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def _l1_scale(dim: int, epsilon: float) -> float:
    _check_count("dim", dim)
    _check_positive("epsilon", epsilon)
    scale = 4.0 / epsilon
    _check_scale_finite(epsilon, dim * scale)  # the L1 norm sums dim draws
    return scale


def sample_l1_perturbation(dim: int, epsilon: float, rng: RngStream) -> np.ndarray:
    """Random vector b with density proportional to exp(-epsilon ||b||_1 / 4).

    That density is the product of ``dim`` Laplace(4/epsilon) densities, so b
    is ``rng.laplaces(4 / epsilon, dim)``, and ||b||_1, a sum of ``dim``
    exponentials of mean 4/epsilon, is a Gamma(dim, 4/epsilon) variate.
    """
    return rng.laplaces(_l1_scale(dim, epsilon), dim)


def gamma_tail_bound(d: int, alpha: float, epsilon: float) -> float:
    """(1 - alpha)-quantile upper bound for a Gamma(d+1, 4/epsilon) norm draw.

    Returns 4 (d+1) ln((d+1)/alpha) / epsilon (natural log).  Monotone
    decreasing in both alpha and epsilon.  ``d`` is an integer >= 0; a bool
    or a fractional ``d`` is refused.
    """
    _check_nonnegative("d", _as_integer("d", d))
    _check_probability("alpha", alpha)
    _check_epsilon(epsilon)
    return 4.0 * (d + 1) * math.log((d + 1) / alpha) / epsilon
