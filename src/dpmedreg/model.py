"""Data model, knob checks and solver kernels for median (L1) regression:
the penalized L1 (or Huber-smoothed) objective value, the intercept-augmented
design, the Cholesky solve of a stack of systems and alg3's coordinate step.

The Cholesky solve calls LAPACK's ``dpotrf`` and ``dpotrs`` through scipy's
compiled ``scipy.linalg._flapack`` extension, which this module loads on its
own: importing ``scipy.linalg`` to reach them would cost most of the
package's import time and about 18 MiB per process.  They are the function
objects ``scipy.linalg.lapack`` re-exports, so the solves have scipy's bits.

All containers are immutable after construction and every operation is a pure
function of its arguments, so everything in this module can be evaluated
concurrently without synchronization.  The containers that hold arrays are
dataclasses with ``eq=False``: the generated ``==`` would compare the arrays
with ``==`` and raise, so they compare and hash by identity.
"""

from __future__ import annotations

import math
import numbers
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import module_from_spec, spec_from_file_location

import numpy as np
import scipy

__all__ = [
    "Dataset",
    "Theta",
    "Release",
    "residuals",
    "objective_l1",
    "directional_derivatives",
]


def _load_flapack():
    """scipy's LAPACK extension module, loaded from its file without running
    ``scipy/linalg/__init__.py`` and registered under its own name, so that a
    later ``import scipy.linalg`` reuses it; an already loaded one is reused.
    ``import scipy`` above has run scipy's own start-up (DLL paths included)."""
    name = "scipy.linalg._flapack"
    module = sys.modules.get(name)
    if module is None:
        path = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack" + EXTENSION_SUFFIXES[0])
        if not os.path.isfile(path):
            raise ImportError(f"scipy's LAPACK extension {path} is missing", name=name, path=path)
        spec = spec_from_file_location(name, path)
        module = module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpotrf, dpotrs = _flapack.dpotrf, _flapack.dpotrs

def _row_sums(A: np.ndarray) -> np.ndarray:
    """``A.sum(axis=1)`` of a 2-D array with at least one column, bit for bit.

    numpy adds a row of fewer than 8 entries left to right from +0.0 (so a
    row of -0.0 sums to +0.0); adding the columns in that order does the same
    sums a column at a time, which is several times faster on short rows than
    numpy's reduction along them.  Wider rows go to ``A.sum(axis=1)``."""
    if A.shape[1] >= 8:
        return A.sum(axis=1)
    out = A[:, 0] + 0.0
    for j in range(1, A.shape[1]):
        out += A[:, j]
    return out


# Absolute slack on construction-time bound checks; normalized data leaves row
# norms within a few ulps of the bound, which must not be rejected.
_BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class _MechanismConfig:
    """The two knobs every mechanism is calibrated by, with the benchmark
    protocol's defaults: the privacy level ``epsilon`` (``math.inf`` is the
    noiseless run) and the ridge weight ``lam``."""

    epsilon: float = 0.1
    lam: float = 0.002

    def __post_init__(self) -> None:
        _check_epsilon(self.epsilon)
        _check_nonnegative("lam", self.lam)


# The package's only checks of a scalar knob, one per kind; each refuses NaN.
def _check_positive(name: str, value: float) -> None:
    """Refuse a knob that must be positive and finite (a width, offset,
    tolerance, scale or bound) when it is not."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_nonnegative(name: str, value: float) -> None:
    """Refuse a knob that may be zero (a ridge weight, step size or
    dimension) when it is negative or infinite."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {value}")


def _is_integer(value) -> bool:
    """True for an int or a numpy integer, False for a bool, a float or a
    string.  The exact-type test spares the common int the ABC check."""
    return type(value) is int or (not isinstance(value, bool) and isinstance(value, numbers.Integral))


def _check_count(name: str, value) -> None:
    """Refuse a size, dimension or count that is not an integer >= 1; a bool
    is not a count."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _as_integer(name: str, value) -> int:
    """A seed or stream id as an int; a bool, a float or a string is refused."""
    if not _is_integer(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _check_probability(name: str, value: float) -> None:
    """Refuse a failure probability outside the open interval (0, 1)."""
    if not 0 < value < 1:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _check_epsilon(epsilon: float) -> None:
    """Refuse a privacy level outside (0, inf]; inf is the noiseless run."""
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")


# RngStream.uniform_open's uniforms lie in [2**-54, 1 - 2**-53], so no draw at
# unit scale exceeds 54 ln 2 = 37.43 in magnitude (an exponential's -ln u; a
# Laplace's reaches 53 ln 2); 38 leaves room for the rounding of their sums.
_UNIT_DRAW_BOUND = 38.0


def _check_scale_finite(epsilon: float, largest: float) -> None:
    """Refuse, before any draw, noise whose draws can overflow: ``largest``
    is the largest scale times the number of draws summed into one entry.
    The one wording of that refusal for every sampler and fitter."""
    if not largest * _UNIT_DRAW_BOUND < math.inf:
        raise ValueError(f"epsilon={epsilon} overflows the noise scale")


def _noise_scale(cfg: _MechanismConfig, rng, scale, needs_ridge: bool = True):
    """The scale a fitter draws its release's noise at, checked before any
    fit or draw: 0.0 at epsilon = inf, where ``scale`` is not called and
    ``rng`` may be None.  A finite epsilon needs a stream and, if
    ``needs_ridge``, lam > 0 (a ridge's strong convexity bounds the
    one-record change); ``scale()``, a scale or an array of per-step scales,
    is then refused if its draws can overflow or an entry rounds to 0."""
    if math.isinf(cfg.epsilon):
        return 0.0
    if needs_ridge and cfg.lam == 0:
        raise ValueError("lam (lambda) must be positive when epsilon is finite")
    if rng is None:
        raise ValueError("a finite epsilon needs an RngStream to draw the noise from, got None")
    # an overflow in the expression is the refusal below, not a warning
    with np.errstate(over="ignore"):
        value = scale()
    _check_scale_finite(cfg.epsilon, float(np.max(value)))
    if not np.all(value):
        raise ValueError(f"epsilon={cfg.epsilon} underflows the noise scale to 0")
    return value


def _frozen_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float, order="C")
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Bounded regression data: ``n`` rows of predictors plus responses.

    Every row of ``X`` must have L1 norm at most 1 and every response must
    satisfy ``|Y_i| <= B``; both are checked at construction.  Both arrays
    are kept as read-only C-ordered copies, so a table's fits do not depend
    on the layout it was given in.  Use
    :func:`dpmedreg.datagen.normalize` to bring raw data into this domain.
    """

    X: np.ndarray
    Y: np.ndarray
    B: float

    def __post_init__(self) -> None:
        X = _frozen_array(self.X, 2, "X")
        Y = _frozen_array(self.Y, 1, "Y")
        B = float(self.B)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)
        object.__setattr__(self, "B", B)
        n, d = X.shape
        if n < 1 or d < 1:
            raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
        if Y.shape[0] != n:
            raise ValueError(f"X has {n} rows but Y has {Y.shape[0]} entries")
        _check_positive("B", B)
        max_row = float(_row_sums(np.abs(X)).max())
        if max_row > 1.0 + _BOUND_SLACK:
            raise ValueError(f"max row L1 norm {max_row} exceeds 1")
        max_y = float(np.abs(Y).max())
        if max_y > B + _BOUND_SLACK:
            raise ValueError(f"max |Y_i| {max_y} exceeds bound B={B}")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True, eq=False)
class Theta:
    """Intercept ``mu`` and coefficient vector ``beta``."""

    mu: float
    beta: np.ndarray

    def __post_init__(self) -> None:
        mu = float(self.mu)
        if not math.isfinite(mu):
            raise ValueError("mu must be finite")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "beta", _frozen_array(self.beta, 1, "beta"))

    @property
    def d(self) -> int:
        return self.beta.shape[0]

    def as_vector(self) -> np.ndarray:
        """Stacked parameter vector (mu, beta_1, ..., beta_d)."""
        return np.concatenate(([self.mu], self.beta))

    @classmethod
    def from_vector(cls, omega: np.ndarray) -> "Theta":
        omega = np.asarray(omega, dtype=float)
        return cls(mu=float(omega[0]), beta=omega[1:])


@dataclass(frozen=True, eq=False)
class Release:
    """What one private fit releases: the estimate ``theta``, the noise drawn
    for it (made read-only here; all zeros at epsilon = inf), the scale that
    noise was drawn at (0 at epsilon = inf) and the solver's iteration count.
    Each fitter's docstring says what its noise, scale and count are."""

    theta: Theta
    noise: np.ndarray
    noise_scale: float
    solver_iters: int

    def __post_init__(self) -> None:
        self.noise.setflags(write=False)


def residuals(theta: Theta, data: Dataset) -> np.ndarray:
    """r_i = mu + X_i . beta - Y_i for every sample."""
    if theta.d != data.d:
        raise ValueError(f"theta has d={theta.d} but data has d={data.d}")
    return theta.mu + data.X @ theta.beta - data.Y


def objective_l1(theta: Theta, data: Dataset, lam: float, gamma: float = 0.0) -> float:
    """mean_i rho_gamma(r_i) + (lam/2) beta'beta, where rho_0 = |.| and, for
    gamma > 0, rho_gamma is the Huber surrogate: t^2/(2 gamma) on |t| <= gamma
    and |t| - gamma/2 outside, within gamma/2 of |t| everywhere."""
    _check_nonnegative("lam", lam)
    _check_nonnegative("gamma", gamma)
    r = np.abs(residuals(theta, data))
    if gamma > 0:
        r = np.where(r <= gamma, r * r / (2.0 * gamma), r - 0.5 * gamma)
    return float(r.sum() / data.n + 0.5 * lam * theta.beta @ theta.beta)


def design_matrix(X: np.ndarray) -> np.ndarray:
    """Intercept-augmented design (1, X), so that (1, X) @ (mu, beta) = mu + X beta.

    ``X`` may be a stack (..., n, d) of tables; the result is one C-ordered
    float (..., n, d + 1) array, the ones column filled first."""
    Xt = np.empty(X.shape[:-1] + (X.shape[-1] + 1,))
    Xt[..., 0] = 1.0
    Xt[..., 1:] = X
    return Xt


def _spd_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solutions x (m, p) of a stack of systems A x = rhs, A (m, p, p) and
    rhs (m, p), by Cholesky factorization of each symmetric A (lower
    triangle), or None when any A is not positive definite.

    The stack is checked once and solved one system at a time by the same
    calls, so each row of x has the bits of its own solve; a single system
    is a stack of one.  These are the LAPACK calls and flags of scipy's
    cho_factor/cho_solve, without their batching and copying wrappers; A
    and rhs are not modified.  ``dpotrf`` and ``dpotrs`` come from scipy's
    ``_flapack`` extension, not from ``scipy.linalg.lapack``, so that
    importing the package does not load ``scipy.linalg`` (see the module
    docstring); they are the same functions.
    """
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    x = np.empty(rhs.shape)
    for k in range(A.shape[0]):
        c, info = dpotrf(A[k], lower=True, overwrite_a=False, clean=False)
        if info > 0:
            return None
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        x[k], info = dpotrs(c, rhs[k], lower=True, overwrite_b=False)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


# 0.0 as a read-only 0-d array: comparing against it spares numpy the
# conversion of a Python float on each of _coordinate_step's calls
_ZERO = np.zeros(())
_ZERO.setflags(write=False)


def _coordinate_step(r: np.ndarray, xk: np.ndarray, n: int, lam_beta_k: float, eta: float):
    """(d_plus, d_minus, step): one-sided slopes of the mean absolute residual
    plus (lam/2) beta'beta along +/- coordinate k, and alg3's step, which is
    -eta d_plus if d_plus < 0, else eta d_minus if d_minus < 0, else 0.

    Residuals that are neither positive nor negative (0, -0.0) add |x_ik| to
    both slopes; that pass runs only when there are some.  The sign masks
    are computed once for both passes.  Every sum is numpy's pairwise
    reduction of a compacted slice, so the bits do not depend on the stride
    of ``xk``."""
    pos = np.greater(r, _ZERO)
    neg = np.less(r, _ZERO)
    up = xk[pos]
    down = xk[neg]
    swing = float(np.add.reduce(up)) - float(np.add.reduce(down))
    kink = 0.0
    if up.size + down.size < xk.size:
        kink = float(np.abs(xk[~(pos | neg)]).sum())
    d_plus = (swing + kink) / n + lam_beta_k
    d_minus = (-swing + kink) / n - lam_beta_k
    if d_plus < 0.0:
        return d_plus, d_minus, -eta * d_plus
    if d_minus < 0.0:
        return d_plus, d_minus, eta * d_minus
    return d_plus, d_minus, 0.0


def directional_derivatives(theta: Theta, data: Dataset, lam: float, k: int):
    """One-sided derivatives of :func:`objective_l1` along +/- coordinate k.

    Samples with r_i exactly zero contribute |x_ik| to both sides.  The ridge
    term contributes +lam beta_k forward and -lam beta_k backward, so away
    from kinks d_plus == -d_minus.  ``k`` is a 0-based coordinate index.
    """
    _check_nonnegative("lam", lam)
    k = _as_integer("k", k)
    if not 0 <= k < data.d:
        raise IndexError(f"coordinate k={k} out of range for d={data.d}")
    r = residuals(theta, data)
    d_plus, d_minus, _ = _coordinate_step(r, data.X[:, k], data.n, lam * float(theta.beta[k]), 0.0)
    return d_plus, d_minus
