"""Data model and deterministic objective mathematics for median (L1) regression.

All containers are immutable after construction and every operation is a pure
function of its arguments, so everything in this module can be evaluated
concurrently without synchronization.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "Dataset",
    "Theta",
    "Release",
    "residuals",
    "objective_l1",
    "huber_rho",
    "smoothed_objective",
    "smoothed_gradient",
    "directional_derivatives",
    "perturbed_objective_le",
]

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


def _check_count(name: str, value) -> None:
    """Refuse a size, dimension or count that is not an integer >= 1; a bool
    is not a count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _as_integer(name: str, value) -> int:
    """A seed or stream id as an int; a bool, a float or a string is refused."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
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


def _check_private_run(cfg: _MechanismConfig, rng) -> None:
    """Refuse a finite epsilon with lam = 0 or without a stream, before any
    fitting or draw: both calibrated mechanisms need the ridge's strong
    convexity for their noise to bound a one-record change."""
    if math.isinf(cfg.epsilon):
        return
    if cfg.lam == 0:
        raise ValueError("lam (lambda) must be positive when epsilon is finite")
    if rng is None:
        raise ValueError("a finite epsilon needs an RngStream to draw the noise from, got None")


def _frozen_array(values, ndim: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must have {ndim} dimension(s), got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Dataset:
    """Bounded regression data: ``n`` rows of predictors plus responses.

    Every row of ``X`` must have L1 norm at most 1 and every response must
    satisfy ``|Y_i| <= B``; both are checked at construction.  Use
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
        max_row = float(np.abs(X).sum(axis=1).max())
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


@dataclass(frozen=True)
class Theta:
    """Intercept ``mu`` and coefficient vector ``beta``."""

    mu: float
    beta: np.ndarray

    def __post_init__(self) -> None:
        mu = float(self.mu)
        if not np.isfinite(mu):
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


@dataclass(frozen=True)
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


def objective_l1(theta: Theta, data: Dataset, lam: float) -> float:
    """Mean absolute residual plus the ridge penalty (lam/2) beta'beta."""
    _check_nonnegative("lam", lam)
    r = residuals(theta, data)
    return float(np.abs(r).sum() / data.n + 0.5 * lam * theta.beta @ theta.beta)


def huber_rho(t, gamma: float):
    """Quadratic-near-zero surrogate for |t| with half-width ``gamma``.

    t^2 / (2 gamma) on |t| <= gamma, |t| - gamma/2 outside; continuous with a
    continuous first derivative at |t| = gamma.  The uniform gap to |t| never
    exceeds gamma/2.
    """
    _check_positive("gamma", gamma)
    arr = np.asarray(t, dtype=float)
    at = np.abs(arr)
    out = np.where(at <= gamma, arr * arr / (2.0 * gamma), at - 0.5 * gamma)
    if arr.ndim == 0:
        return float(out)
    return out


def design_matrix(X: np.ndarray) -> np.ndarray:
    """Intercept-augmented design (1, X), so that (1, X) @ (mu, beta) = mu + X beta."""
    return np.column_stack([np.ones(X.shape[0]), X])


def _spd_solve(A: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solution of A x = rhs by Cholesky factorization of the symmetric
    matrix A (lower triangle), or None when A is not positive definite.

    These are the LAPACK calls and flags of scipy's cho_factor/cho_solve,
    without their batching and copying wrappers; A and rhs are not modified.
    """
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    c, info = dpotrf(A, lower=True, overwrite_a=False, clean=False)
    if info > 0:
        return None
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    x, info = dpotrs(c, rhs, lower=True, overwrite_b=False)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _band_signs(r: np.ndarray, gamma: float) -> np.ndarray:
    """-1.0 / 0.0 / +1.0 per residual against the inclusive band [-gamma, gamma]."""
    return np.subtract(r > gamma, r < -gamma, dtype=float)


def _smoothed_terms(Xt: np.ndarray, Y: np.ndarray, omega: np.ndarray, gamma: float, ridge, tilt):
    """(r, s, w, grad) of mean_i rho_gamma(r_i) + (1/2) sum_j ridge_j omega_j^2
    + tilt'omega at r = Xt omega - Y: residuals, band signs (inclusive band),
    in-band indicators 1 - s^2, and the gradient the smoothed solver uses."""
    r = Xt @ omega - Y
    s = _band_signs(r, gamma)
    w = 1.0 - s * s
    bracket = (w * r) / gamma + s
    grad = Xt.T @ bracket / Y.shape[0] + ridge * omega + tilt
    return r, s, w, grad


def smoothed_objective(theta: Theta, data: Dataset, lam: float, gamma: float) -> float:
    """Mean smoothed absolute residual plus the ridge penalty (lam/2) beta'beta."""
    _check_nonnegative("lam", lam)
    _check_positive("gamma", gamma)
    r = residuals(theta, data)
    return float(np.sum(huber_rho(r, gamma)) / data.n + 0.5 * lam * theta.beta @ theta.beta)


def smoothed_gradient(theta: Theta, data: Dataset, lam: float, gamma: float) -> Theta:
    """Gradient of :func:`smoothed_objective`, returned in Theta shape.

    The per-sample factor (r_i / gamma) inside the band and sign(r_i) outside
    always lies in [-1, 1]; at |r_i| == gamma the two branches coincide, so the
    inclusive band assignment is immaterial here.  This is the solver's
    gradient with an unpenalized intercept and no tilt.
    """
    _check_nonnegative("lam", lam)
    _check_positive("gamma", gamma)
    if theta.d != data.d:
        raise ValueError(f"theta has d={theta.d} but data has d={data.d}")
    ridge = np.full(data.d + 1, lam)
    ridge[0] = 0.0
    _, _, _, grad = _smoothed_terms(design_matrix(data.X), data.Y, theta.as_vector(), gamma, ridge, 0.0)
    return Theta.from_vector(grad)


def _coordinate_step(r: np.ndarray, xk: np.ndarray, n: int, lam_beta_k: float, eta: float):
    """(d_plus, d_minus, step): one-sided slopes of the mean absolute residual
    plus (lam/2) beta'beta along +/- coordinate k, and alg3's step, which is
    -eta d_plus if d_plus < 0, else eta d_minus if d_minus < 0, else 0.

    Residuals that are neither positive nor negative (0, -0.0) add |x_ik| to
    both slopes; that pass runs only when there are some.  Every sum is
    numpy's pairwise reduction of a compacted slice, so the bits do not
    depend on the stride of ``xk``."""
    up = xk[r > 0]
    down = xk[r < 0]
    swing = float(np.add.reduce(up) - np.add.reduce(down))
    kink = 0.0
    if up.size + down.size < xk.size:
        kink = float(np.abs(xk[~((r > 0) | (r < 0))]).sum())
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
    if not 0 <= k < data.d:
        raise IndexError(f"coordinate k={k} out of range for d={data.d}")
    r = residuals(theta, data)
    d_plus, d_minus, _ = _coordinate_step(r, data.X[:, k], data.n, lam * float(theta.beta[k]), 0.0)
    return d_plus, d_minus


def perturbed_objective_le(theta: Theta, data: Dataset, lam: float, e: float) -> float:
    """Log-perturbed absolute-deviation criterion, per-sample normalized:

        (2/n) sum_i [ |r_i| - e ln(e + |r_i|) ] + (lam/2) beta'beta.

    It is tangent from below to the 1/(|r|+e)-reweighted quadratic criterion
    and therefore cannot increase across a reweighted least-squares update;
    the descent checks use it.
    """
    _check_positive("e", e)
    _check_nonnegative("lam", lam)
    r = np.abs(residuals(theta, data))
    ridge = 0.5 * lam * float(theta.beta @ theta.beta)
    return float(2.0 / data.n * np.sum(r - e * np.log(e + r)) + ridge)
