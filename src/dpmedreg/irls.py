"""Iteratively reweighted least squares for median regression with calibrated
Laplace output perturbation.

Each pass solves the weighted ridge problem

    (1/n) sum_i w_i r_i^2  +  (lam/2) beta'beta          (mu unpenalized)

with weights w_i = 1 / (|r_i| + e) frozen at the previous iterate.  The
private fit adds i.i.d. Laplace noise per output coordinate, with scale equal
to the worst-case one-record L1 sensitivity divided by epsilon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    Dataset,
    Release,
    Theta,
    _check_count,
    _check_epsilon,
    _check_nonnegative,
    _check_positive,
    _check_probability,
    _check_private_run,
    _MechanismConfig,
    _spd_solve,
    design_matrix,
    residuals,
)
from .sampling import RngStream

__all__ = [
    "IrlsConfig",
    "IrlsTrace",
    "SingularSystemError",
    "default_coefficient_bound",
    "weighted_ridge_solve",
    "irls_fit",
    "irls_sensitivity",
    "fit_irls_private",
    "irls_accuracy_bound",
]


class SingularSystemError(RuntimeError):
    """The weighted normal equations are not positive definite."""


@dataclass(frozen=True)
class IrlsConfig(_MechanismConfig):
    """Knobs for the reweighted fit.  The bound on beta'beta in the
    sensitivity constant is not one: :func:`default_coefficient_bound`
    derives it from (B, lam, e)."""

    e: float = 0.2
    tau: float = 1e-6
    max_iters: int = 200

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive("e", self.e)
        _check_positive("tau", self.tau)
        _check_count("max_iters", self.max_iters)


def default_coefficient_bound(B: float, lam: float, e: float) -> float:
    """The bound v = 8 B^2/(lam e) on beta'beta that every iterate of the
    reweighted fit satisfies on every dataset bounded by B: the ridge term
    of the minimized criterion is at most the criterion's value at the best
    intercept-only point, which is at most (2B)^2 / e.  The noise of
    :func:`fit_irls_private` is private only if v holds on every dataset,
    so v is derived here, never set.  At lam = 0 no such bound exists:
    returns inf, and only the noiseless fit runs."""
    _check_positive("B", B)
    _check_nonnegative("lam", lam)
    _check_positive("e", e)
    if lam == 0:
        return math.inf
    return 8.0 * B * B / (lam * e)


@dataclass(frozen=True)
class IrlsTrace:
    """Per-iteration record of the reweighted fit.

    :attr:`iterations` counts weighted solves after the unit-weight start;
    ``bracket_violations`` counts iterations whose weights escaped
    [1/(2(sqrt(d v)+B)+e), 1/e] at the derived v: zero unless that a-priori
    bound itself fails, which makes it a runtime check of the bound.
    """

    thetas: tuple[Theta, ...]
    converged: bool
    bracket_violations: int

    @property
    def iterations(self) -> int:
        return len(self.thetas) - 1

    @property
    def final(self) -> Theta:
        return self.thetas[-1]


def weighted_ridge_solve(data: Dataset, weights: np.ndarray, lam: float) -> Theta:
    """Unique minimizer of (1/n) sum_i w_i r_i^2 + (lam/2) beta'beta.

    Checks the weights and lam, then solves the (d+1) x (d+1) normal
    equations with :func:`_normal_solve`, the kernel every pass of
    :func:`irls_fit` runs; the intercept is not penalized.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise ValueError(f"weights must have shape ({data.n},), got {w.shape}")
    if not np.all(np.isfinite(w)) or not np.all(w > 0):
        raise ValueError("weights must be positive and finite")
    _check_nonnegative("lam", lam)
    return _normal_solve(design_matrix(data.X), data.Y, w, data.n * lam / 2.0)


def _normal_solve(Xt: np.ndarray, Y: np.ndarray, w: np.ndarray, ridge: float) -> Theta:
    """The (mu, beta) solving (Xt' W Xt + ridge I_beta) omega = Xt' W Y
    by the one Cholesky solve of :mod:`dpmedreg.model`, for the design
    ``Xt`` = (1, X) and positive finite weights ``w``; ``ridge`` is added to
    the beta block of the diagonal only."""
    A = Xt.T @ (Xt * w[:, None])
    diag = np.arange(1, Xt.shape[1])
    A[diag, diag] += ridge
    omega = _spd_solve(A, Xt.T @ (w * Y))
    if omega is None:
        raise SingularSystemError(
            "weighted normal equations are singular (rank-deficient X with lam == 0?)"
        )
    return Theta.from_vector(omega)


def irls_fit(data: Dataset, cfg: IrlsConfig) -> IrlsTrace:
    """Iterate weighted ridge solves with w_i = 1/(|r_i| + e) until both the
    intercept and the coefficient vector move at most tau in L1 norm, or
    ``max_iters`` passes are exhausted.  Starts from the unit-weight solution.

    The design matrix (1, X) and the ridge n lam / 2 are built once per fit
    and every pass runs :func:`_normal_solve` on them, so each iterate is
    bit for bit what :func:`weighted_ridge_solve` gives for the same weights.
    The loop checks its own weights through the min and max the bracket test
    computes: a weight that is not positive or not finite raises ValueError.
    """
    v = default_coefficient_bound(data.B, cfg.lam, cfg.e)
    w_lo = 1.0 / (2.0 * (math.sqrt(data.d * v) + data.B) + cfg.e)
    w_hi = 1.0 / cfg.e
    Xt = design_matrix(data.X)
    ridge = data.n * cfg.lam / 2.0
    theta = _normal_solve(Xt, data.Y, np.ones(data.n), ridge)
    thetas = [theta]
    converged = False
    violations = 0
    for _ in range(cfg.max_iters):
        w = 1.0 / (np.abs(residuals(theta, data)) + cfg.e)
        w_min = float(w.min())
        w_max = float(w.max())
        if not (w_min > 0 and w_max < math.inf):
            raise ValueError("weights must be positive and finite")
        if w_min < w_lo * (1.0 - 1e-12) or w_max > w_hi * (1.0 + 1e-12):
            violations += 1
        new = _normal_solve(Xt, data.Y, w, ridge)
        dmu = abs(new.mu - theta.mu)
        dbeta = float(np.abs(new.beta - theta.beta).sum())
        thetas.append(new)
        theta = new
        if dmu <= cfg.tau and dbeta <= cfg.tau:
            converged = True
            break
    return IrlsTrace(thetas=tuple(thetas), converged=converged, bracket_violations=violations)


def irls_sensitivity(d: int, n: int, B: float, lam: float, e: float) -> float:
    """Worst-case one-record L1 sensitivity of the reweighted solution at
    v = :func:`default_coefficient_bound` (B, lam, e):

        c = 8 (sqrt(d v) + B) / (n min(2 / (2 (sqrt(d v) + B) + e), lam) e).
    """
    _check_count("d", d)
    _check_count("n", n)
    _check_positive("lam", lam)
    reach = math.sqrt(d * default_coefficient_bound(B, lam, e)) + B
    curvature = min(2.0 / (2.0 * reach + e), lam)
    if not curvature > 0:
        raise ValueError(f"B={B}, lam={lam} and e={e} overflow the sensitivity constant")
    return 8.0 * reach / (n * curvature * e)


def fit_irls_private(data: Dataset, cfg: IrlsConfig, rng: RngStream | None) -> Release:
    """Reweighted fit plus i.i.d. Laplace noise per coordinate at
    ``noise_scale`` = c / epsilon, where c is :func:`irls_sensitivity` at the
    derived coefficient bound; ``solver_iters`` is the trace's
    ``iterations``.  A finite epsilon needs lam > 0 and a stream, checked
    before the fit, as is a c or a c/epsilon that overflows: c grows
    without bound as lam -> 0.
    With epsilon = inf no draw is consumed (``rng`` may be None), c is not
    computed, the noise is exactly zero and the estimate is
    ``irls_fit(data, cfg).final`` itself, the noiseless fit bit for bit.
    """
    _check_private_run(cfg, rng)
    private = not math.isinf(cfg.epsilon)
    scale = irls_sensitivity(data.d, data.n, data.B, cfg.lam, cfg.e) / cfg.epsilon if private else 0.0
    if not math.isfinite(scale):
        raise ValueError(f"epsilon={cfg.epsilon} overflows the noise scale c/epsilon")
    trace = irls_fit(data, cfg)
    theta = trace.final
    noise = np.zeros(data.d + 1)
    if private:
        noise = rng.laplaces(scale, data.d + 1)
        theta = Theta(mu=theta.mu + noise[0], beta=theta.beta + noise[1:])
    return Release(theta=theta, noise=noise, noise_scale=scale, solver_iters=trace.iterations)


def irls_accuracy_bound(
    d: int, alpha: float, n: int, lam: float, epsilon: float, e: float, B: float
) -> float:
    """(1 - alpha)-probability bound on the L1 norm of the added noise, at
    v = :func:`default_coefficient_bound` (B, lam, e):

        8 (sqrt(d v)+B) (d+1) ln((d+1)/alpha)
        -------------------------------------- .
        epsilon min(2/(2(sqrt(d v)+B)+e), lam) n e
    """
    _check_probability("alpha", alpha)
    _check_epsilon(epsilon)
    c = irls_sensitivity(d, n, B, lam, e)
    return c * (d + 1) * math.log((d + 1) / alpha) / epsilon
