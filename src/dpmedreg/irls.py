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

from .model import Dataset, Theta, _spd_solve, design_matrix, residuals
from .sampling import RngStream, sample_laplace
from .verification import ProbeResult, neighbor_probe

__all__ = [
    "IrlsConfig",
    "IrlsTrace",
    "IrlsReport",
    "SingularSystemError",
    "default_coefficient_bound",
    "weighted_ridge_solve",
    "irls_fit",
    "irls_sensitivity",
    "fit_irls_private",
    "irls_accuracy_bound",
    "irls_sensitivity_probe",
]


class SingularSystemError(RuntimeError):
    """The weighted normal equations are not positive definite."""


@dataclass(frozen=True)
class IrlsConfig:
    """Knobs for the reweighted fit.

    ``v`` bounds beta'beta in the sensitivity constant; when omitted it
    defaults to the a-priori bound 8 B^2 / (lam e), which every iterate
    provably satisfies (the ridge term of the minimized criterion is at most
    the criterion's value at the best intercept-only point, which is at most
    (2B)^2 / e).
    """

    epsilon: float | None = None
    lam: float = 0.002
    e: float = 0.2
    tau: float = 1e-6
    max_iters: int = 200
    v: float | None = None

    def __post_init__(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if not 0 < self.e < math.inf:
            raise ValueError(f"e must be positive and finite, got {self.e}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.v is not None and not 0 < self.v < math.inf:
            raise ValueError(f"v must be positive and finite, got {self.v}")


def default_coefficient_bound(B: float, lam: float, e: float) -> float:
    """A-priori bound on beta'beta along the reweighted iteration: 8 B^2/(lam e)."""
    if not (B > 0 and lam > 0 and e > 0):
        raise ValueError("B, lam and e must be positive")
    return 8.0 * B * B / (lam * e)


def _resolve_v(cfg: IrlsConfig, B: float) -> float:
    if cfg.v is not None:
        return cfg.v
    if cfg.lam == 0:
        raise ValueError("v must be given explicitly when lam == 0")
    return default_coefficient_bound(B, cfg.lam, cfg.e)


@dataclass(frozen=True)
class IrlsTrace:
    """Per-iteration record of the reweighted fit.

    ``iterations`` counts weighted solves after the unit-weight start;
    ``bracket_violations`` counts iterations whose weights escaped
    [1/(2(sqrt(d v)+B)+e), 1/e], which signals a misconfigured v.
    """

    thetas: tuple[Theta, ...]
    converged: bool
    iterations: int
    bracket_violations: int
    v: float

    @property
    def final(self) -> Theta:
        return self.thetas[-1]


@dataclass(frozen=True)
class IrlsReport:
    """Private-fit result: noisy estimate plus (read-only) noise, its
    metadata and the trace; the coefficient bound used is ``trace.v``."""

    theta: Theta
    noise: np.ndarray
    noise_scale: float
    sensitivity: float
    trace: IrlsTrace


def weighted_ridge_solve(data: Dataset, weights: np.ndarray, lam: float) -> Theta:
    """Unique minimizer of (1/n) sum_i w_i r_i^2 + (lam/2) beta'beta.

    Solved through the (d+1) x (d+1) normal equations by the one Cholesky
    solve of :mod:`dpmedreg.model`; the intercept is not penalized.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise ValueError(f"weights must have shape ({data.n},), got {w.shape}")
    if not np.all(np.isfinite(w)) or not np.all(w > 0):
        raise ValueError("weights must be positive and finite")
    if lam < 0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
    Xt = design_matrix(data.X)
    A = Xt.T @ (Xt * w[:, None])
    diag = np.arange(1, data.d + 1)
    A[diag, diag] += data.n * lam / 2.0
    omega = _spd_solve(A, Xt.T @ (w * data.Y))
    if omega is None:
        raise SingularSystemError(
            "weighted normal equations are singular (rank-deficient X with lam == 0?)"
        )
    return Theta.from_vector(omega)


def irls_fit(data: Dataset, cfg: IrlsConfig) -> IrlsTrace:
    """Iterate weighted ridge solves with w_i = 1/(|r_i| + e) until both the
    intercept and the coefficient vector move at most tau in L1 norm, or
    ``max_iters`` passes are exhausted.  Starts from the unit-weight solution.
    """
    v = _resolve_v(cfg, data.B)
    w_lo = 1.0 / (2.0 * (math.sqrt(data.d * v) + data.B) + cfg.e)
    w_hi = 1.0 / cfg.e
    theta = weighted_ridge_solve(data, np.ones(data.n), cfg.lam)
    thetas = [theta]
    converged = False
    violations = 0
    iterations = 0
    for _ in range(cfg.max_iters):
        w = 1.0 / (np.abs(residuals(theta, data)) + cfg.e)
        if float(w.min()) < w_lo * (1.0 - 1e-12) or float(w.max()) > w_hi * (1.0 + 1e-12):
            violations += 1
        new = weighted_ridge_solve(data, w, cfg.lam)
        iterations += 1
        dmu = abs(new.mu - theta.mu)
        dbeta = float(np.abs(new.beta - theta.beta).sum())
        thetas.append(new)
        theta = new
        if dmu <= cfg.tau and dbeta <= cfg.tau:
            converged = True
            break
    return IrlsTrace(
        thetas=tuple(thetas),
        converged=converged,
        iterations=iterations,
        bracket_violations=violations,
        v=v,
    )


def irls_sensitivity(d: int, n: int, B: float, lam: float, e: float, v: float) -> float:
    """Worst-case one-record L1 sensitivity of the reweighted solution:

        c = 8 (sqrt(d v) + B) / (n min(2 / (2 (sqrt(d v) + B) + e), lam) e).
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if not (B > 0 and lam > 0 and e > 0 and v > 0):
        raise ValueError("B, lam, e and v must be positive")
    reach = math.sqrt(d * v) + B
    curvature = min(2.0 / (2.0 * reach + e), lam)
    if not curvature > 0:
        raise ValueError(f"v={v} and B={B} overflow the sensitivity constant")
    return 8.0 * reach / (n * curvature * e)


def fit_irls_private(data: Dataset, cfg: IrlsConfig, rng: RngStream) -> IrlsReport:
    """Reweighted fit plus i.i.d. Laplace(c / epsilon) noise per coordinate,
    where c is :func:`irls_sensitivity`.  With epsilon = inf no draw is
    consumed, the noise is exactly zero and the estimate is ``trace.final``
    itself, the noiseless fit bit for bit.
    """
    if cfg.epsilon is None:
        raise ValueError("private fit requires epsilon")
    trace = irls_fit(data, cfg)
    c = irls_sensitivity(data.d, data.n, data.B, cfg.lam, cfg.e, trace.v)
    base = trace.final
    if math.isinf(cfg.epsilon):
        scale = 0.0
        noise = np.zeros(data.d + 1)
        theta = base
    else:
        scale = c / cfg.epsilon
        noise = sample_laplace(scale, data.d + 1, rng)
        theta = Theta(mu=base.mu + noise[0], beta=base.beta + noise[1:])
    noise.setflags(write=False)
    return IrlsReport(theta=theta, noise=noise, noise_scale=scale, sensitivity=c, trace=trace)


def irls_accuracy_bound(
    d: int, alpha: float, n: int, lam: float, epsilon: float, e: float, v: float, B: float
) -> float:
    """(1 - alpha)-probability bound on the L1 norm of the added noise:

        8 (sqrt(d v)+B) (d+1) ln((d+1)/alpha)
        -------------------------------------- .
        epsilon min(2/(2(sqrt(d v)+B)+e), lam) n e
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    c = irls_sensitivity(d, n, B, lam, e, v)
    return c * (d + 1) * math.log((d + 1) / alpha) / epsilon


def irls_sensitivity_probe(
    n: int, d: int, trials: int, cfg: IrlsConfig, rng: RngStream, B: float = 1.0
) -> ProbeResult:
    """Empirical domination check for :func:`irls_sensitivity`.

    Generates random one-record-differing dataset pairs, runs the noiseless
    reweighted fit on both sides, and reports the largest observed L1 output
    difference against the analytic constant.
    """
    bound = irls_sensitivity(d, n, B, cfg.lam, cfg.e, _resolve_v(cfg, B))

    def shift(pair, sub):
        fit_a = irls_fit(pair.a, cfg).final
        fit_b = irls_fit(pair.b, cfg).final
        return abs(fit_a.mu - fit_b.mu) + float(np.abs(fit_a.beta - fit_b.beta).sum())

    return neighbor_probe(n, d, B, trials, bound, rng, shift)
