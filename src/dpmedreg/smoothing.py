"""Smoothed median regression with objective perturbation.

The private fit draws a random linear tilt b (Gamma L1 norm, uniform L1
direction) and minimizes

    mean_i rho_gamma(r_i) + (lam/2) beta'beta + mu^2/sqrt(n) + b'omega/n,

where omega = (mu, beta).  The baseline is the same program with b = 0; the
shared mu^2/sqrt(n) term keeps the intercept direction strongly convex and
makes baseline-vs-private comparisons exact.

The inner solver is a damped Newton method on the piecewise-quadratic
objective: the pseudo-Hessian uses only the in-band samples, directions are
Levenberg-damped when that matrix is rank-deficient, and the step length is
the exact minimizer along the search direction (the restriction is a convex
piecewise quadratic whose breakpoints are band crossings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Dataset, Theta, _smoothed_terms, _spd_solve, design_matrix
from .sampling import RngStream, gamma_tail_bound, sample_l1_perturbation

__all__ = [
    "SmoothingConfig",
    "SmoothingReport",
    "ConvergenceError",
    "fit_smoothed_baseline",
    "fit_smoothed_private",
    "smoothing_accuracy_bound",
]


@dataclass(frozen=True)
class SmoothingConfig:
    """Knobs for the smoothed fit; epsilon is only used by the private path.

    A finite epsilon needs lam > 0: objective perturbation is private only for
    a strongly convex regularizer (Chaudhuri, Monteleoni and Sarwate, JMLR
    2011), and without the ridge the tilt b'omega/n can make the program
    unbounded below along a coefficient.
    """

    epsilon: float | None = None
    lam: float = 0.002
    gamma: float = 0.05
    solver_tol: float = 1e-8
    max_iters: int = 500

    def __post_init__(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if self.lam == 0 and self.epsilon is not None and math.isfinite(self.epsilon):
            raise ValueError("lam (lambda) must be positive when epsilon is finite")
        if not 0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0 < self.solver_tol < math.inf:
            raise ValueError(f"solver_tol must be positive and finite, got {self.solver_tol}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class SmoothingReport:
    """Private-fit result: estimate plus realized (read-only) noise and
    solver metadata."""

    theta: Theta
    noise: np.ndarray
    solver_iters: int
    final_grad_norm: float


class ConvergenceError(RuntimeError):
    """Solver failed to reach the gradient tolerance; carries the last iterate."""

    def __init__(self, message: str, last_theta: Theta, grad_norm: float, iters: int):
        super().__init__(message)
        self.last_theta = last_theta
        self.grad_norm = grad_norm
        self.iters = iters


def _exact_line_search(r, s, delta, gamma, n, q1, q2):
    """Exact argmin over alpha >= 0 of the 1-d restriction.

    phi(alpha) = mean_i rho_gamma(r_i + alpha delta_i) + q1 alpha + (q2/2) alpha^2.
    phi' is continuous, piecewise linear and nondecreasing; its breakpoints are
    the alphas where a sample crosses the +/-gamma band.  ``s`` holds the band
    signs of ``r``.  Requires phi'(0) < 0.  Raises if the slope never becomes
    nonnegative (descent ray is unbounded).
    """
    inband = s == 0.0
    A0 = float(np.where(inband, r * delta / gamma, s * delta).sum()) / n + q1
    B0 = float(np.where(inband, delta * delta / gamma, 0.0).sum()) / n + q2
    if A0 >= 0.0:
        return 0.0

    d_pos = delta > 0
    d_neg = delta < 0
    below = s < 0.0
    above = s > 0.0
    # Each residual trajectory r_i + alpha delta_i is monotone, so it enters
    # the band at most once and exits at most once.
    ent_mask = (d_pos & below) | (d_neg & above)
    ex_mask = (d_pos & ~above) | (d_neg & ~below)
    with np.errstate(divide="ignore", invalid="ignore"):
        ent_t = np.where(d_pos, -gamma - r, gamma - r) / np.where(delta == 0, 1.0, delta)
        ex_t = np.where(d_pos, gamma - r, -gamma - r) / np.where(delta == 0, 1.0, delta)

    sgn = np.sign(delta)
    # entering: replace the outside slope (s_old = -sign(delta)) by the in-band line
    ent_dA = (r * delta / gamma + sgn * delta) / n
    ent_dB = (delta * delta / gamma) / n
    # exiting: replace the in-band line by the outside slope (s_new = +sign(delta))
    ex_dA = (sgn * delta - r * delta / gamma) / n
    ex_dB = -(delta * delta / gamma) / n

    alphas = np.concatenate([ent_t[ent_mask], ex_t[ex_mask]])
    dA = np.concatenate([ent_dA[ent_mask], ex_dA[ex_mask]])
    dB = np.concatenate([ent_dB[ent_mask], ex_dB[ex_mask]])
    keep = alphas >= 0.0
    alphas, dA, dB = alphas[keep], dA[keep], dB[keep]

    if alphas.size:
        order = np.argsort(alphas, kind="stable")
        alphas = alphas[order]
        A_seg = A0 + np.cumsum(dA[order])
        B_seg = B0 + np.cumsum(dB[order])
        # slope at the right end of each bounded segment [prev, alphas[j])
        starts = np.concatenate([[A0], A_seg[:-1]])
        curves = np.concatenate([[B0], B_seg[:-1]])
        slope_end = starts + curves * alphas
        hit = np.flatnonzero(slope_end >= 0.0)
        if hit.size:
            j = int(hit[0])
            if starts[j] < 0.0:
                return float(-starts[j] / curves[j])
            # slope crossed zero exactly at the preceding breakpoint
            return float(alphas[j - 1]) if j > 0 else 0.0
        A_tail, B_tail = float(A_seg[-1]), float(B_seg[-1])
        lo = float(alphas[-1])
    else:
        A_tail, B_tail, lo = A0, B0, 0.0
    if B_tail <= 0.0:
        raise FloatingPointError("objective is unbounded along the search direction")
    return max(float(-A_tail / B_tail), lo)


def _minimize_smoothed(data: Dataset, lam, gamma, tilt, tol, max_iters):
    """Minimize the tilted smoothed objective; returns (omega, iters, grad_norm)."""
    n, d = data.n, data.d
    Xt = design_matrix(data.X)
    ridge = np.empty(d + 1)
    ridge[0] = 2.0 / math.sqrt(n)
    ridge[1:] = lam
    omega = np.zeros(d + 1)
    for it in range(max_iters + 1):
        r, s, w, grad = _smoothed_terms(Xt, data.Y, omega, gamma, ridge, tilt)
        gnorm = float(np.abs(grad).max())
        if gnorm <= tol:
            return omega, it, gnorm
        if it == max_iters:
            break

        H = (Xt.T * w) @ Xt / (n * gamma)
        H[np.diag_indices_from(H)] += ridge
        # Newton direction from the one Cholesky solve of dpmedreg.model;
        # while H is not positive definite, retry with growing Levenberg damping.
        damp = 0.0
        base = max(float(np.trace(H)) / (d + 1), 1.0)
        for _ in range(10):
            Hd = H
            if damp:
                Hd = H.copy()
                Hd[np.diag_indices_from(Hd)] += damp
            p = _spd_solve(Hd, -grad)
            if p is not None:
                break
            damp = max(damp * 10.0, 1e-12 * base)
        if p is None or not np.all(np.isfinite(p)) or float(grad @ p) >= 0.0:
            p = -grad

        delta = Xt @ p
        q1 = float((ridge * omega + tilt) @ p)
        q2 = float(ridge @ (p * p))
        try:
            alpha = _exact_line_search(r, s, delta, gamma, n, q1, q2)
        except FloatingPointError as exc:
            raise ConvergenceError(str(exc), Theta.from_vector(omega), gnorm, it) from None
        if alpha <= 0.0:
            # Descent direction but nonpositive exact step: the two slope
            # computations disagree at roundoff level while the gradient is
            # still above tolerance, so fail loudly instead of stalling.
            raise ConvergenceError(
                f"line search stalled at gradient norm {gnorm:.3e}",
                Theta.from_vector(omega),
                gnorm,
                it,
            )
        omega = omega + alpha * p
    raise ConvergenceError(
        f"no convergence in {max_iters} iterations (grad norm {gnorm:.3e})",
        Theta.from_vector(omega),
        gnorm,
        max_iters,
    )


def fit_smoothed_baseline(data: Dataset, cfg: SmoothingConfig) -> Theta:
    """Minimize the unperturbed smoothed program (zero tilt)."""
    omega, _, _ = _minimize_smoothed(
        data, cfg.lam, cfg.gamma, np.zeros(data.d + 1), cfg.solver_tol, cfg.max_iters
    )
    return Theta.from_vector(omega)


def fit_smoothed_private(data: Dataset, cfg: SmoothingConfig, rng: RngStream) -> SmoothingReport:
    """Objective-perturbed fit: tilt the smoothed program by b'omega/n.

    With epsilon = inf no draw is consumed and the tilt is exactly zero.
    """
    if cfg.epsilon is None:
        raise ValueError("private fit requires epsilon")
    if math.isinf(cfg.epsilon):
        b = np.zeros(data.d + 1)
    else:
        b = sample_l1_perturbation(data.d + 1, cfg.epsilon, rng)
    b.setflags(write=False)
    omega, iters, gnorm = _minimize_smoothed(
        data, cfg.lam, cfg.gamma, b / data.n, cfg.solver_tol, cfg.max_iters
    )
    return SmoothingReport(
        theta=Theta.from_vector(omega),
        noise=b,
        solver_iters=iters,
        final_grad_norm=gnorm,
    )


def smoothing_accuracy_bound(d: int, alpha: float, n: int, lam: float, epsilon: float) -> float:
    """(1 - alpha)-probability bound on the L1 distance between the baseline
    and the objective-perturbed minimizer.

    The tilt b'omega/n moves the minimizer by at most ||b||_1 / (n kappa),
    where kappa = min(lam, 2/sqrt(n)) is the program's strong-convexity
    modulus; ||b||_1 stays below :func:`gamma_tail_bound` with probability
    1 - alpha, so the bound is

        4 (d+1) ln((d+1)/alpha) / (n min(lam, 2/sqrt(n)) epsilon).
    """
    if d < 1 or n < 1:
        raise ValueError("need d >= 1 and n >= 1")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if not lam > 0 or not epsilon > 0:
        raise ValueError("lam and epsilon must be positive")
    return gamma_tail_bound(d, alpha, epsilon) / (n * min(lam, 2.0 / math.sqrt(n)))
