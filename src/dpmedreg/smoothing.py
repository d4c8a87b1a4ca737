"""Smoothed median regression with objective perturbation.

The private fit draws a random linear tilt b (Gamma L1 norm, uniform L1
direction) and minimizes

    mean_i rho_gamma(r_i) + (lam/2) beta'beta + mu^2/sqrt(n) + b'omega/n,

where omega = (mu, beta).  The baseline is the same program with b = 0, the
fit at epsilon = inf; the shared mu^2/sqrt(n) term keeps the intercept
direction strongly convex and makes baseline-vs-private comparisons exact.

The inner solver is a damped Newton method, run to a fixed tolerance, on the
piecewise-quadratic objective: the pseudo-Hessian uses only the in-band
samples, directions are Levenberg-damped when that matrix is rank-deficient,
and the step length is the exact minimizer along the search direction (the
restriction is convex and piecewise quadratic, with band-crossing breakpoints).
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
    _check_positive,
    _check_private_run,
    _MechanismConfig,
    _smoothed_terms,
    _spd_solve,
    design_matrix,
)
from .sampling import RngStream, _l1_scale, gamma_tail_bound, sample_l1_perturbation

__all__ = [
    "SmoothingConfig",
    "ConvergenceError",
    "fit_smoothed_private",
    "smoothing_accuracy_bound",
]


@dataclass(frozen=True)
class SmoothingConfig(_MechanismConfig):
    """Knobs for the smoothed fit; epsilon is only used by the private path."""

    gamma: float = 0.05

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive("gamma", self.gamma)


class ConvergenceError(RuntimeError):
    """Solver failed to reach the gradient tolerance; carries the last iterate."""

    def __init__(self, message: str, last_theta: Theta, grad_norm: float, iters: int):
        super().__init__(message)
        self.last_theta = last_theta
        self.grad_norm = grad_norm
        self.iters = iters


# breakpoints sorted beyond the count at or below alpha = 1 in the first prefix
_PREFIX_MARGIN = 16

# the Newton solver's gradient tolerance and step cap, fixed: the privacy
# proof covers the exact minimizer, not an early iterate
_TOL = 1e-8
_MAX_ITERS = 500


def _band_crossings(idx, r, delta, gamma, n, entering):
    """Breakpoints and slope/curvature increments of the samples ``idx``,
    which all cross one band edge (delta != 0 on each): entering replaces
    the outside slope -sign(delta) by the in-band line, exiting replaces the
    in-band line by the outside slope +sign(delta)."""
    r, delta = r[idx], delta[idx]
    d_pos = delta > 0
    sgn = np.sign(delta)
    curve = (delta * delta / gamma) / n
    if entering:
        t = np.where(d_pos, -gamma - r, gamma - r) / delta
        return t, (r * delta / gamma + sgn * delta) / n, curve
    t = np.where(d_pos, gamma - r, -gamma - r) / delta
    return t, (sgn * delta - r * delta / gamma) / n, -curve


def _exact_line_search(r, s, delta, gamma, n, q1, q2):
    """Exact argmin over alpha >= 0 of the 1-d restriction.

    phi(alpha) = mean_i rho_gamma(r_i + alpha delta_i) + q1 alpha + (q2/2) alpha^2.
    phi' is continuous, piecewise linear and nondecreasing; its breakpoints are
    the alphas where a sample crosses the +/-gamma band.  ``s`` holds the band
    signs of ``r``.  Requires phi'(0) < 0.  Raises if the slope never becomes
    nonnegative (descent ray is unbounded).

    The slope is accumulated over the breakpoints in stable sorted order,
    but only over a prefix of that order that grows until it holds the root:
    the first prefix is every breakpoint up to the k-th smallest, k the count
    at or below the Newton step alpha = 1 plus a margin, and each further
    prefix is eight times longer.  The hint decides only how much is sorted;
    the sums, and so the returned alpha, are those of the full sort.
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
    ent = (d_pos & below) | (d_neg & above)
    ex = (d_pos & ~above) | (d_neg & ~below)
    # no piece of either side outlives the join: the peak memory stays below
    # the full sort's
    alphas, dA, dB = map(np.concatenate, zip(
        _band_crossings(np.flatnonzero(ent), r, delta, gamma, n, entering=True),
        _band_crossings(np.flatnonzero(ex), r, delta, gamma, n, entering=False),
    ))
    keep = alphas >= 0.0
    alphas, dA, dB = alphas[keep], dA[keep], dB[keep]

    # slope line (start, curve) on the segment that begins at breakpoint prev
    start, curve, prev = A0, B0, 0.0
    # running sums of the increments so far, None before the first prefix
    sum_A = sum_B = None
    done = -math.inf
    k = int(np.count_nonzero(alphas <= 1.0)) + _PREFIX_MARGIN
    while done < math.inf:
        if k < alphas.size:
            cut = float(np.partition(alphas, k - 1)[k - 1])
            part = np.flatnonzero((alphas > done) & (alphas <= cut))
        else:
            cut = math.inf
            part = np.flatnonzero(alphas > done)
        done = cut
        k *= 8
        if not part.size:
            continue
        order = part[np.argsort(alphas[part], kind="stable")]
        seg_alphas = alphas[order]
        inc_A, inc_B = dA[order], dB[order]
        if sum_A is not None:
            inc_A[0] += sum_A
            inc_B[0] += sum_B
        run_A, run_B = np.cumsum(inc_A), np.cumsum(inc_B)
        sum_A, sum_B = run_A[-1], run_B[-1]
        A_seg, B_seg = A0 + run_A, B0 + run_B
        # slope at the right end of each bounded segment [prev, seg_alphas[j])
        starts = np.concatenate([[start], A_seg[:-1]])
        curves = np.concatenate([[curve], B_seg[:-1]])
        slope_end = starts + curves * seg_alphas
        hit = np.flatnonzero(slope_end >= 0.0)
        if hit.size:
            j = int(hit[0])
            if starts[j] < 0.0:
                return float(-starts[j] / curves[j])
            # slope crossed zero exactly at the preceding breakpoint
            return float(seg_alphas[j - 1]) if j > 0 else prev
        start, curve, prev = float(A_seg[-1]), float(B_seg[-1]), float(seg_alphas[-1])
    if curve <= 0.0:
        raise FloatingPointError("objective is unbounded along the search direction")
    return max(float(-start / curve), prev)


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


def fit_smoothed_private(data: Dataset, cfg: SmoothingConfig, rng: RngStream | None) -> Release:
    """Objective-perturbed fit: tilt the smoothed program by b'omega/n.

    The release's noise is the tilt b, drawn by
    :func:`dpmedreg.sampling.sample_l1_perturbation` with exponential mean
    ``noise_scale`` = 4/epsilon, and ``solver_iters`` counts Newton steps
    (gradient entries within ``_TOL``, at most ``_MAX_ITERS`` steps).
    With epsilon = inf no draw is consumed (``rng`` may be None), the tilt
    is exactly zero and the fit is the baseline.  A finite epsilon needs a
    stream and lam > 0, checked before any draw: objective perturbation is
    private only for a strongly convex regularizer (Chaudhuri, Monteleoni
    and Sarwate, JMLR 2011), and without the ridge the tilt can make the
    program unbounded below along a coefficient.  A tilt that overflows the
    solve (a tiny epsilon) is a ValueError naming epsilon.
    """
    _check_private_run(cfg, rng)
    if math.isinf(cfg.epsilon):
        b, scale = np.zeros(data.d + 1), 0.0
    else:
        b = sample_l1_perturbation(data.d + 1, cfg.epsilon, rng)
        scale = _l1_scale(data.d + 1, cfg.epsilon)
    try:
        with np.errstate(over="raise", invalid="raise"):
            omega, iters, _ = _minimize_smoothed(data, cfg.lam, cfg.gamma, b / data.n, _TOL, _MAX_ITERS)
    except FloatingPointError as exc:
        raise ValueError(f"epsilon={cfg.epsilon} overflows the smoothed fit ({exc})") from None
    return Release(theta=Theta.from_vector(omega), noise=b, noise_scale=scale, solver_iters=iters)


def smoothing_accuracy_bound(d: int, alpha: float, n: int, lam: float, epsilon: float) -> float:
    """(1 - alpha)-probability bound on the L1 distance between the baseline
    and the objective-perturbed minimizer.

    The tilt b'omega/n moves the minimizer by at most ||b||_1 / (n kappa),
    where kappa = min(lam, 2/sqrt(n)) is the program's strong-convexity
    modulus; ||b||_1 stays below :func:`gamma_tail_bound` with probability
    1 - alpha, so the bound is

        4 (d+1) ln((d+1)/alpha) / (n min(lam, 2/sqrt(n)) epsilon).
    """
    _check_count("d", d)
    _check_count("n", n)
    _check_positive("lam", lam)
    return gamma_tail_bound(d, alpha, epsilon) / (n * min(lam, 2.0 / math.sqrt(n)))
