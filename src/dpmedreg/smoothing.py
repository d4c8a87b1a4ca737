"""Smoothed median regression with objective perturbation.

The private fit draws a random linear tilt b (Gamma L1 norm, uniform L1
direction) and minimizes

    mean_i rho_gamma(r_i) + (lam/2) beta'beta + mu^2/sqrt(n) + b'omega/n,

where omega = (mu, beta).  The baseline is the same program with b = 0, the
fit at epsilon = inf; the shared mu^2/sqrt(n) term keeps the intercept
direction strongly convex and makes baseline-vs-private comparisons exact.
:func:`smoothed_gradient` is this program's gradient, the one the solver
runs; its value is :func:`dpmedreg.verification.smoothed_program`.

The inner solver is a damped Newton method, run to a fixed tolerance, on the
piecewise-quadratic objective: the pseudo-Hessian uses only the in-band
samples, directions are Levenberg-damped when that matrix is rank-deficient,
and the step length is the exact minimizer along the search direction (the
restriction is convex and piecewise quadratic, with band-crossing breakpoints).
The line search builds every breakpoint but stable-sorts only a growing
prefix of them.  The first prefix ends at the first breakpoint past the
Newton step or, on a search with many breakpoints below that step, past an
upper bound on the root that a few direct slope evaluations (regula falsi)
give, so it holds little more than the breakpoints below the root.  It
builds the slope and curvature increments and scans them one fixed-size
block of that prefix at a time, and stops at the block that holds the root.
Its result is that of a stable sort of all breakpoints, bit for bit.
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
    _MechanismConfig,
    _noise_scale,
    _spd_solve,
    design_matrix,
)
from .sampling import RngStream, _l1_scale, gamma_tail_bound, sample_l1_perturbation

__all__ = [
    "SmoothingConfig",
    "ConvergenceError",
    "fit_smoothed_private",
    "smoothed_gradient",
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


# sorted breakpoints whose slope and curvature increments are built and
# scanned at a time, and samples whose direct slopes are summed at a time
_SCAN_BLOCK = 8192
# the root is bracketed only when the breakpoints at or below alpha = 1
# number at least this share of n: each slope evaluation of the bracket is a
# pass over all n samples, which costs more than it saves on a short first
# prefix (as on the Newton steps after the first, whose roots lie near 1)
_BRACKET_SHARE = 0.25
# slope evaluations of the bracket after phi'(1): with three, the n = 5000
# and n = 2e5 pin fits sort 1.05 and 1.00 times the breakpoints below their
# roots; one step leaves the first at 2.00, two the second at 1.13
_BRACKET_STEPS = 3

# the Newton solver's gradient tolerance and step cap, fixed: the privacy
# proof covers the exact minimizer, not an early iterate
_TOL = 1e-8
_MAX_ITERS = 500


def _band_signs(r: np.ndarray, gamma: float) -> np.ndarray:
    """-1.0 / 0.0 / +1.0 per residual against the inclusive band [-gamma, gamma]."""
    return np.subtract(r > gamma, r < -gamma, dtype=float)


def _ridge(n: int, d: int, lam: float) -> np.ndarray:
    """The program's ridge weights: 2/sqrt(n) on mu (its mu^2/sqrt(n) term)
    and lam on each beta_j."""
    ridge = np.empty(d + 1)
    ridge[0] = 2.0 / math.sqrt(n)
    ridge[1:] = lam
    return ridge


def _huber_terms(r: np.ndarray, gamma: float):
    """(s, w, factor) at the residuals r: band signs (inclusive band), in-band
    indicators 1 - s^2, and rho_gamma'(r), the per-sample factor r/gamma in
    the band and sign(r) outside.  The factor lies in [-1, 1], and its two
    branches agree at |r| = gamma."""
    s = _band_signs(r, gamma)
    w = 1.0 - s * s
    # (w r)/gamma + s, built in place: the same operations, so the same bits
    factor = w * r
    factor /= gamma
    factor += s
    return s, w, factor


def _smoothed_terms(Xt: np.ndarray, Y: np.ndarray, omega: np.ndarray, gamma: float, ridge, tilt):
    """(r, s, w, grad) of mean_i rho_gamma(r_i) + (1/2) sum_j ridge_j omega_j^2
    + tilt'omega at r = Xt omega - Y: residuals, band signs, in-band
    indicators and the gradient (see :func:`_huber_terms`)."""
    r = Xt @ omega - Y
    s, w, factor = _huber_terms(r, gamma)
    grad = Xt.T @ factor / Y.shape[0] + ridge * omega + tilt
    return r, s, w, grad


def smoothed_gradient(theta: Theta, data: Dataset, cfg: SmoothingConfig, b) -> np.ndarray:
    """Gradient of the program above at ``theta``, over omega = (mu, beta),
    for the tilt ``b`` (a release's ``noise``; all zeros for the baseline).
    At a release's theta and noise it is, bit for bit, the vector whose
    entries the solver brought within ``_TOL``."""
    b = np.asarray(b, dtype=float)
    if b.shape != (data.d + 1,):
        raise ValueError(f"b must have shape ({data.d + 1},), got {b.shape}")
    if theta.d != data.d:
        raise ValueError(f"theta has d={theta.d} but data has d={data.d}")
    ridge = _ridge(data.n, data.d, cfg.lam)
    return _smoothed_terms(design_matrix(data.X), data.Y, theta.as_vector(), cfg.gamma, ridge, b / data.n)[3]


def _crossing_alphas(idx, r, delta, edge):
    """The alpha >= 0 at which r_i + alpha delta_i reaches the band edge
    edge * sign(delta_i), for the samples ``idx`` (delta != 0 on each)."""
    step = delta[idx]
    return (edge * np.sign(step) - r[idx]) / step


def _sorted_rows(alphas, lo, hi):
    """The rows with lo < alpha <= hi in ascending order of alpha, ties in
    row order, and their alphas in that order."""
    rows = np.flatnonzero((alphas > lo) & (alphas <= hi))
    rows = rows[np.argsort(alphas[rows], kind="stable")]
    return rows, alphas[rows]


def _kth_smallest(alphas, k):
    """The k-th smallest alpha, inf when there are no more than k."""
    return float(np.partition(alphas, k - 1)[k - 1]) if k < alphas.size else math.inf


def _root_bracket(r, delta, gamma, n, q1, q2, A0):
    """An alpha in (0, 1] at or above the root of phi' (see
    :func:`_exact_line_search`), or the Newton step 1.0 when phi'(1) < 0.

    phi'(alpha) is evaluated directly, in O(n) and without a sort, from
    rho_gamma' of :func:`_huber_terms`; regula falsi from
    phi'(0) = A0 < 0 and phi'(1) >= 0 then narrows the bracket around the
    root for ``_BRACKET_STEPS`` evaluations, and its upper end is returned.
    These slopes agree with the line search's accumulated ones only up to
    rounding, and a non-finite one gives up (1.0, or the upper end so far);
    nothing here raises under the fit's ``errstate``.
    """

    def slope(alpha):
        # summed one block of _SCAN_BLOCK samples at a time, so that no
        # n-length temporary is held next to the breakpoints
        total = 0.0
        for at in range(0, r.size, _SCAN_BLOCK):
            db = delta[at : at + _SCAN_BLOCK]
            x = alpha * db
            x += r[at : at + _SCAN_BLOCK]
            total += float(_huber_terms(x, gamma)[2] @ db)
        return total / n + q1 + q2 * alpha

    with np.errstate(all="ignore"):
        lo, f_lo, hi, f_hi = 0.0, A0, 1.0, slope(1.0)
        if not (math.isfinite(f_hi) and f_hi >= 0.0):
            return hi
        # f_lo < 0 <= f_hi throughout, so the secant's denominator is positive
        for _ in range(_BRACKET_STEPS):
            alpha = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if not lo < alpha < hi:
                break
            f = slope(alpha)
            if not math.isfinite(f):
                break
            if f >= 0.0:
                hi, f_hi = alpha, f
            else:
                lo, f_lo = alpha, f
    return hi


def _exact_line_search(r, s, delta, gamma, n, q1, q2):
    """Exact argmin over alpha >= 0 of the 1-d restriction.

    phi(alpha) = mean_i rho_gamma(r_i + alpha delta_i) + q1 alpha + (q2/2) alpha^2.
    phi' is continuous, piecewise linear and nondecreasing; its breakpoints are
    the alphas where a sample crosses the +/-gamma band.  ``s`` holds the band
    signs of ``r``, and ``delta`` is finite (an overflow in the direction
    raises under the fit's ``errstate`` first).  Requires phi'(0) < 0.
    Raises if the slope never becomes nonnegative (descent ray is unbounded).

    The slope is accumulated over the breakpoints in stable sorted order,
    but only over a prefix of that order that grows until it holds the root.
    The first prefix ends at the first breakpoint past a bound:
    :func:`_root_bracket`'s upper end when at least ``_BRACKET_SHARE`` n
    breakpoints lie at or below the Newton step alpha = 1, and alpha = 1
    otherwise.  Each further prefix ends at the (8m)-th smallest breakpoint,
    m the count sorted so far.  Each prefix is scanned in blocks of
    ``_SCAN_BLOCK``: the slope and curvature increments are built for one
    block's samples at a time, and the scan stops at the block that holds
    the root.  The running sums carry from block to block and prefix to
    prefix, so the bound and the block size decide only how much is sorted
    and built: the sums, and the returned alpha, are the full sort's.
    """
    inband = s == 0.0
    # toward < 0: outside the band and moving toward it
    toward = s * delta
    A0 = float(np.where(inband, r * delta / gamma, toward).sum()) / n + q1
    B0 = float(np.where(inband, delta * delta / gamma, 0.0).sum()) / n + q2
    if A0 >= 0.0:
        return 0.0

    # Each residual trajectory r_i + alpha delta_i is monotone, so it enters
    # the band at most once (outside, moving toward it) and exits at most
    # once (moving, and not away from it), each at an alpha >= 0 (-0.0 for
    # one that leaves from the lower edge).  Row j of the breakpoints is
    # sample src[j]; the first n_ent rows enter, the rest exit.
    ent = np.flatnonzero(toward < 0.0)
    ex = np.flatnonzero((toward <= 0.0) & (delta != 0.0))
    del inband, toward
    alphas = np.concatenate([_crossing_alphas(ent, r, delta, -gamma), _crossing_alphas(ex, r, delta, gamma)])
    src = np.concatenate([ent, ex])
    n_ent = ent.size
    del ent, ex

    many = np.count_nonzero(alphas <= 1.0) >= _BRACKET_SHARE * n
    bound = _root_bracket(r, delta, gamma, n, q1, q2, A0) if many else 1.0
    cut = float(np.where(alphas > bound, alphas, math.inf).min(initial=math.inf))

    # slope line (start, curve) on the segment that begins at breakpoint prev
    start, curve, prev = A0, B0, 0.0
    # running sums of the increments so far
    sum_A = sum_B = 0.0
    done = -math.inf
    n_sorted = 0
    while done < math.inf:
        rows, ordered = _sorted_rows(alphas, done, cut)
        done = cut
        n_sorted += rows.size
        for lo in range(0, rows.size, _SCAN_BLOCK):
            at = rows[lo : lo + _SCAN_BLOCK]
            seg_alphas = ordered[lo : lo + _SCAN_BLOCK]
            # entering (side +1) replaces the outside slope -sign(delta) by the
            # in-band line, exiting (side -1) the reverse; the sign flip and
            # the order of the one addition are exact, so the bits are those
            # of r delta/gamma + sign(delta) delta (|delta|: every crossing
            # has a finite delta != 0) and its exiting counterpart
            side = np.where(at < n_ent, 1.0, -1.0)
            i = src[at]
            rb, db = r[i], delta[i]
            inc_A = (rb * db / gamma * side + np.abs(db)) / n
            inc_B = (db * db / gamma) / n * side
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
        cut = _kth_smallest(alphas, 8 * n_sorted)
    if curve <= 0.0:
        raise FloatingPointError("objective is unbounded along the search direction")
    return max(float(-start / curve), prev)


def _minimize_smoothed(data: Dataset, lam, gamma, tilt):
    """Minimize the tilted smoothed objective to ``_TOL`` in at most
    ``_MAX_ITERS`` Newton steps; returns (omega, iters, grad_norm)."""
    n, d = data.n, data.d
    Xt = design_matrix(data.X)
    ridge = _ridge(n, d, lam)
    omega = np.zeros(d + 1)
    for it in range(_MAX_ITERS + 1):
        r, s, w, grad = _smoothed_terms(Xt, data.Y, omega, gamma, ridge, tilt)
        gnorm = float(np.abs(grad).max())
        if gnorm <= _TOL:
            return omega, it, gnorm
        if it == _MAX_ITERS:
            break

        H = (Xt.T * w) @ Xt / (n * gamma)
        # the diagonal, as irls._normal_solve adds its ridge
        H.flat[:: d + 2] += ridge
        # freed before the line search, whose first call sets the fit's
        # memory peak
        del w
        # Newton direction from the Cholesky solve of dpmedreg.model, a stack
        # of one; while H is not positive definite, retry with growing Levenberg damping.
        damp = 0.0
        base = max(float(np.trace(H)) / (d + 1), 1.0)
        for _ in range(10):
            Hd = H
            if damp:
                Hd = H.copy()
                Hd.flat[:: d + 2] += damp
            p = _spd_solve(Hd[None], -grad[None])
            if p is not None:
                p = p[0]
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
        f"no convergence in {_MAX_ITERS} iterations (grad norm {gnorm:.3e})",
        Theta.from_vector(omega),
        gnorm,
        _MAX_ITERS,
    )


def fit_smoothed_private(data: Dataset, cfg: SmoothingConfig, rng: RngStream | None) -> Release:
    """Objective-perturbed fit: tilt the smoothed program by b'omega/n.

    The release's noise is the tilt b, drawn by
    :func:`dpmedreg.sampling.sample_l1_perturbation` with exponential mean
    ``noise_scale`` = 4/epsilon, and ``solver_iters`` counts Newton steps
    (gradient entries within ``_TOL``, at most ``_MAX_ITERS`` steps).  The
    release rules are :func:`dpmedreg.model._noise_scale`'s; at epsilon =
    inf the tilt is exactly zero and the fit is the baseline.  Their lam > 0
    is the strong convexity objective perturbation needs (Chaudhuri,
    Monteleoni and Sarwate, JMLR 2011).  A tilt that overflows the solve (a
    tiny epsilon) is a ValueError naming epsilon.
    """
    scale = _noise_scale(cfg, rng, lambda: _l1_scale(data.d + 1, cfg.epsilon))
    b = sample_l1_perturbation(data.d + 1, cfg.epsilon, rng) if scale else np.zeros(data.d + 1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            omega, iters, _ = _minimize_smoothed(data, cfg.lam, cfg.gamma, b / data.n)
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
