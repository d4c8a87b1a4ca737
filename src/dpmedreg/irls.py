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
    _MechanismConfig,
    _noise_scale,
    _row_sums,
    _spd_solve,
    design_matrix,
)
from .sampling import RngStream

__all__ = [
    "IrlsConfig",
    "IrlsTrace",
    "SingularSystemError",
    "default_coefficient_bound",
    "weighted_ridge_solve",
    "irls_fit",
    "irls_fits",
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


@dataclass(frozen=True, eq=False)
class IrlsTrace:
    """Per-iteration record of the reweighted fit.

    ``iterates`` is a read-only (iterations + 1, d + 1) array whose row t is
    (mu, beta) after t weighted solves, row 0 the unit-weight start;
    ``bracket_violations`` counts iterations whose weights escaped
    [1/(2(sqrt(d v)+B)+e), 1/e] at the derived v: zero unless that a-priori
    bound itself fails, which makes it a runtime check of the bound.
    """

    iterates: np.ndarray
    converged: bool
    bracket_violations: int

    @property
    def iterations(self) -> int:
        return len(self.iterates) - 1

    @property
    def final(self) -> Theta:
        """The last iterate; a non-finite one raises ValueError."""
        return Theta.from_vector(self.iterates[-1])


def weighted_ridge_solve(data: Dataset, weights: np.ndarray, lam: float) -> Theta:
    """Unique minimizer of (1/n) sum_i w_i r_i^2 + (lam/2) beta'beta.

    Checks the weights and lam, then solves the (d+1) x (d+1) normal
    equations with :func:`_normal_solve` as a batch of one table, the kernel
    every pass of :func:`irls_fits` runs; the intercept is not penalized.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (data.n,):
        raise ValueError(f"weights must have shape ({data.n},), got {w.shape}")
    if not np.all(np.isfinite(w)) or not np.all(w > 0):
        raise ValueError("weights must be positive and finite")
    _check_nonnegative("lam", lam)
    omega = _normal_solve(design_matrix(data.X[None]), data.Y[None, :, None], w[None, :, None], data.n * lam / 2.0)
    return Theta.from_vector(omega[0])


def _normal_solve(Xt: np.ndarray, Y: np.ndarray, w: np.ndarray, ridge: float) -> np.ndarray:
    """The (m, d + 1) rows omega = (mu, beta) solving (Xt' W Xt + ridge
    I_beta) omega = Xt' W Y for a stack of m designs ``Xt`` = (1, X), (m, n,
    d + 1), with responses ``Y`` and positive finite weights ``w`` as (m, n,
    1) columns; ``ridge`` is added to the beta block of the diagonal only.

    The stacked products make, for each table, the BLAS call of the 2-D
    products ``Xt.T @ (Xt * w[:, None])`` and ``Xt.T @ (w * Y)``, and
    :func:`dpmedreg.model._spd_solve` solves each system by itself, so a
    table's bits do not depend on the rest of the stack.  A singular system
    raises :class:`SingularSystemError`."""
    XtT = Xt.transpose(0, 2, 1)
    A = XtT @ (Xt * w)
    # the beta block of each diagonal, a view through the C-ordered products
    m, p = A.shape[:2]
    diagonal = A.reshape(m, p * p)[:, p + 1 :: p + 1]
    diagonal += ridge
    omegas = _spd_solve(A, (XtT @ (w * Y))[..., 0])
    if omegas is None:
        raise SingularSystemError(
            "weighted normal equations are singular (rank-deficient X with lam == 0?)"
        )
    return omegas


def _weight_bracket(d: int, B: float, cfg: IrlsConfig) -> tuple[float, float]:
    """The bracket [1/(2(sqrt(d v)+B)+e), 1/e] that every weight of the
    reweighted fit lies in at v = :func:`default_coefficient_bound` (B, lam,
    e), each end widened by a relative 1e-12 for rounding."""
    v = default_coefficient_bound(B, cfg.lam, cfg.e)
    w_lo = 1.0 / (2.0 * (math.sqrt(d * v) + B) + cfg.e)
    return w_lo * (1.0 - 1e-12), 1.0 / cfg.e * (1.0 + 1e-12)


def irls_fits(datasets: list[Dataset], cfg: IrlsConfig) -> list[IrlsTrace]:
    """:func:`irls_fit` of every table of ``datasets``, which share one n, d
    and B, as one batch: each pass reweights and solves the tables still
    running as one stack (see :func:`_normal_solve`), and a table leaves the
    stack at the pass where it converges.  Trace k is bit for bit
    ``irls_fit(datasets[k], cfg)`` for a table in C order (every table the
    package builds is).  An empty list, or tables that differ in n, d or B,
    raise ValueError; a singular or non-finite pass of any table raises what
    that table's own fit raises.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    first = datasets[0]
    if any(data.X.shape != first.X.shape or data.B != first.B for data in datasets):
        raise ValueError("batched datasets must share n, d and B")
    w_lo, w_hi = _weight_bracket(first.d, first.B, cfg)
    m = len(datasets)
    # a batch of one is a view of its table, not a copy
    if m == 1:
        X, Y = first.X[None], first.Y[None, :, None]
    else:
        X = np.stack([data.X for data in datasets])
        Y = np.stack([data.Y for data in datasets])[..., None]
    Xt = design_matrix(X)
    ridge = first.n * cfg.lam / 2.0
    omega = _normal_solve(Xt, Y, np.ones(Y.shape), ridge)
    # the tables still running, and per run of passes over the same tables
    # (a segment) their indices and the iterates of each pass
    running = np.arange(m)
    rows = [omega]
    segments = [(running, rows)]
    passes = [cfg.max_iters] * m
    converged = [False] * m
    violations = [0] * m
    for t in range(1, cfg.max_iters + 1):
        # 1/(|mu + X beta - Y| + e), built in place in the product's array
        w = X @ omega[:, 1:, None]
        w += omega[:, :1, None]
        w -= Y
        np.abs(w, out=w)
        w += cfg.e
        np.divide(1.0, w, out=w)
        w_min = float(w.min())
        w_max = float(w.max())
        if not (w_min > 0 and w_max < math.inf):
            raise ValueError("weights must be positive and finite")
        if w_min < w_lo or w_max > w_hi:
            for k, w_k in zip(running.tolist(), w):
                if float(w_k.min()) < w_lo or float(w_k.max()) > w_hi:
                    violations[k] += 1
        new = _normal_solve(Xt, Y, w, ridge)
        rows.append(new)
        moved = np.abs(new - omega)
        omega = new
        # converged: the intercept and then the coefficients moved at most
        # tau; the coefficients' move is summed only once the intercept's is
        near = moved[:, 0] <= cfg.tau
        if True not in near.tolist():
            continue
        done = near & (_row_sums(moved[:, 1:]) <= cfg.tau)
        if done.any():
            for k in running[done].tolist():
                passes[k] = t
                converged[k] = True
            if done.all():
                break
            keep = ~done
            running, X, Y, Xt, omega = running[keep], X[keep], Y[keep], Xt[keep], omega[keep]
            rows = []
            segments.append((running, rows))
    # pass t of table k; cells past a table's last pass are never read
    stacked = np.empty((max(passes) + 1, m, first.d + 1))
    start = 0
    for tables, block in segments:
        if block:
            stacked[start : start + len(block), tables] = block
            start += len(block)
    traces = []
    for k in range(m):
        iterates = np.ascontiguousarray(stacked[: passes[k] + 1, k])
        iterates.setflags(write=False)
        traces.append(IrlsTrace(iterates=iterates, converged=converged[k], bracket_violations=violations[k]))
    return traces


def irls_fit(data: Dataset, cfg: IrlsConfig) -> IrlsTrace:
    """Iterate weighted ridge solves with w_i = 1/(|r_i| + e) until both the
    intercept and the coefficient vector move at most tau in L1 norm, or
    ``max_iters`` passes are exhausted.  Starts from the unit-weight solution.

    This is :func:`irls_fits` of one table: the design matrix (1, X) and the
    ridge n lam / 2 are built once per fit and every pass runs
    :func:`_normal_solve` on them, so each iterate is bit for bit what
    :func:`weighted_ridge_solve` gives for the same weights.  The iterates
    stay vectors omega = (mu, beta); no :class:`Theta` is built.  The loop
    checks its own weights through the min and max the bracket test
    computes: a weight that is not positive or not finite, as a non-finite
    iterate gives, raises ValueError.
    """
    return irls_fits([data], cfg)[0]


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
    ``iterations``.  :func:`dpmedreg.model._noise_scale` applies the release
    rules (epsilon = inf, stream, lam > 0, scale) before the fit; c grows
    without bound as lam -> 0.  At epsilon = inf c is not computed, the
    noise is exactly zero and the estimate is ``irls_fit(data, cfg).final``
    unchanged, the noiseless fit bit for bit.
    """
    scale = _noise_scale(
        cfg, rng, lambda: irls_sensitivity(data.d, data.n, data.B, cfg.lam, cfg.e) / cfg.epsilon
    )
    trace = irls_fit(data, cfg)
    theta = trace.final
    noise = np.zeros(data.d + 1)
    if scale:
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
