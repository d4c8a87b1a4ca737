"""Batched greedy coordinate descent with per-iteration Laplace noise.

The data is split once into disjoint batches; iteration t touches only batch
t, updates each coefficient from the batch's one-sided directional
derivatives with step size eta_t = ell/(t+1), adds Laplace(2 eta_t/(eps n0))
noise per coefficient, and finally recomputes the intercept as the batch mean
of (Y - X beta).  Each record therefore influences exactly one noisy
iteration.

Step rule per coefficient: stop when both one-sided derivatives are
nonnegative; otherwise move against whichever side is negative (forward by
-eta d_plus when d_plus < 0, else backward by eta d_minus).  The ridge term
enters the forward derivative as +lam beta_k and the backward one as
-lam beta_k, so at smooth points d_plus == -d_minus and the rule is exactly a
gradient step of length eta |gradient|.  The step magnitude never exceeds the
magnitude of the chosen derivative times eta, so one-record sensitivity of the
whole step vector stays at most 2 eta / n0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .irls import weighted_ridge_solve
from .model import Dataset, Release, Theta, _check_count, _check_nonnegative, _check_positive
from .model import _coordinate_step, _MechanismConfig
from .sampling import RngStream

__all__ = [
    "GcdConfig",
    "split_batches",
    "coordinate_step_vector",
    "fit_gcd_private",
]


@dataclass(frozen=True)
class GcdConfig(_MechanismConfig):
    """Knobs for the batched descent.  ``batches`` is both the number of
    disjoint batches and the number of iterations."""

    ell: float = 0.1
    batches: int = 40
    init: str = "ridge"

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_positive("ell", self.ell)
        _check_count("batches", self.batches)
        if self.init not in ("ridge", "zero"):
            raise ValueError(f"init must be 'ridge' or 'zero', got {self.init!r}")


def split_batches(n: int, n_batches: int, rng: RngStream) -> np.ndarray:
    """Uniformly random partition into ``n_batches`` disjoint sets of size
    floor(n / n_batches), as a read-only (n_batches, n // n_batches) index
    array whose row t is batch t.  The rows are slices of one permutation, so
    they are disjoint; the n mod n_batches leftover records are dropped so the
    per-iteration noise scale is well defined."""
    _check_count("n", n)
    _check_count("n_batches", n_batches)
    if n < n_batches:
        raise ValueError(f"need n >= number of batches, got n={n} < {n_batches}")
    size = n // n_batches
    batches = rng.permutation(n)[: size * n_batches].reshape(n_batches, size)
    batches.setflags(write=False)
    return batches


def coordinate_step_vector(
    theta: Theta, X: np.ndarray, Y: np.ndarray, lam: float, eta: float
) -> np.ndarray:
    """All d pre-noise coordinate steps on one batch, evaluated at one fixed
    theta (no sequential update), as used by
    :func:`dpmedreg.verification.gcd_step_probe`.

    |step_k| <= eta (1 + lam |beta_k|) always, because each one-sided slope
    is an average of entries bounded by |x_ik| <= 1 plus the ridge term.
    ``X`` must be 2-D with ``theta.d`` columns and at least one row, ``Y`` a
    vector of one entry per row, and ``lam`` and ``eta`` nonnegative and
    finite; anything else is a ValueError.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"X must have 2 dimensions, got shape {X.shape}")
    n0, d = X.shape
    if Y.shape != (n0,):
        raise ValueError(f"Y must have shape ({n0},) to match X, got {Y.shape}")
    if theta.d != d:
        raise ValueError(f"theta has d={theta.d} but X has {d} columns")
    _check_count("rows of X", n0)
    _check_nonnegative("lam", lam)
    _check_nonnegative("eta", eta)
    r = theta.mu + X @ theta.beta - Y
    cols = X.T.copy()
    return np.array(
        [_coordinate_step(r, cols[k], n0, lam * b, eta)[2] for k, b in enumerate(theta.beta.tolist())]
    )


def _descend(data: Dataset, cfg: GcdConfig, rng: RngStream) -> tuple[Release, np.ndarray, np.ndarray]:
    """The batched noisy descent: (release, iterates, batches).  The iterates
    are a read-only (batches + 1, d + 1) array whose row t is (mu, beta) after
    t iterations (row 0 is the start, the last row the release); ``batches``
    is the index array of :func:`split_batches` (row t for iteration t).
    Iteration t = 0, 1, ... steps with eta_t = ell/(t+1) on batch t and adds
    row t of the release's noise, drawn at scale 2 eta_t/(epsilon n0) with
    n0 = ``batches.shape[1]``.  An epsilon that overflows the first scale is
    refused before the batch draw."""
    n0 = data.n // cfg.batches
    # n0 = 0 (fewer records than batches) is split_batches' error
    if n0 and not math.isfinite(2.0 * cfg.ell / (cfg.epsilon * n0)):
        raise ValueError(f"epsilon={cfg.epsilon} overflows the noise scale 2 ell/(epsilon n0)")
    batches = split_batches(data.n, cfg.batches, rng)
    if cfg.init == "ridge":
        theta0 = weighted_ridge_solve(data, np.ones(data.n), cfg.lam)
    else:
        theta0 = Theta(mu=0.0, beta=np.zeros(data.d))
    mu = theta0.mu
    beta = np.array(theta0.beta, dtype=float)
    # all noise in one call, row t scaled by 2 eta_t / (epsilon n0), so
    # noises[t, k] is the (t d + k)-th draw after the batch permutation
    if math.isinf(cfg.epsilon):
        scale = 0.0
        noises = np.zeros((cfg.batches, data.d))
    else:
        scales = 2.0 * (cfg.ell / np.arange(1, cfg.batches + 1)) / (cfg.epsilon * n0)
        scale = float(scales[0])
        noises = rng.laplaces(1.0, cfg.batches * data.d).reshape(cfg.batches, data.d) * scales[:, None]

    iterates = np.empty((cfg.batches + 1, data.d + 1))
    iterates[0] = theta0.as_vector()
    # the loop runs on Python floats: each is the same IEEE operation as on
    # numpy scalars, so every iterate keeps its bits
    for t, (idx, noise) in enumerate(zip(batches, noises.tolist())):
        Xb = data.X[idx]
        Yb = data.Y[idx]
        cols = Xb.T.copy()
        eta = cfg.ell / (t + 1)
        r = mu + Xb @ beta - Yb
        coefs = beta.tolist()
        for k, bk in enumerate(coefs):
            move = _coordinate_step(r, cols[k], n0, cfg.lam * bk, eta)[2] + noise[k]
            coefs[k] = bk + move
            if move:
                r += cols[k] * move
        beta = np.array(coefs)
        mu = float(np.add.reduce(Yb - Xb @ beta)) / n0
        iterates[t + 1, 0] = mu
        iterates[t + 1, 1:] = beta
    iterates.setflags(write=False)
    release = Release(
        theta=Theta(mu=mu, beta=beta), noise=noises, noise_scale=scale, solver_iters=cfg.batches
    )
    return release, iterates, batches


def fit_gcd_private(data: Dataset, cfg: GcdConfig, rng: RngStream) -> Release:
    """Run the batched noisy descent.

    The release's noise is the (batches, d) array of per-iteration draws,
    row t at scale ``noise_scale``/(t+1) with ``noise_scale`` = 2 ell/(epsilon
    n0), where n0 = n // batches is the batch size; ``solver_iters`` counts
    the batch steps.  The default start is the unit-weight ridge
    least-squares solution on the full data (init="zero" starts from the
    origin instead; the least-squares start touches all records without
    noise, which the caller must account for).  With epsilon = inf no noise
    draws are consumed, but ``rng`` is still required: it draws the batch
    permutation, so None is refused before any work.
    """
    if rng is None:
        raise ValueError("alg3 needs an RngStream for its batch permutation, even at epsilon = inf")
    return _descend(data, cfg, rng)[0]
