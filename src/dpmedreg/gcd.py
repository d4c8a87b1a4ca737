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
from .model import Dataset, Theta, _coordinate_step
from .sampling import RngStream
from .verification import ProbeResult, neighbor_probe, random_theta

__all__ = [
    "GcdConfig",
    "BatchPlan",
    "GcdTrace",
    "split_batches",
    "coordinate_step_vector",
    "fit_gcd_private",
    "gcd_step_probe",
]


@dataclass(frozen=True)
class GcdConfig:
    """Knobs for the batched descent.  ``batches`` is both the number of
    disjoint batches and the number of iterations."""

    epsilon: float | None = None
    lam: float = 0.002
    ell: float = 0.1
    batches: int = 40
    init: str = "ridge"

    def __post_init__(self) -> None:
        if self.epsilon is not None and not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.lam < math.inf:
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam}")
        if not 0 < self.ell < math.inf:
            raise ValueError(f"ell must be positive and finite, got {self.ell}")
        if self.batches < 1:
            raise ValueError("need at least one batch")
        if self.init not in ("ridge", "zero"):
            raise ValueError(f"init must be 'ridge' or 'zero', got {self.init!r}")


@dataclass(frozen=True)
class BatchPlan:
    """Disjoint equal-size index sets; remainder records are dropped so the
    per-iteration noise scale is well defined."""

    batches: tuple[np.ndarray, ...]
    dropped: int

    def __post_init__(self) -> None:
        sizes = {b.shape[0] for b in self.batches}
        if len(sizes) != 1:
            raise ValueError("batches must share one size")
        # sort and compare neighbours; numpy 2's hash-based np.unique is
        # slower here than a whole alg3 fit at n = 5e5
        flat = np.sort(np.concatenate(self.batches))
        if np.any(flat[1:] == flat[:-1]):
            raise ValueError("batches overlap")

    @property
    def batch_size(self) -> int:
        return self.batches[0].shape[0]


def split_batches(n: int, n_batches: int, rng: RngStream) -> BatchPlan:
    """Uniformly random partition into ``n_batches`` disjoint sets of size
    floor(n / n_batches); leftover records are excluded and counted."""
    if n_batches < 1:
        raise ValueError("need at least one batch")
    if n < n_batches:
        raise ValueError(f"need n >= number of batches, got n={n} < {n_batches}")
    size = n // n_batches
    perm = rng.permutation(n)
    used = perm[: size * n_batches]
    return BatchPlan(
        batches=tuple(used[i * size : (i + 1) * size] for i in range(n_batches)),
        dropped=n - size * n_batches,
    )


def coordinate_step_vector(
    theta: Theta, X: np.ndarray, Y: np.ndarray, lam: float, eta: float
) -> np.ndarray:
    """All d pre-noise coordinate steps on one batch, evaluated at one fixed
    theta (no sequential update), as used by the sensitivity probe.

    |step_k| <= eta (1 + lam |beta_k|) always, because each one-sided slope
    is an average of entries bounded by |x_ik| <= 1 plus the ridge term.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    r = theta.mu + X @ theta.beta - Y
    n0 = X.shape[0]
    out = np.empty(X.shape[1])
    for k in range(X.shape[1]):
        out[k] = _coordinate_step(r, X[:, k], n0, lam * float(theta.beta[k]), eta)[2]
    return out


@dataclass(frozen=True)
class GcdTrace:
    """Iterate history: the start and theta after each iteration, the
    realized per-coordinate noise draws (row t for iteration t) and the batch
    plan.  Iteration t = 0, 1, ... steps with eta_t = ell/(t+1) and draws its
    noise at scale 2 eta_t/(epsilon n0), n0 = ``plan.batch_size`` (0 at
    epsilon = inf)."""

    thetas: tuple[Theta, ...]
    noises: np.ndarray
    plan: BatchPlan

    @property
    def final(self) -> Theta:
        return self.thetas[-1]


def fit_gcd_private(data: Dataset, cfg: GcdConfig, rng: RngStream) -> GcdTrace:
    """Run the batched noisy descent.

    The default start is the unit-weight ridge least-squares solution on the
    full data (init="zero" starts from the origin instead; the least-squares
    start touches all records without noise, which the caller must account
    for).  With epsilon = inf no noise draws are consumed.
    """
    if cfg.epsilon is None:
        raise ValueError("fit requires epsilon (use math.inf for a noiseless run)")
    plan = split_batches(data.n, cfg.batches, rng)
    n0 = plan.batch_size
    if cfg.init == "ridge":
        theta0 = weighted_ridge_solve(data, np.ones(data.n), cfg.lam)
    else:
        theta0 = Theta(mu=0.0, beta=np.zeros(data.d))
    mu = theta0.mu
    beta = np.array(theta0.beta, dtype=float)
    noiseless = math.isinf(cfg.epsilon)

    thetas = [theta0]
    noises = np.zeros((cfg.batches, data.d))
    for t, idx in enumerate(plan.batches):
        Xb = data.X[idx]
        Yb = data.Y[idx]
        eta = cfg.ell / (t + 1)
        scale = 0.0 if noiseless else 2.0 * eta / (cfg.epsilon * n0)
        r = mu + Xb @ beta - Yb
        for k in range(data.d):
            step = _coordinate_step(r, Xb[:, k], n0, cfg.lam * float(beta[k]), eta)[2]
            u = 0.0 if noiseless else float(rng.laplaces(scale, 1)[0])
            move = step + u
            beta[k] += move
            if move:
                r = r + Xb[:, k] * move
            noises[t, k] = u
        mu = float(np.mean(Yb - Xb @ beta))
        thetas.append(Theta(mu=mu, beta=beta.copy()))
    noises.setflags(write=False)
    return GcdTrace(thetas=tuple(thetas), noises=noises, plan=plan)


def gcd_step_probe(
    n0: int, d: int, trials: int, cfg: GcdConfig, rng: RngStream, B: float = 1.0
) -> ProbeResult:
    """Empirical one-record sensitivity of the pre-noise step vector.

    For random batch pairs differing in one record, evaluated at the same
    random theta with step size eta = ell (the largest), the L1 distance
    between the two step vectors must stay within 2 eta / n0 (a 1e-12
    float-roundoff allowance is folded into the reported bound).
    """
    eta = cfg.ell

    def shift(pair, sub):
        theta = random_theta(d, sub)
        s_a = coordinate_step_vector(theta, pair.a.X, pair.a.Y, cfg.lam, eta)
        s_b = coordinate_step_vector(theta, pair.b.X, pair.b.Y, cfg.lam, eta)
        return float(np.abs(s_a - s_b).sum())

    return neighbor_probe(n0, d, B, trials, 2.0 * eta / n0 + 1e-12, rng, shift)
