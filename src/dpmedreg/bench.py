"""Benchmark plumbing shared by the CLI and the test suite: the algorithm
table, replicate loops, and table rendering.

Algorithm ids: alg1 = objective-perturbed smoothing, alg2 = output-perturbed
reweighted least squares, alg3 = noisy batched greedy coordinate descent;
baseline-smooth and baseline-irls are alg1 and alg2 at epsilon = inf.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields

import numpy as np

from .datagen import GeneratorSpec, default_generator_spec, generate, normalize, unscale_theta
from .gcd import GcdConfig, fit_gcd_private
from .irls import IrlsConfig, fit_irls_private
from .model import Dataset, Theta
from .sampling import RngStream
from .smoothing import SmoothingConfig, fit_smoothed_private

__all__ = [
    "ALGORITHMS",
    "ALGORITHM_TABLE",
    "Algorithm",
    "CellResult",
    "resolve_params",
    "run_fit",
    "run_cell",
    "parameter_names",
    "rows_to_csv",
    "tables_to_markdown",
]

@dataclass(frozen=True)
class Algorithm:
    """One row of the algorithm table: ``knobs`` maps each CLI knob to its
    ``config`` field, whose default is the knob's; the config's type picks
    the fitter.  Private algorithms take epsilon and a seed; a row without an
    epsilon knob runs at epsilon = inf."""

    config: type
    knobs: dict[str, str]

    @property
    def private(self) -> bool:
        return "epsilon" in self.knobs


# A baseline row is its mechanism at epsilon = inf.
ALGORITHM_TABLE = {
    "alg1": Algorithm(SmoothingConfig, {"epsilon": "epsilon", "lam": "lam", "gamma": "gamma"}),
    "alg2": Algorithm(
        IrlsConfig, {"epsilon": "epsilon", "lam": "lam", "e": "e", "tau": "tau", "n0": "max_iters"}
    ),
    "alg3": Algorithm(
        GcdConfig, {"epsilon": "epsilon", "lam": "lam", "ell": "ell", "n0": "batches", "init": "init"}
    ),
    "baseline-smooth": Algorithm(SmoothingConfig, {"lam": "lam", "gamma": "gamma"}),
    "baseline-irls": Algorithm(IrlsConfig, {"lam": "lam", "e": "e", "tau": "tau", "n0": "max_iters"}),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)


def _algorithm(algo: str) -> Algorithm:
    if algo not in ALGORITHM_TABLE:
        raise ValueError(f"unknown algorithm {algo!r}")
    return ALGORITHM_TABLE[algo]


def resolve_params(algo: str, overrides: dict) -> dict:
    """Knob values for ``algo``: the config field defaults, replaced by every
    non-None override."""
    entry = _algorithm(algo)
    defaults = {f.name: f.default for f in fields(entry.config)}
    params = {knob: defaults[field] for knob, field in entry.knobs.items()}
    for key, value in overrides.items():
        if value is not None:
            if key not in params:
                raise ValueError(f"flag {key!r} does not apply to {algo}")
            params[key] = value
    return params


def run_fit(algo: str, data: Dataset, params: dict, rng: RngStream | None) -> tuple[Theta, float, dict]:
    """One fit on normalized data; returns (theta, elapsed, extras), where
    the extras are the release's ``noise`` and ``noise_scale``."""
    entry = _algorithm(algo)
    settings = {"epsilon": math.inf} | {field: params[knob] for knob, field in entry.knobs.items()}
    cfg = entry.config(**settings)
    # The fitters are read from this module's globals on every call, so a
    # fitter replaced here (say, by a tracer) sees every fit.
    fit = {
        SmoothingConfig: fit_smoothed_private,
        IrlsConfig: fit_irls_private,
        GcdConfig: fit_gcd_private,
    }[entry.config]
    start = time.perf_counter()
    release = fit(data, cfg, rng)
    elapsed = time.perf_counter() - start
    return release.theta, elapsed, {"noise": release.noise, "noise_scale": release.noise_scale}


@dataclass(frozen=True, eq=False)
class CellResult:
    """Aggregate over replicates of one (algorithm, n) cell."""

    algo: str
    n: int
    median_theta: Theta  # per-coordinate median of unscaled estimates
    median_elapsed: float
    median_l1_error: float
    truth: Theta


def parameter_names(d: int) -> list[str]:
    return ["mu"] + [f"beta{j}" for j in range(1, d + 1)]


def run_cell(
    algo: str,
    n: int,
    replicates: int,
    seed: int,
    cell_id: int,
    params: dict,
    spec: GeneratorSpec | None = None,
) -> CellResult:
    """Run ``replicates`` independent generate+fit rounds for one cell.

    Replicate r uses streams derive(cell_id, r, 0) for data and
    derive(cell_id, r, 1) for the fit, so cells and replicates are
    independent and individually replayable.
    """
    if isinstance(replicates, bool) or not isinstance(replicates, numbers.Integral) or replicates < 1:
        raise ValueError(f"replicates must be a positive integer, got {replicates!r}")
    spec = spec if spec is not None else default_generator_spec(n)
    if spec.n != n:
        raise ValueError(f"spec draws {spec.n} rows, but the cell is n={n}")
    root = RngStream(seed)
    estimates = np.empty((replicates, spec.d + 1))
    elapsed = np.empty(replicates)
    errors = np.empty(replicates)
    truth_vec = spec.truth.as_vector()
    for rep in range(replicates):
        X, Y, truth = generate(spec, root.derive(cell_id, rep, 0))
        data, record = normalize(X, Y)
        theta, dt, _ = run_fit(algo, data, params, root.derive(cell_id, rep, 1))
        est = unscale_theta(theta, record)
        estimates[rep] = est.as_vector()
        elapsed[rep] = dt
        errors[rep] = float(np.abs(est.as_vector() - truth_vec).sum())
    med = np.median(estimates, axis=0)
    return CellResult(
        algo=algo,
        n=n,
        median_theta=Theta.from_vector(med),
        median_elapsed=float(np.median(elapsed)),
        median_l1_error=float(np.median(errors)),
        truth=spec.truth,
    )


def rows_to_csv(cells: list[CellResult]) -> str:
    """Long-form result table, one row per (cell, parameter) plus summary rows."""
    lines = ["n,algorithm,parameter,estimate,true_value,elapsed_seconds"]
    for cell in cells:
        names = parameter_names(cell.truth.d)
        est = cell.median_theta.as_vector()
        tru = cell.truth.as_vector()
        for name, e_val, t_val in zip(names, est, tru):
            lines.append(
                f"{cell.n},{cell.algo},{name},{float(e_val)!r},{float(t_val)!r},{cell.median_elapsed!r}"
            )
        lines.append(
            f"{cell.n},{cell.algo},l1_error,{cell.median_l1_error!r},0.0,{cell.median_elapsed!r}"
        )
    return "\n".join(lines) + "\n"


def tables_to_markdown(cells: list[CellResult]) -> str:
    """One table per n: parameters as rows, algorithms as columns."""
    by_n: dict[int, list[CellResult]] = {}
    for cell in cells:
        by_n.setdefault(cell.n, []).append(cell)
    blocks = []
    for n in sorted(by_n):
        group = by_n[n]
        truth = group[0].truth
        names = parameter_names(truth.d)
        header = ["parameter"] + [c.algo for c in group] + ["true value"]
        lines = [f"## Benchmark estimates, n = {n}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        tru = truth.as_vector()
        for i, name in enumerate(names):
            row = [name] + [f"{c.median_theta.as_vector()[i]:.4f}" for c in group] + [f"{tru[i]:.4f}"]
            lines.append("| " + " | ".join(row) + " |")
        lines.append(
            "| l1_error | " + " | ".join(f"{c.median_l1_error:.4f}" for c in group) + " |  |"
        )
        lines.append(
            "| time(s) | " + " | ".join(f"{c.median_elapsed:.4f}" for c in group) + " |  |"
        )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
