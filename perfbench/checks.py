"""Output checks built from computations made apart from the program.

Each check raises :class:`CheckFailed` with a message naming what differed.
Nothing here calls into ``dpmedreg``: the CSV is re-parsed with the standard
library, digests come from ``hashlib``, noise scales and probe bounds are
recomputed from the paper's closed forms, and the noiseless reweighted fit is
an independent numpy implementation.
"""

from __future__ import annotations

import csv
import hashlib
import math

import numpy as np

TRUTH = (2.0, 3.0, 0.0, -4.0)  # (mu, beta1, beta2, beta3) of the stock model

# Tail probability at which a Laplace draw counts as out of range, per coordinate.
TAIL_P = 1e-9


class CheckFailed(Exception):
    """An output did not match its independent computation."""


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def read_manifest(path) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if line.strip())


def check_fingerprint(manifest: dict, path, n: int) -> None:
    """The manifest's dataset fingerprint names n and the file's sha256."""
    want = f"n={n};sha256={sha256_file(path)}"
    if manifest.get("dataset_fingerprint") != want:
        raise CheckFailed(
            f"{path}: manifest fingerprint {manifest.get('dataset_fingerprint')!r} != {want!r}"
        )


def check_csv_matches(path, X: np.ndarray, Y: np.ndarray) -> None:
    """Re-parse the table with the csv module; every double must equal the draw."""
    n, d = X.shape
    header = [f"x{j}" for j in range(1, d + 1)] + ["y"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != header:
            raise CheckFailed(f"{path}: header is not {','.join(header)}")
        rows = 0
        for i, row in enumerate(reader):
            if i >= n:
                raise CheckFailed(f"{path}: more than {n} data rows")
            want = X[i].tolist() + [float(Y[i])]
            if len(row) != d + 1 or [float(v) for v in row] != want:
                raise CheckFailed(f"{path}: data row {i + 1} is {row}, expected {want}")
            rows += 1
    if rows != n:
        raise CheckFailed(f"{path}: {rows} data rows, expected {n}")


def read_fit_csv(path) -> list[list[str]]:
    """Rows of a ``dpmedreg fit --format csv`` result, header included."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["algorithm", "parameter", "estimate", "true_value", "elapsed_seconds"]:
        raise CheckFailed(f"{path}: unexpected fit header {rows[:1]}")
    return rows


def fit_estimate(rows: list[list[str]]) -> np.ndarray:
    names = [row[1] for row in rows[1:]]
    want = ["mu"] + [f"beta{j}" for j in range(1, len(names))]
    if names != want:
        raise CheckFailed(f"fit parameters {names} != {want}")
    return np.array([float(row[2]) for row in rows[1:]])


def without_timing(rows: list[list[str]]) -> list[list[str]]:
    """Fit rows with the elapsed column dropped: the part that must repeat."""
    return [row[:-1] for row in rows]


def check_near_truth(estimate, tolerance: float, label: str) -> float:
    """Largest coordinate deviation from the generating parameters, checked."""
    dev = float(np.max(np.abs(np.asarray(estimate, dtype=float) - np.array(TRUTH))))
    if not dev <= tolerance:
        raise CheckFailed(f"{label}: deviation {dev:.4g} from {TRUTH} exceeds {tolerance}")
    return dev


def normal_scales(X: np.ndarray, Y: np.ndarray, target_b: float = 2.0) -> tuple[float, float]:
    """Global divisors that bring rows to L1 norm <= 1 and |y| <= target_b."""
    max_row = float(np.abs(X).sum(axis=1).max())
    max_y = float(np.abs(Y).max())
    return (max_row if max_row > 1.0 else 1.0), (max_y / target_b if max_y > target_b else 1.0)


def alg2_noise_scale(d: int, n: int, B: float, lam: float, e: float, epsilon: float) -> float:
    """Laplace scale of alg2, 8(sqrt(dv)+B) / (n min(2/(2(sqrt(dv)+B)+e), lam) e) / epsilon,
    at the default coefficient bound v = 8 B^2 / (lam e)."""
    v = 8.0 * B * B / (lam * e)
    reach = math.sqrt(d * v) + B
    return 8.0 * reach / (n * min(2.0 / (2.0 * reach + e), lam) * e) / epsilon


def alg3_probe_bound(ell: float, n0: int) -> float:
    """Step-vector sensitivity 2 ell / n0 plus the probe's 1e-12 roundoff allowance."""
    return 2.0 * ell / n0 + 1e-12


def check_scale(reported: float, expected: float, label: str) -> None:
    if not math.isclose(reported, expected, rel_tol=1e-12):
        raise CheckFailed(f"{label}: noise scale {reported!r} != closed form {expected!r}")


def noiseless_irls(X, Y, lam: float, e: float, tau: float = 1e-6, max_iters: int = 200) -> np.ndarray:
    """Reweighted ridge least squares, w_i = 1/(|r_i| + e), intercept unpenalized,
    solved from the normal equations with numpy; returns (mu, beta...)."""
    n, d = X.shape
    Xt = np.hstack([np.ones((n, 1)), X])
    ridge = np.full(d + 1, n * lam / 2.0)
    ridge[0] = 0.0

    def solve(w):
        return np.linalg.solve(Xt.T @ (Xt * w[:, None]) + np.diag(ridge), Xt.T @ (w * Y))

    omega = solve(np.ones(n))
    for _ in range(max_iters):
        new = solve(1.0 / (np.abs(Xt @ omega - Y) + e))
        step = np.abs(new - omega)
        omega = new
        if step[0] <= tau and step[1:].sum() <= tau:
            break
    return omega


def check_laplace_noise(noise, scale: float, label: str) -> None:
    """Each coordinate of a Laplace(scale) draw lies within the TAIL_P tail and
    is not zero to within the same probability (the noise was added)."""
    noise = np.abs(np.asarray(noise, dtype=float))
    top = scale * math.log(1.0 / TAIL_P)
    floor = scale * TAIL_P
    if np.any(noise > top) or np.any(noise < floor):
        raise CheckFailed(f"{label}: |noise| {noise} outside [{floor:.3g}, {top:.3g}] at scale {scale:.6g}")


def check_noise_ratio(noise, scale: float, label: str) -> float:
    """median |noise| / (scale ln 2) in [0.5, 2]: the median of |Laplace(c)| is c ln 2."""
    ratio = float(np.median(np.abs(noise))) / (scale * math.log(2.0))
    if not 0.5 <= ratio <= 2.0:
        raise CheckFailed(f"{label}: median |noise|/(scale ln 2) = {ratio:.3f} outside [0.5, 2]")
    return ratio


def parse_probe(text: str) -> list[tuple[str, float, str, str]]:
    """Lines ``name: observed=X bound=Y STATUS`` as (name, observed, bound text, status)."""
    out = []
    for line in text.splitlines():
        name, _, rest = line.partition(": ")
        fields = rest.split()
        if len(fields) != 3 or not fields[0].startswith("observed=") or not fields[1].startswith("bound="):
            raise CheckFailed(f"unexpected probe line {line!r}")
        out.append((name, float(fields[0][9:]), fields[1][6:], fields[2]))
    return out


def check_probe(text: str, bounds: dict[str, float]) -> bool:
    """Every expected line is present, prints its closed-form bound, and its
    status agrees with observed <= bound (>= for coverage floors).  Returns
    whether every line reads PASS."""
    lines = parse_probe(text)
    names = [line[0] for line in lines]
    if names != list(bounds):
        raise CheckFailed(f"probe lines {names} != {list(bounds)}")
    all_pass = True
    for name, observed, bound_text, status in lines:
        want = f"{bounds[name]:.6g}"
        if bound_text != want:
            raise CheckFailed(f"{name}: printed bound {bound_text} != closed form {want}")
        within = observed >= bounds[name] if "coverage" in name else observed <= bounds[name]
        if status not in ("PASS", "FAIL"):
            raise CheckFailed(f"{name}: status {status!r}")
        # the printed observed value is rounded, so only a clear disagreement counts
        if (status == "PASS") != within and not math.isclose(observed, bounds[name], rel_tol=1e-5):
            raise CheckFailed(f"{name}: {status} with observed {observed} against bound {bounds[name]}")
        all_pass &= status == "PASS"
    return all_pass
