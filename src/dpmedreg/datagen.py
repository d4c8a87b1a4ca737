"""Synthetic data generation, normalization into the bounded domain, and CSV
ingestion/emission.

The stock benchmark model is y = 2 + 3 x1 - 4 x3 + u with u ~ Laplace(2) and
covariates uniform on a box; :func:`default_generator_spec` builds it.  The
default box is centered, [-0.5, 0.5]^d: an uncentered box makes the intercept
column nearly collinear with the covariate means after row-norm scaling,
which amplifies both the intercept damping term and the perturbation noise by
an order of magnitude.  The box is recorded in run manifests and can be
overridden.  Bounds produced by :func:`normalize` are treated as public
knowledge by the fitters; data-dependent scaling is not itself privatized.

Data files are UTF-8 CSV with header x1,...,xd,y and LF line endings (CRLF
is also read), one shortest round-trip float per field, so a generated file
is byte-identical for a fixed seed and reads back to the exact doubles.
Blank lines are skipped; a malformed or non-finite row, or a line that is
not UTF-8, is a ``ValueError`` naming ``path:line``.  Rows are parsed by
numpy's parser, which also refuses tokens Python's ``float`` takes, such as
digit-group underscores (``1_0``) and non-ASCII digits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, Theta, _check_count, _check_positive
from .sampling import RngStream

__all__ = [
    "GeneratorSpec",
    "ScalingRecord",
    "default_generator_spec",
    "generate",
    "normalize",
    "unscale_theta",
    "read_csv",
    "write_csv",
]


@dataclass(frozen=True)
class GeneratorSpec:
    """Linear model with additive Laplace noise and box-uniform covariates;
    the number of covariates ``d`` is the length of ``beta``."""

    n: int
    mu: float
    beta: np.ndarray
    noise_scale: float
    box: tuple[float, float] = (-0.5, 0.5)

    def __post_init__(self) -> None:
        beta = np.array(self.beta, dtype=float)
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)
        _check_count("n", self.n)
        if beta.ndim != 1 or not beta.size:
            raise ValueError(f"beta must be a vector of d >= 1 coefficients, got shape {beta.shape}")
        if not math.isfinite(self.mu) or not np.all(np.isfinite(beta)):
            raise ValueError(f"mu and beta must be finite, got mu={self.mu}, beta={beta.tolist()}")
        _check_positive("noise_scale", self.noise_scale)
        lo, hi = self.box
        if not lo < hi:
            raise ValueError(f"box must satisfy lo < hi, got {self.box}")
        if not math.isfinite(hi - lo):
            raise ValueError(f"box must have finite ends and a finite width hi - lo, got {self.box}")

    @property
    def d(self) -> int:
        return self.beta.shape[0]

    @property
    def truth(self) -> Theta:
        return Theta(mu=self.mu, beta=self.beta)


def default_generator_spec(n: int = 5000) -> GeneratorSpec:
    """The stock three-covariate benchmark model."""
    return GeneratorSpec(n=n, mu=2.0, beta=(3.0, 0.0, -4.0), noise_scale=2.0)


def generate(spec: GeneratorSpec, rng: RngStream):
    """Draw a raw (unnormalized) table (X, Y) and return it with the truth.

    Finite knobs can still draw values past the float range; such a table is
    a ``ValueError`` naming the knobs, not a numpy warning.
    """
    lo, hi = spec.box
    X = rng.uniforms(lo, hi, spec.n * spec.d).reshape(spec.n, spec.d)
    with np.errstate(over="ignore", invalid="ignore"):
        u = rng.laplaces(spec.noise_scale, spec.n)
        Y = spec.mu + X @ spec.beta + u
    # every entry of X enters its row's Y, so a finite Y means a finite table
    if not np.isfinite(Y).all():
        raise ValueError("mu, beta, noise_scale and box draw values that overflow the float range")
    return X, Y, spec.truth


@dataclass(frozen=True)
class ScalingRecord:
    """Divisors applied to bring a raw table into the bounded domain."""

    x_scale: float
    y_scale: float

    def __post_init__(self) -> None:
        _check_positive("x_scale", self.x_scale)
        _check_positive("y_scale", self.y_scale)


def normalize(X: np.ndarray, Y: np.ndarray, target_b: float = 2.0):
    """Scale rows of X to L1 norm <= 1 and Y to |Y_i| <= target_b.

    Scaling is global (a single divisor per block), never per-row clipping, so
    the linear structure of the table is preserved.  Idempotent: a conforming
    table gets identity scales.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or Y.ndim != 1 or X.shape[0] != Y.shape[0] or X.shape[0] < 1:
        raise ValueError("need X (n, d) and Y (n,) with matching n >= 1")
    _check_positive("target_b", target_b)
    max_row = float(np.abs(X).sum(axis=1).max())
    if max_row == 0.0:
        raise ValueError("design matrix is identically zero")
    x_scale = max_row if max_row > 1.0 else 1.0
    max_y = float(np.abs(Y).max())
    y_scale = max_y / target_b if max_y > target_b else 1.0
    data = Dataset(X=X / x_scale, Y=Y / y_scale, B=target_b)
    return data, ScalingRecord(x_scale=x_scale, y_scale=y_scale)


def unscale_theta(theta: Theta, rec: ScalingRecord) -> Theta:
    """Express a fit on normalized data in the raw table's units."""
    return Theta(
        mu=theta.mu * rec.y_scale,
        beta=theta.beta * (rec.y_scale / rec.x_scale),
    )


# Rows formatted per write by :func:`write_csv`.
_CSV_BLOCK_ROWS = 8192


def _expected_header(d: int) -> list[str]:
    return [f"x{j}" for j in range(1, d + 1)] + ["y"]


def write_csv(path, X: np.ndarray, Y: np.ndarray) -> None:
    """UTF-8, LF-terminated CSV with header x1,...,xd,y.

    Floats are written with shortest round-trip formatting, so
    write-then-read reproduces the exact doubles.  Raises ``ValueError``
    for a table :func:`read_csv` would refuse: X not (n, d) with d >= 1,
    Y not (n,), n = 0, or a non-finite value.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1 or Y.shape != X.shape[:1] or X.shape[0] < 1:
        raise ValueError(
            f"need X (n, d) with d >= 1 and Y (n,) with matching n >= 1, "
            f"got X {X.shape} and Y {Y.shape}"
        )
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite value rejected")
    width = X.shape[1] + 1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_expected_header(X.shape[1])) + "\n")
        # Formatting a block at a time keeps the strings of only one block
        # alive; repr of a Python float is the shortest round-trip form.
        for start in range(0, X.shape[0], _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            values = map(repr, np.column_stack([X[start:stop], Y[start:stop]]).ravel().tolist())
            fh.write("\n".join(map(",".join, zip(*[values] * width))) + "\n")


def _decode_line(path, lineno: int, raw: bytes) -> str:
    """One line of a data file as text without its LF or CRLF ending."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}:{lineno}: not valid UTF-8 (byte {raw[exc.start]:#04x} at offset {exc.start})"
        ) from None
    return line.removesuffix("\n").removesuffix("\r")


def _first_bad_line(path, d: int, reason: str) -> ValueError:
    """The error for the first data line of ``path`` that is not d + 1
    finite floats, naming it as ``path:line``; ``reason`` if every line
    passes (a token Python's ``float`` accepts but numpy's parser refuses).
    Line numbers count the header as line 1 and include blank lines."""
    with open(path, "rb") as fh:
        fh.readline()
        for lineno, raw in enumerate(fh, start=2):
            line = _decode_line(path, lineno, raw)
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                return ValueError(f"{path}:{lineno}: expected {d + 1} fields, got {len(parts)}")
            try:
                values = [float(p) for p in parts]
            except ValueError as exc:
                return ValueError(f"{path}:{lineno}: {exc}")
            if not all(math.isfinite(v) for v in values):
                return ValueError(f"{path}:{lineno}: non-finite value rejected")
    return ValueError(f"{path}: {reason}")


def read_csv(path):
    """Read a table written by :func:`write_csv`; d is inferred from the header.

    Blank lines are skipped.  A malformed or non-finite row, or a line that
    is not UTF-8, raises ``ValueError`` naming ``path:line``.
    """
    # Only the header line is decoded here: a bad byte further down is left
    # to the parser and then named by line in _first_bad_line.
    with open(path, "rb") as fh:
        first = fh.readline()
    if not first:
        raise ValueError(f"{path}: empty file")
    header = _decode_line(path, 1, first).split(",")
    d = len(header) - 1
    if d < 1:
        raise ValueError(f"{path}: header must name at least one covariate and y")
    expected = _expected_header(d)
    for got, want in zip(header, expected):
        if got != want:
            raise ValueError(f"{path}: header column {got!r} does not match expected {want!r}")
    try:
        with warnings.catch_warnings():
            # A header-only file is reported below as "no data rows".
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, ndmin=2, encoding="utf-8"
            )
    except ValueError as exc:
        raise _first_bad_line(path, d, str(exc)) from None
    if table.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if table.shape[1] != d + 1 or not np.isfinite(table).all():
        raise _first_bad_line(path, d, "malformed or non-finite row")
    return table[:, :d], table[:, d]
