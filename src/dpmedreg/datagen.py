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
Each field is byte for byte Python's ``repr`` of its float.  :func:`write_csv`
copies, formats and writes one batch of rows at a time, about 8192 fields;
it finds the digits in numpy and calls ``repr`` only for the values that search cannot settle exactly: those outside
1e-4 <= |x| < 1e15 (zeros, subnormals and exponent forms), a power-of-two
mantissa, and the rare value whose candidate digits tie or lie within 1e-9
of the edge of its rounding interval.  Blank lines are skipped; a malformed
or non-finite row, or a line that is not UTF-8, is a ``ValueError`` naming
``path:line``.  Rows are parsed by numpy's parser, which also refuses tokens
Python's ``float`` takes, such as digit-group underscores (``1_0``) and
non-ASCII digits.

Beside each CSV it writes to a regular file, :func:`write_csv` leaves a
binary twin, ``<path>.dpmedreg-table``: a fixed header (format tag, the
sha256 of the CSV bytes, the sha256 of the table bytes, the row and column
counts) and then the (n, d + 1) table of little-endian doubles, y last,
row by row.  :func:`read_csv` returns the twin's table when the CSV and the
table still hash to the recorded digests, and parses the CSV otherwise, so
both routes give the same arrays; the CSV stays the file of record.  Each
CSV is opened once and hashed once, as its bytes pass: :func:`write_csv`
returns the sha256 of what it wrote and :func:`read_csv` that of what it
read.  A pipe's bytes can be read only once, so :func:`read_csv` keeps them
in memory to hash and parse.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import stat
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .model import Dataset, Theta, _check_count, _check_positive, _row_sums
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


@dataclass(frozen=True, eq=False)
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
    try:  # laplaces refuses, before its draw, a noise_scale whose draws can overflow
        u = rng.laplaces(spec.noise_scale, spec.n)
    except ValueError:
        u = math.inf
    with np.errstate(over="ignore", invalid="ignore"):
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


def _check_table_shape(X: np.ndarray, Y: np.ndarray) -> None:
    """Refuse anything but X (n, d) with d >= 1 and Y (n,) with n >= 1."""
    if X.ndim != 2 or X.shape[1] < 1 or Y.shape != X.shape[:1] or X.shape[0] < 1:
        raise ValueError(
            f"need X (n, d) with d >= 1 and Y (n,) with matching n >= 1, "
            f"got X {X.shape} and Y {Y.shape}"
        )


def normalize(X: np.ndarray, Y: np.ndarray, target_b: float = 2.0):
    """Scale rows of X to L1 norm <= 1 and Y to |Y_i| <= target_b.

    Scaling is global (a single divisor per block), never per-row clipping, so
    the linear structure of the table is preserved.  Idempotent: a conforming
    table gets identity scales.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    _check_table_shape(X, Y)
    _check_positive("target_b", target_b)
    max_row = float(_row_sums(np.abs(X)).max())
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


# Fields per batch of rows that write_csv copies, formats and writes to the
# twin; _format_rows' scratch is about 0.2 kB a field.
_FORMAT_FIELDS = 8192
# Bytes per read when a CSV is hashed.
_READ_BLOCK = 1 << 20

# _format_rows lays each field out in a canvas row of _FIELD_BYTES bytes:
# eight header bytes (sign, then "0." and the zeros of a value below 1),
# digit j at 8 + 2j with the slot after it for the point of a decpt of
# j + 1, and the separator.  NULs fill the rest and are dropped.
_FIELD_BYTES = 42
_MANTISSA_BITS = (1 << 52) - 1
# Every power 10**s with s <= 22 is an exact double; Dekker's split of each
# into two 26-bit halves makes a product with it exact as p + e.
_POW10 = np.array([float(10**s) for s in range(23)])
_SPLITTER = 2.0**27 + 1
_POW10_HI = _SPLITTER * _POW10 - (_SPLITTER * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# A candidate this close, relative, to the edge of a value's rounding
# interval goes to repr, which knows the edge's rounding rule.
_EDGE = 1e-9
# "0000" to "9999", the four ASCII digits of each read as one uint32
_ASCII4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1)
_ASCII4 = _ASCII4.view(np.uint32).reshape(10000)


def _uint64_rows(texts, size: int) -> np.ndarray:
    """``texts`` NUL-padded to ``size`` bytes each, as (len, size // 8) uint64."""
    return np.array(texts, dtype=f"S{size}").view(np.uint64).reshape(len(texts), size // 8)


# Header bytes by 2 * -decpt + sign for decpt 0..-3, and 8 + sign for decpt >= 1.
_HEADERS = _uint64_rows([sign + prefix for prefix in (b"0.", b"0.0", b"0.00", b"0.000", b"")
                         for sign in (b"\0", b"-")], 8)[:, 0]
# By the count of digits shown, a mask over the 24-byte digit string (seven
# NULs, then the 17 digits) that keeps only those.
_SHOWN = _uint64_rows([b"\0" * 7 + b"\xff" * count for count in range(18)], 24)

# The twin: this header, then the table's bytes.  The tag names the layout,
# so a twin of another layout, or any other file at the twin's name, is
# ignored.  Fields: tag, sha256 of the CSV, sha256 of the table bytes, rows,
# columns.
_TWIN_SUFFIX = ".dpmedreg-table"
_TWIN_TAG = b"dpmedreg-table-1"
_TWIN_HEADER = struct.Struct("<16s32s32sQQ")
_TWIN_DTYPE = np.dtype("<f8")


def _expected_header(d: int) -> list[str]:
    return [f"x{j}" for j in range(1, d + 1)] + ["y"]


def _twin_path(path) -> str:
    return os.fsdecode(path) + _TWIN_SUFFIX


def _repr_fields(values: np.ndarray) -> np.ndarray:
    """Canvas rows, less the separator, holding ``repr`` of each value."""
    texts = [repr(value) for value in values.tolist()]
    return np.array(texts, dtype=f"S{_FIELD_BYTES - 1}").view(np.uint8).reshape(-1, _FIELD_BYTES - 1)


def _shortest_digits(x: np.ndarray):
    """``repr``'s digits of each value of ``x`` as (N, count, decpt, slow):
    the first ``count`` digits of the 17-digit integer N, read as
    0.d1d2... * 10**decpt; ``slow`` marks the values left to ``repr``.

    ``repr`` shows a value x with 1e-4 <= |x| < 1e15 from its shortest digits
    that read back to x, the nearest such to x when more than one does.  With
    E = floor(log10|x|), |x| 10**(16 - E) = p + e exactly (Dekker's
    two-product), a 17-digit integer and a small remainder.  From N, p + e
    rounded, drop one digit at a time while the correctly rounded candidate
    lies strictly inside x's rounding interval, p + e -/+ h: if a shorter
    one does, so does the nearest at each longer length.  A value is slow
    when this cannot settle it exactly: outside that range (0, subnormals,
    exponent forms), a power-of-two mantissa (the interval is not
    symmetric), a wrong E from log10, a candidate on or within _EDGE of the
    interval's edge, or a tie between two candidates inside it.
    """
    a = np.abs(x)
    fast = (a >= 1e-4) & (a < 1e15) & ((x.view(np.int64) & _MANTISSA_BITS) != 0)
    np.copyto(a, 1.5, where=~fast)  # any value in range: repr overwrites these
    E = np.floor(np.log10(a)).astype(np.intp)
    scale = _POW10[16 - E]
    p = a * scale
    split = _SPLITTER * a
    a_hi = split - (split - a)
    a_lo = a - a_hi
    s_hi, s_lo = _POW10_HI[16 - E], _POW10_LO[16 - E]
    e = ((a_hi * s_hi - p) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    e_near = np.rint(e)
    slow = ~fast | (p <= 1e16) | (p >= 1e17)
    p_int = p.astype(np.int64)
    N = p_int + e_near.astype(np.int64)
    h = np.spacing(a) * scale * 0.5  # exact: a power of two times 10**s
    h_in, h_out = h * (1 - _EDGE), h * (1 + _EDGE)
    count = np.full(x.size, 17, dtype=np.intp)
    # The integer parts below stay under 2**53, so each float sum has the
    # sign of the exact one and dist is within an ulp of it.
    live = np.flatnonzero(~slow)
    for dropped in range(1, 17):
        if not live.size:
            break
        t = 10**dropped
        p_live, e_live = p_int[live], e[live]
        q = N[live] // t
        above_half = (p_live - q * t - t // 2).astype(float) + e_live
        q += above_half > 0
        candidate = q * t
        dist = np.abs((candidate - p_live).astype(float) - e_live)
        keep = (dist < h_in[live]) & (above_half != 0)
        slow[live[(dist <= h_out[live]) & ~keep]] = True
        live = live[keep]
        N[live] = candidate[keep]
        count[live] = 17 - dropped
    slow |= (count == 17) & (np.abs(e - e_near) == 0.5)  # a tie at 17 digits
    # A value whose digits round up to 10**(E + 1) would need another decpt;
    # none in range does (each power of ten there is a double, or, 0.1 to
    # 0.001, lies below its nearest double), so repr is left the case.
    slow |= N == 10**17
    N[slow] = 10**16
    return N, count, E + 1, slow


def _format_rows(batch: np.ndarray, canvas: np.ndarray) -> bytes:
    """The CSV lines of ``batch``, a C-ordered (rows, width) float array, each
    field byte for byte ``repr`` of its value; ``canvas`` is uint8 scratch of
    at least rows * width rows of _FIELD_BYTES."""
    rows, width = batch.shape
    x = batch.ravel()
    N, count, decpt, slow = _shortest_digits(x)
    # N as 24 ASCII bytes, seven zeros then its 17 digits, and NUL past the
    # digits shown: its count, or through the one after the point when the
    # value is integral ("1200.0").
    hi, lo = np.divmod(N, 10**8)
    hi_top, hi_low = np.divmod(hi.astype(np.uint32), 10**4)
    lo_top, lo_low = np.divmod(lo.astype(np.uint32), 10**4)
    text = np.empty((x.size, 6), dtype=np.uint32)
    text[:, 0] = _ASCII4[0]
    text[:, 1], text[:, 2] = _ASCII4[hi_top // 10**4], _ASCII4[hi_top % 10**4]
    text[:, 3], text[:, 4], text[:, 5] = _ASCII4[hi_low], _ASCII4[lo_top], _ASCII4[lo_low]
    text.view(np.uint64)[...] &= _SHOWN[np.maximum(count, decpt + 1)]

    cells = canvas[: x.size]
    cells[:, :8].view(np.uint64)[:, 0] = _HEADERS[np.where(decpt > 0, 8, -2 * decpt) + np.signbit(x)]
    cells[:, 8:41:2] = text.view(np.uint8)[:, 7:]
    cells[:, 9:41:2] = 0
    point = np.flatnonzero(decpt > 0)
    cells[point, 7 + 2 * decpt[point]] = ord(".")
    fallback = np.flatnonzero(slow)
    if fallback.size:
        cells[fallback, :-1] = _repr_fields(x[fallback])
    separators = cells.reshape(rows, width, _FIELD_BYTES)[:, :, -1]
    separators[:, :-1] = ord(",")
    separators[:, -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0")


def write_csv(path, X: np.ndarray, Y: np.ndarray) -> str:
    """UTF-8, LF-terminated CSV with header x1,...,xd,y, and when ``path`` is
    a regular file its binary twin (see the module docstring); returns the
    sha256 hex digest of the CSV bytes written.

    Floats are written with shortest round-trip formatting, so
    write-then-read reproduces the exact doubles.  Raises ``ValueError``
    for a table :func:`read_csv` would refuse: X not (n, d) with d >= 1,
    Y not (n,), n = 0, or a non-finite value.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    _check_table_shape(X, Y)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        raise ValueError("non-finite value rejected")
    (n, d), width = X.shape, X.shape[1] + 1
    csv_digest, table_digest = hashlib.sha256(), hashlib.sha256()
    # a batch of rows at a time is copied into one buffer, formatted into
    # the CSV and appended to the twin
    batch_rows = max(1, _FORMAT_FIELDS // width)
    buffer = np.empty((min(n, batch_rows), width))
    canvas = np.empty((buffer.size, _FIELD_BYTES), dtype=np.uint8)
    with open(path, "wb") as fh:
        # a device or pipe gets no twin: there is no file to read back
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
        with open(_twin_path(path), "wb") if regular else contextlib.nullcontext() as twin:
            data = (",".join(_expected_header(d)) + "\n").encode("utf-8")
            csv_digest.update(data)
            fh.write(data)
            if twin:
                twin.write(bytes(_TWIN_HEADER.size))
            for start in range(0, n, batch_rows):
                batch = buffer[: min(batch_rows, n - start)]
                batch[:, :d] = X[start : start + len(batch)]
                batch[:, d] = Y[start : start + len(batch)]
                data = _format_rows(batch, canvas)
                csv_digest.update(data)
                fh.write(data)
                if twin:
                    batch = batch.astype(_TWIN_DTYPE, copy=False)
                    table_digest.update(batch)
                    twin.write(batch)
            # the twin's header goes in last, so a write cut short leaves a
            # twin that read_csv ignores
            if twin:
                twin.seek(0)
                twin.write(_TWIN_HEADER.pack(_TWIN_TAG, csv_digest.digest(), table_digest.digest(), n, width))
    return csv_digest.hexdigest()


def _decode_line(path, lineno: int, raw: bytes) -> str:
    """One line of a data file as text without its LF or CRLF ending."""
    try:
        line = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(
            f"{path}:{lineno}: not valid UTF-8 (byte {raw[exc.start]:#04x} at offset {exc.start})"
        ) from None
    return line.removesuffix("\n").removesuffix("\r")


def _first_bad_line(path, fh, d: int, reason: str) -> ValueError:
    """The error for the first data line of the CSV open as ``fh`` that is
    not d + 1 finite floats, naming it as ``path:line``; ``reason`` if every
    line passes (a token Python's ``float`` accepts but numpy's parser
    refuses).  Line numbers count the header as line 1 and include blank
    lines."""
    fh.seek(0)
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


def _stream_sha256(fh) -> bytes:
    """sha256 of the bytes left in the binary file ``fh``, read one block at
    a time."""
    digest = hashlib.sha256()
    block = bytearray(_READ_BLOCK)
    view = memoryview(block)
    while size := fh.readinto(block):
        digest.update(view[:size])
    return digest.digest()


def _read_twin(path, csv_sha256: bytes) -> np.ndarray | None:
    """The (n, d + 1) table of ``path``'s twin, or None when there is no twin
    or it does not hold the table of the CSV whose bytes hash to
    ``csv_sha256``: another tag or size, a CSV whose bytes changed since the
    twin was written, or table bytes that changed."""
    try:
        fh = open(_twin_path(path), "rb")
    except OSError:
        return None
    with fh:
        header = fh.read(_TWIN_HEADER.size)
        if len(header) != _TWIN_HEADER.size:
            return None
        tag, written_sha256, table_sha256, n, width = _TWIN_HEADER.unpack(header)
        size = _TWIN_HEADER.size + n * width * _TWIN_DTYPE.itemsize
        if tag != _TWIN_TAG or n < 1 or width < 2 or os.fstat(fh.fileno()).st_size != size:
            return None
        if written_sha256 != csv_sha256:
            return None
        table = np.empty((n, width), dtype=_TWIN_DTYPE)
        if fh.readinto(table) != table.nbytes or hashlib.sha256(table).digest() != table_sha256:
            return None
    return table.astype(float, copy=False)


def _parse_csv(path, fh) -> np.ndarray:
    """The (n, d + 1) table of the CSV open as the seekable binary file
    ``fh``, parsed from its text; ``path`` names it in errors."""
    # Only the header line is decoded here: a bad byte further down is left
    # to the parser and then named by line in _first_bad_line.
    fh.seek(0)
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
            table = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except ValueError as exc:
        raise _first_bad_line(path, fh, d, str(exc)) from None
    if table.shape[0] == 0:
        raise ValueError(f"{path}: no data rows")
    if table.shape[1] != d + 1 or not np.isfinite(table).all():
        raise _first_bad_line(path, fh, d, "malformed or non-finite row")
    return table


def read_csv(path):
    """Read a table written by :func:`write_csv` as (X, Y, sha256), the last
    the hex digest of the CSV's bytes; d is inferred from the header.

    The CSV is opened once and hashed once: a regular file as its blocks
    pass, a pipe or other source that cannot seek from its bytes, read once
    and kept.  The table comes from the CSV's twin when that still matches
    the CSV (see the module docstring), else from parsing the CSV, with the
    same values, dtype, shape and strides.  Blank lines are skipped.  A
    malformed or non-finite row, or a line that is not UTF-8, raises
    ``ValueError`` naming ``path:line``.
    """
    with open(path, "rb") as fh:
        source = fh if fh.seekable() else io.BytesIO(fh.read())
        csv_sha256 = _stream_sha256(source)
        table = _read_twin(path, csv_sha256)
        if table is None:
            table = _parse_csv(path, source)
    d = table.shape[1] - 1
    return table[:, :d], table[:, d], csv_sha256.hex()
