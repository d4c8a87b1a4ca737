import hashlib
import math
import os
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dpmedreg import (
    GeneratorSpec,
    RngStream,
    ScalingRecord,
    Theta,
    datagen,
    default_generator_spec,
    generate,
    normalize,
    read_csv,
    unscale_theta,
    write_csv,
)
from dpmedreg.datagen import _CSV_BLOCK_ROWS, _READ_BLOCK, _TWIN_SUFFIX
from dpmedreg.smoothing import SmoothingConfig

from conftest import smoothed_baseline, traced_peak


def twin_of(path) -> Path:
    return Path(f"{path}{_TWIN_SUFFIX}")


def record_parses(patch) -> list:
    """Patch read_csv's text parser to record each path it parses; returns
    the record."""
    parsed, parse = [], datagen._parse_csv
    patch.setattr(datagen, "_parse_csv", lambda path: parsed.append(path) or parse(path))
    return parsed


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_both_ways(path, monkeypatch):
    """read_csv of a file write_csv wrote, first from its twin (the parser
    must not run) and then, with the twin removed, from its text; both give
    the same values, dtype, shape and strides, views of one C-order
    (n, d + 1) float64 table, and the CSV's sha256, and (X, Y) is returned."""
    reads = []
    for route in ("twin", "text"):
        if route == "text":
            twin_of(path).unlink()
        with monkeypatch.context() as patch:
            parsed = record_parses(patch)
            X, Y, digest = read_csv(path)
        assert parsed == ([path] if route == "text" else [])
        assert digest == sha256_of(path)
        width = X.shape[1] + 1
        assert X.dtype == Y.dtype == np.float64
        assert X.strides == (8 * width, 8) and Y.strides == (8 * width,)
        assert X.flags.writeable and Y.flags.writeable
        reads.append((X, Y))
    (X, Y), (X2, Y2) = reads
    assert X.shape == X2.shape and Y.shape == Y2.shape
    assert np.array_equal(X.view(np.int64), X2.view(np.int64))
    assert np.array_equal(Y.view(np.int64), Y2.view(np.int64))
    return X, Y


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=10, mu=0.0, beta=(1.0,), noise_scale=0.0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=10, mu=0.0, beta=(1.0,), noise_scale=1.0, box=(1.0, 0.0))
    with pytest.raises(ValueError, match="^beta must be a vector of d >= 1 coefficients"):
        GeneratorSpec(n=10, mu=0.0, beta=(), noise_scale=1.0)
    # d is the length of beta, not a field of its own
    assert GeneratorSpec(n=10, mu=0.0, beta=(1.0, 2.0), noise_scale=1.0).d == 2


@pytest.mark.parametrize(
    "knobs, message",
    [
        ({"noise_scale": math.nan}, "noise_scale must be positive and finite"),
        ({"noise_scale": math.inf}, "noise_scale must be positive and finite"),
        ({"noise_scale": -math.inf}, "noise_scale must be positive and finite"),
        ({"box": (0.0, math.inf)}, "box must have finite ends"),
        ({"box": (-math.inf, 0.0)}, "box must have finite ends"),
        ({"box": (-1e308, 1e308)}, "box must have finite ends and a finite width"),
        ({"box": (math.nan, 1.0)}, "box must satisfy lo < hi"),
        ({"mu": math.inf}, "mu and beta must be finite"),
        ({"beta": (math.nan,)}, "mu and beta must be finite"),
    ],
)
def test_spec_refuses_non_finite_knobs(knobs, message):
    # each of these used to build a spec whose draws are not finite
    spec = {"n": 10, "mu": 0.0, "beta": (1.0,), "noise_scale": 1.0, **knobs}
    with pytest.raises(ValueError, match=f"^{message}"):
        GeneratorSpec(**spec)


def test_spec_accepts_wide_finite_box():
    spec = GeneratorSpec(n=10, mu=0.0, beta=(1.0,), noise_scale=1.0, box=(-1e307, 1e307))
    X, Y, _ = generate(spec, RngStream(1))
    assert np.all(np.isfinite(X)) and np.all(np.isfinite(Y))


@pytest.mark.parametrize(
    "knobs",
    [
        {"beta": (1e308, 1e308), "box": (0.9, 1.0)},
        {"mu": 1.7e308, "beta": (1e308,), "box": (0.9, 1.0)},
        {"noise_scale": 1e308},
    ],
)
def test_generate_refuses_draws_that_overflow(knobs):
    # finite knobs whose Y is not: this used to be a numpy overflow warning,
    # then a write_csv error that named no knob
    spec = GeneratorSpec(**{"n": 50, "mu": 0.0, "beta": (1.0,), "noise_scale": 1.0, **knobs})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^mu, beta, noise_scale and box draw values that overflow"):
            generate(spec, RngStream(1))


def test_generate_noiseless_is_exactly_linear():
    spec = GeneratorSpec(n=50, mu=1.0, beta=(2.0, -1.0), noise_scale=1e-300)
    X, Y, truth = generate(spec, RngStream(3))
    assert np.allclose(Y, truth.mu + X @ truth.beta, atol=1e-12)


def test_generate_noise_median_near_zero():
    spec = GeneratorSpec(n=1_000_000, mu=0.0, beta=(0.0,), noise_scale=1.0)
    _, Y, _ = generate(spec, RngStream(4))
    assert abs(float(np.median(Y))) < 0.01


def test_benchmark_model_median_consistency():
    # median of y - x.beta* is the true intercept
    spec = default_generator_spec(100_000)
    X, Y, truth = generate(spec, RngStream(5))
    med = float(np.median(Y - X @ truth.beta))
    assert abs(med - truth.mu) < 0.05


def test_generate_replay_determinism():
    spec = default_generator_spec(100)
    X1, Y1, _ = generate(spec, RngStream(6))
    X2, Y2, _ = generate(spec, RngStream(6))
    assert np.array_equal(X1, X2) and np.array_equal(Y1, Y2)


def test_normalize_identity_on_conforming_table(rng):
    X = rng.uniforms(-0.2, 0.2, 20).reshape(10, 2)
    Y = rng.uniforms(-1.0, 1.0, 10)
    data, rec = normalize(X, Y, target_b=2.0)
    assert rec.x_scale == 1.0 and rec.y_scale == 1.0
    assert np.array_equal(data.X, X) and np.array_equal(data.Y, Y)


def test_normalize_scales_and_is_idempotent():
    X = np.array([[3.0, 1.0], [0.5, 0.5]])  # max row norm 4
    Y = np.array([10.0, -2.0])
    data, rec = normalize(X, Y, target_b=2.0)
    assert rec.x_scale == pytest.approx(4.0)
    assert rec.y_scale == pytest.approx(5.0)
    assert float(np.abs(data.X).sum(axis=1).max()) <= 1.0
    assert float(np.abs(data.Y).max()) <= 2.0
    data2, rec2 = normalize(data.X, data.Y, target_b=2.0)
    assert rec2.x_scale == 1.0 and rec2.y_scale == 1.0
    assert np.array_equal(data2.X, data.X) and np.array_equal(data2.Y, data.Y)


def test_normalize_rejects_zero_design():
    with pytest.raises(ValueError, match="^design matrix is identically zero$"):
        normalize(np.zeros((3, 2)), np.ones(3))


def test_normalize_refuses_a_design_without_columns():
    # an (n, 0) X is a shape fault, refused with write_csv's message before
    # any row sum; it used to be called "identically zero"
    with pytest.raises(ValueError, match=r"^need X \(n, d\) with d >= 1 .* got X \(3, 0\)"):
        normalize(np.zeros((3, 0)), np.ones(3))


def test_unscale_theta_simple():
    rec = ScalingRecord(x_scale=2.0, y_scale=3.0)
    out = unscale_theta(Theta(1.0, np.array([1.0])), rec)
    assert out.mu == pytest.approx(3.0)
    assert out.beta[0] == pytest.approx(1.5)
    ident = ScalingRecord(x_scale=1.0, y_scale=1.0)
    same = unscale_theta(Theta(0.7, np.array([-0.2])), ident)
    assert same.mu == 0.7 and same.beta[0] == -0.2


def test_unscaled_fit_recovers_exact_linear():
    spec = GeneratorSpec(n=200, mu=1.5, beta=(4.0, -3.0), noise_scale=1e-300, box=(-2.0, 2.0))
    X, Y, truth = generate(spec, RngStream(8))
    data, rec = normalize(X, Y, target_b=2.0)
    theta = smoothed_baseline(data, SmoothingConfig(lam=0.0, gamma=1e-6))
    est = unscale_theta(theta, rec)
    assert abs(est.mu - truth.mu) < 1e-6
    assert np.all(np.abs(est.beta - truth.beta) < 1e-6)


def test_csv_round_trip_bit_identical(tmp_path, rng, monkeypatch):
    X = rng.uniforms(-1, 1, 30).reshape(10, 3)
    Y = rng.laplaces(2.0, 10)
    path = tmp_path / "t.csv"
    assert write_csv(path, X, Y) == sha256_of(path)
    X2, Y2 = read_both_ways(path, monkeypatch)
    assert np.array_equal(X, X2)
    assert np.array_equal(Y, Y2)
    raw1 = path.read_bytes()
    assert write_csv(path, X2, Y2) == hashlib.sha256(raw1).hexdigest()
    assert path.read_bytes() == raw1


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,z2,y\n0.1,0.2,0.3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="z2"):
        read_csv(path)


@pytest.mark.parametrize(
    "text, message",
    [("", "empty file"), ("y\n", "header must name at least one covariate and y")],
    ids=["empty", "y-only"],
)
def test_csv_refuses_a_file_that_names_no_covariate(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=f"bad\\.csv: {message}$"):
        read_csv(path)


def test_csv_malformed_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.1,0.2\n0.1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":3"):
        read_csv(path)


def test_csv_non_utf8_data_line_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x1,y\n1,2\n\xff,3\n")
    with pytest.raises(ValueError, match=r"bad\.csv:3: not valid UTF-8"):
        read_csv(path)


def test_csv_non_utf8_header_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"x\xff1,y\n1,2\n")
    with pytest.raises(ValueError, match=r"bad\.csv:1: not valid UTF-8"):
        read_csv(path)


def test_csv_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\nnan,0.2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="non-finite"):
        read_csv(path)


def test_csv_infers_dimension(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    write_csv(path, np.array([[0.1, 0.2, 0.3, 0.4]]), np.array([1.0]))
    assert path.read_text(encoding="utf-8") == "x1,x2,x3,x4,y\n0.1,0.2,0.3,0.4,1.0\n"
    X, Y = read_both_ways(path, monkeypatch)
    assert X.shape == (1, 4)
    assert Y.shape == (1,)


def _reference_csv_bytes(X, Y):
    """Row-by-row formatting, the reference for the block-wise writer."""
    lines = [",".join([f"x{j}" for j in range(1, X.shape[1] + 1)] + ["y"])]
    for i in range(X.shape[0]):
        lines.append(",".join([repr(float(v)) for v in X[i]] + [repr(float(Y[i]))]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("n", [1, _CSV_BLOCK_ROWS - 1, _CSV_BLOCK_ROWS, _CSV_BLOCK_ROWS + 1])
def test_csv_written_bytes_match_row_reference(tmp_path, n):
    rng = RngStream(n)
    X = rng.uniforms(-1, 1, 2 * n).reshape(n, 2)
    Y = rng.laplaces(2.0, n)
    path = tmp_path / "t.csv"
    write_csv(path, X, Y)
    assert path.read_bytes() == _reference_csv_bytes(X, Y)


def assert_writes_reference(path, X, Y):
    """write_csv of (X, Y) writes the per-row repr reference and returns its sha256."""
    want = _reference_csv_bytes(X, Y)
    assert write_csv(path, X, Y) == hashlib.sha256(want).hexdigest()
    assert Path(path).read_bytes() == want


def count_repr_fallbacks(patch) -> list:
    """Patch the block formatter's repr fallback to record how many values
    each call formats; returns the record."""
    counts, fallback = [], datagen._repr_fields
    patch.setattr(datagen, "_repr_fields", lambda values: counts.append(values.size) or fallback(values))
    return counts


def double_of_bits(bits: int) -> float:
    return float(np.uint64(bits).view(np.float64))


# Any finite bit pattern, and ones with exponents near the positional range
# 1e-4 <= |x| < 1e15 that the block formatter does not send to repr.
finite_doubles = st.one_of(
    st.integers(0, 2**64 - 1).map(double_of_bits),
    st.builds(lambda sign, power, mantissa: double_of_bits(sign << 63 | power << 52 | mantissa),
              st.integers(0, 1), st.integers(1023 - 16, 1023 + 52), st.integers(0, 2**52 - 1)),
    st.floats(allow_nan=False, allow_infinity=False),
).filter(math.isfinite)


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), d=st.integers(1, 4), m=st.integers(1, 12), fields=st.sampled_from([1, 3, 8192]))
def test_csv_fields_are_repr_for_any_finite_bits(tmp_path, data, d, m, fields):
    table = np.array(data.draw(st.lists(finite_doubles, min_size=m * (d + 1), max_size=m * (d + 1))))
    table = table.reshape(m, d + 1)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datagen, "_FORMAT_FIELDS", fields)
        assert_writes_reference(tmp_path / "t.csv", table[:, :d], table[:, d])


def adversarial_doubles() -> np.ndarray:
    """Values at the edges of the block formatter's cases, with both signs."""
    tens = np.array([10.0**k for k in range(-5, 17)])
    twos = np.ldexp(1.0, np.arange(-20, 60))
    ties = np.concatenate([np.arange(1, 400, 2) / 2.0**j for j in range(1, 40, 3)])
    near = np.concatenate([1e15 + np.arange(-40, 41), 2.0**53 + np.arange(-40, 41)])
    # the two last-digit candidates tie, at 17 digits and at 16
    halves = np.concatenate([1e14 + np.arange(1, 40, 2) / 8, 2.0**49 + np.arange(1, 40) / 8])
    fixed = [9.5, 0.95, 0.0095, 99.99999999999999, 0.0, 5e-324, 1.7976931348623157e308, 1e300]
    X, Y, _ = generate(default_generator_spec(4000), RngStream(17))
    values = np.concatenate([
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf),
        twos, np.nextafter(twos, 0), np.nextafter(twos, np.inf),
        ties, near, halves, fixed, X.ravel(), Y,
    ])
    return np.concatenate([values, -values])


def test_csv_fields_are_repr_on_adversarial_values(tmp_path, monkeypatch):
    values = adversarial_doubles()
    assert_writes_reference(tmp_path / "t.csv", values[:, None], values[::-1])
    # the layout of the rows and batches does not change a byte
    monkeypatch.setattr(datagen, "_FORMAT_FIELDS", 37)
    monkeypatch.setattr(datagen, "_CSV_BLOCK_ROWS", 1000)
    table = values[: len(values) // 4 * 4].reshape(-1, 4)
    assert_writes_reference(tmp_path / "t.csv", table[:, :3], table[:, 3])


def test_csv_stock_fields_rarely_fall_back_to_repr(tmp_path, monkeypatch):
    X, Y, _ = generate(default_generator_spec(8192), RngStream(5))
    counts = count_repr_fallbacks(monkeypatch)
    assert_writes_reference(tmp_path / "t.csv", X, Y)
    assert sum(counts) < 0.01 * (X.size + Y.size)


def test_csv_table_of_only_repr_fallbacks(tmp_path, monkeypatch):
    # out of the positional range, a zero, a subnormal, a power-of-two
    # mantissa, a tie of two 17-digit candidates, a tie of two 16-digit ones
    X = np.array([[1e-300, 1e20, -0.0], [5e-324, -1e16, 0.5], [2.0**-30, 0.0, -1.25e-5]])
    Y = np.array([-1.7976931348623157e308, 100000000000000.125, 562949953421312.25])
    counts = count_repr_fallbacks(monkeypatch)
    assert_writes_reference(tmp_path / "t.csv", X, Y)
    assert sum(counts) == X.size + Y.size


def test_write_csv_memory_stays_within_budget(tmp_path):
    # n = 5e4, d = 3: 2e5 fields, formatted a batch at a time; 3 080 408 bytes
    # is the peak of the former writer, which joined Python's repr of each
    # field; a formatter of the whole table at once would pass it
    X, Y, _ = generate(default_generator_spec(50_000), RngStream(3))
    _, peak = traced_peak(write_csv, tmp_path / "t.csv", X, Y)
    assert peak <= 3_080_408 + 64 * 1024


def test_csv_round_trip_edge_doubles(tmp_path, monkeypatch):
    edge = [5e-324, -0.0, 1e-05, 1e16, 1.7976931348623157e308, 1 / 3]
    X = np.array([edge, edge[::-1]])
    Y = np.array([-5e-324, -1.7976931348623157e308])
    path = tmp_path / "t.csv"
    write_csv(path, X, Y)
    X2, Y2 = read_both_ways(path, monkeypatch)
    assert np.array_equal(X.view(np.int64), X2.view(np.int64))
    assert np.array_equal(Y.view(np.int64), Y2.view(np.int64))


def test_csv_accepts_crlf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x1,y\r\n0.5,1.0\r\n-0.25,2.0\r\n")
    X, Y, _ = read_csv(path)
    assert X.tolist() == [[0.5], [-0.25]]
    assert Y.tolist() == [1.0, 2.0]


def test_csv_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,y\n0.5,1.0\n\n0.25,2.0\n\n", encoding="utf-8")
    X, Y, _ = read_csv(path)
    assert X.tolist() == [[0.5], [0.25]]
    assert Y.tolist() == [1.0, 2.0]
    path.write_text("x1,y\n0.5,1.0\n\nnan,2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":4: non-finite"):
        read_csv(path)


@pytest.mark.parametrize("bad", ["#0.5,1.0", "   ", "1_0,2.0"])
def test_csv_rejects_hash_whitespace_and_underscore_lines(tmp_path, bad):
    path = tmp_path / "t.csv"
    path.write_text(f"x1,y\n0.5,1.0\n{bad}\n0.25,2.0\n", encoding="utf-8")
    # Python's float takes digit-group underscores, so that line is refused
    # by the parser's own message rather than by line number.
    match = r"t\.csv: " if "_" in bad else r"t\.csv:3: "
    with pytest.raises(ValueError, match=match):
        read_csv(path)


def test_csv_header_only_raises_without_warning(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,y\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            read_csv(path)


def test_csv_single_row_keeps_two_dimensions(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    write_csv(path, np.array([[0.5, -0.5]]), np.array([1.5]))
    X, Y = read_both_ways(path, monkeypatch)
    assert X.shape == (1, 2)
    assert Y.shape == (1,)


@pytest.mark.parametrize(
    "X, Y, match",
    [
        (np.zeros((2, 2)), np.array([1.0, 2.0, 3.0]), r"need X \(n, d\)"),
        (np.zeros(2), np.zeros(2), r"need X \(n, d\)"),
        (np.zeros((2, 0)), np.zeros(2), r"need X \(n, d\)"),
        (np.zeros((2, 1)), np.zeros((2, 1)), r"need X \(n, d\)"),
        (np.zeros((0, 2)), np.zeros(0), r"need X \(n, d\)"),
        (np.array([[np.nan, 0.0]]), np.zeros(1), "non-finite"),
        (np.zeros((1, 2)), np.array([np.inf]), "non-finite"),
    ],
    ids=["y-too-long", "x-1d", "d-zero", "y-2d", "n-zero", "x-nan", "y-inf"],
)
def test_write_csv_rejects_what_read_csv_refuses(tmp_path, X, Y, match):
    path = tmp_path / "t.csv"
    with pytest.raises(ValueError, match=match):
        write_csv(path, X, Y)
    assert not path.exists() and not twin_of(path).exists()


@pytest.mark.parametrize("target_b", [math.nan, math.inf, -math.inf])
def test_normalize_refuses_non_finite_target_b(target_b):
    with pytest.raises(ValueError, match="^target_b must be positive and finite"):
        normalize(np.array([[0.5], [2.0]]), np.array([1.0, -3.0]), target_b)


def _flip(offset):
    def edit(twin, csv):
        raw = bytearray(twin.read_bytes())
        raw[offset] ^= 0xFF
        twin.write_bytes(bytes(raw))

    return edit


def _edit_csv(twin, csv):
    # a hand edit: one value changed, so the twin's table is no longer the CSV's
    csv.write_text(csv.read_text(encoding="utf-8").replace("\n0.", "\n0.5", 1), encoding="utf-8")


# Each way a twin can fail to hold its CSV's table; offsets are in its
# 96-byte header (tag, CSV sha256, table sha256, rows, columns) and table.
TWIN_FAULTS = {
    "stale": _edit_csv,
    "truncated": lambda twin, csv: twin.write_bytes(twin.read_bytes()[:-1]),
    "table byte flipped": _flip(96 + 8 * 5 + 3),
    "wrong format tag": lambda twin, csv: twin.write_bytes(b"dpmedreg-table-2" + twin.read_bytes()[16:]),
    "unrelated file": lambda twin, csv: twin.write_text("a file of someone else's\n", encoding="utf-8"),
    "csv digest flipped": _flip(16),
    "table digest flipped": _flip(48),
    "row count flipped": _flip(80),
    "column count flipped": _flip(88),
    "empty": lambda twin, csv: twin.write_bytes(b""),
}


@pytest.mark.parametrize("fault", TWIN_FAULTS)
def test_csv_ignores_a_twin_that_does_not_hold_its_table(tmp_path, monkeypatch, fault):
    path = tmp_path / "t.csv"
    X = np.array([[0.25, -1.5], [0.125, 3.0], [0.0625, -0.5]])
    write_csv(path, X, np.array([1.0, 2.0, -3.0]))
    TWIN_FAULTS[fault](twin_of(path), path)
    reference = tmp_path / "reference.csv"
    reference.write_bytes(path.read_bytes())
    *want, _ = read_csv(reference)
    parsed = record_parses(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        *got, digest = read_csv(path)
    assert parsed == [path]
    assert digest == sha256_of(path)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b) and a.dtype == b.dtype and a.strides == b.strides


@pytest.mark.parametrize("twin", ["stale", "unrelated file"])
def test_csv_that_fails_to_parse_raises_whatever_twin_sits_beside_it(tmp_path, twin):
    path = tmp_path / "t.csv"
    write_csv(path, np.array([[0.5], [0.25]]), np.array([1.0, 2.0]))
    if twin == "unrelated file":
        TWIN_FAULTS[twin](twin_of(path), path)
    path.write_text("x1,y\n0.5,1.0\n0.25\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"t\.csv:3: expected 2 fields, got 1"):
        read_csv(path)


def test_twin_is_byte_identical_and_holds_the_table(tmp_path):
    X, Y, _ = generate(default_generator_spec(500), RngStream(2))
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        write_csv(path, X, Y)
    raw = twin_of(paths[0]).read_bytes()
    assert raw == twin_of(paths[1]).read_bytes()
    assert raw[:16] == b"dpmedreg-table-1" and len(raw) == 96 + 500 * 4 * 8
    table = np.frombuffer(raw[96:], dtype="<f8").reshape(500, 4)
    assert np.array_equal(table[:, :3], X) and np.array_equal(table[:, 3], Y)


def test_write_csv_to_a_pipe_writes_no_twin(tmp_path):
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    received = []
    reader = threading.Thread(target=lambda: received.append(path.read_bytes()))
    reader.start()
    digest = write_csv(path, np.array([[0.5]]), np.array([1.0]))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [b"x1,y\n0.5,1.0\n"]
    assert digest == hashlib.sha256(received[0]).hexdigest()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pipe.csv"]


def test_read_csv_through_the_twin_holds_the_table_and_one_read_block(tmp_path):
    # n = 5e4, d = 3: the table is 1.6 MB and the CSV about 4 MB, so hashing
    # the CSV from one whole-file read would pass the bound
    X, Y, _ = generate(default_generator_spec(50_000), RngStream(3))
    path = tmp_path / "t.csv"
    write_csv(path, X, Y)
    assert path.stat().st_size > X.nbytes + Y.nbytes + 2 * _READ_BLOCK
    (X2, Y2, _), peak = traced_peak(read_csv, path)
    assert np.array_equal(X2, X) and np.array_equal(Y2, Y)
    assert peak < X.nbytes + Y.nbytes + _READ_BLOCK + 64 * 1024
