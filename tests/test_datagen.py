import math
import warnings

import numpy as np
import pytest

from dpmedreg import (
    GeneratorSpec,
    RngStream,
    ScalingRecord,
    Theta,
    default_generator_spec,
    generate,
    normalize,
    read_csv,
    unscale_theta,
    write_csv,
)
from dpmedreg.datagen import _CSV_BLOCK_ROWS
from dpmedreg.smoothing import SmoothingConfig

from conftest import smoothed_baseline


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
    with pytest.raises(ValueError):
        normalize(np.zeros((3, 2)), np.ones(3))


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


def test_csv_round_trip_bit_identical(tmp_path, rng):
    X = rng.uniforms(-1, 1, 30).reshape(10, 3)
    Y = rng.laplaces(2.0, 10)
    path = tmp_path / "t.csv"
    write_csv(path, X, Y)
    X2, Y2 = read_csv(path)
    assert np.array_equal(X, X2)
    assert np.array_equal(Y, Y2)
    raw1 = path.read_bytes()
    write_csv(path, X2, Y2)
    assert path.read_bytes() == raw1


def test_csv_header_checked(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,z2,y\n0.1,0.2,0.3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="z2"):
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


def test_csv_infers_dimension(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,x2,x3,x4,y\n0.1,0.2,0.3,0.4,1.0\n", encoding="utf-8")
    X, Y = read_csv(path)
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


def test_csv_round_trip_edge_doubles(tmp_path):
    edge = [5e-324, -0.0, 1e-05, 1e16, 1.7976931348623157e308, 1 / 3]
    X = np.array([edge, edge[::-1]])
    Y = np.array([-5e-324, -1.7976931348623157e308])
    path = tmp_path / "t.csv"
    write_csv(path, X, Y)
    X2, Y2 = read_csv(path)
    assert np.array_equal(X.view(np.int64), X2.view(np.int64))
    assert np.array_equal(Y.view(np.int64), Y2.view(np.int64))


def test_csv_accepts_crlf(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"x1,y\r\n0.5,1.0\r\n-0.25,2.0\r\n")
    X, Y = read_csv(path)
    assert X.tolist() == [[0.5], [-0.25]]
    assert Y.tolist() == [1.0, 2.0]


def test_csv_skips_blank_lines_and_counts_them(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("x1,y\n0.5,1.0\n\n0.25,2.0\n\n", encoding="utf-8")
    X, Y = read_csv(path)
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


def test_csv_single_row_keeps_two_dimensions(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, np.array([[0.5, -0.5]]), np.array([1.5]))
    X, Y = read_csv(path)
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
    assert not path.exists()


@pytest.mark.parametrize("target_b", [math.nan, math.inf, -math.inf])
def test_normalize_refuses_non_finite_target_b(target_b):
    with pytest.raises(ValueError, match="^target_b must be positive and finite"):
        normalize(np.array([[0.5], [2.0]]), np.array([1.0, -3.0]), target_b)
