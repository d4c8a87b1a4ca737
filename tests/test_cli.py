import hashlib
import re

import pytest

from dpmedreg.cli import main


def _mask_timing(text: str) -> str:
    # elapsed/wall-time fields are the only nondeterministic outputs
    lines = []
    for line in text.splitlines():
        if line.startswith("wall_time="):
            lines.append("wall_time=X")
            continue
        parts = line.split(",")
        if len(parts) >= 5 and re.fullmatch(r"[0-9.e+-]+", parts[-1] or "x"):
            parts[-1] = "X"
            lines.append(",".join(parts))
        else:
            lines.append(line)
    return "\n".join(lines)


def test_generate_writes_csv_and_manifest(tmp_path):
    out = tmp_path / "data.csv"
    assert main(["generate", "--n", "50", "--seed", "11", "--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert text.startswith("x1,x2,x3,y\n")
    assert len(text.splitlines()) == 51
    manifest = (out.parent / "data.csv.manifest").read_text(encoding="utf-8")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert f"sha256={digest}" in manifest
    assert "seed=11" in manifest


def test_generate_fixed_seed_identical_bytes(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    main(["generate", "--n", "80", "--seed", "3", "--out", str(a)])
    main(["generate", "--n", "80", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_zero_n(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--n", "0", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2


def test_generate_rejects_mismatched_d(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["generate", "--d", "2", "--beta", "1,2,3", "--out", str(tmp_path / "x.csv")])
    assert info.value.code == 2


@pytest.fixture(scope="module")
def small_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "small.csv"
    main(["generate", "--n", "300", "--seed", "5", "--out", str(path)])
    return path


def test_fit_baseline_rejects_epsilon(small_csv):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--algo", "baseline-irls", "--data", str(small_csv), "--epsilon", "0.1"])
    assert info.value.code == 2


def test_fit_baseline_rejects_seed(small_csv):
    with pytest.raises(SystemExit) as info:
        main(["fit", "--algo", "baseline-smooth", "--data", str(small_csv), "--seed", "4"])
    assert info.value.code == 2


# The flags each algorithm accepts, as the README documents them, and a valid
# value for every knob flag of ``fit``.
ACCEPTED_FLAGS = {
    "alg1": {"epsilon", "lambda", "gamma", "seed"},
    "alg2": {"epsilon", "lambda", "e", "tau", "v", "n0", "seed"},
    "alg3": {"epsilon", "lambda", "ell", "n0", "init", "seed"},
    "baseline-smooth": {"lambda", "gamma"},
    "baseline-irls": {"lambda", "e", "tau", "n0"},
}
FLAG_VALUES = {
    "epsilon": "0.1", "lambda": "0.01", "gamma": "0.1", "e": "0.2", "tau": "1e-6",
    "v": "2.0", "n0": "5", "ell": "0.1", "init": "zero", "seed": "4",
}


def test_fit_rejects_foreign_knob(small_csv, capsys):
    # every (algorithm, flag it does not accept) pair is a usage error naming the flag
    pairs = [
        (algo, flag) for algo, accepted in ACCEPTED_FLAGS.items()
        for flag in FLAG_VALUES if flag not in accepted
    ]
    assert len(pairs) == 27
    for algo, flag in pairs:
        argv = ["fit", "--algo", algo, "--data", str(small_csv), f"--{flag}", FLAG_VALUES[flag]]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2, (algo, flag)
        assert f"flag --{flag} does not apply to algorithm {algo}" in capsys.readouterr().err


def test_fit_accepts_its_own_knobs(small_csv, tmp_path):
    # all accepted flags at once reach the manifest; n0 is alg2's iteration
    # cap and alg3's batch count
    for algo, accepted in ACCEPTED_FLAGS.items():
        out = tmp_path / f"{algo}.csv"
        argv = ["fit", "--algo", algo, "--data", str(small_csv), "--out", str(out)]
        for flag in sorted(accepted):
            argv += [f"--{flag}", FLAG_VALUES[flag]]
        assert main(argv) == 0, algo
        manifest = (tmp_path / f"{algo}.csv.manifest").read_text(encoding="utf-8")
        assert "param_lam=0.01" in manifest
        assert ("param_n0=5" in manifest) == ("n0" in accepted)


def test_fit_row_deterministic(small_csv, capsys):
    argv = ["fit", "--algo", "alg1", "--data", str(small_csv), "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert _mask_timing(first) == _mask_timing(second)
    assert first.splitlines()[0] == "algorithm,parameter,estimate,true_value,elapsed_seconds"
    assert len(first.splitlines()) == 5  # mu + three betas


def test_fit_markdown_format(small_csv, capsys):
    assert main(
        ["fit", "--algo", "baseline-smooth", "--data", str(small_csv), "--format", "markdown"]
    ) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("| algorithm | parameter |")
    assert "| baseline-smooth | mu |" in out


def test_fit_writes_manifest_with_fingerprint(small_csv, tmp_path):
    out = tmp_path / "row.csv"
    assert main(
        ["fit", "--algo", "alg3", "--data", str(small_csv), "--seed", "2", "--out", str(out)]
    ) == 0
    manifest = (tmp_path / "row.csv.manifest").read_text(encoding="utf-8")
    digest = hashlib.sha256(small_csv.read_bytes()).hexdigest()
    assert f"sha256={digest}" in manifest
    assert "param_ell=0.1" in manifest
    assert "param_n0=40" in manifest
    # wall_time covers CSV read through result write, elapsed_seconds the fit alone
    elapsed = float(out.read_text(encoding="utf-8").splitlines()[1].split(",")[-1])
    wall = float(manifest.split("wall_time=")[1].splitlines()[0])
    assert wall > elapsed > 0.0


def test_fit_missing_file_is_runtime_error(capsys):
    assert main(["fit", "--algo", "alg1", "--data", "/nonexistent/x.csv"]) == 1
    assert "error:" in capsys.readouterr().err


def test_fit_alg1_refuses_zero_lambda(small_csv, capsys):
    argv = ["fit", "--algo", "alg1", "--data", str(small_csv), "--lambda", "0", "--seed", "1"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "lambda" in err


def test_bench_single_replicate_deterministic(capsys):
    argv = [
        "bench", "--replicates", "2", "--n-list", "400",
        "--algo-list", "alg3,baseline-irls", "--seed", "6", "--format", "csv",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert _mask_timing(first) == _mask_timing(second)
    assert first.splitlines()[0] == "n,algorithm,parameter,estimate,true_value,elapsed_seconds"


def test_bench_markdown_layout(capsys):
    argv = [
        "bench", "--replicates", "1", "--n-list", "400",
        "--algo-list", "alg3", "--seed", "6", "--format", "markdown",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "## Benchmark estimates, n = 400" in out
    assert "| mu |" in out
    assert "| time(s) |" in out


def test_bench_rejects_unknown_algorithm():
    with pytest.raises(SystemExit) as info:
        main(["bench", "--algo-list", "alg9", "--n-list", "100"])
    assert info.value.code == 2


@pytest.mark.parametrize("n_list", ["abc", "400,,500", "0"])
def test_bench_rejects_bad_n_list(n_list, capsys):
    # a non-integer, empty or non-positive entry is a usage error naming the flag
    with pytest.raises(SystemExit) as info:
        main(["bench", "--algo-list", "alg3", "--n-list", n_list])
    assert info.value.code == 2
    assert "argument --n-list" in capsys.readouterr().err


def test_bench_manifest_keeps_n_list_as_given(capsys):
    argv = ["bench", "--replicates", "1", "--n-list", "400,500", "--algo-list", "alg3"]
    assert main(argv) == 0
    assert "n_list=400,500\n" in capsys.readouterr().err


def test_probe_alg3_passes(capsys):
    assert main(["probe", "--target", "alg3", "--trials", "60", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_probe_alg2_passes(capsys):
    assert main(["probe", "--target", "alg2", "--trials", "40", "--seed", "3"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_probe_bounds_passes(capsys):
    assert main(["probe", "--target", "bounds", "--trials", "20", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 2


def test_probe_samplers_passes(capsys):
    # the default 100 000 trials, where the thresholds are 0.01 and 0.02, and
    # 10 000 trials, where seed 7's KS distance of 0.0147 exceeds 0.01 but not
    # the scaled sqrt(10 / 10 000)
    for argv, ks_line in (
        (["--seed", "3"], "bound=0.01 PASS"),
        (["--trials", "10000", "--seed", "7"], "observed=0.014702 bound=0.0316228 PASS"),
    ):
        assert main(["probe", "--target", "samplers", *argv]) == 0
        out = capsys.readouterr().out
        assert out.startswith("laplace_ks: ") and out.splitlines()[0].endswith(ks_line)
        assert "FAIL" not in out


def test_env_variable_provides_default_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DPMEDREG_SEED", "123")
    a = tmp_path / "env.csv"
    b = tmp_path / "flag.csv"
    assert main(["generate", "--n", "30", "--out", str(a)]) == 0
    assert main(["generate", "--n", "30", "--seed", "123", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert "seed=123" in (tmp_path / "env.csv.manifest").read_text(encoding="utf-8")
    # a value that is not an integer is a usage error naming the variable,
    # and an explicit --seed never reads it
    monkeypatch.setenv("DPMEDREG_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        main(["generate", "--n", "10", "--out", str(tmp_path / "bad.csv")])
    assert info.value.code == 2
    assert "DPMEDREG_SEED" in capsys.readouterr().err
    assert main(["generate", "--n", "10", "--seed", "1", "--out", str(tmp_path / "ok.csv")]) == 0
