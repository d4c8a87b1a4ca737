import argparse
import builtins
import hashlib
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from dpmedreg import ProbeResult, datagen, verification
from dpmedreg.bench import ALGORITHM_TABLE
from dpmedreg.cli import SEED_ENV, build_parser, main

from conftest import mask_timing, traced_peak


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


def test_generate_d_follows_beta(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["generate", "--n", "5", "--beta", "1,2", "--out", str(out)]) == 0
    manifest = (tmp_path / "x.csv.manifest").read_text(encoding="utf-8").splitlines()
    assert "d=2" in manifest and "beta=1.0,2.0" in manifest
    assert out.read_text(encoding="utf-8").startswith("x1,x2,y\n")
    # d has no flag of its own
    with pytest.raises(SystemExit) as info:
        main(["generate", "--d", "2", "--beta", "1,2", "--out", str(tmp_path / "y.csv")])
    assert info.value.code == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--box", "1"], "--box expects two comma-separated numbers lo,hi"),
        (["--beta", "1,a"], "argument --beta: expected comma-separated floats, got '1,a'"),
    ],
    ids=["box-one-number", "beta-not-float"],
)
def test_generate_usage_errors_name_the_flag(tmp_path, capsys, flags, message):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as info:
        main(["generate", "--n", "10", *flags, "--out", str(out)])
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--box", "-0.5,0.5"), ("--beta", "-4,0,3")])
def test_generate_takes_negative_list_values_in_both_spellings(tmp_path, flag, value):
    # argparse took "-0.5,0.5" after a space for a flag and exited 2
    outputs = []
    for spelling in ([flag, value], [f"{flag}={value}"]):
        out = tmp_path / f"{len(spelling)}.csv"
        assert main(["generate", "--n", "40", "--seed", "4", *spelling, "--out", str(out)]) == 0
        manifest = (tmp_path / f"{out.name}.manifest").read_text(encoding="utf-8")
        lines = [line for line in manifest.splitlines() if not line.startswith(("out=", "wall_time="))]
        outputs.append((out.read_bytes(), lines))
    assert outputs[0] == outputs[1]
    floats = ",".join(repr(float(v)) for v in value.split(","))
    assert f"{flag[2:]}={floats if flag == '--beta' else value}" in outputs[0][1]


@pytest.mark.parametrize(
    "flags, knob",
    [
        (["--noise-scale", "inf"], "noise_scale"),
        (["--noise-scale", "nan"], "noise_scale"),
        (["--box", "0,inf"], "box"),
        (["--box", "-inf,0"], "box"),
        (["--box=-1e308,1e308"], "box"),
    ],
)
def test_generate_refuses_non_finite_knobs(tmp_path, capsys, flags, knob):
    # these used to fail only in write_csv, with an error naming no flag
    out = tmp_path / "g.csv"
    assert main(["generate", "--n", "10", "--seed", "1", *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {knob} must")
    assert not out.exists()


def test_generate_refuses_draws_that_overflow(tmp_path, capsys):
    out = tmp_path / "g.csv"
    argv = ["generate", "--n", "5", "--seed", "1", "--beta", "1e308,1e308", "--box", "0.9,1", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == "error: mu, beta, noise_scale and box draw values that overflow the float range\n"
    assert not out.exists()


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
    "alg2": {"epsilon", "lambda", "e", "tau", "n0", "seed"},
    "alg3": {"epsilon", "lambda", "ell", "n0", "init", "seed"},
    "baseline-smooth": {"lambda", "gamma"},
    "baseline-irls": {"lambda", "e", "tau", "n0"},
}
FLAG_VALUES = {
    "epsilon": "0.1", "lambda": "0.01", "gamma": "0.1", "e": "0.2", "tau": "1e-6",
    "n0": "5", "ell": "0.1", "init": "zero", "seed": "4",
}


def test_fit_rejects_foreign_knob(small_csv, capsys):
    # every (algorithm, flag it does not accept) pair is a usage error naming the flag
    pairs = [
        (algo, flag) for algo, accepted in ACCEPTED_FLAGS.items()
        for flag in FLAG_VALUES if flag not in accepted
    ]
    assert len(pairs) == 23
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


def test_fit_has_no_coefficient_bound_flag(small_csv, capsys):
    # alg2's coefficient bound is derived from (B, lambda, e), never set
    argv = ["fit", "--algo", "alg2", "--data", str(small_csv), "--seed", "4", "--v", "2.0"]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "unrecognized arguments: --v 2.0" in capsys.readouterr().err


# ``fit``'s flags that are not algorithm knobs
FIT_PLUMBING = {"help", "algo", "data", "target_b", "seed", "format", "out"}


def test_fit_knob_flags_are_the_algorithm_table_knobs():
    # a knob flag with no table row, or a table knob with no flag, fails here
    parser = build_parser()
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = {action.dest for action in subcommands.choices["fit"]._actions} - FIT_PLUMBING
    assert dests == {knob for entry in ALGORITHM_TABLE.values() for knob in entry.knobs}
    assert len(dests) == 8


def test_fit_row_deterministic(small_csv, capsys):
    argv = ["fit", "--algo", "alg1", "--data", str(small_csv), "--seed", "9"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert mask_timing(first) == mask_timing(second)
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


def test_fit_baseline_irls_at_zero_lambda(small_csv, capsys):
    # the noiseless fit needs no coefficient bound, so it has no --v to ask for
    argv = ["fit", "--algo", "baseline-irls", "--data", str(small_csv), "--lambda", "0"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 4 and all(math.isfinite(float(row.split(",")[2])) for row in rows)
    assert "param_lam=0.0" in captured.err


def test_bench_single_replicate_deterministic(capsys):
    argv = [
        "bench", "--replicates", "2", "--n-list", "400",
        "--algo-list", "alg3,baseline-irls", "--seed", "6", "--format", "csv",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert mask_timing(first) == mask_timing(second)
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


def _probe_lines(results) -> str:
    return "".join(
        f"{r.name}: observed={r.observed:.6g} bound={r.bound:.6g} {'PASS' if r.ok else 'FAIL'}\n"
        for r in results
    )


@pytest.mark.parametrize("target", ["alg2", "alg3", "samplers", "bounds"])
def test_probe_prints_its_runners_results(target, capsys):
    runner, _ = verification.PROBES[target]
    results = runner(5, 2)
    assert results and all(isinstance(r, ProbeResult) and isinstance(r.ok, bool) for r in results)
    code = main(["probe", "--target", target, "--trials", "5", "--seed", "2"])
    assert code == (0 if all(r.ok for r in results) else 1)
    assert capsys.readouterr().out == _probe_lines(results)


def test_probe_failure_prints_fail_line_and_exits_1(monkeypatch, capsys):
    calls = []

    def runner(trials, seed):
        calls.append((trials, seed))
        return [ProbeResult("held", 0.5, 1.0, True), ProbeResult("broken", 2.5, 1.0, False)]

    monkeypatch.setitem(verification.PROBES, "alg3", (runner, 1234))
    assert main(["probe", "--target", "alg3", "--seed", "9"]) == 1
    assert calls == [(1234, 9)]
    out = capsys.readouterr().out
    assert out == "held: observed=0.5 bound=1 PASS\nbroken: observed=2.5 bound=1 FAIL\n"
    assert out == _probe_lines(runner(1, 1))


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


@pytest.mark.parametrize(
    "flags, knob",
    [
        (["--algo", "alg3", "--init", "zero", "--lambda", "nan", "--seed", "2"], "lam"),
        (["--algo", "alg1", "--gamma", "inf"], "gamma"),
        (["--algo", "baseline-smooth", "--gamma", "inf"], "gamma"),
        (["--algo", "alg2", "--e", "inf"], "e"),
        (["--algo", "baseline-irls", "--tau", "inf"], "tau"),
        (["--algo", "alg2", "--target-b", "inf"], "target_b"),
    ],
)
def test_fit_refuses_non_finite_knobs(small_csv, capsys, flags, knob):
    # each of these used to print a number (or die with a traceback)
    assert main(["fit", "--data", str(small_csv), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {knob} must be")


def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys):
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as info:
        main(["generate", "--n", "10", "--seed", "-1", "--out", str(out)])
    assert info.value.code == 2
    assert "--seed must be a non-negative integer" in capsys.readouterr().err
    monkeypatch.setenv("DPMEDREG_SEED", "-3")
    with pytest.raises(SystemExit) as info:
        main(["generate", "--n", "10", "--out", str(out)])
    assert info.value.code == 2
    assert "DPMEDREG_SEED must be a non-negative integer" in capsys.readouterr().err
    assert not out.exists()


# Files hashed as written: the CSV and its binary twin.
DATA_FILES = ("data.csv", "data.csv.dpmedreg-table")
# sha256 of each fixed-seed CLI output at artifact version 0.2.0, timing
# fields masked; the data files are hashed as written
CLI_DIGESTS = {
    "alg1.csv": "776c14d507b0f8a36a74e54289e2d536cca93082e53cb84e21a256e321a8c893",
    "alg1.csv.manifest": "99f8e6af313ae22b2f7718cb633796e242bcb8f0be9a5cf9aa6785437862ee9d",
    "alg2.csv": "2c139693754ba2ee2173f93f30a1e06f992fd4fa7a6d1f78043f74e4091a4fc7",
    "alg2.csv.manifest": "1ef1c1c1699f71c854b3fe1d5b95b48a8bb3d415ea9d97294c8055d2ed923ade",
    "alg3.csv": "67c1591b499b20e523ee8ce96c6f406a77bff707e4f7fb82e9f1b2caef820061",
    "alg3.csv.manifest": "8f78509c67626c447e7457742d2c3fbceee39e4b6dd4371ff5acb1585731fe77",
    "baseline-irls.csv": "17b2d3322eadcfff019bc2b45615918fb25cc79e99fa324fa1e556a8a368a0a8",
    "baseline-irls.csv.manifest": "d6e76fe89465f8a693dd105d2237f4038f0205bd7d9a2db6efd861b81cd1ee68",
    "baseline-smooth.csv": "ead69c0847205b5246a0e8de8130140ca029620a6a6cfeedb15df78b64fa960e",
    "baseline-smooth.csv.manifest": "aac110ecf5c36504d280ccd2389a4aaabb370b43d9655f4675d2b314d8e0908a",
    "bench.csv": "b05c2154b96a3dac97c60d8177c8eaf4426537a4c80f881680f8c5ce07470834",
    "bench.csv.manifest": "c44f9ad55807a17471fe22e8a595ce1ccea2a6fc90f155ef37bbc371ec83fdf6",
    "data.csv": "b3a636908d142ef319db8130de493928bbbc1c9ad7f6bc64943da6df0eccec3e",
    "data.csv.manifest": "beec2a5a61be1913b9485e3f0dc0bb7b68c9ae4884403f042ff2bd794f7fcf53",
    "data.csv.dpmedreg-table": "6e9ff8099c331d47a14fc7232df469b79ba974bb4960f1f91ae38ae6346f7372",
    "probe alg2": "56b304200a739746d82c8bb68129afd5e11276fb55197b3a148ed80f39982145",
    "probe alg3": "5550dd10e127121dda240fb1a8454d1458353fff45b02dbcd468e8edfbe9b106",
    "probe samplers": "90e6c14ca2ae078ed09550399d84123774c707300f81d0e10e6e6166f02a7529",
    "probe bounds": "a959ae5f60c50634b5bb95546c9e3f5bced357953fcd6b5289f78231c4cc53b6",
}


def test_fixed_seed_cli_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys):
    # relative paths: the manifests record data= and out= as given
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(SEED_ENV, raising=False)
    assert main(["generate", "--n", "3000", "--seed", "17", "--out", "data.csv"]) == 0
    for algo, entry in ALGORITHM_TABLE.items():
        seed = ["--seed", "3"] if entry.private else []
        assert main(["fit", "--algo", algo, "--data", "data.csv", *seed, "--out", f"{algo}.csv"]) == 0
    algos = ",".join(ALGORITHM_TABLE)
    bench = ["--replicates", "3", "--n-list", "400,2000", "--algo-list", algos, "--seed", "5"]
    assert main(["bench", *bench, "--format", "csv", "--out", "bench.csv"]) == 0
    outputs = {}
    for path in sorted(tmp_path.iterdir()):
        if path.name in DATA_FILES:
            outputs[path.name] = path.read_bytes()
        else:
            outputs[path.name] = mask_timing(path.read_text(encoding="utf-8")).encode("utf-8")
    capsys.readouterr()
    for target in ("alg2", "alg3", "samplers", "bounds"):
        assert main(["probe", "--target", target, "--trials", "50", "--seed", "7"]) == 0
        outputs[f"probe {target}"] = capsys.readouterr().out.encode("utf-8")
    digests = {name: hashlib.sha256(raw).hexdigest() for name, raw in outputs.items()}
    assert digests == CLI_DIGESTS


def test_cli_digests_hold_with_one_blas_thread(tmp_path):
    # the benchmark fits with one OpenBLAS thread; at these sizes the outputs
    # do not depend on the thread count, so the digests above hold there too
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    test = f"{Path(__file__).resolve()}::test_fixed_seed_cli_outputs_keep_their_bytes"
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", test],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stdout + out.stderr


def test_fit_releases_the_parsed_table_before_fitting(tmp_path, monkeypatch):
    # alg1 on n = 2e4, d = 3: the (n, 4) table, loaded from the twin and then,
    # with the twin removed, parsed, is 0.64 MB, and the command's traced
    # peak, set by the fit, is 3.9 MB without it and 4.5 MB with it still alive
    monkeypatch.chdir(tmp_path)
    assert main(["generate", "--n", "20000", "--seed", "5", "--out", "data.csv"]) == 0
    fit = ["fit", "--algo", "alg1", "--data", "data.csv", "--seed", "3", "--out", "alg1.csv"]
    for twin in ("kept", "removed"):
        if twin == "removed":
            os.remove("data.csv.dpmedreg-table")
        code, peak = traced_peak(main, fit)
        assert code == 0
        assert peak < 4.2e6, twin


def test_fit_gives_the_same_bytes_with_and_without_the_twin(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    opened, real_open = [], builtins.open

    def recording_open(file, *args, **kwargs):
        opened.append((file, args[0] if args else kwargs.get("mode", "r")))
        return real_open(file, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", recording_open)
        assert main(["generate", "--n", "400", "--seed", "8", "--out", "data.csv"]) == 0
    # generate hashes its CSV as it writes it, and never reads it back
    assert [mode for file, mode in opened if file == "data.csv"] == ["wb"]
    digest = hashlib.sha256(Path("data.csv").read_bytes()).hexdigest()
    fingerprint = f"dataset_fingerprint=n=400;sha256={digest}\n"
    assert fingerprint in Path("data.csv.manifest").read_text(encoding="utf-8")
    hashed, stream_sha256 = [], datagen._stream_sha256
    monkeypatch.setattr(datagen, "_stream_sha256", lambda fh: hashed.append(fh.name) or stream_sha256(fh))
    monkeypatch.setattr(builtins, "open", recording_open)
    runs = {}
    for twin in ("kept", "removed"):
        with monkeypatch.context() as patch:
            if twin == "kept":
                # the twin must serve the fits: parsing the text fails the test
                patch.setattr(datagen, "_parse_csv", lambda path, fh: pytest.fail("parsed the CSV"))
            else:
                os.remove("data.csv.dpmedreg-table")
            for algo, entry in ALGORITHM_TABLE.items():
                seed = ["--seed", "3"] if entry.private else []
                hashed.clear()
                opened.clear()
                assert main(["fit", "--algo", algo, "--data", "data.csv", *seed, "--out", f"{algo}.csv"]) == 0
                # one open and one hash of the data file per fit, whichever
                # route read it
                assert hashed == ["data.csv"], (twin, algo)
                assert [mode for file, mode in opened if file == "data.csv"] == ["rb"], (twin, algo)
                runs[twin, algo] = [
                    mask_timing(Path(name).read_text(encoding="utf-8"))
                    for name in (f"{algo}.csv", f"{algo}.csv.manifest")
                ]
                assert fingerprint in runs[twin, algo][1], (twin, algo)
    assert len(runs) == 10
    for algo in ALGORITHM_TABLE:
        assert runs["kept", algo] == runs["removed", algo], algo


def run_to_fifo(tmp_path, flags):
    """Run ``dpmedreg <flags> --out <tmp_path>/out.fifo`` in a child process
    and read the FIFO as it writes; returns the child and the bytes read.
    The child has a timeout, so a command that waits on the pipe fails the
    test instead of stalling the suite."""
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    env = {**os.environ, "PYTHONPATH": str(Path(datagen.__file__).resolve().parents[1])}
    child = subprocess.run(
        [sys.executable, "-m", "dpmedreg", *flags, "--out", str(fifo)],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert child.returncode == 0, child.stderr
    reader.join(timeout=30)
    assert not reader.is_alive()
    return child, received[0]


def test_generate_streams_to_a_fifo(tmp_path):
    # reading --out back, to fingerprint it, would wait on the pipe for a
    # writer that never comes; the manifest goes to stderr, not beside the pipe
    flags = ["generate", "--n", "300", "--seed", "4"]
    assert main([*flags, "--out", str(tmp_path / "ref.csv")]) == 0
    child, received = run_to_fifo(tmp_path, flags)
    assert received == (tmp_path / "ref.csv").read_bytes()
    digest = hashlib.sha256(received).hexdigest()
    assert f"dataset_fingerprint=n=300;sha256={digest}\n" in child.stderr
    assert sorted(path.name for path in tmp_path.glob("*.manifest")) == ["ref.csv.manifest"]
    assert not (tmp_path / "out.fifo.dpmedreg-table").exists()


def test_fit_to_a_fifo_writes_its_manifest_to_stderr(tmp_path):
    # the same result bytes as to a regular file, and no sidecar beside the pipe
    data = str(tmp_path / "d.csv")
    assert main(["generate", "--n", "80", "--seed", "3", "--out", data]) == 0
    flags = ["fit", "--algo", "alg3", "--data", data, "--seed", "5", "--format", "csv"]
    assert main([*flags, "--out", str(tmp_path / "ref.csv")]) == 0
    child, received = run_to_fifo(tmp_path, flags)
    assert mask_timing(received.decode()) == mask_timing((tmp_path / "ref.csv").read_text(encoding="utf-8"))
    assert mask_timing(child.stderr) == mask_timing((tmp_path / "ref.csv.manifest").read_text(encoding="utf-8"))
    assert sorted(path.name for path in tmp_path.glob("*.manifest")) == ["d.csv.manifest", "ref.csv.manifest"]


def fingerprint_line(manifest: str) -> str:
    return next(line for line in manifest.splitlines() if line.startswith("dataset_fingerprint="))


@pytest.mark.parametrize("source", ["named fifo", "anonymous pipe"])
def test_fit_reads_its_data_from_a_pipe(tmp_path, source):
    # a pipe's bytes can be read once: fit used to hash them and then find
    # the pipe empty (an anonymous pipe, as bash's <(cat d.csv) gives) or
    # wait on it for a writer that never came (a named FIFO)
    data = tmp_path / "d.csv"
    assert main(["generate", "--n", "2000", "--seed", "6", "--out", str(data)]) == 0
    raw = data.read_bytes()
    assert len(raw) > 1 << 16  # more than one pipe buffer
    flags = ["fit", "--algo", "alg2", "--seed", "5", "--format", "csv"]
    env = {**os.environ, "PYTHONPATH": str(Path(datagen.__file__).resolve().parents[1])}

    def fit(path, **kwargs):
        return subprocess.run(
            [sys.executable, "-m", "dpmedreg", *flags, "--data", path],
            env=env, capture_output=True, text=True, timeout=30, **kwargs,
        )

    if source == "named fifo":
        path = tmp_path / "in.fifo"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(raw,), daemon=True)
        writer.start()
        child = fit(str(path))
    else:
        read_end, write_end = os.pipe()

        def write():
            with open(write_end, "wb") as fh:
                fh.write(raw)

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            child = fit(f"/dev/fd/{read_end}", pass_fds=(read_end,))
        finally:
            os.close(read_end)
    writer.join(timeout=30)
    assert not writer.is_alive()
    assert child.returncode == 0, child.stderr
    ref = fit(str(data))
    assert ref.returncode == 0, ref.stderr
    assert mask_timing(child.stdout) == mask_timing(ref.stdout)
    digest = hashlib.sha256(raw).hexdigest()
    fingerprint = f"dataset_fingerprint=n=2000;sha256={digest}"
    assert fingerprint_line(child.stderr) == fingerprint_line(ref.stderr) == fingerprint


@pytest.mark.parametrize(
    "spelling", ["same", "dot", "absolute", "symlink", "hard link", "manifest", "manifest beside a link's target"]
)
def test_fit_refuses_an_out_that_would_overwrite_its_data(tmp_path, monkeypatch, capsys, spelling):
    # fit used to overwrite the table with its result and then fingerprint
    # the result in place of the table; the manifest goes beside --out's real
    # path, so a link whose target is d gets d.manifest
    monkeypatch.chdir(tmp_path)
    data = "d.manifest" if spelling.startswith("manifest") else "d.csv"
    assert main(["generate", "--n", "50", "--seed", "2", "--out", data]) == 0
    out = {
        "same": "d.csv", "dot": "./d.csv", "absolute": str(tmp_path / "d.csv"),
        "symlink": "link.csv", "hard link": "hard.csv", "manifest": "d",
        "manifest beside a link's target": "link",
    }[spelling]
    if spelling == "symlink":
        os.symlink("d.csv", "link.csv")
    elif spelling == "hard link":
        os.link("d.csv", "hard.csv")
    elif spelling == "manifest beside a link's target":
        Path("d").write_text("an earlier result\n", encoding="utf-8")
        os.symlink("d", "link")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert f"{data}.dpmedreg-table" in before
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["fit", "--algo", "alg1", "--data", data, "--seed", "1", "--out", out])
    assert info.value.code == 2
    assert f"error: --out {out} would overwrite the --data file {data}" in capsys.readouterr().err
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_sidecars_go_beside_the_real_path_of_out(tmp_path, monkeypatch, capsys):
    # a/out.csv -> ../b/x.csv stands in for --out /dev/stdout with stdout
    # redirected to a file: the twin and the manifests used to be named after
    # the link, which put /dev/stdout.dpmedreg-table and /dev/stdout.manifest
    # into /dev
    monkeypatch.chdir(tmp_path)
    os.mkdir("a")
    os.mkdir("b")
    os.symlink("../b/x.csv", "a/out.csv")
    assert main(["generate", "--n", "300", "--seed", "4", "--out", "a/out.csv"]) == 0
    assert os.listdir("a") == ["out.csv"]
    assert sorted(os.listdir("b")) == ["x.csv", "x.csv.dpmedreg-table", "x.csv.manifest"]
    # the fit loads the twin beside the link's target: parsing fails the
    # test; its result goes through a link too
    os.symlink("../b/fit.csv", "a/fit.csv")
    fit = ["fit", "--algo", "alg2", "--seed", "5"]
    with monkeypatch.context() as patch:
        patch.setattr(datagen, "_parse_csv", lambda path, fh: pytest.fail("parsed the CSV"))
        assert main([*fit, "--data", "a/out.csv", "--out", "a/fit.csv"]) == 0
    assert sorted(os.listdir("a")) == ["fit.csv", "out.csv"]
    assert sorted(os.listdir("b")) == ["fit.csv", "fit.csv.manifest", "x.csv", "x.csv.dpmedreg-table", "x.csv.manifest"]
    # the same bytes as a fit of the file itself, without the links
    assert main([*fit, "--data", "b/x.csv", "--out", "ref.csv"]) == 0
    assert mask_timing(Path("b/fit.csv").read_text(encoding="utf-8")) == mask_timing(
        Path("ref.csv").read_text(encoding="utf-8")
    )
    fingerprint = fingerprint_line(Path("b/x.csv.manifest").read_text(encoding="utf-8"))
    assert fingerprint_line(Path("b/fit.csv.manifest").read_text(encoding="utf-8")) == fingerprint


def test_generate_keeps_its_csv_when_the_twin_cannot_be_opened(tmp_path, monkeypatch, capsys):
    # write_csv used to truncate the CSV and then fail to open the twin (here
    # a directory at its name), leaving an empty CSV and exit 1; the twin is
    # a cache, so it is skipped and the CSV is written
    monkeypatch.chdir(tmp_path)
    for name in ("blocked", "twinned"):
        os.mkdir(name)
    Path("blocked/d.csv").write_text("keep me\n", encoding="utf-8")
    os.mkdir("blocked/d.csv.dpmedreg-table")
    for name in ("blocked", "twinned"):
        assert main(["generate", "--n", "300", "--seed", "4", "--out", f"{name}/d.csv"]) == 0
    assert Path("blocked/d.csv").read_bytes() == Path("twinned/d.csv").read_bytes()
    assert os.listdir("blocked/d.csv.dpmedreg-table") == []
    digest = hashlib.sha256(Path("blocked/d.csv").read_bytes()).hexdigest()
    for name in ("blocked", "twinned"):
        manifest = Path(f"{name}/d.csv.manifest").read_text(encoding="utf-8")
        assert fingerprint_line(manifest) == f"dataset_fingerprint=n=300;sha256={digest}"
    parsed, parse_csv = [], datagen._parse_csv
    monkeypatch.setattr(datagen, "_parse_csv", lambda path, fh: parsed.append(path) or parse_csv(path, fh))
    stdout = []
    for name in ("blocked", "twinned"):
        capsys.readouterr()
        assert main(["fit", "--algo", "alg1", "--data", f"{name}/d.csv", "--seed", "3"]) == 0
        stdout.append(mask_timing(capsys.readouterr().out))
    assert parsed == ["blocked/d.csv"]
    assert stdout[0] == stdout[1]
