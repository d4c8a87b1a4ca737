"""The benchmark's own tests: each output check fails on a corrupted output,
the independent computations agree with the program where they must, a small
run of every workload completes with its checks passing, and the pacer's clock
leaves out its reference slices, which leave no allocation behind.

    PYTHONPATH=src python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402
from workloads import WORKLOADS, CliLarge, Probes, Replicates  # noqa: E402

from dpmedreg import bench, cli  # noqa: E402
from dpmedreg.datagen import default_generator_spec, generate, normalize  # noqa: E402
from dpmedreg.irls import IrlsConfig, irls_fit  # noqa: E402
from dpmedreg.model import Theta  # noqa: E402
from dpmedreg.sampling import RngStream  # noqa: E402


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "data.csv"
    assert cli.main(["generate", "--n", "300", "--seed", "4", "--out", str(path)]) == 0
    X, Y, _ = generate(default_generator_spec(300), RngStream(4))
    return path, X, Y


def _copy(path, tmp_path, edit):
    out = tmp_path / path.name
    out.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    return out


def test_csv_check_accepts_program_output(table):
    path, X, Y = table
    checks.check_csv_matches(path, X, Y)


def test_csv_check_rejects_changed_last_digit(table, tmp_path):
    path, X, Y = table

    def edit(text):
        lines = text.split("\n")
        fields = lines[5].split(",")
        fields[1] = fields[1][:-1] + ("1" if fields[1][-1] != "1" else "2")
        lines[5] = ",".join(fields)
        return "\n".join(lines)

    with pytest.raises(CheckFailed, match="data row 5"):
        checks.check_csv_matches(_copy(path, tmp_path, edit), X, Y)


def test_csv_check_rejects_dropped_row_and_bad_header(table, tmp_path):
    path, X, Y = table
    with pytest.raises(CheckFailed, match="299 data rows"):
        checks.check_csv_matches(_copy(path, tmp_path, lambda t: t.rsplit("\n", 2)[0] + "\n"), X, Y)
    with pytest.raises(CheckFailed, match="header"):
        checks.check_csv_matches(_copy(path, tmp_path, lambda t: t.replace("x2", "x9", 1)), X, Y)


def test_fingerprint_check(table, tmp_path):
    path, _, _ = table
    manifest = checks.read_manifest(str(path) + ".manifest")
    checks.check_fingerprint(manifest, path, 300)
    changed = _copy(path, tmp_path, lambda t: t[:-2] + ("0" if t[-2] != "0" else "1") + "\n")
    with pytest.raises(CheckFailed, match="fingerprint"):
        checks.check_fingerprint(manifest, changed, 300)
    with pytest.raises(CheckFailed, match="fingerprint"):
        checks.check_fingerprint(manifest, path, 301)


def test_alg2_scale_matches_program_and_rejects_other_values(capsys):
    # the alg2 probe prints the sensitivity (the scale at epsilon = 1) at n = 50, d = 3, B = 1
    cli.main(["probe", "--target", "alg2", "--trials", "2", "--seed", "1"])
    want = checks.alg2_noise_scale(3, 50, 1.0, 0.002, 0.2, 1.0)
    assert f"bound={want:.6g} " in capsys.readouterr().out
    checks.check_scale(want, want, "same")
    with pytest.raises(CheckFailed, match="closed form"):
        checks.check_scale(want * (1 + 1e-9), want, "off")


def test_noiseless_irls_agrees_with_program():
    X, Y, _ = generate(default_generator_spec(2000), RngStream(8))
    data, _ = normalize(X, Y)
    ours = checks.noiseless_irls(np.asarray(data.X), np.asarray(data.Y), 0.002, 0.2)
    theirs = irls_fit(data, IrlsConfig(lam=0.002, e=0.2)).final.as_vector()
    assert np.allclose(ours, theirs, rtol=0, atol=1e-8)


def test_laplace_noise_check():
    checks.check_laplace_noise([1.0, -3.0, 0.2, 10.0], 2.0, "ok")
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_laplace_noise([1.0, 2.0 * 25, 0.2, 1.0], 2.0, "too large")
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_laplace_noise([1.0, 0.0, 0.2, 1.0], 2.0, "no noise")


def test_noise_ratio_and_truth_checks():
    rng = np.random.default_rng(0)
    noise = rng.laplace(0.0, 3.0, 400)
    assert 0.8 < checks.check_noise_ratio(noise, 3.0, "ok") < 1.2
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_noise_ratio(noise, 9.0, "scale understated")
    checks.check_near_truth([2.1, 2.9, 0.05, -4.2], 0.3, "ok")
    with pytest.raises(CheckFailed, match="exceeds"):
        checks.check_near_truth([2.1, 2.9, 0.05, -4.4], 0.3, "far")


PROBE_BOUNDS = {"alg3_max_step_shift": checks.alg3_probe_bound(0.1, 50)}


def test_probe_check():
    assert checks.check_probe("alg3_max_step_shift: observed=0.0031 bound=0.004 PASS\n", PROBE_BOUNDS)
    assert not checks.check_probe("alg3_max_step_shift: observed=0.0041 bound=0.004 FAIL\n", PROBE_BOUNDS)
    for bad, message in (
        ("alg3_max_step_shift: observed=0.0031 bound=0.005 PASS\n", "closed form"),
        ("alg3_max_step_shift: observed=0.0051 bound=0.004 PASS\n", "against bound"),
        ("alg3_max_step_shift: observed=0.0031 bound=0.004 FAIL\n", "against bound"),
        ("alg2_max_l1_shift: observed=0.0031 bound=0.004 PASS\n", "probe lines"),
        ("alg3_max_step_shift: 0.0031 PASS\n", "unexpected probe line"),
    ):
        with pytest.raises(CheckFailed, match=message):
            checks.check_probe(bad, PROBE_BOUNDS)


# At these small sizes the private estimates are too noisy for criterion 3's
# tolerances, which test_noise_ratio_and_truth_checks covers on their own.
LOOSE = {"alg1": 100.0, "alg3": 100.0}


def test_cli_large_rejects_a_changed_repeat(tmp_path):
    work = CliLarge(n=2000, tolerance=LOOSE)
    work.prepare(5, str(tmp_path))
    work.check(work.round())
    work.round()
    out = Path(work.fit_argv["alg1"][-1])
    rows = out.read_text(encoding="utf-8").split("\n")
    fields = rows[1].split(",")
    fields[2] = repr(float(fields[2]) + 1e-12)
    rows[1] = ",".join(fields)
    out.write_text("\n".join(rows), encoding="utf-8")
    with pytest.raises(CheckFailed, match="differs from round 0"):
        work.check([])


def _shift_alg2_median(run_cell):
    """run_cell, except that alg2 cells report a median one ulp off."""

    def shifted(algo, *args, **kwargs):
        result = run_cell(algo, *args, **kwargs)
        if algo != "alg2":
            return result
        moved = np.nextafter(result.median_theta.as_vector(), np.inf)
        return dataclasses.replace(result, median_theta=Theta.from_vector(moved))

    return shifted


def test_replicates_rejects_a_median_its_replay_does_not_reproduce(tmp_path, monkeypatch):
    work = Replicates(n=500, per_round=4, tolerance=LOOSE)
    work.prepare(3, str(tmp_path))
    work.check(work.round())
    work.prepare(3, str(tmp_path))
    monkeypatch.setattr(bench, "run_cell", _shift_alg2_median(bench.run_cell))
    with pytest.raises(CheckFailed, match="does not reproduce"):
        work.check(work.round())


def test_run_reports_a_failed_check_and_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setitem(WORKLOADS, "replicates", lambda: Replicates(n=500, per_round=4, tolerance=LOOSE))
    monkeypatch.setattr(run, "_setup_seconds", lambda argv: 0.0)
    monkeypatch.setattr(bench, "run_cell", _shift_alg2_median(bench.run_cell))
    code = run.main(["--workload", "replicates", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert code != 0
    captured = capsys.readouterr()
    result = json.loads(captured.out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == result["attempted"] == 1
    assert "check failed" in captured.err


@pytest.mark.parametrize(
    "workload",
    [CliLarge(n=2000, tolerance=LOOSE), Replicates(n=500, per_round=4, tolerance=LOOSE),
     Probes(alg2_trials=20, alg3_trials=20)],
    ids=lambda w: w.name,
)
def test_small_run_of_every_workload(workload, tmp_path):
    tracer = Tracer()
    out = run.execute(workload, 3, 0.0, tracer, tmp_path / "work")
    assert out["rounds"] == 2
    # at 20 pair trials the alg3 probe stays below its bound (it first exceeds it at trial 194)
    assert out["attempted"] > 0 and out["failed"] == 0
    assert all(v > 0 for v in out["metrics"].values())
    layers = out["layers"]
    assert layers["model.Dataset.calls"][0] > 0
    for name, *_ in TRACED:
        calls = layers[f"{name}.calls"][0]
        assert (calls > 0) == (layers[f"{name}.busy_s"][0] > 0)
    # every span closes after it opens and inside its parent
    for name, start, end, parent in tracer.spans:
        assert start <= end
        if parent >= 0:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replicates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_pacer_clock_leaves_out_slices_and_timer_scales_by_them():
    pace.start()
    try:
        wall, program = time.perf_counter(), pace.clock()
        with pace.Timer() as timer:
            deadline = time.perf_counter() + 0.3
            while time.perf_counter() < deadline:
                pass
        wall, program = time.perf_counter() - wall, pace.clock() - program
    finally:
        pace.stop()
    taken = pace.slices()
    assert len(taken) >= pace.MIN_SLICES + 0.3 / pace.INTERVAL_S / 2
    assert 0 < wall - program <= taken.sum()
    assert timer.program_s <= 0.3 + 0.01
    assert timer.seconds / timer.program_s == pytest.approx(pace.REF_SLICE_S / taken[-8:].mean(), rel=0.5)
    with pace.Timer() as idle:
        pass
    assert idle.seconds == idle.program_s


def test_reference_slice_leaves_no_allocation_behind():
    pace.reference_slice()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(20):
            pace._tick()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.compare_to(before, "filename") if stat.size_diff > 0)
    assert grown < 1024
