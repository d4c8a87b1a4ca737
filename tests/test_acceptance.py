"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Criteria marked with a runtime budget assert it as well."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dpmedreg
from dpmedreg import (
    Dataset,
    GcdConfig,
    IrlsConfig,
    RngStream,
    SmoothingConfig,
    Theta,
    directional_derivatives,
    fit_gcd_private,
    fit_irls_private,
    fit_smoothed_private,
    gamma_tail_bound,
    gcd_step_probe,
    irls_fit,
    irls_sensitivity_probe,
    objective_l1,
    oracle_l1_fit,
    perturbed_objective_le,
    residuals,
    sample_l1_perturbation,
    smoothed_gradient,
    smoothed_objective,
    unscale_theta,
)
from dpmedreg.gcd import _descend
from dpmedreg.verification import random_theta

from conftest import benchmark_instance, smoothed_baseline

TRUTH = np.array([2.0, 3.0, 0.0, -4.0])


def _report(num: str, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def _tiny_instance(sub, t):
    n = 40 + int(sub.uniform_open(1)[0] * 11)  # 40..50
    d = 1 + (t % 2)
    X = sub.uniforms(-0.5, 0.5, n * d).reshape(n, d)
    X = X / max(float(np.abs(X).sum(axis=1).max()), 1.0)
    beta = sub.uniforms(-1.5, 1.5, d)
    Y = X @ beta + sub.laplaces(0.1, n)
    B = max(2.0, float(np.abs(Y).max()) + 0.1)
    return Dataset(X=X, Y=Y, B=B), d


def test_criterion_1_smoothing_vs_exact():
    start = time.perf_counter()
    rng = RngStream(2024)
    gamma_obj = 0.05
    budget = 1e-4 / 2 + 2 * 1e-4
    worst_gap = 0.0
    worst_pair = 0.0
    for t in range(100):
        sub = rng.derive(t)
        data, d = _tiny_instance(sub, t)
        for _ in range(3):
            theta = random_theta(d, sub, scale=2.0)
            gap = abs(
                objective_l1(theta, data, 0.0) - smoothed_objective(theta, data, 0.0, gamma_obj)
            )
            worst_gap = max(worst_gap, gap)
        oracle = oracle_l1_fit(data)
        base = smoothed_baseline(data, SmoothingConfig(lam=0.0, gamma=1e-4))
        worst_pair = max(
            worst_pair,
            abs(objective_l1(oracle, data, 0.0) - objective_l1(base, data, 0.0)),
        )
    elapsed = time.perf_counter() - start
    ok = worst_gap <= gamma_obj / 2 + 1e-12 and worst_pair <= budget and elapsed < 30
    _report(
        "1",
        ok,
        f"smoothing gap {worst_gap:.2e} <= gamma/2; oracle-vs-baseline {worst_pair:.2e} "
        f"<= {budget:.1e}; {elapsed:.1f}s",
    )
    assert worst_gap <= gamma_obj / 2 + 1e-12
    assert worst_pair <= budget
    assert elapsed < 30


def test_criterion_2_gradient_correctness():
    start = time.perf_counter()
    rng = RngStream(77)
    lam, gamma = 0.01, 0.05
    h = 1e-6
    worst_central = 0.0
    worst_sided = 0.0
    checked = 0
    t = 0
    while checked < 100:
        sub = rng.derive(t)
        t += 1
        d = 1 + checked % 5
        n = 10 + checked % 41
        X = sub.uniforms(-0.5, 0.5, n * d).reshape(n, d)
        X = X / max(float(np.abs(X).sum(axis=1).max()), 1.0)
        Y = sub.uniforms(-2, 2, n)
        data = Dataset(X=X, Y=Y, B=2.0)
        theta = random_theta(d, sub)
        r = residuals(theta, data)
        if float(np.min(np.abs(np.abs(r) - gamma))) < 1e-3 or float(np.min(np.abs(r))) < 1e-3:
            continue
        checked += 1
        g = smoothed_gradient(theta, data, lam, gamma)
        up = smoothed_objective(Theta(theta.mu + h, theta.beta), data, lam, gamma)
        dn = smoothed_objective(Theta(theta.mu - h, theta.beta), data, lam, gamma)
        worst_central = max(worst_central, abs(g.mu - (up - dn) / (2 * h)))
        base = objective_l1(theta, data, 0.0)
        for k in range(d):
            ek = np.zeros(d)
            ek[k] = h
            upb = smoothed_objective(Theta(theta.mu, theta.beta + ek), data, lam, gamma)
            dnb = smoothed_objective(Theta(theta.mu, theta.beta - ek), data, lam, gamma)
            worst_central = max(worst_central, abs(g.beta[k] - (upb - dnb) / (2 * h)))
            dp, dm = directional_derivatives(theta, data, 0.0, k)
            fwd = (objective_l1(Theta(theta.mu, theta.beta + ek), data, 0.0) - base) / h
            bwd = (objective_l1(Theta(theta.mu, theta.beta - ek), data, 0.0) - base) / h
            worst_sided = max(worst_sided, abs(dp - fwd), abs(dm - bwd))
    elapsed = time.perf_counter() - start
    ok = worst_central < 1e-5 and worst_sided < 1e-5 and elapsed < 10
    _report(
        "2",
        ok,
        f"central FD err {worst_central:.2e}, one-sided FD err {worst_sided:.2e}; {elapsed:.1f}s",
    )
    assert worst_central < 1e-5
    assert worst_sided < 1e-5
    assert elapsed < 10


def test_criterion_3_table1_analogue():
    start = time.perf_counter()
    root = RngStream(0)
    est1, est3 = [], []
    abs_noise2 = []
    scale2 = None
    for rep in range(20):
        data, record, _ = benchmark_instance(5000, root.derive(rep, 0))
        r1 = fit_smoothed_private(
            data, SmoothingConfig(epsilon=0.1, lam=0.002, gamma=0.05), root.derive(rep, 1)
        )
        est1.append(unscale_theta(r1.theta, record).as_vector())
        r2 = fit_irls_private(
            data, IrlsConfig(epsilon=0.1, lam=0.002, e=0.2), root.derive(rep, 2)
        )
        abs_noise2.extend(np.abs(r2.noise).tolist())
        scale2 = r2.noise_scale
        r3 = fit_gcd_private(
            data, GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=40), root.derive(rep, 3)
        )
        est3.append(unscale_theta(r3.theta, record).as_vector())
    dev1 = float(np.abs(np.median(est1, axis=0) - TRUTH).max())
    dev3 = float(np.abs(np.median(est3, axis=0) - TRUTH).max())
    noise_ratio = float(np.median(abs_noise2)) / (scale2 * math.log(2))
    elapsed = time.perf_counter() - start
    ok = dev1 <= 0.3 and dev3 <= 0.8 and 0.5 <= noise_ratio <= 2.0 and elapsed < 300
    _report(
        "3",
        ok,
        f"alg1 median dev {dev1:.3f} (<=0.3); alg2 |noise| median/scale*ln2 {noise_ratio:.2f} "
        f"(in [0.5, 2]); alg3 median dev {dev3:.3f} (<=0.8); {elapsed:.1f}s",
    )
    assert dev1 <= 0.3
    assert 0.5 <= noise_ratio <= 2.0
    assert dev3 <= 0.8
    assert elapsed < 300


@pytest.fixture(scope="module")
def table2_bench():
    start = time.perf_counter()
    root = RngStream(1)
    times = {"alg1": [], "alg2": [], "alg3": []}
    est2 = []
    for rep in range(10):
        data, record, _ = benchmark_instance(500_000, root.derive(rep, 0))
        t0 = time.perf_counter()
        fit_smoothed_private(
            data, SmoothingConfig(epsilon=0.1, lam=0.002, gamma=0.05), root.derive(rep, 1)
        )
        times["alg1"].append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        r2 = fit_irls_private(
            data, IrlsConfig(epsilon=0.1, lam=0.002, e=0.2, tau=1e-6, max_iters=200),
            root.derive(rep, 2),
        )
        times["alg2"].append(time.perf_counter() - t0)
        est2.append(unscale_theta(r2.theta, record).as_vector())
        t0 = time.perf_counter()
        fit_gcd_private(
            data, GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=40), root.derive(rep, 3)
        )
        times["alg3"].append(time.perf_counter() - t0)
    return {
        "median_times": {k: float(np.median(v)) for k, v in times.items()},
        "dev2": float(np.abs(np.median(est2, axis=0) - TRUTH).max()),
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_4_table2_timing_ordering(table2_bench):
    t = table2_bench["median_times"]
    ok = t["alg3"] < t["alg2"] < t["alg1"] and table2_bench["elapsed"] < 900
    _report(
        "4 (timing)",
        ok,
        f"median seconds alg3 {t['alg3']:.2f} < alg2 {t['alg2']:.2f} < alg1 {t['alg1']:.2f}; "
        f"total {table2_bench['elapsed']:.0f}s",
    )
    assert t["alg3"] < t["alg2"] < t["alg1"]
    assert table2_bench["elapsed"] < 900


def test_criterion_4_table2_alg2_accuracy(table2_bench):
    # Noise is calibrated to the worst-case sensitivity constant divided by
    # epsilon; at n = 5e5 that scale exceeds the tolerance by orders of
    # magnitude, so this criterion cannot be met by a faithful
    # implementation.  At the coefficient bound v = 8 B^2/(lambda e) = 8e4,
    # the one that holds on every dataset, the sensitivity is 19.7, so the
    # Laplace scale is 197 in normalized units (~1.9e3 raw units per
    # coefficient); even a bound v -> 0 would leave it at 0.80 normalized
    # (~7.7 raw units), because the curvature term min(., lambda) equals
    # lambda = 0.002.  Kept as an honest check; see "Install and test" in
    # the README.
    dev2 = table2_bench["dev2"]
    ok = dev2 <= 0.3
    _report("4 (accuracy)", ok, f"alg2 median dev {dev2:.3f} (tolerance 0.3)")
    assert dev2 <= 0.3


def test_criterion_5_sensitivity_domination():
    start = time.perf_counter()
    r2 = irls_sensitivity_probe(50, 3, 1000, IrlsConfig(lam=0.002, e=0.2), RngStream(5))
    r3 = gcd_step_probe(50, 3, 1000, GcdConfig(lam=0.002, ell=0.1), RngStream(6))
    elapsed = time.perf_counter() - start
    ok = r2.ok and r3.ok and elapsed < 120
    _report(
        "5",
        ok,
        f"irls shift {r2.observed:.3f} <= {r2.bound:.1f}; gcd step shift {r3.observed:.6f} "
        f"<= {r3.bound:.6f}; {elapsed:.1f}s",
    )
    assert r2.ok
    assert r3.ok
    assert elapsed < 120


def test_criterion_6_bound_coverage():
    start = time.perf_counter()
    alpha = 0.1
    root = RngStream(31)
    cfg1 = SmoothingConfig(epsilon=0.1, lam=0.002, gamma=0.05)
    from dpmedreg import irls_accuracy_bound, smoothing_accuracy_bound

    bound1 = smoothing_accuracy_bound(3, alpha, 2000, cfg1.lam, cfg1.epsilon)
    hits1 = 0
    for rep in range(200):
        data, _, _ = benchmark_instance(2000, root.derive(0, rep))
        base = smoothed_baseline(data, cfg1)
        noisy = fit_smoothed_private(data, cfg1, root.derive(0, rep, 1)).theta
        dist = abs(base.mu - noisy.mu) + float(np.abs(base.beta - noisy.beta).sum())
        hits1 += dist <= bound1
    cfg2 = IrlsConfig(epsilon=0.1, lam=0.002, e=0.2)
    hits2 = 0
    for rep in range(200):
        data, _, _ = benchmark_instance(10_000, root.derive(1, rep))
        release = fit_irls_private(data, cfg2, root.derive(1, rep, 1))
        bound2 = irls_accuracy_bound(
            data.d, alpha, data.n, cfg2.lam, cfg2.epsilon, cfg2.e, data.B
        )
        hits2 += float(np.abs(release.noise).sum()) <= bound2
    cover1, cover2 = hits1 / 200, hits2 / 200
    elapsed = time.perf_counter() - start
    ok = cover1 >= 0.85 and cover2 >= 0.85 and elapsed < 300
    _report(
        "6", ok, f"coverage alg1 {cover1:.3f}, alg2 {cover2:.3f} (>=0.85); {elapsed:.1f}s"
    )
    assert cover1 >= 0.85
    assert cover2 >= 0.85
    assert elapsed < 300


def test_criterion_7_sampler_distributions():
    start = time.perf_counter()
    draws = np.sort(RngStream(3).laplaces(1.0, 100_000))
    cdf = np.where(draws < 0, 0.5 * np.exp(draws), 1.0 - 0.5 * np.exp(-draws))
    n = draws.shape[0]
    hi = np.arange(1, n + 1) / n
    ks = float(np.max(np.maximum(np.abs(hi - cdf), np.abs(hi - 1.0 / n - cdf))))
    d, eps = 3, 0.1
    rng = RngStream(8)
    norms = np.array(
        [np.abs(sample_l1_perturbation(d + 1, eps, rng.derive(i))).sum() for i in range(100_000)]
    )
    mean_rel = abs(float(norms.mean()) - (d + 1) * 4.0 / eps) / ((d + 1) * 4.0 / eps)
    coverage_ok = True
    covers = {}
    for alpha in (0.5, 0.1, 0.01):
        cov = float(np.mean(norms <= gamma_tail_bound(d, alpha, eps)))
        covers[alpha] = cov
        coverage_ok &= cov >= 1.0 - alpha
    elapsed = time.perf_counter() - start
    ok = ks < 0.01 and mean_rel < 0.02 and coverage_ok and elapsed < 60
    _report(
        "7",
        ok,
        f"KS {ks:.4f} (<0.01); gamma mean rel err {mean_rel:.4f} (<0.02); "
        f"tail coverage {covers}; {elapsed:.1f}s",
    )
    assert ks < 0.01
    assert mean_rel < 0.02
    assert coverage_ok
    assert elapsed < 60


def test_criterion_8_convergence_properties():
    root = RngStream(13)
    worst_increase = -math.inf
    worst_iters = 0
    trace_ok = True
    for rep in range(5):
        data, _, _ = benchmark_instance(5000, root.derive(rep, 0))
        cfg = IrlsConfig(lam=0.002, e=0.2, tau=1e-6, max_iters=200)
        trace = irls_fit(data, cfg)
        vals = [
            perturbed_objective_le(th, data, cfg.lam, cfg.e)
            for th in trace.thetas
        ]
        worst_increase = max(worst_increase, float(np.max(np.diff(vals))))
        worst_iters = max(worst_iters, trace.iterations)
        gcd_cfg = GcdConfig(epsilon=0.1, lam=0.002, ell=0.1, batches=40)
        release, iterates, _ = _descend(data, gcd_cfg, root.derive(rep, 1))
        for t in range(gcd_cfg.batches):
            prev = iterates[t, 1:]
            rhs = gcd_cfg.ell / (t + 1) * (1.0 + 0.002 * np.abs(prev)) + np.abs(release.noise[t])
            trace_ok &= bool(np.all(np.abs(iterates[t + 1, 1:] - prev) <= rhs + 1e-12))
    ok = worst_increase <= 1e-10 and worst_iters < 30 and trace_ok
    _report(
        "8",
        ok,
        f"IRLS worst increase {worst_increase:.2e} (<=1e-10), worst iters {worst_iters} "
        f"(<30); gcd trace inequality {'holds' if trace_ok else 'violated'}",
    )
    assert worst_increase <= 1e-10
    assert worst_iters < 30
    assert trace_ok


def _run_cli(args, cwd):
    # run the package this process imported, installed or not: a relative
    # PYTHONPATH entry such as "src" does not resolve from cwd
    env = dict(os.environ)
    pkg_parent = str(Path(dpmedreg.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_parent, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "dpmedreg", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _mask_timing(text: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.startswith("wall_time="):
            lines.append("wall_time=X")
            continue
        parts = line.split(",")
        if len(parts) >= 5:
            parts[-1] = "X"
            lines.append(",".join(parts))
        else:
            lines.append(line)
    return "\n".join(lines)


def test_criterion_9_cli_determinism(tmp_path):
    # generated data files must be byte-identical; estimate tables and
    # manifests identical apart from elapsed/wall-time fields
    runs = {}
    for tag in ("a", "b"):
        sub = tmp_path / tag
        sub.mkdir()
        gen = _run_cli(["generate", "--n", "400", "--seed", "17", "--out", "data.csv"], sub)
        assert gen.returncode == 0, gen.stderr
        fit = _run_cli(
            ["fit", "--algo", "alg1", "--data", "data.csv", "--seed", "3", "--out", "fit.csv"],
            sub,
        )
        assert fit.returncode == 0, fit.stderr
        bench = _run_cli(
            [
                "bench", "--replicates", "2", "--n-list", "400", "--algo-list", "alg3",
                "--seed", "5", "--format", "csv", "--out", "bench.csv",
            ],
            sub,
        )
        assert bench.returncode == 0, bench.stderr
        probe = _run_cli(["probe", "--target", "alg3", "--trials", "40", "--seed", "7"], sub)
        assert probe.returncode == 0, probe.stderr
        runs[tag] = {
            "data": (sub / "data.csv").read_bytes(),
            "data_manifest": _mask_timing((sub / "data.csv.manifest").read_text()),
            "fit": _mask_timing((sub / "fit.csv").read_text()),
            "fit_manifest": _mask_timing((sub / "fit.csv.manifest").read_text()),
            "bench": _mask_timing((sub / "bench.csv").read_text()),
            "probe": probe.stdout,
        }
    same = all(runs["a"][key] == runs["b"][key] for key in runs["a"])
    # the data files must match byte for byte, without masking
    same &= runs["a"]["data"] == runs["b"]["data"]
    _report("9", same, "fixed-seed CLI outputs reproduce (timing fields excluded)")
    assert runs["a"]["data"] == runs["b"]["data"]
    for key in ("data_manifest", "fit", "fit_manifest", "bench", "probe"):
        assert runs["a"][key] == runs["b"][key], key
