"""The benchmark's workloads: each runs whole rounds of a fixed list of
operations through dpmedreg's public entry points, times them, and checks
their outputs with :mod:`checks`.

A workload is a class with ``prepare`` (set-up before the first timed
operation), ``round`` (one timed round of operations), ``check`` (checks one
round's outputs, untimed) and ``finish`` (checks across rounds; returns the
metrics).  Sizes are constructor arguments so the benchmark's own tests can run
every workload small.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from statistics import median

import numpy as np

import checks
from checks import CheckFailed
from pace import Timer
from dpmedreg import bench, cli, datagen
from dpmedreg.sampling import RngStream

ALGOS = ("alg1", "alg2", "alg3")
# Criterion 3 tolerances on the largest coordinate deviation from the truth.
# They hold at the workloads' default sizes; the noise grows as n shrinks.
TOLERANCE = {"alg1": 0.3, "alg3": 0.8}


@dataclass(slots=True)
class Op:
    """Outcome of one timed operation; ``seconds`` is at the reference speed
    (see :mod:`pace`)."""

    kind: str
    seconds: float
    ok: bool
    output: object = None


def _median_seconds(rounds: list[list[Op]], kind: str) -> float:
    return median([op.seconds for ops in rounds for op in ops if op.kind == kind])


def _cli(argv: list[str]) -> tuple[float, int, str]:
    """Run ``dpmedreg.cli.main`` in-process; returns (seconds, exit code, stdout)."""
    out = io.StringIO()
    with Timer() as timer, contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return timer.seconds, code, out.getvalue()


class CliLarge:
    """``dpmedreg generate`` at n rows, then ``dpmedreg fit`` with alg1, alg2 and
    alg3 at default knobs on that CSV.  Every round repeats the same commands
    with the same seeds, so later rounds check determinism against round 0."""

    name = "cli-large"

    def __init__(self, n: int = 200_000, tolerance: dict = TOLERANCE):
        self.n = n
        self.tolerance = tolerance

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.data = os.path.join(workdir, "data.csv")
        self.gen_argv = ["generate", "--n", str(self.n), "--seed", str(seed), "--out", self.data]
        self.fit_argv = {
            algo: ["fit", "--algo", algo, "--data", self.data, "--seed", str(seed + 1),
                   "--out", os.path.join(workdir, f"fit-{algo}.csv")]
            for algo in ALGOS
        }
        self.first: dict | None = None

    def round(self) -> list[Op]:
        seconds, code, _ = _cli(self.gen_argv)
        ops = [Op("generate", seconds, code == 0)]
        for algo in ALGOS:
            seconds, code, _ = _cli(self.fit_argv[algo])
            ops.append(Op(algo, seconds, code == 0))
        return ops

    def check(self, ops: list[Op]) -> None:
        gen_manifest = checks.read_manifest(self.data + ".manifest")
        checks.check_fingerprint(gen_manifest, self.data, self.n)
        outputs = {"data_sha256": checks.sha256_file(self.data)}
        for algo in ALGOS:
            out = self.fit_argv[algo][-1]
            manifest = checks.read_manifest(out + ".manifest")
            checks.check_fingerprint(manifest, self.data, self.n)
            manifest.pop("wall_time")
            outputs[algo] = (checks.without_timing(checks.read_fit_csv(out)), manifest)
        if self.first is None:
            self._check_content(outputs)
            self.first = outputs
        elif outputs != self.first:
            raise CheckFailed("a repeated fixed-seed generate/fit differs from round 0 beyond the elapsed column")

    def _check_content(self, outputs) -> None:
        X, Y, _ = datagen.generate(datagen.default_generator_spec(self.n), RngStream(self.seed))
        checks.check_csv_matches(self.data, X, Y)
        x_scale, y_scale = checks.normal_scales(X, Y)
        est = {}
        for algo in ALGOS:
            rows, manifest = outputs[algo]
            for key, want in (("x_scale", x_scale), ("y_scale", y_scale)):
                if not math.isclose(float(manifest[key]), want, rel_tol=1e-12):
                    raise CheckFailed(f"{algo}: manifest {key}={manifest[key]} != {want!r}")
            est[algo] = checks.fit_estimate(rows)
        for algo, tol in self.tolerance.items():
            checks.check_near_truth(est[algo], tol, f"fit {algo}")
        lam, e, eps, B = 0.002, 0.2, 0.1, 2.0
        noiseless = checks.noiseless_irls(X / x_scale, Y / y_scale, lam, e)
        release = est["alg2"] / np.array([y_scale] + [y_scale / x_scale] * X.shape[1])
        scale = checks.alg2_noise_scale(X.shape[1], self.n, B, lam, e, eps)
        checks.check_laplace_noise(release - noiseless, scale, "fit alg2")

    def finish(self, rounds: list[list[Op]]) -> tuple[dict, dict]:
        metrics = {f"{algo}_s": _median_seconds(rounds, algo) for algo in ALGOS}
        named = {"generate_s": _median_seconds(rounds, "generate")}
        named.update({f"fit_{algo}_s": metrics[f"{algo}_s"] for algo in ALGOS})
        return metrics, named


class Replicates:
    """The replicate loop of ``dpmedreg bench``: per algorithm, one
    ``bench.run_cell`` of ``per_round`` replicates of generate -> normalize ->
    fit -> unscale at n rows, in memory.  Round r runs cells 3r, 3r+1, 3r+2
    (alg1, alg2, alg3) of ``bench --seed N``, as a bench with many cells would;
    the accuracy checks take the median over the run's rounds of the cell
    medians.  ``run_cell`` keeps no per-replicate noise, so the first alg2
    cell is replayed untimed with its stream derivation for the noise checks,
    and the replay must reproduce the cell's median exactly."""

    name = "replicates"

    def __init__(self, n: int = 5000, per_round: int = 20, tolerance: dict = TOLERANCE):
        self.n = n
        self.per_round = per_round
        self.tolerance = tolerance

    def prepare(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.spec = datagen.default_generator_spec(self.n)
        self.params = {algo: bench.resolve_params(algo, {}) for algo in ALGOS}
        p = self.params["alg2"]
        self.alg2_scale = checks.alg2_noise_scale(self.spec.d, self.n, 2.0, p["lam"], p["e"], p["epsilon"])
        self.next_cell = 0
        self.medians = {algo: [] for algo in ALGOS}
        self.noise_checked = False

    def round(self) -> list[Op]:
        ops = []
        for algo in ALGOS:
            cell = self.next_cell
            self.next_cell += 1
            try:
                with Timer() as timer:
                    result = bench.run_cell(algo, self.n, self.per_round, self.seed, cell,
                                            self.params[algo], self.spec)
            except (ValueError, RuntimeError) as exc:  # the errors dpmedreg raises
                ops.append(Op(algo, timer.seconds, False, repr(exc)))
                continue
            ops.append(Op(algo, timer.seconds, True,
                          (cell, result.median_theta.as_vector())))
        return ops

    def check(self, ops: list[Op]) -> None:
        for op in ops:
            if not op.ok:
                continue
            cell, median_theta = op.output
            if op.kind == "alg2" and not self.noise_checked:
                self._check_alg2_noise(cell, median_theta)
            self.medians[op.kind].append(median_theta)

    def _check_alg2_noise(self, cell: int, median_theta: np.ndarray) -> None:
        root = RngStream(self.seed)
        estimates, noise = [], []
        for rep in range(self.per_round):
            X, Y, _ = datagen.generate(self.spec, root.derive(cell, rep, 0))
            data, record = datagen.normalize(X, Y, 2.0)
            theta, _, extras = bench.run_fit("alg2", data, self.params["alg2"], root.derive(cell, rep, 1))
            checks.check_scale(extras["noise_scale"], self.alg2_scale, "replicate alg2")
            noise.extend(np.abs(extras["noise"]).tolist())
            estimates.append(datagen.unscale_theta(theta, record).as_vector())
        if not np.array_equal(np.median(estimates, axis=0), median_theta):
            raise CheckFailed(f"replaying alg2 cell {cell} does not reproduce run_cell's median")
        checks.check_noise_ratio(noise, self.alg2_scale, "replicates alg2")
        self.noise_checked = True

    def finish(self, rounds: list[list[Op]]) -> tuple[dict, dict]:
        for algo, tol in self.tolerance.items():
            checks.check_near_truth(np.median(self.medians[algo], axis=0), tol, f"median {algo}")
        metrics = {f"{algo}_s": _median_seconds(rounds, algo) / self.per_round for algo in ALGOS}
        named = {f"fit_{algo}_s": metrics[f"{algo}_s"] for algo in ALGOS}
        return metrics, named


# The alg3 probe runs at this fixed seed, where it reports a step shift above
# its bound; it is the one operation expected to fail (see the README).
ALG3_PROBE_SEED = 3


class Probes:
    """``dpmedreg probe`` for alg2 and alg3 (neighbor-pair trials at n = 50,
    d = 3) and for the samplers.  Every round repeats the same commands, so
    later rounds check determinism against round 0."""

    name = "probes"

    # The pair probes' trial counts differ from the CLI defaults (1000 each):
    # 300 alg2 trials take about as long as 3000 alg3 trials, and two to five
    # rounds of 6-12 s fit a 35 s run, where the defaults gave two 12-16 s
    # rounds and a 0.4 s alg3 probe too short to time steadily.  The sampler probe keeps
    # its default, the only count its thresholds hold at.
    def __init__(self, alg2_trials: int = 300, alg3_trials: int = 3000):
        self.trials = {"alg2": alg2_trials, "alg3": alg3_trials, "samplers": 100_000}

    def prepare(self, seed: int, workdir: str) -> None:
        seeds = {"alg2": seed, "alg3": ALG3_PROBE_SEED, "samplers": seed}
        self.argv = {
            target: ["probe", "--target", target, "--trials", str(self.trials[target]),
                     "--seed", str(seeds[target])]
            for target in self.trials
        }
        self.bounds = {
            # the probe's datasets have B = 1, n = 50, d = 3; alg2 probe knobs lam 0.002, e 0.2
            "alg2": {"alg2_max_l1_shift": checks.alg2_noise_scale(3, 50, 1.0, 0.002, 0.2, 1.0)},
            "alg3": {"alg3_max_step_shift": checks.alg3_probe_bound(0.1, 50)},
            "samplers": {
                "laplace_ks": 0.01,
                "gamma_norm_mean_rel_err": 0.02,
                **{f"gamma_tail_coverage_alpha_{a}": 1.0 - a for a in (0.5, 0.1, 0.01)},
            },
        }
        self.first: dict | None = None

    def round(self) -> list[Op]:
        ops = []
        for target, argv in self.argv.items():
            seconds, code, text = _cli(argv)
            ops.append(Op(target, seconds, code == 0, text))
        return ops

    def check(self, ops: list[Op]) -> None:
        outputs = {}
        for op in ops:
            passed = checks.check_probe(op.output, self.bounds[op.kind])
            if passed != op.ok:
                raise CheckFailed(f"probe {op.kind}: exit status disagrees with its lines")
            outputs[op.kind] = op.output
        if self.first is None:
            self.first = outputs
        elif outputs != self.first:
            raise CheckFailed("a repeated fixed-seed probe printed different lines")

    def finish(self, rounds: list[list[Op]]) -> tuple[dict, dict]:
        per_trial = {kind: _median_seconds(rounds, kind) / n for kind, n in self.trials.items()}
        metrics = {"alg1_s": per_trial["samplers"], "alg2_s": per_trial["alg2"], "alg3_s": per_trial["alg3"]}
        named = {
            "probe_alg2_trials_per_s": 1.0 / metrics["alg2_s"],
            "probe_alg3_trials_per_s": 1.0 / metrics["alg3_s"],
            "sampler_draws_per_s": 1.0 / metrics["alg1_s"],
        }
        return metrics, named


WORKLOADS = {cls.name: cls for cls in (CliLarge, Replicates, Probes)}
