"""Command-line front end: generate data, run fitters, run replicate
benchmarks, and run sensitivity/sampler probes.

Exit codes: 0 success, 1 runtime failure (including a failed probe), 2 usage
error.  Every result-emitting command writes a key=value manifest sidecar so a
run can be replayed; all outputs are deterministic for a fixed seed except the
elapsed/wall-time fields.  The default seed comes from DPMEDREG_SEED.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .bench import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    PROTOCOL_EPSILON,
    CellResult,
    parameter_names,
    resolve_params,
    rows_to_csv,
    run_cell,
    run_fit,
    tables_to_markdown,
)
from .datagen import (
    GeneratorSpec,
    default_generator_spec,
    generate,
    normalize,
    read_csv,
    unscale_theta,
    write_csv,
)
from .gcd import GcdConfig, gcd_step_probe
from .irls import IrlsConfig, fit_irls_private, irls_accuracy_bound, irls_sensitivity_probe
from .sampling import RngStream, gamma_tail_bound, sample_l1_perturbations, sample_laplace
from .smoothing import SmoothingConfig, fit_smoothed_baseline, fit_smoothed_private, smoothing_accuracy_bound

SEED_ENV = "DPMEDREG_SEED"


def _resolve_seed(parser, given: int | None) -> int:
    """``--seed`` when given, else the DPMEDREG_SEED variable, else 0; a seed
    that is not a non-negative integer is a usage error naming its source."""
    if given is not None:
        source, seed = "--seed", given
    else:
        source, text = SEED_ENV, os.environ.get(SEED_ENV, "0")
        try:
            seed = int(text)
        except ValueError:
            parser.error(f"{SEED_ENV} must be an integer, got {text!r}")
    if seed < 0:
        parser.error(f"{source} must be a non-negative integer, got {seed}")
    return seed


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _n_list(text: str) -> str:
    """Comma-separated positive integers, returned as given for the manifest."""
    try:
        if all(int(part) >= 1 for part in text.split(",")):
            return text
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected comma-separated positive integers, got {text!r}")


def _beta_list(text: str) -> list[float]:
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats, got {text!r}")


def _fingerprint(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _emit(text: str, path: str | None, stream) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        stream.write(text)


def _write_manifest(out: str | None, entries: dict) -> None:
    """Sorted key=value lines to ``<out>.manifest``, or to stderr without ``out``."""
    text = "".join(f"{key}={entries[key]}\n" for key in sorted(entries))
    _emit(text, out + ".manifest" if out else None, sys.stderr)


def _cmd_generate(parser, args, seed: int) -> int:
    beta = args.beta if args.beta is not None else [3.0, 0.0, -4.0]
    if args.d is not None and args.d != len(beta):
        parser.error(f"--d {args.d} does not match beta length {len(beta)}")
    kwargs = {}
    if args.box is not None:
        if len(args.box) != 2:
            parser.error("--box expects two comma-separated numbers lo,hi")
        kwargs["box"] = (args.box[0], args.box[1])
    spec = GeneratorSpec(
        n=args.n, d=len(beta), mu=args.mu, beta=beta, noise_scale=args.noise_scale, **kwargs
    )
    start = time.perf_counter()
    X, Y, truth = generate(spec, RngStream(seed))
    write_csv(args.out, X, Y)
    wall = time.perf_counter() - start
    manifest = {
        "command": "generate",
        "n": spec.n,
        "d": spec.d,
        "mu": spec.mu,
        "beta": ",".join(repr(float(b)) for b in spec.beta),
        "noise_scale": spec.noise_scale,
        "box": f"{spec.box[0]},{spec.box[1]}",
        "seed": seed,
        "out": args.out,
        "dataset_fingerprint": f"n={spec.n};sha256={_fingerprint(args.out)}",
        "wall_time": wall,
        "artifact_version": __version__,
    }
    _write_manifest(args.out, manifest)
    return 0


# Every knob flag of ``fit`` by argparse dest; an algorithm's table row says
# which of them it accepts.
_KNOBS = tuple(dict.fromkeys(knob for entry in ALGORITHM_TABLE.values() for knob in entry.knobs))


def _fit_overrides(parser, args) -> dict:
    """The algorithm's knob flags as given to ``fit``; any other knob flag
    given (or ``--seed`` for a baseline) is a usage error."""
    entry = ALGORITHM_TABLE[args.algo]
    accepted = set(entry.knobs) | ({"seed"} if entry.private else set())
    for name in _KNOBS + ("seed",):
        if getattr(args, name) is not None and name not in accepted:
            flag = "lambda" if name == "lam" else name
            parser.error(f"flag --{flag} does not apply to algorithm {args.algo}")
    return {name: getattr(args, name) for name in entry.knobs}


def _cmd_fit(parser, args, seed: int) -> int:
    params = resolve_params(args.algo, _fit_overrides(parser, args))
    start = time.perf_counter()
    X, Y = read_csv(args.data)
    data, record = normalize(X, Y, args.target_b)
    theta, elapsed, _ = run_fit(args.algo, data, params, RngStream(seed))
    est = unscale_theta(theta, record)
    names = parameter_names(data.d)
    values = est.as_vector()
    if args.format == "csv":
        lines = ["algorithm,parameter,estimate,true_value,elapsed_seconds"]
        for name, value in zip(names, values):
            lines.append(f"{args.algo},{name},{float(value)!r},,{float(elapsed)!r}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [
            "| algorithm | parameter | estimate | elapsed(s) |",
            "|---|---|---|---|",
        ]
        for name, value in zip(names, values):
            lines.append(f"| {args.algo} | {name} | {value:.6f} | {elapsed:.4f} |")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out, sys.stdout)
    wall = time.perf_counter() - start
    manifest = {
        "command": "fit",
        "algo": args.algo,
        "data": args.data,
        "target_b": args.target_b,
        "seed": seed,
        "dataset_fingerprint": f"n={data.n};sha256={_fingerprint(args.data)}",
        "x_scale": record.x_scale,
        "y_scale": record.y_scale,
        "wall_time": wall,
        "artifact_version": __version__,
    }
    manifest.update({f"param_{k}": v for k, v in sorted(params.items())})
    _write_manifest(args.out, manifest)
    return 0


def _cmd_bench(parser, args, seed: int) -> int:
    algos = args.algo_list.split(",")
    for algo in algos:
        if algo not in ALGORITHMS:
            parser.error(f"unknown algorithm {algo!r} in --algo-list")
    n_values = [int(v) for v in args.n_list.split(",")]
    cells: list[CellResult] = []
    resolved: dict[str, dict] = {}
    wall_start = time.perf_counter()
    cell_id = 0
    for n in n_values:
        for algo in algos:
            params = resolve_params(algo, {})
            resolved[algo] = params
            cells.append(run_cell(algo, n, args.replicates, seed, cell_id, params))
            cell_id += 1
    wall = time.perf_counter() - wall_start
    text = rows_to_csv(cells) if args.format == "csv" else tables_to_markdown(cells)
    _emit(text, args.out, sys.stdout)
    manifest = {
        "command": "bench",
        "replicates": args.replicates,
        "n_list": args.n_list,
        "algo_list": args.algo_list,
        "format": args.format,
        "seed": seed,
        "wall_time": wall,
        "artifact_version": __version__,
    }
    for algo, params in resolved.items():
        for key, value in params.items():
            manifest[f"param_{algo}_{key}"] = value
    _write_manifest(args.out, manifest)
    return 0


def _probe_samplers(trials: int, seed: int, report) -> bool:
    rng = RngStream(seed)
    ok = True
    xs = np.sort(sample_laplace(1.0, trials, rng.derive(0)))
    cdf = np.where(xs < 0, 0.5 * np.exp(xs), 1.0 - 0.5 * np.exp(-xs))
    grid = np.arange(1, trials + 1) / trials
    ks = float(np.max(np.maximum(np.abs(grid - cdf), np.abs(grid - 1.0 / trials - cdf))))
    # Dvoretzky-Kiefer-Wolfowitz: a correct sampler exceeds this with
    # probability at most 2 exp(-20); 0.01 at the default 100 000 trials
    ks_bound = math.sqrt(10 / trials)
    ok &= report("laplace_ks", ks, ks_bound, ks < ks_bound)

    d = 3
    eps = PROTOCOL_EPSILON
    # row i is drawn from rng.derive(1).derive(i), the stream rng.derive(1, i)
    values = sample_l1_perturbations(d + 1, eps, rng.derive(1), trials)
    norms = np.abs(values, out=values).sum(axis=1)
    mean = float(norms.mean())
    expect = (d + 1) * 4.0 / eps
    rel = abs(mean - expect) / expect
    # the Gamma(d + 1) norm's relative standard error is 1/sqrt((d + 1) trials),
    # so this is about 12.6 of them; 0.02 at the default 100 000 trials
    rel_bound = math.sqrt(40 / trials)
    ok &= report("gamma_norm_mean_rel_err", rel, rel_bound, rel < rel_bound)

    for alpha in (0.5, 0.1, 0.01):
        bound = gamma_tail_bound(d, alpha, eps)
        cover = float(np.mean(norms <= bound))
        ok &= report(f"gamma_tail_coverage_alpha_{alpha}", cover, 1.0 - alpha, cover >= 1.0 - alpha)
    return ok


def _probe_alg2(trials: int, seed: int, report) -> bool:
    result = irls_sensitivity_probe(50, 3, trials, IrlsConfig(), RngStream(seed))
    return report("alg2_max_l1_shift", result.observed, result.bound, result.ok)


def _probe_alg3(trials: int, seed: int, report) -> bool:
    result = gcd_step_probe(50, 3, trials, GcdConfig(), RngStream(seed))
    return report("alg3_max_step_shift", result.observed, result.bound, result.ok)


def _probe_bounds(trials: int, seed: int, report) -> bool:
    alpha = 0.1
    floor = 1.0 - alpha - 0.05
    root = RngStream(seed)
    ok = True

    n1 = 2000
    spec1 = default_generator_spec(n1)
    cfg1 = SmoothingConfig(epsilon=PROTOCOL_EPSILON)
    bound1 = smoothing_accuracy_bound(spec1.d, alpha, n1, cfg1.lam, cfg1.epsilon)
    hits = 0
    for rep in range(trials):
        X, Y, _ = generate(spec1, root.derive(0, rep, 0))
        data, _ = normalize(X, Y)
        base = fit_smoothed_baseline(data, cfg1)
        noisy = fit_smoothed_private(data, cfg1, root.derive(0, rep, 1)).theta
        dist = abs(base.mu - noisy.mu) + float(np.abs(base.beta - noisy.beta).sum())
        hits += dist <= bound1
    cover = hits / trials
    ok &= report("alg1_bound_coverage", cover, floor, cover >= floor)

    n2 = 10_000
    spec2 = default_generator_spec(n2)
    cfg2 = IrlsConfig(epsilon=PROTOCOL_EPSILON)
    hits = 0
    for rep in range(trials):
        X, Y, _ = generate(spec2, root.derive(1, rep, 0))
        data, _ = normalize(X, Y)
        rep_out = fit_irls_private(data, cfg2, root.derive(1, rep, 1))
        bound2 = irls_accuracy_bound(
            data.d, alpha, data.n, cfg2.lam, cfg2.epsilon, cfg2.e, rep_out.trace.v, data.B
        )
        hits += float(np.abs(rep_out.noise).sum()) <= bound2
    cover = hits / trials
    ok &= report("alg2_bound_coverage", cover, floor, cover >= floor)
    return ok


# Probe target -> (runner, default trials).  The sampler thresholds shrink as
# 1/sqrt(trials); the Monte-Carlo coverage check needs full refits.
_PROBES = {
    "alg2": (_probe_alg2, 1000),
    "alg3": (_probe_alg3, 1000),
    "samplers": (_probe_samplers, 100_000),
    "bounds": (_probe_bounds, 200),
}


def _cmd_probe(parser, args, seed: int) -> int:
    runner, default_trials = _PROBES[args.target]
    trials = args.trials if args.trials is not None else default_trials

    def report(name: str, observed: float, bound: float, passed: bool) -> bool:
        status = "PASS" if passed else "FAIL"
        sys.stdout.write(f"{name}: observed={observed:.6g} bound={bound:.6g} {status}\n")
        return passed

    return 0 if runner(trials, seed, report) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmedreg",
        description="Differentially private median (L1) regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark table as CSV")
    gen.set_defaults(run=_cmd_generate)
    gen.add_argument("--n", type=_positive_int, default=5000)
    gen.add_argument("--d", type=_positive_int, default=None, help="must match --beta length")
    gen.add_argument("--mu", type=float, default=2.0)
    gen.add_argument("--beta", type=_beta_list, default=None, help="comma-separated, default 3,0,-4")
    gen.add_argument("--noise-scale", dest="noise_scale", type=float, default=2.0)
    gen.add_argument("--box", type=_beta_list, default=None, help="covariate box lo,hi")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)

    fit = sub.add_parser("fit", help="fit one algorithm on a CSV table")
    fit.set_defaults(run=_cmd_fit)
    fit.add_argument("--algo", required=True, choices=ALGORITHMS)
    fit.add_argument("--data", required=True)
    fit.add_argument("--target-b", dest="target_b", type=float, default=2.0)
    fit.add_argument("--epsilon", type=float, default=None)
    fit.add_argument("--lambda", dest="lam", type=float, default=None)
    fit.add_argument("--gamma", type=float, default=None)
    fit.add_argument("--e", type=float, default=None)
    fit.add_argument("--tau", type=float, default=None)
    fit.add_argument("--v", type=float, default=None)
    fit.add_argument("--n0", type=_positive_int, default=None, help="iteration/batch count")
    fit.add_argument("--ell", type=float, default=None)
    fit.add_argument("--init", choices=("ridge", "zero"), default=None)
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--format", choices=("csv", "markdown"), default="csv")
    fit.add_argument("--out", default=None)

    bench = sub.add_parser("bench", help="replicate benchmark over algorithms and sizes")
    bench.set_defaults(run=_cmd_bench)
    bench.add_argument("--replicates", type=_positive_int, default=20)
    bench.add_argument("--n-list", dest="n_list", type=_n_list, default="5000")
    bench.add_argument("--algo-list", dest="algo_list", default="alg1,alg2,alg3")
    bench.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--out", default=None)

    probe = sub.add_parser("probe", help="empirical domination and distribution checks")
    probe.set_defaults(run=_cmd_probe)
    probe.add_argument("--target", required=True, choices=_PROBES)
    probe.add_argument("--trials", type=_positive_int, default=None)
    probe.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    seed = _resolve_seed(parser, args.seed)
    try:
        return args.run(parser, args, seed)
    except (ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
