"""Command-line front end: generate data, run fitters, run replicate
benchmarks, and run the sensitivity/sampler probes of
:data:`dpmedreg.verification.PROBES`.

Exit codes: 0 success, 1 runtime failure (including a failed probe), 2 usage
error.  Every result-emitting command writes a key=value manifest sidecar so a
run can be replayed; all outputs are deterministic for a fixed seed except the
elapsed/wall-time fields.  The default seed comes from DPMEDREG_SEED.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys
import time
from dataclasses import replace

from . import __version__
from .bench import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    CellResult,
    parameter_names,
    resolve_params,
    rows_to_csv,
    run_cell,
    run_fit,
    tables_to_markdown,
)
from .datagen import default_generator_spec, generate, normalize, read_csv, unscale_theta, write_csv
from .sampling import RngStream
from .verification import PROBES

SEED_ENV = "DPMEDREG_SEED"

# argparse takes a value starting with "-" for a flag unless it matches this;
# its own test knows no lists or exponents, so `--box -0.5,0.5` would fail.
_NEGATIVE_VALUE = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


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


def _same_file(path: str, other: str) -> bool:
    """Whether the two paths name one file: the same real path, or, when both
    exist, the same file by device and inode (a hard link)."""
    if os.path.realpath(path) == os.path.realpath(other):
        return True
    try:
        return os.path.samefile(path, other)
    except OSError:
        return False


def _emit(text: str, path: str | None, stream) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        stream.write(text)


def _write_manifest(args, seed: int, wall: float, fields: dict, dataset: tuple | None = None) -> None:
    """Sorted key=value lines to ``<args.out>.manifest``, or to stderr without
    ``args.out`` or when it is not a regular file (a FIFO or a device, where
    a sidecar would land in ``/dev``): the command's own ``fields``, the
    fields every manifest shares, and for ``dataset`` = (n, sha256) that
    table's fingerprint, the sha256 its CSV's bytes hashed to as they were
    written or read."""
    entries = dict(fields, command=args.command, seed=seed, wall_time=wall, artifact_version=__version__)
    if dataset is not None:
        n, sha256 = dataset
        entries["dataset_fingerprint"] = f"n={n};sha256={sha256}"
    text = "".join(f"{key}={entries[key]}\n" for key in sorted(entries))
    beside = args.out and stat.S_ISREG(os.stat(args.out).st_mode)
    _emit(text, args.out + ".manifest" if beside else None, sys.stderr)


def _cmd_generate(parser, args, seed: int) -> int:
    """The stock model of :func:`default_generator_spec` with the given flags
    replacing its fields; ``--beta`` also sets ``d``, its length."""
    given = {"n": args.n, "mu": args.mu, "beta": args.beta, "noise_scale": args.noise_scale}
    if args.box is not None:
        if len(args.box) != 2:
            parser.error("--box expects two comma-separated numbers lo,hi")
        given["box"] = (args.box[0], args.box[1])
    spec = replace(default_generator_spec(), **{k: v for k, v in given.items() if v is not None})
    start = time.perf_counter()
    X, Y, truth = generate(spec, RngStream(seed))
    digest = write_csv(args.out, X, Y)
    wall = time.perf_counter() - start
    manifest = {
        "n": spec.n,
        "d": spec.d,
        "mu": spec.mu,
        "beta": ",".join(repr(float(b)) for b in spec.beta),
        "noise_scale": spec.noise_scale,
        "box": f"{spec.box[0]},{spec.box[1]}",
        "out": args.out,
    }
    _write_manifest(args, seed, wall, manifest, (spec.n, digest))
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
    # the result or its manifest would overwrite the table it was fitted on
    for target in (args.out, f"{args.out}.manifest") if args.out else ():
        if _same_file(target, args.data):
            parser.error(f"--out {args.out} would overwrite the --data file {args.data}")
    params = resolve_params(args.algo, _fit_overrides(parser, args))
    start = time.perf_counter()
    # the parsed table is released once normalized, before the fit runs
    *table, digest = read_csv(args.data)
    data, record = normalize(*table, args.target_b)
    del table
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
        "algo": args.algo,
        "data": args.data,
        "target_b": args.target_b,
        "x_scale": record.x_scale,
        "y_scale": record.y_scale,
    }
    manifest.update({f"param_{k}": v for k, v in params.items()})
    _write_manifest(args, seed, wall, manifest, (data.n, digest))
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
        "replicates": args.replicates,
        "n_list": args.n_list,
        "algo_list": args.algo_list,
        "format": args.format,
    }
    for algo, params in resolved.items():
        for key, value in params.items():
            manifest[f"param_{algo}_{key}"] = value
    _write_manifest(args, seed, wall, manifest)
    return 0


def _cmd_probe(parser, args, seed: int) -> int:
    runner, default_trials = PROBES[args.target]
    results = runner(args.trials if args.trials is not None else default_trials, seed)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        sys.stdout.write(f"{r.name}: observed={r.observed:.6g} bound={r.bound:.6g} {status}\n")
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpmedreg",
        description="Differentially private median (L1) regression toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic benchmark table as CSV")
    gen.set_defaults(run=_cmd_generate)
    gen.add_argument("--n", type=_positive_int, default=None)
    gen.add_argument("--mu", type=float, default=None)
    gen.add_argument("--beta", type=_beta_list, default=None, help="comma-separated; sets d")
    gen.add_argument("--noise-scale", dest="noise_scale", type=float, default=None)
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
    probe.add_argument("--target", required=True, choices=PROBES)
    probe.add_argument("--trials", type=_positive_int, default=None)
    probe.add_argument("--seed", type=int, default=None)

    for command in sub.choices.values():
        command._negative_number_matcher = _NEGATIVE_VALUE
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
