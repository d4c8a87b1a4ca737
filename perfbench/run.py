"""Benchmark entry point.

    python3 perfbench/run.py --workload {cli-large,replicates,probes} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  Prints human-readable lines, then as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread: the BLAS pools numpy would start are capped before
# numpy is imported (by pace, next), here and in the set-up children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pace  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is mostly the import of scipy and dpmedreg (numpy is loaded before,
# with pace), whose time varies by about a fifth from one interpreter to the next.
SETUP_REPEATS = 5


def _import_package():
    """Import dpmedreg from this checkout's src/, never from elsewhere."""
    if not (SRC / "dpmedreg" / "__init__.py").is_file():
        sys.stderr.write(f"error: no dpmedreg package under {SRC}; run from a source checkout\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import dpmedreg

    if Path(dpmedreg.__file__).resolve().parent != SRC / "dpmedreg":
        sys.stderr.write(f"error: imported dpmedreg from {dpmedreg.__file__}, not {SRC}\n")
        sys.exit(2)


def _setup_seconds(argv: list[str]) -> float:
    """Median over fresh interpreters of the time, at the reference speed, to
    import the package and prepare the workload's inputs, up to the first
    timed operation.  Each child reports its own time on its last line."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
                               check=True, timeout=120, stdin=subprocess.DEVNULL,
                               stdout=subprocess.PIPE, text=True)
        times.append(float(child.stdout.split()[-1]))
    return statistics.median(times)


def _setup_only(name: str, seed: int, workdir: Path) -> int:
    """Child side of :func:`_setup_seconds`: prints the time, at the reference
    speed, of importing the package and preparing the workload's inputs."""
    pace.start()
    with pace.Timer() as timer:
        _import_package()
        from workloads import WORKLOADS

        WORKLOADS[name]().prepare(seed, str(workdir))
    pace.stop()
    print(timer.seconds)
    return 0


def _measure(workload, seconds: float, tracer) -> tuple[list, list[tuple[list, float, bool]]]:
    """One untimed warm-up round (first calls are slower), then whole timed
    rounds, at least two, while the next one (taken to last as long as the
    last) ends within ``seconds`` of the start.  Returns the warm-up round's
    operations and, per timed round, (operations, round seconds at the
    reference speed, traced); with a tracer, odd timed rounds are traced.
    Every round is checked.  The pacer runs throughout, checks included."""
    deadline = time.perf_counter() + seconds
    pace.start()
    try:
        warmup = workload.round()
        workload.check(warmup)
        rounds = []
        last = 0.0
        while len(rounds) < 2 or time.perf_counter() + last <= deadline:
            on = tracer is not None and len(rounds) % 2 == 1
            if on:
                tracer.install()
            try:
                start = time.perf_counter()
                ops = workload.round()
                last = time.perf_counter() - start
            finally:
                if on:
                    tracer.uninstall()
            workload.check(ops)
            rounds.append((ops, sum(op.seconds for op in ops), on))
    finally:
        pace.stop()
    return warmup, rounds


def _layer_metrics(tracer, n_traced: int, overhead: float) -> dict:
    from tracer import COUNTERS, SELF_TIMED

    metrics = {}
    for name, entry in tracer.summary().items():
        metrics[f"{name}.calls"] = (entry["calls"] / n_traced, "count")
        metrics[f"{name}.busy_s"] = (entry["busy_s"] / n_traced, "s")
        if name in SELF_TIMED:
            metrics[f"{name}.self_s"] = (entry["self_s"] / n_traced, "s")
        for key in COUNTERS.get(name, ()):
            metrics[f"{name}.{key}"] = (entry.get(key, 0) / n_traced, "B" if key == "bytes" else "count")
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def execute(workload, seed: int, seconds: float, tracer, workdir: Path) -> dict:
    """Prepare, measure and check one workload; raises CheckFailed on a wrong output."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(seed, str(workdir))
        warmup, rounds = _measure(workload, seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, named = workload.finish([ops for ops, _, on in rounds if not on])
    ops = warmup + [op for r, _, _ in rounds for op in r]
    out = {
        "rounds": len(rounds),
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "round_s": statistics.median(t for _, t, on in rounds if not on),
        "metrics": metrics,
        "named": named,
    }
    if tracer is not None:
        traced = [t for _, t, on in rounds if on]
        out["layers"] = _layer_metrics(tracer, len(traced), statistics.median(traced) - out["round_s"])
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    if args.setup_only:
        return _setup_only(args.workload, args.seed, workdir)

    _import_package()
    from checks import CheckFailed
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()

    setup_s = _setup_seconds(["--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", str(args.seconds)])
    tracer = Tracer() if args.trace else None
    try:
        run = execute(workload, args.seed, args.seconds, tracer, workdir)
    except CheckFailed as exc:
        sys.stderr.write(f"check failed: {exc}\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed}: {run['rounds']} timed rounds after a warm-up round, "
          f"attempted {run['attempted']}, failed {run['failed']}")
    slices = pace.slices()
    print(f"reference slice: median {statistics.median(slices) * 1e3:.4f} ms over {len(slices)} "
          f"slices (reference {pace.REF_SLICE_S * 1e3:g} ms)")
    print(f"setup_s {setup_s:.4f} s")
    print(f"round_s {run['round_s']:.4f} s")
    for key, value in run["named"].items():
        print(f"{key} {value:.6g} {'1/s' if key.endswith('per_s') else 's'}")
    if tracer is None:
        print(f"peak_rss_mib {peak_rss_mib:.1f} MiB")
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "round_s": {"value": run["round_s"], "unit": "s"}}
        metrics.update({k: {"value": v, "unit": "s"} for k, v in run["metrics"].items()})
        metrics["peak_rss_mib"] = {"value": peak_rss_mib, "unit": "MiB"}
    else:
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"{len(tracer.spans)} spans written to {trace_path.relative_to(ROOT)}")
        for key, (value, unit) in run["layers"].items():
            print(f"  {key} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in run["layers"].items()}
    print(json.dumps({"correct": True, "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
