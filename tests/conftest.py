import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dpmedreg import Dataset, RngStream, default_generator_spec, fit_smoothed_private, generate, normalize


def bounded_instance(sub: RngStream, n: int, d: int, noise: float = 0.25, beta_scale: float = 1.5):
    """Random bounded dataset with planted linear structure and Laplace noise.

    Covariates are centered; rows are rescaled so the largest L1 norm is 1.
    Returns (dataset, planted_beta).
    """
    X = sub.uniforms(-0.5, 0.5, n * d).reshape(n, d)
    X = X / max(float(np.abs(X).sum(axis=1).max()), 1.0)
    beta = sub.uniforms(-beta_scale, beta_scale, d)
    Y = X @ beta + sub.laplaces(noise, n)
    B = max(2.0, float(np.abs(Y).max()) + 0.1)
    return Dataset(X=X, Y=Y, B=B), beta


def smoothed_baseline(data: Dataset, cfg):
    """alg1's noiseless fit: the smoothed program of ``cfg`` at epsilon = inf."""
    return fit_smoothed_private(data, replace(cfg, epsilon=math.inf), None).theta


def benchmark_instance(n: int, rng: RngStream):
    """One normalized draw of the stock benchmark model."""
    X, Y, truth = generate(default_generator_spec(n), rng)
    data, record = normalize(X, Y)
    return data, record, truth


def traced_peak(fn, *args):
    """``(fn(*args), peak)``: peak is the most memory tracemalloc saw
    allocated during the call, in bytes, above what was allocated when it
    started; numpy reports its array buffers to tracemalloc, so they count."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


def mask_timing(text: str) -> str:
    """``text`` with its elapsed/wall-time fields, the only nondeterministic
    outputs of the CLI, replaced by X: a ``wall_time=`` manifest line, and the
    numeric last field of a CSV row of five or more fields."""
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


@pytest.fixture
def rng():
    return RngStream(20240901)
