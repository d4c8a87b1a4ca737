"""Differentially private median (L1) regression toolkit.

Three private fitters over a shared bounded data model:

* ``alg1`` -- smoothed objective perturbation (random linear tilt of the
  Huber-smoothed program),
* ``alg2`` -- output-perturbed iteratively reweighted least squares,
* ``alg3`` -- noisy batched greedy coordinate descent,

plus noiseless baselines, an exact linear-programming L1 oracle, a
synthetic-data generator with domain normalization, sensitivity probes, and a
benchmark CLI.
"""

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package re-exports them in
# this order.
from . import datagen, gcd, irls, model, sampling, smoothing, verification

__all__ = ["__version__"]
for _module in (model, sampling, smoothing, irls, gcd, datagen, verification):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
