"""Every name a package module imports is used in that module, and the
modules import each other only downward: the mechanisms never import the
oracles and probes, the benchmark plumbing or the CLI, and the oracles and
probes never import the benchmark plumbing or the CLI.  Those upper layers
use only the public names of the modules below them."""

import ast
import subprocess
import sys
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

import dpmedreg

SOURCES = sorted(Path(dpmedreg.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in it reads; a name
    listed in the module's ``__all__`` counts as read (a re-export)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def package_imports(source: str) -> set[str]:
    """Package modules the module imports, by name (``from .x import y``,
    ``from . import x``, ``import dpmedreg.x`` and ``from dpmedreg import x``
    all give ``x``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import inside the package spelled from its root
            base = "dpmedreg" + (f".{node.module}" if node.module else "") if node.level else node.module
            names = [f"dpmedreg.{alias.name}" for alias in node.names] if base == "dpmedreg" else [base]
        else:
            continue
        found.update(name.split(".")[1] for name in names if name.startswith("dpmedreg."))
    return found


def private_imports(source: str) -> list[str]:
    """Underscore-prefixed names the module imports from a package module,
    as ``module.name``; dunders such as ``__version__`` are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if not (node.level or (node.module or "").split(".")[0] == "dpmedreg"):
            continue
        module = (node.module or "dpmedreg").removeprefix("dpmedreg.")
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{module}.{name}")
    return found


def test_checker_flags_unused_and_accepts_used():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "import numpy as np\n"
        "__all__ = ['field']\n"
        "x = np.zeros(math.floor(1.5))\n"
    )
    assert unused_imports(source) == ["dataclass (line 4)", "os (line 3)"]


def test_package_modules_have_no_unused_imports():
    assert SOURCES
    found = {path.name: unused_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_package_import_finder_sees_every_spelling():
    source = (
        "import math\n"
        "import dpmedreg.gcd\n"
        "from dpmedreg import cli\n"
        "from dpmedreg.bench import run_fit\n"
        "from . import irls, model\n"
        "from .verification import PROBES\n"
        "from numpy import zeros\n"
    )
    assert package_imports(source) == {"gcd", "cli", "bench", "irls", "model", "verification"}


def test_private_import_finder_sees_package_imports_only():
    source = (
        "from . import __version__\n"
        "from .irls import IrlsConfig, _normal_solve\n"
        "from dpmedreg.model import _spd_solve as solve\n"
        "from collections import _chain\n"
    )
    assert private_imports(source) == ["irls._normal_solve", "model._spd_solve"]


# numpy reductions whose axis a call may name
REDUCTIONS = {"sum", "prod", "max", "min", "mean", "any", "all", "reduce", "amax", "amin", "nansum"}


def row_reductions(source: str) -> list[str]:
    """Reductions along axis 1 (or -1) that the module makes outside
    ``_row_sums``, as ``name (line n)``.  The axis is the ``axis`` keyword
    or the axis position: first for an array method (``A.sum(1)``), second
    for numpy's functions and ufunc methods (``np.sum(A, 1)``,
    ``np.add.reduce(A, 1)``)."""
    tree = ast.parse(source)
    helper = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_row_sums":
            helper |= {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)) or id(node) in helper:
            continue
        if node.func.attr not in REDUCTIONS:
            continue
        receiver = node.func.value
        if isinstance(receiver, ast.Attribute):
            receiver = receiver.value
        on_numpy = isinstance(receiver, ast.Name) and receiver.id in ("np", "numpy")
        axes = [kw.value for kw in node.keywords if kw.arg == "axis"] + node.args[on_numpy:][:1]
        if any(literal(axis) in (1, -1) for axis in axes):
            found.append(f"{node.func.attr} (line {node.lineno})")
    return found


def literal(node: ast.expr):
    """The value of a literal expression (``-1`` included), else None."""
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def test_row_reduction_finder_sees_every_spelling():
    source = (
        "import numpy as np\n"
        "def _row_sums(A):\n    return A.sum(axis=1)\n"
        "a = np.abs(X).sum(axis=1, keepdims=True)\n"
        "b = X.max(1)\n"
        "c = np.sum(X, 1)\n"
        "d = np.add.reduce(X, axis=-1)\n"
        "e = X.sum(axis=0) + np.sum(X, 0) + np.add.reduce(X, 0) + X.take(i, axis=1)\n"
    )
    assert row_reductions(source) == ["sum (line 4)", "max (line 5)", "sum (line 6)", "reduce (line 7)"]


# The data model, samplers, data generator and the three mechanisms hold no
# probe, benchmark or CLI code; the oracles and probes sit above them.
MECHANISMS = ("model", "sampling", "datagen", "smoothing", "irls", "gcd")


def test_modules_import_only_downward():
    found = {path.stem: package_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert set(MECHANISMS) <= set(found)
    upward = {name: sorted(found[name] & {"verification", "bench", "cli"}) for name in MECHANISMS}
    assert {name: names for name, names in upward.items() if names} == {}
    # the oracles and probes sit below the benchmark plumbing and the CLI
    assert found["verification"] & {"bench", "cli"} == set()
    # only the ``python -m dpmedreg`` entry point runs the CLI
    assert sorted(name for name, names in found.items() if "cli" in names) == ["__main__"]


def test_mechanisms_sum_rows_only_through_the_helper():
    # model._row_sums adds short rows a column at a time with numpy's bits;
    # the oracles and probes, which import only public names, keep their own
    found = {path.stem: row_reductions(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: found[name] for name in MECHANISMS if found[name]} == {}


def epsilon_infinity_tests(source: str) -> list[str]:
    """Tests of an epsilon against infinity that the module makes outside
    ``_noise_scale``, as ``name (line n)``: ``isinf`` or ``isfinite`` of an
    epsilon, or a comparison of an epsilon with an infinity (``math.inf``,
    ``np.inf``, ``inf``, ``float("inf")`` or an overflowing literal)."""
    tree = ast.parse(source)
    helper = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "_noise_scale":
            helper |= {id(inner) for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if id(node) in helper:
            continue
        if isinstance(node, ast.Call) and name_of(node.func) in ("isinf", "isfinite"):
            if any(name_of(arg) == "epsilon" for arg in node.args):
                found.append(f"{name_of(node.func)} (line {node.lineno})")
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(name_of(o) == "epsilon" for o in operands) and any(map(is_infinity, operands)):
                found.append(f"compare (line {node.lineno})")
    return found


def name_of(node: ast.expr) -> str | None:
    """The name a Name or an Attribute ends in (``cfg.epsilon`` gives
    ``epsilon``), else None."""
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def is_infinity(node: ast.expr) -> bool:
    if name_of(node) == "inf":
        return True
    if isinstance(node, ast.Call) and name_of(node.func) == "float" and node.args:
        return str(literal(node.args[0])).strip().lower().lstrip("+") in ("inf", "infinity")
    return literal(node) == float("inf")


def test_epsilon_infinity_finder_sees_every_spelling():
    source = (
        "import math\nimport numpy as np\n"
        "def _noise_scale(cfg):\n    return math.isinf(cfg.epsilon)\n"
        "a = math.isinf(cfg.epsilon)\n"
        "b = np.isfinite(epsilon)\n"
        "c = cfg.epsilon == math.inf\n"
        "d = np.inf > epsilon\n"
        "e = epsilon != float('inf')\n"
        "f = 1e999 <= cfg.epsilon\n"
        "g = math.isfinite(2.0 / epsilon) or epsilon > 0 or x == math.inf or {'epsilon': math.inf}\n"
    )
    found = epsilon_infinity_tests(source)
    assert found == ["isinf (line 5)", "isfinite (line 6)"] + [f"compare (line {n})" for n in (7, 8, 9, 10)]


def test_only_the_noise_scale_tests_epsilon_against_infinity():
    # model._noise_scale holds the release rules every fitter shares, the
    # epsilon = inf case first among them
    found = {path.stem: epsilon_infinity_tests(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_upper_layers_import_only_public_names():
    # probes, benchmark plumbing and the CLI stay on the API the fitters
    # export, so they cannot drift from it
    found = {path.stem: private_imports(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {"verification", "bench", "cli"} <= set(found)
    assert {name: found[name] for name in ("verification", "bench", "cli") if found[name]} == {}


def private_definitions(source: str) -> list[str]:
    """Underscore-prefixed names the module binds at its top level, in order:
    functions, classes and assigned constants, also inside a top-level
    ``if``, ``try`` or ``with``; dunders such as ``__all__`` are not private."""
    found, pending = [], list(ast.parse(source).body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
        else:
            # an if, try, except or with: the statements inside are top-level too
            pending[:0] = [c for c in ast.iter_child_nodes(node) if isinstance(c, (ast.stmt, ast.excepthandler))]
            continue
        dunders = [name for name in names if name.startswith("__") and name.endswith("__")]
        found += [name for name in names if name.startswith("_") and name not in dunders]
    return found


def read_names(source: str) -> set[str]:
    """Names the module reads: loaded names, names it imports and attribute
    names it reads (``model._TOL`` gives ``_TOL``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found.update(alias.name.split(".")[-1] for alias in node.names)
    return found


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level names of ``sources`` (module name to source)
    that no module among them reads, as ``module.name``."""
    read = set().union(*map(read_names, sources.values()))
    return [
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_definitions(source)
        if name not in read
    ]


def test_private_name_finder_sees_every_spelling():
    sources = {
        "a": (
            "import numpy as np\n"
            "__all__ = ['f']\n"
            "_LOADED = 1\n"
            "_IMPORTED: int = 2\n"
            "_ATTR = _UNREAD = 3\n"
            "if np:\n    def _in_if():\n        pass\n"
            "try:\n    class _InTry:\n        pass\n"
            "except ImportError:\n    _in_handler = None\n"
            "def _stored():\n    _local = 4\n"
            "def f():\n    return _LOADED\n"
        ),
        "b": "from .a import _IMPORTED\nimport a\n_stored = a._ATTR\n",
    }
    assert private_definitions(sources["a"]) == [
        "_LOADED", "_IMPORTED", "_ATTR", "_UNREAD", "_in_if", "_InTry", "_in_handler", "_stored"
    ]
    unread = ["a._UNREAD", "a._in_if", "a._InTry", "a._in_handler", "a._stored", "b._stored"]
    assert unread_private_names(sources) == unread


def test_every_private_module_name_is_read():
    # a private helper or constant that no module reads is dead code, and
    # the tests' uses of it do not count
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sum(len(private_definitions(source)) for source in sources.values()) > 60
    assert unread_private_names(sources) == []


# numpy's functions that read or write array files
NUMPY_FILE_IO = {"load", "loadtxt", "genfromtxt", "fromfile", "save", "savez", "savetxt"}


def numpy_file_calls(source: str) -> list[str]:
    """Calls the module makes to numpy's file readers and writers, as
    ``name (line n)``: ``np.load(...)``, ``numpy.load(...)``, or a name
    imported from numpy (``from numpy import load as ld``, then ``ld(...)``)."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "numpy"
        for alias in node.names
        if alias.name in NUMPY_FILE_IO
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in ("np", "numpy") and func.attr in NUMPY_FILE_IO:
                found.append(f"{func.attr} (line {node.lineno})")
        elif isinstance(func, ast.Name) and func.id in imported:
            found.append(f"{imported[func.id]} (line {node.lineno})")
    return found


def test_numpy_file_call_finder_sees_every_spelling():
    source = (
        "import numpy\nimport numpy as np\nfrom numpy import load as ld, zeros\n"
        "a = np.loadtxt(path)\n"
        "b = numpy.save(fh, a)\n"
        "c = ld(fh, allow_pickle=False)\n"
        "d = np.fromfile(fh) + zeros(3) + np.asarray(a) + fh.load()\n"
    )
    found = ["loadtxt (line 4)", "save (line 5)", "load (line 6)", "fromfile (line 7)"]
    assert numpy_file_calls(source) == found


def hashlib_imports(source: str) -> list[str]:
    """The module's imports of hashlib, as ``hashlib (line n)``: ``import
    hashlib``, ``import hashlib as h`` or ``from hashlib import sha256``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found += [f"hashlib (line {node.lineno})" for name in names if name.split(".")[0] == "hashlib"]
    return found


def test_hashlib_import_finder_sees_every_spelling():
    source = (
        "import os, hashlib\n"
        "import hashlib as h\n"
        "from hashlib import sha256\n"
        "from .hashlib import x\n"
        "import hashlibx\n"
    )
    assert hashlib_imports(source) == ["hashlib (line 1)", "hashlib (line 2)", "hashlib (line 3)"]


def test_only_datagen_reads_and_writes_data_files():
    # datagen owns the data-file format, the CSV and its binary twin alike,
    # and is the one module that hashes a data file: once, as its bytes pass
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    found = {name: numpy_file_calls(source) + hashlib_imports(source) for name, source in sources.items()}
    assert numpy_file_calls(sources["datagen"]) and hashlib_imports(sources["datagen"])
    assert {name: calls for name, calls in found.items() if calls and name != "datagen"} == {}


# attributes that reach a numpy bit generator, on whatever object they are read
RNG_ATTRIBUTES = {"bit_generator", "random_raw"}


def numpy_rng_uses(source: str) -> list[str]:
    """The module's uses of numpy's random machinery, as ``name (line n)``:
    ``random`` read from a name bound to numpy (``np.random``,
    ``numpy.random``, ``import numpy as xp`` then ``xp.random``), an import
    of ``numpy.random`` or of a name from it, and a read of a
    ``bit_generator`` or ``random_raw`` attribute, also by ``getattr``."""
    tree = ast.parse(source)
    numpy_names = {"np", "numpy"} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in RNG_ATTRIBUTES:
                found.append((node.lineno, node.attr))
            elif node.attr == "random" and isinstance(node.value, ast.Name) and node.value.id in numpy_names:
                found.append((node.lineno, "numpy.random"))
        elif isinstance(node, ast.Call) and name_of(node.func) == "getattr" and len(node.args) > 1:
            if literal(node.args[1]) in RNG_ATTRIBUTES:
                found.append((node.lineno, literal(node.args[1])))
        elif isinstance(node, ast.Import):
            if any(alias.name.startswith("numpy.random") for alias in node.names):
                found.append((node.lineno, "numpy.random"))
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module, names = node.module or "", [alias.name for alias in node.names]
            if module.startswith("numpy.random") or (module == "numpy" and "random" in names):
                found.append((node.lineno, "numpy.random"))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_numpy_rng_finder_sees_every_spelling():
    source = (
        "import numpy as np\nimport numpy as xp\n"
        "a = np.random.default_rng(0)\n"
        "b = xp.random.PCG64(1)\n"
        "import numpy.random\n"
        "from numpy import random as r, zeros\n"
        "from numpy.random import Generator\n"
        "c = gen.bit_generator.state\n"
        "d = bg.random_raw(5)\n"
        "e = getattr(gen, 'bit_generator')\n"
        "f = gen.random(3) + random.random() + np.zeros(2) + getattr(gen, 'state') + obj.np.random\n"
        "from .random import x\n"
    )
    found = [f"numpy.random (line {n})" for n in (3, 4, 5, 6, 7)]
    found += ["bit_generator (line 8)", "random_raw (line 9)", "bit_generator (line 10)"]
    assert numpy_rng_uses(source) == found


def test_only_sampling_touches_numpy_rng():
    # every draw goes through RngStream, so a fixed (seed, stream) replays
    # and the stream tests in test_sampling.py cover every sampler
    found = {path.stem: numpy_rng_uses(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert found["sampling"]
    assert {name: uses for name, uses in found.items() if uses and name != "sampling"} == {}


# numpy names newer than the floor in pyproject.toml (numpy 1.24): the array
# API spellings of numpy 2.0 and the vector products of numpy 2.2
NEWER_NUMPY = {"matvec", "vecmat", "vecdot", "matrix_transpose", "permute_dims", "concat", "unstack"}


def newer_numpy_names(source: str) -> list[str]:
    """The module's uses of :data:`NEWER_NUMPY`, as ``name (line n)``: read
    from a name bound to numpy or to a numpy submodule (``np.concat``,
    ``numpy.linalg.vecdot``, ``import numpy as xp`` then ``xp.matvec``), by
    ``getattr`` on one, or imported from numpy or a numpy submodule."""
    tree = ast.parse(source)
    numpy_names = {"np", "numpy"} | {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] == "numpy"
    }

    def on_numpy(node: ast.expr) -> bool:
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in numpy_names

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in NEWER_NUMPY and on_numpy(node.value):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and name_of(node.func) == "getattr" and len(node.args) > 1:
            if literal(node.args[1]) in NEWER_NUMPY and on_numpy(node.args[0]):
                found.append((node.lineno, literal(node.args[1])))
        elif isinstance(node, ast.ImportFrom) and not node.level and (node.module or "").split(".")[0] == "numpy":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name in NEWER_NUMPY]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_newer_numpy_finder_sees_every_spelling():
    source = (
        "import numpy as np\nimport numpy as xp\nimport numpy.linalg as la\n"
        "a = np.matvec(A, x)\n"
        "b = xp.concat([a, a])\n"
        "c = np.linalg.vecdot(a, a) + la.matrix_transpose(A)\n"
        "from numpy import unstack as u, zeros\n"
        "from numpy.linalg import vecdot\n"
        "f = getattr(np, 'permute_dims')\n"
        "g = np.concatenate([a]) + obj.concat(a) + np.vecmat + getattr(obj, 'vecmat') + np.matmul(A, x)\n"
        "from .numpy import concat\n"
    )
    found = ["matvec (line 4)", "concat (line 5)", "matrix_transpose (line 6)", "vecdot (line 6)"]
    found += ["unstack (line 7)", "vecdot (line 8)", "permute_dims (line 9)", "vecmat (line 10)"]
    assert newer_numpy_names(source) == found


def test_package_uses_no_numpy_newer_than_its_floor():
    # np.matvec would give the stacked products their bits only from numpy
    # 2.2 on; matmul with a trailing unit axis gives them at the floor
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert '"numpy>=1.24"' in pyproject, "NEWER_NUMPY lists the names newer than numpy 1.24"
    found = {path.stem: newer_numpy_names(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert {name: uses for name, uses in found.items() if uses} == {}


def fresh_interpreter_prints(probe: str) -> str:
    """What ``probe`` prints in a new interpreter that imports dpmedreg from
    this source tree."""
    src = str(Path(dpmedreg.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {probe}"],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def test_cli_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize costs a quarter second to import; only the LP oracle
    # needs it, and it imports it when called
    probe = "import sys, dpmedreg.cli; print('scipy.optimize' in sys.modules)"
    assert fresh_interpreter_prints(probe) == "False"


def test_cli_import_leaves_scipy_linalg_unloaded():
    # scipy.linalg costs about a fifth of a second and ~18 MiB to import;
    # model loads only the LAPACK extension its Cholesky solve calls
    probe = "import sys, dpmedreg.cli; print('scipy.linalg' in sys.modules)"
    assert fresh_interpreter_prints(probe) == "False"


@pytest.mark.parametrize("first", ["dpmedreg.model", "scipy.linalg.lapack"])
def test_cholesky_routines_are_scipys_in_either_import_order(first):
    # the same function objects, whichever of the two loads the extension
    second = "scipy.linalg.lapack" if first == "dpmedreg.model" else "dpmedreg.model"
    probe = (
        f"import {first}, {second}; from dpmedreg import model; from scipy.linalg import lapack; "
        "print(model.dpotrf is lapack.dpotrf, model.dpotrs is lapack.dpotrs)"
    )
    assert fresh_interpreter_prints(probe) == "True True"


def test_missing_lapack_extension_is_an_import_error_naming_it(tmp_path):
    # a scipy without its compiled linalg extension shadows the installed one
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("", encoding="utf-8")
    probe = (
        f"sys.path.insert(0, {str(tmp_path)!r})\n"
        "try:\n    import dpmedreg\nexcept ImportError as error:\n    print(error)"
    )
    missing = tmp_path / "scipy" / "linalg" / f"_flapack{EXTENSION_SUFFIXES[0]}"
    assert fresh_interpreter_prints(probe) == f"scipy's LAPACK extension {missing} is missing"
