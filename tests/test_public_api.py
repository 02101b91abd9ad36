"""The public surface of the package, and the part of it the benchmark uses.

The benchmark scripts under ``benchmark/`` import the package from source and
read names off it.  A name deleted here would fail every benchmark
repetition; these tests make it fail the test suite instead.  The scripts
are parsed, never imported or run.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import eh2marg

BENCHMARK_SCRIPTS = ("workloads.py", "run.py")
BENCHMARK_DIR = Path(__file__).resolve().parent.parent / "benchmark"


def _names_read_off_package(path: Path) -> set[str]:
    """Dotted names the script reads off ``eh2marg``, e.g. ``nominal_model``, ``cli.main``.

    Covers ``eh2marg.X`` and, for ``from eh2marg import X``, X itself and
    ``X.Y`` read off it.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {"eh2marg": ""}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "eh2marg":
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
    names = {name for name in aliases.values() if name}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            prefix = aliases.get(node.value.id)
            if prefix is not None and not node.attr.startswith("__"):
                names.add(f"{prefix}.{node.attr}" if prefix else node.attr)
    return names


def _resolve(dotted: str):
    head, *rest = dotted.split(".")
    try:
        obj = getattr(eh2marg, head)
    except AttributeError:  # a submodule, as in ``from eh2marg import cli``
        obj = importlib.import_module(f"eh2marg.{head}")
    for part in rest:
        obj = getattr(obj, part)
    return obj


def test_every_exported_name_resolves():
    missing = [name for name in eh2marg.__all__ if not hasattr(eh2marg, name)]
    assert not missing, f"__all__ lists names the package lacks: {missing}"


@pytest.mark.parametrize("script", BENCHMARK_SCRIPTS)
def test_benchmark_reads_only_existing_names(script):
    names = _names_read_off_package(BENCHMARK_DIR / script)
    assert names, f"no eh2marg names found in {script}"
    missing = []
    for name in sorted(names):
        try:
            _resolve(name)
        except (AttributeError, ImportError):
            missing.append(name)
    assert not missing, f"{script} reads names the package lacks: {missing}"


def test_benchmark_names_include_its_entry_points():
    names = set().union(
        *(_names_read_off_package(BENCHMARK_DIR / s) for s in BENCHMARK_SCRIPTS)
    )
    assert {"cli.main", "nominal_model", "synthesize_gain", "eh2_step", "ekf_step"} <= names


def test_nominal_model_accepts_noise_and_world():
    noise, world = eh2marg.NoiseParams(), eh2marg.WorldConstants()
    inspect.signature(eh2marg.nominal_model).bind(noise, world)
    model = eh2marg.nominal_model(noise, world)
    assert model.A.shape == (6, 6)


#: Exported for callers outside the program: the tests' Jacobian oracle,
#: and the package version.
_EXPORTED_FOR_CALLERS = {"finite_difference_jacobian", "__version__"}
SOURCE_DIR = Path(eh2marg.__file__).resolve().parent


def _references_outside_own_definition(path: Path) -> set[str]:
    """Names a module loads or reads as attributes, except inside the
    top-level definition of that same name (a function naming itself)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name != own:
                names.add(name)
    return names


def _module_exports(path: Path) -> list[str]:
    """The names a module lists in a literal ``__all__``, read without importing it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    return []


def test_every_export_is_used_by_the_program():
    # An export that only the tests call is a second code path to keep in
    # step with the one the filters and the benchmark run.  Every module's
    # __all__ counts, not only the package's.
    modules = sorted(SOURCE_DIR.glob("*.py"))
    files = [p for p in modules if p.name != "__init__.py"]
    files += sorted(BENCHMARK_DIR.glob("*.py"))
    used = set().union(*(_references_outside_own_definition(p) for p in files))
    unused = sorted(
        f"{path.stem}.{name}"
        for path in modules
        for name in set(_module_exports(path)) - used - _EXPORTED_FOR_CALLERS
    )
    assert not unused, f"exported, but nothing in src/ or benchmark/ uses: {unused}"


def _private_definitions(path: Path) -> set[str]:
    """The module-level functions, classes and constants of a module whose
    names start with one underscore."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            names.add(top.name)
        elif isinstance(top, ast.Assign):
            names.update(t.id for t in top.targets if isinstance(t, ast.Name))
        elif isinstance(top, ast.AnnAssign) and isinstance(top.target, ast.Name):
            names.add(top.target.id)
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_helper_is_used_by_the_program():
    # A private helper that only the tests call is dead code with a test.
    modules = sorted(SOURCE_DIR.glob("*.py"))
    used = set().union(*(_references_outside_own_definition(p) for p in modules))
    unused = sorted(
        f"{path.stem}.{name}" for path in modules for name in _private_definitions(path) - used
    )
    assert not unused, f"private, but nothing in src/ uses: {unused}"


def test_import_leaves_numpy_random_unloaded():
    # numpy.random pulls in secrets and hmac; only a caller that builds a
    # generator needs it.
    src = Path(eh2marg.__file__).resolve().parent.parent
    code = "import sys, eh2marg; print('numpy.random' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
