"""The package runs on numpy and the standard library alone, behind a pinned public surface."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "nltimebin"}


def _imported_modules(path: Path):
    # Every import statement, deferred ones inside functions included.
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted((ROOT / "src" / "nltimebin").glob("*.py"))
    assert sources
    foreign = [(path.name, module) for path in sources for module in _imported_modules(path)
               if module.split(".")[0] not in ALLOWED]
    assert foreign == []


def test_numpy_is_the_only_declared_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9._-]+", spec).group() for spec in project["dependencies"]]
    assert names == ["numpy"]


# Module-level functions and classes (exceptions included) without a
# leading underscore, per module in definition order.  A name added or
# removed must show up here.
PUBLIC_NAMES = {
    "circuit": [
        "model_triple", "NormalizationError", "normalize_counts", "peak_cell_probabilities",
        "sample_statistics",
    ],
    "cli": [
        "FlagError", "parse_count", "cmd_jti", "cmd_fringe", "cmd_characterize", "cmd_fit",
        "cmd_water", "build_parser", "main",
    ],
    "fit": ["FitResult", "QDCharacterization", "rt_spectrum", "fit_fringe", "fit_nl"],
    "scatter": [
        "PulseSpec", "QuadratureError", "faddeeva", "NonlinearParams", "nonlinear_params",
        "jti", "circuit_jti", "factorization_residual",
    ],
    "vibsim": ["MoleculeSpec", "water_spec", "trace"],
}


def test_public_names_are_pinned():
    found = {}
    for path in sorted((ROOT / "src" / "nltimebin").glob("*.py")):
        body = ast.parse(path.read_text(), filename=str(path)).body
        names = [node.name for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")]
        if names:
            found[path.stem] = names
    assert found == PUBLIC_NAMES
