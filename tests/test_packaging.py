"""The package declares every third-party module it imports."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared_requirements():
    """Distribution names in pyproject.toml's ``dependencies`` and extras,
    read as text (Python 3.10 has no tomllib)."""
    names, table, in_list = set(), None, False
    for raw in (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            table = line
            continue
        key, eq, value = line.partition("=")
        if eq and value.strip().startswith("["):  # a list opens
            in_list = table == "[project.optional-dependencies]" or (
                table == "[project]" and key.strip() == "dependencies"
            )
        if in_list:
            for requirement in re.findall(r'"([^"]+)"', line):
                names.add(re.match(r"[A-Za-z0-9_.-]+", requirement).group().lower())
            in_list = not line.endswith("]")
    return names


def _imported_modules():
    """Top-level names of every absolute import in src/satotate, those inside
    functions included."""
    for path in sorted((ROOT / "src" / "satotate").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from ((path.name, alias.name.split(".")[0]) for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module.split(".")[0]


def test_declared_requirements_are_read():
    assert {"numpy", "sympy", "mpmath", "matplotlib", "pytest"} <= _declared_requirements()


def test_every_third_party_import_is_declared():
    # each module the package imports is published under its own name
    declared = _declared_requirements()
    missing = {
        (name, module)
        for name, module in _imported_modules()
        if module not in sys.stdlib_module_names and module != "satotate" and module.lower() not in declared
    }
    assert not missing, f"imported but not declared in pyproject.toml: {sorted(missing)}"
