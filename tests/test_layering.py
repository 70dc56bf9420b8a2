"""The package's internal imports are layered: no cycle, no module reads
another's underscore names, and the table layer (errors, records, primes,
coeffs, bundled) loads without the geometry stack."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "satotate"

TABLE_LAYER = ("errors", "records", "primes", "coeffs", "bundled")
GEOMETRY = ("bipoly", "chebyshev", "measures", "region", "counting", "symmetry", "charts")


def _internal_imports():
    """{module: {(imported package module, lineno, at module level)}} for
    every module of the package, imports inside functions included."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        top = {id(node) for node in tree.body}
        edges = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "satotate":
                rest = node.module.split(".")[1:]
                names = rest[:1] or [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [a.name.split(".")[1] for a in node.names if a.name.startswith("satotate.")]
            else:
                continue
            edges |= {(name, node.lineno, id(node) in top) for name in names if name in modules}
        graph[path.stem] = edges
    return graph


def _foreign_private_reads():
    """Every read, in a module of the package, of another package module's
    underscore name: an attribute of a module it imports (``measures._x``)
    or a name it imports from one (``from .measures import _x``).  Dunder
    names are not private."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound, reads = {}, []  # local name -> package module; (line, module, name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = "satotate" + (f".{node.module}" if node.module else "") if node.level else node.module
                if source == "satotate":
                    bound.update((alias.asname or alias.name, alias.name) for alias in node.names)
                elif source.startswith("satotate."):
                    reads += [(node.lineno, source.split(".")[1], alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                bound.update(
                    (alias.asname, alias.name.split(".")[1])
                    for alias in node.names
                    if alias.asname and alias.name.startswith("satotate.")
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                reads.append((node.lineno, bound[node.value.id], node.attr))
        found += [
            f"{path.name}:{line} reads {module}.{name}"
            for line, module, name in sorted(reads)
            if module != path.stem and name.startswith("_") and not name.endswith("__")
        ]
    return found


def test_no_module_reads_another_modules_private_name():
    assert not _foreign_private_reads()


def _reach(graph, start):
    seen, stack = set(), [start]
    while stack:
        for name, _, _ in graph.get(stack.pop(), ()):
            if name not in seen:
                seen.add(name)
                stack.append(name)
    return seen


def test_the_scan_sees_the_imports():
    graph = _internal_imports()
    assert {name for name, _, _ in graph["coeffs"]} == {"errors", "primes", "records"}
    assert {"bipoly", "measures", "region", "primes"} <= {n for n, _, _ in graph["counting"]}


def test_internal_imports_form_no_cycle():
    graph = _internal_imports()
    cyclic = sorted(module for module in graph if module in _reach(graph, module))
    assert not cyclic, f"modules on an import cycle: {cyclic}"


def test_every_internal_import_is_at_module_level():
    inner = sorted(
        f"{module}.py:{line} imports {name}"
        for module, edges in _internal_imports().items()
        for name, line, at_top in edges
        if not at_top
    )
    assert not inner, inner


def test_the_table_layer_imports_no_geometry():
    graph = _internal_imports()
    for module in TABLE_LAYER:
        assert not _reach(graph, module) & set(GEOMETRY), module


def _loaded_after(run_python, statement, roots=("satotate",)):
    """The modules under ``roots`` in sys.modules after a fresh interpreter
    runs ``statement``."""
    script = f"import sys\n{statement}\nprint(' '.join(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))"
    proc = run_python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_the_package_root_loads_no_submodule(run_python):
    assert _loaded_after(run_python, "import satotate") == {"satotate"}


def test_coefficient_tables_load_only_the_table_layer(run_python):
    loaded = _loaded_after(run_python, "import satotate.coeffs, satotate.bundled")
    assert loaded == {"satotate"} | {f"satotate.{module}" for module in TABLE_LAYER}


def test_the_cli_loads_no_remote_client(run_python):
    # json and urllib.error serve downloads alone, like urllib.request; the
    # records are plain classes, so no dataclasses code runs at start-up
    loaded = _loaded_after(run_python, "import satotate.cli", roots=("json", "urllib", "dataclasses"))
    assert not loaded & {"json", "urllib.error", "urllib.request", "dataclasses"}, sorted(loaded)
