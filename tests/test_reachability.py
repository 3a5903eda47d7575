"""Every module under ``src/repro`` is reachable from an entry point.

The walk follows absolute ``import`` / ``from`` statements (module level
and inside functions alike; the package uses no relative imports) with
:mod:`ast`, starting at ``repro.cli`` and ``repro/__init__.py``.  A module
no entry point imports is code only its tests run; it either gets
registered (a spec builder, a CLI subcommand) or leaves ``src/``.

A package ``__init__`` importing its own submodules does not reach them:
``from repro.pkg import Name`` reaches only the submodule the ``__init__``
re-exports ``Name`` from, so a module that only a re-export list names
counts as unreached.

Module-private names stay private: no module imports an ``_name`` from
another ``repro`` module, so the module defining a rule owns it.

The import graph is acyclic at module level, so no import needs to hide
inside a function (only ``cli.py`` defers imports, to start fast) and every
module imports on its own in a fresh interpreter.

There is one round loop: inside ``src/`` only ``Simulator.run`` names
``run_round``, so resume, checkpointing and every experiment advance
rounds the same way.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
ROOTS = ("cli", "")
#: Relative dotted names of the packages (directories with an ``__init__``).
PACKAGES = frozenset(
    ".".join(path.parent.relative_to(PACKAGE_ROOT).parts)
    for path in PACKAGE_ROOT.rglob("__init__.py")
)

#: Modules still waiting on ROADMAP.md's open item "Extensions go through
#: the runtime, or leave `src/`": each is to be registered as a spec or
#: deleted, and then removed from this list.
UNREACHED_ALLOWLIST = frozenset(
    {
        "security",
        "security.eclipse",
        "security.freeride",
        "analysis.incremental",
        "theory",
        "theory.geometric_graph",
        "theory.random_graph",
        "theory.stretch",
    }
)


def _module_files() -> dict[str, Path]:
    """``{relative dotted name: path}``; packages map to their ``__init__``."""
    modules = {}
    for path in PACKAGE_ROOT.rglob("*.py"):
        parts = path.relative_to(PACKAGE_ROOT).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _tree(name: str, modules: dict[str, Path]) -> ast.Module:
    return ast.parse(modules[name].read_text(encoding="utf-8"))


def _relative(target: str) -> str | None:
    """``repro.a.b`` -> ``a.b`` (``repro`` -> ``""``); ``None`` outside repro."""
    if target == "repro":
        return ""
    if target.startswith("repro."):
        return target[len("repro.") :]
    return None


def _modules_run_by(target: str, modules: dict[str, Path]) -> set[str]:
    """The ``repro`` modules importing ``target`` runs.

    Importing ``a.b.c`` runs ``a`` and ``a.b`` as well.
    """
    relative = _relative(target)
    if relative is None:
        return set()
    parts = relative.split(".") if relative else []
    prefixes = (".".join(parts[:end]) for end in range(len(parts) + 1))
    return {prefix for prefix in prefixes if prefix in modules}


def _reexport_source(
    package: str, name: str, modules: dict[str, Path]
) -> str | None:
    """The submodule whose ``name`` the ``package`` ``__init__`` re-exports."""
    for node in ast.walk(_tree(package, modules)):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if any((alias.asname or alias.name) == name for alias in node.names):
            source = _relative(node.module)
            if source not in modules or not source.startswith(f"{package}."):
                continue
            if source in PACKAGES:
                return _reexport_source(source, name, modules) or source
            return source
    return None


def _imported(name: str, modules: dict[str, Path]) -> set[str]:
    """Relative dotted names of the ``repro`` modules ``name`` imports."""
    targets: set[str] = set()
    for node in ast.walk(_tree(name, modules)):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets.add(node.module)
            package = _relative(node.module)
            for alias in node.names:
                # ``from package import module`` reaches the submodule too,
                # and ``from package import Name`` the submodule the
                # package's ``__init__`` re-exports ``Name`` from.
                targets.add(f"{node.module}.{alias.name}")
                if package in PACKAGES:
                    source = _reexport_source(package, alias.name, modules)
                    if source is not None:
                        targets.add(f"repro.{source}")
    reached = set().union(*(_modules_run_by(target, modules) for target in targets))
    if name in PACKAGES and name not in ROOTS:
        # An ``__init__`` importing its own submodules reaches none of them.
        reached = {
            module for module in reached if not module.startswith(f"{name}.")
        }
    return reached


def _reachable(modules: dict[str, Path]) -> set[str]:
    seen: set[str] = set()
    stack = list(ROOTS)
    while stack:
        name = stack.pop()
        if name in seen:
            continue
        seen.add(name)
        stack.extend(_imported(name, modules) - seen)
    return seen


def test_every_module_is_reached_or_allowlisted():
    modules = _module_files()
    unreached = set(modules) - _reachable(modules)
    assert sorted(unreached - UNREACHED_ALLOWLIST) == []


def test_allowlist_is_not_stale():
    modules = _module_files()
    reached_or_gone = (UNREACHED_ALLOWLIST & _reachable(modules)) | (
        UNREACHED_ALLOWLIST - set(modules)
    )
    assert sorted(reached_or_gone) == []


def test_no_module_imports_another_modules_private_names():
    modules = _module_files()
    offenders = []
    for name in sorted(modules):
        for node in ast.walk(_tree(name, modules)):
            if not isinstance(node, ast.ImportFrom) or node.module is None:
                continue
            if _relative(node.module) is None:
                continue
            offenders.extend(
                f"{name}: from {node.module} import {alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            )
    assert offenders == []


def _is_type_checking(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _module_level_imports(body: list[ast.stmt]):
    """Import statements run when the module loads.

    Function and class bodies and ``if TYPE_CHECKING:`` blocks are skipped.
    """
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, ast.If) and _is_type_checking(node):
            yield from _module_level_imports(node.orelse)
        else:
            for field in ("body", "orelse", "handlers", "finalbody"):
                yield from _module_level_imports(getattr(node, field, []))


def _module_level_edges(name: str, modules: dict[str, Path]) -> set[str]:
    """Modules that loading ``name`` runs, minus ``name``'s own ancestors.

    ``from a.b import c`` runs ``a.b.c`` too when it is a module.
    """
    targets: set[str] = set()
    for node in _module_level_imports(_tree(name, modules).body):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif node.module:
            targets.add(node.module)
            targets.update(f"{node.module}.{alias.name}" for alias in node.names)
    edges = set().union(*(_modules_run_by(target, modules) for target in targets))
    return edges - _modules_run_by(f"repro.{name}" if name else "repro", modules)


def _cyclic_core(graph: dict[str, set[str]]) -> list[str]:
    """Modules on an import cycle (or on a path between two cycles)."""
    remaining = {name: set(edges) for name, edges in graph.items()}
    while True:
        imported = set().union(*remaining.values())
        keep = {
            name
            for name, edges in remaining.items()
            if name in imported and edges & remaining.keys()
        }
        if keep == remaining.keys():
            return sorted(keep)
        remaining = {name: remaining[name] & keep for name in keep}


def test_module_level_import_graph_is_acyclic():
    modules = _module_files()
    graph = {name: _module_level_edges(name, modules) for name in modules}
    assert _cyclic_core(graph) == []


def test_no_function_level_imports_outside_cli():
    modules = _module_files()
    offenders = []
    for name in sorted(set(modules) - {"cli"}):
        for scope in ast.walk(_tree(name, modules)):
            if not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            for node in ast.walk(scope):
                if isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    targets = [node.module or ""]
                else:
                    continue
                offenders.extend(
                    f"{name}:{node.lineno}: {target}"
                    for target in targets
                    if _relative(target) is not None
                )
    assert sorted(set(offenders)) == []


_IMPORT_EACH_FIRST = """
import importlib
import sys

for name in sys.argv[1:]:
    for key in [key for key in sys.modules if key.split(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except Exception as error:
        print(f"{name}: {type(error).__name__}: {error}")
"""


def test_every_module_imports_first_in_a_fresh_interpreter():
    names = sorted(
        f"repro.{name}" if name else "repro" for name in _module_files()
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT.parent), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_EACH_FIRST, *names],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == []


def _scoped_nodes(tree: ast.Module):
    """``(enclosing def/class names, node)`` for every node of ``tree``."""
    stack = [((), tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                inner = (*scope, child.name)
            else:
                inner = scope
            yield inner, child
            stack.append((inner, child))


def test_only_simulator_run_calls_run_round():
    """One round loop: every caller runs rounds through ``Simulator.run``."""
    modules = _module_files()
    users = sorted(
        f"{name}:{'.'.join(scope)}"
        for name in modules
        for scope, node in _scoped_nodes(_tree(name, modules))
        if isinstance(node, ast.Attribute) and node.attr == "run_round"
    )
    assert users == ["core.simulator:Simulator.run"]
