"""Every module under ``src/repro`` is reachable from an entry point.

The walk follows absolute ``import`` / ``from`` statements (module level
and inside functions alike; the package uses no relative imports) with
:mod:`ast`, starting at ``repro.cli`` and ``repro/__init__.py``.  A module
no entry point imports is code only its tests run; it either gets
registered (a spec builder, a CLI subcommand) or leaves ``src/``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
ROOTS = ("cli", "")

#: Modules still waiting on ROADMAP.md's open item "Extensions go through
#: the runtime, or leave `src/`": each is to be registered as a spec or
#: deleted, and then removed from this list.
UNREACHED_ALLOWLIST = frozenset(
    {
        "security",
        "security.eclipse",
        "security.freeride",
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


def _imported(name: str, modules: dict[str, Path]) -> set[str]:
    """Relative dotted names of the ``repro`` modules ``name`` imports."""
    tree = ast.parse(modules[name].read_text(encoding="utf-8"))
    targets: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            targets.add(node.module)
            # ``from package import module`` reaches the submodule too.
            targets.update(f"{node.module}.{alias.name}" for alias in node.names)
    reached = set()
    for target in targets:
        if target != "repro" and not target.startswith("repro."):
            continue
        parts = target.split(".")[1:]
        # Importing ``a.b.c`` runs ``a`` and ``a.b`` as well.
        for end in range(len(parts) + 1):
            candidate = ".".join(parts[:end])
            if candidate in modules:
                reached.add(candidate)
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
