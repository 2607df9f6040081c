"""Every name a library module imports is used in it (pyflakes' unused-import
rule, with ``ast`` alone). ``__init__.py`` is exempt: it imports to re-export."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "siftmasks"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no ``ast.Name`` in the module reads.

    Annotations are parsed like any expression, so a name used only in one
    counts as used; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf8")) == []


def test_unused_import_check_flags_and_passes():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, Iterable as It\n"
        "def f(x: Any) -> np.ndarray:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["line 4: It"]


ROOT = SRC.parent.parent
# where a library name may be used: the library itself, the scripts and the
# benchmark (whose tracer names layer functions as strings)
CALLERS = (SRC, ROOT / "scripts", ROOT / "perfbench")


def _is_click_command(node: ast.AST) -> bool:
    """``@<group>.command(...)`` or ``@click.group()``: the CLI calls it by name."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name read, attribute read and identifier-valued
    string literal in a module."""
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            refs.append((node.attr, node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                refs.append((node.value, node.lineno))
    return refs


def _definitions(tree: ast.Module):
    """(name, qualified name, node) of each top-level function and class but
    click commands, and of each method, property and annotated field of a
    top-level class but dunder methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _is_click_command(node):
            yield node.name, node.name, node
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                name = member.target.id
            elif isinstance(member, ast.FunctionDef) and not (
                member.name.startswith("__") and member.name.endswith("__")
            ):
                name = member.name
            else:
                continue
            yield name, f"{node.name}.{name}", member


def dead_names(modules: dict[Path, str], callers: dict[Path, str]) -> list[str]:
    """Definitions of ``modules`` (``_definitions``) that no file in
    ``callers`` names outside the definition itself."""
    refs = {path: _references(ast.parse(src)) for path, src in callers.items()}
    dead = []
    for path, source in sorted(modules.items()):
        for name, qualified, node in _definitions(ast.parse(source)):
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            used = any(
                found == name and not (p == path and first <= line <= node.end_lineno)
                for p, names in refs.items()
                for found, line in names
            )
            if not used:
                dead.append(f"{path.stem}.{qualified}")
    return dead


def test_every_library_name_is_used_outside_tests():
    callers = {
        p: p.read_text(encoding="utf8")
        for root in CALLERS
        for p in sorted(root.rglob("*.py"))
        if p != SRC / "__init__.py"
    }
    modules = {p: s for p, s in callers.items() if p.parent == SRC}
    assert dead_names(modules, callers) == []


def test_dead_name_check_flags_and_passes():
    lib = Path("lib.py")
    source = (
        "import click\n"
        "@click.group()\n"
        "def cli():\n"
        "    pass\n"
        "@cli.command('run')\n"
        "def cmd_run():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return helper\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "class Named:\n"
        "    size: int\n"
        "    spare: int\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "    def grow(self):\n"
        "        return self.grow\n"
        "    @property\n"
        "    def total(self):\n"
        "        return self.size\n"
    )
    tracer = "TABLE = ('lib', 'Named')\nNamed().total\n"
    assert dead_names({lib: source}, {lib: source, Path("t.py"): tracer}) == [
        "lib.recursive", "lib.Named.spare", "lib.Named.grow"
    ]
