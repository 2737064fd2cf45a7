"""Every name an etncs module exports or defines at module level, and every
public method of its classes, is used by the package, its scripts or
perfbench; a name only tests call is dead surface."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "etncs"

# ROADMAP item 1 wires these
ALLOWLIST = {"verify_lti_indices", "default_frequency_grid", "sector_certificate",
             "FIRSTORDER_LEAD_SS"}
# the acceptance criteria select a side's attempts and commits with these
METHOD_ALLOWLIST = {"TraceLog.events_on", "TraceLog.commits_on"}


def _exports(tree: ast.Module) -> list:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [elt.value for elt in node.value.elts]
    return []


def _methods(tree: ast.Module) -> list:
    """``Class.method`` of each public method of each public class."""
    return [f"{node.name}.{item.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("_")]


def _definitions(tree: ast.Module) -> list:
    """Each public module-level function and class."""
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _scan():
    """The parsed modules of the package, its scripts and perfbench, and
    every name they load, bare or as an attribute."""
    trees = {path: ast.parse(path.read_text(), str(path))
             for folder in (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
             for path in sorted(folder.rglob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return trees, loaded


def test_every_exported_name_is_loaded():
    trees, loaded = _scan()
    exported = {name: path.name for path, tree in trees.items()
                if path.parent == PACKAGE for name in _exports(tree)}
    unused = {name: module for name, module in exported.items()
              if name not in loaded and name not in ALLOWLIST}
    assert unused == {}
    assert ALLOWLIST <= exported.keys()
    methods = {name: path.name for path, tree in trees.items()
               if path.parent == PACKAGE for name in _methods(tree)}
    unused = {name: module for name, module in methods.items()
              if name.split(".")[1] not in loaded and name not in METHOD_ALLOWLIST}
    assert unused == {}
    assert METHOD_ALLOWLIST <= methods.keys()


def test_every_public_definition_is_loaded():
    """A public function or class that only tests call is dead surface
    even when ``__all__`` leaves it out."""
    trees, loaded = _scan()
    defined = {name: path.name for path, tree in trees.items()
               if path.parent == PACKAGE for name in _definitions(tree)}
    unused = {name: module for name, module in defined.items()
              if name not in loaded and name not in ALLOWLIST}
    assert unused == {}
