"""Every name an etncs module exports or defines at module level, and every
public method of its classes, is used by the package, its scripts or
perfbench; a name only tests call is dead surface."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "etncs"

# ROADMAP item 1 wires these
ALLOWLIST = {"verify_lti_indices", "default_frequency_grid", "sector_certificate"}
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


# (function, parameter) defaults that no call sets: ROADMAP item 1 wires
# the frequency grid and item 13 the LTI storage; build_model passes the
# models' indices through **kwargs of a table lookup, not by name
DEFAULT_ALLOWLIST = {("default_frequency_grid", "lo"), ("default_frequency_grid", "hi"),
                     ("default_frequency_grid", "n"), ("lti_siso", "storage_p"),
                     ("cubic_nl2", "nu"), ("cubic_nl2", "rho"),
                     ("firstorder_lead", "nu"), ("firstorder_lead", "rho")}


def _defaults(tree: ast.Module):
    """(callee name, parameter, position or None) of each parameter with a
    default, of every function and method; a method's position counts
    from after ``self``, and ``__init__`` is called by its class's name."""
    owners = {id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
              for item in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args, owner = node.args, owners.get(id(node))
        positional = args.posonlyargs + args.args
        if owner and not any(getattr(d, "id", None) == "staticmethod"
                             for d in node.decorator_list):
            positional = positional[1:]
        name = owner if node.name == "__init__" else node.name
        first = len(positional) - len(args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield name, arg.arg, i
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


def _passes(call: ast.Call, param: str, index) -> bool:
    """Whether the call sets the parameter: by keyword, through ``**``, by
    position, or through a ``*`` at or before its position."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index or any(
        isinstance(a, ast.Starred) for a in call.args[:index + 1]))


def test_every_default_is_set_by_some_call():
    """A parameter with a default that no call in the package, its scripts
    or perfbench passes is an option nothing sets."""
    trees, _ = _scan()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    unset = {(name, param) for path, tree in trees.items() if path.parent == PACKAGE
             for name, param, index in _defaults(tree)
             if not any(_passes(call, param, index) for call in calls.get(name, ()))}
    assert unset == DEFAULT_ALLOWLIST
