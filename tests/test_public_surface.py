"""Every public function, class and method of cipher_autopsy has a caller
in the package or the benchmark, and every defaulted parameter has one
outside the tests.

A public name that only tests load is a second copy of work the program
does elsewhere, or dead code; one that only a demo under scripts/ loads
belongs in that script, since the package holds what a command runs.  The
check reads the syntax tree of src/ and bench/ for names, and of scripts/
too for parameters.  Comments and docstrings do not count, so mentioning
a name in prose does not keep it alive.  A module-level function or class
counts as used only when it is loaded as a bare name, imported by name, or
read as an attribute of a package module name (`metrics.evaluate_pair`).
So `report.mse`, a read of the MetricsReport field, does not keep a
function `metrics.mse` alive, as it once did.  A method is matched by
name alone, since its receiver's type is not in the tree: any attribute
of the same name keeps it alive, and a common name such as `format` can
hide a dead method (`str.format` in cli.py once kept `KeyMask.format`
alive with only a test calling it).

A defaulted parameter that no call outside the tests binds is an option
only tests set.  Calls are matched to definitions by name in the same way,
and a call to a class binds that class's __init__.  A function that is
loaded as a value, not called on the spot (bench/workloads.py keeps the
image generators in a dict), may be called with any arguments, so all of
its parameters count as bound.

The mirror case is a default that every program call overrides: only
tests rely on it, so the value is a second copy of one the program keeps
elsewhere, such as an argparse default.  A function loaded as a value may
be called with no arguments, so it relies on every default.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The package's module names: a module-level definition is used through one of these.
MODULES = {path.stem for path in (ROOT / "src/cipher_autopsy").glob("*.py")}

def _sources(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    """(qualified name, name, whether it is a method) of every public definition."""
    for path, tree in _sources("src/cipher_autopsy"):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name, True


def _used_names():
    """The names a module-level definition can be used by, and the names a
    method can be used by (those plus every attribute read)."""
    module_level, attributes = set(), set()
    for _, tree in _sources("src", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                module_level.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if _name(node.value) in MODULES:
                    module_level.add(node.attr)
            elif isinstance(node, ast.alias):
                module_level.add(node.name.rsplit(".", 1)[-1])
    return module_level, module_level | attributes


def test_every_public_name_has_a_caller_outside_the_tests():
    module_level, any_name = _used_names()
    unused = [
        qualified
        for qualified, name, method in _public_definitions()
        if name not in (any_name if method else module_level)
    ]
    assert unused == []


def _defaulted_parameters():
    """(qualified name, called name, position, parameter) for every
    parameter with a default; position is None for a keyword-only one."""
    for path, tree in _sources("src/cipher_autopsy"):
        defs = [(node, node.name, None) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    called = cls.name if item.name == "__init__" else item.name
                    defs.append((item, called, cls.name))
        for fn, called, owner in defs:
            a = fn.args
            positional = a.posonlyargs + a.args
            skip = owner is not None and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
            )  # self or cls is bound by the receiver
            prefix = f"{path.stem}.{owner}.{fn.name}" if owner else f"{path.stem}.{fn.name}"
            for i in range(len(positional) - len(a.defaults), len(positional)):
                yield f"{prefix}.{positional[i].arg}", called, i - skip, positional[i].arg
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield f"{prefix}.{arg.arg}", called, None, arg.arg


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def _calls():
    """Called name -> the (positional arguments, keyword names) of each call,
    and the set of names loaded as a value.  A starred argument counts as
    any number of positional ones, and None among the keyword names, from
    a **mapping, stands for any keyword."""
    calls, loaded = {}, set()
    for _, tree in _sources("src", "scripts", "bench"):
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                star = any(isinstance(arg, ast.Starred) for arg in node.args)
                count = float("inf") if star else len(node.args)
                calls.setdefault(_name(node.func), []).append((count, {kw.arg for kw in node.keywords}))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                if id(node) not in called:
                    loaded.add(_name(node))
    return calls, loaded


def _binds(call, position, param) -> bool:
    count, keywords = call
    return (position is not None and position < count) or bool({param, None} & keywords)


def test_every_defaulted_parameter_is_bound_outside_the_tests():
    calls, loaded = _calls()
    unused = [
        qualified
        for qualified, called, position, param in _defaulted_parameters()
        if called not in loaded and not any(_binds(c, position, param) for c in calls.get(called, ()))
    ]
    assert unused == []


def test_every_default_is_relied_on_by_a_program_call():
    calls, loaded = _calls()
    overridden = [
        qualified
        for qualified, called, position, param in _defaulted_parameters()
        if called not in loaded and all(_binds(c, position, param) for c in calls.get(called, ()))
    ]
    assert overridden == []
