"""Every public function, class and method of cipher_autopsy has a caller
outside the tests.

A public name that only tests load is a second copy of work the program
does elsewhere, or dead code.  The check reads the syntax tree: a name
counts as used when src/, scripts/ or bench/ loads it as a bare name, as
an attribute or through an import.  Comments and docstrings do not count,
so mentioning a name in prose does not keep it alive.  The match is by
name alone, so a method shares its liveness with any attribute of the
same name.  The scan matches method names, not receivers, so a common
name such as `format` or `size` can hide a dead method: `str.format` in
cli.py kept `KeyMask.format` alive with only a test calling it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Public surface kept on purpose, with the reason.
ALLOWED = {
    "entropy": "metric API: the single-image figure of the comparison table",
    "psnr": "metric API: one figure of evaluate_pair's report",
    "uaci": "metric API: one figure of evaluate_pair's report",
    "reference_expectations": "metric API: the closed-form calibration constants",
    "ct": "thin scalar wrapper over core_transform_blocks",
    "ct_inv": "thin scalar wrapper over core_inverse_blocks",
    "counter_masks": "thin scalar wrapper over the per-chunk counter masks",
    "point_add": "the checked group law; scalar_mul runs the unchecked one",
    "solve_rows_mod256": "the solver's contract: every solution of the rows, expanded",
}


def _sources(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _public_definitions():
    for path, tree in _sources("src/cipher_autopsy"):
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _loaded_names():
    names = set()
    for _, tree in _sources("src", "scripts", "bench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller_outside_the_tests():
    loaded = _loaded_names()
    unused = [q for q, name in _public_definitions() if name not in loaded and name not in ALLOWED]
    assert unused == []


def test_every_allowed_name_is_still_defined():
    defined = {name for _, name in _public_definitions()}
    assert sorted(set(ALLOWED) - defined) == []
