"""Layer boundaries, read from the source with `ast`.

The elimination oracle must never call the closed-form arithmetic it is
checked against: `oracle` may take from `rings` only its error and the
operator system it is asked to solve, and `linalg`
and `koszul` take nothing from `rings` at all. Neither `oracle` nor
`koszul` keeps a cache at module level. A run has one field, which its
`Context` carries: no function of `oracle`, `koszul` or `claims` takes
a field beside its context, and no cache key names a field.
"""

import ast
import pathlib

import pytest

import prozero

SRC = pathlib.Path(prozero.__file__).parent


def rings_imports(module, source=None):
    """Names a module imports from `.rings` (relative or absolute)."""
    if source is None:
        source = (SRC / ("%s.py" % module)).read_text()
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module in (
                "rings", "prozero.rings"):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names
                         if a.name == "prozero.rings")
    return names


def test_oracle_takes_only_types_from_rings():
    assert rings_imports("oracle") == {"RingError", "system_operators"}


def test_linalg_and_koszul_do_not_import_rings():
    assert rings_imports("linalg") == set()
    assert rings_imports("koszul") == set()


def test_check_sees_a_closed_form_import():
    # the check itself: importing `vanishes` into the oracle is caught
    src = (SRC / "oracle.py").read_text().replace(
        "from .rings import RingError,",
        "from .rings import vanishes, RingError,")
    assert "vanishes" in rings_imports("oracle", src)


def module_level_containers(module, source=None):
    """Names bound at module level to a dict, list or set display."""
    if source is None:
        source = (SRC / ("%s.py" % module)).read_text()
    containers = (ast.Dict, ast.List, ast.Set,
                  ast.DictComp, ast.ListComp, ast.SetComp)
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        is_call = (isinstance(value, ast.Call)
                   and isinstance(value.func, ast.Name)
                   and value.func.id in ("dict", "list", "set"))
        if isinstance(value, containers) or is_call:
            names.extend(ast.unparse(t) for t in targets)
    return names


def test_oracle_and_koszul_keep_no_module_level_cache():
    # caches live in a Context passed between calls, never in the module
    assert module_level_containers("oracle") == []
    assert module_level_containers("koszul") == []


def test_check_sees_a_module_level_cache():
    src = (SRC / "oracle.py").read_text() + "\n_span_cache = {}\n"
    assert module_level_containers("oracle", src) == ["_span_cache"]


def field_beside_ctx(module, source=None):
    """Functions of a module taking both a `field` and a `ctx` parameter,
    and the lines that read a field's name (a cache key naming a field)."""
    if source is None:
        source = (SRC / ("%s.py" % module)).read_text()
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            names = {a.arg for a in (args.posonlyargs + args.args
                                     + args.kwonlyargs)}
            if {"field", "ctx"} <= names:
                found.append(node.name)
        elif (isinstance(node, ast.Attribute) and node.attr == "name"
              and ast.unparse(node.value).endswith("field")):
            found.append("line %d" % node.lineno)
    return found


@pytest.mark.parametrize("module", ["oracle", "koszul", "claims"])
def test_the_context_carries_the_field(module):
    assert field_beside_ctx(module) == []


def test_check_sees_a_field_beside_ctx():
    src = (SRC / "oracle.py").read_text()
    src += "\ndef shim(ring, w, field=None, ctx=None):\n    pass\n"
    src += "\ndef keyed(ctx, w):\n    return (w, ctx.field.name)\n"
    key_line = src.splitlines().index("    return (w, ctx.field.name)") + 1
    assert field_beside_ctx("oracle", src) == ["shim", "line %d" % key_line]
