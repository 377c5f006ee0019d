"""Layer boundaries, read from the source with `ast`.

The elimination oracle must never call the closed-form arithmetic it is
checked against: `oracle` may take from `rings` only its error and the
operator system it is asked to solve, and `linalg`
and `koszul` take nothing from `rings` at all. Neither `oracle` nor
`koszul` keeps a cache at module level.
"""

import ast
import pathlib

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
