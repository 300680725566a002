"""Package API contract: each public name is declared once, in its module's
``__all__``, and the package root re-exports the five module lists."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import diagprod

_MODULES = ("boundary", "constructors", "matrices", "region", "verify")
_ROOT = Path(diagprod.__file__).parent


def test_root_holds_exactly_the_module_lists():
    want = [name for module in _MODULES for name in getattr(diagprod, module).__all__]
    assert diagprod.__all__ == want
    assert len(set(want)) == len(want) == 47


def test_each_name_is_the_module_object():
    for module in _MODULES:
        owner = getattr(diagprod, module)
        for name in owner.__all__:
            assert getattr(diagprod, name) is getattr(owner, name), (module, name)


def _listed_names(path: Path) -> list[str]:
    """The string entries of every literal list assigned to ``__all__`` in a file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List):
            if "__all__" in [getattr(target, "id", None) for target in node.targets]:
                names += [elt.value for elt in node.value.elts]
    return names


def test_each_name_is_listed_once_by_its_defining_module():
    listed = Counter()
    for path in sorted(_ROOT.glob("*.py")):
        for name in _listed_names(path):
            listed[name] += 1
            module = importlib.import_module(f"diagprod.{path.stem}")
            assert getattr(module, name).__module__ == module.__name__, (path.name, name)
    assert set(listed) == set(diagprod.__all__)
    assert max(listed.values()) == 1


def test_root_imports_no_name_by_hand():
    init = _ROOT / "__init__.py"
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            assert [alias.name for alias in node.names] == ["*"], node.module
    assert _listed_names(init) == []
