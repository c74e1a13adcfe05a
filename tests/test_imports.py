"""Every module under ``src/garding`` uses each name it imports, and reads
each module-level private name it defines."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "garding"
# bench/child.py wraps linear's binding; it goes with the tracer's binding list
ALLOWED = {("linear", "complex_hessian_field")}


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def unread_private_names(path: Path) -> list:
    """Module-level defs, classes and assignments named ``_...`` that the
    module never loads as a name or reads as an attribute."""
    tree = ast.parse(path.read_text())
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [target.id for target in targets if isinstance(target, ast.Name)]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    # a dunder such as a module's __getattr__ is read by Python itself
    private = [name for name in defined if name.startswith("_") and not name.endswith("__")]
    return sorted(name for name in private if name not in read)


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # an allowed binding that is gone, or is used again, leaves the list too
    assert unused_imports(path) == sorted(name for module, name in ALLOWED if module == path.stem)


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from dataclasses import dataclass, field\nimport numpy as np\n\n"
                    "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(path) == ["field"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_private_name_is_read(path):
    assert unread_private_names(path) == []


def test_the_check_sees_an_unread_private_name(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "_A = 1\n"
        "_B: int = 2\n"
        "_C = 3\n"
        "def _f():\n    return _A\n"
        "class _G:\n    pass\n"
        "def __getattr__(name):\n    return name\n"
        "def h(x):\n    _C = 4\n    return x._G\n"
    )
    # _C is only stored again, in a function; _G is read as an attribute
    assert unread_private_names(path) == ["_B", "_C", "_f"]
