"""Every module under ``src/garding`` uses each name it imports."""

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


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.stem)
def test_every_import_is_used(path):
    # an allowed binding that is gone, or is used again, leaves the list too
    assert unused_imports(path) == sorted(name for module, name in ALLOWED if module == path.stem)


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from dataclasses import dataclass, field\nimport numpy as np\n\n"
                    "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(path) == ["field"]
