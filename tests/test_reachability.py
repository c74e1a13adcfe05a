"""Every function under ``src/garding`` is reached by a CLI run, or is named
in ``ALLOWED`` with the reason no cheap run reaches it.

Cheap ``garding.cli.main`` calls, one per mode plus exit-2 and exit-3 runs,
are made in process under ``sys.setprofile``.  The ``def``s in the package
whose code none of them entered must be exactly the keys of ``ALLOWED``:
code that only tests reach belongs in ``tests/support.py``, and an entry
that a run reaches again leaves the list.
"""

import ast
import sys
from pathlib import Path

from garding.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "garding"
BOX_R9 = ROOT / "bench" / "specs" / "box-n2-p1-r9.spec"
RADIAL_MARCH = ROOT / "specs" / "radial-n3-p2-march.spec"
TINY_BOX = """format_version = 1
[problem]
n = 1
p = 1
[box]
extent = -1, 1, -1, 1
resolution = 9
[solution]
builtin = quadratic
[sweep]
resolutions = 9, 11
"""

ALLOWED = {  # {dotted name: why no cheap run enters it}
    "solver.newton_solve_at_t": "documented library API; no mode calls it",
    "specfile.parse_spec": "documented library API; no mode calls it",
    "hermitian._eigvals_3": "the 3x3 closed form: n = 3 box grids only",
    "linear.__getattr__": "the spla shim that bench/child.py resolves",
    "linear.StencilOperator.mmatrix_violations": "a bench/child.py counter",
    "linear.SparseSystem.mmatrix_violations": "a bench/child.py counter",
}


def package_defs() -> dict:
    """{(file, first line, name) of its code: dotted name} for every ``def``
    under ``src/garding``; a decorated def's code starts at its first
    decorator."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, path, prefix)
                continue
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[str(path), first, child.name] = name
            visit(child, path, name)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem)
    return found


def entered(argvs) -> tuple:
    """The exit status of ``main`` on each argument list, and the (file,
    first line, name) of every code object under ``src/garding`` the calls
    entered."""
    seen = set()
    root = str(SRC)

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root):
            seen.add((code.co_filename, code.co_firstlineno, code.co_name))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        statuses = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(previous)
    return statuses, seen


def test_every_def_is_reached_or_allowed(tmp_path):
    specs = {
        "tiny": TINY_BOX,
        "malformed": "format_version = 1\n[problem\n",
        "even": TINY_BOX.replace("resolution = 9", "resolution = 8"),
        # a start outside the cone
        "outside": BOX_R9.read_text() + "\n[init]\nbuiltin = quadratic\ncoeff = -1\n",
    }
    for name, text in specs.items():
        (tmp_path / f"{name}.spec").write_text(text)
    tiny, malformed, even, outside = (tmp_path / f"{name}.spec" for name in specs)
    runs = [  # (mode, spec, extra flags, exit status)
        ("solve", BOX_R9, (), 0),
        ("radial-solve", RADIAL_MARCH, (), 0),
        ("verify-subsolution", RADIAL_MARCH, (), 0),
        ("refine-sweep", tiny, (), 0),
        ("check-operator", tiny, ("--trials", "200"), 0),
        ("solve", malformed, (), 2),  # a parse error
        ("solve", even, (), 2),  # a value out of contract
        ("solve", outside, (), 3),
        ("solve", RADIAL_MARCH, ("--tol", "1e-300"), 3),  # below the rounding floor
    ]
    statuses, seen = entered(
        ["--mode", mode, "--spec", str(spec), "--out", str(tmp_path / f"out-{i}"), *extra]
        for i, (mode, spec, extra, _) in enumerate(runs))
    assert statuses == [status for *_, status in runs]
    unreached = {name for key, name in package_defs().items() if key not in seen}
    assert sorted(unreached) == sorted(ALLOWED)
