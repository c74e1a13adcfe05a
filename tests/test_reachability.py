"""Every statement of every function under ``src/garding`` is executed by a
CLI run, or is named in an allowlist with the reason no cheap run executes it.

Cheap ``garding.cli.main`` calls, one per mode plus exit-2 and exit-3 runs,
are made in process under ``sys.settrace``, which records the line events of
every frame whose code is in the package.  A statement line is the first line
of a statement inside a function body, other than the docstring and ``raise``
statements (an error path may be reached by tests alone).  The functions
none of whose statements ran must be exactly the keys of
``ALLOWED_FUNCTIONS``, and the statements no run executed in the other
functions exactly the lines of ``ALLOWED_LINES``.  Both are keyed by dotted
function name and stripped line text, never by line number.  Code that only
tests reach belongs in ``tests/support.py``, and an entry that a run
executes again leaves the list.
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import garding
from garding.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(garding.__file__).resolve().parent
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

ALLOWED_FUNCTIONS = {  # {dotted name: why no cheap run enters it}
    "solver.newton_solve_at_t": "documented library API; no mode calls it",
    "specfile.parse_spec": "documented library API; no mode calls it",
    "hermitian._eigvals_3": "the 3x3 closed form: n = 3 box grids only",
    "linear.__getattr__": "the spla shim that bench/child.py resolves",
    "linear.StencilOperator.mmatrix_violations": "a bench/child.py counter",
    "linear.SparseSystem.mmatrix_violations": "a bench/child.py counter",
}

# {(dotted name, why no cheap run executes them): their stripped statement
# lines}; a line that two statements of a function share is listed twice
ALLOWED_LINES = {
    ("cli.run", "exit 4 from a solve: no cheap solve violates a diagnostic contract"): (
        'print(f"contract violation: {exc}", file=sys.stderr)',
        "return EXIT_CONTRACT",
    ),
    ("cli._run_verify_subsolution", "an invalid subsolution: no cheap spec has one"): (
        'report.record("subsolution_valid", False)',
        'report.record("witness_node", tuple(np.atleast_1d(exc.node).tolist())',
        'report.line(f"INVALID: {exc}")',
        "_write(report, config)",
        "return EXIT_CONTRACT",
    ),
    ("cli._run_check_operator", "a structure violation: the operator has none"): (
        'report.line(f"violation [{v.prop}] at {np.array2string(v.witness)}: {v.detail}")',
        'report.line(f"{len(result.violations)} violations recorded")',
        "_write(report, config)",
        "return EXIT_CONTRACT",
    ),
    ("hermitian.eigvals_batch", "LAPACK for other shapes, non-finite blocks and 3x3 rows "
                                "near a double eigenvalue (n = 3 boxes only)"): (
        "return np.linalg.eigvalsh(mats)",
        "redo = np.ones(block.shape[-1], dtype=bool)",
        "part[redo] = np.linalg.eigvalsh(np.moveaxis(block[..., redo], -1, 0))",
    ),
    ("linear.assemble_linearized", "coefficients that are not finite or that the pivots "
                                   "cannot clear: cheap runs have none"): (
        "node = grid.node_of_flat(int(np.argmin(finite)))",
        "np.linalg.cholesky(cvals[~clear])",
        "_, node = least(eigvals_batch(cvals)[..., 0], grid.node_of_flat)",
    ),
    ("linear.bicgstab", "a zero right-hand side, an exit after the full step and an "
                        "iteration without progress: no cheap solve has one"): (
        "return np.zeros_like(rhs)",
        "return x",
        "since_progress += 1",
        "if since_progress >= STALL_WINDOW:",
    ),
    ("operator._ftilde_rows", "an eigenvalue row outside the cone names its row"): (
        "bad = int(np.argmax(outside))",
    ),
    ("operator.determinant_form_batch", "the compound for p > 1: no cheap run is a p > 1 box"): (
        "planes = np.moveaxis(mats, (-2, -1), (0, 1)).reshape(n * n, -1)",
        "form = (params.compound.T @ planes).reshape((m, m) + mats.shape[:-2])",
        "return np.moveaxis(form, (0, 1), (-2, -1)), trace",
    ),
    ("operator.determinant_linearization_batch", "a pivot outside the cone names its row"): (
        "bad = int(np.argmax(outside))",
    ),
    ("operator.structure_check", "a structure violation: the operator has none"): (
        "violations.append(",
        "violations.append(",
    ),
    ("operator.structure_check.record", "a structure violation: the operator has none"): (
        "violations.append(StructureViolation(prop, lams[idx].copy(), details(idx)))",
    ),
    ("problems._finite", "a built array that is not finite: cheap specs have none"): (
        'beyond = ", or beyond 2^500 in magnitude" if bounded else ""',
    ),
    ("problems._manufacture", "the psi bump: no cheap spec sets [psi] bump_node"): (
        "idx = tuple(int(i) - interior_offset for i in np.atleast_1d(psi_bump_node))",
        "psi[idx] = psi[idx] * float(psi_bump_factor)",
    ),
    ("problems.verify_subsolution", "an invalid subsolution names its node: no cheap spec "
                                    "has one"): (
        "flat = int(np.argmax((deficit - tol).reshape(-1)))",
        "node = problem.grid.node_of_flat(flat)",
        "k = int(np.argmax(excess))",
        "idx = np.unravel_index(np.flatnonzero(on_boundary)[k], problem.grid.shape)",
        'node = tuple(int(i) for i in idx) if problem.geometry == "box" else int(idx[0])',
    ),
    ("radial.solve_radial_linear", "a row swap: the cheap radial bands need no pivoting"): (
        "cur, nxt = nxt, cur",
    ),
    ("solver._Evaluator.linearize", "a pivot outside the cone names its grid node"): (
        "node = self.grid.node_of_flat(exc.node)",
    ),
    ("solver._barrier_report", "a collar with no node or no single-face node: cheap boxes "
                               "have both"): (
        "return BarrierReport(0, 0, np.nan, None, None, np.nan, degenerate)",
        "return BarrierReport(count, 0, min_v, tuple(int(i) for i in vmin_idx), None, np.nan,",
    ),
    ("solver._newton_loop", "the iteration cap and a stagnation above the rounding floor: "
                            "cheap attempts converge or stop at the floor"): (
        "if stagnant >= 8:  # above the floor: a shorter step may help",
        "break",
    ),
    ("solver._newton_loop", "damping: every cheap trial keeps the margin at alpha = 1"): (
        "alpha *= 0.5",
        "if alpha < ALPHA_MIN:",
    ),
    ("solver.continuity_solve", "step halving: no cheap run rejects a step (the bump probe "
                                "of tools/compare_outputs.py does, in seconds)"): (
        "step = 0.5 * (t_try - t)",
        "if step < T_STEP_MIN:",
        "continue",
    ),
    ("solver.c2_ratio_monitor", "a radial refine-sweep: the cheap sweep is a box"): (
        'spacing, label = grid.spacing, f"points {grid.points}"',
    ),
    ("specfile._check_grid", "a grid above the node cap: no cheap spec has one"): (
        'count = f"{level}^{dims}" if dims > 1 else str(level)',
    ),
    ("specfile._radial_function", "a radial quadratic: the cheap radial spec has none"): (
        'return RadialProfile((0.0, spec.get("coeff")))',
    ),
    ("specfile.initial_values_from", "a radial [init]: no cheap spec has one"): (
        "values = _radial_function(doc.init).value(problem.grid.s)",
    ),
    ("specfile.build_problem", "[chi] diag: no cheap spec has one"): (
        "chi = np.diag(np.asarray(doc.chi_diag, dtype=np.complex128))",
    ),
    ("specfile.parse_document", "[chi] diag: no cheap spec has one"): (
        "if len(diag) != n:",
        "chi_diag = diag",
    ),
    ("specfile.parse_document", "[psi] bump_node: no cheap spec has one"): (
        "expected, lo = (2 * n, 1) if box else (1, 0)",
        "hi = min(g.shape[0] for g in (grid, *sweep)) - 2",
        "if len(bump) != expected:",
        "if not all(b == int(b) and lo <= b <= hi for b in bump):",
        "psi_bump_node = tuple(int(b) for b in bump)",
    ),
    ("specfile.parse_document", "a [solve] section: no cheap spec has one"): (
        'if key == "initial_values":',
        'if key != "newton_tol":',
    ),
}


def statement_lines() -> dict:
    """{(file, line number): (dotted function name, stripped text)} for the
    first line of every statement in a function body under ``src/garding``,
    leaving out docstrings and ``raise`` statements.  A statement belongs to
    the innermost function around it, so a nested ``def`` line belongs to the
    function that runs it and the nested body to the nested name."""
    found = {}

    def walk(nodes, path, lines, prefix, function):
        for node in nodes:
            if isinstance(node, ast.stmt) and function and not isinstance(node, ast.Raise):
                found[str(path), node.lineno] = (function, lines[node.lineno - 1].strip())
            if isinstance(node, ast.ClassDef):
                walk(node.body, path, lines, f"{prefix}.{node.name}", None)
            elif isinstance(node, ast.FunctionDef):
                name = f"{prefix}.{node.name}"
                body = node.body[1:] if ast.get_docstring(node) is not None else node.body
                walk(body, path, lines, name, name)
            else:  # the statements inside a compound statement or an except clause
                walk(ast.iter_child_nodes(node), path, lines, prefix, function)

    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        walk(ast.parse(text).body, path, text.splitlines(), path.stem, None)
    return found


def executed(argvs) -> tuple:
    """The exit status of ``main`` on each argument list, and the (file, line
    number) of every line event in a frame of code under ``src/garding``."""
    seen = set()
    root = str(SRC)

    def lines(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        statuses = [main(argv) for argv in argvs]
    finally:
        sys.settrace(previous)
    return statuses, seen


def test_every_statement_is_executed_or_allowed(tmp_path):
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
    statuses, seen = executed(
        ["--mode", mode, "--spec", str(spec), "--out", str(tmp_path / f"out-{i}"), *extra]
        for i, (mode, spec, extra, _) in enumerate(runs))
    assert statuses == [status for *_, status in runs]
    statements = statement_lines()
    entered = {name for key, (name, _) in statements.items() if key in seen}
    unentered = {name for name, _ in statements.values()} - entered
    unexecuted = Counter(statement for key, statement in statements.items()
                         if key not in seen and statement[0] in entered)
    assert unentered - ALLOWED_FUNCTIONS.keys() == set()  # not entered, not listed
    assert ALLOWED_FUNCTIONS.keys() - unentered == set()  # listed, but entered
    allowed = Counter((name, line) for (name, _), lines in ALLOWED_LINES.items() for line in lines)
    assert unexecuted - allowed == Counter()  # not executed, not listed
    assert allowed - unexecuted == Counter()  # listed, but executed
