"""Report and CSV emission.

Reports pair a human-readable summary with a machine-readable
``[key_values]`` block (sorted ``key = value`` lines, floats via repr), and
contain no timestamps or timings, so identical inputs produce byte-identical
files.  CSV dumps carry one row per grid node; cone margin and residual
columns are empty on boundary nodes, where they are not defined.  The CSV is
built CSV_CHUNK rows at a time from NumPy and ``str.join`` calls: each
distinct float of a chunk (by bit pattern) is formatted by repr once, which
pays off because boundary nodes carry the Dirichlet data, the targets are
mirror-symmetric and converged residuals take few values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .problems import ProblemSpec
from .solver import SolveDiagnostics

CSV_FORMAT_VERSION = 1
CSV_CHUNK = 1 << 12  # rows made into Python lists, and written, at a time
REPORT_FORMAT_VERSION = 1


@dataclass
class Report:
    title: str
    lines: list = field(default_factory=list)
    keys: dict = field(default_factory=dict)

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def record(self, key: str, value) -> None:
        self.keys[key] = value

    def render(self) -> str:
        out = [self.title, "=" * len(self.title), ""]
        out.extend(self.lines)
        out.append("")
        out.append("[key_values]")
        out.append(f"report_format_version = {REPORT_FORMAT_VERSION}")
        for key in sorted(self.keys):
            out.append(f"{key} = {_fmt(self.keys[key])}")
        return "\n".join(out) + "\n"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    return str(value)


def attempts_into(report: Report, attempts) -> list:
    """Record the counts of accepted and failed attempts, the accepted ones'
    Newton corrections and the last accepted margin; return the accepted rows."""
    accepted = [a for a in attempts if a.failure is None]
    report.record("homotopy_steps", len(accepted))
    report.record("rejected_steps", len(attempts) - len(accepted))
    report.record("newton_iters_total", sum(len(a.residuals) - 1 for a in accepted))
    if accepted:
        report.record("min_margin_final", accepted[-1].min_margin)
    return accepted


def diagnostics_into(report: Report, diag: SolveDiagnostics) -> None:
    report.record("K", diag.K)
    report.record("F_trace_min", diag.F_trace)
    report.record("sandwich_violation", diag.sandwich_violation)
    report.record("c0_boundary", diag.c0_boundary)
    report.record("c2_ratio", diag.c2_ratio)
    report.record("sup_hessian", diag.sup_hessian)
    report.record("boundary_sup_hessian", diag.boundary_sup_hessian)
    report.record("amgm_min_slack", diag.amgm_min_slack)
    report.record("final_residual", diag.final_residual)
    report.record("anchor_residual", diag.anchor_residual)
    steps = len(attempts_into(report, diag.attempts))
    if diag.barrier_report is not None:
        b = diag.barrier_report
        report.record("barrier_min_v", b.min_v)
        report.record("barrier_epsilon", b.epsilon)
        report.record("barrier_collar_nodes", b.collar_nodes)
        report.record("barrier_smooth_nodes", b.smooth_nodes)
        report.record("barrier_degenerate", b.degenerate_collar)
    report.line(f"t reached 1 in {steps} accepted states; "
                f"final residual {diag.final_residual:.3e}")
    report.line(f"sandwich violation {diag.sandwich_violation:.3e}; "
                f"boundary trace {diag.c0_boundary:.6f}; K {diag.K:.6f}")


def _reprs(values: np.ndarray, end: str) -> np.ndarray:
    """repr of each float64 entry followed by ``end``, as an object array,
    with each distinct bit pattern formatted once.  Uniqueness is taken on
    the int64 view, so -0.0 stays apart from 0.0 (float equality would merge
    them)."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = [repr(x) + end for x in bits.view(np.float64).tolist()]
    return np.array(texts, dtype=object)[inverse]


def _coordinate_tables(axes: list) -> list:
    """Coordinate cells of the leading and of the trailing axes (one table
    for the radial grid's single axis), each joined and followed by a comma:
    a node's coordinates are one entry of each table."""
    texts = [list(map(repr, c.tolist())) for c in axes]
    half = (len(texts) + 1) // 2
    return [np.array([",".join(p) + "," for p in itertools.product(*group)], dtype=object)
            for group in (texts[:half], texts[half:]) if group]


def write_solution_csv(path, problem: ProblemSpec, u: np.ndarray, diag: SolveDiagnostics) -> None:
    """Node table: coordinates, u, cone margin, normalized residual.

    The margins and residuals are the solve's own, carried on ``diag``.
    Rows are in C order with every float written as its repr and ``\\r\\n``
    line ends, byte for byte what ``csv.writer`` writes for the same rows.
    The rows are made and written CSV_CHUNK at a time, so no list spans the
    grid.  Within a chunk each float column is formatted once per distinct
    value, and the cells, each ending in its separator, are joined by one
    ``str.join``: Python code runs per distinct value, never per row.
    """
    grid = problem.grid
    if problem.geometry == "box":
        names = []
        for j in range(grid.n):
            names += [f"x{j + 1}", f"y{j + 1}"]
        axes = [grid.axis_coords(a) for a in range(grid.ndim_real)]
    else:
        names = ["s"]
        axes = [grid.s]
    names += ["u", "cone_margin", "ftilde_residual"]
    tables = _coordinate_tables(axes)
    inside = ~grid.boundary_mask().reshape(-1)
    values = np.asarray(u, dtype=np.float64).reshape(-1)
    margins = np.asarray(diag.node_margins, dtype=np.float64).reshape(-1)
    residuals = np.asarray(diag.node_residual, dtype=np.float64).reshape(-1)
    with open(path, "w", newline="") as handle:
        handle.write(f"csv_format_version={CSV_FORMAT_VERSION}" + "," * (len(names) - 1) + "\r\n")
        handle.write(",".join(names) + "\r\n")
        first = 0  # interior entries written so far
        for start in range(0, values.size, CSV_CHUNK):
            stop = min(start + CSV_CHUNK, values.size)
            rows_inside = inside[start:stop]
            last = first + int(np.count_nonzero(rows_inside))
            cells = np.empty((stop - start, len(tables) + 3), dtype=object)
            nodes = np.unravel_index(np.arange(start, stop), [len(t) for t in tables])
            for column, (table, i) in enumerate(zip(tables, nodes)):
                cells[:, column] = table[i]
            cells[:, -3] = _reprs(values[start:stop], ",")
            cells[:, -2] = ","  # empty margin and residual cells off the interior
            cells[:, -1] = "\r\n"
            cells[rows_inside, -2] = _reprs(margins[first:last], ",")
            cells[rows_inside, -1] = _reprs(residuals[first:last], "\r\n")
            first = last
            handle.write("".join(cells.ravel().tolist()))
