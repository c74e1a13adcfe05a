"""Report and CSV emission.

Reports pair a human-readable summary with a machine-readable
``[key_values]`` block (sorted ``key = value`` lines, floats via repr), and
contain no timestamps or timings, so identical inputs produce byte-identical
files.  CSV dumps carry one row per grid node; cone margin and residual
columns are empty on boundary nodes, where they are not defined.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .grid import field_values
from .problems import ProblemSpec
from .solver import SolveDiagnostics

CSV_FORMAT_VERSION = 1
CSV_CHUNK = 1 << 16  # rows formatted per write
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
    report.record("homotopy_steps", len(diag.states))
    report.record("newton_iters_total", sum(s.newton_iters for s in diag.states))
    report.record("min_margin_final", diag.states[-1].min_margin)
    if diag.barrier_report is not None:
        b = diag.barrier_report
        report.record("barrier_min_v", b.min_v)
        report.record("barrier_epsilon", b.epsilon)
        report.record("barrier_collar_nodes", b.collar_nodes)
        report.record("barrier_smooth_nodes", b.smooth_nodes)
        report.record("barrier_degenerate", b.degenerate_collar)
    report.line(f"t reached 1 in {len(diag.states)} accepted states; "
                f"final residual {diag.final_residual:.3e}")
    report.line(f"sandwich violation {diag.sandwich_violation:.3e}; "
                f"boundary trace {diag.c0_boundary:.6f}; K {diag.K:.6f}")


def write_solution_csv(path, problem: ProblemSpec, u, diag: SolveDiagnostics) -> None:
    """Node table: coordinates, u, cone margin, normalized residual.

    The margins and residuals are the solve's own, carried on ``diag``.
    Rows are in C order with every float written as its repr and ``\\r\\n``
    line ends, byte for byte what ``csv.writer`` writes for the same rows.
    """
    uv = field_values(u)
    if problem.geometry == "box":
        grid = problem.box.grid
        names = []
        for j in range(grid.n):
            names += [f"x{j + 1}", f"y{j + 1}"]
        axes = [grid.axis_coords(a) for a in range(grid.ndim_real)]
        interior = (slice(1, -1),) * grid.ndim_real
    else:
        names = ["s"]
        axes = [problem.radial.grid.s]
        interior = (slice(0, -1),)
    names += ["u", "cone_margin", "ftilde_residual"]
    # coordinate strings are made once per axis, not once per node
    prefixes = map(",".join, itertools.product(*[list(map(repr, c.tolist())) for c in axes]))
    mask = np.zeros(uv.shape, dtype=bool)
    mask[interior] = True
    mask, values = mask.reshape(-1), uv.reshape(-1)
    tails = (f",{margin!r},{residual!r}" for margin, residual in
             zip(diag.node_margins.reshape(-1).tolist(), diag.node_residual.reshape(-1).tolist()))
    with open(path, "w", newline="") as handle:
        handle.write(f"csv_format_version={CSV_FORMAT_VERSION}" + "," * (len(names) - 1) + "\r\n")
        handle.write(",".join(names) + "\r\n")
        # CSV_CHUNK rows at a time, so no list spans the grid; prefixes come
        # last, so zip stops at a chunk's end without taking one more
        for start in range(0, values.size, CSV_CHUNK):
            rows = slice(start, start + CSV_CHUNK)
            handle.writelines(f"{prefix},{value!r}{next(tails) if inside else ',,'}\r\n"
                              for value, inside, prefix
                              in zip(values[rows].tolist(), mask[rows].tolist(), prefixes))
