"""One garding call in a fresh process, timed from the inside.

    python3 bench/child.py RESULT_JSON T_SPAWN TRACE solve GARDING_ARGS...
    python3 bench/child.py RESULT_JSON T_SPAWN 0 setup SPEC

``T_SPAWN`` is the ``time.monotonic()`` reading the parent took just before
it started this process; on Linux that clock is system-wide, so the times
below count from the fresh process's start, imports included.  ``solve``
runs ``garding.cli.main`` on the remaining arguments, as the ``garding``
command does, and exits with its status.  ``setup`` stops once the problem
is built.

Timing wraps functions as the calling module binds them (``garding.cli``
binds ``build_problem``, ``garding.solver`` binds ``eigh_batch``, ...), so
no garding source changes.  With ``TRACE`` 1 every function in ``TRACED``
records a span (name, start, end, parent) in memory; the spans go into the
result file when the call ends.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path


def _shape_count(args, kwargs, result) -> dict:
    return {"hermitian.matrices": math.prod(args[0].shape[:-2])}


def _system_counts(args, kwargs, result) -> dict:
    return {"linear.matrix_nnz": int(result.matrix.nnz),
            "linear.mmatrix_violations": int(result.mmatrix_violations)}


# (module, attribute path, span name, counter hook) for every binding a box
# solve goes through; a function bound in two modules is wrapped in both
TRACED = (
    ("garding.cli", "parse_document", "specfile.parse_document", None),
    ("garding.cli", "build_problem", "specfile.build_problem", None),
    ("garding.specfile", "manufactured_box", "problems.manufactured_box", None),
    ("garding.cli", "continuity_solve", "solver.continuity_solve", None),
    ("garding.solver", "_newton_loop", "solver.newton_loop", None),
    ("garding.solver", "_BoxEvaluator.correction", "solver.correction", None),
    ("garding.solver", "_BoxEvaluator.min_margin", "solver.min_margin", None),
    ("garding.solver", "_diagnostics", "solver.diagnostics", None),
    ("garding.solver", "complex_hessian_field", "grid.complex_hessian_field", None),
    ("garding.linear", "complex_hessian_field", "grid.complex_hessian_field", None),
    ("garding.solver", "eigh_batch", "hermitian.eigh_batch", _shape_count),
    ("garding.solver", "eigvals_batch", "hermitian.eigvals_batch", _shape_count),
    ("garding.problems", "eigvals_batch", "hermitian.eigvals_batch", _shape_count),
    ("garding.solver", "linearization_batch", "operator.linearization_batch", None),
    ("garding.operator", "ftilde_batch", "operator.ftilde_batch", None),
    ("garding.solver", "margins_batch", "cone.margins_batch", None),
    ("garding.problems", "margins_batch", "cone.margins_batch", None),
    ("garding.solver", "assemble_linearized", "linear.assemble_linearized", _system_counts),
    ("garding.linear", "assemble_linearized", "linear.assemble_linearized", _system_counts),
    ("garding.solver", "solve_sparse", "linear.solve_sparse", None),
    ("garding.linear", "solve_sparse", "linear.solve_sparse", None),
    ("garding.linear", "bicgstab", "linear.bicgstab", None),
    ("garding.linear", "spla.splu", "linear.splu", None),
    ("garding.solver", "upper_barrier", "linear.upper_barrier", None),
    ("garding.report", "solution_node_fields", "report.solution_node_fields", None),
    ("garding.cli", "write_solution_csv", "report.write_solution_csv", None),
)


class Tracer:
    """Spans and counters kept in memory for one process."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counters: dict = {}
        self.missing: list = []
        self._open: list = []

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, module: str, path: str, name: str, hook=None) -> None:
        owner = sys.modules[module]
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{module}.{path}")
            return

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.count(name + ".raised", 1)
                raise
            finally:
                span[2] = time.monotonic()
                self._open.pop()
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    self.count(key, amount)
            return result

        setattr(owner, attr, traced)

    def count_bicgstab_iterations(self) -> None:
        """Count preconditioner applications: one or two per iteration."""
        import garding.linear

        bicgstab = garding.linear.bicgstab

        def counted(*args, **kwargs):
            precond = kwargs.get("precond")
            if precond is None:
                return bicgstab(*args, **kwargs)
            calls = 0

            def apply(vec):
                nonlocal calls
                calls += 1
                return precond(vec)

            kwargs["precond"] = apply
            try:
                return bicgstab(*args, **kwargs)
            finally:
                self.count("linear.bicgstab.iters", (calls + 1) // 2)

        garding.linear.bicgstab = counted

    def install(self) -> None:
        self.count_bicgstab_iterations()
        for module, path, name, hook in TRACED:
            self.wrap(module, path, name, hook)


def main(argv: list) -> int:
    result_path, t_spawn, trace, mode, *rest = argv
    t_spawn = float(t_spawn)
    import garding.cli as cli

    tracer = Tracer()
    if trace == "1":
        tracer.install()
    marks: dict = {}
    build_problem = cli.build_problem
    continuity_solve = cli.continuity_solve

    def timed_build(doc):
        problem = build_problem(doc)
        marks["built"] = time.monotonic()
        return problem

    def timed_solve(*args, **kwargs):
        start = time.monotonic()
        try:
            return continuity_solve(*args, **kwargs)
        finally:
            marks["solve_s"] = time.monotonic() - start

    cli.build_problem = timed_build
    cli.continuity_solve = timed_solve
    if mode == "setup":
        cli.build_problem(cli.parse_document(Path(rest[0]).read_text()))
        status = 0
    else:
        status = cli.main(rest)
    done = time.monotonic()
    result = {
        "status": status,
        "wall_s": done - t_spawn,
        "setup_s": marks["built"] - t_spawn if "built" in marks else None,
        "solve_s": marks.get("solve_s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "missing": tracer.missing,
    }
    if "--out" in rest:
        csv_path = Path(rest[rest.index("--out") + 1]) / "fields.csv"
        if csv_path.is_file():
            result["counters"]["report.csv_bytes"] = os.path.getsize(csv_path)
    Path(result_path).write_text(json.dumps(result))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
