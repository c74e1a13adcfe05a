"""Benchmark of the ``garding`` command on three box workloads.

    python3 bench/run.py --workload box-n3-p2-r9 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Each garding call runs in a fresh process (``bench/child.py``), one call at
a time, with BLAS limited to one thread.  A round is the workload's calls in
order; the run repeats whole rounds until ``--seconds`` have passed and
reports medians over rounds.  Every call's ``fields.csv`` and ``report.txt``
are checked by ``bench/checker.py``, which uses none of garding's numerics;
a call fails when it exits non-zero or fails a check.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports per-layer calls, total and self
times and counters from the traced ones, with the tracing overhead as the
difference between the two kinds of round.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checker

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = BENCH / "work"
BLAS_THREADS = 1
SETUP_PROBES = 3  # extra fresh processes per run that stop after the build
RUN_LIMIT_S = 170.0  # a whole run, calls and checks included, ends before this


@dataclass(frozen=True)
class Call:
    label: str
    spec: Path


WORKLOADS = {
    # Jacobi-BiCGStab Newton and upper barrier, n = 2 eigen work, 5.6 MB CSV
    "box-n2-p1-r17": (Call("r17", ROOT / "specs" / "box-n2-p1.spec"),),
    # the paper's central case p = n - 1 at n = 3: batched 3x3 eigen work,
    # assembly and a 28.6 MB CSV dominate
    "box-n3-p2-r9": (Call("r9", BENCH / "specs" / "box-n3-p2-r9.spec"),),
    # sparse LU for Newton (2 401 unknowns) and the upper barrier (14 641);
    # the two levels also check second-order convergence
    "box-n2-p1-refine": (
        Call("r9", BENCH / "specs" / "box-n2-p1-r9.spec"),
        Call("r13", BENCH / "specs" / "box-n2-p1-r13.spec"),
    ),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
SPANS = (
    "specfile.parse_document",
    "specfile.build_problem",
    "problems.manufactured_box",
    "solver.continuity_solve",
    "solver.diagnostics",
    "grid.complex_hessian_field",
    "hermitian.eigh_batch",
    "hermitian.eigvals_batch",
    "operator.linearization_batch",
    "operator.ftilde_batch",
    "cone.margins_batch",
    "linear.assemble_linearized",
    "linear.solve_sparse",
    "linear.bicgstab",
    "linear.splu",
    "linear.upper_barrier",
    "report.solution_node_fields",
    "report.write_solution_csv",
)
COUNTERS = {
    "hermitian.matrices": "count",
    "linear.matrix_nnz": "count",
    "linear.mmatrix_violations": "count",
    "linear.bicgstab.iters": "count",
    "solver.homotopy_attempts": "count",
    "solver.homotopy_steps": "count",
    "solver.newton_iters": "count",
    "solver.damping_trials": "count",
    "report.csv_bytes": "B",
}
PER_LAYER = {
    **{f"{span}.{kind}": unit for span in SPANS
       for kind, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    **COUNTERS,
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Run:
    """Calls of one benchmark run, with the deadline they share."""

    def __init__(self, seed: int):
        self.seed = seed
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0  # calls that exited non-zero or failed a check
        self.wrong = 0  # calls whose outputs failed a check
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def spawn(self, result: Path, trace: bool, mode: str, args: list) -> dict | None:
        """Start child.py, wait for it, return its result (None when it failed)."""
        result.unlink(missing_ok=True)
        t_spawn = time.monotonic()
        cmd = [sys.executable, str(BENCH / "child.py"), str(result), repr(t_spawn),
               "1" if trace else "0", mode, *args]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  timeout=max(1.0, self.deadline - t_spawn))
        except subprocess.TimeoutExpired:
            print(f"bench: {' '.join(args)} timed out", file=sys.stderr)
            return None
        if proc.returncode != 0 or not result.is_file():
            print(f"bench: {' '.join(args)} exited with {proc.returncode}", file=sys.stderr)
            return None
        out = json.loads(result.read_text())
        if out["missing"]:
            print(f"bench: not traced, no such binding: {out['missing']}", file=sys.stderr)
        return out

    def setup_probe(self, calls) -> float:
        total = 0.0
        for call in calls:
            out = self.spawn(WORK / f"setup-{call.label}.json", False, "setup", [str(call.spec)])
            if out is None:
                raise SystemExit(f"bench: setting up {call.spec} failed")
            total += out["setup_s"]
        return total

    def round(self, name: str, calls, trace: bool) -> list | None:
        """One garding call per spec, each checked; None when a call exited non-zero.

        The calls of a round with several specs are levels of one problem,
        whose error against the target must fall at second order.
        """
        outs, levels = [], []

        def reject(message: str) -> None:
            print(f"bench: {name}: {message}", file=sys.stderr)
            self.failed += 1
            self.wrong += 1

        for call in calls:
            out_dir = WORK / name / call.label
            shutil.rmtree(out_dir, ignore_errors=True)
            out_dir.mkdir(parents=True)
            self.attempted += 1
            out = self.spawn(out_dir / "result.json", trace, "solve",
                             ["--mode", "solve", "--spec", str(call.spec),
                              "--out", str(out_dir), "--seed", str(self.seed)])
            outs.append(out)
            if out is None:
                self.failed += 1
                continue
            try:
                figures = checker.check_output_dir(call.spec, out_dir, self.seed)
                levels.append((checker.read_spec(call.spec).resolution, figures["max_error"]))
            except checker.CheckFailed as exc:
                reject(f"{call.spec.name}: {exc}")
        if len(levels) == len(calls) > 1:
            try:
                checker.check_second_order(levels[0], levels[-1])
            except checker.CheckFailed as exc:
                reject(str(exc))
        return outs if all(outs) else None


def end_to_end(outs: list) -> dict:
    """A round's end-to-end figures: its calls' times summed, peak memory maxed."""
    return {
        "wall_s": sum(o["wall_s"] for o in outs),
        "setup_s": sum(o["setup_s"] for o in outs),
        "solve_s": sum(o["solve_s"] for o in outs),
        "peak_rss_mb": max(o["peak_rss_mb"] for o in outs),
    }


def per_layer(outs: list) -> dict:
    """A traced round's per-layer figures, summed over its calls."""
    fig = dict.fromkeys(PER_LAYER, 0.0)
    for out in outs:
        spans = out["spans"]
        calls = Counter(name for name, *_ in spans)
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), cover in zip(spans, covered):
            if name in SPANS:
                fig[f"{name}.s"] += end - start
                fig[f"{name}.self_s"] += end - start - cover
        for name in SPANS:
            fig[f"{name}.calls"] += calls[name]
        counters = out["counters"]
        attempts = calls["solver.newton_loop"]
        derived = {
            "solver.homotopy_attempts": attempts,
            "solver.homotopy_steps": attempts - counters.get("solver.newton_loop.raised", 0),
            "solver.newton_iters": calls["solver.correction"],
            "solver.damping_trials": calls["solver.min_margin"] - attempts,
        }
        for key in COUNTERS:
            fig[key] += derived.get(key, counters.get(key, 0))
    fig["trace.wall_s"] = sum(o["wall_s"] for o in outs)
    return fig


def medians(rows: list) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    calls = WORKLOADS[name]
    run = Run(seed)
    WORK.mkdir(parents=True, exist_ok=True)
    setups = [run.setup_probe(calls) for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    start = time.monotonic()
    while time.monotonic() < run.deadline:
        outs = run.round(name, calls, False)
        if outs is not None:
            plain.append(end_to_end(outs))
        if trace:
            outs = run.round(name, calls, True)
            if outs is not None:
                traced.append(per_layer(outs))
        if time.monotonic() - start >= seconds or run.failed:
            break
    if not plain or (trace and not traced):
        raise SystemExit(f"bench: no round of {name} completed")
    if trace:
        figures = medians(traced)
        figures["trace.overhead_s"] = figures["trace.wall_s"] - medians(plain)["wall_s"]
        units = PER_LAYER
    else:
        figures = medians(plain)
        figures["setup_s"] = statistics.median(setups + [row["setup_s"] for row in plain])
        units = END_TO_END
    return {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {key: {"value": figures[key], "unit": unit} for key, unit in units.items()},
    }


def machine() -> str:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} blas_threads={BLAS_THREADS}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="passed to garding --seed, which solve mode records in "
                        "report.txt; the inputs are the fixed specs")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "garding" / "cli.py").is_file():
        print(f"bench: no garding sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(f"bench: {machine()}", file=sys.stderr)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for key, metric in result["metrics"].items():
            print(f"{name:18s} {key:38s} {metric['value']:14.6g} {metric['unit']}",
                  file=sys.stderr)
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
