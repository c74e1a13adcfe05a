"""Command-line entry point.

Exit status contract (frozen for CI scripting):
  0  success
  2  validation failure (unreadable spec, parse error, out-of-contract value,
     a request the geometry does not support)
  3  solver failure (cone escape, stalled continuation, iteration caps, a
     Newton tolerance below the residual's rounding floor,
     linear-solver stall, indefinite linearization coefficients, an
     eigenvalue vector outside the cone)
  4  diagnostic-contract violation (invalid subsolution, structure-check
     violations, inadmissible manufactured data)

Every ``GardingError`` subclass belongs to exactly one of the three failure
groups below.  A ``solve`` whose solver fails (exit 3 or 4) still writes
``report.txt``, with the failure and the counters of its attempts, and no CSV.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import errors
from .operator import MAX_TRIAL_ENTRIES, OperatorParams, structure_check
from .problems import verify_subsolution
from .report import Report, attempts_into, diagnostics_into, write_solution_csv
from .solver import c2_ratio_monitor, continuity_solve
from .specfile import build_problem, initial_values_from, parse_document

MODES = ("solve", "verify-subsolution", "check-operator", "radial-solve", "refine-sweep")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_CONTRACT = 4

_VALIDATION_ERRORS = (errors.ParseError, errors.ValidationError)
_SOLVER_ERRORS = (
    errors.BelowRoundingFloor,
    errors.ConeEscape,
    errors.ContinuationStalled,
    errors.MaxItersExceeded,
    errors.LinearSolveStalled,
    errors.IndefiniteCoefficients,
    errors.OutsideCone,
)
_CONTRACT_ERRORS = (errors.SubsolutionInvalid, errors.NotAdmissible)


@dataclass
class RunConfig:
    mode: str
    spec_path: Path
    out_dir: Path
    seed: int = 0
    tol: float | None = None
    trials: int = 10000
    csv: bool = True

    def validate(self) -> None:
        if self.mode not in MODES:
            raise errors.ValidationError("mode", f"unknown mode {self.mode!r}")
        if not self.spec_path.is_file():
            raise errors.ValidationError("spec", f"spec path {self.spec_path} not readable")
        if self.tol is not None and not (math.isfinite(self.tol) and self.tol > 0):
            raise errors.ValidationError(
                "tol", f"tolerance must be finite and positive, got {self.tol}"
            )
        if self.trials < 1:
            raise errors.ValidationError("trials", f"need at least one trial, got {self.trials}")
        if self.seed < 0:
            raise errors.ValidationError("seed", f"seed must be >= 0, got {self.seed}")
        # checked before any build: a solve would otherwise die in mkdir at its end
        existing = next(p for p in (self.out_dir, *self.out_dir.parents) if os.path.lexists(p))
        if not existing.is_dir():
            raise errors.ValidationError(
                "out", f"output directory {self.out_dir}: {existing} is not a directory"
            )


def _newton_tol(doc, config: RunConfig) -> float | None:
    """The ``--tol`` flag, else the spec's newton_tol (None: the solver's default)."""
    return doc.newton_tol if config.tol is None else config.tol


def _base_report(title: str, config: RunConfig, doc) -> Report:
    report = Report(title)
    report.record("mode", config.mode)
    report.record("spec", config.spec_path.name)
    report.record("seed", config.seed)
    report.record("n", doc.n)
    report.record("p", doc.p)
    report.record("geometry", doc.geometry)
    if doc.label:
        report.record("label", doc.label)
    return report


def _write(report: Report, config: RunConfig) -> None:
    config.out_dir.mkdir(parents=True, exist_ok=True)
    (config.out_dir / "report.txt").write_text(report.render())


def _run_solve(doc, config: RunConfig) -> int:
    if config.mode == "radial-solve" and doc.geometry != "radial":
        raise errors.ValidationError("mode", "radial-solve requires a radial spec")
    problem = build_problem(doc)
    start = initial_values_from(doc, problem)
    report = _base_report("garding solve report", config, doc)
    try:
        u, diag = continuity_solve(problem, newton_tol=_newton_tol(doc, config),
                                   initial_values=start)
    except _SOLVER_ERRORS + _CONTRACT_ERRORS as exc:
        report.record("status", "failed")
        report.record("failure", type(exc).__name__)
        report.record("message", str(exc))
        accepted = attempts_into(report, exc.attempts)
        if accepted:
            report.record("t_reached", accepted[-1].t)
        report.line(f"solve failed: {type(exc).__name__}: {exc}")
        _write(report, config)
        raise
    diagnostics_into(report, diag)
    err = float(np.abs(u - problem.phi).max())
    report.record("reference_max_error", err)
    report.line(f"max error against the manufactured target: {err:.3e}")
    if config.csv:
        config.out_dir.mkdir(parents=True, exist_ok=True)
        write_solution_csv(config.out_dir / "fields.csv", problem, u, diag)
        report.record("csv", "fields.csv")
    _write(report, config)
    return EXIT_OK


def _run_verify_subsolution(doc, config: RunConfig) -> int:
    problem = build_problem(doc)
    report = _base_report("garding subsolution report", config, doc)
    try:
        verify_subsolution(problem)
    except errors.SubsolutionInvalid as exc:
        report.record("subsolution_valid", False)
        report.record("witness_node", tuple(np.atleast_1d(exc.node).tolist())
                      if exc.node is not None else "unknown")
        report.line(f"INVALID: {exc}")
        _write(report, config)
        return EXIT_CONTRACT
    report.record("subsolution_valid", True)
    report.line("subsolution admissible and at or above the target everywhere")
    _write(report, config)
    return EXIT_OK


def _run_check_operator(doc, config: RunConfig) -> int:
    params = OperatorParams(doc.n, doc.p)
    if config.trials * (doc.n + params.subset_count) > MAX_TRIAL_ENTRIES:
        raise errors.ValidationError("trials", f"{config.trials} x ({doc.n} + C({doc.n}, {doc.p})) "
                                     f"entries exceed the limit of {MAX_TRIAL_ENTRIES}")
    result = structure_check(params, trials=config.trials, seed=config.seed)
    report = _base_report("garding operator structure report", config, doc)
    report.record("trials", config.trials)
    report.record("violations", len(result.violations))
    for name in sorted(result.checks):
        report.record(f"check_{name}", result.checks[name])
    for v in result.violations[:16]:
        report.line(f"violation [{v.prop}] at {np.array2string(v.witness)}: {v.detail}")
    if result.ok:
        report.line(f"all structure properties held over {config.trials} trials")
        _write(report, config)
        return EXIT_OK
    report.line(f"{len(result.violations)} violations recorded")
    _write(report, config)
    return EXIT_CONTRACT


def _run_refine_sweep(doc, config: RunConfig) -> int:
    if not doc.sweep:
        raise errors.ValidationError("sweep", "refine-sweep needs a [sweep] section")
    levels = []
    for grid in doc.sweep:
        problem = build_problem(replace(doc, grid=grid))
        u, diag = continuity_solve(problem, newton_tol=_newton_tol(doc, config))
        levels.append((problem, u, diag))
    rows = c2_ratio_monitor([(p, u) for p, u, _ in levels])
    report = _base_report("garding refinement sweep report", config, doc)
    report.record("levels", tuple(grid.shape[0] for grid in doc.sweep))
    for row, (problem, u, diag) in zip(rows, levels):
        tag = row.label.replace(" ", "_")
        report.record(f"{tag}_spacing", row.spacing)
        report.record(f"{tag}_sup_hessian", row.sup_hessian)
        report.record(f"{tag}_boundary_sup_hessian", row.boundary_sup_hessian)
        report.record(f"{tag}_K", row.K)
        report.record(f"{tag}_ratio_interior", row.ratio_interior)
        report.record(f"{tag}_ratio_boundary", row.ratio_boundary)
        report.record(f"{tag}_final_residual", diag.final_residual)
        report.line(
            f"{row.label}: sup|dd u| {row.sup_hessian:.6f}, K {row.K:.6f}, "
            f"ratios {row.ratio_interior:.6f} / {row.ratio_boundary:.6f}"
        )
    ratios = [row.ratio_interior for row in rows]
    spread = (max(ratios) - min(ratios)) / max(max(ratios), 1e-300)
    report.record("ratio_interior_spread", spread)
    report.line(f"interior ratio spread across levels: {spread:.3e}")
    _write(report, config)
    return EXIT_OK


def run(config: RunConfig) -> int:
    """Execute a run configuration; returns the process exit status."""
    try:
        config.validate()
        text = config.spec_path.read_text()
        doc = parse_document(text)
        if config.mode in ("solve", "radial-solve"):
            return _run_solve(doc, config)
        if config.mode == "verify-subsolution":
            return _run_verify_subsolution(doc, config)
        if config.mode == "check-operator":
            return _run_check_operator(doc, config)
        return _run_refine_sweep(doc, config)
    except _VALIDATION_ERRORS as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _CONTRACT_ERRORS as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="garding",
        description="Dirichlet solver and verification harness for "
        "Monge-Ampere type equations on Garding cones",
    )
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--spec", required=True, help="problem spec path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tol", type=float, default=None,
                        help="newton tolerance override")
    parser.add_argument("--trials", type=int, default=10000,
                        help="randomized trials for check-operator")
    parser.add_argument("--no-csv", action="store_true", help="skip field dumps")
    args = parser.parse_args(argv)
    config = RunConfig(
        mode=args.mode,
        spec_path=Path(args.spec),
        out_dir=Path(args.out),
        seed=args.seed,
        tol=args.tol,
        trials=args.trials,
        csv=not args.no_csv,
    )
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
