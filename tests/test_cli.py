import csv
import io
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garding.report
from garding import cli, errors
from garding.cli import main
from garding.operator import MAX_TRIAL_ENTRIES
from garding.report import write_solution_csv
from garding.solver import continuity_solve
from garding.specfile import build_problem, parse_document

RADIAL_SPEC = """format_version = 1
[problem]
n = 3
p = 2
geometry = radial
[radial]
radius = 1.0
points = 201
chi = 1.0
[solution]
builtin = radial-power
power = 2
scale = 1.0
"""

BOX_SPEC = """format_version = 1
[problem]
n = 2
p = 1
geometry = box
[box]
extent = -1, 1, -1, 1, -1, 1, -1, 1
resolution = 9
[solution]
builtin = quadratic
coeff = 1.0
"""

RADIAL_SWEEP = RADIAL_SPEC + """[sweep]
points = 101, 201
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(tmp_path, spec_text, mode, extra=(), name="case.spec"):
    spec = write(tmp_path, name, spec_text)
    out = tmp_path / "out"
    argv = ["--mode", mode, "--spec", str(spec), "--out", str(out), *extra]
    return main(argv), out


class TestSolveMode:
    def test_radial_solve_end_to_end(self, tmp_path):
        status, out = run_cli(tmp_path, RADIAL_SPEC, "solve")
        assert status == 0
        report = (out / "report.txt").read_text()
        assert "final_residual" in report
        assert (out / "fields.csv").is_file()
        # residual and error are recorded in the key-value block
        kv = dict(
            line.split(" = ", 1)
            for line in report.splitlines()
            if " = " in line and not line.startswith("[")
        )
        assert float(kv["final_residual"]) <= 1e-9
        assert float(kv["reference_max_error"]) <= 1e-8
        assert float(kv["anchor_residual"]) == 0.0

    def test_radial_solve_mode_alias(self, tmp_path):
        status, _ = run_cli(tmp_path, RADIAL_SPEC, "radial-solve")
        assert status == 0

    def test_marching_spec_from_repo(self, tmp_path):
        spec = Path(__file__).resolve().parent.parent / "specs" / "radial-n3-p2-march.spec"
        out = tmp_path / "out"
        status = main(["--mode", "solve", "--spec", str(spec), "--out", str(out)])
        assert status == 0
        report = (out / "report.txt").read_text()
        kv = dict(
            line.split(" = ", 1)
            for line in report.splitlines()
            if " = " in line and not line.startswith("[")
        )
        # a distinct subsolution forces a genuine march and a nonzero anchor gap
        assert int(kv["homotopy_steps"]) >= 3
        assert int(kv["newton_iters_total"]) >= 2
        assert float(kv["reference_max_error"]) <= 1e-8

    def test_radial_solve_rejects_box(self, tmp_path):
        status, _ = run_cli(tmp_path, BOX_SPEC, "radial-solve")
        assert status == 2

    def test_box_solve(self, tmp_path):
        status, out = run_cli(tmp_path, BOX_SPEC, "solve")
        assert status == 0
        csv_lines = (out / "fields.csv").read_text().splitlines()
        # header rows + one row per node
        assert len(csv_lines) == 2 + 9**4

    def test_cone_escape_exit_status(self, tmp_path):
        spec = BOX_SPEC + "\n[init]\nbuiltin = quadratic\ncoeff = -1\n"
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 3

    @pytest.mark.parametrize("spec_text", [RADIAL_SPEC, BOX_SPEC], ids=["radial", "box"])
    def test_determinism_byte_identical(self, tmp_path, spec_text):
        status1, out1 = run_cli(tmp_path, spec_text, "solve", name="a.spec")
        report1 = (out1 / "report.txt").read_bytes()
        csv1 = (out1 / "fields.csv").read_bytes()
        (out1 / "report.txt").unlink()
        status2, out2 = run_cli(tmp_path, spec_text, "solve", name="a.spec")
        assert status1 == status2 == 0
        assert (out2 / "report.txt").read_bytes() == report1
        assert (out2 / "fields.csv").read_bytes() == csv1


def reference_csv_rows(problem, u, diag):
    """Per-node rows formatted one node at a time: repr of each float, and
    empty margin and residual cells off the interior."""
    rows = []
    if problem.geometry == "box":
        grid = problem.box.grid
        pts = grid.points()
        for node in np.ndindex(grid.shape):
            row = [repr(float(c)) for c in pts[node]] + [repr(float(u.values[node]))]
            if grid.is_interior(node):
                idx = tuple(i - 1 for i in node)
                row += [repr(float(diag.node_margins[idx])), repr(float(diag.node_residual[idx]))]
            else:
                row += ["", ""]
            rows.append(row)
    else:
        s = problem.radial.grid.s
        for i in range(len(s)):
            row = [repr(float(s[i])), repr(float(u[i]))]
            if i < len(s) - 1:
                row += [repr(float(diag.node_margins[i])), repr(float(diag.node_residual[i]))]
            else:
                row += ["", ""]
            rows.append(row)
    return rows


class TestSolutionCsv:
    @pytest.mark.parametrize("spec_text", [RADIAL_SPEC, BOX_SPEC], ids=["radial", "box"])
    def test_table_matches_per_node_reference(self, tmp_path, spec_text):
        problem = build_problem(parse_document(spec_text))
        u, diag = continuity_solve(problem)
        path = tmp_path / "fields.csv"
        write_solution_csv(path, problem, u, diag)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "csv_format_version=1"
        assert len(rows[0]) == len(rows[1]) == len(rows[2])
        assert rows[1][-3:] == ["u", "cone_margin", "ftilde_residual"]
        assert rows[2:] == reference_csv_rows(problem, u, diag)
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(rows)
        assert path.read_bytes() == expected.getvalue().encode()

    @pytest.mark.parametrize("spec_text", [RADIAL_SPEC, BOX_SPEC], ids=["radial", "box"])
    def test_chunked_rows_equal_one_chunk(self, tmp_path, monkeypatch, spec_text):
        # 7 rows per chunk puts chunk ends inside boundary and interior runs
        problem = build_problem(parse_document(spec_text))
        u, diag = continuity_solve(problem)
        written = []
        for chunk in (7, 1 << 30):
            monkeypatch.setattr(garding.report, "CSV_CHUNK", chunk)
            path = tmp_path / f"fields-{chunk}.csv"
            write_solution_csv(path, problem, u, diag)
            written.append(path.read_bytes())
        assert written[0] == written[1]


class TestVerifyMode:
    def test_valid_subsolution(self, tmp_path):
        status, out = run_cli(tmp_path, RADIAL_SPEC, "verify-subsolution")
        assert status == 0
        assert "subsolution_valid = true" in (out / "report.txt").read_text()

    def test_inflated_psi_reports_witness(self, tmp_path):
        spec = RADIAL_SPEC + "[psi]\nbump_node = 77\nbump_factor = 1.1\n"
        status, out = run_cli(tmp_path, spec, "verify-subsolution")
        assert status == 4
        report = (out / "report.txt").read_text()
        assert "subsolution_valid = false" in report
        assert "77" in report


class TestCheckOperatorMode:
    def test_clean_run_default_trials(self, tmp_path):
        # default trial count is 10^4; seed 42 must come back clean
        status, out = run_cli(tmp_path, RADIAL_SPEC, "check-operator", extra=["--seed", "42"])
        assert status == 0
        report = (out / "report.txt").read_text()
        assert "violations = 0" in report
        assert "trials = 10000" in report

    def test_seed_determinism(self, tmp_path):
        status1, out = run_cli(
            tmp_path, RADIAL_SPEC, "check-operator", extra=["--seed", "7", "--trials", "500"]
        )
        report1 = (out / "report.txt").read_bytes()
        status2, out = run_cli(
            tmp_path, RADIAL_SPEC, "check-operator", extra=["--seed", "7", "--trials", "500"]
        )
        assert (out / "report.txt").read_bytes() == report1


class TestRefineSweep:
    def test_radial_sweep(self, tmp_path):
        status, out = run_cli(tmp_path, RADIAL_SWEEP, "refine-sweep")
        assert status == 0
        report = (out / "report.txt").read_text()
        assert "ratio_interior_spread" in report

    def test_sweep_requires_section(self, tmp_path):
        status, _ = run_cli(tmp_path, RADIAL_SPEC, "refine-sweep")
        assert status == 2

    @pytest.mark.parametrize("spec", [
        pytest.param(RADIAL_SWEEP + "[psi]\nbump_node = 150\n", id="radial"),
        pytest.param(BOX_SPEC.replace("resolution = 9", "resolution = 11")
                     + "[psi]\nbump_node = 8, 1, 1, 1\n[sweep]\nresolutions = 9, 11\n", id="box"),
    ])
    def test_bump_node_outside_a_sweep_level(self, tmp_path, capsys, spec):
        # node 150 is interior at 201 points but past the end at 101
        status, _ = run_cli(tmp_path, spec, "refine-sweep")
        assert status == 2
        err = capsys.readouterr().err
        assert "validation error: psi:" in err and "Traceback" not in err


class TestValidationFailures:
    def test_missing_spec(self, tmp_path):
        status = main(
            ["--mode", "solve", "--spec", str(tmp_path / "nope.spec"), "--out", str(tmp_path)]
        )
        assert status == 2

    def test_invalid_p(self, tmp_path):
        status, _ = run_cli(tmp_path, BOX_SPEC.replace("p = 1", "p = 3"), "solve")
        assert status == 2

    @pytest.mark.parametrize("mode", ["solve", "check-operator"])
    def test_exponent_with_too_many_subsets(self, tmp_path, mode, capsys):
        # C(40, 20) ~ 1.4e11 subsets: rejected before any is enumerated
        spec = RADIAL_SPEC.replace("n = 3", "n = 40").replace("p = 2", "p = 20")
        start = time.monotonic()
        status, _ = run_cli(tmp_path, spec, mode)
        assert status == 2 and time.monotonic() - start < 1.0
        assert "C(40, 20)" in capsys.readouterr().err

    def test_many_subsets_below_the_cap_solve(self, tmp_path):
        spec = RADIAL_SPEC.replace("n = 3", "n = 8").replace("p = 2", "p = 4")
        status, _ = run_cli(tmp_path, spec.replace("points = 201", "points = 41"), "solve")
        assert status == 0

    def test_bad_tol(self, tmp_path, capsys):
        # a spec newton_tol would replace the CLI's value if it went unchecked
        spec = write(tmp_path, "ok.spec", RADIAL_SPEC + "[solve]\nnewton_tol = 1e-9\n")
        for tol in ("nan", "inf", "-1"):
            status = main(
                ["--mode", "solve", "--spec", str(spec), "--out", str(tmp_path / "o"),
                 "--tol", tol]
            )
            assert status == 2, tol
            assert "validation error: tol:" in capsys.readouterr().err

    BOX_N10 = BOX_SPEC.replace("n = 2", "n = 10").replace(
        "extent = -1, 1, -1, 1, -1, 1, -1, 1", "extent = " + ", ".join(["-1, 1"] * 20)
    )

    @pytest.mark.parametrize("spec, key", [
        pytest.param(BOX_N10, "resolution", id="box-n10-r9"),
        pytest.param(RADIAL_SPEC.replace("points = 201", "points = 1000000000000"), "points",
                     id="radial-points-1e12"),
        pytest.param(BOX_SPEC + "[sweep]\nresolutions = 9, 33\n", "sweep", id="box-sweep-r33"),
        pytest.param(RADIAL_SPEC + "[sweep]\npoints = 201, 1048577\n", "sweep",
                     id="radial-sweep-past-cap"),
        pytest.param(RADIAL_SPEC.replace("n = 3\np = 2", "n = 1000000\np = 1000000"), "points",
                     id="radial-n1e6-p1e6"),
        pytest.param(RADIAL_SPEC.replace("n = 3\np = 2", "n = 10000\np = 1").replace(
            "points = 201", "points = 20001"), "points", id="radial-n1e4-p1"),
    ])
    def test_grid_above_the_node_cap(self, tmp_path, capsys, spec, key):
        # 9^20 and 33^4 nodes, and radial rows 10^6 or 2 x 10^4 wide: rejected
        # before any array is allocated
        start = time.monotonic()
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2 and time.monotonic() - start < 1.0
        err = capsys.readouterr().err
        assert f"validation error: {key}:" in err and "Traceback" not in err

    @pytest.mark.parametrize("setting", [
        "t_step_init = 0", "t_growth = 0.5", "max_newton_iters = -1", "max_newton_iters = 2.5",
        "newton_tol = -1", "linear_tol_floor = 0", "t_step_max = 1.5", "t_step_min = 0.5",
        "margin_keep = 1", "alpha_min = 0", "initial_values = 1", "barrier_tau = -1",
        "barrier_delta = -1", "barrier_N = 0", "easy_iters = -3", "compute_barrier = 2",
        "newton_tol = true", "validate = 1",
        "t_step_init = 1e-300\nt_step_min = 1e-300\nt_growth = 1",
    ])
    def test_out_of_range_solver_setting(self, tmp_path, setting):
        spec = RADIAL_SPEC.replace("points = 201", "points = 41") + f"[solve]\n{setting}\n"
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2

    def test_box_initial_values_setting_points_to_init(self, tmp_path, capsys):
        status, _ = run_cli(tmp_path, BOX_SPEC + "[solve]\ninitial_values = 1\n", "solve")
        assert status == 2
        assert "[init]" in capsys.readouterr().err

    def test_mixed_case_setting_is_applied(self, tmp_path):
        # the parser lowercases keys; barrier_N must still be reachable
        spec = write(tmp_path, "case.spec", BOX_SPEC + "[solve]\nbarrier_N = 60\nbarrier_tau = 0.1\n")
        config = cli.RunConfig(mode="solve", spec_path=spec, out_dir=tmp_path / "out")
        sc = cli._solve_config(parse_document(spec.read_text()), config)
        assert (sc.barrier_N, sc.barrier_tau) == (60.0, 0.1)

    def test_trials_past_the_entry_cap(self, tmp_path, monkeypatch, capsys):
        # 3 + C(3, 2) = 6 entries per trial; the cap must act before any array
        def allocate(*args, **kwargs):
            raise AssertionError("structure_check ran past the trial cap")

        monkeypatch.setattr(cli, "structure_check", allocate)
        trials = MAX_TRIAL_ENTRIES // 6 + 1
        status, _ = run_cli(tmp_path, RADIAL_SPEC, "check-operator", extra=["--trials", str(trials)])
        assert status == 2
        assert "validation error: trials:" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--trials", "0"], ["--seed", "-1", "--trials", "10"]])
    def test_out_of_range_run_setting(self, tmp_path, extra):
        status, _ = run_cli(tmp_path, RADIAL_SPEC, "check-operator", extra=extra)
        assert status == 2

    BUMP = BOX_SPEC + "[psi]\nbump_node = 4, 4, 4, 4\nbump_factor = 2\n"
    # psi = M_p is a product of C(40, 2) = 780 subset sums: inf at 152 of 200 nodes
    PSI_OVERFLOW = RADIAL_SPEC.replace("n = 3", "n = 40")
    # 1e308 (x1^2 + y1^2) overflows at the corners, and its Hessian 2e308 everywhere
    TARGET_OVERFLOW = BOX_SPEC.replace(
        "builtin = quadratic\ncoeff = 1.0",
        "builtin = polynomial\nterms = 2\nterm_1 = 1e308, 2, 0, 0, 0\nterm_2 = 1e308, 0, 2, 0, 0")

    @pytest.mark.parametrize("spec", [
        pytest.param(BOX_SPEC.replace("resolution = 9", "resolution = nan"), id="resolution-nan"),
        pytest.param(BOX_SPEC.replace("resolution = 9", "resolution = inf"), id="resolution-inf"),
        pytest.param(BOX_SPEC.replace("resolution = 9", "resolution = 1e400"),
                     id="resolution-1e400"),
        pytest.param(BOX_SPEC + "[psi]\nscale = nan\n", id="psi-scale-nan"),
        pytest.param(BOX_SPEC + "[psi]\nscale = true\n", id="psi-scale-true"),
        pytest.param(BOX_SPEC + "[chi]\ndiag = nan, 0\n", id="chi-diag-nan"),
        pytest.param(BUMP.replace("4, 4, 4, 4", "100, 4, 4, 4"), id="bump-node-past-end"),
        pytest.param(BUMP.replace("4, 4, 4, 4", "0, 4, 4, 4"), id="bump-node-boundary"),
        pytest.param(BUMP.replace("4, 4, 4, 4", "4.5, 4, 4, 4"), id="bump-node-fraction"),
        pytest.param(BUMP.replace("bump_factor = 2", "bump_factor = -1"), id="bump-factor-neg"),
        pytest.param(BUMP.replace("bump_factor = 2", "bump_factor = 0"), id="bump-factor-zero"),
        pytest.param(RADIAL_SPEC + "[psi]\nbump_node = 200\n", id="radial-bump-dirichlet"),
        pytest.param(RADIAL_SPEC + "[psi]\nbump_node = -1\n", id="radial-bump-negative"),
        pytest.param(RADIAL_SPEC.replace("format_version = 1", "format_version = 1.9"),
                     id="version-fraction"),
        pytest.param(RADIAL_SPEC + "[sweep]\npoints = 1001.7, 2001\n", id="sweep-fraction"),
        pytest.param(PSI_OVERFLOW, id="radial-psi-overflow"),
        pytest.param(TARGET_OVERFLOW, id="box-target-overflow"),
    ])
    def test_out_of_contract_spec_number(self, tmp_path, capsys, spec):
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("spec, array", [
        pytest.param(PSI_OVERFLOW, "psi", id="radial-psi-overflow"),
        pytest.param(TARGET_OVERFLOW, "target values", id="box-target-overflow"),
    ])
    def test_non_finite_build_fails_verify_subsolution(self, tmp_path, capsys, spec, array):
        # a NaN deficit psi - M_p(subsolution) is not > tol: it must not reach the check
        status, _ = run_cli(tmp_path, spec, "verify-subsolution")
        assert status == 2
        err = capsys.readouterr().err
        assert f"validation error: {array}: not finite" in err and "Traceback" not in err

    def test_unknown_solver_setting(self, tmp_path):
        spec = RADIAL_SPEC + "[solve]\ndirect_threshold = 100\n"
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2

    POLY_BOX = BOX_SPEC.replace("builtin = quadratic\ncoeff = 1.0",
                                "builtin = polynomial\nterms = 2\nterm_1 = 1, 2, 0, 0, 0")
    RADIAL_POWER = "builtin = radial-power\npower = 2\nscale = 1.0"
    # chi = 3.43e299 builds finite arrays, but a 2-norm over its 2 401 interior
    # right-hand-side entries overflows in the upper barrier's BiCGStab
    NEAR_FLOAT_RANGE = BOX_SPEC.replace("p = 1", "p = 2").replace(
        "coeff = 1.0", "coeff = -3.08e132") + "[chi]\ndiag = 3.43e299, 3.43e299\n"

    @pytest.mark.parametrize("spec, field", [
        pytest.param(BOX_SPEC + "= 3\n", "empty key", id="empty-key"),
        pytest.param(BOX_SPEC.replace("n = 2\n", ""), "n", id="missing-n"),
        pytest.param(BOX_SPEC.replace("geometry = box", "geometry = ball"), "geometry",
                     id="unknown-geometry"),
        pytest.param(BOX_SPEC.replace("extent = -1, 1, -1, 1, -1, 1, -1, 1\n", ""), "extent",
                     id="missing-extent"),
        pytest.param(BOX_SPEC.replace("-1, 1, -1, 1, -1, 1, -1, 1", "-1, 1, -1, 1"), "extent",
                     id="short-extent"),
        pytest.param(BOX_SPEC + "[chi]\ndiag = 1\n", "chi", id="chi-diag-count"),
        pytest.param(BOX_SPEC.replace("builtin = quadratic\n", ""), "solution",
                     id="missing-builtin"),
        pytest.param(RADIAL_SPEC.replace(RADIAL_POWER, "builtin = radial-poly"), "solution",
                     id="radial-poly-without-coeffs"),
        pytest.param(POLY_BOX, "solution", id="missing-term"),
        pytest.param(POLY_BOX.replace("terms = 2", "terms = 1").replace("2, 0, 0, 0", "2, 0"),
                     "solution", id="short-term"),
        pytest.param(BOX_SPEC.replace("builtin = quadratic", "builtin = cubic"), "solution",
                     id="unknown-builtin"),
        pytest.param(BOX_SPEC.split("[solution]")[0], "solution", id="no-solution-section"),
        pytest.param(RADIAL_SPEC + "[sweep]\npoints = 201\n", "sweep", id="one-level-sweep"),
        pytest.param(BOX_SPEC + "[psi]\nscale = 0\n", "psi", id="psi-scale-zero"),
        pytest.param(BOX_SPEC + "[psi]\nscale = -1\n", "psi", id="psi-scale-negative"),
        pytest.param(BOX_SPEC + "[psi]\nbump_node = 4, 4\n", "psi", id="bump-node-length"),
        pytest.param(BOX_SPEC.replace("builtin = quadratic\ncoeff = 1.0", RADIAL_POWER),
                     "builtin", id="radial-family-on-a-box"),
        pytest.param(RADIAL_SPEC.replace(RADIAL_POWER, "builtin = polynomial\nterms = 1\n"
                                                       "term_1 = 1, 2, 0, 0, 0, 0, 0"),
                     "builtin", id="box-family-on-a-ball"),
        pytest.param(NEAR_FLOAT_RANGE, "chi", id="chi-beyond-the-magnitude-bound"),
    ])
    def test_rejected_spec_names_the_field(self, tmp_path, capsys, spec, field):
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if field == "empty key":  # a ParseError names the line instead
            assert err.startswith("validation error: line 12: empty key")
        else:
            assert err.startswith(f"validation error: {field}: ")

    def test_chi_within_the_magnitude_bound_solves(self, tmp_path):
        # RuntimeWarning is an error under the test settings
        spec = self.NEAR_FLOAT_RANGE.replace("3.43e299", "1e150").replace("-3.08e132", "-1e140")
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 0

    def test_psi_beyond_the_magnitude_bound_builds(self, tmp_path):
        # C(10, 5) = 252 subset sums of at least 5 each: psi >= 5^252 ~ 1e176 is
        # finite, and the solver reads it only through its 252nd root
        spec = RADIAL_SPEC.replace("n = 3", "n = 10").replace("p = 2", "p = 5")
        status, _ = run_cli(tmp_path, spec, "verify-subsolution")
        assert status == 0


def test_tol_flag_overrides_the_spec_newton_tol(tmp_path):
    # newton_tol = 1e-12 alone stalls the march; the flag's 1e-3 must win
    spec = (Path(__file__).resolve().parent.parent / "specs" / "radial-n3-p2-march.spec")
    text = spec.read_text() + "\n[solve]\nnewton_tol = 1e-12\n"
    status, out = run_cli(tmp_path, text, "solve", extra=["--tol", "1e-3"])
    assert status == 0
    report = (out / "report.txt").read_text()
    residual = float(report.split("final_residual = ", 1)[1].split()[0])
    assert 1e-12 < residual <= 1e-3


EXIT_STATUS = {
    errors.ParseError: 2,
    errors.ValidationError: 2,
    errors.NotHermitian: 2,
    errors.MetricNotPositive: 2,
    errors.BoundaryNode: 2,
    errors.RadialModeUnsupported: 2,
    errors.ConeEscape: 3,
    errors.ContinuationStalled: 3,
    errors.MaxItersExceeded: 3,
    errors.LinearSolveStalled: 3,
    errors.IndefiniteCoefficients: 3,
    errors.OutsideCone: 3,
    errors.SubsolutionInvalid: 4,
    errors.NotAdmissible: 4,
    errors.NotArrowForm: 4,
}


def test_every_error_class_has_an_exit_status(tmp_path, monkeypatch):
    spec = write(tmp_path, "ok.spec", RADIAL_SPEC)
    argv = ["--mode", "solve", "--spec", str(spec), "--out", str(tmp_path / "o")]
    for cls in errors.GardingError.__subclasses__():
        assert cls in EXIT_STATUS, f"{cls.__name__} has no documented exit status"
        exc = cls.__new__(cls)
        Exception.__init__(exc, "injected")

        def fail(doc, config, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_run_solve", fail)
        assert main(argv) == EXIT_STATUS[cls], cls.__name__


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("mode, spec", [
    pytest.param("solve", "bench/specs/box-n2-p1-r9.spec", id="box"),
    # this spec makes Newton corrections, so it runs the radial band solve
    pytest.param("radial-solve", "specs/radial-n3-p2-march.spec", id="radial"),
])
def test_box_solve_loads_no_scipy(tmp_path, mode, spec):
    # a fresh interpreter: the suite itself has SciPy loaded already
    argv = ["--mode", mode, "--spec", str(REPO / spec), "--out", str(tmp_path), "--no-csv"]
    code = (
        "import sys\n"
        "from garding.cli import main\n"
        f"status = main({argv!r})\n"
        "print(status, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]


FLOATS = st.floats(-3.0, 3.0).map(repr)
SOLVE_LINES = st.sampled_from([
    "newton_tol = 1e-9", "max_newton_iters = 3", "t_step_init = 0.5", "t_step_min = 0.25",
    "compute_barrier = false", "margin_keep = 0.5", "easy_iters = 1", "barrier_N = 2",
    "t_growth = 0.5", "newton_tol = 0", "direct_threshold = 1",
])
# past the node cap, like the n = 10 boxes and the sweep level 33 below
OVERSIZE_POINTS = 10**12


@st.composite
def small_specs(draw):
    """A small radial (9-41 points) or n = 2, resolution-9 box spec and a mode.

    Numbers come from modest ranges that still reach every failure group:
    inadmissible targets, cone escapes from a bad [init], bad settings and
    grids past the node cap.
    """
    geometry = draw(st.sampled_from(["radial", "box"]))
    n = draw(st.integers(1, 4)) if geometry == "radial" else draw(st.sampled_from([2, 2, 2, 10]))
    p = draw(st.integers(1, min(n, 2) if geometry == "box" else n))
    lines = ["format_version = 1", "[problem]", f"n = {n}", f"p = {p}", f"geometry = {geometry}"]
    if geometry == "radial":
        points = OVERSIZE_POINTS if draw(st.integers(0, 7)) == 0 else draw(st.integers(9, 41))
        lines += ["[radial]", f"radius = {draw(st.floats(0.25, 2.0))!r}",
                  f"points = {points}", f"chi = {draw(FLOATS)}"]
        family = draw(st.sampled_from(["quadratic", "radial-power", "radial-poly"]))

        def function(section):
            body = [f"[{section}]", f"builtin = {family}"]
            if family == "quadratic":
                return body + [f"coeff = {draw(FLOATS)}"]
            if family == "radial-power":
                return body + [f"power = {draw(st.integers(1, 3))}", f"scale = {draw(FLOATS)}"]
            coeffs = draw(st.lists(FLOATS, min_size=1, max_size=3))
            return body + ["coeffs = " + ", ".join(coeffs)]

        sweep = "points = " + ", ".join(
            str(x) for x in draw(st.lists(st.integers(9, 41), min_size=2, max_size=3)))
        bump = f"bump_node = {draw(st.integers(0, min(points, 41) - 2))}"
    else:
        lines += ["[box]", "extent = " + ", ".join(["-1, 1"] * (2 * n)), "resolution = 9"]
        if draw(st.booleans()):
            lines += ["[chi]", "diag = " + ", ".join(draw(FLOATS) for _ in range(n))]

        def function(section):
            return [f"[{section}]", "builtin = quadratic", f"coeff = {draw(FLOATS)}"]

        sweep = "resolutions = 9, " + draw(st.sampled_from(["9", "11", "33"]))
        bump = "bump_node = " + ", ".join(str(draw(st.integers(1, 7))) for _ in range(2 * n))
    lines += function("solution")
    if draw(st.booleans()):
        lines += function("subsolution")
    if draw(st.booleans()):
        lines += function("init")
    if draw(st.booleans()):
        lines += ["[psi]", f"scale = {draw(st.floats(0.5, 2.0))!r}", bump,
                  f"bump_factor = {draw(st.floats(0.5, 2.0))!r}"]
    lines += ["[solve]", *draw(st.lists(SOLVE_LINES, max_size=2, unique=True))]
    if draw(st.booleans()):
        lines += ["[sweep]", sweep]
    mode = draw(st.sampled_from(["solve", "verify-subsolution", "check-operator", "refine-sweep"]))
    return "\n".join(lines) + "\n", mode


@settings(max_examples=40, deadline=10_000, database=None, derandomize=True)
@given(case=small_specs())
def test_exit_status_is_in_the_contract(case):
    text, mode = case
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "case.spec"
        spec.write_text(text)
        argv = ["--mode", mode, "--spec", str(spec), "--out", str(Path(tmp) / "out"),
                "--trials", "20"]
        assert main(argv) in (0, 2, 3, 4)
