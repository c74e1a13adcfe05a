import csv
import io
from pathlib import Path

import numpy as np
import pytest

import garding.report
from garding import cli, errors
from garding.cli import main
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


class TestValidationFailures:
    def test_missing_spec(self, tmp_path):
        status = main(
            ["--mode", "solve", "--spec", str(tmp_path / "nope.spec"), "--out", str(tmp_path)]
        )
        assert status == 2

    def test_invalid_p(self, tmp_path):
        status, _ = run_cli(tmp_path, BOX_SPEC.replace("p = 1", "p = 3"), "solve")
        assert status == 2

    def test_bad_tol(self, tmp_path):
        spec = write(tmp_path, "ok.spec", RADIAL_SPEC)
        status = main(
            ["--mode", "solve", "--spec", str(spec), "--out", str(tmp_path / "o"),
             "--tol", "-1"]
        )
        assert status == 2

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

    @pytest.mark.parametrize("extra", [["--trials", "0"], ["--seed", "-1", "--trials", "10"]])
    def test_out_of_range_run_setting(self, tmp_path, extra):
        status, _ = run_cli(tmp_path, RADIAL_SPEC, "check-operator", extra=extra)
        assert status == 2

    BUMP = BOX_SPEC + "[psi]\nbump_node = 4, 4, 4, 4\nbump_factor = 2\n"

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
    ])
    def test_out_of_contract_spec_number(self, tmp_path, capsys, spec):
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_solver_setting(self, tmp_path):
        spec = RADIAL_SPEC + "[solve]\ndirect_threshold = 100\n"
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2


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
