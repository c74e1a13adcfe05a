import collections
import csv
import io
import itertools
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import garding.operator
import garding.report
import garding.solver
from garding import cli, errors
from garding.cli import main
from garding.operator import MAX_TRIAL_ENTRIES
from garding.report import write_solution_csv
from garding.solver import continuity_solve
from garding.specfile import build_problem, parse_document

from support import bench_checker, stack_coords

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

REPO = Path(__file__).resolve().parent.parent
checker = bench_checker()

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

    def test_marching_spec_from_repo(self, tmp_path, monkeypatch):
        spec = Path(__file__).resolve().parent.parent / "specs" / "radial-n3-p2-march.spec"
        # a subsolution shifted by 10 (s - 1), not 0.25, and a budget of three
        # corrections make the full step fail
        text = spec.read_text().replace("coeffs = -0.25, 0.25, 0.5", "coeffs = -10, 10, 0.5")
        assert "coeffs = -10, 10, 0.5" in text
        monkeypatch.setattr(garding.solver, "MAX_NEWTON_ITERS", 3)
        status, out = run_cli(tmp_path, text, "solve")
        assert status == 0
        report = (out / "report.txt").read_text()
        kv = dict(
            line.split(" = ", 1)
            for line in report.splitlines()
            if " = " in line and not line.startswith("[")
        )
        # a distinct subsolution forces a genuine march and a nonzero anchor gap
        assert int(kv["homotopy_steps"]) >= 3
        assert int(kv["rejected_steps"]) >= 1
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
        status, out = run_cli(tmp_path, spec, "solve")
        assert status == 3
        assert checker.read_report(out / "report.txt")["failure"] == "ConeEscape"

    N1_SPEC = """format_version = 1
[problem]
n = 1
p = 1
geometry = box
[box]
extent = -1, 1, -1, 1
resolution = 9
[solution]
builtin = quadratic
coeff = 1.0
[psi]
scale = 0.9
"""

    def test_init_keeps_the_dirichlet_data(self, tmp_path):
        # an [init] 2% above the target, on the boundary too: the solve keeps
        # the target's boundary values and reaches the solution it reaches
        # without [init] (it took 0.1397 and a 0.04 sandwich violation), to
        # the last digit of the error
        for name, spec, error in (
                ("plain", self.N1_SPEC, "0.11645220588235292"),
                ("init", self.N1_SPEC + "[init]\nbuiltin = quadratic\ncoeff = 1.02\n",
                 "0.1164522058823531")):
            (tmp_path / name).mkdir()
            status, out = run_cli(tmp_path / name, spec, "solve")
            assert status == 0
            report = dict(line.split(" = ", 1)
                          for line in (out / "report.txt").read_text().splitlines()
                          if " = " in line)
            assert report["reference_max_error"] == error
            assert report["sandwich_violation"] == "0.0"

    def test_init_off_the_cone_inside_exits_3(self, tmp_path):
        spec = self.N1_SPEC + "[init]\nbuiltin = quadratic\ncoeff = 1.1\n"
        status, out = run_cli(tmp_path, spec, "solve")
        assert status == 3
        assert checker.read_report(out / "report.txt")["status"] == "failed"

    def test_a_start_with_uneven_axis_weights_solves(self, tmp_path):
        # the axis weights of this start vary across rows; a mean axis stencil
        # that left each axis's last row out of the axis means, but not out of
        # the centre mean, was indefinite here, and the solve exited 3
        spec = Path(__file__).resolve().parent.parent / "bench" / "specs" / "box-n2-p1-r9.spec"
        text = spec.read_text() + "\n[init]\nbuiltin = quadratic\ncoeff = 0.5\n"
        status, _ = run_cli(tmp_path, text, "solve", extra=["--no-csv"])
        assert status == 0

    @pytest.mark.parametrize("mode", ["solve", "verify-subsolution"])
    def test_a_subsolution_off_the_boundary_data_exits_4(self, tmp_path, mode):
        # |z|^2 - 0.5 has the target's Hessian but lies 0.5 below it on the
        # boundary; the solve kept those values and exited 0 at error 0.5
        spec = self.N1_SPEC + ("[subsolution]\nbuiltin = polynomial\nterms = 3\n"
                               "term_1 = 1, 2, 0\nterm_2 = 1, 0, 2\nterm_3 = -0.5, 0, 0\n")
        status, out = run_cli(tmp_path, spec, mode)
        assert status == 4
        report = (out / "report.txt").read_text()
        assert "subsolution differs from the boundary data by 5.000000e-01" in report
        if mode == "verify-subsolution":
            assert "witness_node = (0, 4)" in report
        else:  # the solve failed before its first attempt
            kv = checker.read_report(out / "report.txt")
            assert (kv["failure"], kv["homotopy_steps"]) == ("SubsolutionInvalid", "0")

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
        grid = problem.grid
        pts = stack_coords(grid.coords())
        boundary = grid.boundary_mask()
        for node in np.ndindex(grid.shape):
            row = [repr(float(c)) for c in pts[node]] + [repr(float(u[node]))]
            if not boundary[node]:
                idx = tuple(i - 1 for i in node)
                row += [repr(float(diag.node_margins[idx])), repr(float(diag.node_residual[idx]))]
            else:
                row += ["", ""]
            rows.append(row)
    else:
        s = problem.grid.s
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

    def test_no_list_spans_the_grid(self, tmp_path, monkeypatch):
        # the writer's peak shrinks with the chunk: no column is made into
        # one list over all 2 401 interior nodes (at least 150 kB of floats)
        problem = build_problem(parse_document(BOX_SPEC))
        u, diag = continuity_solve(problem)
        peaks = []
        for chunk in (64, 1 << 30):
            monkeypatch.setattr(garding.report, "CSV_CHUNK", chunk)
            tracemalloc.start()
            try:
                write_solution_csv(tmp_path / "fields.csv", problem, u, diag)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1] / 4

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 30])
    @pytest.mark.parametrize("spec_text", [RADIAL_SPEC, BOX_SPEC], ids=["radial", "box"])
    def test_edge_values_match_the_reference(self, tmp_path, monkeypatch, spec_text, chunk):
        # signed zeros side by side, NaNs of two payloads and both signs, the
        # infinities, the least subnormal and last-bit neighbours in every chunk
        problem = build_problem(parse_document(spec_text))
        monkeypatch.setattr(garding.report, "CSV_CHUNK", chunk)
        rng = np.random.default_rng(3)
        fields = [rng.choice(EDGE_VALUES, size=shape)
                  for shape in (problem.phi.shape, problem.psi.shape, problem.psi.shape)]
        for values in fields:
            values.reshape(-1)[:EDGE_VALUES.size] = EDGE_VALUES
        assert_csv_matches_reference(tmp_path / "fields.csv", problem, *fields)

    @pytest.mark.parametrize("spec_text", [RADIAL_SPEC, BOX_SPEC], ids=["radial", "box"])
    @given(pool=st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=12),
           seed=st.integers(0, 1 << 32), chunk=st.sampled_from([1, 7, 64, 4096]))
    @settings(max_examples=12, deadline=None, database=None, derandomize=True)
    def test_drawn_bit_patterns_match_the_reference(self, spec_text, pool, seed, chunk):
        # few drawn bit patterns spread over the grid, so values repeat within
        # a chunk as the solve's do; any pattern may be a NaN or a subnormal
        problem = build_problem(parse_document(spec_text))
        values = np.concatenate([np.array(pool, dtype=np.int64).view(np.float64), EDGE_VALUES])
        rng = np.random.default_rng(seed)
        fields = [rng.choice(values, size=shape)
                  for shape in (problem.phi.shape, problem.psi.shape, problem.psi.shape)]
        with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as tmp:
            patch.setattr(garding.report, "CSV_CHUNK", chunk)
            assert_csv_matches_reference(Path(tmp) / "fields.csv", problem, *fields)


_EDGE_BITS = [0x7FF8000000000001, 0xFFF0000000000002]  # NaNs: quiet and signalling payloads
EDGE_VALUES = np.concatenate([
    np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 2.0),
              0.1, np.nextafter(0.1, 1.0), -2.5e-308, np.nextafter(-2.5e-308, 0.0), np.nan]),
    np.array(_EDGE_BITS, dtype=np.uint64).view(np.float64),
])


def assert_csv_matches_reference(path, problem, u, margins, residuals):
    """Write ``u`` with the crafted margins and residuals and compare the rows
    byte for byte with ``csv.writer`` applied to the per-node reference."""
    diag = types.SimpleNamespace(node_margins=margins, node_residual=residuals)
    write_solution_csv(path, problem, u, diag)
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(reference_csv_rows(problem, u, diag))
    assert path.read_bytes().split(b"\r\n", 2)[2] == expected.getvalue().encode()


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

    def test_violations_exit_4_and_list_the_first_16(self, tmp_path, monkeypatch):
        # a ftilde shifted by 1 breaks the structure properties in 41 of the trials
        ftilde = garding.operator.ftilde_batch
        monkeypatch.setattr(garding.operator, "ftilde_batch", lambda *a: ftilde(*a) + 1.0)
        spec = (REPO / "specs" / "box-n2-p1.spec").read_text()
        status, out = run_cli(tmp_path, spec, "check-operator",
                              extra=["--trials", "200", "--seed", "1"])
        assert status == 4
        lines = (out / "report.txt").read_text().splitlines()
        assert "violations = 41" in lines
        assert sum(line.startswith("violation [") for line in lines) == 16
        assert "41 violations recorded" in lines


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
    def test_an_unknown_flag_is_a_usage_error(self, tmp_path, capsys):
        # the CLI defines no --verbose: argparse rejects it with status 2
        spec = write(tmp_path, "ok.spec", BOX_SPEC)
        with pytest.raises(SystemExit) as exc_info:
            main(["--mode", "solve", "--spec", str(spec), "--out", str(tmp_path), "--verbose"])
        assert exc_info.value.code == 2
        assert "unrecognized arguments: --verbose" in capsys.readouterr().err

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

    @pytest.mark.parametrize("setting", [
        "max_newton_iters = 50", "t_step_init = 0.25", "t_step_min = 1e-6", "t_step_max = 0.5",
        "t_growth = 1.5", "easy_iters = 3", "margin_keep = 0.1", "alpha_min = 9.5367431640625e-07",
        "linear_tol_floor = 1e-12", "linear_tol_cap = 1e-4", "compute_barrier = true",
        "barrier_tau = 0.05", "barrier_N = 50", "barrier_delta = 0.4",
    ])
    def test_only_newton_tol_is_a_setting(self, tmp_path, capsys, setting):
        # the continuation, damping, linear-tolerance and barrier constants are
        # not settings; a spec naming one fails even with its value
        status, _ = run_cli(tmp_path, BOX_SPEC + f"[solve]\n{setting}\n", "solve")
        assert status == 2
        key = setting.split(" = ")[0].lower()
        assert f"unknown solver setting {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["verify-subsolution", "check-operator"])
    def test_every_mode_rejects_an_unknown_solver_setting(self, tmp_path, capsys, mode):
        status, _ = run_cli(tmp_path, BOX_SPEC + "[solve]\nmargin_keep = 0.1\n", mode)
        assert status == 2
        assert "unknown solver setting 'margin_keep'" in capsys.readouterr().err

    BOX_N1 = BOX_SPEC.replace("n = 2", "n = 1").replace(
        "extent = -1, 1, -1, 1, -1, 1, -1, 1", "extent = -1e-200, 1e-200, -1e-200, 1e-200")
    RADIAL_41 = RADIAL_SPEC.replace("points = 201", "points = 41")

    @pytest.mark.parametrize("spec, key", [
        pytest.param(BOX_N1, "extent", id="box-1e-200"),
        pytest.param(BOX_N1.replace("1e-200", "1e-154"), "extent", id="box-1e-154"),
        pytest.param(RADIAL_41.replace("radius = 1.0", "radius = 1e-200"), "radius",
                     id="radial-1e-200"),
        pytest.param(RADIAL_41.replace("radius = 1.0", "radius = 1e-160"), "radius",
                     id="radial-1e-160"),
    ])
    def test_grid_spacing_below_the_floor(self, tmp_path, capsys, spec, key):
        # second differences over such a spacing overflow or are NaN
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2
        err = capsys.readouterr().err
        assert f"validation error: {key}: " in err and "Warning" not in err

    def test_extent_beyond_the_magnitude_bound(self, tmp_path, capsys):
        # the width of such an interval overflows np.linspace: the grid names
        # the extent before any array is built
        spec = self.BOX_N1.replace("1e-200", "1e308")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2 and caught == []
        assert "validation error: extent: interval (-1e+308, 1e+308) exceeds 2^500" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("mode", ["solve", "verify-subsolution", "check-operator"])
    @pytest.mark.parametrize("tol", ["-1", "0"])
    def test_every_mode_rejects_a_non_positive_tolerance(self, tmp_path, capsys, mode, tol):
        status, _ = run_cli(tmp_path, BOX_SPEC + f"[solve]\nnewton_tol = {tol}\n", mode)
        assert status == 2
        assert "validation error: newton_tol: tolerance must be finite and positive" in (
            capsys.readouterr().err)

    def test_unknown_mode(self, tmp_path, capsys):
        spec = write(tmp_path, "ok.spec", BOX_SPEC)
        config = cli.RunConfig(mode="bogus", spec_path=spec, out_dir=tmp_path / "out")
        assert cli.run(config) == 2
        assert "validation error: mode: unknown mode 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("below", ["", "sub/dir"], ids=["file", "under-a-file"])
    @pytest.mark.parametrize("mode", cli.MODES)
    def test_an_out_that_is_not_a_directory_exits_2_first(self, tmp_path, monkeypatch, capsys,
                                                           mode, below):
        # a solve ran to its end, then died in mkdir with FileExistsError (exit 1)
        def never(*args, **kwargs):
            raise AssertionError(f"{mode} ran before the --out check")

        for name in ("build_problem", "continuity_solve", "structure_check"):
            monkeypatch.setattr(cli, name, never)
        taken = write(tmp_path, "taken", "a file\n")
        out = taken / below if below else taken
        spec = write(tmp_path, "case.spec", RADIAL_SWEEP)
        assert main(["--mode", mode, "--spec", str(spec), "--out", str(out)]) == 2
        assert (f"validation error: out: output directory {out}: {taken} is not a directory"
                in capsys.readouterr().err)
        assert taken.read_text() == "a file\n"

    def test_an_out_through_a_dangling_link_exits_2(self, tmp_path, capsys):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        spec = write(tmp_path, "case.spec", RADIAL_SPEC)
        assert main(["--mode", "solve", "--spec", str(spec), "--out", str(link / "out")]) == 2
        assert f"{link} is not a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["solution", "subsolution", "init"])
    @pytest.mark.parametrize("exponent", ["1.5", "-1"])
    def test_polynomial_exponents_are_non_negative_integers(self, tmp_path, capsys, section,
                                                            exponent):
        # 1.5 was truncated to 1 and -1 read as x^-1; both solved and exited 0
        polynomial = (f"builtin = polynomial\nterms = 2\nterm_1 = 1, 2, 0\n"
                      f"term_2 = 0.01, {exponent}, 0\n")
        spec = ("format_version = 1\n[problem]\nn = 1\np = 1\ngeometry = box\n"
                "[box]\nextent = 0.5, 1, 0.5, 1\nresolution = 9\n"
                "[solution]\nbuiltin = quadratic\n")
        if section == "solution":
            spec = spec.replace("builtin = quadratic\n", polynomial)
        else:
            spec += f"[{section}]\n{polynomial}"
        status, _ = run_cli(tmp_path, spec, "solve")
        assert status == 2
        err = capsys.readouterr().err
        assert f"{section}: term_2 needs a coefficient and 2 non-negative integer exponents" in err

    def test_box_initial_values_setting_points_to_init(self, tmp_path, capsys):
        status, _ = run_cli(tmp_path, BOX_SPEC + "[solve]\ninitial_values = 1\n", "solve")
        assert status == 2
        assert "[init]" in capsys.readouterr().err

    def test_mixed_case_setting_is_applied(self, tmp_path):
        # the parser lowercases keys; NEWTON_TOL must still be reachable
        spec = write(tmp_path, "case.spec", BOX_SPEC + "[solve]\nNEWTON_TOL = 1e-9\n")
        config = cli.RunConfig(mode="solve", spec_path=spec, out_dir=tmp_path / "out")
        assert cli._newton_tol(parse_document(spec.read_text()), config) == 1e-9

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

    # checks on built arrays: only a solve builds and checks every one of them
    BUILT_ARRAY_ROWS = {"chi-beyond-the-magnitude-bound", "box-init-overflow",
                        "box-init-beyond-the-magnitude-bound",
                        "radial-init-beyond-the-magnitude-bound"}

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
        pytest.param(BOX_SPEC + "[init]\nbuiltin = quadratic\ncoeff = 1e308\n", "init values",
                     id="box-init-overflow"),
        pytest.param(BOX_SPEC + "[init]\nbuiltin = quadratic\ncoeff = 1e200\n", "init values",
                     id="box-init-beyond-the-magnitude-bound"),
        pytest.param(RADIAL_SPEC + "[init]\nbuiltin = quadratic\ncoeff = 1e308\n", "init values",
                     id="radial-init-beyond-the-magnitude-bound"),
        pytest.param(RADIAL_SPEC.replace("radius = 1.0", "radius = 1e200"), "radius",
                     id="radius-squared-overflow"),
        pytest.param(RADIAL_SPEC.replace("radius = 1.0", "radius = -1"), "radius",
                     id="negative-radius"),
        pytest.param(BOX_SPEC.replace("extent = -1, 1,", "extent = 1, -1,"), "extent",
                     id="empty-extent-interval"),
        pytest.param(BOX_SPEC + "[sweep]\nresolutions = 9, 10\n", "resolution",
                     id="even-sweep-resolution"),
        pytest.param(RADIAL_SPEC + "[sweep]\npoints = 5, 201\n", "points",
                     id="radial-sweep-level-below-the-minimum"),
        pytest.param(RADIAL_SPEC.replace("power = 2", "power = 1e30"), "solution",
                     id="radial-power-above-the-cap"),
        # 73 terms x 31^4 sweep nodes exceed MAX_TERM_NODES; every row is valid
        pytest.param(BOX_SPEC.replace("builtin = quadratic\ncoeff = 1.0", "builtin = polynomial\n"
                                      "terms = 73\n" + "".join(f"term_{i} = 1, {i}, 0, 0, 0\n"
                                                               for i in range(1, 74)))
                     + "[sweep]\nresolutions = 9, 31\n", "solution",
                     id="polynomial-terms-times-nodes-above-the-cap"),
    ])
    def test_rejected_spec_names_the_field(self, tmp_path, capsys, request, spec, field):
        # the parser checks every spec value, so every mode rejects the spec alike
        modes = [["solve"], ["verify-subsolution"], ["check-operator", "--trials", "10"]]
        if request.node.callspec.id in self.BUILT_ARRAY_ROWS:
            modes = modes[:1]
        for mode, *extra in modes:
            status, _ = run_cli(tmp_path, spec, mode, extra=extra)
            assert status == 2, mode
            err = capsys.readouterr().err
            assert "Traceback" not in err
            if field == "empty key":  # a ParseError names the line instead
                assert err.startswith("validation error: line 12: empty key")
            else:
                assert err.startswith(f"validation error: {field}: "), (mode, err)

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


def test_a_tolerance_below_the_rounding_floor_exits_3(tmp_path, capsys):
    # stagnation at the floor halved the homotopy step to its minimum for
    # about 1 s and was reported as a stalled continuation at t = 0.2079
    spec = (Path(__file__).resolve().parent.parent / "specs" / "radial-n3-p2.spec")
    status, out = run_cli(tmp_path, spec.read_text(), "solve", extra=["--tol", "1e-10"])
    assert status == 3
    message = "newton_tol 1.0e-10 is below the residual's rounding floor 8.9e-10 on this grid"
    assert message in capsys.readouterr().err
    # the failed solve writes its report and no CSV: the t = 0 solve was
    # accepted, the attempt at t = 1 failed
    kv = checker.read_report(out / "report.txt")
    assert (kv["status"], kv["failure"]) == ("failed", "BelowRoundingFloor")
    assert message in kv["message"]
    assert (kv["t_reached"], kv["homotopy_steps"], kv["rejected_steps"]) == ("0.0", "1", "1")
    assert kv["newton_iters_total"] == "0" and float(kv["min_margin_final"]) > 0
    assert not (out / "fields.csv").exists()


def test_a_failed_solve_report_names_the_failure(tmp_path, capsys):
    # a start outside the cone: the t = 0 attempt fails, so no t is reached
    spec = REPO / "bench" / "specs" / "box-n2-p1-r9.spec"
    text = spec.read_text() + "\n[init]\nbuiltin = quadratic\ncoeff = -1\n"
    status, out = run_cli(tmp_path, text, "solve")
    assert status == 3
    assert capsys.readouterr().err.startswith("solver failure: initial iterate not admissible")
    kv = checker.read_report(out / "report.txt")
    assert kv["failure"] == "ConeEscape" and kv["status"] == "failed"
    assert kv["message"].startswith("initial iterate not admissible at node ")
    assert (kv["homotopy_steps"], kv["rejected_steps"], kv["newton_iters_total"]) == \
        ("0", "1", "0")
    assert "t_reached" not in kv and "min_margin_final" not in kv
    assert sorted(p.name for p in out.iterdir()) == ["report.txt"]


def spec_up_to_solution(path: str) -> str:
    """The repo spec at ``path`` up to its ``[solution]`` section."""
    text = (Path(__file__).resolve().parent.parent / path).read_text()
    return text[:text.index("[solution]")]


@pytest.mark.parametrize("text, node, message", [
    pytest.param(spec_up_to_solution("bench/specs/box-n2-p1-r9.spec")
                 + "[solution]\nbuiltin = quadratic\ncoeff = 1e-300\n",
                 (1, 2, 1, 1), "pivot 1.000000e-300 at/below boundary", id="box"),
    pytest.param(spec_up_to_solution("specs/radial-n3-p2.spec").replace("chi = 1.0", "chi = 0")
                 + "[solution]\nbuiltin = quadratic\ncoeff = 1e-301\n",
                 0, "subset sum 2.000000e-301 at/below boundary", id="radial"),
])
def test_a_failure_at_a_stack_row_names_its_grid_node(tmp_path, capsys, text, node, message):
    # the linearization kernels fail at a row of their stack of interior
    # nodes; these said "row 49" (of the 7^4 box interior) and "row 0"
    status, _ = run_cli(tmp_path, text, "solve")
    assert status == 3
    err = capsys.readouterr().err
    assert err == f"solver failure: node {node}: {message}\n"
    assert "row" not in err
    with pytest.raises(errors.OutsideCone) as exc_info:
        continuity_solve(build_problem(parse_document(text)))
    assert exc_info.value.node == node


EXIT_STATUS = {
    errors.ParseError: 2,
    errors.ValidationError: 2,
    errors.ConeEscape: 3,
    errors.ContinuationStalled: 3,
    errors.BelowRoundingFloor: 3,
    errors.MaxItersExceeded: 3,
    errors.LinearSolveStalled: 3,
    errors.IndefiniteCoefficients: 3,
    errors.OutsideCone: 3,
    errors.SubsolutionInvalid: 4,
    errors.NotAdmissible: 4,
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


@pytest.mark.parametrize("spec", ["bench/specs/box-n2-p1-r13.spec", "bench/specs/box-n3-p2-r9.spec"],
                         ids=["n2-r13", "n3-r9"])
def test_box_outputs_do_not_depend_on_the_blas_thread_count(tmp_path, spec):
    # a BLAS dot product splits a long sum across threads: BiCGStab's dot
    # products and norms moved the last digits of box outputs with the count.
    # At r9 the vectors are too short for OpenBLAS to split; r13's are not.
    # The analysis is a BLAS product of its table and the difference stack,
    # which reaches its n = 3 shape only on the n3 spec
    if len(os.sched_getaffinity(0)) < 2:
        warnings.warn("one core: OpenBLAS runs one thread at either setting, "
                      "so this test cannot fail here")
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        argv = ["--mode", "solve", "--spec", str(REPO / spec), "--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "garding.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("report.txt", "fields.csv")])
    assert outputs[0] == outputs[1]


FLOATS = st.floats(-3.0, 3.0).map(repr)
# two draws in three are admissible coefficients, so most targets build, and
# two in three [init] coefficients are not, so most starts leave the cone
COEFFS = st.one_of(st.floats(0.25, 3.0).map(repr), st.floats(0.25, 3.0).map(repr), FLOATS)
BAD_COEFFS = st.one_of(st.floats(-3.0, -0.25).map(repr), st.floats(-3.0, -0.25).map(repr), FLOATS)
SOLVE_LINES = st.sampled_from(["newton_tol = 1e-9", "newton_tol = 0", "newton_tol = -1",
                               "max_newton_iters = 3"])
# past the node cap, like the n = 10 boxes and the sweep level 33 below
OVERSIZE_POINTS = 10**12
RARELY = st.sampled_from([False] * 7 + [True])


def box_bubble_terms(n: int, coeff: str, k: float) -> list:
    """Polynomial terms of coeff |z|^2 - k prod_a (1 - x_a^2) on [-1, 1]^2n:
    the target minus a multiple of a function that vanishes on the boundary."""
    terms = {}
    for subset in itertools.product((0, 1), repeat=2 * n):
        terms[subset] = -k * (-1.0) ** sum(subset)
        if sum(subset) == 1:
            terms[subset] += float(coeff)
    return [f"{c!r}, " + ", ".join(str(2 * e) for e in expo) for expo, c in terms.items()]


@st.composite
def small_specs(draw):
    """A small radial (9-41 points) or n = 2, resolution-9 box spec and a mode.

    Numbers come from modest ranges biased toward admissible targets, so
    draws reach every exit status: solves that converge, inadmissible
    targets, cone escapes from a bad [init], bad settings and grids past the
    node cap.  A drawn [subsolution] takes the target's boundary values: on
    a box it is the target minus k prod_a (1 - x_a^2), on a ball the target
    plus k (s - R^2).
    """
    geometry = draw(st.sampled_from(["radial", "box"]))
    if geometry == "radial":
        n = draw(st.integers(1, 4))
    else:
        n = 10 if draw(RARELY) else 2
    p = draw(st.integers(1, min(n, 2) if geometry == "box" else n))
    lines = ["format_version = 1", "[problem]", f"n = {n}", f"p = {p}", f"geometry = {geometry}"]
    k = draw(st.floats(-0.25, 1.0))
    if geometry == "radial":
        points = OVERSIZE_POINTS if draw(RARELY) else draw(st.integers(9, 41))
        radius = draw(st.floats(0.25, 2.0))
        lines += ["[radial]", f"radius = {radius!r}", f"points = {points}", f"chi = {draw(COEFFS)}"]
        family = draw(st.sampled_from(["quadratic", "radial-power", "radial-poly"]))

        def profile(numbers):
            """(spec lines of a profile in the drawn family, its radial-poly coefficients)."""
            if family == "quadratic":
                c = draw(numbers)
                return [f"coeff = {c}"], [0.0, float(c)]
            if family == "radial-power":
                power, scale = draw(st.integers(1, 3)), draw(numbers)
                return ([f"power = {power}", f"scale = {scale}"],
                        [0.0] * power + [float(scale) / power])
            coeffs = draw(st.lists(numbers, min_size=1, max_size=3))
            return ["coeffs = " + ", ".join(coeffs)], [float(c) for c in coeffs]

        def function(section):
            body, _ = profile(BAD_COEFFS)
            return [f"[{section}]", f"builtin = {family}", *body]

        def subsolution(target):
            coeffs = target + [0.0] * (2 - len(target))
            coeffs[0] -= k * radius * radius
            coeffs[1] += k
            return ["[subsolution]", "builtin = radial-poly",
                    "coeffs = " + ", ".join(map(repr, coeffs))]

        sweep = "points = " + ", ".join(
            str(x) for x in draw(st.lists(st.integers(9, 41), min_size=2, max_size=3)))
        bump = f"bump_node = {draw(st.integers(0, min(points, 41) - 2))}"
        target_lines, target = profile(COEFFS)
        lines += ["[solution]", f"builtin = {family}", *target_lines]
    else:
        lines += ["[box]", "extent = " + ", ".join(["-1, 1"] * (2 * n)), "resolution = 9"]
        if draw(st.booleans()):
            lines += ["[chi]", "diag = " + ", ".join(draw(COEFFS) for _ in range(n))]

        def function(section):
            return [f"[{section}]", "builtin = quadratic", f"coeff = {draw(BAD_COEFFS)}"]

        def subsolution(coeff):
            if n == 10:  # 2^20 terms; the grid is past the node cap anyway
                return function("subsolution")
            terms = box_bubble_terms(n, coeff, k)
            return ["[subsolution]", "builtin = polynomial", f"terms = {len(terms)}",
                    *(f"term_{i} = {t}" for i, t in enumerate(terms, 1))]

        sweep = "resolutions = 9, " + draw(st.sampled_from(["9", "11", "13", "33"]))
        bump = "bump_node = " + ", ".join(str(draw(st.integers(1, 7))) for _ in range(2 * n))
        target = draw(COEFFS)
        lines += ["[solution]", "builtin = quadratic", f"coeff = {target}"]
    if draw(st.booleans()):
        lines += subsolution(target)
    if draw(st.booleans()):
        lines += function("init")
    if draw(st.booleans()):
        lines += ["[psi]", f"scale = {draw(st.floats(0.5, 2.0))!r}", bump,
                  f"bump_factor = {draw(st.floats(0.5, 2.0))!r}"]
    if draw(st.integers(0, 3)) == 0:  # three of the four lines exit 2
        lines += ["[solve]", draw(SOLVE_LINES)]
    if draw(st.booleans()):
        lines += ["[sweep]", sweep]
    mode = draw(st.sampled_from(["solve", "solve", "verify-subsolution", "check-operator",
                                 "refine-sweep"]))
    return "\n".join(lines) + "\n", mode


def test_exit_status_is_in_the_contract(capsys):
    seen = collections.Counter()

    @settings(max_examples=150, deadline=10_000, database=None, derandomize=True)
    @given(case=small_specs())
    def run(case):
        text, mode = case
        with tempfile.TemporaryDirectory() as tmp:
            spec = Path(tmp) / "case.spec"
            spec.write_text(text)
            argv = ["--mode", mode, "--spec", str(spec), "--out", str(Path(tmp) / "out"),
                    "--trials", "20"]
            status = main(argv)
        assert status in (0, 2, 3, 4)
        if status in (3, 4):  # a failure names grid nodes, not rows of a stack
            assert not [line for line in capsys.readouterr().err.splitlines() if "row " in line]
        event(f"{mode}: exit {status}")
        seen[mode, status] += 1

    run()
    # the draws reach a converged solve, a solver failure and every mode
    assert seen["solve", 0] > 0, seen
    assert any(status == 3 for _, status in seen), seen
    assert {mode for mode, _ in seen} == {"solve", "verify-subsolution", "check-operator",
                                          "refine-sweep"}, seen
