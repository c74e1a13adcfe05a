import dataclasses
import math
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garding.analytic import RadialProfile, norm_squared, radial_power
from garding.errors import (
    BelowRoundingFloor,
    ConeEscape,
    ContinuationStalled,
    LinearSolveStalled,
    MaxItersExceeded,
    SubsolutionInvalid,
    ValidationError,
)
from garding.grid import BoxGrid
from garding.hermitian import complex_hessian_from, congruence_reduce_batch
from garding.linear import assemble_linearized, solve_sparse
from garding.operator import OperatorParams, determinant_form_batch
from garding.problems import ProblemSpec, manufactured_box, manufactured_radial, verify_subsolution
from garding.radial import RadialGrid
from garding.specfile import build_problem, parse_document, parse_spec
import garding.solver as solver
from garding.solver import (
    _BoxEvaluator,
    _make_evaluator,
    boundary_trace_check,
    c2_ratio_monitor,
    continuity_solve,
    newton_solve_at_t,
    sandwich_check,
)

from support import (
    constant_coefficient_field,
    hessian_operator_apply,
    plane_backed,
    poly_add,
    poly_mul,
    poly_scale,
    re_z1_squared,
    second_difference,
)


SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
BENCH_SPEC_DIR = SPEC_DIR.parent / "bench" / "specs"


def grid_target(n=2):
    """|z|^2 + 0.1 Re(z_1^2) |z|^2 + 0.05 |z|^4, admissible for chi = 0 on [-1, 1]^4.

    The pluriharmonic-weighted term alone is reproduced exactly by the
    stencils (its x^4 / -y^4 truncation errors cancel in the complex
    Hessian), so the radial quartic is added to give the discretization a
    genuine, refinement-sensitive error.
    """
    return (
        poly_add(poly_add(norm_squared(n),
                          poly_scale(0.1, poly_mul(re_z1_squared(n), norm_squared(n)))),
                 poly_scale(0.05, poly_mul(norm_squared(n), norm_squared(n))))
    )


def box_problem(res=13, p=1, **kwargs):
    grid = BoxGrid(2, ((-1, 1),) * 4, res)
    return manufactured_box(grid_target(), np.zeros((2, 2)), OperatorParams(2, p), grid, **kwargs)


def radial_problem(points=201, **kwargs):
    grid = RadialGrid(1.0, points)
    return manufactured_radial(radial_power(2), 1.0, OperatorParams(3, 2), grid, **kwargs)


# |z|^2 on [-1, 1]^2 at resolution 65 with psi scaled by 0.9: one Newton
# correction reaches the rounding floor of the residual
N1_BOX_SPEC = """format_version = 1
[problem]
n = 1
p = 1
geometry = box
[box]
extent = -1, 1, -1, 1
resolution = 65
[solution]
builtin = quadratic
coeff = 1.0
[psi]
scale = 0.9
"""


def accepted(attempts):
    """The accepted rows of a solve's attempts."""
    return [a for a in attempts if a.failure is None]


def shifted_subsolution(c=0.25):
    # u* + c (s - 1): componentwise larger Hessian eigenvalues, same boundary
    return RadialProfile((-c, c, 0.5))


class TestRadialSolve:
    def test_equality_case_recovers_target(self):
        problem = radial_problem()
        u, diag = continuity_solve(problem)
        assert np.abs(u - problem.phi).max() <= 1e-9
        assert diag.final_residual <= 1e-10
        assert diag.anchor_residual == 0.0
        assert all(a.min_margin > 0 for a in accepted(diag.attempts))

    def test_nontrivial_homotopy_marches(self, monkeypatch):
        # three corrections do not reach t = 1 from this far a subsolution,
        # so the full step fails and the solve marches through t
        problem = radial_problem(subsolution_profile=shifted_subsolution(10.0))
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
        u, diag = continuity_solve(problem)
        # the quadratic target is the exact discrete solution
        assert np.abs(u - problem.phi).max() <= 1e-8
        assert diag.final_residual <= 1e-10
        assert len(accepted(diag.attempts)) >= 3  # actually marched through t
        assert len(accepted(diag.attempts)) < len(diag.attempts)  # a step failed
        assert all(a.min_margin > 0 for a in accepted(diag.attempts))

    def test_superlinear_tail(self):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        _, row = newton_solve_at_t(
            problem, 1.0, problem.subsolution, tol=1e-10
        )
        hist = row.residuals
        assert len(hist) >= 3
        assert hist[-1] / hist[-2] <= 0.25

    def test_diagnostics_contracts(self):
        problem = radial_problem()
        u, diag = continuity_solve(problem)
        assert diag.K >= 1.0
        assert diag.F_trace >= 2 - 1e-10  # p = 2
        assert diag.sandwich_violation <= 1e-9
        # tangential trace at s = 1: (n - 1) * (c + u'(1)) = 2 * 2
        assert diag.c0_boundary == pytest.approx(4.0, rel=1e-8)
        assert diag.amgm_min_slack >= -1e-10
        assert diag.barrier_report is None

    def test_uniqueness_from_two_starts(self):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        u1, _ = continuity_solve(problem, newton_tol=1e-11)
        bump = problem.grid.s * (1.0 - problem.grid.s)
        init = problem.subsolution + 0.1 * bump
        u2, _ = continuity_solve(problem, newton_tol=1e-11, initial_values=init)
        assert np.abs(u1 - u2).max() <= 2e-11

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: radial_problem(subsolution_profile=shifted_subsolution()),
                     id="radial"),
        pytest.param(lambda: box_problem(res=9), id="box"),
    ])
    def test_a_start_keeps_the_dirichlet_data(self, build):
        # one grid contract for both geometries: phi has the grid's shape, psi
        # one entry per node off the boundary mask, and a start takes phi on
        # the mask and keeps every other node
        problem = build()
        on_boundary = problem.grid.boundary_mask()
        assert problem.phi.shape == problem.grid.shape
        assert (~on_boundary).sum() == problem.psi.size
        start = problem.subsolution + 0.1
        u = solver._with_dirichlet_data(problem, start)
        assert np.array_equal(u[on_boundary], problem.phi[on_boundary])
        assert np.array_equal(u[~on_boundary], start[~on_boundary])
        # a start off the boundary data: the solve keeps the problem's values
        # there and reaches the solution of the other start
        u1, _ = continuity_solve(problem, newton_tol=1e-11)
        init = problem.subsolution.copy()
        init[on_boundary] += 0.1
        u2, _ = continuity_solve(problem, newton_tol=1e-11, initial_values=init)
        assert np.array_equal(u2[on_boundary], problem.phi[on_boundary])
        assert np.abs(u1 - u2).max() <= 2e-11
        u_t, _ = newton_solve_at_t(problem, 1.0, init, tol=1e-10)
        assert np.array_equal(u_t[on_boundary], problem.phi[on_boundary])
        # the start is not written
        assert np.array_equal(init[on_boundary], problem.phi[on_boundary] + 0.1)

    def test_monotone_in_psi(self):
        base = radial_problem(subsolution_profile=shifted_subsolution())
        smaller = radial_problem(
            subsolution_profile=shifted_subsolution(), psi_scale=0.9
        )
        u_base, _ = continuity_solve(base)
        u_small, _ = continuity_solve(smaller)
        # larger psi pushes the solution down
        assert (u_base - u_small).max() <= 1e-8

    def test_continuation_stalls_with_zero_newton_budget(self, monkeypatch):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 0)
        with pytest.raises(ContinuationStalled):
            continuity_solve(problem)

    def test_failed_attempts_stay_within_the_bound(self, monkeypatch):
        # at the default tolerance 1e-10 (the spec asks for 1e-9) the shipped
        # 2001-point problem reaches the rounding floor of its residual; with
        # the floor test off, the step halves down to T_STEP_MIN near t = 0.208
        monkeypatch.setattr(solver, "FLOOR_MULTIPLE", 0.0)
        problem = build_problem(parse_document((SPEC_DIR / "radial-n3-p2.spec").read_text()))
        with pytest.raises(ContinuationStalled) as exc_info:
            continuity_solve(problem)
        rows = exc_info.value.attempts
        steps = len(accepted(rows)) - 1  # the t = 0 solve is not a step
        assert len(rows) - len(accepted(rows)) <= steps + 20

    def test_max_iters_exceeded_directly(self, monkeypatch):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 1)
        with pytest.raises(MaxItersExceeded):
            newton_solve_at_t(
                problem, 1.0, problem.subsolution, tol=1e-12,
            )


class TestBoxSolve:
    def test_equality_case_recovers_target(self):
        problem = box_problem(res=13)
        u, diag = continuity_solve(problem)
        err = np.abs(u - problem.phi).max()
        assert err <= 5e-3
        assert diag.final_residual <= 1e-8
        assert diag.anchor_residual == 0.0
        assert all(a.min_margin > 0 for a in accepted(diag.attempts))

    def test_error_decreases_with_refinement(self):
        errs = {}
        for res in (9, 13):
            problem = box_problem(res=res)
            u, _ = continuity_solve(problem)
            errs[res] = np.abs(u - problem.phi).max()
        assert errs[13] < errs[9]

    def test_nontrivial_homotopy(self, monkeypatch):
        # two corrections do not reach t = 1: the solve marches through t
        problem = box_problem(res=9, psi_scale=0.85)
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
        u, diag = continuity_solve(problem)
        assert diag.final_residual <= 1e-8
        assert len(accepted(diag.attempts)) >= 3
        assert len(accepted(diag.attempts)) < len(diag.attempts)
        # smaller psi lifts the solution above the subsolution
        assert (u - problem.subsolution).min() >= -1e-10

    def test_diagnostics_contracts(self):
        problem = box_problem(res=9)
        u, diag = continuity_solve(problem)
        assert diag.K >= 1.0
        assert diag.F_trace >= 1 - 1e-10  # p = 1
        err = np.abs(u - problem.phi).max()
        assert diag.sandwich_violation <= 1e-8 + err
        assert diag.c0_boundary > 0
        assert diag.amgm_min_slack >= -1e-10
        assert diag.barrier_report is not None
        assert diag.barrier_report.epsilon > 0

    def test_monotone_in_psi(self):
        base = box_problem(res=9)
        smaller = box_problem(res=9, psi_scale=0.9)
        u_base, _ = continuity_solve(base)
        u_small, _ = continuity_solve(smaller)
        assert (u_base - u_small).max() <= 1e-7

    def test_p_equals_n_reduces_to_linear_solve(self):
        # p = n: the operator is the metric trace and Newton is exact in one
        # step; compare against a direct linear solve of tr(chi + H u) = psi
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        chi = np.eye(2)
        problem = manufactured_box(grid_target(), chi, OperatorParams(2, 2), grid)
        u, diag = continuity_solve(problem)
        assert diag.final_residual <= 1e-9

        coeffs = constant_coefficient_field(grid, np.eye(2, dtype=complex))
        phi_ext = np.zeros(grid.shape)
        mask = grid.boundary_mask()
        phi_ext[mask] = problem.phi[mask]
        bc = hessian_operator_apply(coeffs, phi_ext, grid)
        rhs = problem.psi - float(np.trace(chi).real) - bc
        system = assemble_linearized(coeffs, rhs, grid)
        direct = solve_sparse(system, tol=1e-13) + phi_ext
        assert np.abs(u - direct).max() <= 1e-8

    def test_general_metric_solve(self):
        # anisotropic constant metric: the congruence reduction and the
        # ambient-frame coefficient transport run in the field hot path
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        omega = np.diag([1.0, 2.0])
        problem = manufactured_box(
            grid_target(), 0.25 * np.eye(2), OperatorParams(2, 1), grid, omega=omega
        )
        u, diag = continuity_solve(problem)
        assert diag.final_residual <= 1e-8
        err = np.abs(u - problem.phi).max()
        assert err <= 5e-3
        assert all(a.min_margin > 0 for a in accepted(diag.attempts))
        assert diag.amgm_min_slack >= -1e-10

    def test_general_metric_marching_solve(self, monkeypatch):
        # a distinct subsolution and a budget of two corrections force an
        # actual homotopy under the metric
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        omega = np.diag([1.0, 2.0])
        problem = manufactured_box(
            grid_target(), 0.25 * np.eye(2), OperatorParams(2, 1), grid,
            omega=omega, psi_scale=0.85,
        )
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 2)
        u, diag = continuity_solve(problem)
        assert diag.final_residual <= 1e-8
        assert len(accepted(diag.attempts)) >= 3
        assert len(accepted(diag.attempts)) < len(diag.attempts)
        assert (u - problem.subsolution).min() >= -1e-9

    def test_cone_escape_on_bad_initializer(self):
        problem = box_problem(res=9)
        bad = -2.0 * norm_squared(2).value(problem.grid.coords())
        with pytest.raises(ConeEscape) as exc_info:
            continuity_solve(problem, initial_values=bad)
        assert exc_info.value.node is not None


def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


SCHEDULE_PROBLEM = radial_problem(points=41)
# runs of accepted (True) or failed (False) attempts; a run of 20 or more
# failures reaches the step floor
OUTCOME_RUNS = st.lists(st.tuples(st.booleans(), st.integers(1, 25)), max_size=12)


class TestContinuationSchedule:
    """The step rule alone: each attempt's outcome is drawn, not solved."""

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(OUTCOME_RUNS)
    def test_every_schedule_ends_within_the_bound(self, runs):
        outcomes = [accept for accept, length in runs for _ in range(length)]
        tries, reached, drawn = [], [], []

        def drawn_loop(ev, t, u, start, tol):
            tries.append(t)
            # the t = 0 solve always converges; attempts past the drawn
            # outcomes are accepted
            drawn.append(len(tries) == 1 or not outcomes or outcomes.pop(0))
            if not drawn[-1]:
                raise MaxItersExceeded("drawn failure")
            reached.append(t)
            return u, start, solver.Attempt(t, (0.0,), 1.0, None)

        def attempts_only(problem, ev, u, final, attempts):
            return SimpleNamespace(attempts=attempts)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_newton_loop", drawn_loop)
            mp.setattr(solver, "_diagnostics", attempts_only)
            try:
                _, diag = continuity_solve(SCHEDULE_PROBLEM)
                rows = diag.attempts
            except ContinuationStalled as exc:
                diag, rows = None, exc.attempts

        assert tries[0] == 0.0 and all(0.0 < t <= 1.0 for t in tries[1:])
        assert all(a < b for a, b in zip(reached, reached[1:]))
        accepted, failed = len(reached) - 1, len(tries) - len(reached)
        floor_halvings = math.ceil(math.log2(1.0 / solver.T_STEP_MIN))
        assert failed <= accepted + floor_halvings
        assert accepted <= 1.0 / solver.T_STEP_MIN + 1
        if diag is None:
            assert failed == accepted + floor_halvings  # stalled at the floor
        else:
            assert reached[-1] == 1.0
        # one row per attempt, in order, failed where the outcome was drawn so
        assert [a.t for a in rows] == tries
        assert [a.failure is None for a in rows] == drawn
        assert all(a.failure == "MaxItersExceeded: drawn failure" and a.residuals == ()
                   for a in rows if a.failure is not None)


class TestOneAnalysisPerState:
    def test_each_grid_state_is_decomposed_once(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, solver, "eigvals_batch", counts)
        count_calls(monkeypatch, _BoxEvaluator, "correction", counts)
        continuity_solve(box_problem(res=9, psi_scale=0.85))
        assert counts["correction"] > 0
        # one eigvals_batch of K = A^[p] per analysis: the subsolution and
        # each accepted candidate; every attempt, a restart included, starts
        # from the last accepted analysis.  One more call is the Hessian sup.
        assert counts["eigvals_batch"] == 1 + counts["correction"] + 1

    def test_failed_attempt_restarts_from_its_start_analysis(self, monkeypatch):
        counts = {}
        for name in ("eigvals_batch", "_newton_loop"):
            count_calls(monkeypatch, solver, name, counts)
        correction = _BoxEvaluator.correction
        calls = []

        def failing_once(self, state, resid, rnorm):
            calls.append(rnorm)
            if len(calls) == 2:
                raise LinearSolveStalled("injected")
            return correction(self, state, resid, rnorm)

        monkeypatch.setattr(_BoxEvaluator, "correction", failing_once)
        _, diag = continuity_solve(box_problem(res=9, psi_scale=0.85))
        assert counts["_newton_loop"] - len(accepted(diag.attempts)) == 1
        # the injected failure made no candidate, and the restart starts from
        # the failed attempt's start analysis: no state is analyzed twice
        assert counts["eigvals_batch"] == 1 + (len(calls) - 1) + 1
        assert diag.final_residual <= 1e-8

    @pytest.mark.parametrize("n, p", [(2, 1), (2, 2), (3, 2)])
    def test_box_solve_needs_no_eigenvectors(self, monkeypatch, n, p):
        def no_eigh(*args, **kwargs):
            raise AssertionError("np.linalg.eigh called in a box solve")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        counts = {}
        count_calls(monkeypatch, solver, "determinant_linearization_batch", counts)
        grid = BoxGrid(n, ((-1, 1),) * (2 * n), 9)
        problem = manufactured_box(
            norm_squared(n), np.zeros((n, n)), OperatorParams(n, p), grid, psi_scale=0.9
        )
        _, diag = continuity_solve(problem)
        assert diag.final_residual <= 1e-8 and diag.anchor_residual == 0.0
        assert counts["determinant_linearization_batch"] > 0

    def test_assembly_runs_no_eigen_decomposition(self, monkeypatch):
        import garding.linear as linear

        inside = []
        eigvalsh = np.linalg.eigvalsh

        def guarded_eigvalsh(*args, **kwargs):
            if inside:
                raise AssertionError("eigvalsh called inside assemble_linearized")
            return eigvalsh(*args, **kwargs)

        def tracked(assemble):
            def wrapper(*args, **kwargs):
                inside.append(True)
                try:
                    return assemble(*args, **kwargs)
                finally:
                    inside.pop()
            return wrapper

        counts = {}
        monkeypatch.setattr(np.linalg, "eigvalsh", guarded_eigvalsh)
        monkeypatch.setattr(solver, "assemble_linearized", tracked(solver.assemble_linearized))
        monkeypatch.setattr(linear, "assemble_linearized", tracked(linear.assemble_linearized))
        count_calls(monkeypatch, solver, "assemble_linearized", counts)
        continuity_solve(box_problem(res=9, psi_scale=0.85))
        assert counts["assemble_linearized"] > 0

    def test_states_match_a_fresh_analysis_after_halvings(self, monkeypatch):
        problem = box_problem(res=9, psi_scale=0.85)
        analyze, correction = _BoxEvaluator.analyze, _BoxEvaluator.correction
        seen = {"analyses": 0, "corrections": 0}

        def recording_analyze(self, u):
            seen["analyses"] += 1
            seen["u"] = u.copy()
            return analyze(self, u)

        def checked_correction(self, state, resid, rnorm):
            # the Newton state is the analysis of the last accepted iterate
            fresh = analyze(self, seen["u"])
            self.linearize(fresh)
            assert state.min_margin == fresh.min_margin
            assert np.array_equal(state.ft, fresh.ft)
            seen["corrections"] += 1
            step = correction(self, state, resid, rnorm)
            # the first step, scaled up, leaves the cone: damping halves it
            return 1024.0 * step if seen["corrections"] == 1 else step

        loop, calls, converged = solver._newton_loop, [], []

        def recording_loop(ev, t, u, start, tol):
            # each accepted attempt's iterate, with its row
            calls.append(t)
            u, state, row = loop(ev, t, u, start, tol)
            converged.append((u, row))
            return u, state, row

        monkeypatch.setattr(solver, "_newton_loop", recording_loop)
        monkeypatch.setattr(_BoxEvaluator, "analyze", recording_analyze)
        monkeypatch.setattr(_BoxEvaluator, "correction", checked_correction)
        _, diag = continuity_solve(problem)
        assert seen["analyses"] > 1 + len(calls) + seen["corrections"]
        assert [row for _, row in converged] == accepted(diag.attempts)

        ev, _ = _make_evaluator(problem)
        for u, row in converged:
            fresh = analyze(ev, u)
            ev.linearize(fresh)
            target = row.t * ev.psi_tilde + (1.0 - row.t) * ev.anchor
            assert (row.min_margin, row.min_node) == (fresh.min_margin, fresh.min_node)
            assert row.residuals[-1] == float(np.abs(fresh.ft - target).max())


class TestNoDiscardedWork:
    def test_box_build_makes_no_stacked_points(self, monkeypatch):
        # the build reads per-axis coordinates, each varying along its own
        # axis only; the grid offers no stacked (..., 2n) point array
        shapes = []
        coords = BoxGrid.coords

        def recorded(self, *args, **kwargs):
            out = coords(self, *args, **kwargs)
            shapes.extend(c.shape for c in out)
            return out

        monkeypatch.setattr(BoxGrid, "coords", recorded)
        box_problem(res=9)
        assert shapes and all(sum(k > 1 for k in shape) == 1 for shape in shapes)
        assert not hasattr(BoxGrid, "points") and not hasattr(BoxGrid, "interior_points")

    @pytest.mark.parametrize("build", [lambda: box_problem(res=9, psi_scale=0.85),
                                       lambda: radial_problem(psi_scale=0.85)],
                             ids=["box", "radial"])
    def test_target_values_are_one_read_only_array(self, build):
        # phi and the default subsolution: one copy, and a solve reads it
        # without writing
        problem = build()
        target = problem.phi
        assert problem.subsolution is target
        assert not target.flags.writeable
        before = target.copy()
        continuity_solve(problem)
        assert np.array_equal(target, before)

    def test_states_keep_their_residual_history(self):
        _, diag = continuity_solve(box_problem(res=9, psi_scale=0.85))
        assert diag.attempts[0].residuals[0] == diag.anchor_residual
        assert diag.attempts[-1].residuals[-1] == diag.final_residual
        assert all(a.residuals[-1] <= solver.NEWTON_TOL["box"] for a in accepted(diag.attempts))

    def test_no_row_holds_an_array_or_an_exception(self, monkeypatch):
        # the rows of a marching solve, its failed attempts included, hold
        # plain values: no field and no traceback outlives the attempt
        problem = radial_problem(subsolution_profile=shifted_subsolution(10.0))
        monkeypatch.setattr(solver, "MAX_NEWTON_ITERS", 3)
        _, diag = continuity_solve(problem)
        failed = [a for a in diag.attempts if a.failure is not None]
        assert failed and all(a.failure.startswith(("ConeEscape: ", "MaxItersExceeded: "))
                              for a in failed)

        def plain(value):
            if isinstance(value, tuple):
                return all(plain(v) for v in value)
            return not isinstance(value, (np.ndarray, BaseException))

        assert all(plain(getattr(a, f.name)) for a in diag.attempts
                   for f in dataclasses.fields(a))

    def test_cone_escape_names_alpha_min(self, monkeypatch):
        problem = box_problem(res=9, psi_scale=0.85)
        correction = _BoxEvaluator.correction
        monkeypatch.setattr(_BoxEvaluator, "correction",
                            lambda self, *args: 1e6 * correction(self, *args))
        monkeypatch.setattr(solver, "ALPHA_MIN", 0.25)
        with pytest.raises(ConeEscape, match="no damping factor >= 0.25 keeps"):
            newton_solve_at_t(problem, 1.0, problem.subsolution, tol=1e-8)


class TestSettingsAreChecked:
    def test_continuity_solve_checks_its_config(self):
        with pytest.raises(ValidationError, match="newton_tol"):
            continuity_solve(radial_problem(), newton_tol=-1.0)

    def test_newton_solve_at_t_checks_its_tolerance(self):
        problem = radial_problem()
        with pytest.raises(ValidationError, match="newton_tol"):
            newton_solve_at_t(problem, 1.0, problem.subsolution, tol=-1.0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_a_non_finite_tolerance_is_rejected(self, tol):
        # an infinite tolerance would accept the subsolution at every t
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        with pytest.raises(ValidationError, match="newton_tol"):
            continuity_solve(problem, newton_tol=tol)
        with pytest.raises(ValidationError, match="newton_tol"):
            newton_solve_at_t(problem, 1.0, problem.subsolution, tol=tol)

    @pytest.mark.parametrize("start", ["box NaN node", "radial short", "radial 2-D"])
    def test_a_bad_start_is_rejected(self, start):
        # a start must have the grid's shape and be finite inside; the
        # Dirichlet data overwrites only its boundary
        if start == "box NaN node":
            spec = BENCH_SPEC_DIR / "box-n3-p2-r9.spec"
        else:
            spec = SPEC_DIR / "radial-n3-p2.spec"
        problem = build_problem(parse_document(spec.read_text()))
        u = problem.subsolution
        if start == "box NaN node":
            u = u.copy()
            u[4, 4, 4, 4, 4, 4] = np.nan
        else:
            u = u[:1996] if start == "radial short" else u[None]
        with pytest.raises(ValidationError, match="initial_values"):
            continuity_solve(problem, initial_values=u)
        with pytest.raises(ValidationError, match="initial_values"):
            newton_solve_at_t(problem, 1.0, u, tol=1e-8)


class TestPlaneBackedStates:
    @pytest.mark.parametrize("p, omega", [(1, None), (2, None), (1, np.diag([1.0, 2.0]))])
    def test_analysis_and_coefficients_are_plane_backed(self, p, omega):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        problem = manufactured_box(grid_target(), 0.25 * np.eye(2), OperatorParams(2, p), grid,
                                   omega=omega)
        ev = _BoxEvaluator(problem)
        a = ev.analyze(problem.subsolution)
        assert plane_backed(a.form)
        ev.linearize(a)
        assert plane_backed(a.coeffs)


@st.composite
def table_cases(draw, n: int, metric: bool):
    """A resolution-9 box in C^n with unequal extents, a random Hermitian
    chi, a random HPD omega (None without ``metric``) and random values u."""
    extent = tuple((lo, lo + draw(st.floats(0.25, 3.0)))
                   for lo in draw(st.lists(st.floats(-2.0, 0.0), min_size=2 * n, max_size=2 * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    chi = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    chi = chi + chi.conj().T
    omega = None
    if metric:
        base = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        omega = base @ base.conj().T + n * np.eye(n)
    grid = BoxGrid(n, extent, 9)
    return grid, chi, omega, draw(st.sampled_from([1.0, 1e-3, 1e3])) * rng.standard_normal(grid.shape)


class TestTableKernel:
    @pytest.mark.parametrize("metric", [False, True], ids=["identity", "omega"])
    @pytest.mark.parametrize("n, p", [(n, p) for n in (1, 2, 3) for p in range(1, n + 1)])
    @settings(max_examples=3, deadline=None, database=None, derandomize=True)
    @given(data=st.data())
    def test_table_matches_the_hessian_reduction_and_compound(self, n, p, metric, data):
        # K and tr A from the evaluator's one table product against the
        # complex Hessian of strided second differences, plus chi, reduced
        # by omega and taken through the compound; they differ by rounding
        grid, chi, omega, u = data.draw(table_cases(n, metric))
        params, inner = OperatorParams(n, p), np.ones(grid.interior_shape)
        a = _BoxEvaluator(ProblemSpec(params, grid, chi, inner, u, u, inner, omega)).analyze(u)
        hess = complex_hessian_from(lambda i, j: second_difference(u, i, j, grid.spacing),
                                    n, grid.interior_shape)
        form, trace = determinant_form_batch(congruence_reduce_batch(hess + chi, omega)[0], params)
        # omega^-1 scales the reduced entries by at most |L^-1|^2
        scale = 1.0 if omega is None else np.linalg.norm(np.linalg.inv(np.linalg.cholesky(omega)),
                                                         2) ** 2
        eps_scale = np.finfo(float).eps * scale * (np.abs(u).max() / min(grid.spacing) ** 2
                                                   + np.abs(chi).max())
        assert a.form.shape == form.shape and plane_backed(a.form)
        assert np.abs(a.form - form).max() <= 8 * n * eps_scale
        assert np.abs(a.trace_g - trace).max() <= 8 * n * eps_scale
        assert np.array_equal(a.form, np.swapaxes(a.form, -1, -2).conj())


class TestSubsolutionFailures:
    def test_global_inflation(self):
        problem = radial_problem(psi_scale=1.1)
        with pytest.raises(SubsolutionInvalid):
            continuity_solve(problem)

    def test_bump_witness_node_radial(self):
        problem = radial_problem(psi_bump_node=77, psi_bump_factor=1.1)
        with pytest.raises(SubsolutionInvalid) as exc_info:
            verify_subsolution(problem)
        assert exc_info.value.node == 77

    def test_bump_witness_node_box(self):
        node = (3, 4, 5, 2)
        problem = box_problem(res=9, psi_bump_node=node, psi_bump_factor=1.1)
        with pytest.raises(SubsolutionInvalid) as exc_info:
            verify_subsolution(problem)
        assert exc_info.value.node == node

    def test_equality_case_passes(self):
        verify_subsolution(radial_problem())
        verify_subsolution(box_problem(res=9))

    def test_a_subsolution_off_the_boundary_value_radial(self):
        # the Hessian of shifted_subsolution(), but 0.05 below the target at s = 1
        problem = radial_problem(subsolution_profile=RadialProfile((-0.3, 0.25, 0.5)))
        with pytest.raises(SubsolutionInvalid, match="boundary data by 5.0") as exc_info:
            verify_subsolution(problem)
        assert exc_info.value.node == 200
        with pytest.raises(SubsolutionInvalid):
            continuity_solve(problem)
        verify_subsolution(radial_problem(subsolution_profile=shifted_subsolution()))


class TestNewtonStagnation:
    def test_a_flat_residual_raises_max_iters(self, monkeypatch):
        # a zero correction leaves the residual where it is: after eight
        # iterations without a 10% drop the loop stops instead of running on
        ev_class = solver._RadialEvaluator
        monkeypatch.setattr(ev_class, "correction", lambda self, a, resid, rnorm: np.zeros(self.grid.points))
        problem = radial_problem(psi_scale=0.9)
        with pytest.raises(MaxItersExceeded, match="Newton stagnated at residual") as exc_info:
            newton_solve_at_t(problem, 1.0, problem.subsolution, tol=1e-10)
        assert "t=1.0000" in str(exc_info.value)

    @pytest.mark.parametrize("spec, tol, floor", [
        pytest.param((SPEC_DIR / "radial-n3-p2.spec").read_text(), 1e-10, "8.9e-10", id="radial"),
        # eps * max|u| / h^2 = 2^-52 * 2 * 32^2 = 4.5e-13, and trace_F = 1 at n = 1
        pytest.param(N1_BOX_SPEC, 1e-13, "4.5e-13", id="box"),
    ])
    def test_a_tolerance_below_the_rounding_floor_is_not_retried(self, monkeypatch, spec, tol,
                                                                  floor):
        # stagnation at the floor halved the homotopy step 31 times (radial,
        # about 1 s) or 20 times (box) before ContinuationStalled; a shorter
        # step cannot lower the floor, so the first attempt, t = 1, is the only one
        problem = parse_spec(spec)
        attempts = []
        loop = solver._newton_loop
        monkeypatch.setattr(solver, "_newton_loop",
                            lambda ev, t, u, start, tol:
                            attempts.append(t) or loop(ev, t, u, start, tol))
        start = time.perf_counter()
        with pytest.raises(BelowRoundingFloor,
                           match=f"newton_tol {tol:.1e} is below the residual's rounding "
                                 f"floor {floor} on this grid") as exc_info:
            continuity_solve(problem, newton_tol=tol)
        assert time.perf_counter() - start < 0.1
        assert attempts == [0.0, 1.0]  # the t = 0 solve, then one attempt
        rows = exc_info.value.attempts
        assert [a.t for a in rows] == attempts
        assert rows[-1].failure == f"BelowRoundingFloor: {exc_info.value}"


class TestSandwich:
    def test_equal_fields(self):
        u = np.ones(5)
        assert sandwich_check(u, u, u) == 0.0

    def test_detector(self):
        u = np.zeros(7)
        lower = np.zeros(7) - 1.0
        upper = np.zeros(7) + 1.0
        u[3] = 1.1
        assert sandwich_check(u, lower, upper) == pytest.approx(0.1)


class TestBoundaryTrace:
    def test_identity_field_all_faces(self):
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        problem_like = manufactured_box(
            norm_squared(3), np.zeros((3, 3)), OperatorParams(3, 2), grid
        )
        val = boundary_trace_check(problem_like.phi, problem_like)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_detector_zero_trace(self):
        # pluriharmonic boundary data: tangential Hessian block cancels
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        problem = box_problem(res=9)
        flat = re_z1_squared(2).value(grid.coords())
        val = boundary_trace_check(flat, problem)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_box_n1_has_an_empty_tangential_block(self):
        # at n = 1 the complex-tangential block is empty, so its trace is 0, as
        # (n - 1)(c + u') is on a ball
        grid = BoxGrid(1, ((-1, 1),) * 2, 17)
        problem = manufactured_box(norm_squared(1), np.zeros((1, 1)), OperatorParams(1, 1), grid)
        _, diag = continuity_solve(problem)
        assert diag.c0_boundary == 0.0


def barrier_report(u, problem, tau=solver.BARRIER_TAU, N=solver.BARRIER_N,
                   delta=solver.BARRIER_DELTA):
    """The collar barrier of v = (u - u) + tau d - N d^2, with L at u."""
    a = solver._linearized(_BoxEvaluator(problem), u, "barrier test field")
    return solver._barrier_report(u, u, problem, a, tau, N, delta)


class TestBarrier:
    def test_trivial_positive_barrier(self):
        problem = box_problem(res=13)
        report = barrier_report(problem.subsolution, problem, tau=0.1, N=0.2, delta=0.3)
        # u = subsolution: v = d (tau - N d) > 0 on the collar
        assert report.collar_nodes > 0
        assert report.min_v > 0
        assert not report.degenerate_collar

    def test_degenerate_collar_flagged(self):
        problem = box_problem(res=9)
        report = barrier_report(problem.subsolution, problem, tau=0.1, N=1.0, delta=5.0)
        assert report.degenerate_collar

    def test_empty_collar_is_not_degenerate(self):
        # spacing 0.25: no node lies at 0 < d < 0.1, and 0.1 is below the half width
        problem = box_problem(res=9)
        report = barrier_report(problem.subsolution, problem, delta=0.1)
        assert report.collar_nodes == 0 and np.isnan(report.min_v)
        assert not report.degenerate_collar

    def test_collar_without_a_smooth_node(self):
        # one axis 4x longer: every collar node's stencil sees a second face
        grid = BoxGrid(2, ((-1, 1), (-1, 1), (-1, 1), (-4, 4)), 9)
        problem = manufactured_box(grid_target(), 0.25 * np.eye(2), OperatorParams(2, 1), grid)
        report = barrier_report(problem.subsolution, problem)
        assert report.collar_nodes > 0 and report.smooth_nodes == 0
        assert report.max_lv_node is None and np.isnan(report.epsilon)
        assert report.min_v_node is not None


class TestRatioMonitor:
    def test_quadratic_has_constant_rows(self):
        rows = []
        problems = []
        for res in (9, 13):
            grid = BoxGrid(2, ((-1, 1),) * 4, res)
            problem = manufactured_box(
                norm_squared(2), np.zeros((2, 2)), OperatorParams(2, 1), grid
            )
            problems.append((problem, problem.phi))
        rows = c2_ratio_monitor(problems)
        assert rows[0].sup_hessian == pytest.approx(rows[1].sup_hessian, rel=1e-10)
        assert rows[0].ratio_interior == pytest.approx(rows[1].ratio_interior, rel=1e-10)

    def test_radial_family_stable(self):
        levels = []
        for points in (101, 201, 401):
            problem = radial_problem(points=points)
            u, _ = continuity_solve(problem)
            levels.append((problem, u))
        rows = c2_ratio_monitor(levels)
        r = [row.ratio_interior for row in rows]
        assert max(r) - min(r) <= 0.1 * max(r)

    def test_requires_two_levels(self):
        with pytest.raises(ValueError):
            c2_ratio_monitor([])
