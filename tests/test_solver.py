import numpy as np
import pytest

from garding.analytic import RadialProfile, norm_squared, radial_power
from garding.errors import (
    ConeEscape,
    ContinuationStalled,
    LinearSolveStalled,
    MaxItersExceeded,
    RadialModeUnsupported,
    SubsolutionInvalid,
)
from garding.grid import BoxGrid, ScalarField
from garding.linear import assemble_linearized, solve_sparse
from garding.operator import OperatorParams
from garding.problems import manufactured_box, manufactured_radial, verify_subsolution
from garding.radial import RadialGrid
import garding.solver as solver
from garding.solver import (
    SolveConfig,
    _BoxEvaluator,
    _make_evaluator,
    barrier_check,
    boundary_trace_check,
    c2_ratio_monitor,
    continuity_solve,
    newton_solve_at_t,
    sandwich_check,
)

from support import constant_coefficient_field, hessian_operator_apply, re_z1_squared


def grid_target(n=2):
    """|z|^2 + 0.1 Re(z_1^2) |z|^2 + 0.05 |z|^4, admissible for chi = 0 on [-1, 1]^4.

    The pluriharmonic-weighted term alone is reproduced exactly by the
    stencils (its x^4 / -y^4 truncation errors cancel in the complex
    Hessian), so the radial quartic is added to give the discretization a
    genuine, refinement-sensitive error.
    """
    return (
        norm_squared(n)
        + 0.1 * (re_z1_squared(n) * norm_squared(n))
        + 0.05 * (norm_squared(n) * norm_squared(n))
    )


def box_problem(res=13, p=1, **kwargs):
    grid = BoxGrid(2, ((-1, 1),) * 4, res)
    return manufactured_box(grid_target(), np.zeros((2, 2)), OperatorParams(2, p), grid, **kwargs)


def radial_problem(points=201, **kwargs):
    grid = RadialGrid(1.0, points)
    return manufactured_radial(radial_power(2), 1.0, OperatorParams(3, 2), grid, **kwargs)


def shifted_subsolution(c=0.25):
    # u* + c (s - 1): componentwise larger Hessian eigenvalues, same boundary
    return RadialProfile((-c, c, 0.5))


class TestRadialSolve:
    def test_equality_case_recovers_target(self):
        problem = radial_problem()
        u, diag = continuity_solve(problem)
        assert np.abs(u - problem.radial.reference).max() <= 1e-9
        assert diag.final_residual <= 1e-10
        assert diag.anchor_residual == 0.0
        assert all(s.min_margin > 0 for s in diag.states)

    def test_nontrivial_homotopy_marches(self):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        u, diag = continuity_solve(problem)
        # the quadratic target is the exact discrete solution
        assert np.abs(u - problem.radial.reference).max() <= 1e-8
        assert diag.final_residual <= 1e-10
        assert len(diag.states) >= 3  # actually marched through t
        assert all(s.min_margin > 0 for s in diag.states)

    def test_superlinear_tail(self):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        state = newton_solve_at_t(
            problem, 1.0, problem.radial.subsolution, tol=1e-10
        )
        hist = state.residual_history
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
        u1, _ = continuity_solve(problem, SolveConfig(newton_tol=1e-11))
        bump = problem.radial.grid.s * (1.0 - problem.radial.grid.s)
        init = problem.radial.subsolution + 0.1 * bump
        u2, _ = continuity_solve(
            problem, SolveConfig(newton_tol=1e-11, initial_values=init)
        )
        assert np.abs(u1 - u2).max() <= 2e-11

    def test_monotone_in_psi(self):
        base = radial_problem(subsolution_profile=shifted_subsolution())
        smaller = radial_problem(
            subsolution_profile=shifted_subsolution(), psi_scale=0.9
        )
        u_base, _ = continuity_solve(base)
        u_small, _ = continuity_solve(smaller)
        # larger psi pushes the solution down
        assert (u_base - u_small).max() <= 1e-8

    def test_continuation_stalls_with_zero_newton_budget(self):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        with pytest.raises(ContinuationStalled):
            continuity_solve(problem, SolveConfig(max_newton_iters=0))

    @pytest.mark.parametrize("config", [SolveConfig(t_step_init=0.0), SolveConfig(t_growth=0.5)],
                             ids=["zero_step", "shrinking_growth"])
    def test_step_floor_holds_without_a_failed_step(self, config):
        # every step succeeds, but the step never reaches t = 1
        with pytest.raises(ContinuationStalled):
            continuity_solve(radial_problem(points=41), config)

    def test_max_iters_exceeded_directly(self):
        problem = radial_problem(subsolution_profile=shifted_subsolution())
        with pytest.raises(MaxItersExceeded):
            newton_solve_at_t(
                problem, 1.0, problem.radial.subsolution, tol=1e-12,
                config=SolveConfig(max_newton_iters=1),
            )


class TestBoxSolve:
    def test_equality_case_recovers_target(self):
        problem = box_problem(res=13)
        u, diag = continuity_solve(problem)
        err = np.abs(u.values - problem.box.reference).max()
        assert err <= 5e-3
        assert diag.final_residual <= 1e-8
        assert diag.anchor_residual == 0.0
        assert all(s.min_margin > 0 for s in diag.states)

    def test_error_decreases_with_refinement(self):
        errs = {}
        for res in (9, 13):
            problem = box_problem(res=res)
            u, _ = continuity_solve(problem)
            errs[res] = np.abs(u.values - problem.box.reference).max()
        assert errs[13] < errs[9]

    def test_nontrivial_homotopy(self):
        problem = box_problem(res=9, psi_scale=0.85)
        u, diag = continuity_solve(problem)
        assert diag.final_residual <= 1e-8
        assert len(diag.states) >= 3
        # smaller psi lifts the solution above the subsolution
        assert (u.values - problem.box.subsolution).min() >= -1e-10

    def test_diagnostics_contracts(self):
        problem = box_problem(res=9)
        u, diag = continuity_solve(problem)
        assert diag.K >= 1.0
        assert diag.F_trace >= 1 - 1e-10  # p = 1
        err = np.abs(u.values - problem.box.reference).max()
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
        assert (u_base.values - u_small.values).max() <= 1e-7

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
        phi_ext[mask] = problem.box.phi[mask]
        bc = hessian_operator_apply(coeffs, ScalarField(grid, phi_ext))
        rhs = problem.box.psi - float(np.trace(chi).real) - bc
        system = assemble_linearized(coeffs, rhs, grid)
        direct = solve_sparse(system, tol=1e-13).values + phi_ext
        assert np.abs(u.values - direct).max() <= 1e-8

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
        err = np.abs(u.values - problem.box.reference).max()
        assert err <= 5e-3
        assert all(s.min_margin > 0 for s in diag.states)
        assert diag.amgm_min_slack >= -1e-10

    def test_general_metric_marching_solve(self):
        # distinct subsolution forces an actual homotopy under the metric
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        omega = np.diag([1.0, 2.0])
        problem = manufactured_box(
            grid_target(), 0.25 * np.eye(2), OperatorParams(2, 1), grid,
            omega=omega, psi_scale=0.85,
        )
        u, diag = continuity_solve(problem)
        assert diag.final_residual <= 1e-8
        assert len(diag.states) >= 3
        assert (u.values - problem.box.subsolution).min() >= -1e-9

    def test_cone_escape_on_bad_initializer(self):
        problem = box_problem(res=9)
        bad = -2.0 * norm_squared(2).value(problem.box.grid.points())
        with pytest.raises(ConeEscape) as exc_info:
            continuity_solve(problem, SolveConfig(initial_values=bad))
        assert exc_info.value.node is not None


def count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestOneAnalysisPerState:
    def test_each_grid_state_is_decomposed_once(self, monkeypatch):
        counts = {}
        for name in ("eigvals_batch", "_newton_loop"):
            count_calls(monkeypatch, solver, name, counts)
        count_calls(monkeypatch, _BoxEvaluator, "correction", counts)
        _, diag = continuity_solve(box_problem(res=9, psi_scale=0.85))
        assert counts["correction"] > 0
        failed = counts["_newton_loop"] - len(diag.states)
        # one eigvals_batch of K = A^[p] per analysis: the subsolution, each
        # accepted candidate and the restart of each failed attempt; an
        # accepted attempt starts from the last one's analysis.  One more
        # call is the Hessian sup.
        assert counts["eigvals_batch"] == 1 + counts["correction"] + failed + 1

    def test_failed_attempt_restarts_from_a_fresh_analysis(self, monkeypatch):
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
        assert counts["_newton_loop"] - len(diag.states) == 1
        # the injected failure made no candidate; the restart analyzes its
        # start point again, since the failed attempt took its analysis
        assert counts["eigvals_batch"] == 1 + (len(calls) - 1) + 1 + 1
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
        one_step = SolveConfig(t_step_init=1.0, t_step_max=1.0, compute_barrier=False)
        _, diag = continuity_solve(problem, one_step)
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

        counts = {}
        count_calls(monkeypatch, solver, "_newton_loop", counts)
        monkeypatch.setattr(_BoxEvaluator, "analyze", recording_analyze)
        monkeypatch.setattr(_BoxEvaluator, "correction", checked_correction)
        _, diag = continuity_solve(problem)
        assert seen["analyses"] > 1 + counts["_newton_loop"] + seen["corrections"]

        ev = _make_evaluator(problem, SolveConfig())
        for state in diag.states:
            fresh = analyze(ev, state.u)
            ev.linearize(fresh)
            target = state.t * ev.psi_tilde + (1.0 - state.t) * ev.anchor
            assert state.min_margin == fresh.min_margin
            assert state.residual_norm == float(np.abs(fresh.ft - target).max())


class TestNoDiscardedWork:
    def test_box_build_makes_the_points_once(self, monkeypatch):
        counts = {}
        count_calls(monkeypatch, BoxGrid, "points", counts)
        box_problem(res=9)
        assert counts == {"points": 1}

    def test_states_keep_their_residual_history(self):
        _, diag = continuity_solve(box_problem(res=9, psi_scale=0.85))
        assert diag.states[0].residual_history[0] == diag.anchor_residual
        assert all(s.residual_history[-1] == s.residual_norm for s in diag.states)

    def test_cone_escape_names_alpha_min(self, monkeypatch):
        problem = box_problem(res=9, psi_scale=0.85)
        correction = _BoxEvaluator.correction
        monkeypatch.setattr(_BoxEvaluator, "correction",
                            lambda self, *args: 1e6 * correction(self, *args))
        with pytest.raises(ConeEscape, match="no damping factor >= 0.25 keeps"):
            newton_solve_at_t(problem, 1.0, problem.box.subsolution, tol=1e-8,
                              config=SolveConfig(alpha_min=0.25))


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


class TestNewtonStagnation:
    def test_a_flat_residual_raises_max_iters(self, monkeypatch):
        # a zero correction leaves the residual where it is: after eight
        # iterations without a 10% drop the loop stops instead of running on
        ev_class = solver._RadialEvaluator
        monkeypatch.setattr(ev_class, "correction", lambda self, a, resid, rnorm: np.zeros(self.grid.points))
        problem = radial_problem(psi_scale=0.9)
        with pytest.raises(MaxItersExceeded, match="Newton stagnated at residual") as exc_info:
            newton_solve_at_t(problem, 1.0, problem.radial.subsolution, tol=1e-10)
        assert "t=1.0000" in str(exc_info.value)


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
        val = boundary_trace_check(problem_like.box.phi, problem_like)
        assert val == pytest.approx(2.0, abs=1e-12)

    def test_detector_zero_trace(self):
        # pluriharmonic boundary data: tangential Hessian block cancels
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        problem = box_problem(res=9)
        flat = re_z1_squared(2).value(grid.points())
        val = boundary_trace_check(ScalarField(grid, flat), problem)
        assert val == pytest.approx(0.0, abs=1e-12)


class TestBarrier:
    def test_trivial_positive_barrier(self):
        problem = box_problem(res=13)
        report = barrier_check(
            problem.box.subsolution, problem.box.subsolution, problem,
            tau=0.1, N=0.2, delta=0.3,
        )
        # u = subsolution: v = d (tau - N d) > 0 on the collar
        assert report.collar_nodes > 0
        assert report.min_v > 0
        assert not report.degenerate_collar

    def test_degenerate_collar_flagged(self):
        problem = box_problem(res=9)
        report = barrier_check(
            problem.box.subsolution, problem.box.subsolution, problem,
            tau=0.1, N=1.0, delta=5.0,
        )
        assert report.degenerate_collar

    def test_radial_unsupported(self):
        problem = radial_problem()
        with pytest.raises(RadialModeUnsupported):
            barrier_check(problem.radial.subsolution, problem.radial.subsolution, problem)


class TestRatioMonitor:
    def test_quadratic_has_constant_rows(self):
        rows = []
        problems = []
        for res in (9, 13):
            grid = BoxGrid(2, ((-1, 1),) * 4, res)
            problem = manufactured_box(
                norm_squared(2), np.zeros((2, 2)), OperatorParams(2, 1), grid
            )
            problems.append((problem, problem.box.reference))
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
