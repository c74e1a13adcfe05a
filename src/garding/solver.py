"""Continuity-method homotopy with damped, cone-preserving Newton steps.

The homotopy deforms the normalized right-hand side from the value the
subsolution attains on the discrete grid to the target:

    psi_tilde_t = t * psi_tilde + (1 - t) * ftilde(g[subsolution]),

so t = 0 is solved exactly by the subsolution (zero residual by
construction) and both ends stay positive.  Each accepted state is
admissible; Newton steps are damped by halving until the candidate keeps at
least a fixed fraction of the current cone margin, preserving strict
interiority (the eigenvalue-space gradient blows up on the cone boundary).

Every grid state is analyzed once.  An analysis holds the cone margins,
the minimum-margin node and the trace of g = chi + i ddbar u, plus what
its linearization needs.  A box analysis keeps K = g^[p], the p-th
additive compound of g, whose determinant is M_p and whose least
eigenvalue is the margin, for every p; no eigenvectors are computed.  K
is written from one real product of the evaluator's table with the
difference stack of u.  A radial analysis keeps its eigenvalue rows
unsorted.  A damping trial computes only the analysis, and the loop
drops its previous state before the trials.  The accepted candidate's
analysis is then linearized in place (ftilde, trace_F, the coefficients
of the linearized operator, with K released) and becomes the Newton
state.  Analyses are passed as values: the subsolution's gives the anchor
(its ftilde) and starts the t = 0 attempt, an accepted attempt returns its
final analysis to start the next one, and a failed attempt leaves its
start unchanged for the restart.

The diagnostic suite instantiates the comparison sandwich, the boundary
tangential-trace lower bound, the collar barrier inequality and the
second-order ratio monitors on the computed solution, reading the final
state's analysis; diagnostics never feed back into the solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BelowRoundingFloor,
    ConeEscape,
    ContinuationStalled,
    GardingError,
    LinearSolveStalled,
    MaxItersExceeded,
    OutsideCone,
    ValidationError,
)
from .grid import (
    complex_hessian_field,
    face_tangential_trace_min,
    first_difference,
    gradient_sq_max,
    hessian_table,
    least,
    table_field,
)
from .hermitian import eigvals_batch
from .linear import StencilOperator, assemble_linearized, real_stencil_weights, solve_sparse, upper_barrier
from .operator import (
    determinant_form_batch,
    determinant_linearization_batch,
    ftilde_grad_batch,
    margins_batch,
)
from .problems import ProblemSpec, verify_subsolution
from .radial import (
    eigenvalue_rows,
    profile_derivatives,
    radial_gradient_sq_max,
    radial_hessian_spectral_radius,
    radial_linearized,
    radial_trace_equation_solution,
    solve_radial_linear,
)

# Newton: converged at residual NEWTON_TOL unless a tolerance is given, after
# at most MAX_NEWTON_ITERS corrections per attempt, each damped by halving
# until the trial keeps MARGIN_KEEP of the current cone margin; no damping
# factor below ALPHA_MIN is tried
NEWTON_TOL = {"box": 1e-8, "radial": 1e-10}
MAX_NEWTON_ITERS = 50
MARGIN_KEEP = 0.1
ALPHA_MIN = 2.0**-20
# a Newton loop that stops decreasing within FLOOR_MULTIPLE times the rounding
# floor of its residual, above the tolerance, raises BelowRoundingFloor
FLOOR_MULTIPLE = 4.0
# continuation (Deuflhard, Newton Methods for Nonlinear Problems, 2004, ch. 5):
# the first attempt is the whole interval; a failed attempt halves the step
# it tried and an accepted one doubles it.  No attempt is shorter than
# T_STEP_MIN, so at most 1 / T_STEP_MIN + 1 steps are accepted, and the failed
# attempts number at most accepted + ceil(log2(1 / T_STEP_MIN)) = accepted + 20
T_STEP_MIN = 1e-6
# BiCGStab's relative tolerance: 0.03 * residual / scale, clipped to this range
LINEAR_TOL_FLOOR = 1e-12
LINEAR_TOL_CAP = 1e-4
# collar barrier v = (u - subsolution) + BARRIER_TAU * d - BARRIER_N * d^2 on
# {0 < d < delta}; BARRIER_DELTA None means 0.1 * the domain diameter
BARRIER_TAU = 0.05
BARRIER_N = 50.0
BARRIER_DELTA = None


@dataclass(frozen=True)
class Attempt:
    """One Newton loop of a solve: the residual at each iterate (none if it
    failed), the least cone margin of the last iterate and its node, and
    the failure as "ClassName: message" or None.  It holds no array and no
    exception, so it keeps no field of the solve alive."""

    t: float
    residuals: tuple = ()
    min_margin: float | None = None
    min_node: tuple | int | None = None
    failure: str | None = None


@dataclass
class BarrierReport:
    collar_nodes: int
    smooth_nodes: int  # collar nodes whose stencil sees a single realizing face
    min_v: float
    min_v_node: tuple | None
    max_lv_node: tuple | None  # where L v / (1 + trace_F) peaks over smooth collar nodes
    epsilon: float  # -(that peak); positive when the barrier inequality holds
    degenerate_collar: bool


@dataclass
class SolveDiagnostics:
    K: float
    F_trace: float
    sandwich_violation: float
    c0_boundary: float
    c2_ratio: float
    sup_hessian: float
    boundary_sup_hessian: float
    amgm_min_slack: float
    final_residual: float
    anchor_residual: float
    barrier_report: BarrierReport | None
    attempts: tuple = ()  # one Attempt per Newton loop, in order
    # per interior node at t = 1, for the CSV: cone margin, ftilde - psi_tilde
    node_margins: np.ndarray | None = None
    node_residual: np.ndarray | None = None


@dataclass
class _Analysis:
    """One decomposition of a grid state and everything read from it.

    ``margins`` are the cone margins at the interior nodes, ``min_margin``
    and ``min_node`` their least value and its node (they serve the damping
    test), and ``trace_g`` the trace of g per node.  The rest is what
    ``linearize`` needs:

    - box: ``form``, the compounds K = A^[p] whose determinant is M_p, which
      ``linearize`` releases;
    - radial: ``vals``, the unsorted eigenvalue rows, tangential columns
      first and the radial one last.

    ``linearize`` adds ftilde, trace_F and the linearization coefficients
    (box: C per node; radial: the gradient entry of the radial eigenvalue).
    """

    margins: np.ndarray
    min_margin: float
    min_node: tuple | int
    trace_g: np.ndarray
    form: np.ndarray | None = None
    vals: np.ndarray | None = None
    ft: np.ndarray | None = None
    trace_f: np.ndarray | None = None
    coeffs: np.ndarray | None = None


class _Evaluator:
    """What the box and radial evaluators share: the problem's grid, operator
    and chi, the normalized target psi_tilde and the residual's rounding floor."""

    def __init__(self, problem: ProblemSpec):
        self.grid = problem.grid
        self.params = problem.params
        self.chi = problem.chi
        self.psi_tilde = problem.psi ** (1.0 / self.params.subset_count)
        self.anchor = None  # ftilde at the subsolution, set by _make_evaluator

    def rounding_floor(self, a: _Analysis, u: np.ndarray) -> float:
        """The rounding error of the residual at the linearized analysis ``a``
        of ``u``: trace_F * eps * max|u| / h^2 at its largest node, since
        ftilde is of degree one in second differences that round to
        eps * max|u| / h^2 (Kelley 1995, ch. 5)."""
        h = min(np.atleast_1d(self.grid.spacing))
        return float(a.trace_f.max()) * np.finfo(float).eps * float(np.abs(u).max()) / h**2

    def linearize(self, a: _Analysis) -> None:
        try:  # the kernels name a row of their stack, which is a grid node
            self._linearize(a)
        except OutsideCone as exc:
            node = self.grid.node_of_flat(exc.node)
            raise OutsideCone(f"node {node}: {str(exc).partition(': ')[2]}", node=node) from None


class _BoxEvaluator(_Evaluator):
    """Analyses and Newton corrections on a box problem.  K and tr A are
    affine in the difference stack of u: an analysis reads them through
    ``table``, with the spacings and chi folded in once."""

    def __init__(self, problem: ProblemSpec):
        super().__init__(problem)
        self.resid_scale = max(1.0, float(np.abs(self.psi_tilde).max()))
        self.table = hessian_table(self.grid, self.chi,
                                   lambda forms: determinant_form_batch(forms, self.params))

    def analyze(self, u_values: np.ndarray) -> _Analysis:
        form, (trace_g,) = table_field(self.table, u_values, self.grid, self.params.subset_count)
        margins = eigvals_batch(form)[..., 0]
        return _Analysis(margins, *least(margins, self.grid.node_of_flat), trace_g, form=form)

    def _linearize(self, a: _Analysis) -> None:
        # K is the largest array of a state; the coefficients replace it
        a.coeffs, a.trace_f, a.ft = determinant_linearization_batch(self.params, a.form)
        a.form = None

    def correction(self, a: _Analysis, resid: np.ndarray, rnorm: float) -> np.ndarray:
        system = assemble_linearized(a.coeffs, -resid, self.grid)
        lin_tol = min(LINEAR_TOL_CAP, max(LINEAR_TOL_FLOOR, 0.03 * rnorm / self.resid_scale))
        return solve_sparse(system, tol=lin_tol)


class _RadialEvaluator(_Evaluator):
    """Analyses and Newton corrections on a radial problem."""

    def analyze(self, u: np.ndarray) -> _Analysis:
        u1, u2 = profile_derivatives(u, self.grid.spacing)
        lam = eigenvalue_rows(u1, u2, self.grid.s, self.params.n, self.chi)
        margins = margins_batch(np.sort(lam, axis=-1), self.params.p)
        return _Analysis(margins, *least(margins, self.grid.node_of_flat), lam.sum(axis=-1),
                         vals=lam)

    def _linearize(self, a: _Analysis) -> None:
        # ftilde is symmetric: its gradient keeps the column order of the rows
        a.ft, grads = ftilde_grad_batch(a.vals, self.params)
        a.trace_f = grads.sum(axis=-1)
        a.coeffs = grads[:, self.params.n - 1]

    def correction(self, a: _Analysis, resid: np.ndarray, rnorm: float) -> np.ndarray:
        band = radial_linearized(a.trace_f, a.coeffs, self.grid)
        return np.append(solve_radial_linear(band, -resid), 0.0)  # node m is Dirichlet


def _check_tol(tol: float) -> float:
    """``tol``; ValidationError unless it is finite and positive."""
    if not (np.isfinite(tol) and tol > 0.0):
        raise ValidationError("newton_tol", f"tolerance must be finite and positive, got {tol}")
    return tol


def _linearized(ev, u: np.ndarray, what: str) -> _Analysis:
    """The linearized analysis of ``u``; ConeEscape, led by ``what``, if ``u``
    is not admissible on the grid (a NaN margin is not)."""
    a = ev.analyze(u)
    if not a.min_margin > 0.0:
        raise ConeEscape(f"{what} at node {a.min_node} (margin {a.min_margin:.3e})", node=a.min_node)
    ev.linearize(a)
    return a


def _make_evaluator(problem: ProblemSpec):
    """(evaluator, the subsolution's linearized analysis), with the t = 0
    anchor ftilde from that analysis.  A Newton loop from the subsolution
    starts from it; every Newton state comes from the same analyze/linearize
    pair, so the t = 0 residual there is bitwise zero."""
    ev = (_BoxEvaluator if problem.geometry == "box" else _RadialEvaluator)(problem)
    start = _linearized(ev, problem.subsolution, "subsolution not admissible on the grid")
    ev.anchor = start.ft
    return ev, start


def _newton_loop(ev, t: float, u: np.ndarray, start: _Analysis | None, tol: float):
    """Damped Newton at fixed t from ``u``; returns (the converged iterate,
    its linearized analysis, its Attempt row).

    ``start`` is the linearized analysis of ``u``; with None the loop
    analyzes ``u`` first.  The loop changes neither, so after a failure
    the caller may start again from both.
    """
    u = u.copy()
    state = _linearized(ev, u, "initial iterate not admissible") if start is None else start
    target = t * ev.psi_tilde + (1.0 - t) * ev.anchor
    history: list[float] = []
    best = np.inf
    stagnant = 0
    for iteration in range(MAX_NEWTON_ITERS + 1):
        resid = state.ft - target
        rnorm = float(np.abs(resid).max())
        history.append(rnorm)
        if rnorm < 0.9 * best:
            best = rnorm
            stagnant = 0
        else:
            stagnant += 1
            floor = ev.rounding_floor(state, u)
            if tol < rnorm <= FLOOR_MULTIPLE * floor:
                # a shorter homotopy step cannot lower the floor: no retry
                raise BelowRoundingFloor(
                    f"newton_tol {tol:.1e} is below the residual's rounding floor "
                    f"{floor:.1e} on this grid (Newton stagnated at {rnorm:.3e}, t={t:.4f})"
                )
            if stagnant >= 8:  # above the floor: a shorter step may help
                raise MaxItersExceeded(
                    f"Newton stagnated at residual {rnorm:.3e} (tol {tol:.1e}) at t={t:.4f}"
                )
        if rnorm <= tol:
            return u, state, Attempt(t, tuple(history), state.min_margin, state.min_node)
        if iteration == MAX_NEWTON_ITERS:
            break
        delta = ev.correction(state, resid, rnorm)
        # the trials need only the margin to keep: drop the loop's own state
        keep, state, resid = MARGIN_KEEP * state.min_margin, None, None
        alpha = 1.0
        while True:
            candidate = u + alpha * delta
            trial = ev.analyze(candidate)
            if trial.min_margin >= keep:
                break
            alpha *= 0.5
            if alpha < ALPHA_MIN:
                raise ConeEscape(
                    f"no damping factor >= {ALPHA_MIN:g} keeps admissibility "
                    f"near node {trial.min_node}",
                    node=trial.min_node,
                )
        u, state = candidate, trial
        ev.linearize(state)
    raise MaxItersExceeded(
        f"{MAX_NEWTON_ITERS} Newton iterations at t={t:.4f}, residual {history[-1]:.3e}"
    )


def _with_dirichlet_data(problem: ProblemSpec, values) -> np.ndarray:
    """A copy of the start ``values`` with the problem's Dirichlet data on its boundary.

    Raises ValidationError unless ``values`` has the shape of the problem's
    grid (the full grid on a box, the s-grid on a ball) and is finite once
    the Dirichlet data is written.
    """
    u = np.array(values, dtype=float)
    shape = problem.grid.shape
    if u.shape != shape:
        raise ValidationError("initial_values", f"shape {u.shape}, expected {shape}")
    np.copyto(u, problem.phi, where=problem.grid.boundary_mask())
    if not np.isfinite(u).all():
        raise ValidationError("initial_values", "start values are not finite")
    return u


def newton_solve_at_t(problem: ProblemSpec, t: float, u_init: np.ndarray,
                      tol: float) -> tuple:
    """Solve the fixed-t equation by damped Newton from an admissible start;
    return (u, its Attempt row).

    Raises ValidationError unless ``tol`` is finite and positive and
    ``u_init`` is a finite array of the grid's shape.
    """
    _check_tol(tol)
    ev, _ = _make_evaluator(problem)
    u, _, row = _newton_loop(ev, t, _with_dirichlet_data(problem, u_init), None, tol)
    return u, row


def continuity_solve(problem: ProblemSpec, *, newton_tol: float | None = None,
                     initial_values: np.ndarray | None = None):
    """Carry t from 0 to 1, trying t = 1 first; return (u, diagnostics).

    u holds the node values: the full grid on a box, the s-grid on a ball.
    ``newton_tol`` defaults to ``NEWTON_TOL[problem.geometry]``, and the solve
    starts from ``initial_values`` (boundary reset to the Dirichlet data) or the subsolution.
    Raises ValidationError unless ``newton_tol`` is finite and positive and
    ``initial_values`` is a finite array of u's shape, SubsolutionInvalid
    when the problem's subsolution fails its analytic checks, ConeEscape
    when an initializer is not admissible, ContinuationStalled when step
    halving hits the minimum step and BelowRoundingFloor, without a retry,
    when Newton stagnates at the rounding floor above ``newton_tol``.  The
    diagnostics' ``attempts`` hold one Attempt row per Newton loop; a
    GardingError raised here carries the rows so far as ``attempts``.
    """
    attempts: list[Attempt] = []
    try:
        tol = _check_tol(NEWTON_TOL[problem.geometry] if newton_tol is None else newton_tol)
        verify_subsolution(problem)
        ev, start = _make_evaluator(problem)
        u = problem.subsolution
        if initial_values is not None:  # the subsolution's analysis does not describe u
            u, start = _with_dirichlet_data(problem, initial_values), None

        def attempt(t: float, u: np.ndarray, start: _Analysis | None):
            """_newton_loop's (u, analysis); each attempt, failed or not, adds its row."""
            try:
                u, start, row = _newton_loop(ev, t, u, start, tol)
            except GardingError as exc:
                attempts.append(Attempt(t, failure=f"{type(exc).__name__}: {exc}"))
                raise
            attempts.append(row)
            return u, start

        # start is the linearized analysis of u throughout
        u, start = attempt(0.0, u, start)
        t, step = 0.0, 1.0
        while t < 1.0:
            t_try = min(1.0, t + step)
            try:
                u, start = attempt(t_try, u, start)
            except (ConeEscape, MaxItersExceeded, LinearSolveStalled) as exc:
                # halve the step tried: min(1, t + step) may have cut it short,
                # and a deterministic retry of the same t_try fails the same way
                step = 0.5 * (t_try - t)
                # only a failed attempt shrinks the step, so the floor is met here
                if step < T_STEP_MIN:
                    raise ContinuationStalled(
                        f"continuation step {step:.2e} below minimum at t={t:.4f}"
                    ) from exc
                continue
            t = t_try
            step *= 2.0
        return u, _diagnostics(problem, ev, u, start, tuple(attempts))
    except GardingError as exc:
        exc.attempts = tuple(attempts)
        raise


def sandwich_check(u: np.ndarray, ul_u: np.ndarray, ol_u: np.ndarray) -> float:
    """Max violation of the two-sided bound ul_u <= u <= ol_u (0 when clean)."""
    return float(max(0.0, (ul_u - u).max(), (u - ol_u).max()))


def boundary_trace_check(u: np.ndarray, problem: ProblemSpec) -> float:
    """Minimum complex-tangential trace of g over the boundary.

    Box problems scan all face nodes (faces are flat, so the tangential
    block is determined by the boundary data); radial problems report the
    (n-1)-fold tangential trace (n - 1) * (c + u'(R^2)).
    """
    if problem.geometry == "box":
        return face_tangential_trace_min(u, problem.grid, problem.chi)
    u1_end = first_difference(u, 0, problem.grid.spacing)[-1]
    return float((problem.n - 1) * (problem.chi + u1_end))


def _barrier_report(u, ul_u, problem: ProblemSpec, state: _Analysis, tau, N, delta) -> BarrierReport:
    """The collar barrier v = (u - ul_u) + tau * d - N * d^2 on a box: the
    minimum of v over {0 < d < delta} (None: 0.1 * the diameter) and the
    maximum of L v / (1 + trace_F), L from ``state``, the linearized analysis
    of u, over the collar nodes whose stencil sees one realizing face (d has
    concave kinks at ridges and corners; those nodes are only counted).
    Violations are reported, never raised."""
    grid = problem.grid
    if delta is None:
        delta = 0.1 * grid.diameter()
    half_width = min((hi - lo) / 2.0 for lo, hi in grid.extent)
    degenerate = delta >= half_width

    d, second = grid.face_distances()
    v = (u - ul_u) + tau * d - N * d * d
    collar = (d > 0.0) & (d < delta)
    count = int(collar.sum())
    if count == 0:
        return BarrierReport(0, 0, np.nan, None, None, np.nan, degenerate)

    vmin_idx = np.unravel_index(int(np.argmin(np.where(collar, v, np.inf))), grid.shape)
    min_v = float(v[vmin_idx])

    # single-face mask: the nearest-face axis stays the realizing one across
    # the whole +-1 stencil neighborhood
    smooth = second - d > 2.0 * max(grid.spacing)

    interior_sl = (slice(1, -1),) * grid.ndim_real
    collar_smooth = (collar & smooth)[interior_sl]
    smooth_count = int(collar_smooth.sum())
    if smooth_count == 0:
        return BarrierReport(count, 0, min_v, tuple(int(i) for i in vmin_idx), None, np.nan,
                             degenerate)

    lv_field = StencilOperator(grid, *real_stencil_weights(state.coeffs, grid.spacing)).apply(v)
    ratio = lv_field / (1.0 + state.trace_f)
    masked = np.where(collar_smooth, ratio, -np.inf).reshape(-1)
    max_flat = int(np.argmax(masked))
    return BarrierReport(
        collar_nodes=count,
        smooth_nodes=smooth_count,
        min_v=min_v,
        min_v_node=tuple(int(i) for i in vmin_idx),
        max_lv_node=grid.node_of_flat(max_flat),
        epsilon=-float(masked[max_flat]),
        degenerate_collar=degenerate,
    )


def _c2_quantities(problem: ProblemSpec, u: np.ndarray) -> tuple:
    """(K, Hessian sup, boundary Hessian sup) of u, with K = 1 + sup |grad u|^2."""
    grid = problem.grid
    if problem.geometry == "box":
        K = 1.0 + gradient_sq_max(u, grid)
        radius = np.abs(eigvals_batch(complex_hessian_field(u, grid))).max(axis=-1)
        # boundary stand-in: first interior layer adjacent to a face
        layer = np.ones(grid.interior_shape, dtype=bool)
        layer[(slice(1, -1),) * grid.ndim_real] = False
        return K, float(radius.max()), float(radius[layer].max())
    K = 1.0 + radial_gradient_sq_max(u, grid)
    interior_r, boundary_r = radial_hessian_spectral_radius(u, grid)
    return K, float(max(interior_r.max(), boundary_r)), float(boundary_r)


def _diagnostics(problem, ev, u, final: _Analysis, attempts: tuple) -> SolveDiagnostics:
    """Diagnostics of the t = 1 iterate ``u``, read from its analysis ``final``."""
    barrier = None
    if problem.geometry == "box":
        upper_vals = upper_barrier(problem.chi, problem.phi, problem.grid)
        barrier = _barrier_report(u, problem.subsolution, problem, final,
                                  BARRIER_TAU, BARRIER_N, BARRIER_DELTA)
    else:
        upper_vals = radial_trace_equation_solution(problem.chi, problem.n, problem.phi[-1],
                                                    problem.grid)
    sandwich = sandwich_check(u, problem.subsolution, upper_vals)

    K, sup_h, sup_b = _c2_quantities(problem, u)
    amgm = (problem.p / problem.n) * final.trace_g - final.ft
    c0 = boundary_trace_check(u, problem)
    return SolveDiagnostics(
        K=float(K),
        F_trace=float(final.trace_f.min()),
        sandwich_violation=float(sandwich),
        c0_boundary=float(c0),
        c2_ratio=float(sup_h / K),
        sup_hessian=sup_h,
        boundary_sup_hessian=sup_b,
        amgm_min_slack=float(amgm.min()),
        final_residual=attempts[-1].residuals[-1],
        anchor_residual=attempts[0].residuals[0],
        barrier_report=barrier,
        attempts=attempts,
        node_margins=final.margins,
        node_residual=final.ft - ev.psi_tilde,
    )


@dataclass
class RefinementRow:
    label: str
    spacing: float
    sup_hessian: float
    boundary_sup_hessian: float
    K: float
    ratio_interior: float  # sup / (K + boundary sup)
    ratio_boundary: float  # boundary sup / K


def c2_ratio_monitor(levels) -> list:
    """Second-order ratio table across refinement levels.

    ``levels`` is a sequence of (problem, solution values) pairs of the same
    underlying problem at increasing resolution.  Returns RefinementRow
    entries; boundedness across rows is the monitored contract.
    """
    rows = []
    if len(levels) < 2:
        raise ValueError("need at least two refinement levels")
    for problem, u in levels:
        K, sup_h, sup_b = _c2_quantities(problem, u)
        grid = problem.grid
        if problem.geometry == "box":
            spacing, label = max(grid.spacing), f"res {grid.resolution}"
        else:
            spacing, label = grid.spacing, f"points {grid.points}"
        rows.append(
            RefinementRow(
                label=label,
                spacing=float(spacing),
                sup_hessian=sup_h,
                boundary_sup_hessian=sup_b,
                K=float(K),
                ratio_interior=float(sup_h / (K + sup_b)),
                ratio_boundary=float(sup_b / K),
            )
        )
    return rows
