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
the minimum-margin node and the metric trace of g, plus what its
linearization needs.  A box analysis keeps K = A^[p], the p-th additive
compound of the reduced matrix A of omega^-1 g, whose determinant is M_p and
whose least eigenvalue is the margin, for every p; no eigenvectors are
computed.  A radial analysis keeps its eigenvalue rows unsorted.  A damping
trial computes only the analysis.  The accepted
candidate's analysis is then linearized in place (ftilde, trace_F, the
coefficients of the linearized operator, with K released) and becomes the
Newton state.  The anchor is
ftilde from the subsolution's analysis, which also starts the t = 0
attempt; each accepted step's final analysis starts the next attempt.

The diagnostic suite instantiates the comparison sandwich, the boundary
tangential-trace lower bound, the collar barrier inequality and the
second-order ratio monitors on the computed solution, reading the final
state's analysis; diagnostics never feed back into the solve.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .cone import margins_batch
from .errors import (
    ConeEscape,
    ContinuationStalled,
    LinearSolveStalled,
    MaxItersExceeded,
    RadialModeUnsupported,
    ValidationError,
)
from .grid import (
    MatrixField,
    ScalarField,
    complex_hessian_field,
    face_tangential_trace_min,
    field_values,
    first_difference,
    gradient_sq_max,
    least,
)
from .hermitian import ambient_transport_batch, congruence_reduce_batch, eigvals_batch
from .linear import StencilOperator, assemble_linearized, real_stencil_weights, solve_sparse, upper_barrier
from .operator import determinant_form_batch, determinant_linearization_batch, ftilde_grad_batch
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

log = logging.getLogger(__name__)

# lowest admissible t_step_min: at most 1 / t_step_min continuation steps
# are accepted, so the floor bounds a solve's length
T_STEP_FLOOR = 2.0**-20


@dataclass
class SolveConfig:
    newton_tol: float | None = None  # default 1e-8 (box) / 1e-10 (radial)
    max_newton_iters: int = 50
    t_step_init: float = 0.25
    t_step_min: float = 1e-6
    t_step_max: float = 0.5
    t_growth: float = 1.5
    easy_iters: int = 3
    margin_keep: float = 0.1
    alpha_min: float = 2.0**-20
    linear_tol_floor: float = 1e-12
    linear_tol_cap: float = 1e-4
    initial_values: np.ndarray | None = None
    compute_barrier: bool = True
    barrier_tau: float = 0.05
    barrier_N: float = 50.0
    barrier_delta: float | None = None  # default 0.1 * domain diameter

    def validate(self) -> None:
        """Raise ValidationError for a setting outside its range.

        With ``t_growth >= 1`` the continuation step shrinks only after a
        failed step, and ``t_step_min >= T_STEP_FLOOR`` bounds both how
        often that can happen and the number of accepted steps.
        """
        for name in ("newton_tol", "linear_tol_floor", "linear_tol_cap"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValidationError(name, f"tolerance must be positive, got {value}")
        for name in ("max_newton_iters", "easy_iters"):
            value = getattr(self, name)
            if value < 0:
                raise ValidationError(name, f"must be >= 0, got {value}")
        if not T_STEP_FLOOR <= self.t_step_min <= self.t_step_init <= self.t_step_max <= 1.0:
            raise ValidationError(
                "t_step_init",
                "need 2^-20 <= t_step_min <= t_step_init <= t_step_max <= 1, got "
                f"{self.t_step_min}, {self.t_step_init}, {self.t_step_max}",
            )
        if not self.t_growth >= 1.0:
            raise ValidationError("t_growth", f"must be >= 1, got {self.t_growth}")
        for name in ("margin_keep", "alpha_min"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValidationError(name, f"must lie in (0, 1), got {value}")
        for name in ("barrier_tau", "barrier_N", "barrier_delta"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise ValidationError(name, f"must be positive, got {value}")

    def tol_for(self, geometry: str) -> float:
        if self.newton_tol is not None:
            return self.newton_tol
        return 1e-10 if geometry == "radial" else 1e-8


@dataclass
class HomotopyState:
    t: float
    u: np.ndarray
    residual_norm: float
    newton_iters: int
    min_margin: float
    residual_history: tuple = ()


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
    states: list = field(default_factory=list)
    # per interior node at t = 1, for the CSV: cone margin, ftilde - psi_tilde
    node_margins: np.ndarray | None = None
    node_residual: np.ndarray | None = None


@dataclass
class _Analysis:
    """One decomposition of a grid state and everything read from it.

    ``margins`` are the cone margins at the interior nodes, ``min_margin``
    and ``min_node`` their least value and its node (they serve the damping
    test), and ``trace_g`` the metric trace of g per node.  The rest is what
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


class _BoxEvaluator:
    """Analyses and Newton corrections on a box problem."""

    def __init__(self, problem: ProblemSpec, config: SolveConfig):
        self.config = config
        box = problem.box
        self.grid = box.grid
        self.params = problem.params
        self.chi = box.chi
        self.omega = box.omega
        self.psi_tilde = box.psi ** (1.0 / self.params.subset_count)
        self.ell = None if self.omega is None else np.linalg.cholesky(self.omega)
        self.anchor = None  # ftilde at the subsolution, set by _make_evaluator
        self.start = None  # linearized analysis the next Newton loop starts from

    def _reduced(self, u_values: np.ndarray) -> np.ndarray:
        """The reduced matrices of omega^-1 g at u; the Hessian dies with the call."""
        hess = complex_hessian_field(ScalarField(self.grid, u_values))
        return congruence_reduce_batch(hess.values + self.chi, self.omega)[0]

    def analyze(self, u_values: np.ndarray) -> _Analysis:
        # no temporary stays alive across the eigenvalues: only their input,
        # their output and one block of their work
        form, trace_g = determinant_form_batch(self._reduced(u_values), self.params)
        margins = eigvals_batch(form)[..., 0]
        return _Analysis(margins, *least(margins, self.grid.node_of_flat), trace_g, form=form)

    def linearize(self, a: _Analysis) -> None:
        # K is the largest array of a state; the coefficients replace it
        coeffs, a.trace_f, a.ft = determinant_linearization_batch(self.params, a.form)
        a.form = None
        a.coeffs = ambient_transport_batch(coeffs, self.ell)

    def correction(self, a: _Analysis, resid: np.ndarray, rnorm: float) -> np.ndarray:
        system = assemble_linearized(MatrixField(self.grid, a.coeffs), -resid, self.grid)
        scale = max(1.0, float(np.abs(self.psi_tilde).max()))
        lin_tol = min(
            self.config.linear_tol_cap,
            max(self.config.linear_tol_floor, 0.03 * rnorm / scale),
        )
        return solve_sparse(system, tol=lin_tol).values


class _RadialEvaluator:
    """Analyses and Newton corrections on a radial problem."""

    def __init__(self, problem: ProblemSpec, config: SolveConfig):
        rad = problem.radial
        self.grid = rad.grid
        self.params = problem.params
        self.n = problem.n
        self.c = rad.chi_scalar
        self.psi_tilde = rad.psi ** (1.0 / self.params.subset_count)
        self.anchor = None
        self.start = None

    def analyze(self, u: np.ndarray) -> _Analysis:
        u1, u2 = profile_derivatives(u, self.grid.spacing)
        lam = eigenvalue_rows(u1, u2, self.grid.s, self.n, self.c)
        margins = margins_batch(np.sort(lam, axis=-1), self.params.p)
        return _Analysis(margins, *least(margins, self.grid.node_of_flat), lam.sum(axis=-1),
                         vals=lam)

    def linearize(self, a: _Analysis) -> None:
        # ftilde is symmetric: its gradient keeps the column order of the rows
        a.ft, grads = ftilde_grad_batch(a.vals, self.params)
        a.trace_f = grads.sum(axis=-1)
        a.coeffs = grads[:, self.n - 1]

    def correction(self, a: _Analysis, resid: np.ndarray, rnorm: float) -> np.ndarray:
        band = radial_linearized(a.trace_f, a.coeffs, self.grid)
        return np.append(solve_radial_linear(band, -resid), 0.0)  # node m is Dirichlet


def _linearized(ev, u: np.ndarray, what: str) -> _Analysis:
    """The linearized analysis of ``u``; ConeEscape, led by ``what``, if ``u``
    is not admissible on the grid."""
    a = ev.analyze(u)
    if a.min_margin <= 0.0:
        raise ConeEscape(f"{what} (margin {a.min_margin:.3e})", node=a.min_node)
    ev.linearize(a)
    return a


def _make_evaluator(problem: ProblemSpec, config: SolveConfig):
    """Evaluator whose t = 0 anchor is ftilde from the subsolution's analysis.

    That analysis is left in ``ev.start``, so a Newton loop from the
    subsolution starts from it; every Newton state comes from the same
    analyze/linearize pair, so the t = 0 residual there is bitwise zero.
    """
    ev = (_BoxEvaluator if problem.geometry == "box" else _RadialEvaluator)(problem, config)
    ev.start = _linearized(ev, problem.payload.subsolution,
                           "subsolution not admissible on the grid")
    ev.anchor = ev.start.ft
    return ev


def _newton_loop(ev, t: float, u_init: np.ndarray, tol: float, config: SolveConfig) -> HomotopyState:
    """Damped Newton at fixed t from ``u_init``; returns the converged state.

    The loop takes ``ev.start``, the linearized analysis of ``u_init``, when
    one is set, and analyzes ``u_init`` otherwise.  On convergence it leaves
    the converged iterate's analysis in ``ev.start`` for the next attempt.
    """
    u = u_init.copy()
    state, ev.start = ev.start, None
    if state is None:
        state = _linearized(ev, u, "initial iterate not admissible")
    target = t * ev.psi_tilde + (1.0 - t) * ev.anchor
    history: list[float] = []
    best = np.inf
    stagnant = 0
    for iteration in range(config.max_newton_iters + 1):
        resid = state.ft - target
        rnorm = float(np.abs(resid).max())
        history.append(rnorm)
        if rnorm < 0.9 * best:
            best = rnorm
            stagnant = 0
        else:
            stagnant += 1
            if stagnant >= 8:
                # rounding floor of the residual evaluation; more iterations
                # cannot help
                raise MaxItersExceeded(
                    f"Newton stagnated at residual {rnorm:.3e} (tol {tol:.1e}) at t={t:.4f}"
                )
        if rnorm <= tol:
            if len(history) >= 3:
                ratio = history[-1] / max(history[-2], 1e-300)
                prev = history[-2] / max(history[-3], 1e-300)
                log.debug(
                    "newton t=%.4f converged in %d iters; last ratios %.3e, %.3e",
                    t, iteration, prev, ratio,
                )
            ev.start = state
            return HomotopyState(
                t=t,
                u=u,
                residual_norm=rnorm,
                newton_iters=iteration,
                min_margin=state.min_margin,
                residual_history=tuple(history),
            )
        if iteration == config.max_newton_iters:
            break
        delta = ev.correction(state, resid, rnorm)
        alpha = 1.0
        while True:
            candidate = u + alpha * delta
            trial = ev.analyze(candidate)
            if trial.min_margin >= config.margin_keep * state.min_margin:
                break
            alpha *= 0.5
            if alpha < config.alpha_min:
                raise ConeEscape(
                    f"no damping factor >= {config.alpha_min:g} keeps admissibility "
                    f"near node {trial.min_node}",
                    node=trial.min_node,
                )
        u, state = candidate, trial
        ev.linearize(state)
    raise MaxItersExceeded(
        f"{config.max_newton_iters} Newton iterations at t={t:.4f}, residual {history[-1]:.3e}"
    )


def newton_solve_at_t(
    problem: ProblemSpec,
    t: float,
    u_init: np.ndarray | ScalarField,
    tol: float,
    config: SolveConfig | None = None,
) -> HomotopyState:
    """Solve the fixed-t equation by damped Newton from an admissible start."""
    config = config or SolveConfig()
    ev = _make_evaluator(problem, config)
    ev.start = None  # u_init is not the subsolution in general
    return _newton_loop(ev, t, field_values(u_init), tol, config)


def continuity_solve(problem: ProblemSpec, config: SolveConfig | None = None):
    """March t from 0 to 1 with adaptive steps; return solution + diagnostics.

    Raises SubsolutionInvalid when the problem's subsolution fails its
    analytic checks, ConeEscape when an initializer is not admissible, and
    ContinuationStalled when step halving hits the minimum step.
    """
    config = config or SolveConfig()
    verify_subsolution(problem)
    ev = _make_evaluator(problem, config)

    tol = config.tol_for(problem.geometry)
    if config.initial_values is None:
        u = problem.payload.subsolution.copy()
    else:
        u = np.asarray(config.initial_values, dtype=float).copy()
        ev.start = None  # the subsolution's analysis does not describe u

    states: list[HomotopyState] = []
    state0 = _newton_loop(ev, 0.0, u, tol, config)
    states.append(state0)
    u = state0.u
    anchor_residual = state0.residual_history[0]

    t = 0.0
    step = config.t_step_init
    failure = None
    while t < 1.0:
        if step < config.t_step_min:
            raise ContinuationStalled(
                f"continuation step {step:.2e} below minimum at t={t:.4f}"
            ) from failure
        t_try = min(1.0, t + step)
        # ev.start, the analysis of u, starts the attempt; after a failed
        # attempt it is gone and the restart analyzes u again
        try:
            st = _newton_loop(ev, t_try, u, tol, config)
        except (ConeEscape, MaxItersExceeded, LinearSolveStalled) as exc:
            step *= 0.5
            failure = exc
            log.debug("continuation step to t=%.4f failed (%s); step -> %.2e", t_try, exc, step)
            continue
        failure = None
        states.append(st)
        u = st.u
        t = t_try
        if st.newton_iters <= config.easy_iters:
            step = min(step * config.t_growth, config.t_step_max)

    # the analysis at t = 1 feeds the diagnostics
    final, ev.start = ev.start, None
    diagnostics = _diagnostics(problem, ev, final, states, anchor_residual, config)
    if problem.geometry == "box":
        return ScalarField(problem.box.grid, u), diagnostics
    return u, diagnostics


def sandwich_check(u, ul_u, ol_u) -> float:
    """Max violation of the two-sided bound ul_u <= u <= ol_u (0 when clean)."""
    uv, lv, ov = field_values(u), field_values(ul_u), field_values(ol_u)
    return float(max(0.0, (lv - uv).max(), (uv - ov).max()))


def boundary_trace_check(u, problem: ProblemSpec) -> float:
    """Minimum complex-tangential trace of g over the boundary.

    Box problems scan all face nodes (faces are flat, so the tangential
    block is determined by the boundary data); radial problems report the
    (n-1)-fold tangential trace (n - 1) * (c + u'(R^2)).
    """
    if problem.geometry == "box":
        field_u = u if isinstance(u, ScalarField) else ScalarField(problem.box.grid, u)
        return face_tangential_trace_min(field_u, problem.box.chi)
    rad = problem.radial
    u1_end = first_difference(field_values(u), 0, rad.grid.spacing)[-1]
    return float((problem.n - 1) * (rad.chi_scalar + u1_end))


def barrier_check(
    u,
    ul_u,
    problem: ProblemSpec,
    tau: float = 0.05,
    N: float = 50.0,
    delta: float | None = None,
) -> BarrierReport:
    """Evaluate the collar barrier v = (u - ul_u) + tau * d - N * d^2.

    Reports the minimum of v over the collar {0 < d < delta} and the maximum
    of L v / (1 + trace_F) over the collar nodes whose full stencil sees a
    single realizing face, where L is the linearized operator at u.  At
    ridge and corner nodes d has concave kinks and its discrete Hessian does
    not reflect the smooth distance branch the inequality is about, so those
    nodes are excluded from the L v scan (their count is reported).  Purely
    diagnostic: violations are reported, never raised.
    """
    if problem.geometry != "box":
        raise RadialModeUnsupported("barrier_check requires a box problem")
    uv = field_values(u)
    ev = _BoxEvaluator(problem, SolveConfig())
    a = ev.analyze(uv)
    ev.linearize(a)
    return _barrier_report(uv, ul_u, problem, a, tau, N, delta)


def _barrier_report(uv, ul_u, problem: ProblemSpec, state: _Analysis, tau, N, delta) -> BarrierReport:
    """barrier_check's body, with L taken from the linearized analysis of u."""
    grid = problem.box.grid
    lv = field_values(ul_u)
    if delta is None:
        delta = 0.1 * grid.diameter()
    half_width = min((hi - lo) / 2.0 for lo, hi in grid.extent)
    degenerate = delta >= half_width

    d, second = grid.face_distances()
    v = (uv - lv) + tau * d - N * d * d
    collar = (d > 0.0) & (d < delta)
    count = int(collar.sum())
    if count == 0:
        return BarrierReport(0, 0, np.nan, None, None, np.nan, True)

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


def _c2_quantities(problem: ProblemSpec, uv: np.ndarray) -> tuple:
    """(K, Hessian sup, boundary Hessian sup) of u, with K = 1 + sup |grad u|^2."""
    if problem.geometry == "box":
        grid = problem.box.grid
        K = 1.0 + gradient_sq_max(ScalarField(grid, uv))
        hess = complex_hessian_field(ScalarField(grid, uv))
        radius = np.abs(eigvals_batch(hess.values)).max(axis=-1)
        # boundary stand-in: first interior layer adjacent to a face
        layer = np.ones(grid.interior_shape, dtype=bool)
        layer[(slice(1, -1),) * grid.ndim_real] = False
        return K, float(radius.max()), float(radius[layer].max())
    rad = problem.radial
    K = 1.0 + radial_gradient_sq_max(uv, rad.grid)
    interior_r, boundary_r = radial_hessian_spectral_radius(uv, rad.grid)
    return K, float(max(interior_r.max(), boundary_r)), float(boundary_r)


def _diagnostics(problem, ev, final: _Analysis, states, anchor_residual, config) -> SolveDiagnostics:
    """Diagnostics of the t = 1 state ``states[-1]``, read from its analysis."""
    u = states[-1].u
    barrier = None
    if problem.geometry == "box":
        box = problem.box
        grid = box.grid
        upper_vals = upper_barrier(box.chi, box.omega, ScalarField(grid, box.phi), grid).values
        if config.compute_barrier:
            barrier = _barrier_report(
                u, box.subsolution, problem, final,
                config.barrier_tau, config.barrier_N, config.barrier_delta,
            )
    else:
        rad = problem.radial
        upper_vals = radial_trace_equation_solution(
            rad.chi_scalar, problem.n, rad.boundary_value, rad.grid
        )
    sandwich = sandwich_check(u, problem.payload.subsolution, upper_vals)

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
        final_residual=states[-1].residual_norm,
        anchor_residual=float(anchor_residual),
        barrier_report=barrier,
        states=states,
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
        K, sup_h, sup_b = _c2_quantities(problem, field_values(u))
        if problem.geometry == "box":
            spacing = max(problem.box.grid.spacing)
            label = f"res {problem.box.grid.resolution}"
        else:
            spacing = problem.radial.grid.spacing
            label = f"points {problem.radial.grid.points}"
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
