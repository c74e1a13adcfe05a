"""The problem record and manufactured-solution generation.

A Dirichlet problem is one flat record, ``ProblemSpec``: the operator
parameters, the grid (a box, or a ball's s-grid; it sets the geometry), chi,
psi, the boundary data phi and a subsolution.  A manufactured problem
samples the right-hand side from the exact complex Hessian of an analytic
target and takes the target's values as phi: on the boundary they are the
Dirichlet data, and inside they are the known solution.  The subsolution
defaults to the target itself (the equality case of the lower-bound
requirement).  The analytic values of the operator at the subsolution are
stored so validity checks do not confuse discretization error with genuine
violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotAdmissible, SubsolutionInvalid, ValidationError
from .grid import BoxGrid, least
from .hermitian import eigvals_batch
from .operator import MAGNITUDE_BOUND, OperatorParams, margins_batch, product_batch
from .radial import RadialGrid, eigenvalue_rows

SUBSOLUTION_RTOL = 1e-9  # relative slack for M(sub) >= psi and for sub = phi on the boundary


def _finite(name: str, values, bounded: bool = False):
    """``values``; ValidationError naming them if an entry is inf, NaN or, when
    ``bounded`` (chi, values, eigenvalues; not psi), beyond MAGNITUDE_BOUND."""
    limit = MAGNITUDE_BOUND if bounded else np.inf
    if not (np.isfinite(values) & (np.abs(values) <= limit)).all():
        beyond = ", or beyond 2^500 in magnitude" if bounded else ""
        raise ValidationError(name, "not finite everywhere" + beyond)
    return values


@dataclass
class ProblemSpec:
    """M_p(chi + i ddbar u) = psi with u = phi on the boundary of ``grid``.

    ``chi`` is the constant (n, n) form on a box and the scalar c of chi =
    c * identity on a ball.  ``phi`` and ``subsolution`` have the grid's
    shape; ``psi`` and ``subsolution_M`` (M_p(subsolution), analytic) are at
    the interior (box) or collocation (ball) nodes.
    """

    params: OperatorParams
    grid: BoxGrid | RadialGrid
    chi: np.ndarray | float
    psi: np.ndarray
    phi: np.ndarray
    subsolution: np.ndarray
    subsolution_M: np.ndarray

    @property
    def geometry(self) -> str:
        return "box" if isinstance(self.grid, BoxGrid) else "radial"

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def p(self) -> int:
        return self.params.p


@np.errstate(over="ignore", invalid="ignore")  # overflow raises ValidationError below
def _manufacture(read, target, subsolution, params: OperatorParams, grid, psi_scale,
                 psi_bump_node, psi_bump_factor, *, shape: tuple, sort_rows: bool,
                 interior_offset: int):
    """(target values, subsolution values, psi, M_p(subsolution)) of a problem.

    ``read(fn, what)`` returns a function's checked values and eigenvalue
    rows, whose shape broadcasts to the node ``shape`` that psi and M_p(sub)
    take last.  NotAdmissible where a least margin is <= 0; ``sort_rows``
    sorts the rows for that check only, so psi is the product over the rows as read.
    """
    target_vals, rows_t = read(target, "target")
    target_vals.flags.writeable = False  # shared as phi and the default subsolution
    # without a distinct subsolution the target is one, and its arrays serve
    sub_vals, rows_s = target_vals, rows_t
    if subsolution is not None:
        sub_vals, rows_s = read(subsolution, "subsolution")
    for rows, what in ((rows_s, "subsolution"), (rows_t, "target")):
        ascending = np.sort(rows, axis=-1) if sort_rows else rows
        # at the node shape, so the witness is the first least node in C order
        margins = np.broadcast_to(margins_batch(ascending, params.p), shape)
        value, node = least(margins, grid.node_of_flat)
        if value <= 0.0:
            raise NotAdmissible(f"{what} margin {value:.6e} <= 0 at node {node}", node=node)

    sub_m = product_batch(rows_s, params)
    # a fresh array either way: the bump writes into psi
    psi = np.multiply(sub_m if rows_t is rows_s else product_batch(rows_t, params),
                      float(psi_scale), out=np.empty(shape))
    if psi_bump_node is not None:
        idx = tuple(int(i) - interior_offset for i in np.atleast_1d(psi_bump_node))
        psi[idx] = psi[idx] * float(psi_bump_factor)
    return (target_vals, sub_vals, _finite("psi", psi),
            _finite("M_p(subsolution)", np.broadcast_to(sub_m, shape).copy()))


def manufactured_box(
    u_star,
    chi: np.ndarray,
    params: OperatorParams,
    grid: BoxGrid,
    subsolution=None,
    psi_scale: float = 1.0,
    psi_bump_node=None,
    psi_bump_factor: float = 1.0,
) -> ProblemSpec:
    """Manufacture a box problem from an analytic target.

    ``u_star`` (and the optional distinct ``subsolution``) must expose
    ``value(coords)`` and ``complex_hessian(coords)`` (``BoxGrid.coords``).  Raises
    NotAdmissible with a witness node if the subsolution exits the cone anywhere, and
    ValidationError if a built array is not finite or chi, values or eigenvalues exceed 2^500.
    """
    if grid.n != params.n:
        raise ValidationError("n", f"grid dimension {grid.n} != operator dimension {params.n}")
    chi = _finite("chi", np.asarray(chi, dtype=np.complex128), bounded=True)

    def values_and_eigenvalues(fn, what):
        # the rows have the broadcast shape of fn's second derivatives
        values = _finite(f"{what} values", fn.value(grid.coords()), bounded=True)
        hessian = chi + fn.complex_hessian(grid.coords(interior=True))
        return values, eigvals_batch(_finite(f"{what} chi + complex Hessian", hessian, bounded=True))

    target, sub, psi, sub_m = _manufacture(
        values_and_eigenvalues, u_star, subsolution, params, grid, psi_scale, psi_bump_node,
        psi_bump_factor, shape=grid.interior_shape, sort_rows=False, interior_offset=1)
    return ProblemSpec(params, grid, chi, psi, target, sub, sub_m)


def manufactured_radial(
    profile,
    c: float,
    params: OperatorParams,
    grid: RadialGrid,
    subsolution_profile=None,
    psi_scale: float = 1.0,
    psi_bump_node=None,
    psi_bump_factor: float = 1.0,
) -> ProblemSpec:
    """Manufacture a radial problem from an analytic profile u(s), checked as a box one is."""
    c = float(_finite("chi", c, bounded=True))
    s = grid.s
    m = grid.points - 1

    def values_and_rows(prof, what):
        rows = eigenvalue_rows(prof.d1(s[:m]), prof.d2(s[:m]), s, params.n, c)
        return (_finite(f"{what} values", prof.value(s), bounded=True),
                _finite(f"{what} profile derivatives", rows, bounded=True))

    target, sub, psi, sub_m = _manufacture(
        values_and_rows, profile, subsolution_profile, params, grid, psi_scale, psi_bump_node,
        psi_bump_factor, shape=(m,), sort_rows=True, interior_offset=0)
    return ProblemSpec(params, grid, c, psi, target, sub, sub_m)


def verify_subsolution(problem: ProblemSpec) -> None:
    """Check M(subsolution) >= psi (the build checked admissibility) and that
    the subsolution takes the Dirichlet data phi on the boundary; raise
    SubsolutionInvalid with a witness node.

    Uses the analytic operator values stored at problem build time, so the
    equality case (subsolution == target) passes exactly while genuine
    inflations of psi are caught at the offending node.  A subsolution off
    phi on the boundary would make the solve keep its boundary values, not
    phi's.
    """
    deficit = problem.psi - problem.subsolution_M
    tol = SUBSOLUTION_RTOL * np.maximum(np.abs(problem.psi), 1.0)
    if np.any(deficit > tol):
        flat = int(np.argmax((deficit - tol).reshape(-1)))
        node = problem.grid.node_of_flat(flat)
        raise SubsolutionInvalid(
            f"psi exceeds M(subsolution) by {deficit.reshape(-1)[flat]:.6e} at node {node}",
            node=node,
        )
    if problem.subsolution is problem.phi:  # the default subsolution: no boundary pass
        return
    on_boundary = problem.grid.boundary_mask()
    sub, phi = problem.subsolution[on_boundary], problem.phi[on_boundary]
    gap = np.abs(sub - phi)
    excess = gap - SUBSOLUTION_RTOL * np.maximum(np.abs(phi), 1.0)
    if np.any(excess > 0.0):
        k = int(np.argmax(excess))
        idx = np.unravel_index(np.flatnonzero(on_boundary)[k], problem.grid.shape)
        node = tuple(int(i) for i in idx) if problem.geometry == "box" else int(idx[0])
        raise SubsolutionInvalid(
            f"subsolution differs from the boundary data by {gap[k]:.6e} at node {node}",
            node=node,
        )
