"""Problem containers and manufactured-solution generation.

A manufactured problem samples the right-hand side from the exact complex
Hessian of an analytic target, takes the boundary trace of the target as
Dirichlet data, and defaults the subsolution to the target itself (the
equality case of the lower-bound requirement).  The analytic values of the
operator at the subsolution are stored so validity checks do not confuse
discretization error with genuine violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cone import margins_batch
from .errors import NotAdmissible, SubsolutionInvalid, ValidationError
from .grid import BoxGrid, least
from .hermitian import congruence_reduce_batch, eigvals_batch
from .operator import OperatorParams, product_batch
from .radial import RadialGrid, eigenvalue_rows

SUBSOLUTION_RTOL = 1e-9  # relative slack for M(subsolution) >= psi


def _admissible_margins(vals: np.ndarray, p: int, what: str, node_of_flat, place: str):
    """Margins of ascending eigenvalue rows; NotAdmissible where the least is <= 0."""
    margins = margins_batch(vals, p)
    value, node = least(margins, node_of_flat)
    if value <= 0.0:
        raise NotAdmissible(f"{what} margin {value:.6e} <= 0 at {place} {node}", node=node)
    return margins


def _finite(name: str, values: np.ndarray) -> np.ndarray:
    """``values``; ValidationError naming them if an entry is inf or NaN."""
    if not np.isfinite(values).all():
        raise ValidationError(name, "not finite everywhere: an input overflows a double")
    return values


@dataclass
class BoxProblem:
    grid: BoxGrid
    chi: np.ndarray  # constant (n, n) Hermitian background form
    omega: np.ndarray | None  # constant Hermitian metric; None = identity
    psi: np.ndarray  # target right-hand side at interior nodes
    phi: np.ndarray  # full-shape field; boundary values are authoritative
    subsolution: np.ndarray  # full-shape field
    subsolution_margin: np.ndarray  # analytic cone margins at interior nodes
    subsolution_M: np.ndarray  # analytic operator values at interior nodes
    reference: np.ndarray | None = None  # known solution for error reporting


@dataclass
class RadialProblem:
    n: int
    p: int
    grid: RadialGrid
    chi_scalar: float
    psi: np.ndarray  # values at collocation nodes 0..m-1
    boundary_value: float  # u(R^2)
    subsolution: np.ndarray  # profile values at all nodes
    subsolution_margin: np.ndarray
    subsolution_M: np.ndarray
    reference: np.ndarray | None = None


@dataclass
class ProblemSpec:
    n: int
    p: int
    geometry: str  # 'box' or 'radial'
    box: BoxProblem | None = None
    radial: RadialProblem | None = None
    document: object | None = None  # parsed spec text, when applicable
    label: str = ""
    params: OperatorParams = field(init=False)

    def __post_init__(self):
        if self.geometry not in ("box", "radial"):
            raise ValidationError("geometry", f"unknown geometry {self.geometry!r}")
        if self.geometry == "box" and self.box is None:
            raise ValidationError("geometry", "box geometry without box payload")
        if self.geometry == "radial" and self.radial is None:
            raise ValidationError("geometry", "radial geometry without radial payload")
        if not 1 <= self.p <= self.n:
            raise ValidationError("p", f"p must satisfy 1 <= p <= n, got {self.p}")
        self.params = OperatorParams(self.n, self.p)


def _apply_psi_modifiers(psi: np.ndarray, scale: float, bump_node, bump_factor: float,
                         interior_offset: int):
    psi = psi * float(scale)
    if bump_node is not None:
        idx = tuple(int(i) - interior_offset for i in np.atleast_1d(bump_node))
        if len(idx) == 1:
            idx = idx[0]
        psi[idx] = psi[idx] * float(bump_factor)
    return psi


@np.errstate(over="ignore", invalid="ignore")  # overflow raises ValidationError below
def manufactured_box(
    u_star,
    chi: np.ndarray,
    params: OperatorParams,
    grid: BoxGrid,
    omega: np.ndarray | None = None,
    subsolution=None,
    reference_is_target: bool = True,
    psi_scale: float = 1.0,
    psi_bump_node=None,
    psi_bump_factor: float = 1.0,
    label: str = "",
) -> ProblemSpec:
    """Manufacture a box problem from an analytic target.

    ``u_star`` (and the optional distinct ``subsolution``) must expose
    ``value(points)`` and ``complex_hessian(points)``.  Raises NotAdmissible
    with a witness node if the subsolution exits the cone anywhere, and
    ValidationError if a built array is not finite.
    """
    if grid.n != params.n:
        raise ValidationError("n", f"grid dimension {grid.n} != operator dimension {params.n}")
    chi = np.asarray(chi, dtype=np.complex128)
    pts_all = grid.points()
    pts_int = grid.interior_points()

    omega_entries = None if omega is None else np.asarray(omega, dtype=np.complex128)

    def values_and_eigenvalues(fn, what):
        values = _finite(f"{what} values", fn.value(pts_all))
        reduced, _ = congruence_reduce_batch(chi + fn.complex_hessian(pts_int), omega_entries)
        return values, eigvals_batch(_finite(f"{what} chi + complex Hessian", reduced))

    target_vals, vals_t = values_and_eigenvalues(u_star, "target")
    # without a distinct subsolution the target is one, and its arrays serve
    sub_vals, vals_s = target_vals, vals_t
    if subsolution is not None:
        sub_vals, vals_s = values_and_eigenvalues(subsolution, "subsolution")

    margins_s = _admissible_margins(vals_s, params.p, "subsolution", grid.node_of_flat, "node")
    _admissible_margins(vals_t, params.p, "target", grid.node_of_flat, "node")

    psi = product_batch(vals_t, params)
    psi = _finite("psi", _apply_psi_modifiers(psi, psi_scale, psi_bump_node, psi_bump_factor, 1))
    sub_m = _finite("M_p(subsolution)", product_batch(vals_s, params))

    box = BoxProblem(
        grid=grid,
        chi=chi,
        omega=omega_entries,
        psi=psi,
        phi=target_vals.copy(),
        subsolution=sub_vals,
        subsolution_margin=margins_s,
        subsolution_M=sub_m,
        reference=target_vals.copy() if reference_is_target else None,
    )
    return ProblemSpec(n=params.n, p=params.p, geometry="box", box=box, label=label)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises ValidationError below
def manufactured_radial(
    profile,
    c: float,
    params: OperatorParams,
    grid: RadialGrid,
    subsolution_profile=None,
    reference_is_target: bool = True,
    psi_scale: float = 1.0,
    psi_bump_node=None,
    psi_bump_factor: float = 1.0,
    label: str = "",
) -> ProblemSpec:
    """Manufacture a radial problem from an analytic profile u(s), checked as a box one is."""
    s = grid.s
    m = grid.points - 1

    def values_and_rows(prof, what):
        rows = eigenvalue_rows(prof.d1(s[:m]), prof.d2(s[:m]), s, params.n, c)
        return (_finite(f"{what} values", prof.value(s)),
                _finite(f"{what} profile derivatives", rows))

    target_vals, lam_t = values_and_rows(profile, "target")
    sub_vals, lam_s = target_vals, lam_t
    if subsolution_profile is not None:
        sub_vals, lam_s = values_and_rows(subsolution_profile, "subsolution")

    margins_s = _admissible_margins(np.sort(lam_s, axis=-1), params.p, "subsolution", int,
                                    "s-index")
    _admissible_margins(np.sort(lam_t, axis=-1), params.p, "target", int, "s-index")

    psi = product_batch(lam_t, params)
    psi = _finite("psi", _apply_psi_modifiers(psi, psi_scale, psi_bump_node, psi_bump_factor, 0))
    sub_m = _finite("M_p(subsolution)", product_batch(lam_s, params))

    radial = RadialProblem(
        n=params.n,
        p=params.p,
        grid=grid,
        chi_scalar=float(c),
        psi=psi,
        boundary_value=float(target_vals[-1]),
        subsolution=sub_vals,
        subsolution_margin=margins_s,
        subsolution_M=sub_m,
        reference=target_vals.copy() if reference_is_target else None,
    )
    return ProblemSpec(n=params.n, p=params.p, geometry="radial", radial=radial, label=label)


def verify_subsolution(problem: ProblemSpec) -> None:
    """Check admissibility and M(subsolution) >= psi; raise with a witness node.

    Uses the analytic operator values stored at problem build time, so the
    equality case (subsolution == target) passes exactly while genuine
    inflations of psi are caught at the offending node.
    """
    if problem.geometry == "box":
        payload = problem.box
        node_of_flat = payload.grid.node_of_flat
    else:
        payload = problem.radial
        node_of_flat = int  # s-grid nodes are the flat indices

    margin, node = least(payload.subsolution_margin, node_of_flat)
    if margin <= 0.0:
        raise SubsolutionInvalid(
            f"subsolution not admissible: margin {margin:.6e} at node {node}", node=node
        )

    deficit = payload.psi - payload.subsolution_M
    tol = SUBSOLUTION_RTOL * np.maximum(np.abs(payload.psi), 1.0)
    if np.any(deficit > tol):
        flat = int(np.argmax((deficit - tol).reshape(-1)))
        node = node_of_flat(flat)
        raise SubsolutionInvalid(
            f"psi exceeds M(subsolution) by {deficit.reshape(-1)[flat]:.6e} at node {node}",
            node=node,
        )
