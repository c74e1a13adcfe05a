"""Dirichlet solves for the linearized operator, applied from its stencil weights.

The linearization of the normalized operator at an admissible iterate is

    L v = tr(C(node) @ complex_hessian(v)),

with C the Hermitian positive-definite coefficient field.  Writing
C = R + iI (R symmetric, I antisymmetric) and expanding the complex Hessian
into real second differences gives the real stencil weights

    L v = 1/4 * sum_{k,j} R_kj (v_{x^k x^j} + v_{y^k y^j})
        - 1/2 * sum_{k,j} I_kj  v_{x^k y^j},

so the operator is real; the imaginary parts cancel exactly because both C
and the discrete Hessian are Hermitian.  Unknowns are the interior nodes in
C (row-major) order; Dirichlet data is folded into the right-hand side by
the callers.

No matrix is formed.  ``StencilOperator`` keeps the weights alone: the
centre, one field per real axis and one per axis pair whose cross weights
are not all zero (19 fields at n = 3; constants for constant coefficients).
It applies them to a full-grid array whose boundary entries act as
Dirichlet data (zeros for a product with interior values): a central
difference along each axis, and for each cross pair a difference along b,
then along a.  The coefficients are checked for positive definiteness with
a batched Cholesky factorization; eigenvalues only name the offending node.

Every system is solved one way: BiCGStab preconditioned by the exact
inverse of the operator's mean axis stencil, the constant-coefficient
operator d + sum_a c_a (shift_a + shift_a^T) whose d and c_a are averages
of the centre and axis weights.  With zero Dirichlet data that operator is
diagonalized by the orthogonal sine transform along every axis (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), so one application costs
two transforms and a division.  Cross terms are left to the Krylov
iteration; constant diagonal coefficients (the upper barrier with identity
or diagonal omega) are solved by the first application.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# complex_hessian_field is unused here, but bench/child.py resolves it to trace it
from .errors import IndefiniteCoefficients, LinearSolveStalled
from .grid import BoxGrid, MatrixField, ScalarField, complex_hessian_field, interior_slices, least
from .hermitian import eigvals_batch

STALL_WINDOW = 50  # iterations without meaningful progress before declaring a stall
MAX_LINEAR_ITERS = 20000  # BiCGStab iteration cap of every solve
IMAG_CANCEL_TOL = 1e-12


def __getattr__(name: str):
    """``spla`` is scipy.sparse.linalg, imported only when it is asked for.

    No solve uses SciPy, so the module does not import it: SciPy is loaded
    only by the bench tracer, from the ``test`` extra.  bench/child.py resolves
    ``garding.linear.spla.splu`` without a default, and ``--trace 1`` would
    crash without this binding.  It goes when ROADMAP item 1 moves the trace
    into the library and the tracer's binding list is deleted.
    """
    if name == "spla":
        import scipy.sparse.linalg

        return scipy.sparse.linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def real_stencil_weights(coeffs: np.ndarray, spacing) -> tuple:
    """The stencil weights of tr(C complex_hessian(v)), spacings divided out.

    ``coeffs`` are Hermitian matrices per interior node, or one (n, n).
    Returns (center, axis, cross): ``axis[a]`` weighs v(+e_a) + v(-e_a), and
    ``cross[a, b]`` (a < b; all-zero fields left out) weighs the mixed
    difference v(+e_a+e_b) - v(+e_a-e_b) - v(-e_a+e_b) + v(-e_a-e_b).
    """
    n, h = coeffs.shape[-1], spacing
    r, im = coeffs.real, coeffs.imag
    if np.abs(im.diagonal(axis1=-2, axis2=-1)).max(initial=0.0) > IMAG_CANCEL_TOL:
        raise IndefiniteCoefficients("coefficient diagonal has an imaginary part")
    # v_aa carries R_kk / 4 along both real axes of z_k
    axis = [r[..., a // 2, a // 2] / (4.0 * h[a] * h[a]) for a in range(2 * n)]
    center = -2.0 * sum(axis)
    cross: dict = {}
    for k in range(n):
        for j in range(n):
            a, b = 2 * k, 2 * j + 1  # x_k, y_j carry -I_kj / 2 from (k, j) and (j, k)
            if k < j:
                # x_k x_j and y_k y_j carry R_kj / 4 from both (k, j) and (j, k)
                cross[a, b - 1] = r[..., k, j] / (8.0 * h[a] * h[b - 1])
                cross[a + 1, b] = r[..., k, j] / (8.0 * h[a + 1] * h[b])
            if k != j:
                key = (min(a, b), max(a, b))
                cross[key] = cross.get(key, 0.0) - im[..., k, j] / (8.0 * h[a] * h[b])
    return center, axis, {key: w for key, w in cross.items() if np.any(w != 0.0)}


class StencilOperator:
    """L v = tr(C complex_hessian(v)) at the interior nodes, from the weights
    ``real_stencil_weights`` returns (interior-shaped arrays or constants).
    ``shape`` and ``@`` act on interior vectors; ``nnz`` counts the weights.
    """

    def __init__(self, grid: BoxGrid, center, axis, cross: dict):
        self.grid, self.center, self.axis, self.cross = grid, center, axis, cross
        self.shape = (math.prod(grid.interior_shape),) * 2
        self.nnz = sum(np.size(w) for w in [center, *self.axis, *cross.values()])
        ndim, every = grid.ndim_real, range(grid.ndim_real)
        self._inner = interior_slices(ndim, {})
        self._pad = np.zeros(grid.shape)  # its boundary stays zero
        self._buf = np.empty(grid.interior_shape)
        self._axis_moves = [(interior_slices(ndim, {a: 1}), interior_slices(ndim, {a: -1}))
                            for a in every]
        # the pairs (a, b) sharing b share one difference along b, taken over
        # the interior of the other axes and the whole range of each paired a
        groups: dict = {}  # {b: {a: weight}}
        for (a, b), w in cross.items():
            groups.setdefault(b, {})[a] = w
        self._cross_moves = []
        for b, whole in groups.items():
            rest = [a for a in every if a not in whole]
            shape = tuple(grid.resolution if a in whole else grid.resolution - 2 for a in every)
            pairs = [(w, interior_slices(ndim, {a: 1}, whole),
                      interior_slices(ndim, {a: -1}, whole)) for a, w in whole.items()]
            self._cross_moves.append((shape, interior_slices(ndim, {b: 1}, rest),
                                      interior_slices(ndim, {b: -1}, rest), pairs))
        self._diff = np.empty(max((math.prod(move[0]) for move in self._cross_moves), default=0))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L at the interior nodes of a full-grid array, whose boundary
        entries act as Dirichlet data; returns an interior-shaped array."""
        out = self.center * values[self._inner]
        buf = self._buf
        for w, (up, dn) in zip(self.axis, self._axis_moves):
            np.add(values[up], values[dn], out=buf)
            buf *= w
            out += buf
        for shape, up, dn, pairs in self._cross_moves:
            d = self._diff[:math.prod(shape)].reshape(shape)
            np.subtract(values[up], values[dn], out=d)
            for w, d_up, d_dn in pairs:
                np.subtract(d[d_up], d[d_dn], out=buf)
                buf *= w
                out += buf
        return out

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        self._pad[self._inner] = x.reshape(self.grid.interior_shape)
        return self.apply(self._pad).reshape(-1)

    def mmatrix_violations(self) -> int:
        """Rows whose off-diagonal |weights| exceed |centre|.

        Only in-range neighbours count: a boundary neighbour is Dirichlet
        data, not a coupling.  Strong cross terms can break the M-matrix
        structure this audits.
        """
        ndim, m = len(self.axis), self.grid.resolution - 2
        # in-range neighbours along one axis: one at either end of a line, two inside
        inside = np.r_[1.0, np.full(m - 2, 2.0), 1.0]
        count = [inside.reshape((m,) + (1,) * (ndim - 1 - a)) for a in range(ndim)]
        off = sum(np.abs(w) * count[a] for a, w in enumerate(self.axis))
        off = off + sum(np.abs(w) * (count[a] * count[b]) for (a, b), w in self.cross.items())
        return int(np.sum(off > np.abs(self.center) * (1 + 1e-12)))


@dataclass
class SparseSystem:
    """Interior-unknown linear system with grid bookkeeping."""

    grid: BoxGrid
    matrix: StencilOperator
    rhs: np.ndarray

    @property
    def unknowns(self) -> int:
        return self.matrix.shape[0]

    @property
    def mmatrix_violations(self) -> int:
        """The operator's M-matrix audit, counted when it is read."""
        return self.matrix.mmatrix_violations()


def assemble_linearized(coeffs: MatrixField | np.ndarray, rhs: ScalarField | np.ndarray,
                        grid: BoxGrid) -> SparseSystem:
    """The linearized operator with zero Dirichlet data, and its right-hand side.

    ``coeffs`` holds the Hermitian coefficient matrices per interior node,
    or one constant (n, n) matrix; ``rhs`` the right-hand side at interior
    nodes (a ScalarField's interior is used when a full field is passed).
    Rows where off-diagonal couplings overwhelm the diagonal are counted by
    ``mmatrix_violations`` when it is read.
    """
    cvals = coeffs.values if isinstance(coeffs, MatrixField) else np.asarray(coeffs, np.complex128)
    try:
        np.linalg.cholesky(cvals)
    except np.linalg.LinAlgError:
        _, node = least(eigvals_batch(cvals)[..., 0], grid.node_of_flat)
        raise IndefiniteCoefficients(f"coefficients not positive definite at node {node}") from None
    op = StencilOperator(grid, *real_stencil_weights(cvals, grid.spacing))

    rhs_vec = rhs.interior().reshape(-1) if isinstance(rhs, ScalarField) else np.asarray(rhs).reshape(-1)
    if rhs_vec.shape != (op.shape[0],):
        raise ValueError(f"rhs has {rhs_vec.shape} entries, expected {op.shape[0]}")
    return SparseSystem(grid=grid, matrix=op, rhs=rhs_vec.copy())


def bicgstab(matrix, rhs, tol, max_iter, precond=None):
    """Stabilized bi-conjugate gradients with optional preconditioning.

    Converges when the true-residual 2-norm drops below ``tol * ||rhs||``.
    Raises LinearSolveStalled on breakdown, on a residual plateau over
    STALL_WINDOW iterations, or at the iteration cap.
    """
    b_norm = float(np.linalg.norm(rhs))
    if b_norm == 0.0:
        return np.zeros_like(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()  # the residual of x = 0
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(rhs)
    p = np.zeros_like(rhs)
    best = float(np.linalg.norm(r))
    since_progress = 0
    for _ in range(max_iter):
        rho_new = float(r0 @ r)
        if abs(rho_new) < 1e-300:
            raise LinearSolveStalled("bicgstab breakdown: rho ~ 0")
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = precond(p) if precond is not None else p
        v = matrix @ ph
        denom = float(r0 @ v)
        if abs(denom) < 1e-300:
            raise LinearSolveStalled("bicgstab breakdown: r0 . v ~ 0")
        alpha = rho / denom
        s = r - alpha * v
        s_norm = float(np.linalg.norm(s))
        if s_norm <= tol * b_norm:
            x = x + alpha * ph
            return x
        sh = precond(s) if precond is not None else s
        t = matrix @ sh
        tt = float(t @ t)
        if tt < 1e-300:
            raise LinearSolveStalled("bicgstab breakdown: t ~ 0")
        omega = float(t @ s) / tt
        x = x + alpha * ph + omega * sh
        r = s - omega * t
        r_norm = float(np.linalg.norm(r))
        if r_norm <= tol * b_norm:
            return x
        if r_norm < 0.999 * best:
            best = r_norm
            since_progress = 0
        else:
            since_progress += 1
            if since_progress >= STALL_WINDOW:
                raise LinearSolveStalled(
                    f"residual plateau at {r_norm / b_norm:.3e} over {STALL_WINDOW} iterations"
                )
    raise LinearSolveStalled(f"no convergence within {max_iter} iterations")


def sine_transform(m: int) -> np.ndarray:
    """The m x m orthogonal sine transform; symmetric and its own inverse."""
    k = np.arange(1, m + 1)
    return np.sqrt(2.0 / (m + 1)) * np.sin(np.pi * np.outer(k, k) / (m + 1))


def mean_stencil_inverse(op: StencilOperator):
    """Apply the inverse of ``op``'s mean axis stencil, r -> S (r / lambda) S.

    The mean stencil has the mean centre weight at the centre and, along
    axis a, the mean axis-a weight over the N (m - 1) / m rows that have a
    neighbour on the + side.  Its eigenvalues are
    lambda(k) = d + sum_a 2 c_a cos(pi k_a / (m + 1)).  Raises
    LinearSolveStalled unless they all have one sign.
    """
    grid = op.grid
    m = grid.resolution - 2
    ndim = grid.ndim_real
    cosines = np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    lam = np.full((m,) * ndim, float(np.mean(op.center)))
    for a, w in enumerate(op.axis):
        rows = np.broadcast_to(w, grid.interior_shape)[(slice(None),) * a + (slice(0, -1),)]
        lam += 2.0 * float(rows.mean()) * cosines.reshape((m,) + (1,) * (ndim - 1 - a))
    if not (np.all(lam > 0.0) or np.all(lam < 0.0)):
        raise LinearSolveStalled("mean axis stencil is singular or indefinite; cannot precondition")
    inv_lam = (1.0 / lam).reshape(-1)
    transform = sine_transform(m)

    def sine_all_axes(x):
        # each pass transforms the leading axis and moves it last, so after
        # ndim passes the axis order is back
        for _ in range(ndim):
            x = x.reshape(m, -1).T @ transform
        return x.reshape(-1)

    return lambda vec: sine_all_axes(inv_lam * sine_all_axes(vec))


def solve_sparse(system: SparseSystem, tol: float = 1e-10) -> ScalarField:
    """Solve the interior system; returns the correction as a ScalarField.

    BiCGStab preconditioned by ``mean_stencil_inverse``, with the true
    residual checked at the end.  The returned field is zero on the
    boundary, matching the zero-Dirichlet assembly convention.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = bicgstab(
        system.matrix, system.rhs, tol=tol, max_iter=MAX_LINEAR_ITERS,
        precond=mean_stencil_inverse(system.matrix),
    )
    # the recurrence residual can drift from the true one; verify
    scale = max(float(np.linalg.norm(system.rhs)), 1e-300)
    rel = float(np.linalg.norm(system.matrix @ x - system.rhs)) / scale
    if rel > 50.0 * tol:
        raise LinearSolveStalled(f"true residual {rel:.3e} drifted above tolerance")
    grid = system.grid
    full = np.zeros(grid.shape)
    sl = (slice(1, -1),) * grid.ndim_real
    full[sl] = x.reshape(grid.interior_shape)
    return ScalarField(grid, full)


def upper_barrier(chi, omega, phi: ScalarField, grid: BoxGrid) -> ScalarField:
    """Solve tr_omega(chi + complex Hessian of v) = 0 with v = phi on the boundary.

    ``chi`` and ``omega`` are constant Hermitian matrices ((n, n) arrays or
    HermitianMatrix); ``phi`` supplies boundary values (its interior is
    ignored).  The result caps every admissible solution from above.
    """
    chi_e = getattr(chi, "entries", np.asarray(chi, dtype=np.complex128))
    if omega is None:
        omega_inv = np.eye(grid.n, dtype=np.complex128)
    else:
        omega_e = getattr(omega, "entries", np.asarray(omega, dtype=np.complex128))
        omega_inv = np.linalg.inv(omega_e)
        omega_inv = (omega_inv + omega_inv.conj().T) / 2.0

    rhs = np.full(grid.interior_shape, -float(np.trace(omega_inv @ chi_e).real))
    system = assemble_linearized(omega_inv, rhs, grid)
    # fold the Dirichlet data: solve for v - phi_ext with phi_ext = phi on
    # the boundary and 0 inside
    phi_ext = np.where(grid.boundary_mask(), phi.values, 0.0)
    system.rhs -= system.matrix.apply(phi_ext).reshape(-1)
    return ScalarField(grid, solve_sparse(system, tol=1e-12).values + phi_ext)
