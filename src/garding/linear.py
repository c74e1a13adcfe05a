"""Sparse Dirichlet solves for the linearized operator.

The linearization of the normalized operator at an admissible iterate is

    L v = tr(C(node) @ complex_hessian(v)),

with C the Hermitian positive-definite coefficient field.  Writing
C = R + iI (R symmetric, I antisymmetric) and expanding the complex Hessian
into real second differences gives the real stencil weights

    L v = 1/4 * sum_{k,j} R_kj (v_{x^k x^j} + v_{y^k y^j})
        - 1/2 * sum_{k,j} I_kj  v_{x^k y^j},

so the assembled system is real; the imaginary parts cancel exactly because
both C and the discrete Hessian are Hermitian.  Unknowns are the interior
nodes in C (row-major) order; Dirichlet data is folded into the right-hand
side by the callers.

The stencil is fixed for a grid, so the matrix is stored by diagonals
(``scipy.sparse.dia_matrix``, Saad, Iterative Methods for Sparse Linear
Systems, 2003, section 3.4): one diagonal per stencil move (the centre, +-1
along each real axis, and the four corners of each active cross pair), in
ascending offset order.  scipy indexes a diagonal by column, A[i, i + off]
at data[k, i + off], so a move writes the weight of its source node at its
destination node.  Couplings to boundary neighbours and wraps to the next
grid line are stored as explicit zeros.  The coefficients are checked for
positive definiteness with a batched Cholesky factorization; eigenvalues
are computed only to name the offending node.

Every system is solved one way: BiCGStab preconditioned by the exact
inverse of the matrix's mean axis stencil, the constant-coefficient
operator d + sum_a c_a (shift_a + shift_a^T) whose d and c_a are averages
of the matrix's centre and axis diagonals.  With zero Dirichlet data that
operator is diagonalized by the orthogonal sine transform along every axis
(Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), so one
application costs two transforms and a division.  Cross terms are left to
the Krylov iteration; constant diagonal coefficients (the upper barrier
with identity or diagonal omega) are solved by the first application.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
# unused here, but bench/child.py resolves garding.linear.spla to trace splu
import scipy.sparse.linalg as spla

from .errors import IndefiniteCoefficients, LinearSolveStalled
from .grid import BoxGrid, MatrixField, ScalarField, complex_hessian_field
from .hermitian import eigvals_batch

STALL_WINDOW = 50  # iterations without meaningful progress before declaring a stall
IMAG_CANCEL_TOL = 1e-12


def real_stencil_weights(coeffs: np.ndarray):
    """Real-axis weight fields from complex Hermitian coefficient matrices.

    Returns (diag_weights (..., 2n), cross_weights dict {(a, b): (...,)} with
    a < b) such that L v = sum_a diag_a v_aa + sum_{a<b} w_ab v_ab.
    """
    n = coeffs.shape[-1]
    r = coeffs.real
    im = coeffs.imag
    if np.abs(im.diagonal(axis1=-2, axis2=-1)).max(initial=0.0) > IMAG_CANCEL_TOL:
        raise IndefiniteCoefficients("coefficient diagonal has an imaginary part")
    diag = np.zeros(coeffs.shape[:-2] + (2 * n,))
    cross: dict = {}
    for k in range(n):
        diag[..., 2 * k] += r[..., k, k] / 4.0
        diag[..., 2 * k + 1] += r[..., k, k] / 4.0
        for j in range(k + 1, n):
            # x_k x_j and y_k y_j carry R_kj/4 from both (k, j) and (j, k)
            rkj = r[..., k, j]
            cross[(2 * k, 2 * j)] = rkj / 2.0
            cross[(2 * k + 1, 2 * j + 1)] = rkj / 2.0
        for j in range(n):
            if k == j:
                continue
            ikj = im[..., k, j]
            a, b = 2 * k, 2 * j + 1  # x_k, y_j
            key = (min(a, b), max(a, b))
            cross[key] = cross.get(key, 0.0) - ikj / 2.0
    return diag, cross


@dataclass
class SparseSystem:
    """Interior-unknown linear system with grid bookkeeping."""

    grid: BoxGrid
    matrix: sp.dia_matrix
    rhs: np.ndarray
    mmatrix_violations: int = 0

    @property
    def unknowns(self) -> int:
        return self.matrix.shape[0]


def _move_slices(ndim: int, steps: dict) -> tuple:
    """Source and destination interior slices of a stencil move {axis: +-1}."""
    src = [slice(None)] * ndim
    dst = [slice(None)] * ndim
    for axis, step in steps.items():
        src[axis] = slice(0, -1) if step > 0 else slice(1, None)
        dst[axis] = slice(1, None) if step > 0 else slice(0, -1)
    return tuple(src), tuple(dst)


def assemble_linearized(coeffs: MatrixField, rhs: ScalarField | np.ndarray, grid: BoxGrid) -> SparseSystem:
    """Assemble the discrete linearized operator with zero Dirichlet data.

    ``coeffs`` holds the Hermitian coefficient matrices per interior node;
    ``rhs`` the right-hand side at interior nodes (a ScalarField's interior
    is used when a full field is passed).  Rows where off-diagonal couplings
    overwhelm the diagonal (broken M-matrix structure, possible with strong
    cross terms) are counted in ``mmatrix_violations``.
    """
    n = grid.n
    h = grid.spacing
    interior = grid.interior_shape
    size = int(np.prod(interior))
    cvals = coeffs.values

    try:
        np.linalg.cholesky(cvals)
    except np.linalg.LinAlgError:
        mins = eigvals_batch(cvals).min(axis=-1)
        flat = int(np.argmin(mins.reshape(-1)))
        raise IndefiniteCoefficients(
            f"coefficients not positive definite at node {grid.node_of_flat(flat)}"
        ) from None

    diag_w, cross_w = real_stencil_weights(cvals)
    ndim = 2 * n
    stride = [int(np.prod(interior[a + 1:])) for a in range(ndim)]

    # (offset, {axis: step}, sign, weight at the source node); with at least
    # 7 interior nodes per axis no two moves share an offset
    center = np.zeros(interior)
    moves = [(0, {}, 1.0, center)]
    for a in range(ndim):
        w = diag_w[..., a] / (h[a] * h[a])
        center -= 2.0 * w
        moves += [(-stride[a], {a: -1}, 1.0, w), (stride[a], {a: +1}, 1.0, w)]
    for (a, b), wfield in cross_w.items():
        w = wfield / (4.0 * h[a] * h[b])
        if np.all(w == 0.0):
            continue
        for oa, ob in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            moves.append((oa * stride[a] + ob * stride[b], {a: oa, b: ob}, float(oa * ob), w))
    # ascending offsets make each row's matvec sum run in column order
    moves.sort(key=lambda move: move[0])
    data = np.zeros((len(moves), size))
    for diagonal, (_, steps, sign, w) in zip(data, moves):
        src, dst = _move_slices(ndim, steps)
        diagonal.reshape(interior)[dst] = sign * w[src]
    matrix = sp.dia_matrix((data, [move[0] for move in moves]), shape=(size, size))

    # monotonicity audit: count rows whose off-diagonal mass exceeds |diag|
    offdiag_abs = np.abs(matrix).sum(axis=1).A1 - np.abs(matrix.diagonal())
    violations = int(np.sum(offdiag_abs > np.abs(matrix.diagonal()) * (1 + 1e-12)))

    rhs_vec = rhs.interior().reshape(-1) if isinstance(rhs, ScalarField) else np.asarray(rhs).reshape(-1)
    if rhs_vec.shape != (size,):
        raise ValueError(f"rhs has {rhs_vec.shape} entries, expected {size}")
    return SparseSystem(grid=grid, matrix=matrix, rhs=rhs_vec.copy(),
                        mmatrix_violations=violations)


def operator_apply(coeffs: MatrixField, u: ScalarField) -> np.ndarray:
    """Evaluate tr(C @ complex_hessian(u)) at interior nodes (full stencils)."""
    hess = complex_hessian_field(u)
    out = np.einsum("...kj,...jk->...", coeffs.values, hess.values)
    if np.abs(out.imag).max(initial=0.0) > IMAG_CANCEL_TOL * max(np.abs(out.real).max(), 1.0):
        raise IndefiniteCoefficients("imaginary parts failed to cancel in operator apply")
    return out.real


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
    r = rhs - matrix @ x
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


def mean_stencil_inverse(matrix, grid: BoxGrid):
    """Apply the inverse of ``matrix``'s mean axis stencil, r -> S (r / lambda) S.

    The mean stencil has the mean of the main diagonal at the centre and,
    along axis a, the mean of the stride-a diagonal over its N (m - 1) / m
    structural entries (the grid-line wraps hold zeros).  Its eigenvalues
    are lambda(k) = d + sum_a 2 c_a cos(pi k_a / (m + 1)).  Raises
    LinearSolveStalled unless they all have one sign.
    """
    m = grid.resolution - 2
    ndim = grid.ndim_real
    structural = matrix.shape[0] * (m - 1) / m
    cosines = np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    lam = np.full((m,) * ndim, float(matrix.diagonal().mean()))
    for a in range(ndim):
        c = float(matrix.diagonal(m ** (ndim - 1 - a)).sum()) / structural
        lam += 2.0 * c * cosines.reshape((m,) + (1,) * (ndim - 1 - a))
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


def solve_sparse(system: SparseSystem, tol: float = 1e-10, max_iter: int = 20000) -> ScalarField:
    """Solve the interior system; returns the correction as a ScalarField.

    BiCGStab preconditioned by ``mean_stencil_inverse``, with the true
    residual checked at the end.  The returned field is zero on the
    boundary, matching the zero-Dirichlet assembly convention.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    x = bicgstab(
        system.matrix, system.rhs, tol=tol, max_iter=max_iter,
        precond=mean_stencil_inverse(system.matrix, system.grid),
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


def constant_coefficient_field(grid: BoxGrid, matrix: np.ndarray) -> MatrixField:
    vals = np.broadcast_to(
        np.asarray(matrix, dtype=np.complex128), grid.interior_shape + matrix.shape
    ).copy()
    return MatrixField(grid, vals)


def upper_barrier(chi, omega, phi: ScalarField, grid: BoxGrid,
                  tol: float = 1e-12) -> ScalarField:
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
    coeffs = constant_coefficient_field(grid, omega_inv)

    rhs = np.full(grid.interior_shape, -float(np.trace(omega_inv @ chi_e).real))
    # fold the Dirichlet data: solve for v - phi_ext with phi_ext = phi on
    # the boundary and 0 inside
    phi_ext = np.zeros(grid.shape)
    mask = grid.boundary_mask()
    phi_ext[mask] = phi.values[mask]
    bc = operator_apply(coeffs, ScalarField(grid, phi_ext))
    system = assemble_linearized(coeffs, rhs - bc, grid)
    correction = solve_sparse(system, tol=tol)
    out = correction.values + phi_ext
    return ScalarField(grid, out)
