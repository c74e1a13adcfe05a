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

No matrix is formed.  ``StencilOperator`` keeps the weights alone (the
centre, one field per real axis and one per axis pair whose cross weights
are not all zero: 19 fields at n = 3; constants for constant coefficients)
and applies them through ``grid.flat_step``, the difference kernel of the
analyses' difference stack.  The coefficients, plane-backed when they come
from a Newton state (see :mod:`garding.hermitian`), are checked to be
finite and then to be positive definite: plane-wise Cholesky pivots clear
the clearly definite nodes, and a batched LAPACK Cholesky factorization
decides the rest; eigenvalues only name an indefinite node.
The check stays on every field: pivots of the LDL* that produced the
coefficients can pass where they are singular to rounding.

Every system is solved one way: BiCGStab preconditioned by the exact
inverse of the operator's mean axis stencil, the constant-coefficient
operator d + sum_a c_a (shift_a + shift_a^T) whose d and c_a are averages
of the centre and axis weights.  With zero Dirichlet data that operator is
diagonalized by the orthogonal sine transform along every axis (Buzbee,
Golub & Nielson, SIAM J. Numer. Anal. 7, 1970), so one application costs
two transforms and a division.  Cross terms are left to the Krylov
iteration; constant diagonal coefficients (the upper barrier with identity
or diagonal omega) are solved by the first application.  Dot products are
NumPy sums, so no solve depends on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# complex_hessian_field is unused here, but bench/child.py resolves it to trace it
from .errors import IndefiniteCoefficients, LinearSolveStalled
from .grid import BoxGrid, complex_hessian_field, flat_step, interior_slices, least
from .hermitian import eigvals_batch

STALL_WINDOW = 50  # iterations without meaningful progress before declaring a stall
MAX_LINEAR_ITERS = 20000  # BiCGStab iteration cap of every solve
IMAG_CANCEL_TOL = 1e-12
PIVOT_MARGIN = 2.0**-26  # Cholesky pivots above this share of c_jj clear a node without LAPACK


def __getattr__(name: str):
    """``spla`` is scipy.sparse.linalg, imported only when it is asked for:
    no solve uses SciPy, but bench/child.py resolves ``garding.linear.spla.splu``
    for ``--trace 1``.  It goes with the tracer's binding list (ROADMAP item 1).
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

    ``@`` and ``apply`` share one kernel of ``grid.flat_step`` passes on
    interior values in C order; past the faces it reads zero for ``@`` and
    the Dirichlet layers for ``apply``.
    """

    def __init__(self, grid: BoxGrid, center, axis, cross: dict):
        self.grid, self.center, self.axis, self.cross = grid, center, axis, cross
        self.shape = (math.prod(grid.interior_shape),) * 2
        self.nnz = sum(np.size(w) for w in [center, *self.axis, *cross.values()])
        self._groups: dict = {}  # {b: {a: weight}}: the pairs sharing b share one step along b
        for (a, b), w in cross.items():
            self._groups.setdefault(b, {})[a] = w
        self._buf, self._diff = np.empty((2,) + grid.interior_shape)

    def _kernel(self, x: np.ndarray, values) -> np.ndarray:
        """L on interior-shaped values in C order, with the boundary layers
        of the full-grid ``values`` past the faces, or zero with None."""
        out = self.center * x
        buf, d = self._buf, self._diff
        for a, w in enumerate(self.axis):
            flat_step(np.add, x, a, buf, values)
            buf *= w
            out += buf
        for b, pairs in self._groups.items():
            flat_step(np.subtract, x, b, d, values)
            for a, w in pairs.items():
                flat_step(np.subtract, d, a, buf, values, b)
                buf *= w
                out += buf
        return out

    def apply(self, values: np.ndarray) -> np.ndarray:
        """L at the interior nodes of a full-grid array, whose boundary
        entries act as Dirichlet data; returns an interior-shaped array."""
        return self._kernel(np.ascontiguousarray(values[interior_slices(values.ndim, {})]), values)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self._kernel(x.reshape(self.grid.interior_shape), None).reshape(-1)

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
    def mmatrix_violations(self) -> int:
        """The operator's M-matrix audit, counted when it is read."""
        return self.matrix.mmatrix_violations()


def _clearly_positive(cvals: np.ndarray) -> np.ndarray:
    """Nodes whose Cholesky pivots d_j = c_jj - sum_k |l_jk|^2, with
    l_ij = (c_ij - sum_k l_ik conj(l_jk)) / sqrt(d_j), all exceed PIVOT_MARGIN
    c_jj: positive in any rounding.  Formed column by column, one plane per
    entry; NaN pivots are not clear."""
    planes = np.moveaxis(cvals, (-2, -1), (0, 1))
    low: dict = {}  # {(i, j): l_ij}, i > j
    clear = np.ones(planes.shape[2:], dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):  # such nodes go to LAPACK
        for j in range(planes.shape[0]):
            diag = planes[j, j].real
            pivot = diag - sum(low[j, k].real ** 2 + low[j, k].imag ** 2 for k in range(j))
            clear &= pivot > PIVOT_MARGIN * diag
            inv_root = 1.0 / np.sqrt(pivot)
            for i in range(j + 1, planes.shape[0]):
                dot = sum(low[i, k] * low[j, k].conj() for k in range(j))
                low[i, j] = (planes[i, j] - dot) * inv_root
    return clear


def assemble_linearized(coeffs: np.ndarray, rhs: np.ndarray, grid: BoxGrid) -> SparseSystem:
    """The linearized operator with zero Dirichlet data, and its right-hand side.

    ``coeffs`` holds the Hermitian coefficient matrices per interior node,
    an (*interior_shape, n, n) array, or one constant (n, n) matrix; ``rhs``
    the right-hand side at the interior nodes.  Rows where off-diagonal
    couplings overwhelm the diagonal are counted by ``mmatrix_violations``
    when it is read.
    """
    cvals = np.asarray(coeffs, np.complex128)
    # np.linalg.cholesky factors a stack with NaN or inf on a diagonal entry
    finite = np.isfinite(cvals).all(axis=(-2, -1)).reshape(-1)
    if not finite.all():
        node = grid.node_of_flat(int(np.argmin(finite)))
        raise IndefiniteCoefficients(f"coefficients not finite at node {node}", node=node)
    try:  # only the nodes the pivots cannot clear go to LAPACK
        clear = _clearly_positive(cvals)
        if not clear.all():
            np.linalg.cholesky(cvals[~clear])
    except np.linalg.LinAlgError:
        _, node = least(eigvals_batch(cvals)[..., 0], grid.node_of_flat)
        raise IndefiniteCoefficients(f"coefficients not positive definite at node {node}",
                                     node=node) from None
    op = StencilOperator(grid, *real_stencil_weights(cvals, grid.spacing))

    rhs_vec = np.asarray(rhs).reshape(-1)
    if rhs_vec.shape != (op.shape[0],):
        raise ValueError(f"rhs has {rhs_vec.shape} entries, expected {op.shape[0]}")
    return SparseSystem(grid=grid, matrix=op, rhs=rhs_vec.copy())


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b by NumPy's pairwise sum: a BLAS dot product splits a long sum
    across threads, so its last digits would depend on the thread count."""
    return float(np.sum(a * b))


def _require_finite(norm: float) -> float:
    if not math.isfinite(norm):
        raise LinearSolveStalled(f"bicgstab breakdown: residual norm is {norm}")
    return norm


def bicgstab(matrix, rhs, tol, max_iter, precond=None):
    """Stabilized bi-conjugate gradients with optional preconditioning.

    Converges when the true-residual 2-norm drops below ``tol * ||rhs||``.
    Raises LinearSolveStalled on breakdown, on a non-finite residual norm,
    on a residual plateau over STALL_WINDOW iterations, or at the iteration
    cap.  The breakdown tests read ``not (|x| >= 1e-300)``, so NaN fails them.
    """
    b_norm = math.sqrt(_dot(rhs, rhs))
    if b_norm == 0.0:
        return np.zeros_like(rhs)
    x = np.zeros_like(rhs)
    r = rhs.copy()  # the residual of x = 0
    r0 = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros_like(rhs)
    p = np.zeros_like(rhs)
    best = _require_finite(b_norm)  # the residual norm of x = 0
    since_progress = 0
    for _ in range(max_iter):
        rho_new = _dot(r0, r)
        if not abs(rho_new) >= 1e-300:
            raise LinearSolveStalled("bicgstab breakdown: rho ~ 0")
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p = r + beta * (p - omega * v)
        ph = precond(p) if precond is not None else p
        v = matrix @ ph
        denom = _dot(r0, v)
        if not abs(denom) >= 1e-300:
            raise LinearSolveStalled("bicgstab breakdown: r0 . v ~ 0")
        alpha = rho / denom
        s = r - alpha * v
        s_norm = _require_finite(math.sqrt(_dot(s, s)))
        if s_norm <= tol * b_norm:
            return x + alpha * ph
        sh = precond(s) if precond is not None else s
        t = matrix @ sh
        tt = _dot(t, t)
        if not tt >= 1e-300:
            raise LinearSolveStalled("bicgstab breakdown: t ~ 0")
        omega = _dot(t, s) / tt
        x = x + alpha * ph + omega * sh
        r = s - omega * t
        r_norm = _require_finite(math.sqrt(_dot(r, r)))
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

    The mean stencil has the mean centre weight d at the centre and the mean
    axis-a weight c_a along axis a, each averaged over all rows.  Its
    eigenvalues are lambda(k) = d + sum_a 2 c_a cos(pi k_a / (m + 1)).  The
    centre is -2 times the sum of the axis weights at every node, so
    lambda(k) = -2 sum_a c_a (1 - cos(pi k_a / (m + 1))), negative whenever
    every c_a is positive.  Raises LinearSolveStalled unless they all have
    one sign.
    """
    grid = op.grid
    m, ndim = grid.resolution - 2, grid.ndim_real
    cosines = np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    lam = np.full((m,) * ndim, float(np.mean(op.center)))
    for a, w in enumerate(op.axis):
        lam += 2.0 * float(np.mean(w)) * cosines.reshape((m,) + (1,) * (ndim - 1 - a))
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


def solve_sparse(system: SparseSystem, tol: float = 1e-10) -> np.ndarray:
    """Solve the interior system; returns the correction on the full grid.

    BiCGStab preconditioned by ``mean_stencil_inverse``, with the true
    residual checked at the end.  The returned array is zero on the
    boundary, matching the zero-Dirichlet assembly convention.  Raises
    ValueError unless ``tol`` is finite and positive.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    precond = mean_stencil_inverse(system.matrix)
    x = bicgstab(system.matrix, system.rhs, tol=tol, max_iter=MAX_LINEAR_ITERS, precond=precond)
    # the recurrence residual can drift from the true one; verify
    scale = max(math.sqrt(_dot(system.rhs, system.rhs)), 1e-300)
    residual = system.matrix @ x - system.rhs
    rel = math.sqrt(_dot(residual, residual)) / scale
    if not rel <= 50.0 * tol:
        raise LinearSolveStalled(f"true residual {rel:.3e} drifted above tolerance")
    full = np.zeros(system.grid.shape)
    full[interior_slices(full.ndim, {})] = x.reshape(system.grid.interior_shape)
    return full


def upper_barrier(chi, omega, phi: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Solve tr_omega(chi + complex Hessian of v) = 0 with v = phi on the boundary.

    ``chi`` is a constant Hermitian (n, n) array and ``omega`` one or None
    for the identity; ``phi`` is a full-grid array that supplies boundary
    values (its interior is ignored).  Returns v on the full grid; it caps
    every admissible solution from above.
    """
    chi = np.asarray(chi, dtype=np.complex128)
    if omega is None:
        omega_inv = np.eye(grid.n, dtype=np.complex128)
    else:
        omega_inv = np.linalg.inv(np.asarray(omega, dtype=np.complex128))
        omega_inv = (omega_inv + omega_inv.conj().T) / 2.0

    rhs = np.full(grid.interior_shape, -float(np.trace(omega_inv @ chi).real))
    system = assemble_linearized(omega_inv, rhs, grid)
    # fold the Dirichlet data: solve for v - phi_ext with phi_ext = phi on
    # the boundary and 0 inside
    phi_ext = np.where(grid.boundary_mask(), phi, 0.0)
    system.rhs -= system.matrix.apply(phi_ext).reshape(-1)
    return solve_sparse(system, tol=1e-12) + phi_ext
