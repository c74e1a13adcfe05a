import importlib.util
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import garding.linear
from garding.analytic import norm_squared
from garding.errors import IndefiniteCoefficients, LinearSolveStalled
from garding.grid import BoxGrid, MatrixField, ScalarField
from garding.linear import (
    SparseSystem,
    StencilOperator,
    assemble_linearized,
    bicgstab,
    real_stencil_weights,
    solve_sparse,
    upper_barrier,
)

from support import constant_coefficient_field, hessian_operator_apply, re_z1_squared


def coo_reference_matrix(coeffs, grid):
    """The operator built entry by entry as (row, column, value) triplets.

    Independent of the stencil-weight operator: every stencil move maps
    interior node indices to neighbour indices, couplings to boundary
    neighbours are left out, and scipy sums the triplets into CSR.
    """
    interior = grid.interior_shape
    size = int(np.prod(interior))
    index = np.arange(size).reshape(interior)
    center, axis, cross = real_stencil_weights(coeffs.values, grid.spacing)
    ndim = 2 * grid.n
    rows, cols, vals = [index.reshape(-1)], [index.reshape(-1)], [center.reshape(-1)]

    def add(steps, w, sign=1.0):
        src = [slice(None)] * ndim
        dst = [slice(None)] * ndim
        for a, off in steps:
            src[a] = slice(0, -1) if off == +1 else slice(1, None)
            dst[a] = slice(1, None) if off == +1 else slice(0, -1)
        src, dst = tuple(src), tuple(dst)
        rows.append(index[src].reshape(-1))
        cols.append(index[dst].reshape(-1))
        vals.append((sign * w[src]).reshape(-1))

    for a, w in enumerate(axis):
        for off in (-1, +1):
            add([(a, off)], w)
    for (a, b), w in cross.items():
        for oa, ob, sign in ((1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0)):
            add([(a, oa), (b, ob)], w, sign)
    return sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(size, size)
    )


def materialize(op):
    """The operator's matrix, column j the product with the j-th unit vector.

    Each product has one non-zero input, so every entry is a single weight,
    exactly as stored.
    """
    unit = np.zeros(op.shape[1])
    rows, cols, vals = [], [], []
    for j in range(op.shape[1]):
        unit[j] = 1.0
        column = op @ unit
        unit[j] = 0.0
        rows.append(np.flatnonzero(column))
        cols.append(np.full(rows[-1].size, j))
        vals.append(column[rows[-1]])
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=op.shape
    )


def apply_operator(coeffs, u):
    """The stencil-weight operator on a full field, boundary values included."""
    weights = real_stencil_weights(coeffs.values, u.grid.spacing)
    return StencilOperator(u.grid, *weights).apply(u.values)


def random_hermitian_field(grid, rng, zero_real_01=False):
    """Diagonally dominant Hermitian coefficients with non-zero imaginary parts.

    With ``zero_real_01`` the (0, 1) entries are purely imaginary, so the
    x1 x2 and y1 y2 cross keys carry all-zero weights.
    """
    n = grid.n
    shape = grid.interior_shape + (n, n)
    off = 0.3 * (rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    if zero_real_01:
        off[..., 0, 1] = 1j * off[..., 0, 1].imag
        off[..., 1, 0] = 1j * off[..., 1, 0].imag
    herm = np.triu(off, 1) + np.conj(np.swapaxes(np.triu(off, 1), -1, -2))
    diag = rng.uniform(n - 0.3, n + 0.3, grid.interior_shape + (n,))
    return MatrixField(grid, herm + diag[..., None] * np.eye(n))


def membrane_center_value(terms=400):
    """Series solution of -lap u = 1 on the unit square, u = 0 on the boundary,
    evaluated at the center.  Independent oracle for the discrete solves."""
    total = 0.0
    for k in range(1, terms, 2):
        coef = 4.0 / (k**3 * np.pi**3) * (1.0 - 1.0 / np.cosh(k * np.pi / 2.0))
        total += coef * np.sin(k * np.pi / 2.0)
    return total


def poisson_square(res):
    """Discrete -lap u = 1 on the unit square via the n=1 assembler path.

    With unit coefficients the operator is lap/4, so the right-hand side is
    scaled by -1/4 to match -lap u = 1.
    """
    grid = BoxGrid(1, ((0, 1), (0, 1)), res)
    coeffs = constant_coefficient_field(grid, np.eye(1, dtype=complex))
    rhs = np.full(grid.interior_shape, -0.25)
    system = assemble_linearized(coeffs, rhs, grid)
    return grid, system


class TestAssembly:
    def test_quarter_laplacian_on_norm_squared(self):
        grid = BoxGrid(1, ((-1, 1), (-1, 1)), 9)
        coeffs = constant_coefficient_field(grid, np.eye(1, dtype=complex))
        u = ScalarField(grid, norm_squared(1).value(grid.points()))
        applied = apply_operator(coeffs, u)
        assert np.allclose(applied, 1.0, atol=1e-13)

    def test_pluriharmonic_in_kernel(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        coeffs = constant_coefficient_field(grid, np.eye(2, dtype=complex))
        u = ScalarField(grid, re_z1_squared(2).value(grid.points()))
        assert np.allclose(apply_operator(coeffs, u), 0.0, atol=1e-13)

    def test_matrix_consistent_with_apply(self):
        # matvec on interior values + boundary folding == direct stencil apply
        rng = np.random.default_rng(0)
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        base = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        cmat = base @ base.conj().T + 2 * np.eye(2)
        coeffs = constant_coefficient_field(grid, cmat)
        u_vals = rng.standard_normal(grid.shape)
        u = ScalarField(grid, u_vals)
        direct = hessian_operator_apply(coeffs, u)

        system = assemble_linearized(coeffs, np.zeros(grid.interior_shape), grid)
        interior = u_vals[(slice(1, -1),) * 4].reshape(-1)
        boundary_only = u_vals.copy()
        boundary_only[(slice(1, -1),) * 4] = 0.0
        bc = system.matrix.apply(boundary_only)
        got = system.matrix @ interior + bc.reshape(-1)
        assert np.allclose(got, direct.reshape(-1), atol=1e-11)

    def test_random_diagonal_coefficients_on_quadratic(self):
        # quadratics are stencil exact, so the analytic value is reproduced
        rng = np.random.default_rng(1)
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        d = rng.uniform(0.5, 2.0, grid.interior_shape + (2,))
        cvals = np.zeros(grid.interior_shape + (2, 2), dtype=complex)
        cvals[..., 0, 0] = d[..., 0]
        cvals[..., 1, 1] = d[..., 1]
        coeffs = MatrixField(grid, cvals)
        u = ScalarField(grid, norm_squared(2).value(grid.points()))
        applied = apply_operator(coeffs, u)
        # complex Hessian of |z|^2 is the identity: L u = trace of coefficients
        assert np.allclose(applied, d.sum(axis=-1), atol=1e-10)

    def test_matrix_consistent_with_apply_n3(self):
        # six real axes: every diagonal and cross stencil family is active
        rng = np.random.default_rng(5)
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        base = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        cmat = base @ base.conj().T + 3 * np.eye(3)
        coeffs = constant_coefficient_field(grid, cmat)
        u_vals = rng.standard_normal(grid.shape)
        direct = hessian_operator_apply(coeffs, ScalarField(grid, u_vals))

        system = assemble_linearized(coeffs, np.zeros(grid.interior_shape), grid)
        interior = u_vals[(slice(1, -1),) * 6].reshape(-1)
        boundary_only = u_vals.copy()
        boundary_only[(slice(1, -1),) * 6] = 0.0
        bc = system.matrix.apply(boundary_only)
        got = system.matrix @ interior + bc.reshape(-1)
        assert np.allclose(got, direct.reshape(-1), atol=1e-10)

    def test_rejects_indefinite_coefficients(self):
        grid = BoxGrid(1, ((0, 1), (0, 1)), 9)
        coeffs = constant_coefficient_field(grid, -np.eye(1, dtype=complex))
        with pytest.raises(IndefiniteCoefficients):
            assemble_linearized(coeffs, np.zeros(grid.interior_shape), grid)

    @pytest.mark.parametrize("n", [1, 2])
    def test_matrix_equals_triplet_reference(self, n):
        rng = np.random.default_rng(10 + n)
        grid = BoxGrid(n, ((-1, 1),) * (2 * n), 9)
        fields = [random_hermitian_field(grid, rng)]
        if n > 1:
            fields.append(random_hermitian_field(grid, rng, zero_real_01=True))
        for coeffs in fields:
            system = assemble_linearized(coeffs, np.zeros(grid.interior_shape), grid)
            reference = coo_reference_matrix(coeffs, grid)
            assert np.array_equal(materialize(system.matrix).toarray(), reference.toarray())

    def test_products_match_triplet_reference_n3(self):
        # the kernel sums a row's moves in its own order, not in column order
        # as CSR does, so each row agrees to rounding: k moves, each adding at
        # most eps |a_ij x_j| twice over
        rng = np.random.default_rng(13)
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        for zero_real_01 in (False, True):
            coeffs = random_hermitian_field(grid, rng, zero_real_01)
            system = assemble_linearized(coeffs, np.zeros(grid.interior_shape), grid)
            reference = coo_reference_matrix(coeffs, grid)
            moves = 1 + 2 * 6 + 4 * len(system.matrix.cross)
            x = rng.standard_normal(system.unknowns)
            bound = 2 * moves * np.finfo(float).eps * (abs(reference) @ np.abs(x))
            assert np.all(np.abs(system.matrix @ x - reference @ x) <= bound)

    @pytest.mark.parametrize("n", [2, 3])
    def test_mmatrix_count_equals_triplet_reference(self, n):
        rng = np.random.default_rng(30 + n)
        grid = BoxGrid(n, ((-1, 1),) * (2 * n), 9)
        for coeffs in (random_hermitian_field(grid, rng),
                       random_hermitian_field(grid, rng, zero_real_01=True)):
            # strengthen the off-diagonal entries so that some rows break
            coeffs.values *= 1.0 + 2.0 * (1.0 - np.eye(n))
            system = assemble_linearized(coeffs, np.zeros(grid.interior_shape), grid)
            absolute = abs(coo_reference_matrix(coeffs, grid))
            diagonal = absolute.diagonal()
            off = np.asarray(absolute.sum(axis=1)).ravel() - diagonal
            expected = int(np.sum(off > diagonal * (1 + 1e-12)))
            assert 0 < expected < system.unknowns
            assert system.mmatrix_violations == expected

    def test_apply_equals_hessian_oracle_with_boundary_data(self):
        rng = np.random.default_rng(15)
        for n in (1, 2, 3):
            grid = BoxGrid(n, ((-1, 1),) * (2 * n), 9)
            coeffs = random_hermitian_field(grid, rng)
            u = ScalarField(grid, rng.standard_normal(grid.shape))
            direct = hessian_operator_apply(coeffs, u)
            assert np.allclose(apply_operator(coeffs, u), direct, rtol=0.0,
                               atol=1e-12 * np.abs(direct).max())

    def test_assembly_peak_memory(self):
        # the operator keeps 19 real weight fields against the field's nine
        # complex entries per node; the checks and the audit add temporaries
        rng = np.random.default_rng(16)
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        coeffs = random_hermitian_field(grid, rng)
        rhs = np.zeros(grid.interior_shape)
        tracemalloc.start()
        try:
            assemble_linearized(coeffs, rhs, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * coeffs.values.nbytes

    def test_indefinite_node_is_named(self):
        # eigenvalues (0, 2, -1e-3) at one node, positive definite elsewhere
        rng = np.random.default_rng(14)
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        coeffs = random_hermitian_field(grid, rng)
        node = (3, 1, 5, 7, 6, 2)
        coeffs.values[tuple(i - 1 for i in node)] = np.array(
            [[1.0, 1.0j, 0.0], [-1.0j, 1.0, 0.0], [0.0, 0.0, -1e-3]]
        )
        with pytest.raises(IndefiniteCoefficients, match=re.escape(str(node))):
            assemble_linearized(coeffs, np.zeros(grid.interior_shape), grid)

    def test_mmatrix_audit_runs_when_read(self, monkeypatch):
        calls = []
        audit = StencilOperator.mmatrix_violations
        monkeypatch.setattr(StencilOperator, "mmatrix_violations",
                            lambda op: calls.append(op) or audit(op))
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        strong = constant_coefficient_field(grid, np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex))
        system = assemble_linearized(strong, np.zeros(grid.interior_shape), grid)
        assert calls == []
        assert system.mmatrix_violations > 0
        assert calls == [system.matrix]

    def test_mmatrix_violation_counter(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        mild = constant_coefficient_field(grid, np.eye(2, dtype=complex))
        system = assemble_linearized(mild, np.zeros(grid.interior_shape), grid)
        assert system.mmatrix_violations == 0
        strong = np.array([[1.0, 0.9], [0.9, 1.0]], dtype=complex)
        system = assemble_linearized(
            constant_coefficient_field(grid, strong), np.zeros(grid.interior_shape), grid
        )
        assert system.mmatrix_violations > 0


class TestSolve:
    def test_identity_system(self):
        grid = BoxGrid(1, ((0, 1), (0, 1)), 9)
        rhs = np.arange(49, dtype=float)
        identity = StencilOperator(grid, 1.0, [0.0, 0.0], {})
        system = SparseSystem(grid, identity, rhs)
        out = solve_sparse(system, tol=1e-12)
        assert np.allclose(out.interior().reshape(-1), rhs)

    def test_membrane_direct(self):
        grid, system = poisson_square(65)
        out = solve_sparse(system, tol=1e-12)
        center = out.values[32, 32]
        assert center == pytest.approx(membrane_center_value(), abs=2e-5)
        assert center == pytest.approx(0.07367, abs=1e-4)

    def test_membrane_iterative_matches_direct(self):
        grid, system = poisson_square(33)
        direct = spla.spsolve(materialize(system.matrix), system.rhs)
        iterative = solve_sparse(system, tol=1e-12)
        assert np.abs(direct - iterative.interior().reshape(-1)).max() < 1e-10

    def test_strong_cross_terms_match_direct(self):
        # variable coefficients whose real and imaginary (0, 1) entries reach
        # 0.9 of the diagonal: the mean axis stencil ignores every cross term
        rng = np.random.default_rng(21)
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        shape = grid.interior_shape
        cvals = np.zeros(shape + (2, 2), dtype=complex)
        cvals[..., 0, 0] = rng.uniform(1.0, 1.5, shape)
        cvals[..., 1, 1] = rng.uniform(1.0, 1.5, shape)
        bound = 0.9 * np.sqrt(cvals[..., 0, 0].real * cvals[..., 1, 1].real)
        cvals[..., 0, 1] = bound * (0.6 + 0.7j)
        cvals[..., 1, 0] = np.conj(cvals[..., 0, 1])
        system = assemble_linearized(MatrixField(grid, cvals), rng.standard_normal(shape), grid)
        assert system.mmatrix_violations > 0
        direct = spla.spsolve(materialize(system.matrix), system.rhs)
        iterative = solve_sparse(system, tol=1e-12)
        assert np.abs(direct - iterative.interior().reshape(-1)).max() < 1e-9 * np.abs(direct).max()

    def test_zero_matrix_cannot_be_preconditioned(self):
        grid = BoxGrid(1, ((0, 1), (0, 1)), 9)
        system = SparseSystem(grid, StencilOperator(grid, 0.0, [0.0, 0.0], {}), np.ones(49))
        with pytest.raises(LinearSolveStalled):
            solve_sparse(system)

    def test_manufactured_solution_recovery(self):
        rng = np.random.default_rng(2)
        grid, system = poisson_square(17)
        x_star = rng.standard_normal(system.unknowns)
        system.rhs = system.matrix @ x_star
        out = solve_sparse(system, tol=1e-12)
        assert np.allclose(out.interior().reshape(-1), x_star, atol=1e-9)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        grid, system = poisson_square(17)
        b1 = rng.standard_normal(system.unknowns)
        b2 = rng.standard_normal(system.unknowns)
        a = 2.75

        def solve_with(rhs):
            s = SparseSystem(grid, system.matrix, rhs)
            return solve_sparse(s, tol=1e-13).interior().reshape(-1)

        lhs = solve_with(a * b1 + b2)
        rhs = a * solve_with(b1) + solve_with(b2)
        assert np.allclose(lhs, rhs, atol=1e-9)

    def test_discrete_maximum_principle(self):
        # zero rhs + nonnegative boundary data -> nonnegative solution on a
        # monotone (M-matrix) instance
        rng = np.random.default_rng(4)
        grid = BoxGrid(1, ((0, 1), (0, 1)), 17)
        coeffs = constant_coefficient_field(grid, np.eye(1, dtype=complex))
        boundary = np.zeros(grid.shape)
        mask = grid.boundary_mask()
        boundary[mask] = rng.uniform(0.0, 1.0, mask.sum())
        bc = hessian_operator_apply(coeffs, ScalarField(grid, boundary))
        system = assemble_linearized(coeffs, -bc, grid)
        assert system.mmatrix_violations == 0
        out = solve_sparse(system, tol=1e-13)
        harmonic = out.values + boundary
        assert harmonic.min() >= -1e-11

    def test_stall_detection(self):
        # an inconsistent singular system cannot converge; the plateau or
        # breakdown guard must fire
        n = 60
        diag = np.ones(n)
        diag[0] = 0.0
        matrix = sp.diags(diag, format="csr")
        rhs = np.ones(n)
        with pytest.raises(LinearSolveStalled):
            bicgstab(matrix, rhs, tol=1e-14, max_iter=200)

    def test_plateau_is_reported(self):
        # singular and inconsistent, without breakdown: the residual stops
        # falling and the plateau guard fires before the iteration cap
        diag = np.linspace(1.0, 3.0, 60)
        diag[0] = 0.0
        with pytest.raises(LinearSolveStalled, match="residual plateau at .* over 50 iterations"):
            bicgstab(np.diag(diag), np.ones(60), tol=1e-14, max_iter=200)

    def test_iteration_cap_is_reported(self):
        matrix = np.diag(np.linspace(1.0, 10.0, 40))
        with pytest.raises(LinearSolveStalled, match="no convergence within 3 iterations"):
            bicgstab(matrix, np.ones(40), tol=1e-12, max_iter=3)

    def test_tol_validation(self):
        grid, system = poisson_square(9)
        with pytest.raises(ValueError):
            solve_sparse(system, tol=0.0)


def count_preconditioner_applications(monkeypatch) -> list:
    """Patch garding.linear.bicgstab to record preconditioner applications."""
    counts = []
    bicgstab_impl = garding.linear.bicgstab

    def counted(*args, precond, **kwargs):
        counts.append(0)

        def apply(vec):
            counts[-1] += 1
            return precond(vec)

        return bicgstab_impl(*args, precond=apply, **kwargs)

    monkeypatch.setattr(garding.linear, "bicgstab", counted)
    return counts


class TestUpperBarrier:
    @pytest.mark.parametrize("omega", [None, np.diag([1.0, 2.0])], ids=["identity", "diagonal"])
    def test_constant_separable_metric_solved_by_one_application(self, monkeypatch, omega):
        # the barrier matrix is its own mean axis stencil, so the
        # preconditioner is its exact inverse
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        pts = grid.points()
        phi = ScalarField(grid, pts[..., 0] ** 2 - 0.5 * pts[..., 3] + 0.3 * pts[..., 1] * pts[..., 2])
        chi = np.array([[1.0, 0.2j], [-0.2j, 0.5]])
        counts = count_preconditioner_applications(monkeypatch)
        out = upper_barrier(chi, omega, phi, grid)
        assert counts == [1]

        omega_inv = np.eye(2) if omega is None else np.linalg.inv(omega)
        coeffs = constant_coefficient_field(grid, omega_inv.astype(complex))
        mask = grid.boundary_mask()
        phi_ext = np.where(mask, phi.values, 0.0)
        rhs = -np.trace(omega_inv @ chi).real - hessian_operator_apply(coeffs, ScalarField(grid, phi_ext))
        system = assemble_linearized(coeffs, rhs, grid)
        expected = spla.spsolve(materialize(system.matrix), system.rhs)
        assert np.abs(out.interior().reshape(-1) - expected).max() < 1e-10
        assert np.array_equal(out.values[mask], phi.values[mask])

    def test_zero_data_gives_zero(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        phi = ScalarField(grid, np.zeros(grid.shape))
        out = upper_barrier(np.zeros((2, 2)), None, phi, grid)
        assert np.abs(out.values).max() < 1e-12

    def test_harmonic_linear_function_exact(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        x1 = grid.points()[..., 0]
        phi = ScalarField(grid, x1.copy())
        out = upper_barrier(np.zeros((2, 2)), None, phi, grid)
        assert np.abs(out.values - x1).max() < 1e-10

    def test_identity_chi_matches_series_oracle(self):
        # with chi = I (n = 1) the equation is lap v = -4 on the square;
        # v = 4 * membrane + harmonic extension of phi
        grid = BoxGrid(1, ((0, 1), (0, 1)), 65)
        pts = grid.points()
        phi_vals = pts[..., 0] ** 2 - pts[..., 1] ** 2  # harmonic
        phi = ScalarField(grid, phi_vals)
        out = upper_barrier(np.eye(1), None, phi, grid)
        expected_center = 4.0 * membrane_center_value() + 0.0
        assert out.values[32, 32] == pytest.approx(expected_center, abs=1e-4)

    def test_conformal_metric_invariance(self):
        # tr_omega(chi + H) = 0 is invariant under constant rescaling of omega
        grid = BoxGrid(1, ((0, 1), (0, 1)), 33)
        phi = ScalarField(grid, np.zeros(grid.shape))
        out = upper_barrier(np.eye(1), 2 * np.eye(1), phi, grid)
        ref = upper_barrier(np.eye(1), None, phi, grid)
        assert np.abs(out.values - ref.values).max() < 1e-10


def test_spla_binding_is_loaded_on_demand():
    # the bench tracer resolves garding.linear.spla.splu without a default
    assert garding.linear.spla.splu is spla.splu
    with pytest.raises(AttributeError):
        garding.linear.no_such_name


def test_bench_tracer_bindings_resolve():
    # bench/child.py wraps garding bindings by name: a renamed parent crashes
    # --trace 1 and a renamed leaf silently zeroes a per-layer metric.  The
    # four leaves below are the known gaps of ROADMAP item 1.
    path = Path(__file__).resolve().parent.parent / "bench" / "child.py"
    spec = importlib.util.spec_from_file_location("bench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    unresolved = set()
    for module, binding, _, _ in child.TRACED:
        owner = importlib.import_module(module)
        *parents, leaf = binding.split(".")
        for part in parents:
            owner = getattr(owner, part)  # raises when a parent is gone
        if getattr(owner, leaf, None) is None:
            unresolved.add(f"{module.removeprefix('garding.')}.{binding}")
    assert unresolved == {"solver._BoxEvaluator.min_margin", "solver.eigh_batch",
                          "solver.linearization_batch", "report.solution_node_fields"}
