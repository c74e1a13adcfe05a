import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from garding.analytic import norm_squared, radial_power
from garding.errors import NotAdmissible, ValidationError
from garding.grid import BoxGrid, complex_hessian_field
from garding.operator import OperatorParams, product_batch
from garding.problems import manufactured_box, manufactured_radial
from garding.radial import (
    MIN_POINTS,
    RadialGrid,
    eigenvalue_rows,
    profile_derivatives,
    radial_linearized,
    radial_trace_equation_solution,
    solve_radial_linear,
)

from support import RadialOnBox, node_coords, poly_scale, re_z1_squared


def radial_eigenvalues(u1, u2, s, n, c):
    """Ascending metric eigenvalues at one node: a one-row ``eigenvalue_rows``."""
    return np.sort(eigenvalue_rows(np.array([u1]), np.array([u2]), np.array([s]), n, c)[0])


class TestRadialEigenvalues:
    def test_linear_profile_gives_ones(self):
        # u = s means u = |z|^2: identity Hessian
        assert np.allclose(radial_eigenvalues(1.0, 0.0, 0.7, n=4, c=0.0), np.ones(4))

    def test_quadratic_profile_point_values(self):
        # u = s^2 / 2 at s = 1 with c = 1: (2, 2, 3)
        assert np.allclose(radial_eigenvalues(1.0, 1.0, 1.0, n=3, c=1.0), [2.0, 2.0, 3.0])

    def test_center_degenerates(self):
        assert np.allclose(radial_eigenvalues(0.5, 123.0, 0.0, n=3, c=0.25), 0.75)

    def test_matches_box_hessian_eigenvalues(self):
        # u = |z|^4 / 2 on an n = 2 grid through a node with |z|^2 = 1
        grid = BoxGrid(2, ((-1.5, 1.5),) * 4, 13)
        fn = RadialOnBox(radial_power(2), 2)
        u = fn.value(grid.coords())
        node = (10, 6, 6, 6)  # (1, 0, 0, 0): s = 1
        assert np.allclose(node_coords(grid, node), [1.0, 0, 0, 0])
        h = complex_hessian_field(u, grid)[tuple(i - 1 for i in node)]
        got = np.sort(np.linalg.eigvalsh(h))
        want = radial_eigenvalues(1.0, 1.0, 1.0, n=2, c=0.0)
        hsq = max(grid.spacing) ** 2
        assert np.abs(got - want).max() <= 3.0 * hsq


class TestProfileDerivatives:
    def test_quadratic_exact(self):
        grid = RadialGrid(1.0, 101)
        u = grid.s**2 / 2.0
        u1, u2 = profile_derivatives(u, grid.spacing)
        assert np.allclose(u1, grid.s[:-1], atol=1e-12)
        assert np.allclose(u2[1:], 1.0, atol=1e-10)

    def test_one_sided_start_second_order(self):
        grid_a = RadialGrid(1.0, 101)
        grid_b = RadialGrid(1.0, 201)

        def start_error(grid):
            u = np.exp(grid.s)
            u1, _ = profile_derivatives(u, grid.spacing)
            return abs(u1[0] - 1.0)

        ratio = start_error(grid_a) / start_error(grid_b)
        assert 3.0 <= ratio <= 5.0

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            RadialGrid(0.0, 101)
        with pytest.raises(ValidationError):
            RadialGrid(1.0, 5)

    def test_radius_past_the_magnitude_bound(self):
        # radius^2 = s_max would overflow; the build must not get that far
        with pytest.raises(ValidationError, match="radius"):
            manufactured_radial(radial_power(2), 1.0, OperatorParams(3, 2), RadialGrid(1e200, 201))

    def test_nan_radius(self):
        with pytest.raises(ValidationError, match="radius"):
            RadialGrid(float("nan"), 201)


class TestBandSolve:
    """The pivoted band elimination against SuperLU on the same collocated matrix."""

    @staticmethod
    def reference(trace_f, f_radial, grid):
        # the collocation rows written out: one-sided at s = 0, central after
        m, h = grid.points - 1, grid.spacing
        a1 = trace_f / (2.0 * h)
        a2 = grid.s[:m] * f_radial / h**2
        mat = sp.diags([(a2 - a1)[1:], -2.0 * a2, (a1 + a2)[:-1]], [-1, 0, 1], format="lil")
        mat[0, :3] = a1[0] * np.array([-3.0, 4.0, -1.0])
        return mat.tocsc()

    @pytest.mark.parametrize("case", ["row-0-pivot", "interior-not-dominant", "min-points"])
    def test_matches_spsolve(self, case):
        rng = np.random.default_rng(7)
        points = MIN_POINTS if case == "min-points" else 41
        for _ in range(20):
            grid = RadialGrid(rng.uniform(0.5, 2.0), points)
            m = points - 1
            f_radial = rng.uniform(0.5, 2.0, m)
            trace_f = f_radial * rng.uniform(1.0, 4.0, m)
            if case == "row-0-pivot":
                trace_f[0] *= 0.01
                trace_f[1] = f_radial[1]
            elif case == "interior-not-dominant":
                trace_f *= 12.0
            mat = self.reference(trace_f, f_radial, grid)
            dense = mat.toarray()
            if case == "row-0-pivot":
                assert abs(dense[1, 0]) > abs(dense[0, 0])
            elif case == "interior-not-dominant":
                diag = np.abs(np.diag(dense))
                assert (diag[1:5] < np.abs(dense).sum(axis=1)[1:5] - diag[1:5]).all()
            rhs = rng.standard_normal(m)
            x = solve_radial_linear(radial_linearized(trace_f, f_radial, grid), rhs)
            ref = spla.spsolve(mat, rhs)
            err = np.linalg.norm(x - ref) / np.linalg.norm(ref)
            assert err <= 1e-15 * np.linalg.cond(dense)


class TestRadialBarrierProfile:
    def test_trace_solution_is_linear(self):
        grid = RadialGrid(1.0, 11)
        v = radial_trace_equation_solution(0.5, 3, 2.0, grid)
        # u' = -c, boundary value at s = 1
        assert v[-1] == pytest.approx(2.0)
        assert np.allclose(np.diff(v) / grid.spacing, -0.5)


class TestManufacturedProblems:
    def test_norm_squared_det_one(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        problem = manufactured_box(
            norm_squared(2), np.zeros((2, 2)), OperatorParams(2, 1), grid
        )
        assert np.allclose(problem.psi, 1.0)
        # phi is the boundary trace of the target
        mask = grid.boundary_mask()
        expected = norm_squared(2).value(grid.coords())
        assert np.allclose(problem.phi[mask], expected[mask])

    def test_pluriharmonic_with_identity_chi(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        problem = manufactured_box(
            re_z1_squared(2), np.eye(2), OperatorParams(2, 1), grid
        )
        assert np.allclose(problem.psi, 1.0)

    def test_radial_psi_formula(self):
        grid = RadialGrid(1.0, 101)
        problem = manufactured_radial(radial_power(2), 1.0, OperatorParams(3, 2), grid)
        s = grid.s[:-1]
        assert np.allclose(problem.psi, (2 + 2 * s) * (2 + 3 * s) ** 2)
        # cross-check one node against the subset-sum product route
        rows = eigenvalue_rows(s, np.ones_like(s), grid.s, 3, 1.0)
        assert np.allclose(product_batch(rows, OperatorParams(3, 2)), problem.psi)

    def test_not_admissible_witness(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        concave = poly_scale(-1.0, norm_squared(2))
        with pytest.raises(NotAdmissible) as exc_info:
            manufactured_box(concave, np.zeros((2, 2)), OperatorParams(2, 1), grid)
        assert exc_info.value.node is not None

    def test_subsolution_equality_default(self):
        grid = RadialGrid(1.0, 101)
        problem = manufactured_radial(radial_power(2), 1.0, OperatorParams(3, 2), grid)
        assert np.array_equal(problem.psi, problem.subsolution_M)
