import numpy as np
import pytest

from garding.analytic import Polynomial, norm_squared, radial_power
from garding.errors import ValidationError
from garding.grid import (
    BoxGrid,
    complex_hessian_field,
    face_tangential_trace_min,
    first_difference,
    gradient_sq_max,
)
from garding.radial import RadialGrid

from support import (
    RadialOnBox,
    hermitian_defect,
    node_coords,
    poly_add,
    poly_mul,
    re_z1_squared,
    stack_coords,
)


def field_from(grid, func):
    return func.value(grid.coords())


def per_node_hessian(vals, grid, node):
    """Reference: the complex Hessian at one node, one stencil entry at a time."""
    n = grid.n
    h = grid.spacing

    def d2(a, b):
        base = list(node)
        if a == b:
            up = list(base)
            up[a] += 1
            dn = list(base)
            dn[a] -= 1
            return (vals[tuple(up)] - 2.0 * vals[tuple(base)] + vals[tuple(dn)]) / (
                h[a] * h[a]
            )
        total = 0.0
        for sa, sb, sign in ((1, 1, 1.0), (1, -1, -1.0), (-1, 1, -1.0), (-1, -1, 1.0)):
            idx = list(base)
            idx[a] += sa
            idx[b] += sb
            total += sign * vals[tuple(idx)]
        return total / (4.0 * h[a] * h[b])

    out = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        out[j, j] = (d2(xj, xj) + d2(yj, yj)) / 4.0
        for k in range(j + 1, n):
            xk, yk = 2 * k, 2 * k + 1
            re = (d2(xj, xk) + d2(yj, yk)) / 4.0
            im = (d2(xj, yk) - d2(yj, xk)) / 4.0
            out[k, j] = re + 1j * im
            out[j, k] = re - 1j * im
    return out


class TestBoxGrid:
    def test_validation(self):
        with pytest.raises(ValidationError):
            BoxGrid(2, ((-1, 1),) * 4, 8)  # even
        with pytest.raises(ValidationError):
            BoxGrid(2, ((-1, 1),) * 4, 7)  # too small
        with pytest.raises(ValidationError):
            BoxGrid(2, ((-1, 1),) * 3, 9)  # wrong extent count
        with pytest.raises(ValidationError):
            BoxGrid(2, ((1, -1),) + ((-1, 1),) * 3, 9)  # empty interval

    def test_center_is_node(self):
        grid = BoxGrid(1, ((-1, 1), (-1, 1)), 9)
        assert 0.0 in grid.axis_coords(0)

    def test_face_distance(self):
        grid = BoxGrid(1, ((-1, 1), (-1, 1)), 9)
        d, second = grid.face_distances()
        assert d[0, 3] == 0.0
        assert d[4, 4] == pytest.approx(1.0)
        assert d[1, 4] == pytest.approx(0.25)
        assert second[0, 3] == pytest.approx(0.75)
        assert second[0, 0] == 0.0
        assert second[4, 4] == pytest.approx(1.0)


class TestComplexHessian:
    def test_norm_squared_gives_identity(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        u = field_from(grid, norm_squared(2))
        h = complex_hessian_field(u, grid)
        assert np.allclose(h, np.eye(2), atol=1e-13)
        assert hermitian_defect(h) == 0.0

    def test_pluriharmonic_annihilated(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        u = field_from(grid, re_z1_squared(2))
        h = complex_hessian_field(u, grid)
        assert np.allclose(h, 0.0, atol=1e-13)

    def test_mixed_product_point_values(self):
        # u = |z_1|^2 |z_2|^2 at z = (1, 1): exact Hessian [[1, 1], [1, 1]]
        f1 = Polynomial(4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})
        f2 = Polynomial(4, {(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
        prod = poly_mul(f1, f2)
        # analytic oracle at (x1, y1, x2, y2) = (1, 0, 1, 0)
        pt = np.array([1.0, 0.0, 1.0, 0.0])
        exact = prod.complex_hessian(pt)
        assert np.allclose(exact, np.array([[1.0, 1.0], [1.0, 1.0]]))
        # discrete value within C h^2, on a grid where the point is a node
        grid = BoxGrid(2, ((-1.5, 1.5),) * 4, 13)
        u = field_from(grid, prod)
        node = (10, 6, 10, 6)
        assert np.allclose(node_coords(grid, node), pt)
        h = complex_hessian_field(u, grid)[tuple(i - 1 for i in node)]
        hsq = max(grid.spacing) ** 2
        assert np.abs(h - exact).max() <= 2.0 * hsq

    def test_bilinear_quartic_is_stencil_exact(self):
        # every monomial of |z_1|^2 |z_2|^2 has degree <= 2 per variable, so
        # central and 4-point cross differences reproduce it exactly
        f1 = Polynomial(4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})
        f2 = Polynomial(4, {(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
        prod = poly_mul(f1, f2)
        for res in (9, 17):
            grid = BoxGrid(2, ((-1, 1),) * 4, res)
            u = field_from(grid, prod)
            h = complex_hessian_field(u, grid)
            exact = prod.complex_hessian(grid.coords(interior=True))
            assert np.abs(h - exact).max() <= 1e-12

    def test_second_order_convergence(self):
        # |z|^4 has nonzero pure fourth derivatives and the cubic cross term
        # activates the mixed-stencil truncation error
        probe = poly_add(poly_mul(norm_squared(2), norm_squared(2)), Polynomial(
            4, {(3, 0, 1, 0): 1.0, (0, 3, 0, 1): 1.0}
        ))

        def max_error(res):
            grid = BoxGrid(2, ((-1, 1),) * 4, res)
            u = field_from(grid, probe)
            h = complex_hessian_field(u, grid)
            exact = probe.complex_hessian(grid.coords(interior=True))
            return np.abs(h - exact).max()

        e_coarse = max_error(9)
        e_fine = max_error(17)  # halves the spacing
        assert 3.5 <= e_coarse / e_fine <= 4.5

    def test_polynomial_derivative_of_mixed_monomials(self):
        # p = 3 x1^2 y1 x2 - 2 y1^3 + 5 x2 + 7, differentiated by hand
        p = Polynomial(4, {(2, 1, 1, 0): 3.0, (0, 3, 0, 0): -2.0, (0, 0, 1, 0): 5.0,
                           (0, 0, 0, 0): 7.0})
        assert p.derivative(0).terms == {(1, 1, 1, 0): 6.0}
        assert p.derivative(1).terms == {(2, 0, 1, 0): 3.0, (0, 2, 0, 0): -6.0}
        assert p.derivative(2).terms == {(2, 1, 0, 0): 3.0, (0, 0, 0, 0): 5.0}
        assert p.derivative(3).terms == {}
        assert p.derivative(2).derivative(2).terms == {}

    @pytest.mark.parametrize("expo", [(1.5, 0), (-1, 0)], ids=["fractional", "negative"])
    def test_polynomial_rejects_a_non_integer_or_negative_exponent(self, expo):
        # (1.5, 0) was truncated to x and (-1, 0) kept as 1 / x
        with pytest.raises(ValueError, match="non-negative integers"):
            Polynomial(2, {expo: 1.0})
        assert Polynomial(2, {(2.0, 0): 1.0}).terms == {(2, 0): 1.0}

    def test_single_node_matches_field(self):
        rng = np.random.default_rng(0)
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        u = rng.standard_normal(grid.shape)
        h = complex_hessian_field(u, grid)
        for node in [(1, 1, 1, 1), (4, 3, 2, 5), (7, 7, 7, 7)]:
            idx = tuple(i - 1 for i in node)
            assert np.allclose(h[idx], per_node_hessian(u, grid, node), atol=1e-14)

    def test_radial_profile_agreement(self):
        # the radial Hessian formula and the grid Hessian agree at nodes
        grid = BoxGrid(2, ((-1.5, 1.5),) * 4, 13)
        fn = RadialOnBox(radial_power(2), 2)
        u = fn.value(grid.coords())
        h = complex_hessian_field(u, grid)
        exact = fn.complex_hessian(grid.coords(interior=True))
        hsq = max(grid.spacing) ** 2
        assert np.abs(h - exact).max() <= 3.0 * hsq


class TestAssembleG:
    """g = chi + the field Hessian, as the solver forms it at every interior node."""

    def test_chi_plus_zero(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        u = np.zeros(grid.shape)
        g = np.eye(2) + complex_hessian_field(u, grid)
        assert np.allclose(g, np.eye(2))

    def test_zero_chi_norm_squared(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        u = field_from(grid, norm_squared(2))
        g = np.zeros((2, 2)) + complex_hessian_field(u, grid)
        assert np.allclose(g, np.eye(2), atol=1e-13)

    def test_diagonal_chi(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        u = field_from(grid, norm_squared(2))
        g = np.diag([1.0, 2.0]) + complex_hessian_field(u, grid)
        assert np.allclose(g, np.diag([2.0, 3.0]), atol=1e-13)


class TestGradientAndTrace:
    @pytest.mark.parametrize("axis", [0, 1, 2, 3, None],
                             ids=["box-x1", "box-y1", "box-x2", "box-y2", "s-grid"])
    def test_first_difference_is_exact_on_quadratics(self, axis):
        # central inside and second-order one-sided at both ends: every node
        # of a random quadratic, unequal spacings on the box
        rng = np.random.default_rng(5)
        if axis is None:
            grid = RadialGrid(1.5, 41)
            pts, h, axis = grid.s[:, None], grid.spacing, 0
        else:
            grid = BoxGrid(2, ((-1, 1), (0, 0.5), (-2, 1), (0.5, 1.5)), 9)
            pts, h = stack_coords(grid.coords()), grid.spacing[axis]
        dim = pts.shape[-1]
        sym = rng.standard_normal((dim, dim))
        sym = sym + sym.T
        lin = rng.standard_normal(dim)
        values = rng.standard_normal() + pts @ lin + np.einsum("...i,ij,...j->...", pts, sym, pts)
        exact = lin[axis] + 2.0 * pts @ sym[axis]
        assert np.abs(first_difference(values, axis, h) - exact).max() <= 1e-12

    def test_gradient_sq_max_quadratic(self):
        # grad |z|^2 = 2 (x, y); stencils exact, sup at the corner nodes
        for res in (9, 13):
            grid = BoxGrid(1, ((-1, 1), (-1, 1)), res)
            u = field_from(grid, norm_squared(1))
            assert gradient_sq_max(u, grid) == pytest.approx(8.0)

    def test_face_trace_identity_field(self):
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        u = field_from(grid, norm_squared(3))
        c0 = face_tangential_trace_min(u, grid, np.zeros((3, 3)))
        assert c0 == pytest.approx(2.0, abs=1e-12)
