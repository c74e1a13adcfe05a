import numpy as np
import pytest

from garding.errors import OutsideCone
from garding.grid import BoxGrid, complex_hessian_field, least
from garding.hermitian import congruence_reduce_batch, eigvals_batch
from garding.operator import (
    OperatorParams,
    ftilde_batch,
    margins_batch,
    sample_cone_points,
    subset_sums_batch,
)

from support import stack_coords

P32 = OperatorParams(3, 2)


def margin_of(lam, params=P32):
    """Cone margin of one ascending eigenvalue vector: a one-row batch."""
    return float(margins_batch(np.array([lam]), params.p)[0])


def in_level_set(lam, psi_tilde, params=P32):
    """Membership in {margin > 0 and ftilde >= psi_tilde}."""
    return margin_of(lam, params) > 0.0 and ftilde_batch(np.array([lam]), params)[0] >= psi_tilde


def admissibility_scan(field, grid, omega, params):
    """(least cone margin over a matrix field, its node), as the solver scans a state."""
    reduced, _ = congruence_reduce_batch(field, omega)
    return least(margins_batch(eigvals_batch(reduced), params.p), grid.node_of_flat)


class TestConeMargin:
    def test_outside(self):
        assert margin_of([-1.0, -1.0, 5.0]) == pytest.approx(-2.0)
        with pytest.raises(OutsideCone):
            ftilde_batch(np.array([[-1.0, -1.0, 5.0]]), P32)

    def test_inside(self):
        assert margin_of([1.0, 1.0, 1.0]) == pytest.approx(2.0)
        assert ftilde_batch(np.array([[1.0, 1.0, 1.0]]), P32)[0] == pytest.approx(2.0)

    def test_boundary_counts_as_outside(self):
        assert margin_of([-1.0, 1.0, 3.0]) == 0.0
        with pytest.raises(OutsideCone):
            ftilde_batch(np.array([[-1.0, 1.0, 3.0]]), P32)

    def test_margin_is_min_subset_sum(self):
        rng = np.random.default_rng(0)
        for n, p in [(3, 2), (4, 3), (5, 2), (6, 4)]:
            params = OperatorParams(n, p)
            lams = np.sort(rng.uniform(-2, 2, (200, n)), axis=-1)
            margins = margins_batch(lams, p)
            sums = subset_sums_batch(lams, params)
            assert np.allclose(margins, sums.min(axis=-1))


class TestLevelSet:
    def test_threshold(self):
        lam = [1.0, 1.0, 1.0]
        assert in_level_set(lam, 2.0)
        assert not in_level_set(lam, 2.1)

    def test_outside_cone(self):
        assert not in_level_set([-1.0, -1.0, 5.0], 0.5)


class TestConeInclusions:
    def test_nesting(self):
        rng = np.random.default_rng(1)
        n = 5
        lams = np.sort(rng.uniform(-2, 2, (500, n)), axis=-1)
        m1 = margins_batch(lams, 1)
        mn = margins_batch(lams, n)
        for p in range(2, n + 1):
            mp = margins_batch(lams, p)
            inside_1 = m1 > 0
            inside_p = mp > 0
            inside_n = mn > 0
            assert np.all(~inside_1 | inside_p)  # P_1 subset P_p
            assert np.all(~inside_p | inside_n)  # P_p subset P_n

    def test_convexity_membership(self):
        rng = np.random.default_rng(2)
        params = OperatorParams(4, 2)
        a = sample_cone_points(rng, params, 500)
        b = sample_cone_points(rng, params, 500)
        mid = np.sort((a + b) / 2, axis=-1)
        assert np.all(margins_batch(mid, 2) > 0)

    def test_nonnegative_shift_preserves_membership(self):
        rng = np.random.default_rng(3)
        params = OperatorParams(4, 3)
        lams = sample_cone_points(rng, params, 500)
        shift = rng.uniform(0, 2, (500, 4))
        shifted = np.sort(lams + shift, axis=-1)
        assert np.all(margins_batch(shifted, 3) > 0)


class TestAdmissibilityScan:
    def _constant_field(self, grid, mat):
        return np.broadcast_to(mat, grid.interior_shape + mat.shape).copy()

    def test_constant_identity(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        field = self._constant_field(grid, np.eye(2, dtype=complex))
        for p in (1, 2):
            margin, node = admissibility_scan(field, grid, None, OperatorParams(2, p))
            assert margin == pytest.approx(float(p))

    def test_single_bad_node(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        # diag(-1, 1, 3) truncated to n=2 analogue: diag(-1, 1) with p=1
        field = self._constant_field(grid, np.diag([2.0, 3.0]).astype(complex))
        field[3, 4, 2, 5] = np.diag([-1.0, 1.0])
        margin, node = admissibility_scan(field, grid, None, OperatorParams(2, 1))
        assert margin == pytest.approx(-1.0)
        assert node == (4, 5, 3, 6)

    def test_bad_node_3d_example(self):
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        field = self._constant_field(grid, np.eye(3, dtype=complex))
        idx = (0, 1, 2, 3, 4, 5)
        field[idx] = np.diag([-1.0, 1.0, 3.0])
        margin, node = admissibility_scan(field, grid, None, P32)
        assert margin == pytest.approx(0.0)
        assert node == tuple(i + 1 for i in idx)

    def test_manufactured_half_norm_field(self):
        # u = |z|^2 / 2 with chi = 0 has Hessian I/2, margin p/2 everywhere
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        pts = stack_coords(grid.coords())
        u = 0.5 * np.sum(pts**2, axis=-1)
        g = complex_hessian_field(u, grid)  # chi = 0
        for p in (1, 2):
            margin, _ = admissibility_scan(g, grid, None, OperatorParams(2, p))
            assert margin == pytest.approx(p / 2, abs=1e-12)

    def test_scan_with_metric(self):
        # omega = diag(1, 4), g = diag(3, 8): endomorphism eigenvalues (2, 3)
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        field = self._constant_field(grid, np.diag([3.0, 8.0]).astype(complex))
        omega = np.diag([1.0, 4.0])
        margin, _ = admissibility_scan(field, grid, omega, OperatorParams(2, 1))
        assert margin == pytest.approx(2.0, abs=1e-12)
        margin, _ = admissibility_scan(field, grid, omega, OperatorParams(2, 2))
        assert margin == pytest.approx(5.0, abs=1e-12)

    def test_identity_metric_matches_none(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        rng = np.random.default_rng(12)
        shape = grid.interior_shape + (2, 2)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        field = a + np.swapaxes(a, -1, -2).conj() + 4 * np.eye(2)
        for p in (1, 2):
            params = OperatorParams(2, p)
            assert admissibility_scan(field, grid, np.eye(2), params) == admissibility_scan(
                field, grid, None, params
            )

    def test_near_identity_metric_is_reduced(self):
        # omega within allclose's rtol of I still divides g: margin 2 / (1 + 5e-6)
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        g = np.diag([2.0, 3.0]).astype(complex)
        omega = np.diag([1.0 + 5e-6, 1.0])
        field = self._constant_field(grid, g)
        margin, _ = admissibility_scan(field, grid, omega, OperatorParams(2, 1))
        reduced = eigvals_batch(congruence_reduce_batch(g[None], omega)[0])[0]
        assert margin == pytest.approx(reduced[0], rel=1e-15, abs=0)
        assert margin == pytest.approx(1.99999000005, rel=1e-12, abs=0)
