import numpy as np
import pytest

from garding.errors import OutsideCone
from garding.grid import BoxGrid, complex_hessian_field, least
from garding.hermitian import eigvals_batch
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


def admissibility_scan(field, grid, params):
    """(least cone margin over a matrix field, its node), as the solver scans a state."""
    return least(margins_batch(eigvals_batch(field), params.p), grid.node_of_flat)


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
            margin, node = admissibility_scan(field, grid, OperatorParams(2, p))
            assert margin == pytest.approx(float(p))

    def test_single_bad_node(self):
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        # diag(-1, 1, 3) truncated to n=2 analogue: diag(-1, 1) with p=1
        field = self._constant_field(grid, np.diag([2.0, 3.0]).astype(complex))
        field[3, 4, 2, 5] = np.diag([-1.0, 1.0])
        margin, node = admissibility_scan(field, grid, OperatorParams(2, 1))
        assert margin == pytest.approx(-1.0)
        assert node == (4, 5, 3, 6)

    def test_bad_node_3d_example(self):
        grid = BoxGrid(3, ((-1, 1),) * 6, 9)
        field = self._constant_field(grid, np.eye(3, dtype=complex))
        idx = (0, 1, 2, 3, 4, 5)
        field[idx] = np.diag([-1.0, 1.0, 3.0])
        margin, node = admissibility_scan(field, grid, P32)
        assert margin == pytest.approx(0.0)
        assert node == tuple(i + 1 for i in idx)

    def test_manufactured_half_norm_field(self):
        # u = |z|^2 / 2 with chi = 0 has Hessian I/2, margin p/2 everywhere
        grid = BoxGrid(2, ((-1, 1),) * 4, 9)
        pts = stack_coords(grid.coords())
        u = 0.5 * np.sum(pts**2, axis=-1)
        g = complex_hessian_field(u, grid)  # chi = 0
        for p in (1, 2):
            margin, _ = admissibility_scan(g, grid, OperatorParams(2, p))
            assert margin == pytest.approx(p / 2, abs=1e-12)
