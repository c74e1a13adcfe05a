"""Test-only analytic families and grid helpers shared by the test modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from garding.analytic import Polynomial, RadialProfile


def re_z1_squared(n: int) -> Polynomial:
    """Re(z_1^2) = x_1^2 - y_1^2, a pluriharmonic quadratic."""
    e_x = [0] * (2 * n)
    e_x[0] = 2
    e_y = [0] * (2 * n)
    e_y[1] = 2
    return Polynomial(2 * n, {tuple(e_x): 1.0, tuple(e_y): -1.0})


@dataclass(frozen=True)
class RadialOnBox:
    """A radial profile evaluated as a function on C^n coordinates."""

    profile: RadialProfile
    n: int

    def value(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        s = np.sum(pts**2, axis=-1)
        return self.profile.value(s)

    def complex_hessian(self, points: np.ndarray) -> np.ndarray:
        # d_j d_kbar u(|z|^2) = u' delta_jk + u'' zbar_j z_k, entry [k, j]
        pts = np.asarray(points, dtype=np.float64)
        s = np.sum(pts**2, axis=-1)
        z = pts[..., 0::2] + 1j * pts[..., 1::2]
        u1 = self.profile.d1(s)
        u2 = self.profile.d2(s)
        eye = np.eye(self.n, dtype=np.complex128)
        outer = np.einsum("...j,...k->...kj", z.conj(), z)
        return u1[..., None, None] * eye + u2[..., None, None] * outer


def node_coords(grid, node) -> np.ndarray:
    """Real coordinates of a grid node."""
    return np.array([grid.axis_coords(a)[i] for a, i in enumerate(node)], dtype=np.float64)


def hermitian_defect(field) -> float:
    """Largest entry of |H - H*| over a MatrixField."""
    return float(np.abs(field.values - np.swapaxes(field.values, -1, -2).conj()).max())
