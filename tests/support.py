"""Test-only analytic families, grid helpers and oracles shared by the test modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from garding.analytic import Polynomial, RadialProfile
from garding.cone import margins_batch
from garding.grid import MatrixField, ScalarField, complex_hessian_field
from garding.hermitian import ambient_transport_batch
from garding.operator import ftilde_grad_batch

CLUSTER_GAP_RTOL = 1e-8  # eigenvalue-cluster threshold for derivative averaging


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


def constant_coefficient_field(grid, matrix: np.ndarray) -> MatrixField:
    """One Hermitian matrix at every interior node."""
    vals = np.broadcast_to(
        np.asarray(matrix, dtype=np.complex128), grid.interior_shape + matrix.shape
    ).copy()
    return MatrixField(grid, vals)


def hessian_operator_apply(coeffs: MatrixField, u: ScalarField) -> np.ndarray:
    """tr(C @ complex_hessian(u)) at interior nodes, through the full complex
    Hessian; an oracle for the stencil-weight operator."""
    out = np.einsum("...kj,...jk->...", coeffs.values, complex_hessian_field(u).values)
    assert np.abs(out.imag).max(initial=0.0) <= 1e-12 * max(np.abs(out.real).max(), 1.0)
    return out.real


def cluster_average(vals: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Average gradient entries over near-degenerate eigenvalue clusters.

    ``vals``/(N, n) ascending, ``grads``/(N, n).  First derivatives of
    symmetric spectral functions are continuous across multiplicities, so
    averaging within a cluster removes the eigenvector noise without
    changing the limit.
    """
    n = vals.shape[-1]
    scale = np.maximum(np.abs(vals).max(axis=-1, keepdims=True), 1e-300)
    boundary = np.diff(vals, axis=-1) > CLUSTER_GAP_RTOL * scale
    # cluster ids per row: 0-based, nondecreasing along the row
    ids = np.concatenate(
        [np.zeros(vals.shape[:-1] + (1,), dtype=np.int64), np.cumsum(boundary, axis=-1)],
        axis=-1,
    )
    onehot = ids[..., :, None] == np.arange(n)
    sums = np.einsum("...kc,...k->...c", onehot, grads)
    counts = np.maximum(onehot.sum(axis=-2), 1)
    return np.take_along_axis(sums / counts, ids, axis=-1)


def eigen_route(params, reduced: np.ndarray, ell):
    """(ftilde, ambient C, trace_F, margins) of reduced matrices through eigenvectors.

    The spectral form of the linearization: with A = V diag(lam) V*, the
    coefficients are V diag(grad ftilde(lam)) V*, cluster-averaged.  It
    shares no code with the compound route it is an oracle for.
    """
    vals, vecs = np.linalg.eigh(reduced)
    ft, grads = ftilde_grad_batch(vals, params)
    grads = cluster_average(vals, grads)
    coeffs = np.einsum("...ik,...k,...jk->...ij", vecs, grads, vecs.conj())
    return ft, ambient_transport_batch(coeffs, ell), grads.sum(axis=-1), margins_batch(vals, params.p)
