"""Exact-shape complex Hermitian linear algebra for small dimensions (2..6).

Matrices follow the row-k / column-j convention: ``entries[k, j]`` holds the
(1,1)-form component with barred index k, so a complex Hessian stores
``entries[k, j] = d^2 u / dz^j dzbar^k``.  All Hermitian matrices here are
Hermitian in the ordinary sense (``A == A.conj().T``) and eigenvalue routines
are convention independent.  Every eigenvalue comes from the batched LAPACK
routines; a scalar entry point is a call on a one-matrix batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MetricNotPositive, NotHermitian

HERMITIAN_RTOL = 1e-14
MIN_DIM = 2
MAX_DIM = 6


@dataclass(frozen=True)
class HermitianMatrix:
    """An n x n complex Hermitian matrix, symmetrized at construction."""

    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NotHermitian(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if not MIN_DIM <= n <= MAX_DIM:
            raise NotHermitian(f"dimension {n} outside [{MIN_DIM}, {MAX_DIM}]")
        scale = np.linalg.norm(a)
        asym = np.linalg.norm(a - a.conj().T)
        if asym > HERMITIAN_RTOL * max(scale, 1e-300):
            raise NotHermitian(
                f"asymmetry {asym:.3e} exceeds {HERMITIAN_RTOL:.1e} * norm {scale:.3e}"
            )
        # Absorb floating-point asymmetry (e.g. from finite differences).
        object.__setattr__(self, "entries", (a + a.conj().T) / 2.0)
        self.entries.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries).real)


@dataclass(frozen=True)
class Spectrum:
    """Ascending real eigenvalue vector of a metric endomorphism."""

    values: np.ndarray = field(repr=True)

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=np.float64))
        if not np.all(np.isfinite(v)):
            raise ValueError("spectrum contains non-finite values")
        object.__setattr__(self, "values", v)
        self.values.setflags(write=False)

    def __len__(self) -> int:
        return len(self.values)


def herm_eigen(a: HermitianMatrix) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, ascending, with multiplicity."""
    return Spectrum(eigvals_batch(a.entries[None])[0])


def _check_positive(omega: HermitianMatrix, floor: float = 1e-12) -> None:
    least = eigvals_batch(omega.entries[None])[0, 0]
    if least <= floor:
        raise MetricNotPositive(
            f"metric eigenvalue {least:.3e} not above positivity floor {floor:.1e}"
        )


def metric_endomorphism_eigen(omega: HermitianMatrix, g: HermitianMatrix) -> Spectrum:
    """Eigenvalues of the endomorphism ``omega^{-1} g`` via congruence reduction.

    Factors omega = L L* and diagonalizes L^{-1} g L^{-*}, which is Hermitian
    and similar to omega^{-1} g, so the spectrum is real.
    """
    return metric_endomorphism_system(omega, g)[0]


def metric_endomorphism_system(omega: HermitianMatrix, g: HermitianMatrix):
    """Spectrum plus the congruence data (L, V) with g = L V diag(vals) V* L*.

    One row of the batch route: metric_reduce, then eigh_batch.
    """
    reduced, ell = metric_reduce(omega, g)
    vals, vecs = eigh_batch(reduced)
    return Spectrum(vals[0]), ell, vecs[0]


def metric_reduce(omega: HermitianMatrix, g: HermitianMatrix):
    """(L^{-1} g L^{-*} as a one-matrix batch, L) for omega = L L*.

    One row of congruence_reduce_batch, after checking that omega is
    positive definite and matches g in dimension.
    """
    _check_positive(omega)
    if omega.dim != g.dim:
        raise ValueError(f"dimension mismatch: {omega.dim} vs {g.dim}")
    return congruence_reduce_batch(g.entries[None], omega.entries)


def trace_with_metric(omega: HermitianMatrix, g: HermitianMatrix) -> float:
    """The metric trace ``sum_j omega^{j kbar} g_{kbar j} = tr(omega^{-1} g)``."""
    _check_positive(omega)
    return float(np.trace(np.linalg.solve(omega.entries, g.entries)).real)


def eigh_batch(mats: np.ndarray):
    """Batched Hermitian eigen-decomposition for stacked (..., n, n) arrays.

    The one eigen route: scalar entry points call it on a one-matrix batch.
    Returns (values ascending along the last axis, eigenvector matrices).
    """
    return np.linalg.eigh(mats)


def eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Batched eigenvalues only (ascending along the last axis)."""
    return np.linalg.eigvalsh(mats)


def congruence_reduce_batch(mats: np.ndarray, omega: np.ndarray | None):
    """Map stacked Hermitian forms to endomorphism coordinates.

    With ``omega`` None (identity metric) this is a no-op.  Otherwise returns
    ``L^{-1} mats L^{-*}`` for the constant Cholesky factor L of omega; the
    eigenvalues of the result are those of ``omega^{-1} mats``.
    """
    if omega is None:
        return mats, None
    ell = np.linalg.cholesky(omega)
    ell_inv = np.linalg.inv(ell)
    reduced = np.einsum("ab,...bc,dc->...ad", ell_inv, mats, ell_inv.conj())
    return (reduced + np.swapaxes(reduced, -1, -2).conj()) / 2.0, ell


def ambient_transport_batch(coeffs: np.ndarray, ell: np.ndarray | None) -> np.ndarray:
    """Map stacked forms from endomorphism coordinates to the ambient frame.

    The adjoint of :func:`congruence_reduce_batch`: returns ``L^{-*} coeffs
    L^{-1}``, so that tr(coeffs @ L^{-1} h L^{-*}) = tr(result @ h) for a
    Hermitian h.  With ``ell`` None (identity metric) this is a no-op.
    """
    if ell is None:
        return coeffs
    ell_inv = np.linalg.inv(ell)
    return np.einsum("ba,...bc,cd->...ad", ell_inv.conj(), coeffs, ell_inv)
