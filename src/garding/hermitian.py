"""Exact-shape complex Hermitian linear algebra for small dimensions (2..6).

Matrices follow the row-k / column-j convention: ``entries[k, j]`` holds the
(1,1)-form component with barred index k, so a complex Hessian stores
``entries[k, j] = d^2 u / dz^j dzbar^k``.  All Hermitian matrices here are
Hermitian in the ordinary sense (``A == A.conj().T``) and eigenvalue routines
are convention independent.  Every eigenvalue comes from
:func:`eigvals_batch`; a scalar entry point is a call on a one-matrix batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import MetricNotPositive, NotHermitian

HERMITIAN_RTOL = 1e-14
METRIC_FLOOR = 1e-12  # least eigenvalue a metric omega must exceed
MIN_DIM = 2
MAX_DIM = 6
# rows per block of the closed-form eigenvalues: a block's temporaries stay
# near a megabyte, where a whole grid of 3 x 3 rows at once would raise the
# peak memory of a solve by tens of MB
EIG_BLOCK = 4096
# 3 x 3 rows with |r| above 1 - EIG_R_TOL go to LAPACK: arccos(r) has slope
# 1 / sqrt(1 - r^2), so near a double eigenvalue the rounding of r grows by
# up to 1 / sqrt(2 EIG_R_TOL), about 22 here; the rows kept stay within about
# 40 eps * max|entry| of eigvalsh
EIG_R_TOL = 1e-3


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


def complex_hessian_from(d2, n: int, shape: tuple) -> np.ndarray:
    """Complex Hessian rows, shape + (n, n), from real second derivatives.

    ``d2(a, b)`` gives d^2/(dt_a dt_b) over ``shape``, with real axes ordered
    x_1, y_1, x_2, y_2, ...; entry [k, j] = d^2/dz^j dzbar^k is
    1/4 [(u_{x^j x^k} + u_{y^j y^k}) + i (u_{x^j y^k} - u_{y^j x^k})].
    """
    out = np.zeros(shape + (n, n), dtype=np.complex128)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        out[..., j, j] = (d2(xj, xj) + d2(yj, yj)) / 4.0
        for k in range(j + 1, n):
            xk, yk = 2 * k, 2 * k + 1
            re = (d2(xj, xk) + d2(yj, yk)) / 4.0
            im = (d2(xj, yk) - d2(yj, xk)) / 4.0
            out[..., k, j] = re + 1j * im
            out[..., j, k] = re - 1j * im
    return out


def herm_eigen(a: HermitianMatrix) -> Spectrum:
    """Eigenvalues of a Hermitian matrix, ascending, with multiplicity."""
    return Spectrum(eigvals_batch(a.entries[None])[0])


def _check_positive(omega: HermitianMatrix) -> None:
    least = eigvals_batch(omega.entries[None])[0, 0]
    if least <= METRIC_FLOOR:
        raise MetricNotPositive(
            f"metric eigenvalue {least:.3e} not above positivity floor {METRIC_FLOOR:.1e}"
        )


def metric_endomorphism_eigen(omega: HermitianMatrix, g: HermitianMatrix) -> Spectrum:
    """Eigenvalues of the endomorphism ``omega^{-1} g`` via congruence reduction.

    Factors omega = L L* and takes the eigenvalues of L^{-1} g L^{-*}, which
    is Hermitian and similar to omega^{-1} g, so the spectrum is real.
    """
    return Spectrum(eigvals_batch(metric_reduce(omega, g)[0])[0])


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


def eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Batched eigenvalues only (ascending along the last axis).

    Reads the lower triangle, as ``np.linalg.eigvalsh`` does.  Stacks of
    1 x 1, 2 x 2 and 3 x 3 matrices take closed forms, EIG_BLOCK rows at a
    time.  ``eigvalsh`` computes the rest: the 3 x 3 rows near a double
    eigenvalue, where the closed form loses accuracy, every block holding a
    non-finite entry (so NaN input fails as it does there), and every other
    shape.
    """
    mats = np.asarray(mats)
    m = mats.shape[-1] if mats.ndim >= 2 else 0
    if m not in _CLOSED_FORMS or mats.shape[-2] != m:
        return np.linalg.eigvalsh(mats)
    rows = mats.reshape(-1, m, m)
    out = np.empty(rows.shape[:-1])
    for lo in range(0, rows.shape[0], EIG_BLOCK):
        block, part = rows[lo : lo + EIG_BLOCK], out[lo : lo + EIG_BLOCK]
        if np.isfinite(block).all():
            part[...] = _CLOSED_FORMS[m](block)
            redo = ~np.isfinite(part).all(axis=-1)
        else:
            redo = np.ones(block.shape[0], dtype=bool)
        if redo.any():
            part[redo] = np.linalg.eigvalsh(block[redo])
    return out.reshape(mats.shape[:-1])


def _eigvals_1(h: np.ndarray) -> np.ndarray:
    return h[:, :, 0].real


def _eigvals_2(h: np.ndarray) -> np.ndarray:
    """mean -+ hypot((a - d) / 2, |b|), halved before the sum so it cannot overflow."""
    a, d = h[:, 0, 0].real / 2.0, h[:, 1, 1].real / 2.0
    radius = np.hypot(a - d, np.abs(h[:, 1, 0]))
    return np.stack([a + d - radius, a + d + radius], axis=-1)


def _eigvals_3(h: np.ndarray) -> np.ndarray:
    """Smith's trigonometric formula (O. K. Smith, Commun. ACM 4, 1961).

    With q = tr(h) / 3 and the deviator h - q I divided by its largest
    entry t, so that no power below can overflow or underflow, B has
    p^2 = |B|_F^2 / 6, r = det(B) / (2 p^3) in [-1, 1] and phi = arccos(r) / 3,
    and the eigenvalues are q + 2 t p cos(phi + 2 pi / 3) <= q + 2 t p
    cos(phi - 2 pi / 3) <= q + 2 t p cos(phi).  Rows with |r| > 1 - EIG_R_TOL
    are NaN: the formula is ill-conditioned there (Kopp, Int. J. Mod. Phys. C
    19, 2008).  A scalar row (t = 0) gives q three times.
    """
    q = (h[:, 0, 0].real + h[:, 1, 1].real + h[:, 2, 2].real) / 3.0
    diag = h[:, [0, 1, 2], [0, 1, 2]].real - q[:, None]
    off = h[:, [1, 2, 2], [0, 0, 1]]  # b = h_10, c = h_20, e = h_21
    t = np.maximum(np.abs(diag).max(axis=-1), np.abs(off).max(axis=-1))
    scalar = t == 0.0
    t[scalar] = 1.0
    diag /= t[:, None]
    off = off / t[:, None]
    sq = off.real**2 + off.imag**2
    p = np.sqrt(((diag**2).sum(axis=-1) + 2.0 * sq.sum(axis=-1)) / 6.0)
    a, d, f = diag.T
    det = (a * (d * f - sq[:, 2]) - f * sq[:, 0] - d * sq[:, 1]
           + 2.0 * (off[:, 0] * off[:, 2] * off[:, 1].conj()).real)
    p[scalar] = 1.0  # B = 0: r = 0, and the factor t p below is 0
    r = det / (2.0 * p**3)
    p[scalar] = 0.0
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    phi[np.abs(r) > 1.0 - EIG_R_TOL] = np.nan
    angles = phi[:, None] + np.array([2.0, -2.0, 0.0]) * (np.pi / 3.0)
    return q[:, None] + (2.0 * t * p)[:, None] * np.cos(angles)


_CLOSED_FORMS = {1: _eigvals_1, 2: _eigvals_2, 3: _eigvals_3}


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
