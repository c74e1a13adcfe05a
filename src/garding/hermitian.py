"""Exact-shape complex Hermitian linear algebra for small dimensions (2..6).

Matrices follow the row-k / column-j convention: ``entries[k, j]`` holds the
(1,1)-form component with barred index k, so a complex Hessian stores
``entries[k, j] = d^2 u / dz^j dzbar^k``.  All Hermitian matrices here are
Hermitian in the ordinary sense (``A == A.conj().T``) and eigenvalue routines
are convention independent.  Every eigenvalue comes from
:func:`eigvals_batch`; one matrix is a one-matrix batch.

Per-node fields are plane-backed: a stack of shape (..., n, n) is the
``np.moveaxis`` view of an (n, n, ...) array, so the kernels, which read
and write one entry at a time across all nodes, touch one contiguous plane
per entry.  :func:`complex_hessian_from` allocates that way; a C-ordered
stack is accepted everywhere and gives the same values.
"""

from __future__ import annotations

import numpy as np

# rows per block of the closed-form eigenvalues: a block's temporaries stay
# near a megabyte, where a whole grid of 3 x 3 rows at once would raise the
# peak memory of a solve by tens of MB
EIG_BLOCK = 4096
# 3 x 3 rows with |r| above 1 - EIG_R_TOL go to LAPACK: arccos(r) has slope
# 1 / sqrt(1 - r^2), so near a double eigenvalue the rounding of r grows by
# up to 1 / sqrt(2 EIG_R_TOL), about 22 here; the rows kept stay within about
# 40 eps * max|entry| of eigvalsh
EIG_R_TOL = 1e-3


def complex_hessian_from(d2, n: int, shape: tuple) -> np.ndarray:
    """Complex Hessian rows, shape + (n, n), from real second derivatives.

    ``d2(a, b)`` gives d^2/(dt_a dt_b) over ``shape``, with real axes ordered
    x_1, y_1, x_2, y_2, ...; entry [k, j] = d^2/dz^j dzbar^k is
    1/4 [(u_{x^j x^k} + u_{y^j y^k}) + i (u_{x^j y^k} - u_{y^j x^k})].
    The result is plane-backed: a view of an (n, n) + shape array.
    """
    out = np.empty((n, n) + shape, dtype=np.complex128)
    for j in range(n):
        xj, yj = 2 * j, 2 * j + 1
        out[j, j] = (d2(xj, xj) + d2(yj, yj)) / 4.0
        for k in range(j + 1, n):
            xk, yk = 2 * k, 2 * k + 1
            re = (d2(xj, xk) + d2(yj, yk)) / 4.0
            im = (d2(xj, yk) - d2(yj, xk)) / 4.0
            out[k, j] = re + 1j * im
            out[j, k] = re - 1j * im
    return np.moveaxis(out, (0, 1), (-2, -1))


def eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Batched eigenvalues only (ascending along the last axis).

    Reads the lower triangle, as ``np.linalg.eigvalsh`` does.  Stacks of
    1 x 1, 2 x 2 and 3 x 3 matrices take closed forms, EIG_BLOCK rows at a
    time, read as their (m, m, rows) planes.  ``eigvalsh`` computes the
    rest: the 3 x 3 rows near a double eigenvalue, where the closed form
    loses accuracy, every block holding a non-finite entry (so NaN input
    fails as it does there), and every other shape.
    """
    mats = np.asarray(mats)
    m = mats.shape[-1] if mats.ndim >= 2 else 0
    if m not in _CLOSED_FORMS or mats.shape[-2] != m:
        return np.linalg.eigvalsh(mats)
    planes = np.moveaxis(mats.reshape(-1, m, m), 0, -1)  # a view when mats is plane-backed
    out = np.empty((planes.shape[-1], m))
    for lo in range(0, planes.shape[-1], EIG_BLOCK):
        block, part = planes[..., lo : lo + EIG_BLOCK], out[lo : lo + EIG_BLOCK]
        if np.isfinite(block).all():
            part[...] = _CLOSED_FORMS[m](block)
            redo = ~np.isfinite(part).all(axis=-1)
        else:
            redo = np.ones(block.shape[-1], dtype=bool)
        if redo.any():
            part[redo] = np.linalg.eigvalsh(np.moveaxis(block[..., redo], -1, 0))
    return out.reshape(mats.shape[:-1])


def _eigvals_1(h: np.ndarray) -> np.ndarray:
    return h[0, 0].real[:, None]


def _eigvals_2(h: np.ndarray) -> np.ndarray:
    """mean -+ hypot((a - d) / 2, |b|), halved before the sum so it cannot overflow."""
    a, d = h[0, 0].real / 2.0, h[1, 1].real / 2.0
    radius = np.hypot(a - d, np.abs(h[1, 0]))
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
    q = (h[0, 0].real + h[1, 1].real + h[2, 2].real) / 3.0
    diag = [h[k, k].real - q for k in range(3)]
    off = [h[1, 0], h[2, 0], h[2, 1]]
    t = np.abs(off[0])
    for x in diag + off[1:]:
        np.maximum(t, np.abs(x), out=t)
    scalar = t == 0.0
    t[scalar] = 1.0
    a, d, f = (x / t for x in diag)
    b, c, e = (x / t for x in off)
    sb, sc, se = (x.real**2 + x.imag**2 for x in (b, c, e))
    p = np.sqrt(((a**2 + d**2 + f**2) + 2.0 * (sb + sc + se)) / 6.0)
    det = a * (d * f - se) - f * sb - d * sc + 2.0 * (b * e * c.conj()).real
    p[scalar] = 1.0  # B = 0: r = 0, and the factor t p below is 0
    r = det / (2.0 * p**3)
    p[scalar] = 0.0
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    phi[np.abs(r) > 1.0 - EIG_R_TOL] = np.nan
    out, radius = np.empty((len(q), 3)), 2.0 * t * p
    for k, shift in enumerate((2.0 * np.pi / 3.0, -2.0 * np.pi / 3.0, 0.0)):
        np.add(q, radius * np.cos(phi + shift), out=out[:, k])
    return out


_CLOSED_FORMS = {1: _eigvals_1, 2: _eigvals_2, 3: _eigvals_3}
