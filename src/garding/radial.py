"""Radial reduction on balls in C^n.

For u = u(s) with s = |z|^2, the complex Hessian is
u'(s) I + u''(s) (zbar tensor z), whose eigenvalues are u' with multiplicity
n - 1 (tangential) and u' + s u'' (radial).  With chi = c * identity the
metric eigenvalues are c + u' and c + u' + s u''.

The profile is collocated on a uniform s-grid over [0, R^2].  u' is the
box grid's ``first_difference``: central inside and second-order one-sided
at both ends, so it also gives u'(R^2) to the boundary diagnostics; u'' is
central.  At s = 0 the radial eigenvalue degenerates to the tangential one
(the u'' coefficient vanishes with s), so only u'(0) is needed there and the
one-sided difference closes the system.

The collocated Jacobian is banded: rows 1..m-1 are tridiagonal and row 0
holds the one-sided entries in columns 0-2.  It is kept as an (m, 4) band and
solved by Gaussian elimination with row pivoting, in NumPy and plain floats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import first_difference
from .hermitian import Spectrum

MIN_POINTS = 9


@dataclass(frozen=True)
class RadialGrid:
    """Uniform s-grid on [0, R^2] with ``points`` nodes."""

    radius: float
    points: int

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValidationError("radius", f"radius must be positive, got {self.radius}")
        if self.points < MIN_POINTS:
            raise ValidationError("points", f"need at least {MIN_POINTS} points, got {self.points}")

    @property
    def s_max(self) -> float:
        return self.radius**2

    @property
    def spacing(self) -> float:
        return self.s_max / (self.points - 1)

    @property
    def s(self) -> np.ndarray:
        return np.linspace(0.0, self.s_max, self.points)

    def node_of_flat(self, k: int) -> int:
        """Grid node of the k-th collocation value: the s-grid index itself."""
        return int(k)


def radial_eigenvalues(u1: float, u2: float, s: float, n: int, c: float) -> Spectrum:
    """Metric eigenvalues of chi = c I plus the Hessian of a radial profile.

    ``u1 = u'(s)`` and ``u2 = u''(s)``; the tangential eigenvalue c + u1 has
    multiplicity n - 1 and the radial one is c + u1 + s * u2.
    """
    if s < 0.0:
        raise ValueError(f"s must be nonnegative, got {s}")
    return Spectrum(eigenvalue_rows(np.array([u1]), np.array([u2]), np.array([s]), n, c)[0])


def profile_derivatives(u: np.ndarray, spacing: float):
    """First (``first_difference``) and central second differences of a profile.

    Returns (u1, u2) at the collocation nodes 0..m-1 (the boundary node m is
    not collocated).  u2[0] is set to 0; it is always multiplied by s = 0.
    """
    m = len(u) - 1
    u2 = np.zeros(m)
    u2[1:] = (u[2 : m + 1] - 2.0 * u[1:m] + u[0 : m - 1]) / spacing**2
    return first_difference(u, 0, spacing)[:m], u2


def eigenvalue_rows(u1: np.ndarray, u2: np.ndarray, s: np.ndarray, n: int, c: float):
    """Unsorted eigenvalue rows (m, n): tangential columns then the radial one."""
    m = len(u1)
    lam = np.empty((m, n))
    lam[:, : n - 1] = (c + u1)[:, None]
    lam[:, n - 1] = c + u1 + s[:m] * u2
    return lam


def radial_linearized(trace_f: np.ndarray, f_radial: np.ndarray, grid: RadialGrid):
    """Derivative of the collocated residual with respect to interior values.

    Row i of the residual depends on the profile through u'(s_i) and
    u''(s_i); the chain rule gives coefficients trace_f for u' and
    s_i * f_radial for u''.  Unknowns are nodes 0..m-1 (node m is Dirichlet).
    Returns the (m, 4) band: row i holds columns i-1..i+2, and only row 0
    uses column i+2.
    """
    m, ds = grid.points - 1, grid.spacing
    a1 = trace_f / (2.0 * ds)
    a2 = grid.s[:m] * f_radial / ds**2
    band = np.stack([a2 - a1, -2.0 * a2, a1 + a2, np.zeros(m)], axis=-1)
    # one-sided row at s = 0: residual depends on u'(0) only
    band[0] = 0.0, -3.0 * a1[0], 4.0 * a1[0], -a1[0]
    band[-1, 2] = 0.0  # column m is the Dirichlet node
    return band


def solve_radial_linear(band: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``radial_linearized``'s band by Gaussian elimination with row pivoting.

    Neither row 0 nor the rows with trace_f / (2h) > s f_radial / h^2 are
    diagonally dominant.  With lower bandwidth 1 and upper bandwidth 2, the
    pivoted rows of U span columns k..k+3 (Golub & Van Loan, 4th ed., 4.3).
    """
    rows = np.column_stack([band, rhs]).tolist()  # columns k-1..k+2 of row k, then its rhs
    cur, upper = [*rows[0][1:4], 0.0, rows[0][4]], []
    for nxt in rows[1:]:  # cur is the pending row of column k - 1, laid out like nxt
        if abs(nxt[0]) > abs(cur[0]):
            cur, nxt = nxt, cur
        upper.append(cur)
        factor = nxt[0] / cur[0]
        e = [a - factor * b for a, b in zip(nxt, cur)]
        cur = [e[1], e[2], e[3], 0.0, e[4]]
    upper.append(cur)
    x = [0.0, 0.0, 0.0]  # back substitution, last unknown first: x[-j] is column k + j
    for d, u1, u2, u3, y in reversed(upper):
        x.append((y - u1 * x[-1] - u2 * x[-2] - u3 * x[-3]) / d)
    return np.array(x[:2:-1])


def radial_trace_equation_solution(c: float, n: int, boundary_value: float,
                                   grid: RadialGrid) -> np.ndarray:
    """Profile of the upper barrier: tr(c I + Hessian) = 0 radially.

    The trace is n (c + u') + s u''; the regular solution has u' = -c, so
    the barrier is the explicit line through the boundary value.
    """
    return boundary_value + c * (grid.s_max - grid.s)


def radial_gradient_sq_max(u: np.ndarray, grid: RadialGrid) -> float:
    """Max of |grad u|^2 = 4 s u'(s)^2 over the grid."""
    return float((4.0 * grid.s * first_difference(u, 0, grid.spacing) ** 2).max())


def radial_hessian_spectral_radius(u: np.ndarray, grid: RadialGrid):
    """Per-node spectral radius of the Hessian of the profile (chi excluded).

    Returns (interior values array over nodes 0..m-1, boundary value at m).
    """
    s, ds = grid.s, grid.spacing
    u1, u2 = profile_derivatives(u, ds)
    interior = np.maximum(np.abs(u1), np.abs(u1 + s[:-1] * u2))
    u1_end = first_difference(u, 0, ds)[-1]
    u2_end = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / ds**2
    boundary = max(abs(u1_end), abs(u1_end + s[-1] * u2_end))
    return interior, float(boundary)
