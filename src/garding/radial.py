"""Radial reduction on balls in C^n.

For u = u(s) with s = |z|^2, the complex Hessian is
u'(s) I + u''(s) (zbar tensor z), whose eigenvalues are u' with multiplicity
n - 1 (tangential) and u' + s u'' (radial).  With chi = c * identity the
metric eigenvalues are c + u' and c + u' + s u''.

The profile is collocated on a uniform s-grid over [0, R^2] with central
differences; at s = 0 the radial eigenvalue degenerates to the tangential
one (the u'' coefficient vanishes with s), so only u'(0) is needed there and
a second-order one-sided difference closes the system.

The collocated Jacobian is a SciPy CSR matrix solved by SuperLU.  SciPy is
imported inside the two functions that need it, so a box solve never loads
it: SciPy is loaded only by radial solves and by the bench tracer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
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


def radial_eigenvalues(u1: float, u2: float, s: float, n: int, c: float) -> Spectrum:
    """Metric eigenvalues of chi = c I plus the Hessian of a radial profile.

    ``u1 = u'(s)`` and ``u2 = u''(s)``; the tangential eigenvalue c + u1 has
    multiplicity n - 1 and the radial one is c + u1 + s * u2.
    """
    if s < 0.0:
        raise ValueError(f"s must be nonnegative, got {s}")
    vals = [c + u1] * (n - 1) + [c + u1 + s * u2]
    return Spectrum(vals)


def profile_derivatives(u: np.ndarray, spacing: float):
    """Central first/second differences of a profile, one-sided at s = 0.

    Returns (u1, u2) at the collocation nodes 0..m-1 (the boundary node m is
    not collocated).  u2[0] is set to 0; it is always multiplied by s = 0.
    """
    m = len(u) - 1
    u1 = np.zeros(m)
    u2 = np.zeros(m)
    u1[1:] = (u[2 : m + 1] - u[0 : m - 1]) / (2.0 * spacing)
    u2[1:] = (u[2 : m + 1] - 2.0 * u[1:m] + u[0 : m - 1]) / spacing**2
    u1[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * spacing)
    return u1, u2


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
    Returns an (m, m) ``scipy.sparse.csr_matrix``.
    """
    import scipy.sparse as sp

    m = grid.points - 1
    ds = grid.spacing
    s = grid.s
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    # one-sided row at s = 0: residual depends on u'(0) only
    c0 = trace_f[0] / (2.0 * ds)
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [-3.0 * c0, 4.0 * c0, -1.0 * c0]
    for i in range(1, m):
        a1 = trace_f[i] / (2.0 * ds)
        a2 = s[i] * f_radial[i] / ds**2
        entries = {i - 1: -a1 + a2, i: -2.0 * a2, i + 1: a1 + a2}
        for j, v in entries.items():
            if j <= m - 1:
                rows.append(i)
                cols.append(j)
                vals.append(v)
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, m))


def solve_radial_linear(matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve ``radial_linearized``'s CSR matrix with SuperLU."""
    import scipy.sparse.linalg as spla

    return spla.splu(matrix.tocsc()).solve(rhs)


def radial_trace_equation_solution(c: float, n: int, boundary_value: float,
                                   grid: RadialGrid) -> np.ndarray:
    """Profile of the upper barrier: tr(c I + Hessian) = 0 radially.

    The trace is n (c + u') + s u''; the regular solution has u' = -c, so
    the barrier is the explicit line through the boundary value.
    """
    return boundary_value + c * (grid.s_max - grid.s)


def radial_gradient_sq_max(u: np.ndarray, grid: RadialGrid) -> float:
    """Max of |grad u|^2 = 4 s u'(s)^2 over the grid."""
    u1, _ = profile_derivatives(u, grid.spacing)
    # include the boundary node via a one-sided difference
    ds = grid.spacing
    u1_end = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * ds)
    vals = 4.0 * grid.s[:-1] * u1**2
    return float(max(vals.max(), 4.0 * grid.s_max * u1_end**2))


def radial_hessian_spectral_radius(u: np.ndarray, grid: RadialGrid):
    """Per-node spectral radius of the Hessian of the profile (chi excluded).

    Returns (interior values array over nodes 0..m-1, boundary value at m).
    """
    u1, u2 = profile_derivatives(u, grid.spacing)
    s = grid.s
    interior = np.maximum(np.abs(u1), np.abs(u1 + s[:-1] * u2))
    ds = grid.spacing
    u1_end = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * ds)
    u2_end = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / ds**2
    boundary = max(abs(u1_end), abs(u1_end + s[-1] * u2_end))
    return interior, float(boundary)
