"""Box grids in C^n and second-order discrete complex Hessians.

A box domain in C^n is discretized as a uniform tensor grid over the 2n
real coordinates, ordered (x_1, y_1, x_2, y_2, ...) with z_j = x_j + i y_j.
The discrete complex Hessian entry with barred row k and unbarred column j is

    H[k, j] = 1/4 * [ (u_{x^j x^k} + u_{y^j y^k}) + i (u_{x^j y^k} - u_{y^j x^k}) ]

with central second differences on the diagonal and 4-point cross stencils
for mixed terms.  Mixed stencils are symmetric in their two axes, so the
assembled matrix is Hermitian exactly (zero symmetrization correction) and
the diagonal is exactly real.  Consistency is O(h^2) for C^4 functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BoundaryNode, ValidationError
from .hermitian import HermitianMatrix, complex_hessian_from

MIN_RESOLUTION = 9


@dataclass(frozen=True)
class BoxGrid:
    """Uniform grid over a 2n-dimensional real box.

    ``extent`` holds 2n (lo, hi) pairs; ``resolution`` is the point count per
    axis (odd and >= 9, so the center is a node).  Interior nodes have every
    index in [1, resolution - 2].
    """

    n: int
    extent: tuple
    resolution: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError("n", f"complex dimension must be >= 1, got {self.n}")
        ext = tuple((float(lo), float(hi)) for lo, hi in self.extent)
        if len(ext) != 2 * self.n:
            raise ValidationError(
                "extent", f"expected {2 * self.n} (lo, hi) pairs, got {len(ext)}"
            )
        for lo, hi in ext:
            if not hi > lo:
                raise ValidationError("extent", f"empty interval ({lo}, {hi})")
        if self.resolution < MIN_RESOLUTION or self.resolution % 2 == 0:
            raise ValidationError(
                "resolution",
                f"resolution must be odd and >= {MIN_RESOLUTION}, got {self.resolution}",
            )
        object.__setattr__(self, "extent", ext)

    @property
    def ndim_real(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return (self.resolution,) * self.ndim_real

    @property
    def interior_shape(self) -> tuple:
        return (self.resolution - 2,) * self.ndim_real

    @property
    def spacing(self) -> tuple:
        r = self.resolution - 1
        return tuple((hi - lo) / r for lo, hi in self.extent)

    def axis_coords(self, axis: int) -> np.ndarray:
        lo, hi = self.extent[axis]
        return np.linspace(lo, hi, self.resolution)

    def is_interior(self, node) -> bool:
        return all(1 <= i <= self.resolution - 2 for i in node)

    def node_of_flat(self, k: int) -> tuple:
        """Grid node of the k-th entry of a flattened interior-shaped array."""
        idx = np.unravel_index(k, self.interior_shape)
        return tuple(int(i) + 1 for i in idx)

    def points(self) -> np.ndarray:
        """All node coordinates, shape (*grid shape, 2n)."""
        grids = np.meshgrid(*[self.axis_coords(a) for a in range(self.ndim_real)],
                            indexing="ij")
        return np.stack(grids, axis=-1)

    def interior_points(self) -> np.ndarray:
        return self.points()[(slice(1, -1),) * self.ndim_real]

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.ndim_real] = False
        return mask

    def face_distances(self) -> tuple:
        """The distance to the nearest face and to the second nearest, over
        the full grid, from one running pass over the real axes."""
        least = second = np.full(self.shape, np.inf)
        for a, (lo, hi) in enumerate(self.extent):
            c = self.axis_coords(a).reshape((-1,) + (1,) * (self.ndim_real - 1 - a))
            d = np.minimum(c - lo, hi - c)
            second = np.minimum(second, np.maximum(least, d))
            least = np.minimum(least, d)
        return least, second

    def diameter(self) -> float:
        return float(np.sqrt(sum((hi - lo) ** 2 for lo, hi in self.extent)))


@dataclass
class ScalarField:
    """Real values attached to every grid node."""

    grid: BoxGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != self.grid.shape:
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("scalar field contains non-finite values")
        self.values = v

    def interior(self) -> np.ndarray:
        return self.values[(slice(1, -1),) * self.grid.ndim_real]


def field_values(u) -> np.ndarray:
    """The node values of a ScalarField, or of a plain (box or radial) array."""
    return u.values if isinstance(u, ScalarField) else np.asarray(u, dtype=float)


@dataclass
class MatrixField:
    """Hermitian matrices attached to interior nodes, stored stacked."""

    grid: BoxGrid
    values: np.ndarray  # (*interior shape, n, n) complex

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        expected = self.grid.interior_shape + (self.grid.n, self.grid.n)
        if v.shape != expected:
            raise ValueError(f"values shape {v.shape} != {expected}")
        self.values = v


def least(values: np.ndarray, node_of_flat) -> tuple:
    """(least entry of ``values``, the node where it first occurs).

    ``node_of_flat`` is the grid's method of that name (``BoxGrid`` for
    interior-shaped box arrays, ``RadialGrid`` on the s-grid).
    """
    flat = values.reshape(-1)
    k = int(np.argmin(flat))
    return float(flat[k]), node_of_flat(k)


def interior_slices(ndim: int, steps: dict, axes=None) -> tuple:
    """Full-grid slices: the interior along ``axes`` (every axis when None),
    moved by {axis: +-1}, and the whole range along the other axes."""
    return tuple(slice(1 + steps.get(a, 0), steps.get(a, 0) - 1 or None)
                 if axes is None or a in axes else slice(None) for a in range(ndim))


def second_difference(values: np.ndarray, axis_a: int, axis_b: int, spacing) -> np.ndarray:
    """Discrete d^2/(dt_a dt_b) over the interior block of a full-grid array."""
    ndim, ha, hb = values.ndim, spacing[axis_a], spacing[axis_b]
    if axis_a == axis_b:
        up = values[interior_slices(ndim, {axis_a: +1})]
        mid = values[interior_slices(ndim, {})]
        dn = values[interior_slices(ndim, {axis_a: -1})]
        return (up - 2.0 * mid + dn) / (ha * ha)
    pp = values[interior_slices(ndim, {axis_a: +1, axis_b: +1})]
    pm = values[interior_slices(ndim, {axis_a: +1, axis_b: -1})]
    mp = values[interior_slices(ndim, {axis_a: -1, axis_b: +1})]
    mm = values[interior_slices(ndim, {axis_a: -1, axis_b: -1})]
    return (pp - pm - mp + mm) / (4.0 * ha * hb)


def _hessian_block(values: np.ndarray, n: int, spacing) -> np.ndarray:
    """Discrete complex Hessian over the interior of a block of grid values.

    The one Hessian stencil: ``values`` is the full grid or the 3^2n block
    around a node, and the result has the block's interior shape + (n, n).
    """
    return complex_hessian_from(lambda a, b: second_difference(values, a, b, spacing), n,
                                tuple(s - 2 for s in values.shape))


def complex_hessian_field(u: ScalarField) -> MatrixField:
    """Discrete complex Hessian of u at every interior node."""
    return MatrixField(u.grid, _hessian_block(u.values, u.grid.n, u.grid.spacing))


def complex_hessian(u: ScalarField, node) -> HermitianMatrix:
    """Discrete complex Hessian at a single interior node (its 3^2n block)."""
    grid = u.grid
    if not grid.is_interior(node):
        raise BoundaryNode(f"node {node} is on the boundary")
    block = u.values[tuple(slice(i - 1, i + 2) for i in node)]
    return HermitianMatrix(_hessian_block(block, grid.n, grid.spacing).reshape(grid.n, grid.n))


def assemble_g(chi, u: ScalarField) -> MatrixField:
    """g = chi + complex Hessian of u at every interior node, for a constant
    Hermitian ``chi`` (HermitianMatrix or (n, n) array)."""
    hess = complex_hessian_field(u)
    entries = getattr(chi, "entries", np.asarray(chi, dtype=np.complex128))
    hess.values = hess.values + entries
    return hess


def first_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """d/dt_axis at every node: central differences inside, second-order
    one-sided at the first and last node; all are exact on quadratics."""
    v = np.moveaxis(values, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(d, 0, axis)


def gradient_sq_max(u: ScalarField) -> float:
    """Max over all nodes of |grad u|^2 by ``first_difference`` along each axis;
    exact on quadratics, so resolution independent for quadratic fields."""
    total = np.zeros(u.grid.shape)
    for a, h in enumerate(u.grid.spacing):
        d = first_difference(u.values, a, h)
        total += d * d
    return float(total.max())


def face_tangential_trace_min(u: ScalarField, chi_entries: np.ndarray) -> float:
    """Minimum over face nodes of the complex-tangential trace of g.

    For a face perpendicular to a real axis of the complex direction j, the
    tangential block of g omits direction j; its trace needs only diagonal
    Hessian entries in the remaining directions, whose stencils stay on the
    face, so this is computable from boundary data alone.  Face nodes with a
    tangential index on an edge are skipped.
    """
    grid = u.grid
    n = grid.n
    best = np.inf
    chi = np.asarray(chi_entries, dtype=np.complex128)
    for axis in range(grid.ndim_real):
        jn = axis // 2
        tang_dirs = [j for j in range(n) if j != jn]
        if not tang_dirs:
            continue
        chi_trace = float(sum(chi[j, j].real for j in tang_dirs))
        for side in (0, grid.resolution - 1):
            sl = [slice(None)] * grid.ndim_real
            sl[axis] = side
            face = u.values[tuple(sl)]
            face_axes = [a for a in range(grid.ndim_real) if a != axis]
            pos = {a: i for i, a in enumerate(face_axes)}
            spacing = [grid.spacing[a] for a in face_axes]
            trace = np.full(tuple(grid.resolution - 2 for _ in face_axes), chi_trace)
            for j in tang_dirs:
                for real_axis in (2 * j, 2 * j + 1):
                    trace += second_difference(
                        face, pos[real_axis], pos[real_axis], spacing
                    ) / 4.0
            best = min(best, float(trace.min()))
    return best
