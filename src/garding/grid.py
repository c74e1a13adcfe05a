"""Box grids in C^n and second-order discrete complex Hessians.

A box domain in C^n is discretized as a uniform tensor grid over the 2n
real coordinates, ordered (x_1, y_1, x_2, y_2, ...) with z_j = x_j + i y_j.
The discrete complex Hessian entry with barred row k and unbarred column j is

    H[k, j] = 1/4 * [ (u_{x^j x^k} + u_{y^j y^k}) + i (u_{x^j y^k} - u_{y^j x^k}) ]

with central second differences on the diagonal and 4-point cross stencils
for mixed terms.  Mixed stencils are symmetric in their two axes, so the
assembled matrix is Hermitian exactly (zero symmetrization correction) and
the diagonal is exactly real.  Consistency is O(h^2) for C^4 functions.

Every difference is one ``flat_step`` pass over contiguous interior values.
The Hessian, and anything linear in it, is read from the ``difference_stack``
of u through one real ``hessian_table`` product (``table_field``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hermitian import complex_hessian_from
from .operator import MAGNITUDE_BOUND

MIN_RESOLUTION = 9
MIN_SPACING = 2.0**-250  # second differences of values within 2^500 stay within 2^1002


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
            if max(abs(lo), abs(hi)) > MAGNITUDE_BOUND:
                raise ValidationError("extent", f"interval ({lo}, {hi}) exceeds 2^500 in magnitude")
        if self.resolution < MIN_RESOLUTION or self.resolution % 2 == 0:
            raise ValidationError(
                "resolution",
                f"resolution must be odd and >= {MIN_RESOLUTION}, got {self.resolution}",
            )
        object.__setattr__(self, "extent", ext)
        if min(self.spacing) < MIN_SPACING:
            raise ValidationError("extent", f"grid spacing {min(self.spacing):.3e} is below 2^-250")

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

    def node_of_flat(self, k: int) -> tuple:
        """Grid node of the k-th entry of a flattened interior-shaped array."""
        idx = np.unravel_index(k, self.interior_shape)
        return tuple(int(i) + 1 for i in idx)

    def coords(self, interior: bool = False) -> tuple:
        """The 2n per-axis node coordinates: axis a's varies along axis a only,
        and they broadcast to the grid shape (the interior shape with ``interior``)."""
        cut = slice(1, -1) if interior else slice(None)
        return tuple(np.meshgrid(*[self.axis_coords(a)[cut] for a in range(self.ndim_real)],
                                 indexing="ij", sparse=True))

    def boundary_mask(self) -> np.ndarray:
        mask = np.ones(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.ndim_real] = False
        return mask

    def face_distances(self) -> tuple:
        """The distance to the nearest face and to the second nearest, over
        the full grid, from one running pass over the real axes."""
        least = second = np.full(self.shape, np.inf)
        for (lo, hi), c in zip(self.extent, self.coords()):
            d = np.minimum(c - lo, hi - c)
            second = np.minimum(second, np.maximum(least, d))
            least = np.minimum(least, d)
        return least, second

    def diameter(self) -> float:
        return float(np.sqrt(sum((hi - lo) ** 2 for lo, hi in self.extent)))


def least(values: np.ndarray, node_of_flat) -> tuple:
    """(least entry of ``values``, the node where it first occurs).

    ``node_of_flat`` is the grid's method of that name (``BoxGrid`` for
    interior-shaped box arrays, ``RadialGrid`` on the s-grid).
    """
    flat = values.reshape(-1)
    k = int(np.argmin(flat))
    return float(flat[k]), node_of_flat(k)


def interior_slices(ndim: int, steps: dict) -> tuple:
    """Full-grid slices of the interior, moved by {axis: +-1}."""
    return tuple(slice(1 + steps.get(a, 0), steps.get(a, 0) - 1 or None) for a in range(ndim))


def flat_step(op, x: np.ndarray, a: int, out: np.ndarray, values=None, b=None) -> None:
    """out = op(x(+e_a), x(-e_a)) on interior-shaped values in C order: one
    pass at a's flat stride s, ``op(x[2s:], x[:-2s], out=out[s:-s])``, then
    a's two faces, where it read across a line end, from the values past
    them: zero, or the layers of the full-grid ``values`` (stepped along b)."""
    m = x.shape[0]
    s = m ** (x.ndim - 1 - a)
    x, out = x.reshape(-1), out.reshape(-1)
    op(x[2 * s:], x[:-2 * s], out=out[s:-s])
    x, out = x.reshape(-1, m, s), out.reshape(-1, m, s)
    beyond = (0.0, 0.0) if values is None else [_layer(values, a, side, b).reshape(-1, s)
                                                 for side in (0, -1)]
    op(x[:, 1], beyond[0], out=out[:, 0])
    op(beyond[1], x[:, -2], out=out[:, -1])


def _layer(values: np.ndarray, a: int, side: int, b) -> np.ndarray:
    """The boundary layer of ``values`` at ``side`` of axis a, interior along
    the other axes; with an axis b, its step u(+e_b) - u(-e_b) along b."""

    def at(move):
        sl = list(interior_slices(values.ndim, move))
        sl[a] = side
        return values[tuple(sl)]

    return at({}) if b is None else at({b: 1}) - at({b: -1})


def hessian_pairs(n: int) -> tuple:
    """The real axis pairs (a, b), a < b, whose mixed differences the complex
    Hessian reads: an axis of z_j against an axis of z_k, j < k."""
    return tuple((a, b) for a in range(2 * n) for b in range(a + 1, 2 * n) if a // 2 != b // 2)


def difference_stack(values: np.ndarray) -> np.ndarray:
    """The difference fields of the full-grid ``values`` at the interior
    nodes, stacked: the centre u, u(+e_a) + u(-e_a) along each real axis a,
    and for each of the ``hessian_pairs`` (a, b) the step along a of the
    step along b, u(+e_a+e_b) - u(+e_a-e_b) - u(-e_a+e_b) + u(-e_a-e_b).
    Each row is ``flat_step`` passes; the pairs sharing b share its step."""
    n, pairs = values.ndim // 2, hessian_pairs(values.ndim // 2)
    stack = np.empty((1 + 2 * n + len(pairs),) + tuple(k - 2 for k in values.shape))
    stack[0] = values[interior_slices(values.ndim, {})]
    for a in range(2 * n):
        flat_step(np.add, stack[0], a, stack[1 + a], values)
    step = np.empty(stack.shape[1:])
    for b in sorted({b for _, b in pairs}):
        flat_step(np.subtract, stack[0], b, step, values)
        for row, (a, pair_b) in enumerate(pairs, start=1 + 2 * n):
            if pair_b == b:
                flat_step(np.subtract, step, a, stack[row], values, b)
    return stack


def hessian_table(grid: BoxGrid, chi: np.ndarray, lift=lambda forms: (forms,)) -> np.ndarray:
    """The ``table_field`` table of lift(chi + complex Hessian of u), where
    ``lift`` maps stacked (k, n, n) Hermitian forms linearly to (k, m, m)
    ones and any further (k,) rows.  Column f is the lift of the Hessian of
    the f-th unit stack row, and the last that of chi; the rows are the real
    parts of the lower triangle, the imaginary parts below it, the others."""
    n, h, pairs = grid.n, grid.spacing, hessian_pairs(grid.n)
    units = np.eye(1 + 2 * n + len(pairs))

    def d2(a, b):
        if a == b:
            return (units[1 + a] - 2.0 * units[0]) / (h[a] * h[a])
        return units[1 + 2 * n + pairs.index((min(a, b), max(a, b)))] / (4.0 * h[a] * h[b])

    forms, *rest = lift(np.concatenate([complex_hessian_from(d2, n, units.shape[:1]), chi[None]]))
    low, below = np.tril_indices(forms.shape[-1]), np.tril_indices(forms.shape[-1], -1)
    return np.vstack([forms[:, low[0], low[1]].real.T, forms[:, below[0], below[1]].imag.T, *rest])


def table_field(table: np.ndarray, u: np.ndarray, grid: BoxGrid, m: int) -> tuple:
    """The affine map ``table`` (a ``hessian_table``) of the ``difference_stack``
    of u at every interior node, by one real matrix product.  Returns (the
    (*interior_shape, m, m) Hermitian field, plane-backed, exactly Hermitian
    with a real diagonal; the further rows, interior-shaped)."""
    stack = difference_stack(u)
    rows = table[:, :-1] @ stack.reshape(len(stack), -1)
    del stack  # it dies before the field is allocated
    const, low, below = table[:, -1], np.tril_indices(m), np.tril_indices(m, -1)
    planes = np.empty((m, m, rows.shape[1]), dtype=np.complex128)
    for r, (i, j) in enumerate(zip(*low)):
        np.add(rows[r], const[r], out=planes[i, j].real)
    for r, (i, j) in enumerate(zip(*below), start=len(low[0])):
        np.add(rows[r], const[r], out=planes[i, j].imag)
        np.conjugate(planes[i, j], out=planes[j, i])
    planes.imag[np.diag_indices(m)] = 0.0
    field = np.moveaxis(planes.reshape((m, m) + grid.interior_shape), (0, 1), (-2, -1))
    return field, (rows[m * m:] + const[m * m:, None]).reshape((-1,) + grid.interior_shape)


def complex_hessian_field(u: np.ndarray, grid: BoxGrid) -> np.ndarray:
    """Discrete complex Hessian of the full-grid values u at every interior
    node, a plane-backed (*interior_shape, n, n) complex array."""
    return table_field(hessian_table(grid, np.zeros((grid.n, grid.n))), u, grid, grid.n)[0]


def first_difference(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """d/dt_axis at every node: central differences inside, second-order
    one-sided at the first and last node; all are exact on quadratics."""
    v = np.moveaxis(values, axis, 0)
    d = np.empty_like(v)
    d[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    d[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    d[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(d, 0, axis)


def gradient_sq_max(u: np.ndarray, grid: BoxGrid) -> float:
    """Max over all nodes of |grad u|^2 by ``first_difference`` along each axis;
    exact on quadratics, so resolution independent for quadratic fields."""
    total = np.zeros(grid.shape)
    for a, h in enumerate(grid.spacing):
        d = first_difference(u, a, h)
        total += d * d
    return float(total.max())


def face_tangential_trace_min(u: np.ndarray, grid: BoxGrid, chi: np.ndarray) -> float:
    """Minimum over face nodes of the complex-tangential trace of g.

    For a face perpendicular to a real axis of the complex direction j, the
    tangential block of g omits direction j; its trace needs only diagonal
    Hessian entries in the remaining directions, whose stencils stay on the
    face, so this is computable from boundary data alone.  Face nodes with a
    tangential index on an edge are skipped.
    """
    n = grid.n
    best = np.inf
    chi = np.asarray(chi, dtype=np.complex128)
    for axis in range(grid.ndim_real):
        jn = axis // 2
        tang_dirs = [j for j in range(n) if j != jn]
        chi_trace = float(sum(chi[j, j].real for j in tang_dirs))
        for side in (0, grid.resolution - 1):
            sl = [slice(None)] * grid.ndim_real
            sl[axis] = side
            face = u[tuple(sl)]
            mid = face[interior_slices(face.ndim, {})]
            trace = np.full(mid.shape, chi_trace)
            for j in tang_dirs:
                for a in (2 * j, 2 * j + 1):
                    f = a - (a > axis)  # a's axis on the face
                    up, dn = (face[interior_slices(face.ndim, {f: s})] for s in (1, -1))
                    trace += (up - 2.0 * mid + dn) / (grid.spacing[a] * grid.spacing[a]) / 4.0
            best = min(best, float(trace.min()))
    return best
