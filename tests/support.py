"""Test-only analytic families, grid helpers and oracles shared by the test modules."""

from __future__ import annotations

import functools
import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from garding.analytic import Polynomial, RadialProfile
from garding.grid import complex_hessian_field
from garding.hermitian import ambient_transport_batch, complex_hessian_from
from garding.operator import ftilde_grad_batch, margins_batch
from garding.specfile import FORMAT_VERSION, FunctionSpec, SpecDocument

CLUSTER_GAP_RTOL = 1e-8  # eigenvalue-cluster threshold for derivative averaging


@functools.cache
def bench_checker():
    """``bench/checker.py``, the benchmark's independent reader and checker
    of solve outputs, loaded once."""
    path = Path(__file__).resolve().parent.parent / "bench" / "checker.py"
    spec = importlib.util.spec_from_file_location("bench_checker", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def re_z1_squared(n: int) -> Polynomial:
    """Re(z_1^2) = x_1^2 - y_1^2, a pluriharmonic quadratic."""
    e_x = [0] * (2 * n)
    e_x[0] = 2
    e_y = [0] * (2 * n)
    e_y[1] = 2
    return Polynomial(2 * n, {tuple(e_x): 1.0, tuple(e_y): -1.0})


def poly_add(a: Polynomial, b: Polynomial) -> Polynomial:
    """The sum a + b, term by term in the order of a's terms, then b's new ones."""
    out = dict(a.terms)
    for expo, c in b.terms.items():
        out[expo] = out.get(expo, 0.0) + c
    return Polynomial(a.nvars, out)


def poly_mul(a: Polynomial, b: Polynomial) -> Polynomial:
    """The product a b."""
    out: dict = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return Polynomial(a.nvars, out)


def poly_scale(scalar: float, a: Polynomial) -> Polynomial:
    """The scalar multiple scalar a."""
    return Polynomial(a.nvars, {e: c * float(scalar) for e, c in a.terms.items()})


def stack_coords(coords) -> np.ndarray:
    """Per-axis coordinates (``BoxGrid.coords``) stacked into point rows,
    shape (*broadcast shape, 2n)."""
    return np.stack(np.broadcast_arrays(*coords), axis=-1)


@dataclass(frozen=True)
class RadialOnBox:
    """A radial profile evaluated as a function on C^n coordinates."""

    profile: RadialProfile
    n: int

    def value(self, coords) -> np.ndarray:
        s = np.sum(stack_coords(coords) ** 2, axis=-1)
        return self.profile.value(s)

    def complex_hessian(self, coords) -> np.ndarray:
        # d_j d_kbar u(|z|^2) = u' delta_jk + u'' zbar_j z_k, entry [k, j]
        pts = stack_coords(coords)
        s = np.sum(pts**2, axis=-1)
        z = pts[..., 0::2] + 1j * pts[..., 1::2]
        u1 = self.profile.d1(s)
        u2 = self.profile.d2(s)
        eye = np.eye(self.n, dtype=np.complex128)
        outer = np.einsum("...j,...k->...kj", z.conj(), z)
        return u1[..., None, None] * eye + u2[..., None, None] * outer


@dataclass(frozen=True)
class StackedPolynomial:
    """A Polynomial evaluated term by term on stacked point rows at the full
    shape of its coordinates, as the build did before it read per-axis
    coordinates: a bitwise oracle for the broadcast build."""

    poly: Polynomial

    def value(self, coords) -> np.ndarray:
        return _stacked_value(self.poly, stack_coords(coords))

    def complex_hessian(self, coords) -> np.ndarray:
        pts = stack_coords(coords)
        return complex_hessian_from(
            lambda a, b: _stacked_value(self.poly.derivative(a).derivative(b), pts),
            self.poly.nvars // 2, pts.shape[:-1])


def _stacked_value(poly: Polynomial, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[:-1])
    for expo, c in poly.terms.items():
        term = np.full(pts.shape[:-1], c)
        for a, e in enumerate(expo):
            if e:
                term = term * pts[..., a] ** e
        out += term
    return out


def plane_backed(a: np.ndarray) -> bool:
    """True when each (k, j) entry of the (..., n, n) array ``a`` is one
    contiguous plane: ``a`` is the moved view of a C-ordered (n, n, ...) array."""
    return np.moveaxis(a, (-2, -1), (0, 1)).flags.c_contiguous


def node_coords(grid, node) -> np.ndarray:
    """Real coordinates of a grid node."""
    return np.array([grid.axis_coords(a)[i] for a, i in enumerate(node)], dtype=np.float64)


def interior(values: np.ndarray) -> np.ndarray:
    """The interior block of a full-grid box array."""
    return values[(slice(1, -1),) * values.ndim]


def hermitian_defect(field: np.ndarray) -> float:
    """Largest entry of |H - H*| over a stack of matrices."""
    return float(np.abs(field - np.swapaxes(field, -1, -2).conj()).max())


def constant_coefficient_field(grid, matrix: np.ndarray) -> np.ndarray:
    """One Hermitian matrix at every interior node."""
    return np.broadcast_to(
        np.asarray(matrix, dtype=np.complex128), grid.interior_shape + matrix.shape
    ).copy()


def hessian_operator_apply(coeffs: np.ndarray, u: np.ndarray, grid) -> np.ndarray:
    """tr(C @ complex_hessian(u)) at interior nodes, through the full complex
    Hessian; an oracle for the stencil-weight operator."""
    out = np.einsum("...kj,...jk->...", coeffs, complex_hessian_field(u, grid))
    assert np.abs(out.imag).max(initial=0.0) <= 1e-12 * max(np.abs(out.real).max(), 1.0)
    return out.real


def padded_stencil_apply(op, values: np.ndarray) -> np.ndarray:
    """``op`` at the interior nodes of a full-grid array, read through views
    of it shifted along each axis: the stencil kernel as it was before it
    moved to flat strides, kept as a bitwise oracle.  It performs the same
    floating-point operations in the same order as ``StencilOperator``."""
    ndim = op.grid.ndim_real

    def moved(steps, axes=range(ndim)):
        # the interior along ``axes``, moved by {axis: +-1}, and the whole
        # range along the other axes
        return tuple(slice(1 + steps.get(a, 0), steps.get(a, 0) - 1 or None)
                     if a in axes else slice(None) for a in range(ndim))

    out = op.center * values[moved({})]
    for a, w in enumerate(op.axis):
        buf = values[moved({a: 1})] + values[moved({a: -1})]
        buf *= w
        out += buf
    # the pairs (a, b) sharing b share one difference along b, taken over
    # the interior of the other axes and the whole range of each paired a
    groups: dict = {}  # {b: {a: weight}}
    for (a, b), w in op.cross.items():
        groups.setdefault(b, {})[a] = w
    for b, whole in groups.items():
        rest = [a for a in range(ndim) if a not in whole]
        d = values[moved({b: 1}, rest)] - values[moved({b: -1}, rest)]
        for a, w in whole.items():
            buf = d[moved({a: 1}, whole)] - d[moved({a: -1}, whole)]
            buf *= w
            out += buf
    return out


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


def arrow_form_value(g: np.ndarray, atol: float = 1e-12):
    """Expand the (n-1)-subset product of an (n, n) arrow-form Hermitian matrix.

    For g with diagonal leading (n-1) x (n-1) block the product form
    factorizes as

        lhs  = prod_i (tr g - g_ii)
        corr = sum_{i<n} |g_{n i}|^2 * prod_{b != i, b < n} (tr g - g_bb)

    and lhs - corr equals prod_i (tr g - lam_i(g)), the (n-1)-exponent
    operator value.  Raises ValueError when an off-diagonal entry of the
    leading block exceeds ``atol``.
    """
    a = np.asarray(g)
    n = a.shape[0]
    lead = a[: n - 1, : n - 1]
    off = lead - np.diag(np.diag(lead))
    worst = np.abs(off).max() if n > 2 else 0.0
    if n > 2 and worst > atol:
        raise ValueError(f"not an arrow form: leading-block off-diagonal entry "
                         f"{worst:.3e} > {atol:.1e}")
    tr = np.trace(a).real
    diag = np.diag(a).real
    factors = tr - diag
    lhs = float(np.prod(factors))
    correction = 0.0
    for i in range(n - 1):
        others = [b for b in range(n - 1) if b != i]
        correction += abs(a[n - 1, i]) ** 2 * float(np.prod(factors[others]))
    return lhs, float(correction)


def second_difference(values: np.ndarray, axis_a: int, axis_b: int, spacing) -> np.ndarray:
    """Discrete d^2/(dt_a dt_b) over the interior block of a full-grid array,
    from shifted strided views: the grid's second differences as they were
    taken before the difference stack, kept as an oracle."""
    def at(steps):
        return values[tuple(slice(1 + steps.get(a, 0), steps.get(a, 0) - 1 or None)
                            for a in range(values.ndim))]

    ha, hb = spacing[axis_a], spacing[axis_b]
    if axis_a == axis_b:
        return (at({axis_a: 1}) - 2.0 * at({}) + at({axis_a: -1})) / (ha * ha)
    return (at({axis_a: 1, axis_b: 1}) - at({axis_a: 1, axis_b: -1})
            - at({axis_a: -1, axis_b: 1}) + at({axis_a: -1, axis_b: -1})) / (4.0 * ha * hb)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _emit_function(name: str, spec: FunctionSpec, out: list) -> None:
    out.append(f"[{name}]")
    out.append(f"builtin = {spec.builtin}")
    for key, value in spec.params:
        if key == "terms":
            out.append(f"terms = {len(value)}")
            for i, row in enumerate(value, start=1):
                out.append(f"term_{i} = {_format_value(row)}")
        else:
            out.append(f"{key} = {_format_value(value)}")
    out.append("")


def emit_document(doc: SpecDocument) -> str:
    """The canonical spec text of a parsed document: an oracle for the
    parser, which reads it back as an equal document."""
    out = [f"format_version = {FORMAT_VERSION}", ""]
    out.append("[problem]")
    out.append(f"n = {doc.n}")
    out.append(f"p = {doc.p}")
    out.append(f"geometry = {doc.geometry}")
    if doc.label:
        out.append(f"label = {doc.label}")
    out.append("")
    if doc.geometry == "box":
        out.append("[box]")
        flat = tuple(x for pair in doc.grid.extent for x in pair)
        out.append(f"extent = {_format_value(flat)}")
        out.append(f"resolution = {doc.grid.resolution}")
        out.append("")
        if doc.chi_diag is not None:
            out.append("[chi]")
            out.append(f"diag = {_format_value(doc.chi_diag)}")
            out.append("")
    else:
        out.append("[radial]")
        out.append(f"radius = {_format_value(doc.grid.radius)}")
        out.append(f"points = {doc.grid.points}")
        out.append(f"chi = {_format_value(doc.chi_scalar)}")
        out.append("")
    _emit_function("solution", doc.solution, out)
    if doc.subsolution is not None:
        _emit_function("subsolution", doc.subsolution, out)
    if doc.psi_scale != 1.0 or doc.psi_bump_node is not None:
        out.append("[psi]")
        if doc.psi_scale != 1.0:
            out.append(f"scale = {_format_value(doc.psi_scale)}")
        if doc.psi_bump_node is not None:
            out.append(f"bump_node = {_format_value(doc.psi_bump_node)}")
            out.append(f"bump_factor = {_format_value(doc.psi_bump_factor)}")
        out.append("")
    if doc.init is not None:
        _emit_function("init", doc.init, out)
    if doc.newton_tol is not None:
        out.append("[solve]")
        out.append(f"newton_tol = {_format_value(doc.newton_tol)}")
        out.append("")
    if doc.sweep:
        out.append("[sweep]")
        key = "resolutions" if doc.geometry == "box" else "points"
        out.append(f"{key} = {_format_value(tuple(g.shape[0] for g in doc.sweep))}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"
