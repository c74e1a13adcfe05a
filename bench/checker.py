"""Checks of garding's solve outputs, made without any of garding's numerics.

The checker reads a box spec, ``fields.csv`` and ``report.txt`` and
recomputes what the solution must satisfy from scratch:

* the complex Hessian of ``u`` from the CSV, with its own copy of the
  method's stencil (central second differences on the diagonal, 4-point
  cross stencils for mixed terms);
* the exact complex Hessian of the spec's polynomial target, from which the
  normalized right-hand side ``psi~ = (scale * M_p(chi + i dd u*))^(1/C(n,p))``
  follows;
* the p-subset-sum product ``M_p`` over ``itertools.combinations``.

It then requires the normalized residual to be within the Newton tolerance,
the CSV's ``cone_margin`` and ``ftilde_residual`` columns to agree with the
recomputation, every margin to be positive, the Dirichlet data to be kept,
and the report to give an exact homotopy anchor and a clean sandwich.  The
only library code used is NumPy (array arithmetic, ``eigvalsh`` and the CSV
reader).
"""

from __future__ import annotations

import io
import itertools
from dataclasses import dataclass
from math import comb
from pathlib import Path

import numpy as np

# garding's documented default Newton tolerance for box problems; a spec's
# [solve] newton_tol overrides it
DEFAULT_BOX_NEWTON_TOL = 1e-8
# recomputed and written values differ only by rounding: the operations are
# the same up to order, on numbers of size O(1) to O(1/h^2)
AGREE_ATOL = 1e-12
# the error against the target must fall by (h_coarse / h_fine)^2 within this
# share, as it does for a second-order scheme
ORDER_RTOL = 0.10


class CheckFailed(Exception):
    """An output does not have a property the method guarantees."""


@dataclass(frozen=True)
class BoxSpec:
    n: int
    p: int
    extent: tuple  # 2n (lo, hi) pairs
    resolution: int
    terms: tuple  # (coeff, exponent tuple over the 2n real axes)
    chi_diag: tuple
    psi_scale: float
    newton_tol: float

    def axis(self, a: int) -> np.ndarray:
        lo, hi = self.extent[a]
        return lo + (hi - lo) * np.arange(self.resolution) / (self.resolution - 1)

    @property
    def spacing(self) -> tuple:
        return tuple((hi - lo) / (self.resolution - 1) for lo, hi in self.extent)


def _sections(text: str) -> dict:
    out: dict = {"": {}}
    section = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            out.setdefault(section, {})
            continue
        key, value = line.split("=", 1)
        out.setdefault(section, {})[key.strip().lower()] = value.strip()
    return out


def _numbers(value: str) -> tuple:
    return tuple(float(t) for t in value.split(",") if t.strip())


def read_spec(path: Path) -> BoxSpec:
    """The box-and-polynomial subset of the spec format that the workloads use."""
    data = _sections(Path(path).read_text())
    allowed = {"", "problem", "box", "chi", "solution", "psi", "solve"}
    extra = set(data) - allowed
    if extra:
        raise ValueError(f"checker does not model sections {sorted(extra)}")
    problem, box, solution = data["problem"], data["box"], data["solution"]
    if problem.get("geometry", "box") != "box" or solution.get("builtin") != "polynomial":
        raise ValueError("checker models box geometry with a polynomial target only")
    if set(data.get("psi", {})) - {"scale"}:
        raise ValueError("checker models [psi] scale only")
    n, p = int(problem["n"]), int(problem["p"])
    flat = _numbers(box["extent"])
    terms = []
    for i in range(1, int(solution["terms"]) + 1):
        coeff, *expo = _numbers(solution[f"term_{i}"])
        terms.append((coeff, tuple(int(e) for e in expo)))
    chi = data.get("chi", {}).get("diag")
    return BoxSpec(
        n=n,
        p=p,
        extent=tuple((flat[2 * a], flat[2 * a + 1]) for a in range(2 * n)),
        resolution=int(box["resolution"]),
        terms=tuple(terms),
        chi_diag=_numbers(chi) if chi else (0.0,) * n,
        psi_scale=float(data.get("psi", {}).get("scale", 1.0)),
        newton_tol=float(data.get("solve", {}).get("newton_tol", DEFAULT_BOX_NEWTON_TOL)),
    )


def poly_value(terms, pts: np.ndarray) -> np.ndarray:
    out = np.zeros(pts.shape[:-1])
    for coeff, expo in terms:
        out += coeff * np.prod([pts[..., a] ** e for a, e in enumerate(expo)], axis=0)
    return out


def poly_d2(terms, a: int, b: int, pts: np.ndarray) -> np.ndarray:
    """Exact d^2/(dt_a dt_b) of the polynomial."""
    out = np.zeros(pts.shape[:-1])
    for coeff, expo in terms:
        e = list(expo)
        for axis in (a, b):
            coeff *= e[axis]
            e[axis] = max(e[axis] - 1, 0)
        if coeff:
            out += coeff * np.prod([pts[..., k] ** ek for k, ek in enumerate(e)], axis=0)
    return out


def stencil_d2(u: np.ndarray, h: tuple, a: int, b: int) -> np.ndarray:
    """Second difference d^2 u/(dt_a dt_b) on the interior nodes of ``u``."""

    def shifted(offsets: dict) -> np.ndarray:
        return u[tuple(slice(1 + offsets.get(k, 0), u.shape[k] - 1 + offsets.get(k, 0))
                       for k in range(u.ndim))]

    if a == b:
        return (shifted({a: 1}) + shifted({a: -1}) - 2.0 * shifted({})) / (h[a] * h[a])
    cross = shifted({a: 1, b: 1}) + shifted({a: -1, b: -1})
    cross = cross - shifted({a: 1, b: -1}) - shifted({a: -1, b: 1})
    return cross / (4.0 * h[a] * h[b])


def complex_hessian(d2, n: int, shape: tuple) -> np.ndarray:
    """Matrices [k, j] = d^2/(dz_j dzbar_k) from real second derivatives d2(a, b).

    With z_j = x_j + i y_j on axes (2j, 2j + 1):
    4 d^2/(dz_j dzbar_k) = u_{x_j x_k} + u_{y_j y_k} + i (u_{x_j y_k} - u_{y_j x_k}).
    """
    out = np.zeros(shape + (n, n), dtype=np.complex128)
    for j in range(n):
        out[..., j, j] = (d2(2 * j, 2 * j) + d2(2 * j + 1, 2 * j + 1)) / 4.0
        for k in range(j + 1, n):
            re = (d2(2 * j, 2 * k) + d2(2 * j + 1, 2 * k + 1)) / 4.0
            im = (d2(2 * j, 2 * k + 1) - d2(2 * j + 1, 2 * k)) / 4.0
            out[..., k, j] = re + 1j * im
            out[..., j, k] = re - 1j * im
    return out


def subset_sums(eigs: np.ndarray, p: int) -> np.ndarray:
    """All p-subset sums of eigenvalue rows, one column per subset."""
    n = eigs.shape[-1]
    return np.stack(
        [sum(eigs[..., i] for i in subset) for subset in itertools.combinations(range(n), p)],
        axis=-1,
    )


def read_fields(path: Path, spec: BoxSpec) -> dict:
    """Grid-shaped arrays of every ``fields.csv`` column (NaN where empty)."""
    n = spec.n
    coords = [f"{c}{j + 1}" for j in range(n) for c in "xy"]
    with open(path, "rb") as fh:
        version = fh.readline().rstrip(b"\r\n").decode()
        header = fh.readline().rstrip(b"\r\n").decode()
        body = fh.read()
    if version != "csv_format_version=1" + "," * (2 * n + 2):
        raise CheckFailed(f"unexpected CSV version line {version!r}")
    names = coords + ["u", "cone_margin", "ftilde_residual"]
    if header.split(",") != names:
        raise CheckFailed(f"unexpected CSV header {header!r}")
    table = np.loadtxt(io.BytesIO(body.replace(b",,\r\n", b",nan,nan\r\n")),
                       delimiter=",", ndmin=2)
    shape = (spec.resolution,) * (2 * n)
    if table.shape != (int(np.prod(shape)), len(names)):
        raise CheckFailed(f"CSV table has shape {table.shape}, grid needs {shape}")
    return {name: table[:, i].reshape(shape) for i, name in enumerate(names)}


def read_report(path: Path) -> dict:
    text = Path(path).read_text()
    if "\n[key_values]\n" not in text:
        raise CheckFailed("report has no [key_values] block")
    block = text.split("\n[key_values]\n", 1)[1]
    return dict(line.split(" = ", 1) for line in block.splitlines() if " = " in line)


def _require(ok, message: str) -> None:
    # written so that NaN fails every check
    if not bool(np.all(ok)):
        raise CheckFailed(message)


def check_solve(spec: BoxSpec, fields: dict, report: dict, seed: int) -> dict:
    """Check one solve's outputs; return the figures the checks measured."""
    n, p = spec.n, spec.p
    ndim = 2 * n
    grids = np.meshgrid(*[spec.axis(a) for a in range(ndim)], indexing="ij")
    pts = np.stack(grids, axis=-1)
    inner = (slice(1, -1),) * ndim
    for a, name in enumerate(c for j in range(n) for c in (f"x{j + 1}", f"y{j + 1}")):
        _require(np.abs(fields[name] - grids[a]) <= AGREE_ATOL,
                 f"CSV column {name} is not the grid coordinate")

    u = fields["u"]
    target = poly_value(spec.terms, pts)
    boundary = np.ones(u.shape, dtype=bool)
    boundary[inner] = False
    _require(np.abs(u - target)[boundary] <= AGREE_ATOL * np.maximum(1.0, np.abs(target[boundary])),
             "u does not keep the Dirichlet data on the boundary")
    for name in ("cone_margin", "ftilde_residual"):
        _require(np.isnan(fields[name][boundary]), f"{name} is set on boundary nodes")
        _require(np.isfinite(fields[name][inner]), f"{name} is missing on interior nodes")

    chi = np.diag(np.asarray(spec.chi_diag, dtype=np.complex128))
    interior_shape = u[inner].shape
    g_exact = chi + complex_hessian(
        lambda a, b: poly_d2(spec.terms, a, b, pts[inner]), n, interior_shape)
    g_u = chi + complex_hessian(
        lambda a, b: stencil_d2(u, spec.spacing, a, b), n, interior_shape)
    count = comb(n, p)
    psi = spec.psi_scale * np.prod(subset_sums(np.linalg.eigvalsh(g_exact), p), axis=-1)
    psi_tilde = psi ** (1.0 / count)
    sums = subset_sums(np.linalg.eigvalsh(g_u), p)
    margins = sums.min(axis=-1)
    _require(margins > 0.0, f"a cone margin is not positive (min {margins.min():.3e})")
    residual = np.prod(sums, axis=-1) ** (1.0 / count) - psi_tilde

    max_residual = float(np.abs(residual).max())
    _require(max_residual <= spec.newton_tol,
             f"normalized residual {max_residual:.3e} above tolerance {spec.newton_tol:.1e}")
    margin_gap = float(np.abs(margins - fields["cone_margin"][inner]).max())
    _require(margin_gap <= AGREE_ATOL * max(1.0, float(np.abs(margins).max())),
             f"cone_margin column differs from the recomputation by {margin_gap:.3e}")
    residual_gap = float(np.abs(residual - fields["ftilde_residual"][inner]).max())
    _require(residual_gap <= AGREE_ATOL,
             f"ftilde_residual column differs from the recomputation by {residual_gap:.3e}")

    max_error = float(np.abs(u - target).max())
    expected = {"n": str(n), "p": str(p), "seed": str(seed), "csv": "fields.csv"}
    for key, value in expected.items():
        _require(report.get(key) == value, f"report gives {key} = {report.get(key)}, not {value}")
    for key in ("anchor_residual", "sandwich_violation"):
        _require(float(report.get(key, "nan")) == 0.0,
                 f"report gives {key} = {report.get(key)}, not 0.0")
    _require(float(report.get("final_residual", "nan")) <= spec.newton_tol,
             f"report gives final_residual = {report.get('final_residual')}")
    reported_error = float(report.get("reference_max_error", "nan"))
    _require(abs(reported_error - max_error) <= AGREE_ATOL,
             f"report gives reference_max_error = {reported_error!r}, CSV gives {max_error!r}")
    return {
        "max_residual": max_residual,
        "min_margin": float(margins.min()),
        "margin_gap": margin_gap,
        "residual_gap": residual_gap,
        "max_error": max_error,
    }


def check_output_dir(spec_path: Path, out_dir: Path, seed: int) -> dict:
    spec = read_spec(spec_path)
    return check_solve(spec, read_fields(out_dir / "fields.csv", spec),
                       read_report(out_dir / "report.txt"), seed)


def check_second_order(coarse: tuple, fine: tuple) -> float:
    """(resolution, max error) at two levels: the error must fall like h^2."""
    (res_c, err_c), (res_f, err_f) = coarse, fine
    expected = ((res_f - 1) / (res_c - 1)) ** 2
    ratio = err_c / err_f
    _require(abs(ratio / expected - 1.0) <= ORDER_RTOL,
             f"error ratio {ratio:.4f} from resolution {res_c} to {res_f}, "
             f"second order needs {expected:.4f}")
    return ratio
