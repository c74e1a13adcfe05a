"""Problem-spec file format: parsing, validation, canonical emission.

Plain UTF-8 ``key = value`` lines grouped under ``[section]`` headers;
``#`` starts a comment; arrays are comma-separated numbers.  The format is
versioned by a top-level ``format_version = 1`` key.  No expression
language: analytic data comes from named built-in families.

Sections
--------
[problem]       n, p (at most MAX_SUBSETS p-subsets), geometry (box | radial),
                optional label
[box]           extent (2n lo, hi pairs flattened), resolution (odd, >= 9;
                resolution^2n at most MAX_NODES)
[radial]        radius, points (within MAX_NODES and MAX_RADIAL_ENTRIES),
                chi (scalar c for chi = c * identity)
[chi]           box only: diag = comma-separated reals (constant diagonal)
[solution]      analytic target: builtin = quadratic | polynomial |
                radial-power | radial-poly, plus family parameters; also
                provides the boundary data and the default subsolution
[subsolution]   optional distinct subsolution, same format as [solution]
[psi]           optional modifiers: scale, bump_node, bump_factor
[init]          optional initializer override for solve mode
[solve]         optional numeric overrides (newton_tol, ...)
[sweep]         refine-sweep levels: resolutions = ... (box) or
                points = ... (radial), each within the bounds above

Families: ``quadratic`` (coeff c: c |z|^2 on boxes, profile c s radially),
``polynomial`` (terms = k, then term_1..term_k = coeff, e_1..e_2n),
``radial-power`` (power k, scale a: a s^k / k), ``radial-poly``
(coeffs = c_0, c_1, ...: sum c_j s^j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import Polynomial, RadialProfile, norm_squared, radial_power
from .errors import ParseError, ValidationError
from .grid import BoxGrid
from .operator import MAX_NODES, MAX_RADIAL_ENTRIES, MAX_SUBSETS, OperatorParams
from .problems import ProblemSpec, manufactured_box, manufactured_radial
from .radial import RadialGrid

FORMAT_VERSION = 1


@dataclass(frozen=True)
class FunctionSpec:
    """A named built-in analytic family with its parameters."""

    builtin: str
    params: tuple  # sorted (key, value) pairs; values are floats or tuples

    def get(self, key, default=None):
        for k, v in self.params:
            if k == key:
                return v
        return default


@dataclass(frozen=True)
class SpecDocument:
    format_version: int
    n: int
    p: int
    geometry: str
    label: str = ""
    box_extent: tuple | None = None
    box_resolution: int | None = None
    radius: float | None = None
    points: int | None = None
    chi_scalar: float | None = None
    chi_diag: tuple | None = None
    solution: FunctionSpec | None = None
    subsolution: FunctionSpec | None = None
    psi_scale: float = 1.0
    psi_bump_node: tuple | None = None
    psi_bump_factor: float = 1.0
    init: FunctionSpec | None = None
    solve_overrides: tuple = ()
    sweep: tuple | None = None


def _parse_number(token: str, line: int) -> float:
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {token!r}", line)
    return value


def _parse_setting(token: str, line: int):
    """A [solve] value: true, false or a finite number."""
    word = token.strip().lower()
    if word in ("true", "false"):
        return word == "true"
    return _parse_number(token, line)


def _check_grid(field: str, level: int, n: int, subsets: int, box: bool) -> None:
    """Reject a grid past MAX_NODES or MAX_RADIAL_ENTRIES, before it is built."""
    dims = 2 * n if box else 1
    nodes = 1
    for _ in range(dims):  # stops at the first partial product past the cap
        nodes *= level
        if nodes > MAX_NODES:
            count = f"{level}^{dims}" if dims > 1 else str(level)
            raise ValidationError(field, f"{count} grid nodes exceed the limit of {MAX_NODES}")
    if not box and (level + n) * (n + subsets) > MAX_RADIAL_ENTRIES:
        raise ValidationError(field, f"({level} + {n}) x ({n} + {subsets}) radial entries "
                                     f"exceed the limit of {MAX_RADIAL_ENTRIES}")


def _tokenize(text: str):
    """Yield (line_number, section, key, raw_value) tuples."""
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                raise ParseError(f"malformed section header {raw.strip()!r}", lineno)
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if not key:
            raise ParseError("empty key", lineno)
        yield lineno, section, key, value.strip()


_KNOWN_SECTIONS = {
    "", "problem", "box", "radial", "chi", "solution", "subsolution",
    "psi", "init", "solve", "sweep",
}
_FUNCTION_SECTIONS = ("solution", "subsolution", "init")


def parse_document(text: str) -> SpecDocument:
    data: dict = {s: {} for s in _KNOWN_SECTIONS}
    lines: dict = {}
    for lineno, section, key, value in _tokenize(text):
        if section not in _KNOWN_SECTIONS:
            raise ParseError(f"unknown section [{section}]", lineno)
        if key in data[section]:
            raise ParseError(f"duplicate key {key!r} in [{section}]", lineno)
        data[section][key] = value
        lines[(section, key)] = lineno

    def number(section, key, default=None, required=False):
        if key not in data[section]:
            if required:
                raise ValidationError(key, f"missing from [{section}]")
            return default
        return _parse_number(data[section][key], lines[(section, key)])

    def integer(section, key, least, field=None, value=None):
        """A whole-number ``value`` (default: the required key's) of at least ``least``."""
        if value is None:
            value = number(section, key, required=True)
        if value != int(value) or value < least:
            raise ValidationError(field or key, f"{key} must be an integer >= {least}, got {value}")
        return int(value)

    def array(section, key, default=None):
        if key not in data[section]:
            return default
        lineno = lines[(section, key)]
        return tuple(
            _parse_number(t, lineno) for t in data[section][key].split(",") if t.strip()
        )

    version = integer("", "format_version", 1)
    if version != FORMAT_VERSION:
        raise ValidationError("format_version", f"unsupported version {version}")

    n = integer("problem", "n", 1)
    p = integer("problem", "p", 1)
    if p > n:
        raise ValidationError("p", f"p must satisfy 1 <= p <= n, got p={p}, n={n}")
    subsets = math.comb(n, p)
    if subsets > MAX_SUBSETS:
        raise ValidationError(
            "p", f"C({n}, {p}) = {subsets} subsets exceed the limit of {MAX_SUBSETS}"
        )
    geometry = data["problem"].get("geometry", "box").lower()
    if geometry not in ("box", "radial"):
        raise ValidationError("geometry", f"unknown geometry {geometry!r}")
    label = data["problem"].get("label", "")

    box_extent = box_resolution = None
    radius = points = chi_scalar = None
    chi_diag = None
    if geometry == "box":
        flat = array("box", "extent")
        if flat is None:
            raise ValidationError("extent", "missing from [box]")
        if len(flat) != 4 * n:
            raise ValidationError(
                "extent", f"expected {4 * n} numbers (lo, hi per real axis), got {len(flat)}"
            )
        box_extent = tuple(
            (float(flat[2 * i]), float(flat[2 * i + 1])) for i in range(2 * n)
        )
        box_resolution = integer("box", "resolution", 9)
        if box_resolution % 2 == 0:
            raise ValidationError(
                "resolution", f"resolution must be odd and >= 9, got {box_resolution}"
            )
        _check_grid("resolution", box_resolution, n, subsets, box=True)
        diag = array("chi", "diag")
        if diag is not None:
            if len(diag) != n:
                raise ValidationError("chi", f"diag needs {n} entries, got {len(diag)}")
            chi_diag = tuple(float(x) for x in diag)
    else:
        radius = number("radial", "radius", required=True)
        points = integer("radial", "points", 1)
        _check_grid("points", points, n, subsets, box=False)
        chi_scalar = number("radial", "chi", default=0.0)

    def function_spec(section) -> FunctionSpec | None:
        src = data[section]
        if not src:
            return None
        builtin = src.get("builtin")
        if builtin is None:
            raise ValidationError(section, "missing builtin name")
        builtin = builtin.lower()
        params = []
        if builtin == "quadratic":
            params.append(("coeff", number(section, "coeff", default=1.0)))
        elif builtin == "radial-power":
            params.append(("power", float(integer(section, "power", 1, section))))
            params.append(("scale", number(section, "scale", default=1.0)))
        elif builtin == "radial-poly":
            coeffs = array(section, "coeffs")
            if not coeffs:
                raise ValidationError(section, "radial-poly needs coeffs")
            params.append(("coeffs", tuple(float(c) for c in coeffs)))
        elif builtin == "polynomial":
            terms = []
            for i in range(1, integer(section, "terms", 1, section) + 1):
                row = array(section, f"term_{i}")
                if row is None:
                    raise ValidationError(section, f"missing term_{i}")
                if len(row) != 2 * n + 1:
                    raise ValidationError(
                        section, f"term_{i} needs 1 + {2 * n} numbers, got {len(row)}"
                    )
                terms.append(tuple(float(x) for x in row))
            params.append(("terms", tuple(terms)))
        else:
            raise ValidationError(section, f"unknown builtin {builtin!r}")
        return FunctionSpec(builtin=builtin, params=tuple(params))

    solution = function_spec("solution")
    if solution is None:
        raise ValidationError("solution", "a [solution] section is required")
    subsolution = function_spec("subsolution")
    init = function_spec("init")

    sweep = None
    sweep_key = "resolutions" if geometry == "box" else "points"
    levels = array("sweep", sweep_key)
    if levels is not None:
        sweep = tuple(integer("sweep", sweep_key, 1, "sweep", x) for x in levels)
        for level in sweep:
            _check_grid("sweep", level, n, subsets, box=geometry == "box")
        if len(sweep) < 2:
            raise ValidationError("sweep", "need at least two levels")

    psi_scale = number("psi", "scale", default=1.0)
    if psi_scale <= 0.0:
        raise ValidationError("psi", f"scale must be positive, got {psi_scale}")
    bump = array("psi", "bump_node")
    psi_bump_node = None
    if bump is not None:
        # interior nodes: 1..res-2 per box axis, collocation nodes 0..points-2,
        # on the coarsest grid the document describes
        expected, lo = (2 * n, 1) if geometry == "box" else (1, 0)
        hi = min((box_resolution or points, *(sweep or ()))) - 2
        if len(bump) != expected:
            raise ValidationError("psi", f"bump_node needs {expected} indices")
        if not all(b == int(b) and lo <= b <= hi for b in bump):
            raise ValidationError(
                "psi", f"bump_node indices must be integers in [{lo}, {hi}], got {bump}"
            )
        psi_bump_node = tuple(int(b) for b in bump)
    psi_bump_factor = number("psi", "bump_factor", default=1.0)
    if psi_bump_factor <= 0.0:
        raise ValidationError("psi", f"bump_factor must be positive, got {psi_bump_factor}")

    overrides = []
    for key in sorted(data["solve"]):
        overrides.append((key, _parse_setting(data["solve"][key], lines[("solve", key)])))

    return SpecDocument(
        format_version=FORMAT_VERSION,
        n=n,
        p=p,
        geometry=geometry,
        label=label,
        box_extent=box_extent,
        box_resolution=box_resolution,
        radius=radius,
        points=points,
        chi_scalar=chi_scalar,
        chi_diag=chi_diag,
        solution=solution,
        subsolution=subsolution,
        psi_scale=psi_scale,
        psi_bump_node=psi_bump_node,
        psi_bump_factor=psi_bump_factor,
        init=init,
        solve_overrides=tuple(overrides),
        sweep=sweep,
    )


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
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
    out = [f"format_version = {doc.format_version}", ""]
    out.append("[problem]")
    out.append(f"n = {doc.n}")
    out.append(f"p = {doc.p}")
    out.append(f"geometry = {doc.geometry}")
    if doc.label:
        out.append(f"label = {doc.label}")
    out.append("")
    if doc.geometry == "box":
        out.append("[box]")
        flat = tuple(x for pair in doc.box_extent for x in pair)
        out.append(f"extent = {_format_value(flat)}")
        out.append(f"resolution = {doc.box_resolution}")
        out.append("")
        if doc.chi_diag is not None:
            out.append("[chi]")
            out.append(f"diag = {_format_value(doc.chi_diag)}")
            out.append("")
    else:
        out.append("[radial]")
        out.append(f"radius = {_format_value(doc.radius)}")
        out.append(f"points = {doc.points}")
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
    if doc.solve_overrides:
        out.append("[solve]")
        for key, value in doc.solve_overrides:
            out.append(f"{key} = {_format_value(value)}")
        out.append("")
    if doc.sweep is not None:
        out.append("[sweep]")
        key = "resolutions" if doc.geometry == "box" else "points"
        out.append(f"{key} = {_format_value(doc.sweep)}")
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def _box_function(spec: FunctionSpec, n: int):
    if spec.builtin == "quadratic":
        return norm_squared(n, float(spec.get("coeff", 1.0)))
    if spec.builtin == "polynomial":
        poly = Polynomial(2 * n, {})
        for row in spec.get("terms"):
            coeff, *expo = row
            poly = poly + Polynomial(2 * n, {tuple(int(e) for e in expo): float(coeff)})
        return poly
    raise ValidationError("builtin", f"{spec.builtin!r} is not a box-domain family")


def _radial_function(spec: FunctionSpec):
    if spec.builtin == "quadratic":
        return RadialProfile((0.0, float(spec.get("coeff", 1.0))))
    if spec.builtin == "radial-power":
        return radial_power(int(spec.get("power")), float(spec.get("scale", 1.0)))
    if spec.builtin == "radial-poly":
        return RadialProfile(tuple(spec.get("coeffs")))
    raise ValidationError("builtin", f"{spec.builtin!r} is not a radial family")


def build_problem(doc: SpecDocument) -> ProblemSpec:
    """Materialize the problem a document describes."""
    params = OperatorParams(doc.n, doc.p)
    if doc.geometry == "box":
        grid = BoxGrid(doc.n, doc.box_extent, doc.box_resolution)
        chi = np.zeros((doc.n, doc.n), dtype=np.complex128)
        if doc.chi_diag is not None:
            chi = np.diag(np.asarray(doc.chi_diag, dtype=np.complex128))
        target = _box_function(doc.solution, doc.n)
        sub = None if doc.subsolution is None else _box_function(doc.subsolution, doc.n)
        problem = manufactured_box(
            target, chi, params, grid,
            subsolution=sub,
            psi_scale=doc.psi_scale,
            psi_bump_node=doc.psi_bump_node,
            psi_bump_factor=doc.psi_bump_factor,
        )
    else:
        grid = RadialGrid(doc.radius, doc.points)
        target = _radial_function(doc.solution)
        sub = None if doc.subsolution is None else _radial_function(doc.subsolution)
        problem = manufactured_radial(
            target, doc.chi_scalar, params, grid,
            subsolution_profile=sub,
            psi_scale=doc.psi_scale,
            psi_bump_node=None if doc.psi_bump_node is None else doc.psi_bump_node[0],
            psi_bump_factor=doc.psi_bump_factor,
        )
    problem.document = doc
    return problem


def initial_values_from(doc: SpecDocument, problem: ProblemSpec):
    """Evaluate the [init] override on the problem's grid, if present."""
    if doc.init is None:
        return None
    if problem.geometry == "box":
        fn = _box_function(doc.init, doc.n)
        return fn.value(problem.box.grid.points())
    fn = _radial_function(doc.init)
    return fn.value(problem.radial.grid.s)


def parse_spec(text: str) -> ProblemSpec:
    """Parse spec text into a fully validated, materialized problem."""
    return build_problem(parse_document(text))
