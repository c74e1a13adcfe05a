"""Problem-spec file format: parsing and validation.

Plain UTF-8 ``key = value`` lines grouped under ``[section]`` headers;
``#`` starts a comment; arrays are comma-separated numbers.  The format is
versioned by a top-level ``format_version = 1`` key.  No expression
language: analytic data comes from named built-in families.

``parse_document`` checks every spec value, so every mode rejects the same
specs: it builds the ``BoxGrid`` or ``RadialGrid`` of the domain and of each
``[sweep]`` level, whose constructors own the grid checks, and the builder
of each family, which rejects a family the geometry lacks.  Only the checks
on built arrays (finite, within MAGNITUDE_BOUND) wait for ``build_problem``.

Sections
--------
[problem]       n, p (at most MAX_SUBSETS p-subsets), geometry (box | radial),
                optional label
[box]           extent (2n lo, hi pairs flattened), resolution (odd, >= 9;
                resolution^2n at most MAX_NODES)
[radial]        radius (in (0, 2^500]), points (>= 9, within MAX_NODES and
                MAX_RADIAL_ENTRIES), chi (scalar c for chi = c * identity)
[chi]           box only: diag = comma-separated reals (constant diagonal)
[solution]      analytic target: builtin = quadratic | polynomial |
                radial-power | radial-poly, plus family parameters; also
                provides the boundary data and the default subsolution
[subsolution]   optional distinct subsolution, same format as [solution]
[psi]           optional modifiers: scale, bump_node, bump_factor
[init]          optional start for solve mode; the boundary keeps the target's values
[solve]         optional newton_tol (the only key; finite and positive)
[sweep]         refine-sweep levels: resolutions = ... (box) or
                points = ... (radial), each within the bounds above

Families: ``quadratic`` (coeff c: c |z|^2 on boxes, profile c s radially),
``polynomial`` (terms = k, then term_1..term_k = coeff, e_1..e_2n; e_i in 0, 1, ...;
k times the nodes of the largest grid at most MAX_TERM_NODES),
``radial-power`` (power k <= MAX_POWER, scale a: a s^k / k), ``radial-poly``
(coeffs = c_0, c_1, ...: sum c_j s^j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analytic import Polynomial, RadialProfile, norm_squared, radial_power
from .errors import ParseError, ValidationError
from .grid import BoxGrid
from .operator import MAX_NODES, MAX_RADIAL_ENTRIES, MAX_SUBSETS, OperatorParams
from .problems import ProblemSpec, _finite, manufactured_box, manufactured_radial
from .radial import RadialGrid

FORMAT_VERSION = 1
MAX_POWER = 1024  # a radial-power profile keeps power + 1 dense coefficients
# most polynomial terms x nodes of the domain grid or a [sweep] level: the build
# evaluates each term over the grid, 0.6-4 ms per term at 9^6 nodes (<= 0.5 s here)
MAX_TERM_NODES = 2**26


@dataclass(frozen=True)
class FunctionSpec:
    """A named built-in analytic family with its parameters."""

    builtin: str
    params: tuple  # sorted (key, value) pairs; values are floats or tuples

    def get(self, key):
        return dict(self.params)[key]


@dataclass(frozen=True)
class SpecDocument:
    """A parsed spec: its domain is the grid it was checked as."""

    n: int
    p: int
    geometry: str
    grid: BoxGrid | RadialGrid
    label: str = ""
    chi_scalar: float | None = None
    chi_diag: tuple | None = None
    solution: FunctionSpec | None = None
    subsolution: FunctionSpec | None = None
    psi_scale: float = 1.0
    psi_bump_node: tuple | None = None
    psi_bump_factor: float = 1.0
    init: FunctionSpec | None = None
    newton_tol: float | None = None
    sweep: tuple = ()  # the [sweep] level grids


def _parse_number(token: str, line: int) -> float:
    token = token.strip()
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"expected a number, got {token!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"expected a finite number, got {token!r}", line)
    return value


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
    # not OperatorParams(n, p): it builds the C(n, p) x n membership table before _check_grid
    subsets = math.comb(n, p)
    if subsets > MAX_SUBSETS:
        raise ValidationError(
            "p", f"C({n}, {p}) = {subsets} subsets exceed the limit of {MAX_SUBSETS}"
        )
    geometry = data["problem"].get("geometry", "box").lower()
    if geometry not in ("box", "radial"):
        raise ValidationError("geometry", f"unknown geometry {geometry!r}")
    label = data["problem"].get("label", "")

    box = geometry == "box"

    def grid_size(section, key, field=None, value=None):
        """A whole-number grid size within the node caps; the grid checks the rest."""
        size = integer(section, key, 1, field, value)
        _check_grid(field or key, size, n, subsets, box)
        return size

    chi_scalar = chi_diag = None
    if box:
        flat = array("box", "extent")
        if flat is None:
            raise ValidationError("extent", "missing from [box]")
        if len(flat) != 4 * n:
            raise ValidationError(
                "extent", f"expected {4 * n} numbers (lo, hi per real axis), got {len(flat)}"
            )
        grid = BoxGrid(n, tuple(zip(flat[::2], flat[1::2])), grid_size("box", "resolution"))
        diag = array("chi", "diag")
        if diag is not None:
            if len(diag) != n:
                raise ValidationError("chi", f"diag needs {n} entries, got {len(diag)}")
            chi_diag = diag
    else:
        radius = number("radial", "radius", required=True)
        grid = RadialGrid(radius, grid_size("radial", "points"))
        chi_scalar = number("radial", "chi", default=0.0)

    sweep = ()
    size_key, sweep_key = ("resolution", "resolutions") if box else ("points", "points")
    levels = array("sweep", sweep_key)
    if levels is not None:
        if len(levels) < 2:
            raise ValidationError("sweep", "need at least two levels")
        sweep = tuple(replace(grid, **{size_key: grid_size("sweep", sweep_key, "sweep", x)})
                      for x in levels)

    nodes = max(math.prod(g.shape) for g in (grid, *sweep))

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
            power = integer(section, "power", 1, section)
            if power > MAX_POWER:
                raise ValidationError(section, f"power must be at most {MAX_POWER}, got {power}")
            params.append(("power", float(power)))
            params.append(("scale", number(section, "scale", default=1.0)))
        elif builtin == "radial-poly":
            coeffs = array(section, "coeffs")
            if not coeffs:
                raise ValidationError(section, "radial-poly needs coeffs")
            params.append(("coeffs", coeffs))
        elif builtin == "polynomial":
            count = integer(section, "terms", 1, section)
            if count * nodes > MAX_TERM_NODES:
                raise ValidationError(section, f"{count} terms x {nodes} grid nodes exceed "
                                               f"the limit of {MAX_TERM_NODES}")
            terms = []
            for i in range(1, count + 1):
                row = array(section, f"term_{i}")
                if row is None:
                    raise ValidationError(section, f"missing term_{i}")
                if len(row) != 2 * n + 1 or not all(e == int(e) >= 0 for e in row[1:]):
                    raise ValidationError(section, f"term_{i} needs a coefficient and {2 * n} "
                                                   f"non-negative integer exponents, got {row}")
                terms.append(row)
            params.append(("terms", tuple(terms)))
        else:
            raise ValidationError(section, f"unknown builtin {builtin!r}")
        spec = FunctionSpec(builtin=builtin, params=tuple(params))
        # the builder rejects a family the geometry lacks
        _box_function(spec, n) if box else _radial_function(spec)
        return spec

    solution = function_spec("solution")
    if solution is None:
        raise ValidationError("solution", "a [solution] section is required")
    subsolution = function_spec("subsolution")
    init = function_spec("init")

    psi_scale = number("psi", "scale", default=1.0)
    if psi_scale <= 0.0:
        raise ValidationError("psi", f"scale must be positive, got {psi_scale}")
    bump = array("psi", "bump_node")
    psi_bump_node = None
    if bump is not None:
        # interior nodes: 1..res-2 per box axis, collocation nodes 0..points-2,
        # on the coarsest grid the document describes
        expected, lo = (2 * n, 1) if box else (1, 0)
        hi = min(g.shape[0] for g in (grid, *sweep)) - 2
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

    for key in sorted(data["solve"]):
        if key == "initial_values":
            raise ValidationError("solve", "initial values are set in the [init] section")
        if key != "newton_tol":
            raise ValidationError("solve", f"unknown solver setting {key!r}")
    newton_tol = number("solve", "newton_tol")
    if newton_tol is not None and not newton_tol > 0.0:  # the number is finite
        raise ValidationError("newton_tol", f"tolerance must be finite and positive, got {newton_tol}")

    return SpecDocument(
        n=n,
        p=p,
        geometry=geometry,
        grid=grid,
        label=label,
        chi_scalar=chi_scalar,
        chi_diag=chi_diag,
        solution=solution,
        subsolution=subsolution,
        psi_scale=psi_scale,
        psi_bump_node=psi_bump_node,
        psi_bump_factor=psi_bump_factor,
        init=init,
        newton_tol=newton_tol,
        sweep=sweep,
    )


def _box_function(spec: FunctionSpec, n: int):
    if spec.builtin == "quadratic":
        return norm_squared(n, spec.get("coeff"))
    if spec.builtin == "polynomial":
        # the terms in row order, as adding them one at a time gives: a key
        # whose sum reaches 0.0 is dropped, and a later term puts it last
        terms: dict = {}
        for coeff, *expo in spec.get("terms"):
            key = tuple(int(e) for e in expo)
            terms[key] = terms.get(key, 0.0) + coeff
            if terms[key] == 0.0:
                del terms[key]
        return Polynomial(2 * n, terms)
    raise ValidationError("builtin", f"{spec.builtin!r} is not a box-domain family")


def _radial_function(spec: FunctionSpec):
    if spec.builtin == "quadratic":
        return RadialProfile((0.0, spec.get("coeff")))
    if spec.builtin == "radial-power":
        return radial_power(int(spec.get("power")), spec.get("scale"))
    if spec.builtin == "radial-poly":
        return RadialProfile(spec.get("coeffs"))
    raise ValidationError("builtin", f"{spec.builtin!r} is not a radial family")


def build_problem(doc: SpecDocument) -> ProblemSpec:
    """Materialize the problem a document describes."""
    params = OperatorParams(doc.n, doc.p)
    psi = {"psi_scale": doc.psi_scale, "psi_bump_node": doc.psi_bump_node,
           "psi_bump_factor": doc.psi_bump_factor}
    if doc.geometry == "box":
        chi = np.zeros((doc.n, doc.n), dtype=np.complex128)
        if doc.chi_diag is not None:
            chi = np.diag(np.asarray(doc.chi_diag, dtype=np.complex128))
        target = _box_function(doc.solution, doc.n)
        sub = None if doc.subsolution is None else _box_function(doc.subsolution, doc.n)
        return manufactured_box(target, chi, params, doc.grid, subsolution=sub, **psi)
    target = _radial_function(doc.solution)
    sub = None if doc.subsolution is None else _radial_function(doc.subsolution)
    return manufactured_radial(target, doc.chi_scalar, params, doc.grid,
                               subsolution_profile=sub, **psi)


@np.errstate(over="ignore", invalid="ignore")  # overflow raises ValidationError below
def initial_values_from(doc: SpecDocument, problem: ProblemSpec):
    """Evaluate the [init] override on the problem's grid, if present."""
    if doc.init is None:
        return None
    if problem.geometry == "box":
        values = _box_function(doc.init, doc.n).value(problem.grid.coords())
    else:
        values = _radial_function(doc.init).value(problem.grid.s)
    return _finite("init values", values, bounded=True)


def parse_spec(text: str) -> ProblemSpec:
    """Parse spec text into a fully validated, materialized problem."""
    return build_problem(parse_document(text))
