import math
import re
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garding.specfile as specfile
from garding.errors import NotAdmissible, ParseError, ValidationError
from garding.problems import manufactured_radial
from garding.radial import RadialGrid
from garding.analytic import Polynomial, radial_power
from garding.operator import MAX_NODES, OperatorParams
from garding.specfile import (
    MAX_TERM_NODES,
    SpecDocument,
    _box_function,
    build_problem,
    initial_values_from,
    parse_document,
    parse_spec,
)

from support import emit_document, poly_add, poly_mul, poly_scale, re_z1_squared

MINIMAL_BOX = """
format_version = 1
[problem]
n = 2
p = 1
geometry = box
[box]
extent = -1, 1, -1, 1, -1, 1, -1, 1
resolution = 17
[solution]
builtin = quadratic
coeff = 1.0
"""

RADIAL = """
format_version = 1
[problem]
n = 3
p = 2
geometry = radial
[radial]
radius = 1.0
points = 201
chi = 1.0
[solution]
builtin = radial-power
power = 2
scale = 1.0
"""

POLY_BOX = """
format_version = 1
[problem]
n = 2
p = 1
geometry = box
label = poly-demo
[box]
extent = -1, 1, -1, 1, -1, 1, -1, 1
resolution = 9
[chi]
diag = 0.5, 0.5
[solution]
builtin = polynomial
terms = 4
term_1 = 1, 2, 0, 0, 0
term_2 = 1, 0, 2, 0, 0
term_3 = 1, 0, 0, 2, 0
term_4 = 1, 0, 0, 0, 2
[psi]
scale = 0.9
[solve]
newton_tol = 1e-09
[sweep]
resolutions = 9, 13
"""


class TestParse:
    def test_minimal_box(self):
        problem = parse_spec(MINIMAL_BOX)
        assert problem.geometry == "box"
        assert problem.n == 2 and problem.p == 1
        assert problem.grid.resolution == 17
        # quadratic target: psi = det(identity) = 1 everywhere
        assert np.allclose(problem.psi, 1.0)

    def test_radial_matches_manufactured(self):
        problem = parse_spec(RADIAL)
        ref = manufactured_radial(
            radial_power(2), 1.0, OperatorParams(3, 2), RadialGrid(1.0, 201)
        )
        assert np.allclose(problem.psi, ref.psi)
        assert np.allclose(problem.subsolution, ref.subsolution)
        assert problem.phi[-1] == ref.phi[-1]

    def test_polynomial_with_chi(self):
        problem = parse_spec(POLY_BOX)
        # |z|^2 with chi = diag(0.5, 0.5): psi = det(1.5 I) * 0.9
        assert np.allclose(problem.psi, 1.5 * 1.5 * 0.9)

    def test_p_too_large(self):
        bad = MINIMAL_BOX.replace("p = 1", "p = 4")
        with pytest.raises(ValidationError) as exc_info:
            parse_spec(bad)
        assert exc_info.value.field == "p"

    def test_even_resolution(self):
        bad = MINIMAL_BOX.replace("resolution = 17", "resolution = 16")
        with pytest.raises(ValidationError) as exc_info:
            parse_spec(bad)
        assert exc_info.value.field == "resolution"

    def test_parse_error_carries_line_number(self):
        bad = "format_version = 1\n[problem\nn = 2\n"
        with pytest.raises(ParseError) as exc_info:
            parse_document(bad)
        assert exc_info.value.line == 2

    def test_missing_equals(self):
        bad = "format_version = 1\n[problem]\nnonsense\n"
        with pytest.raises(ParseError) as exc_info:
            parse_document(bad)
        assert exc_info.value.line == 3

    def test_duplicate_key(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL_BOX.replace("coeff = 1.0", "coeff = 1.0\ncoeff = 2.0"))

    def test_unknown_section(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL_BOX + "\n[mystery]\nkey = 1\n")

    def test_wrong_format_version(self):
        with pytest.raises(ValidationError) as exc_info:
            parse_document(MINIMAL_BOX.replace("format_version = 1", "format_version = 2"))
        assert exc_info.value.field == "format_version"

    def test_bad_number(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL_BOX.replace("coeff = 1.0", "coeff = one"))


class TestRoundTrip:
    @pytest.mark.parametrize("text", [MINIMAL_BOX, RADIAL, POLY_BOX])
    def test_parse_emit_parse(self, text):
        doc = parse_document(text)
        emitted = emit_document(doc)
        assert parse_document(emitted) == doc
        # canonical form is a fixed point
        assert emit_document(parse_document(emitted)) == emitted

    def test_round_trip_with_modifiers(self):
        text = RADIAL + "\n[psi]\nbump_node = 77\nbump_factor = 1.1\n[init]\nbuiltin = quadratic\ncoeff = -1\n"
        doc = parse_document(text)
        assert doc.psi_bump_node == (77,)
        assert parse_document(emit_document(doc)) == doc


class TestShippedSpecs:
    SPEC_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "specs"

    def test_box_spec_matches_analytic_target(self):
        from garding.analytic import norm_squared
        from garding.grid import BoxGrid
        from garding.problems import manufactured_box

        problem = parse_spec((self.SPEC_DIR / "box-n2-p1.spec").read_text())
        target = (
            poly_add(poly_add(norm_squared(2),
                              poly_scale(0.1, poly_mul(re_z1_squared(2), norm_squared(2)))),
                     poly_scale(0.05, poly_mul(norm_squared(2), norm_squared(2))))
        )
        grid = BoxGrid(2, ((-1, 1),) * 4, 17)
        ref = manufactured_box(target, np.zeros((2, 2)), OperatorParams(2, 1), grid)
        assert np.allclose(problem.psi, ref.psi, rtol=0, atol=1e-13)
        assert np.allclose(problem.phi, ref.phi, rtol=0, atol=1e-13)

    def test_radial_spec_round_trips(self):
        text = (self.SPEC_DIR / "radial-n3-p2.spec").read_text()
        problem = parse_spec(text)
        assert problem.grid.points == 2001
        assert parse_document(text).newton_tol == 1e-09
        assert parse_document(emit_document(parse_document(text))) == parse_document(text)

    def test_march_spec_has_distinct_subsolution(self):
        text = (self.SPEC_DIR / "radial-n3-p2-march.spec").read_text()
        problem = parse_spec(text)
        doc = parse_document(text)
        assert doc.subsolution.builtin == "radial-poly"
        assert parse_document(emit_document(doc)) == doc
        # subsolution dominates the target: same boundary value, bigger M
        assert problem.subsolution[-1] == pytest.approx(
            problem.phi[-1]
        )
        assert np.all(problem.subsolution_M >= problem.psi - 1e-12)


class TestBuild:
    def test_init_override(self):
        text = MINIMAL_BOX + "\n[init]\nbuiltin = quadratic\ncoeff = -1\n"
        doc = parse_document(text)
        problem = build_problem(doc)
        init = initial_values_from(doc, problem)
        assert init is not None
        assert init.min() < 0

    def test_default_subsolution_reuses_the_target(self, monkeypatch):
        # without [subsolution] the target's arrays serve as the subsolution's,
        # from one eigenvalue pass instead of two
        import garding.problems as problems

        eigvals_batch, product_batch = problems.eigvals_batch, problems.product_batch
        calls, products = [], []
        monkeypatch.setattr(problems, "eigvals_batch", lambda m: calls.append(1) or eigvals_batch(m))
        monkeypatch.setattr(problems, "product_batch",
                            lambda *a: products.append(1) or product_batch(*a))
        default = build_problem(parse_document(POLY_BOX))
        assert len(calls) == 1 and len(products) == 1
        target = POLY_BOX.split("[solution]\n")[1].split("[psi]")[0]
        explicit = build_problem(parse_document(POLY_BOX + "[subsolution]\n" + target))
        assert len(calls) == 3 and len(products) == 3
        for name in ("psi", "phi", "subsolution", "subsolution_M"):
            assert getattr(default, name).tobytes() == getattr(explicit, name).tobytes()

    def test_sweep_levels(self):
        doc = parse_document(POLY_BOX)
        assert [grid.resolution for grid in doc.sweep] == [9, 13]

    def test_solve_overrides_preserved(self):
        doc = parse_document(POLY_BOX)
        assert doc.newton_tol == 1e-09

    def test_the_parser_owns_the_solve_keys(self):
        with pytest.raises(ParseError, match="expected a number"):
            parse_document(MINIMAL_BOX + "[solve]\nnewton_tol = true\n")
        with pytest.raises(ValidationError, match="unknown solver setting 'margin_keep'"):
            parse_document(MINIMAL_BOX + "[solve]\nmargin_keep = 0.1\n")
        with pytest.raises(ValidationError, match=r"\[init\]"):
            parse_document(MINIMAL_BOX + "[solve]\ninitial_values = 1\n")


def test_bump_node_accepts_every_interior_index():
    box = MINIMAL_BOX.replace("resolution = 17", "resolution = 9")
    for node in ((1, 1, 1, 1), (7, 7, 7, 7)):
        doc = parse_document(box + f"[psi]\nbump_node = {', '.join(map(str, node))}\n")
        assert doc.psi_bump_node == node
    for node in (0, 199):
        assert parse_document(RADIAL + f"[psi]\nbump_node = {node}\n").psi_bump_node == (node,)


SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
NUMBER = re.compile(r"(?<![\w.])-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?(?![\w.])", re.IGNORECASE)
TOKENS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "true", "-0", "2.5"]),
    st.integers(-3, 40).map(str),
)


def replace_numbers(text: str, tokens: dict) -> tuple:
    """``text`` with its k-th numeric value token replaced by ``tokens[k]``.

    Returns the new text and the number of numeric tokens in values.
    """
    count = 0

    def swap(match):
        nonlocal count
        count += 1
        return tokens.get(count - 1, match.group(0))

    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and not line.lstrip().startswith("#"):
            line = key + sep + NUMBER.sub(swap, value)
        lines.append(line)
    return "\n".join(lines) + "\n", count


@pytest.mark.parametrize(
    "path", sorted([*SPEC_DIR.glob("*.spec"), *SPEC_DIR.parent.glob("bench/specs/*.spec")]),
    ids=lambda path: path.name,
)
def test_shipped_grids_are_within_the_node_cap(path):
    doc = parse_document(path.read_text())
    assert max(math.prod(grid.shape) for grid in (doc.grid, *doc.sweep)) <= MAX_NODES


def drawn_document(name: str, data):
    """The shipped spec ``name`` with one to three numeric tokens drawn anew,
    parsed; None when the parser rejects it with a spec error."""
    text = (SPEC_DIR / name).read_text()
    slots = replace_numbers(text, {})[1]
    tokens = data.draw(
        st.dictionaries(st.integers(0, slots - 1), TOKENS, min_size=1, max_size=3)
    )
    try:
        return parse_document(replace_numbers(text, tokens)[0])
    except (ParseError, ValidationError):
        return None


@pytest.mark.parametrize("name", sorted(p.name for p in SPEC_DIR.glob("*.spec")))
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_parse_document_raises_only_spec_errors(name, data):
    doc = drawn_document(name, data)
    if doc is None:
        return
    assert isinstance(doc, SpecDocument)
    assert parse_document(emit_document(doc)) == doc


# the fields of spec values; a build that names one has checked a value the
# parser accepted
SPEC_VALUE_FIELDS = {"extent", "resolution", "radius", "points", "builtin", "sweep"}


@pytest.mark.parametrize("name", sorted(p.name for p in SPEC_DIR.glob("*.spec")))
@settings(max_examples=50, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_build_checks_no_spec_value_the_parser_accepted(name, data):
    doc = drawn_document(name, data)
    if doc is None:
        return
    for grid in (doc.grid, *doc.sweep):  # as refine-sweep builds each level
        try:
            build_problem(replace(doc, grid=grid))
        except NotAdmissible:
            pass
        except ValidationError as exc:
            assert exc.field not in SPEC_VALUE_FIELDS, exc


def polynomial_spec(rows) -> str:
    """An n = 2 box spec whose target is the ``polynomial`` of ``rows``."""
    lines = [f"term_{i} = " + ", ".join(map(repr, row)) for i, row in enumerate(rows, 1)]
    return MINIMAL_BOX.split("[solution]")[0] + "\n".join(
        ["[solution]", "builtin = polynomial", f"terms = {len(rows)}", *lines]) + "\n"


# few exponents and coefficients, so that keys repeat and sums cancel
POLYNOMIAL_ROWS = st.lists(
    st.tuples(st.sampled_from([1.0, -1.0, 0.5, -0.5, 0.1, -0.1, 0.3, 0.0, -0.0]),
              *[st.integers(0, 1)] * 4),
    min_size=1, max_size=24)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(rows=POLYNOMIAL_ROWS)
def test_a_polynomial_target_is_the_sum_of_its_terms_in_row_order(rows):
    expected = Polynomial(4, {})
    for coeff, *expo in rows:
        expected = poly_add(expected, Polynomial(4, {tuple(expo): coeff}))
    got = _box_function(parse_document(polynomial_spec(rows)).solution, 2)
    assert [(k, v.hex()) for k, v in got.terms.items()] == \
        [(k, v.hex()) for k, v in expected.terms.items()]


def test_a_long_polynomial_parses_in_linear_time(monkeypatch):
    # adding the terms one at a time took 0.59 s at 800 terms and grew with
    # the square of the count
    rows = [(1.0, i % 10, i // 10 % 10, i // 100 % 10, i // 1000) for i in range(10_000)]
    # 10 000 terms x 9^4 nodes is within MAX_TERM_NODES
    text = polynomial_spec(rows).replace("resolution = 17", "resolution = 9")
    built = []
    monkeypatch.setattr(specfile, "Polynomial",
                        lambda *args: built.append(1) or Polynomial(*args))
    start = time.perf_counter()
    doc = parse_document(text)
    assert time.perf_counter() - start < 1.0
    assert len(built) == 1  # one Polynomial for the one function section
    assert len(_box_function(doc.solution, 2).terms) == 10_000


def test_a_polynomial_is_capped_by_its_terms_times_the_grid_nodes():
    # the build evaluates every term over the grid: 10 000 terms x 17^4 nodes
    # exit 2 at parse, and so do 73 terms x 31^4 on a [sweep] level, not 72
    rows = [(1.0, i % 10, i // 10 % 10, i // 100 % 10, i // 1000) for i in range(10_000)]
    with pytest.raises(ValidationError, match=f"^solution: 10000 terms x 83521 grid nodes "
                                              f"exceed the limit of {MAX_TERM_NODES}$"):
        parse_document(polynomial_spec(rows))
    sweep = "[sweep]\nresolutions = 9, 31\n"
    with pytest.raises(ValidationError, match="^solution: 73 terms x 923521 grid nodes"):
        parse_document(polynomial_spec(rows[:73]) + sweep)
    parse_document(polynomial_spec(rows[:72]) + sweep)
