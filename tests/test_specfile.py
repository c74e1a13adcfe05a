import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garding.errors import ParseError, ValidationError
from garding.problems import manufactured_radial
from garding.radial import RadialGrid
from garding.analytic import radial_power
from garding.operator import MAX_NODES, OperatorParams
from garding.specfile import (
    SpecDocument,
    build_problem,
    emit_document,
    initial_values_from,
    parse_document,
    parse_spec,
)

from support import re_z1_squared

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
        assert problem.box.grid.resolution == 17
        # quadratic target: psi = det(identity) = 1 everywhere
        assert np.allclose(problem.box.psi, 1.0)

    def test_radial_matches_manufactured(self):
        problem = parse_spec(RADIAL)
        ref = manufactured_radial(
            radial_power(2), 1.0, OperatorParams(3, 2), RadialGrid(1.0, 201)
        )
        assert np.allclose(problem.radial.psi, ref.radial.psi)
        assert np.allclose(problem.radial.subsolution, ref.radial.subsolution)
        assert problem.radial.boundary_value == ref.radial.boundary_value

    def test_polynomial_with_chi(self):
        problem = parse_spec(POLY_BOX)
        # |z|^2 with chi = diag(0.5, 0.5): psi = det(1.5 I) * 0.9
        assert np.allclose(problem.box.psi, 1.5 * 1.5 * 0.9)

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
            norm_squared(2)
            + 0.1 * (re_z1_squared(2) * norm_squared(2))
            + 0.05 * (norm_squared(2) * norm_squared(2))
        )
        grid = BoxGrid(2, ((-1, 1),) * 4, 17)
        ref = manufactured_box(target, np.zeros((2, 2)), OperatorParams(2, 1), grid)
        assert np.allclose(problem.box.psi, ref.box.psi, rtol=0, atol=1e-13)
        assert np.allclose(problem.box.phi, ref.box.phi, rtol=0, atol=1e-13)

    def test_radial_spec_round_trips(self):
        text = (self.SPEC_DIR / "radial-n3-p2.spec").read_text()
        problem = parse_spec(text)
        assert problem.radial.grid.points == 2001
        assert problem.document.solve_overrides == (("newton_tol", 1e-09),)
        from garding.specfile import emit_document

        assert parse_document(emit_document(problem.document)) == problem.document

    def test_march_spec_has_distinct_subsolution(self):
        text = (self.SPEC_DIR / "radial-n3-p2-march.spec").read_text()
        problem = parse_spec(text)
        doc = problem.document
        assert doc.subsolution.builtin == "radial-poly"
        assert parse_document(emit_document(doc)) == doc
        # subsolution dominates the target: same boundary value, bigger M
        assert problem.radial.subsolution[-1] == pytest.approx(
            problem.radial.boundary_value
        )
        assert np.all(problem.radial.subsolution_M >= problem.radial.psi - 1e-12)


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

        eigvals_batch = problems.eigvals_batch
        calls = []
        monkeypatch.setattr(problems, "eigvals_batch", lambda m: calls.append(1) or eigvals_batch(m))
        default = build_problem(parse_document(POLY_BOX)).box
        assert len(calls) == 1
        target = POLY_BOX.split("[solution]\n")[1].split("[psi]")[0]
        explicit = build_problem(parse_document(POLY_BOX + "[subsolution]\n" + target)).box
        assert len(calls) == 3
        for name in ("psi", "phi", "subsolution", "subsolution_M", "reference"):
            assert getattr(default, name).tobytes() == getattr(explicit, name).tobytes()

    def test_sweep_levels(self):
        doc = parse_document(POLY_BOX)
        assert doc.sweep == (9, 13)

    def test_solve_overrides_preserved(self):
        doc = parse_document(POLY_BOX)
        assert doc.solve_overrides == (("newton_tol", 1e-09),)


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
    sizes = (doc.points,) if doc.geometry == "radial" else (doc.box_resolution,)
    dims = 1 if doc.geometry == "radial" else 2 * doc.n
    assert max(level**dims for level in sizes + (doc.sweep or ())) <= MAX_NODES


@pytest.mark.parametrize("name", sorted(p.name for p in SPEC_DIR.glob("*.spec")))
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_parse_document_raises_only_spec_errors(name, data):
    text = (SPEC_DIR / name).read_text()
    slots = replace_numbers(text, {})[1]
    tokens = data.draw(
        st.dictionaries(st.integers(0, slots - 1), TOKENS, min_size=1, max_size=3)
    )
    try:
        doc = parse_document(replace_numbers(text, tokens)[0])
    except (ParseError, ValidationError):
        return
    assert isinstance(doc, SpecDocument)
    assert parse_document(emit_document(doc)) == doc
