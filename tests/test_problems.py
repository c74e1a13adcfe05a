"""The box build on per-axis coordinates against the stacked-points build."""

import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from garding.analytic import Polynomial, norm_squared
from garding.errors import NotAdmissible, ValidationError
from garding.grid import BoxGrid
from garding.operator import OperatorParams
from garding.problems import manufactured_box
from garding.specfile import build_problem, parse_document

from support import StackedPolynomial, poly_add

BENCH_SPECS = Path(__file__).resolve().parent.parent / "bench" / "specs"
FIELDS = ("psi", "phi", "subsolution", "subsolution_M")


@st.composite
def polynomials(draw, n):
    """c |z|^2 plus up to three monomials on one axis, on a subset of the
    axes or on every axis; with no monomial the Hessian is constant."""
    m = 2 * n
    poly = norm_squared(n, draw(st.sampled_from([0.0, 0.5, 1.0, 1.5])))
    reach = draw(st.sampled_from(["none", "one", "subset", "every"]))
    axes = {"none": [], "one": [draw(st.integers(0, m - 1))], "every": list(range(m)),
            "subset": draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=m, unique=True))}
    for _ in range(draw(st.integers(1, 3)) if axes[reach] else 0):
        expo = [0] * m
        for a in axes[reach]:
            expo[a] = draw(st.integers(0 if reach == "every" else 1, 4))
        term = Polynomial(m, {tuple(expo): draw(st.floats(-0.25, 0.25, width=32))})
        poly = poly_add(poly, term)
    return poly


@st.composite
def box_builds(draw, dims):
    n = draw(dims)
    p = draw(st.integers(1, n))
    res = 9 if n == 3 else draw(st.sampled_from([9, 11]))
    extent = tuple((lo, lo + draw(st.floats(0.5, 2.0, width=32)))
                   for lo in draw(st.lists(st.floats(-1.5, -0.125, width=32),
                                           min_size=2 * n, max_size=2 * n)))
    chi = np.diag(draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]), min_size=n, max_size=n)))
    omega = None
    if draw(st.booleans()):  # a general Hermitian metric
        a = np.array(draw(st.lists(st.floats(-1.0, 1.0, width=32), min_size=2 * n * n,
                                   max_size=2 * n * n))).reshape(2, n, n)
        z = a[0] + 1j * a[1]
        omega = z @ z.conj().T + np.eye(n)
    kwargs = {"psi_scale": draw(st.sampled_from([1.0, 0.85]))}
    if draw(st.booleans()):
        kwargs["psi_bump_node"] = tuple(draw(st.lists(st.integers(1, res - 2), min_size=2 * n,
                                                      max_size=2 * n)))
        kwargs["psi_bump_factor"] = 1.1
    target = draw(polynomials(n))
    sub = draw(st.one_of(st.none(), polynomials(n)))
    return (target, sub, chi.astype(complex), OperatorParams(n, p),
            BoxGrid(n, extent, res), omega, kwargs)


def build(target, sub, chi, params, grid, omega, kwargs):
    """The built box fields, or the class, message and node of the refusal."""
    try:
        box = manufactured_box(target, chi, params, grid, omega=omega, subsolution=sub,
                               **kwargs)
    except (NotAdmissible, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "node", None)
    assert box.psi.flags.writeable and not box.phi.flags.writeable
    assert box.psi.shape == box.subsolution_M.shape == grid.interior_shape
    return {name: getattr(box, name) for name in FIELDS}


def check_against_the_stacked_points_build(case):
    target, sub, *rest = case
    got = build(target, sub, *rest)
    want = build(StackedPolynomial(target), sub and StackedPolynomial(sub), *rest)
    event(want[0].__name__ if isinstance(want, tuple) else "built")
    if isinstance(want, tuple):
        assert got == want
        return
    for name in FIELDS:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


# |z|^2 - x^3 / 2 on [0, 2] x [-1, 1] leaves the cone where x > 4 / 3; its
# margins vary along x only, and the witness is the first least node in C
# order, (7, 1), not the node of the least row, (1, 7)
X_CUBED = (poly_add(norm_squared(1), Polynomial(2, {(3, 0): -0.5})), None,
           np.zeros((1, 1), complex), OperatorParams(1, 1), BoxGrid(1, ((0, 2), (-1, 1)), 9),
           None, {})


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(case=box_builds(st.integers(1, 2)))
@example(case=X_CUBED)
def test_broadcast_build_equals_the_stacked_points_build(case):
    check_against_the_stacked_points_build(case)


# an n = 3 oracle build evaluates 9^6 stacked points: a few draws
@settings(max_examples=4, deadline=None, database=None, derandomize=True)
@given(case=box_builds(st.just(3)))
def test_broadcast_build_equals_the_stacked_points_build_at_n3(case):
    check_against_the_stacked_points_build(case)


def test_a_constant_hessian_gives_one_row():
    hessian = norm_squared(3).complex_hessian(BoxGrid(3, ((-1, 1),) * 6, 9).coords(interior=True))
    assert hessian.shape == (1,) * 6 + (3, 3)


def test_central_case_build_stays_within_12_mib():
    # the stacked-points build peaked at 60.7 MiB
    doc = parse_document((BENCH_SPECS / "box-n3-p2-r9.spec").read_text())
    tracemalloc.start()
    try:
        build_problem(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2**20
