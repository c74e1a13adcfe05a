"""Every box solve a drawn spec reaches passes the benchmark's independent checker.

``bench/checker.py`` recomputes a solve from the spec and the written
``fields.csv`` with its own stencil, the exact polynomial Hessian and
``itertools`` subset sums, and imports no garding code.  The specs drawn
here stay inside the subset it reads: a polynomial target on a box,
``[chi] diag`` and ``[psi] scale``, with n <= 2 and any p <= n.

Known failures: the checker compares the ``cone_margin`` and
``ftilde_residual`` columns with its recomputation to the absolute
``AGREE_ATOL`` = 1e-12.  Both are functions of O(1/h^2) difference
quotients of ``u``, whose rounding in double is about eps * max|u| / h^2
for the smallest spacing h; on long, thin boxes at fine resolution that
exceeds 1e-12 (the example below: 1.1e-11).  Such a rejection is counted
as known when its gap stays within that rounding; any other rejection
fails the test.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from garding.cli import main

from support import bench_checker

SEED = 1
checker = bench_checker()
COEFFS = st.floats(-2.0, 2.0)
# a rejection the rounding of the recomputed columns explains
KNOWN_GAP = re.compile(
    r"(cone_margin|ftilde_residual) column differs from the recomputation by (\S+)$")


@st.composite
def checker_specs(draw):
    """A box spec in the checker's subset.

    n = 1 boxes take any odd resolution from 9 to 65, n = 2 boxes 9 or 11.
    Each axis spans (-w, w) with w in [0.1, 3].  The target is a quadratic
    with coefficients in [-2, 2] on every axis plus up to two monomials of
    degree at most 2 per axis; chi is diagonal in [0, 5] and psi is scaled
    by 0.2 to 1.  Inadmissible targets (exit 4) are drawn too.
    """
    n = draw(st.integers(1, 2))
    p = draw(st.integers(1, n))
    resolution = 2 * draw(st.integers(4, 32)) + 1 if n == 1 else draw(st.sampled_from([9, 11]))
    extent = ", ".join(f"{-w!r}, {w!r}" for w in (draw(st.floats(0.1, 3.0)) for _ in range(2 * n)))
    terms = [(draw(COEFFS), [2 if k == a else 0 for k in range(2 * n)]) for a in range(2 * n)]
    for _ in range(draw(st.integers(0, 2))):
        terms.append((draw(COEFFS), [draw(st.integers(0, 2)) for _ in range(2 * n)]))
    lines = ["format_version = 1", "[problem]", f"n = {n}", f"p = {p}", "geometry = box",
             "[box]", f"extent = {extent}", f"resolution = {resolution}",
             "[solution]", "builtin = polynomial", f"terms = {len(terms)}"]
    lines += [f"term_{i} = {c!r}, " + ", ".join(map(str, e)) for i, (c, e) in enumerate(terms, 1)]
    if draw(st.booleans()):
        lines += ["[chi]", "diag = " + ", ".join(repr(draw(st.floats(0.0, 5.0))) for _ in range(n))]
    if draw(st.booleans()):
        lines += ["[psi]", f"scale = {draw(st.floats(0.2, 1.0))!r}"]
    return "\n".join(lines) + "\n"


KNOWN_REJECTION = """format_version = 1
[problem]
n = 1
p = 1
geometry = box
[box]
extent = -2.00001, 2.00001, -0.1, 0.1
resolution = 31
[solution]
builtin = polynomial
terms = 3
term_1 = -0.5434751553996466, 2, 0
term_2 = 0.1, 0, 2
term_3 = 0.0, 1, 1
[chi]
diag = 0.49768736188599644
[psi]
scale = 0.49768736188599644
"""


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(text=checker_specs())
@example(text=KNOWN_REJECTION)
def test_every_solve_passes_the_checker(text):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "case.spec", Path(tmp) / "out"
        spec.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = main(["--mode", "solve", "--spec", str(spec), "--out", str(out),
                           "--seed", str(SEED)])
        assert status in (0, 3, 4)
        event(f"exit {status}")
        if status != 0:
            return
        try:
            checker.check_output_dir(spec, out, SEED)
        except checker.CheckFailed as exc:
            known = KNOWN_GAP.search(str(exc))
            if known is None:
                raise
            parsed = checker.read_spec(spec)
            u = checker.read_fields(out / "fields.csv", parsed)["u"]
            rounding = np.finfo(float).eps * np.abs(u).max() / min(parsed.spacing) ** 2
            assert float(known.group(2)) <= rounding, str(exc)
            event("known AGREE_ATOL rejection")
