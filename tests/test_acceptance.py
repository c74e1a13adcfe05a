"""Acceptance suite: every criterion at its stated tolerance and budget.

Each test prints one PASS line on success; failures surface as ordinary
assertion errors.  Session fixtures share the expensive solves between
criteria.  Criterion 4 measures the refinement ratio on a quartic probe
with nonvanishing truncation error and pins exactness on the bilinear
quartic, on which the prescribed stencils are exact (see the README's
verification notes).
"""

import time

import numpy as np
import pytest

from garding.analytic import Polynomial, norm_squared, radial_power
from garding.cli import main
from garding.errors import ConeEscape, SubsolutionInvalid
from garding.grid import BoxGrid, complex_hessian_field
from garding.linear import upper_barrier
from garding.operator import (
    OperatorParams,
    determinant_form_batch,
    determinant_linearization_batch,
    ftilde_batch,
    ftilde_grad_batch,
    sample_cone_points,
    structure_check,
)
from garding.problems import manufactured_box, manufactured_radial, verify_subsolution
from garding.radial import RadialGrid
from garding.solver import (
    NEWTON_TOL,
    _BoxEvaluator,
    boundary_trace_check,
    continuity_solve,
    sandwich_check,
)

from support import arrow_form_value, poly_add, poly_mul, poly_scale, re_z1_squared, stack_coords


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE CRITERION {number:2d}: PASS - {text}")


def grid_target():
    # the pluriharmonic-weighted cubic term alone is stencil exact; the
    # radial quartic gives the discretization a refinement-sensitive error
    return (
        poly_add(poly_add(norm_squared(2),
                          poly_scale(0.1, poly_mul(re_z1_squared(2), norm_squared(2)))),
                 poly_scale(0.05, poly_mul(norm_squared(2), norm_squared(2))))
    )


@pytest.fixture(scope="session")
def radial_solutions():
    """Criterion 5 problem at 2001 points plus one coarser level."""
    out = {}
    t0 = time.perf_counter()
    for points in (1001, 2001):
        grid = RadialGrid(1.0, points)
        problem = manufactured_radial(radial_power(2), 1.0, OperatorParams(3, 2), grid)
        u, diag = continuity_solve(problem, newton_tol=1e-9)
        out[points] = (problem, u, diag)
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="session")
def box_solutions():
    """Criterion 6 problem at resolutions 13 and 17."""
    out = {}
    t0 = time.perf_counter()
    for res in (13, 17):
        grid = BoxGrid(2, ((-1, 1),) * 4, res)
        problem = manufactured_box(grid_target(), np.zeros((2, 2)), OperatorParams(2, 1), grid)
        u, diag = continuity_solve(problem)
        out[res] = (problem, u, diag)
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_01_arrow_form_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1234)
    checked = 0
    for n in (3, 4):
        for _ in range(1000):
            diag = rng.uniform(0.5, 3.0, n)
            last = 0.5 * (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
            a = np.diag(diag.astype(complex))
            a[n - 1, : n - 1] = last
            a[: n - 1, n - 1] = last.conj()
            lhs, corr = arrow_form_value(a)
            vals = np.linalg.eigvalsh(a)
            expected = float(np.prod(np.trace(a).real - vals))
            rel = abs((lhs - corr) - expected) / max(abs(expected), abs(lhs), 1e-30)
            assert rel <= 1e-10, f"n={n}: relative error {rel:.3e}"
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s over the 1 s budget"
    report(1, f"{checked} arrow expansions matched the eigenvalue route "
              f"to 1e-10 in {elapsed:.2f}s")


def test_criterion_02_structure_conditions():
    t0 = time.perf_counter()
    for n, p in [(2, 1), (3, 2), (4, 3), (5, 2)]:
        result = structure_check(OperatorParams(n, p), trials=10000, seed=20 * n + p)
        assert result.ok, (
            f"(n, p) = ({n}, {p}): {[f'{v.prop}: {v.detail}' for v in result.violations[:3]]}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s over the 10 s budget"
    report(2, f"positivity, gradient, concavity, homogeneity and trace bound "
              f"held over 4 x 10^4 trials in {elapsed:.2f}s")


def test_criterion_03_gradient_linearization_consistency():
    t0 = time.perf_counter()
    step = 1e-5
    rng = np.random.default_rng(99)
    for n, p in [(3, 2), (4, 3)]:
        params = OperatorParams(n, p)
        pts = sample_cone_points(rng, params, 100, margin_low=0.3, margin_high=2.0)
        for lam in pts:
            lam = np.sort(lam)
            grad = ftilde_grad_batch(lam[None], params)[1][0]
            for k in range(n):
                up = lam.copy()
                dn = lam.copy()
                up[k] += step
                dn[k] -= step
                fd = (
                    ftilde_batch(up[None, :], params)[0]
                    - ftilde_batch(dn[None, :], params)[0]
                ) / (2 * step)
                assert abs(grad[k] - fd) / abs(fd) <= 1e-6
        # matrix-level linearization against spectral finite differences
        for _ in range(100):
            lam = np.sort(sample_cone_points(rng, params, 1, margin_low=0.3)[0])
            q, _ = np.linalg.qr(
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            g = (q * lam) @ q.conj().T
            g = (g + g.conj().T) / 2.0
            form, _ = determinant_form_batch(g[None], params)
            coeffs = determinant_linearization_batch(params, form)[0][0]
            for _ in range(10):
                h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                h = (h + h.conj().T) / 2
                h /= np.linalg.norm(h)
                analytic = float(np.trace(coeffs @ h).real)
                fp = ftilde_batch(np.linalg.eigvalsh(g + step * h)[None, :], params)[0]
                fm = ftilde_batch(np.linalg.eigvalsh(g - step * h)[None, :], params)[0]
                fd = (fp - fm) / (2 * step)
                assert abs(analytic - fd) / max(abs(fd), 1e-12) <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s over the 5 s budget"
    report(3, f"gradients and linearizations matched central differences "
              f"(step 1e-5) to 1e-6 in {elapsed:.2f}s")


def test_criterion_04_discretization_order():
    t0 = time.perf_counter()
    # the stated bilinear quartic: every monomial is degree <= 2 per real
    # variable, so the prescribed stencils reproduce it exactly
    f1 = Polynomial(4, {(2, 0, 0, 0): 1.0, (0, 2, 0, 0): 1.0})
    f2 = Polynomial(4, {(0, 0, 2, 0): 1.0, (0, 0, 0, 2): 1.0})
    bilinear = poly_mul(f1, f2)
    for res in (9, 17):
        grid = BoxGrid(2, ((-1, 1),) * 4, res)
        u = bilinear.value(grid.coords())
        h = complex_hessian_field(u, grid)
        exact = bilinear.complex_hessian(grid.coords(interior=True))
        assert np.abs(h - exact).max() <= 1e-12

    # refinement ratio on a quartic probe with nonvanishing truncation error
    probe = poly_add(poly_mul(norm_squared(2), norm_squared(2)), Polynomial(
        4, {(3, 0, 1, 0): 1.0, (0, 3, 0, 1): 1.0}
    ))

    def max_err(res):
        grid = BoxGrid(2, ((-1, 1),) * 4, res)
        u = probe.value(grid.coords())
        h = complex_hessian_field(u, grid)
        return np.abs(h - probe.complex_hessian(grid.coords(interior=True))).max()

    e9 = max_err(9)
    e17 = max_err(17)
    ratio = e9 / e17
    assert 3.5 <= ratio <= 4.5, f"refinement ratio {ratio:.3f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s over the 5 s budget"
    report(4, f"bilinear quartic reproduced exactly; order ratio {ratio:.3f} "
              f"in [3.5, 4.5] in {elapsed:.2f}s")


def test_criterion_05_radial_manufactured(radial_solutions):
    problem, u, diag = radial_solutions[2001]
    s = problem.grid.s[:-1]
    expected_psi = (2 + 2 * s) * (2 + 3 * s) ** 2
    assert np.abs(problem.psi - expected_psi).max() <= 1e-12 * expected_psi.max()
    err = np.abs(u - problem.phi).max()
    assert err <= 1e-6, f"max error {err:.3e}"
    assert diag.final_residual <= 1e-9
    assert all(a.min_margin > 0 for a in diag.attempts if a.failure is None)
    assert radial_solutions["elapsed"] < 10.0
    report(5, f"2001-point radial solve: error {err:.2e}, residual "
              f"{diag.final_residual:.2e}, all states admissible")


def test_criterion_06_grid_manufactured(box_solutions):
    errs = {}
    for res in (13, 17):
        problem, u, diag = box_solutions[res]
        errs[res] = float(np.abs(u - problem.phi).max())
        assert diag.final_residual <= 1e-7
    assert errs[17] < errs[13], f"no refinement decrease: {errs}"
    assert errs[17] <= 5e-3, f"res-17 error {errs[17]:.3e}"
    assert box_solutions["elapsed"] < 300.0
    report(6, f"grid solve errors {errs[13]:.2e} -> {errs[17]:.2e} "
              f"(residuals <= 1e-7) in {box_solutions['elapsed']:.0f}s")


def test_criterion_07_sandwich_and_amgm(box_solutions):
    problem, u, diag = box_solutions[17]
    err = float(np.abs(u - problem.phi).max())
    assert diag.sandwich_violation <= 1e-6 + err
    assert diag.amgm_min_slack >= -1e-10
    # independent recomputation of the sandwich against a fresh barrier
    grid = problem.grid
    ol = upper_barrier(problem.chi, problem.phi, grid)
    violation = sandwich_check(u, problem.subsolution, ol)
    assert violation <= 1e-6 + err
    report(7, f"sandwich violation {diag.sandwich_violation:.2e} <= 1e-6 + {err:.2e}; "
              f"AM-GM slack {diag.amgm_min_slack:.2e} >= -1e-10")


def test_criterion_08_boundary_trace(radial_solutions, box_solutions):
    values = {}
    for key, (problem, u, diag) in (
        ("radial-1001", radial_solutions[1001]),
        ("radial-2001", radial_solutions[2001]),
        ("box-13", box_solutions[13]),
        ("box-17", box_solutions[17]),
    ):
        val = boundary_trace_check(u, problem)
        assert val > 0, f"{key}: boundary trace {val}"
        assert val == pytest.approx(diag.c0_boundary)
        values[key] = val
    for pair in (("radial-1001", "radial-2001"), ("box-13", "box-17")):
        a, b = values[pair[0]], values[pair[1]]
        assert abs(a - b) <= 0.1 * max(a, b), f"{pair}: {a} vs {b}"
    report(8, f"boundary traces positive and refinement stable: "
              f"radial {values['radial-2001']:.4f}, box {values['box-17']:.4f}")


def test_criterion_09_anchor_and_uniqueness(box_solutions):
    problem, u_base, diag = box_solutions[13]
    assert diag.anchor_residual <= 1e-14, f"anchor residual {diag.anchor_residual!r}"

    grid = problem.grid
    ol = upper_barrier(problem.chi, problem.phi, grid)
    gap = ol - problem.subsolution
    assert gap.min() >= -1e-12
    # 0.9 * gap * bump, with the bump profile scaled back until the start
    # keeps a healthy cone margin
    pts = stack_coords(grid.coords())
    profile = np.prod(np.cos(np.pi * pts / 2.0), axis=-1)
    ev = _BoxEvaluator(problem)
    base_margin = ev.analyze(problem.subsolution).min_margin
    beta = 1.0
    while beta > 1e-4:
        init = problem.subsolution + 0.9 * gap * (beta * profile)
        margin = ev.analyze(init).min_margin
        if margin >= 0.3 * base_margin:
            break
        beta *= 0.5
    assert margin > 0, "could not build an admissible perturbed start"
    assert np.abs(init - problem.subsolution).max() > 0.1  # genuinely different

    tol = NEWTON_TOL["box"]
    u_alt, diag_alt = continuity_solve(problem, initial_values=init)
    diff = float(np.abs(u_base - u_alt).max())
    assert diff <= 2.0 * tol, f"two starts disagree by {diff:.3e} > 2 * {tol:.1e}"
    report(9, f"anchor residual {diag.anchor_residual!r}; two admissible starts "
              f"agree to {diff:.2e} <= 2 x {tol:.0e}")


def test_criterion_10_failure_paths(tmp_path):
    # inflated psi at a chosen node -> SubsolutionInvalid with that witness
    node = (4, 3, 5, 6)
    grid = BoxGrid(2, ((-1, 1),) * 4, 13)
    problem = manufactured_box(
        grid_target(), np.zeros((2, 2)), OperatorParams(2, 1), grid,
        psi_bump_node=node, psi_bump_factor=1.1,
    )
    with pytest.raises(SubsolutionInvalid) as exc_info:
        verify_subsolution(problem)
    assert exc_info.value.node == node
    with pytest.raises(SubsolutionInvalid):
        continuity_solve(problem)

    # non-admissible initializer -> ConeEscape at the API level
    clean = manufactured_box(grid_target(), np.zeros((2, 2)), OperatorParams(2, 1), grid)
    bad_init = -2.0 * norm_squared(2).value(grid.coords())
    with pytest.raises(ConeEscape) as cone_info:
        continuity_solve(clean, initial_values=bad_init)
    assert cone_info.value.node is not None

    # ... and exit status 3 through the CLI
    spec = tmp_path / "bad-init.spec"
    spec.write_text(
        "format_version = 1\n"
        "[problem]\nn = 2\np = 1\ngeometry = box\n"
        "[box]\nextent = -1, 1, -1, 1, -1, 1, -1, 1\nresolution = 9\n"
        "[solution]\nbuiltin = quadratic\ncoeff = 1.0\n"
        "[init]\nbuiltin = quadratic\ncoeff = -1.0\n"
    )
    status = main(["--mode", "solve", "--spec", str(spec), "--out", str(tmp_path / "out")])
    assert status == 3
    report(10, f"psi inflation flagged at witness {node}; cone escape "
               f"raised and mapped to exit status 3")
