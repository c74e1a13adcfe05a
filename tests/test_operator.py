import itertools
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import garding.operator as operator
from garding.errors import NotArrowForm, OutsideCone
from garding.hermitian import (
    HermitianMatrix,
    Spectrum,
    ambient_transport_batch,
    congruence_reduce_batch,
    eigvals_batch,
)
from garding.operator import (
    LinearizationCoeffs,
    OperatorParams,
    arrow_form_value,
    determinant_form_batch,
    determinant_linearization_batch,
    eval_M,
    eval_ftilde,
    ftilde_batch,
    ftilde_grad_batch,
    grad_ftilde,
    linearization_coeffs,
    sample_cone_points,
    structure_check,
    subset_sums,
)

from support import eigen_route

P32 = OperatorParams(3, 2)


def brute_force_product(lam, n, p):
    """Direct-product oracle, no log-space tricks."""
    prod = 1.0
    for s in itertools.combinations(range(n), p):
        prod *= sum(lam[i] for i in s)
    return prod


def fd_gradient(lam, params, step=1e-6):
    out = np.zeros(params.n)
    for k in range(params.n):
        up = np.array(lam, dtype=float)
        dn = np.array(lam, dtype=float)
        up[k] += step
        dn[k] -= step
        out[k] = (
            brute_force_product(up, params.n, params.p) ** (1 / params.subset_count)
            - brute_force_product(dn, params.n, params.p) ** (1 / params.subset_count)
        ) / (2 * step)
    return out


class TestSubsetSums:
    def test_all_ones(self):
        assert np.array_equal(subset_sums(Spectrum([1.0, 1, 1]), P32), [2, 2, 2])

    def test_lex_order(self):
        # pairs {0,1}, {0,2}, {1,2} of (0, 1, 2)
        assert np.array_equal(subset_sums(Spectrum([0.0, 1, 2]), P32), [1, 2, 3])

    def test_boundary_factor(self):
        assert np.array_equal(subset_sums(Spectrum([-1.0, 1, 3]), P32), [0, 2, 4])

    def test_params_validation(self):
        with pytest.raises(ValueError):
            OperatorParams(3, 4)
        with pytest.raises(ValueError):
            OperatorParams(3, 0)

    def test_subset_count_is_bounded_before_enumeration(self):
        # C(40, 20) is about 1.4e11: enumerating it would exhaust memory
        start = time.perf_counter()
        with pytest.raises(ValueError, match="exceed the limit of 10000"):
            OperatorParams(40, 20)
        assert time.perf_counter() - start < 1.0
        assert OperatorParams(14, 5).subset_count == 2002


class TestEvalM:
    def test_all_ones(self):
        assert eval_M(Spectrum([1.0, 1, 1]), P32) == pytest.approx(8.0)

    def test_with_zero_factor(self):
        assert eval_M(Spectrum([0.0, 1, 2]), P32) == pytest.approx(6.0)
        assert eval_M(Spectrum([-1.0, 1, 3]), P32) == 0.0

    def test_p1_is_determinant_product(self):
        p21 = OperatorParams(2, 1)
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.uniform(-2, 2, 2)
            assert eval_M(Spectrum([a, b]), p21) == pytest.approx(a * b)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for n, p in [(3, 2), (4, 3), (5, 2), (6, 3)]:
            params = OperatorParams(n, p)
            for _ in range(30):
                lam = np.sort(rng.uniform(-1, 3, n))
                assert eval_M(Spectrum(lam), params) == pytest.approx(
                    brute_force_product(lam, n, p), rel=1e-12
                )


class TestFtilde:
    def test_all_ones(self):
        assert eval_ftilde(Spectrum([1.0, 1, 1]), P32) == pytest.approx(2.0)

    def test_homogeneity_instance(self):
        assert eval_ftilde(Spectrum([0.5, 0.5, 0.5]), P32) == pytest.approx(1.0)

    def test_near_boundary(self):
        # value frozen from the direct-product oracle just inside the cone
        lam = [1e-9, 1.0, 2.0]
        expected = brute_force_product(lam, 3, 2) ** (1 / 3)
        got = eval_ftilde(Spectrum(lam), P32)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(6.0 ** (1 / 3), rel=1e-6)

    def test_outside_raises(self):
        with pytest.raises(OutsideCone):
            eval_ftilde(Spectrum([-1.0, 1, 3]), P32)
        with pytest.raises(OutsideCone):
            eval_ftilde(Spectrum([-1.0, -1, 5]), P32)


class TestGradFtilde:
    def test_all_ones(self):
        got = grad_ftilde(Spectrum([1.0, 1, 1]), P32)
        assert np.allclose(got, [2 / 3, 2 / 3, 2 / 3], atol=1e-14)

    def test_formula_instantiation(self):
        lam = np.array([0.001, 1.0, 2.0])
        ft = (1.001 * 2.001 * 3.0) ** (1 / 3)
        expected = (ft / 3) * np.array(
            [1 / 1.001 + 1 / 2.001, 1 / 1.001 + 1 / 3.0, 1 / 2.001 + 1 / 3.0]
        )
        got = grad_ftilde(Spectrum(lam), P32)
        assert np.allclose(got, expected, rtol=1e-12)
        assert np.allclose(got, fd_gradient(lam, P32), rtol=1e-5)

    def test_euler_identity(self):
        rng = np.random.default_rng(2)
        for n, p in [(2, 1), (3, 2), (4, 3), (5, 2)]:
            params = OperatorParams(n, p)
            lams = sample_cone_points(rng, params, 200)
            for lam in lams:
                spec = Spectrum(lam)
                f = grad_ftilde(spec, params)
                ft = eval_ftilde(spec, params)
                assert np.dot(f, spec.values) == pytest.approx(ft, rel=1e-11)

    def test_outside_raises(self):
        with pytest.raises(OutsideCone):
            grad_ftilde(Spectrum([-1.0, 1, 3]), P32)

    def test_matches_fd(self):
        rng = np.random.default_rng(3)
        for n, p in [(3, 2), (4, 3)]:
            params = OperatorParams(n, p)
            lams = sample_cone_points(rng, params, 30, margin_low=0.3)
            for lam in lams:
                got = grad_ftilde(Spectrum(lam), params)
                assert np.allclose(got, fd_gradient(np.sort(lam), params), rtol=1e-5)


class TestPermutationSymmetry:
    def test_random_permutations(self):
        rng = np.random.default_rng(4)
        params = OperatorParams(4, 2)
        lams = sample_cone_points(rng, params, 1000)
        base = ftilde_batch(np.sort(lams, axis=-1), params)
        for _ in range(4):
            perm = rng.permutation(4)
            vals = ftilde_batch(lams[:, perm], params)
            assert np.allclose(vals, base, rtol=1e-13)


class TestLinearization:
    def test_identity_point(self):
        coeffs = linearization_coeffs(
            HermitianMatrix(np.eye(3)), HermitianMatrix(np.eye(3)), P32
        )
        assert isinstance(coeffs, LinearizationCoeffs)
        assert np.allclose(coeffs.matrix.entries, np.diag([2 / 3, 2 / 3, 2 / 3]))
        assert coeffs.trace_F == pytest.approx(2.0)

    def test_diagonal_g_gives_diagonal_coeffs(self):
        g = HermitianMatrix(np.diag([1e-6, 1.0, 2.0]))
        coeffs = linearization_coeffs(HermitianMatrix(np.eye(3)), g, P32)
        f = grad_ftilde(Spectrum([1e-6, 1.0, 2.0]), P32)
        assert np.allclose(coeffs.matrix.entries, np.diag(f), atol=1e-12)

    def test_unitary_equivariance(self):
        rng = np.random.default_rng(5)
        g = np.diag([0.5, 1.0, 2.5]).astype(complex)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        eye = HermitianMatrix(np.eye(3))
        c0 = linearization_coeffs(eye, HermitianMatrix(g), P32).matrix.entries
        c1 = linearization_coeffs(eye, HermitianMatrix(q.conj().T @ g @ q), P32).matrix.entries
        assert np.allclose(c1, q.conj().T @ c0 @ q, atol=1e-12)

    def test_directional_derivative_identity_metric(self):
        rng = np.random.default_rng(6)
        eye3 = HermitianMatrix(np.eye(3))
        eps = 1e-5
        for _ in range(25):
            lam = sample_cone_points(rng, P32, 1, margin_low=0.3)[0]
            q, _ = np.linalg.qr(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            g = (q * lam) @ q.conj().T
            h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            h = (h + h.conj().T) / 2
            coeffs = linearization_coeffs(eye3, HermitianMatrix(g), P32)
            analytic = np.trace(coeffs.matrix.entries @ h).real
            fp = ftilde_batch(np.linalg.eigvalsh(g + eps * h)[None, :], P32)[0]
            fm = ftilde_batch(np.linalg.eigvalsh(g - eps * h)[None, :], P32)[0]
            fd = (fp - fm) / (2 * eps)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_directional_derivative_general_metric(self):
        rng = np.random.default_rng(7)
        eps = 1e-5
        n, p = 3, 2
        params = OperatorParams(n, p)
        for _ in range(15):
            w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            omega = w @ w.conj().T + n * np.eye(n)
            g0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g0 = (g0 + g0.conj().T) / 2
            # shift g0 inside the cone relative to omega
            vals = np.linalg.eigvalsh(np.linalg.solve(omega, g0))
            shift = (1.0 - Spectrum(vals).values[:p].sum() / p)
            g = g0 + shift * omega
            h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = (h + h.conj().T) / 2
            coeffs = linearization_coeffs(
                HermitianMatrix(omega), HermitianMatrix(g), params
            )
            analytic = np.trace(coeffs.matrix.entries @ h).real

            def ft_of(gm):
                vals = np.linalg.eigvalsh(
                    np.linalg.solve(np.linalg.cholesky(omega), gm)
                    @ np.linalg.inv(np.linalg.cholesky(omega)).conj().T
                )
                return ftilde_batch(np.sort(vals)[None, :], params)[0]

            fd = (ft_of(g + eps * h) - ft_of(g - eps * h)) / (2 * eps)
            assert analytic == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_positive_definite_and_trace_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            lam = sample_cone_points(rng, P32, 1, margin_low=0.05)[0]
            q, _ = np.linalg.qr(
                rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            )
            g = (q * lam) @ q.conj().T
            coeffs = linearization_coeffs(HermitianMatrix(np.eye(3)), HermitianMatrix(g), P32)
            assert np.linalg.eigvalsh(coeffs.matrix.entries)[0] > 0
            assert coeffs.trace_F >= 2 - 1e-10


def random_unitaries(rng, count, n):
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return np.linalg.qr(z)[0]


def determinant_route(params, reduced, ell):
    form, _ = determinant_form_batch(reduced, params)
    coeffs, trace_f, ft = determinant_linearization_batch(params, form)
    return ft, ambient_transport_batch(coeffs, ell), trace_f, eigvals_batch(form)[..., 0]


class TestDeterminantRoute:
    @settings(max_examples=5, deadline=None, database=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), margin_low=st.floats(0.01, 1.0))
    def test_matches_eigen_route(self, seed, margin_low):
        # every 1 <= p <= n <= 6, with the identity and a random metric, in
        # each example
        rng = np.random.default_rng(seed)
        count = 16
        cases = [(n, p, identity) for n in range(1, 7) for p in range(1, n + 1)
                 for identity in (True, False)]
        for n, p, identity in cases:
            params = OperatorParams(n, p)
            lams = sample_cone_points(rng, params, count, margin_low=margin_low, margin_high=2.0)
            q = random_unitaries(rng, count, n)
            reduced = np.einsum("...ik,...k,...jk->...ij", q, lams, q.conj())
            reduced = (reduced + np.swapaxes(reduced, -1, -2).conj()) / 2.0
            ell = None
            if not identity:
                w = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                ell = np.linalg.cholesky(w @ w.conj().T + n * np.eye(n))
                # the reduction of g = L A L* is A again, up to rounding
                g = np.einsum("ab,...bc,dc->...ad", ell, reduced, ell.conj())
                reduced, ell = congruence_reduce_batch(g, ell @ ell.conj().T)
            expected = eigen_route(params, reduced, ell)
            got = determinant_route(params, reduced, ell)
            for name, want, have in zip(("ftilde", "C", "trace_F", "margins"), expected, got):
                assert have.shape == want.shape, (name, n, p)
                scale = np.abs(want).max()
                assert np.abs(have - want).max() <= 1e-11 * scale, (name, n, p)

    def test_first_compound_is_the_matrix_itself(self):
        rng = np.random.default_rng(5)
        for n in (2, 3):
            params = OperatorParams(n, 1)
            q = random_unitaries(rng, 7, n)
            reduced = np.einsum("...ik,...k,...jk->...ij", q, rng.uniform(1, 2, (7, n)), q.conj())
            form, trace = determinant_form_batch(reduced, params)
            assert form is reduced
            table_form = (reduced.reshape(-1, n * n) @ params.compound).reshape(form.shape)
            assert np.array_equal(form, table_form)
            assert np.array_equal(trace, np.trace(reduced, axis1=-2, axis2=-1).real)

    def test_coefficients_are_exactly_hermitian(self):
        rng = np.random.default_rng(3)
        for params in (OperatorParams(4, 3), OperatorParams(4, 2)):
            q = random_unitaries(rng, 50, 4)
            lams = sample_cone_points(rng, params, 50)
            reduced = np.einsum("...ik,...k,...jk->...ij", q, lams, q.conj())
            form, _ = determinant_form_batch(reduced, params)
            coeffs, _, _ = determinant_linearization_batch(params, form)
            assert np.array_equal(coeffs, np.swapaxes(coeffs, -1, -2).conj())

    @pytest.mark.parametrize(
        "n, p", [(2, 1), (3, 1), (3, 2), (4, 3), (2, 2), (3, 3), (4, 2)]
    )
    @pytest.mark.parametrize("least, rotate", [(0.0, False), (-1e-3, True)])
    def test_non_positive_form_raises(self, n, p, least, rotate):
        # K = A^[p] gets least eigenvalue ``least`` at row 2 of 5; every
        # other row is inside the cone.  The rows are 1..n, and row 2 is
        # shifted along (1, ..., 1) so that its p smallest entries sum to
        # ``least``.  An exact zero stays exact only without a rotation.
        params = OperatorParams(n, p)
        lams = np.tile(np.arange(1.0, n + 1.0), (5, 1))
        lams[2] += (least - p * (p + 1) / 2) / p
        q = random_unitaries(np.random.default_rng(n), 5, n) if rotate else np.eye(n)
        reduced = np.einsum("...ik,...k,...jk->...ij", q, lams, q.conj())
        form, _ = determinant_form_batch(reduced, params)
        with pytest.raises(OutsideCone, match="row 2"):
            determinant_linearization_batch(params, form)

    def test_scalar_call_raises_off_the_cone(self):
        g = HermitianMatrix(np.diag([-1.0, 0.5, 3.0]))  # subset sum -0.5
        with pytest.raises(OutsideCone):
            linearization_coeffs(HermitianMatrix(np.eye(3)), g, P32)


class TestArrowForm:
    def test_hand_example(self):
        g = HermitianMatrix(np.array([[2.0, 0, 1], [0, 1.0, 0], [1, 0, 3.0]]))
        lhs, corr = arrow_form_value(g)
        assert lhs == pytest.approx(60.0)
        assert corr == pytest.approx(5.0)
        # eigenvalue route: product of (trace - lam_i)
        vals = np.linalg.eigvalsh(g.entries)
        assert lhs - corr == pytest.approx(float(np.prod(6.0 - vals)), rel=1e-12)

    def test_diagonal_has_zero_correction(self):
        g = HermitianMatrix(np.diag([1.0, 2.0, 4.0]))
        lhs, corr = arrow_form_value(g)
        assert corr == 0.0
        assert lhs == pytest.approx(brute_force_product([1, 2, 4], 3, 2))

    def test_parametric_family(self):
        for t in (0.1, 0.5):
            g = HermitianMatrix(np.array([[1.0, 0, t], [0, 1.0, 0], [t, 0, 1.0]]))
            lhs, corr = arrow_form_value(g)
            assert corr == pytest.approx(t * t * (3.0 - 1.0))
            vals = np.linalg.eigvalsh(g.entries)
            assert lhs - corr == pytest.approx(float(np.prod(3.0 - vals)), rel=1e-10)

    def test_rejects_non_arrow(self):
        g = HermitianMatrix(np.array([[2.0, 0.5, 1], [0.5, 1.0, 0], [1, 0, 3.0]]))
        with pytest.raises(NotArrowForm):
            arrow_form_value(g)

    def test_random_complex_arrows(self):
        rng = np.random.default_rng(9)
        for n in (3, 4):
            for _ in range(100):
                diag = rng.uniform(0.5, 3.0, n)
                last = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
                a = np.diag(diag.astype(complex))
                a[n - 1, : n - 1] = last
                a[: n - 1, n - 1] = last.conj()
                g = HermitianMatrix(a)
                lhs, corr = arrow_form_value(g)
                vals = np.linalg.eigvalsh(a)
                tr = diag.sum()
                expected = float(np.prod(tr - vals))
                assert lhs - corr == pytest.approx(expected, rel=1e-10, abs=1e-10)


class TestStructureCheck:
    def test_clean_report(self):
        report = structure_check(P32, trials=2000, seed=42)
        assert report.ok
        assert report.checks["f3_concavity"] == 2000

    def test_homogeneity_instance(self):
        assert ftilde_batch(np.array([[2.0, 2, 2]]), P32)[0] == pytest.approx(4.0)

    def test_p_equals_n_is_linear(self):
        params = OperatorParams(3, 3)
        rng = np.random.default_rng(10)
        lams = sample_cone_points(rng, params, 100)
        vals = ftilde_batch(lams, params)
        assert np.allclose(vals, lams.sum(axis=-1), rtol=1e-13)
        report = structure_check(params, trials=500, seed=0)
        assert report.ok

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            structure_check(P32, trials=0, seed=0)

    @pytest.mark.parametrize("n, p", [(8, 4), (10, 5), (12, 6)])
    def test_boundary_tail_with_many_subsets(self, n, p):
        # the tail ratio 2^(-10 / C(n, p)) is above 0.95 once C(n, p) > 135
        report = structure_check(OperatorParams(n, p), trials=40, seed=3)
        assert report.ok, report.violations[:2]

    @pytest.mark.parametrize("n, p", [(3, 2), (10, 5)])
    def test_non_vanishing_operator_fails_the_tail(self, monkeypatch, n, p):
        # ftilde + 1 does not vanish at the boundary, whatever C(n, p) is
        ftilde = operator.ftilde_batch
        monkeypatch.setattr(operator, "ftilde_batch", lambda lams, params: ftilde(lams, params) + 1)
        report = structure_check(OperatorParams(n, p), trials=32, seed=3)
        assert report.checks["f1_boundary_rays"] == 32
        assert sum(v.prop == "f1_boundary" for v in report.violations) == 32


class TestGuanInequalityMonitor:
    def test_fit_and_verify_disjoint_samples(self):
        # sum f_i |lam_i| <= eps * sum_{i != r} f_i lam_i^2 + (C / eps) * sum f_i + C
        # with r the worst index; fit C on sample A, verify on sample B.
        rng = np.random.default_rng(11)
        params = OperatorParams(3, 2)

        def needed_constant(lams, eps):
            _, grads = ftilde_grad_batch(lams, params)
            lhs = (grads * np.abs(lams)).sum(axis=-1)
            quad = grads * lams**2
            # removing the largest quadratic term is the adversarial choice
            rhs_quad = eps * (quad.sum(axis=-1) - quad.max(axis=-1))
            denom = grads.sum(axis=-1) / eps + 1.0
            return (lhs - rhs_quad) / denom

        for eps in (0.1, 1.0):
            sample_a = sample_cone_points(rng, params, 4000)
            sample_b = sample_cone_points(rng, params, 4000)
            c_fit = needed_constant(sample_a, eps).max()
            worst_b = needed_constant(sample_b, eps).max()
            assert worst_b <= 1.5 * max(c_fit, 1e-6)
