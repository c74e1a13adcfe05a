import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garding.errors import MetricNotPositive, NotHermitian
from garding.hermitian import (
    EIG_BLOCK,
    HermitianMatrix,
    Spectrum,
    congruence_reduce_batch,
    eigvals_batch,
    herm_eigen,
    metric_endomorphism_eigen,
    trace_with_metric,
)


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2.0


def charpoly_roots(a):
    """Eigenvalue oracle: Faddeev-LeVerrier coefficients + polynomial roots.

    Builds the characteristic polynomial from traces of powers only, so it
    shares no code path with the LAPACK route or the Jacobi oracle.
    """
    n = a.shape[0]
    coeffs = np.zeros(n + 1, dtype=np.complex128)
    coeffs[0] = 1.0
    m = np.zeros((n, n), dtype=np.complex128)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def jacobi_eigh(a: np.ndarray, tol: float = 1e-15, max_sweeps: int = 60):
    """Eigen-decomposition of a complex Hermitian matrix by cyclic Jacobi.

    Independent oracle for the LAPACK route.  Each rotation peels the phase
    off the pivot entry and then applies a real Givens rotation, so every
    sweep is unconditionally norm reducing on the off-diagonal part.

    Returns (values ascending, columns-are-eigenvectors V) with
    ``a = V @ diag(values) @ V.conj().T``.
    """
    a = np.array(a, dtype=np.complex128)
    n = a.shape[0]
    v = np.eye(n, dtype=np.complex128)
    scale = np.linalg.norm(a)
    if scale == 0.0:
        return np.zeros(n), v

    def offdiag_norm(m):
        off = m - np.diag(np.diag(m))
        return np.linalg.norm(off)

    for _ in range(max_sweeps):
        if offdiag_norm(a) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= 1e-300:
                    continue
                phase = apq / r
                app = a[p, p].real
                aqq = a[q, q].real
                theta = 0.5 * np.arctan2(2.0 * r, app - aqq)
                c = np.cos(theta)
                s = np.sin(theta)
                # Unitary T acting on columns (p, q):
                #   T[p, p] = c, T[q, p] = s * conj(phase),
                #   T[p, q] = -s, T[q, q] = c * conj(phase).
                tpp, tqp = c, s * np.conj(phase)
                tpq, tqq = -s, c * np.conj(phase)
                col_p = a[:, p] * tpp + a[:, q] * tqp
                col_q = a[:, p] * tpq + a[:, q] * tqq
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = np.conj(tpp) * a[p, :] + np.conj(tqp) * a[q, :]
                row_q = np.conj(tpq) * a[p, :] + np.conj(tqq) * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                col_p = v[:, p] * tpp + v[:, q] * tqp
                col_q = v[:, p] * tpq + v[:, q] * tqq
                v[:, p] = col_p
                v[:, q] = col_q

    vals = np.diag(a).real.copy()
    order = np.argsort(vals, kind="stable")
    return vals[order], v[:, order]


class TestHermitianMatrix:
    def test_symmetrization(self):
        raw = np.array([[1.0, 2.0 + 1e-15j], [2.0, 3.0]])
        m = HermitianMatrix(raw)
        assert np.allclose(m.entries, m.entries.conj().T)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotHermitian):
            HermitianMatrix(np.array([[1.0, 2.0], [0.5, 3.0]]))

    def test_rejects_bad_dimension(self):
        with pytest.raises(NotHermitian):
            HermitianMatrix(np.eye(1))
        with pytest.raises(NotHermitian):
            HermitianMatrix(np.eye(7))

    def test_spectrum_sorts(self):
        s = Spectrum([3.0, -1.0, 2.0])
        assert np.array_equal(s.values, [-1.0, 2.0, 3.0])


class TestHermEigen:
    def test_identity(self):
        assert np.allclose(herm_eigen(HermitianMatrix(np.eye(3))).values, [1, 1, 1])

    def test_diagonal(self):
        m = HermitianMatrix(np.diag([3.0, 1.0, -1.0]))
        assert np.allclose(herm_eigen(m).values, [-1.0, 1.0, 3.0])

    def test_arrow_matrix_hand_values(self):
        # 2x2 block [[2, 1], [1, 3]] has eigenvalues (5 +- sqrt 5)/2
        m = HermitianMatrix(np.array([[2.0, 0, 1], [0, 1.0, 0], [1, 0, 3.0]]))
        expected = np.sort([1.0, (5 - np.sqrt(5)) / 2, (5 + np.sqrt(5)) / 2])
        got = herm_eigen(m).values
        assert np.allclose(got, expected, atol=1e-13)
        # independent route: characteristic polynomial roots
        assert np.allclose(got, charpoly_roots(m.entries), atol=1e-10)

    def test_backward_error_random(self):
        rng = np.random.default_rng(7)
        for n in range(2, 7):
            for _ in range(25):
                a = random_hermitian(rng, n, scale=rng.uniform(0.1, 10))
                vals, vecs = jacobi_eigh(HermitianMatrix(a).entries)
                recon = (vecs * vals) @ vecs.conj().T
                norm = np.linalg.norm(a)
                assert np.linalg.norm(recon - (a + a.conj().T) / 2) <= 1e-12 * max(norm, 1e-30)
                # unitarity of the accumulated rotations
                assert np.linalg.norm(vecs @ vecs.conj().T - np.eye(n)) < 1e-13

    def test_matches_charpoly_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            a = random_hermitian(rng, n)
            got = herm_eigen(HermitianMatrix(a)).values
            assert np.allclose(got, charpoly_roots((a + a.conj().T) / 2), atol=1e-8)

    def test_matches_lapack_batch_route(self):
        rng = np.random.default_rng(13)
        mats = np.stack([random_hermitian(rng, 4) for _ in range(40)])
        mats = (mats + np.swapaxes(mats, -1, -2).conj()) / 2
        batch_vals = eigvals_batch(mats)
        for i in range(mats.shape[0]):
            vals, _ = jacobi_eigh(mats[i])
            assert np.allclose(vals, batch_vals[i], atol=1e-12)

    def test_repeated_eigenvalues(self):
        u, _ = np.linalg.qr(
            np.random.default_rng(3).standard_normal((4, 4))
            + 1j * np.random.default_rng(4).standard_normal((4, 4))
        )
        a = (u * np.array([2.0, 2.0, 2.0, 5.0])) @ u.conj().T
        vals = herm_eigen(HermitianMatrix(a)).values
        assert np.allclose(vals, [2, 2, 2, 5], atol=1e-12)

    def test_eigenvalue_sum_is_trace(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            a = random_hermitian(rng, n, scale=rng.uniform(0.01, 100))
            m = HermitianMatrix(a)
            s = herm_eigen(m).values.sum()
            assert abs(s - m.trace()) <= 1e-11 * max(abs(m.trace()), 1.0)


class TestMetricEndomorphism:
    def test_identity_metric_reduces(self):
        g = HermitianMatrix(np.diag([2.0, 1.0, 0.0]))
        got = metric_endomorphism_eigen(HermitianMatrix(np.eye(3)), g)
        assert np.allclose(got.values, [0, 1, 2])

    def test_scalar_metric_divides(self):
        g = HermitianMatrix(np.diag([2.0, 1.0, 0.0]))
        got = metric_endomorphism_eigen(HermitianMatrix(2 * np.eye(3)), g)
        assert np.allclose(got.values, [0, 0.5, 1.0])

    def test_diagonal_pair(self):
        omega = HermitianMatrix(np.diag([1.0, 4.0]))
        g = HermitianMatrix(np.diag([3.0, 8.0]))
        got = metric_endomorphism_eigen(omega, g)
        assert np.allclose(got.values, [2.0, 3.0])
        # brute-force 2x2 oracle: eigenvalues of omega^{-1} g
        brute = np.sort(np.linalg.eigvals(np.diag([1.0, 0.25]) @ g.entries).real)
        assert np.allclose(got.values, brute)

    def test_rejects_indefinite_metric(self):
        with pytest.raises(MetricNotPositive):
            metric_endomorphism_eigen(
                HermitianMatrix(np.diag([1.0, -1.0])), HermitianMatrix(np.eye(2))
            )

    def test_congruence_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            omega = random_hermitian(rng, n)
            omega = omega @ omega.conj().T + 0.1 * np.eye(n)
            g = random_hermitian(rng, n)
            c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            c += 3 * np.eye(n)  # keep well conditioned
            e1 = metric_endomorphism_eigen(HermitianMatrix(omega), HermitianMatrix(g))
            e2 = metric_endomorphism_eigen(
                HermitianMatrix(c.conj().T @ omega @ c),
                HermitianMatrix(c.conj().T @ g @ c),
            )
            scale = max(np.abs(e1.values).max(), 1.0)
            assert np.allclose(e1.values, e2.values, atol=1e-10 * scale)

    def test_weyl_monotonicity(self):
        # adding a PSD form cannot decrease any ascending eigenvalue
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            omega = random_hermitian(rng, n)
            omega = omega @ omega.conj().T + 0.2 * np.eye(n)
            g1 = random_hermitian(rng, n)
            b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            g2 = g1 + b @ b.conj().T
            e1 = metric_endomorphism_eigen(HermitianMatrix(omega), HermitianMatrix(g1))
            e2 = metric_endomorphism_eigen(HermitianMatrix(omega), HermitianMatrix(g2))
            assert np.all(e2.values >= e1.values - 1e-10)


class TestTraceWithMetric:
    def test_identity_cases(self):
        eye = HermitianMatrix(np.eye(3))
        assert trace_with_metric(eye, HermitianMatrix(np.diag([2.0, 1.0, 0.0]))) == pytest.approx(3.0)
        arrow = HermitianMatrix(np.array([[2.0, 0, 1], [0, 1.0, 0], [1, 0, 3.0]]))
        assert trace_with_metric(eye, arrow) == pytest.approx(6.0)

    def test_diagonal_pair(self):
        omega = HermitianMatrix(np.diag([1.0, 4.0]))
        g = HermitianMatrix(np.diag([3.0, 8.0]))
        assert trace_with_metric(omega, g) == pytest.approx(5.0)

    def test_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            omega = random_hermitian(rng, n)
            omega = omega @ omega.conj().T + 0.3 * np.eye(n)
            g = random_hermitian(rng, n)
            om = HermitianMatrix(omega)
            gm = HermitianMatrix(g)
            tr = trace_with_metric(om, gm)
            s = metric_endomorphism_eigen(om, gm).values.sum()
            assert tr == pytest.approx(s, rel=1e-10, abs=1e-10)


def test_congruence_reduce_batch_matches_scalar():
    rng = np.random.default_rng(31)
    n = 3
    omega = random_hermitian(rng, n)
    omega = omega @ omega.conj().T + 0.5 * np.eye(n)
    mats = np.stack([random_hermitian(rng, n) for _ in range(20)])
    reduced, _ = congruence_reduce_batch(mats, omega)
    vals = eigvals_batch(reduced)
    for i in range(20):
        ref = metric_endomorphism_eigen(HermitianMatrix(omega), HermitianMatrix(mats[i]))
        assert np.allclose(vals[i], ref.values, atol=1e-11)


def stressed_batch(rng, m, count, pattern, gap, scale, real):
    """Hermitian rows U diag(lam) U* with the spectra the closed forms find hard.

    ``double`` and ``triple`` make the two or three lowest eigenvalues equal
    in the first half of the rows and ``gap`` apart in the rest, ``scalar``
    rows are c I and ``zero`` rows are 0; every other pattern is shifted by
    a random mean on half of the examples.
    """
    lam = rng.uniform(-1.0, 1.0, (count, m))
    split = np.arange(count) >= count // 2
    if pattern == "double" and m >= 2:
        lam[:, 1] = lam[:, 0] + gap * split
    elif pattern == "triple" and m >= 3:
        lam[:, 1:3] = lam[:, :1] + gap * split[:, None] * np.array([1.0, 2.0])
    elif pattern == "scalar":
        lam[:] = lam[:, :1]
    elif pattern == "zero":
        lam[:] = 0.0
    if pattern != "zero" and rng.random() < 0.5:
        lam += rng.uniform(-5.0, 5.0, (count, 1))
    if pattern in ("scalar", "zero"):
        return scale * lam[:, :, None] * np.eye(m)
    z = rng.standard_normal((count, m, m))
    if not real:
        z = z + 1j * rng.standard_normal((count, m, m))
    u = np.linalg.qr(z)[0]
    h = np.einsum("nik,nk,njk->nij", u, lam, u.conj())
    return scale * (h + np.swapaxes(h, -1, -2).conj()) / 2.0


class TestEigvalsBatch:
    @settings(max_examples=80, deadline=None, database=None, derandomize=True)
    @given(
        m=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        pattern=st.sampled_from(["distinct", "double", "triple", "scalar", "zero"]),
        gap_exp=st.floats(-12.0, -3.0),
        scale_exp=st.floats(-150.0, 150.0),
        real=st.booleans(),
    )
    def test_matches_eigvalsh(self, m, seed, pattern, gap_exp, scale_exp, real):
        rng = np.random.default_rng(seed)
        h = stressed_batch(rng, m, 64, pattern, 10.0**gap_exp, 10.0**scale_exp, real)
        # only the lower triangle is read: put noise above the diagonal
        noisy = np.tril(h) + np.triu(rng.uniform(-1.0, 1.0, h.shape) * np.abs(h).max(), 1)
        before = noisy.copy()
        got = eigvals_batch(noisy)
        assert np.array_equal(noisy, before)
        want = np.linalg.eigvalsh(noisy)
        assert got.shape == want.shape and got.dtype == np.float64
        bound = 64 * np.finfo(float).eps * np.abs(h).max(axis=(-2, -1))
        assert np.all(np.abs(got - want) <= bound[:, None])
        assert np.all(np.diff(got, axis=-1) >= 0.0)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_stacked_shapes_across_blocks(self, m):
        rng = np.random.default_rng(m)
        h = stressed_batch(rng, m, 3 * (EIG_BLOCK // 2 + 1), "distinct", 0.0, 1.0, False)
        h = h.reshape(3, EIG_BLOCK // 2 + 1, m, m)
        got = eigvals_batch(h)
        assert got.shape == (3, EIG_BLOCK // 2 + 1, m)
        assert np.abs(got - np.linalg.eigvalsh(h)).max() <= 64 * np.finfo(float).eps * 6.0
        for shape in ((0, m, m), (2, 0, m, m)):
            assert eigvals_batch(np.zeros(shape, complex)).shape == shape[:-1]

    @pytest.mark.parametrize("m", range(1, 7))
    def test_nan_input_fails_as_in_eigvalsh(self, m):
        # a NaN in the last row of the second block
        h = np.tile(np.eye(m, dtype=complex), (EIG_BLOCK + 5, 1, 1))
        h[-1, m - 1, 0] = np.nan
        if m >= 3:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.eigvalsh(h)
            with pytest.raises(np.linalg.LinAlgError):
                eigvals_batch(h)
        else:  # LAPACK returns NaN for these sizes, and so does the batch
            assert np.array_equal(eigvals_batch(h), np.linalg.eigvalsh(h), equal_nan=True)
