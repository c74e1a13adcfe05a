"""The subset-sum product operator, its concave normalization, and derivatives.

For an eigenvalue vector lam in R^n and 1 <= p <= n the operator is

    M(lam) = prod over all p-element subsets S of (sum_{i in S} lam_i),

with C(n, p) factors.  Its degree-one normalization

    ftilde(lam) = M(lam)^(1 / C(n, p))

is symmetric, positive and concave on the open cone where every subset sum
is positive, vanishes on the cone boundary, and has gradient

    f_k = (ftilde / C(n, p)) * sum_{S containing k} 1 / sigma_S,

where sigma_S is the subset sum.  Subsets are enumerated in lexicographic
order throughout (itertools.combinations order); this ordering is part of
the documented output contract of :func:`subset_sums_batch`.

The functions operate on stacked rows of eigenvalues and back the
field-scale hot paths of the solver; one eigenvalue vector is a one-row
batch.

Matrices need no eigenvalues.  With A = chi + i ddbar u at a node, the
p-th additive compound K = A^[p] (:attr:`OperatorParams.compound`) is a
C(n, p) x C(n, p) Hermitian matrix, linear in A, whose eigenvalues are the
p-subset sums of the eigenvalues of A (Fiedler, Czech. Math. J. 24, 1974).
So M_p(A) = det(K) for every p: K = A for p = 1, and for p = n - 1 K is
similar to tr(A) I - A, the form in which the (n-1)-plurisubharmonic
literature writes the equation (Fu-Wang-Wu, Math. Res. Lett. 17, 2010;
Tosatti-Weinkove, J. Amer. Math. Soc. 30, 2017).  Then
ftilde = det(K)^(1/C(n, p)), A lies in the cone exactly when K is positive
definite, and the linearization is (ftilde / C(n, p)) tr(K^-1 dK).
:func:`determinant_form_batch` writes K (a box solve pushes it into its
``grid.hessian_table`` once) and
:func:`determinant_linearization_batch` factors it once per matrix and maps
K^-1 back to the n x n coefficients.  Both return plane-backed stacks (see
:mod:`garding.hermitian`) and read a plane-backed input without a copy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .errors import OutsideCone

# most p-subsets an exponent may have: one sum per subset and row (MAX_NODES
# holds a box to n <= 3; MAX_RADIAL_ENTRIES bounds the radial rows)
MAX_SUBSETS = 10_000
# most grid nodes a spec may ask for (box resolution^2n, radial points, each
# [sweep] level): a box solve at n = 3 peaks near 1.2 kB per interior node
# (box-n3-p2-r9: 136 MB over its imports for 7^6 interior nodes), so 2^20
# nodes bound it near 1.2 GB; the largest shipped grid has 9^6 = 531 441
MAX_NODES = 2**20
# bound on the arrays 2-norms are taken over: the squares of MAX_NODES = 2^20
# entries this size sum to at most 2^1020, so no 2-norm over a grid overflows
MAGNITUDE_BOUND = 2.0**500
# most (points + n) x (n + C(n, p)) per radial grid, which bounds the
# eigenvalue rows, the subset sums and the C(n, p) x n membership table: a
# radial Newton step peaks near 120 B per entry at n = 3, so about 0.5 GB
MAX_RADIAL_ENTRIES = 2**22
# most trials x (n + C(n, p)) per structure check: it grows by about 17 B per
# entry (n = 15, p = 7: 124 MB at 800 trials, 211 MB at 1 600), so about 1.1 GB
MAX_TRIAL_ENTRIES = 2**26
SUM_FLOOR = 1e-300  # subset sums below this are treated as boundary values
POSITIVE_FLOOR = np.nextafter(0.0, 1.0)  # least positive double: x < it iff x <= 0


@dataclass(frozen=True)
class OperatorParams:
    """Dimension n, exponent p and the derived subset bookkeeping."""

    n: int
    p: int
    subset_count: int = field(init=False)
    # (subset_count, n) 0/1 membership matrix, lex ordered rows.
    membership: np.ndarray = field(init=False, repr=False, compare=False)
    subsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, int) or not isinstance(self.p, int):
            raise ValueError("n and p must be integers")
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if not 1 <= self.p <= self.n:
            raise ValueError(f"p must satisfy 1 <= p <= n, got p={self.p}, n={self.n}")
        count = comb(self.n, self.p)  # checked before any subset is enumerated
        if count > MAX_SUBSETS:
            raise ValueError(
                f"C({self.n}, {self.p}) = {count} subsets exceed the limit of {MAX_SUBSETS}"
            )
        subsets = tuple(itertools.combinations(range(self.n), self.p))
        m = np.zeros((len(subsets), self.n))
        for row, s in enumerate(subsets):
            m[row, list(s)] = 1.0
        m.setflags(write=False)
        object.__setattr__(self, "subset_count", len(subsets))
        object.__setattr__(self, "membership", m)
        object.__setattr__(self, "subsets", subsets)
        assert self.subset_count == count

    @cached_property
    def compound(self) -> np.ndarray:
        """The p-th additive compound K = A^[p] as a linear map of A.

        K acts on p-vectors as A does on each factor.  Rows and columns
        follow the lexicographic subsets: the diagonal entry of S is
        sum_{k in S} A_kk (the membership row of S), and for T = S - {k} + {i}
        the entry K[T, S] is A_ik, negated when an odd number of the elements
        of S - {k} lie strictly between i and k; every other entry is 0.
        Returned as the (n^2, m^2) matrix of 0 and +-1, m = C(n, p), with
        K.reshape(m * m) = A.reshape(n * n) @ compound.  Built on first use,
        so radial problems, which never form K, do not pay for it.
        """
        n, m = self.n, self.subset_count
        row_of = {s: row for row, s in enumerate(self.subsets)}
        table = np.zeros((n * n, m * m))
        table[:: n + 1, :: m + 1] = self.membership.T
        for col, subset in enumerate(self.subsets):
            for k in subset:
                rest = [j for j in subset if j != k]
                for i in range(n):
                    if i in subset:
                        continue
                    row = row_of[tuple(sorted(rest + [i]))]
                    between = sum(min(i, k) < j < max(i, k) for j in rest)
                    table[i * n + k, row * m + col] = (-1.0) ** between
        table.setflags(write=False)
        return table


def subset_sums_batch(lams: np.ndarray, params: OperatorParams) -> np.ndarray:
    """Rows of p-subset sums for stacked eigenvalue rows (N, n) -> (N, m)."""
    return lams @ params.membership.T


def margins_batch(vals: np.ndarray, p: int) -> np.ndarray:
    """Cone margins of stacked ascending eigenvalue rows (N, n) -> (N,).

    The margin of an ascending row is the sum of its p smallest entries,
    which is the least p-subset sum, so a margin > 0 is cone membership at
    O(n) instead of O(C(n, p)) cost.  A zero margin (the cone boundary)
    counts as outside: the derivative formulas need strict interiority.
    """
    return vals[..., :p].sum(axis=-1)


def _ftilde_rows(lams: np.ndarray, params: OperatorParams, floor: float):
    """(subset sums, ftilde) of stacked rows; OutsideCone unless every sum is >= ``floor``."""
    sums = subset_sums_batch(lams, params)
    outside = ~(sums >= floor).all(axis=-1)  # a NaN sum is outside too
    if outside.any():
        bad = int(np.argmax(outside))
        raise OutsideCone(f"row {bad}: subset sum {sums[bad].min():.6e} at/below boundary", node=bad)
    return sums, np.exp(np.mean(np.log(sums), axis=-1))


def product_batch(lams: np.ndarray, params: OperatorParams) -> np.ndarray:
    """Raw operator values over stacked eigenvalue rows.

    Computed in log space on rows whose factors are all positive; by direct
    product otherwise (so a zero factor yields exactly 0).
    """
    sums = subset_sums_batch(lams, params)
    inside = np.all(sums > 0.0, axis=-1)
    out = np.prod(sums, axis=-1)
    out[inside] = np.exp(np.sum(np.log(sums[inside]), axis=-1))
    return out


def ftilde_batch(lams: np.ndarray, params: OperatorParams) -> np.ndarray:
    """ftilde over stacked eigenvalue rows, via the mean of logs.

    Raises OutsideCone when a subset sum is <= 0; a row with a sum below
    SUM_FLOOR (the cone boundary at double precision) gives 0.0.
    """
    sums, ft = _ftilde_rows(lams, params, POSITIVE_FLOOR)
    return np.where(sums.min(axis=-1) < SUM_FLOOR, 0.0, ft)


def ftilde_grad_batch(lams: np.ndarray, params: OperatorParams):
    """(ftilde, gradient rows) over stacked eigenvalue rows inside the cone.

    Raises OutsideCone when a subset sum is below SUM_FLOOR.
    """
    sums, ft = _ftilde_rows(lams, params, SUM_FLOOR)
    grads = (ft / params.subset_count)[..., None] * ((1.0 / sums) @ params.membership)
    return ft, grads


def determinant_form_batch(mats: np.ndarray, params: OperatorParams):
    """(K, tr A) for stacked Hermitian matrices A, with K = A^[p].

    K is written from :attr:`OperatorParams.compound`; its eigenvalues are
    the p-subset sums, so M_p(A) = det(K), A lies in the cone exactly when K
    is positive definite and the cone margin is the least eigenvalue of K.
    """
    n, m = params.n, params.subset_count
    trace = np.einsum("...ii->...", mats).real
    if params.p == 1:  # the table is the identity
        return mats, trace
    planes = np.moveaxis(mats, (-2, -1), (0, 1)).reshape(n * n, -1)
    form = (params.compound.T @ planes).reshape((m, m) + mats.shape[:-2])
    return np.moveaxis(form, (0, 1), (-2, -1)), trace


def determinant_linearization_batch(params: OperatorParams, form: np.ndarray):
    """Field-scale linearization coefficients from stacked K = determinant_form_batch(A).

    With m = C(n, p), ftilde = det(K)^(1/m) and s = ftilde / m, the
    derivative s tr(K^-1 dK) maps back through the compound table to

        C_kk = s sum_{S containing k} (K^-1)_SS,
        C_ik = s sum over the entries K[T, S] = +-A_ik of +-(K^-1)_TS,

    in the tr(coeffs @ h) convention, and trace_F = s p tr(K^-1), the sum of
    the eigenvalue-space gradient.  Returns (coeffs (..., n, n), trace_F
    (...), ftilde (...)).  K = L D L* is factored once, vectorized over the
    stacked axes with Python loops over m only, and K^-1 = W* D^-1 W with
    W = L^-1; each entry of K^-1 the map reads is formed once.  Raises
    OutsideCone, its node the stack row, when a pivot of D is below SUM_FLOOR.
    """
    n, m = params.n, params.subset_count
    shape = form.shape[:-2]
    b = np.moveaxis(form.reshape(-1, m, m), 0, -1)  # b[i, j] is the plane of K_ij
    low = {}  # low[i, j] = L_ij for i > j
    piv = np.empty((m, b.shape[-1]))
    for j in range(m):
        scaled = [low[j, k] * piv[k] for k in range(j)]  # L_jk d_k
        dj = b[j, j].real - sum((scaled[k] * low[j, k].conj()).real for k in range(j))
        outside = ~(dj >= SUM_FLOOR)  # a NaN pivot is outside too
        if outside.any():
            bad = int(np.argmax(outside))
            raise OutsideCone(f"row {bad}: pivot {dj[bad]:.6e} at/below boundary", node=bad)
        piv[j] = dj
        for i in range(j + 1, m):
            low[i, j] = (b[i, j] - sum(low[i, k] * scaled[k].conj() for k in range(j))) / dj

    w = {}  # w[i, j] = W_ij for i >= j, W = L^-1 unit lower triangular
    for i in range(m):
        w[i, i] = 1.0
        for j in range(i):
            w[i, j] = -low[i, j] - sum(low[i, k] * w[k, j] for k in range(j + 1, i))
    del low  # the map back reads only W and the inverse pivots
    inv_piv = 1.0 / piv
    ft = np.exp(np.mean(np.log(piv), axis=0))
    del piv

    # not recursive: a closure that calls itself is a reference cycle, which
    # keeps W alive after the return until the cyclic collector runs
    def inverse(i, j):  # (K^-1)_ij
        lo, hi = min(i, j), max(i, j)
        entry = sum(np.conj(w[k, lo]) * w[k, hi] * inv_piv[k] for k in range(hi, m))
        return entry if i <= j else np.conj(entry)

    scale = ft / m
    inv_diag = [inverse(s, s).real for s in range(m)]
    out = np.empty((n, n, b.shape[-1]), dtype=np.complex128)
    for i in range(n):
        out[i, i] = scale * sum(inv_diag[s] for s in np.flatnonzero(params.membership[:, i]))
        for k in range(i + 1, n):
            row = params.compound[i * n + k]
            terms = [inverse(*divmod(col, m)) for col in np.flatnonzero(row)]
            terms = [x if sign > 0 else -x for x, sign in zip(terms, row[row != 0])]
            out[i, k] = scale * (sum(terms[1:], terms[0]) if terms else 0.0)
            out[k, i] = out[i, k].conj()
    trace_f = scale * sum(inv_diag) * params.p
    coeffs = np.moveaxis(out, -1, 0).reshape(shape + (n, n))
    return coeffs, trace_f.reshape(shape), ft.reshape(shape)


@dataclass
class StructureViolation:
    prop: str
    witness: np.ndarray
    detail: str


@dataclass
class StructureReport:
    n: int
    p: int
    trials: int
    seed: int
    checks: dict
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def sample_cone_points(
    rng: np.random.Generator,
    params: OperatorParams,
    count: int,
    margin_low: float = 0.01,
    margin_high: float = 2.0,
) -> np.ndarray:
    """Random eigenvalue rows strictly inside the cone.

    Draws Gaussian rows and shifts each along (1,...,1) so the minimum
    p-subset sum (the cone margin) lands uniformly in [margin_low,
    margin_high]; a shift by t moves the margin by exactly p*t.
    """
    lams = rng.standard_normal((count, params.n))
    margins = np.sort(lams, axis=-1)[:, : params.p].sum(axis=-1)
    target = rng.uniform(margin_low, margin_high, size=count)
    lams += ((target - margins) / params.p)[:, None]
    return lams


def structure_check(params: OperatorParams, trials: int, seed: int) -> StructureReport:
    """Randomized audit of the five structural properties of ftilde.

    Positivity inside the cone with boundary vanishing along rays, gradient
    positivity, midpoint concavity, degree-one homogeneity, and the gradient
    sum lower bound ftilde(1,...,1) = p.  Violations are returned with their
    witness points; an empty list means every trial passed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    violations: list[StructureViolation] = []
    checks: dict[str, int] = {}

    def record(prop, mask, lams, details):
        checks[prop] = checks.get(prop, 0) + int(mask.size if mask.ndim else 1)
        bad = np.nonzero(mask)[0]
        for idx in bad[:8]:  # cap stored witnesses per property
            violations.append(StructureViolation(prop, lams[idx].copy(), details(idx)))

    # (f1) positivity strictly inside
    lams = sample_cone_points(rng, params, trials)
    ft = ftilde_batch(lams, params)
    record("f1_positive", ft <= 0.0, lams, lambda i: f"ftilde={ft[i]:.3e}")

    # (f1) vanishing toward the boundary along rays, tail-monitored at
    # t = 1 - 2^-k.  The factor carrying the minimum subset sum scales like
    # (1 - t), so the tail ratio over ten dyadic steps is about
    # 2^(-10 / C(n, p)); the bound 2^(-9 / C(n, p)) leaves a factor
    # 2^(1 / C(n, p)) of slack, where a fixed ratio flags every ray at large C(n, p).
    rays = min(trials, 32)
    inside = sample_cone_points(rng, params, rays, margin_low=0.5, margin_high=1.5)
    boundary = sample_cone_points(rng, params, rays)
    bmargins = np.sort(boundary, axis=-1)[:, : params.p].sum(axis=-1)
    boundary -= (bmargins / params.p)[:, None]  # exact margin 0
    checks["f1_boundary_rays"] = rays
    ks = np.arange(30, 41)
    for ridx in range(rays):
        ts = 1.0 - 0.5**ks
        pts = (1.0 - ts)[:, None] * inside[ridx] + ts[:, None] * boundary[ridx]
        vals = ftilde_batch(pts, params)
        tail_ok = np.all(np.diff(vals) < 0.0) and vals[-1] <= 2 ** (-9 / params.subset_count) * vals[0]
        if not tail_ok:
            violations.append(
                StructureViolation(
                    "f1_boundary",
                    inside[ridx].copy(),
                    f"tail values {vals[0]:.3e} -> {vals[-1]:.3e} not vanishing",
                )
            )

    # (f2) gradient positivity
    lams = sample_cone_points(rng, params, trials)
    _, grads = ftilde_grad_batch(lams, params)
    record(
        "f2_gradient_positive",
        np.any(grads <= 0.0, axis=-1),
        lams,
        lambda i: f"min f_k = {grads[i].min():.3e}",
    )

    # (f3) midpoint concavity with additive slack
    a = sample_cone_points(rng, params, trials)
    b = sample_cone_points(rng, params, trials)
    fa = ftilde_batch(a, params)
    fb = ftilde_batch(b, params)
    fmid = ftilde_batch((a + b) / 2.0, params)
    gap = fmid - (fa + fb) / 2.0
    record("f3_concavity", gap < -1e-12, a, lambda i: f"midpoint deficit {gap[i]:.3e}")

    # (f4) homogeneity of degree one, relative tolerance
    lams = sample_cone_points(rng, params, trials)
    ts = rng.uniform(0.1, 10.0, size=trials)
    f0 = ftilde_batch(lams, params)
    f1 = ftilde_batch(ts[:, None] * lams, params)
    rel = np.abs(f1 - ts * f0) / np.maximum(np.abs(ts * f0), 1e-30)
    record("f4_homogeneity", rel > 1e-12, lams, lambda i: f"rel err {rel[i]:.3e}")

    # (f5) gradient sum >= ftilde(1,...,1) = p
    lams = sample_cone_points(rng, params, trials)
    _, grads = ftilde_grad_batch(lams, params)
    total = grads.sum(axis=-1)
    record(
        "f5_trace_lower_bound",
        total < params.p - 1e-10,
        lams,
        lambda i: f"sum f_k = {total[i]:.12e} < p = {params.p}",
    )

    # consistency anchor for the normalization: ftilde at the all-ones point
    ones = np.ones(params.n)
    f_ones = float(ftilde_batch(ones[None, :], params)[0])
    if abs(f_ones - params.p) > 1e-12 * params.p:
        violations.append(
            StructureViolation("normalization", ones, f"ftilde(1,..,1) = {f_ones!r}")
        )
    checks["normalization"] = 1

    return StructureReport(
        n=params.n, p=params.p, trials=trials, seed=seed, checks=checks, violations=violations
    )
