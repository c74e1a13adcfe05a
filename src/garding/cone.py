"""Cone membership, margins and level sets.

The margin of an ascending eigenvalue vector is the sum of its p smallest
entries, which equals the minimum over all p-subset sums; positivity of the
margin is therefore equivalent to cone membership, at O(n) instead of
O(C(n, p)) cost.  Boundary points (margin exactly 0) count as outside:
derivative formulas require strict interiority.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import least
from .hermitian import Spectrum, congruence_reduce_batch, eigvals_batch
from .operator import OperatorParams, eval_ftilde


@dataclass(frozen=True)
class ConeMargin:
    """Margin (sum of the p smallest eigenvalues) and ftilde when inside."""

    margin: float
    ftilde_value: float | None

    @property
    def inside(self) -> bool:
        return self.margin > 0.0


def cone_margin(lam: Spectrum, params: OperatorParams) -> ConeMargin:
    v = lam.values
    if len(v) != params.n:
        raise ValueError(f"length {len(v)} does not match n={params.n}")
    margin = float(margins_batch(v[None], params.p)[0])
    ft = eval_ftilde(lam, params) if margin > 0.0 else None
    return ConeMargin(margin=margin, ftilde_value=ft)


def in_level_set(lam: Spectrum, params: OperatorParams, psi_tilde: float) -> bool:
    """Membership in {margin > 0 and ftilde >= psi_tilde}."""
    if psi_tilde <= 0.0:
        raise ValueError(f"psi_tilde must be positive, got {psi_tilde}")
    cm = cone_margin(lam, params)
    return cm.inside and cm.ftilde_value >= psi_tilde


def margins_batch(vals: np.ndarray, p: int) -> np.ndarray:
    """Margins for stacked ascending eigenvalue rows (N, n) -> (N,)."""
    return vals[..., :p].sum(axis=-1)


def admissibility_scan(g_field, omega, params: OperatorParams):
    """Minimum cone margin over a matrix field and its argmin node.

    ``g_field`` is a MatrixField; ``omega`` is a constant Hermitian metric
    matrix or None for the identity.
    """
    omega_entries = None if omega is None else getattr(omega, "entries", np.asarray(omega))
    reduced, _ = congruence_reduce_batch(g_field.values, omega_entries)
    return least(margins_batch(eigvals_batch(reduced), params.p), g_field.grid.node_of_flat)
