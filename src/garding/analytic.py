"""Analytic function families with exact complex Hessians.

Manufactured problems need the right-hand side sampled from exact second
derivatives, not discrete ones, so every built-in family exposes ``value``
and ``complex_hessian`` evaluated analytically on 2n per-axis coordinate
arrays that broadcast (``BoxGrid.coords``; real axes x_1, y_1, x_2, y_2, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import complex_hessian_from


class Polynomial:
    """Real polynomial in the 2n real coordinates, stored as monomials.

    ``terms`` maps exponent tuples (length 2n) to coefficients.  Provides
    values and exact first/second partial derivatives.
    """

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = nvars
        self.terms = {}
        for expo, c in (terms or {}).items():
            if len(expo) != nvars:
                raise ValueError(f"exponent tuple {expo} has wrong length")
            if not all(e >= 0 and float(e).is_integer() for e in expo):
                raise ValueError(f"exponents must be non-negative integers, got {expo}")
            key = tuple(int(e) for e in expo)
            if c != 0.0:
                self.terms[key] = self.terms.get(key, 0.0) + float(c)

    def value(self, coords) -> np.ndarray:
        """Values at the broadcast shape of the 2n coordinate arrays ``coords``."""
        out = np.zeros(np.broadcast_shapes(*map(np.shape, coords)))
        for expo, c in self.terms.items():
            term = c
            for a, e in enumerate(expo):
                if e:
                    term = term * np.asarray(coords[a], dtype=np.float64) ** e
            out += term
        return out

    def derivative(self, axis: int) -> "Polynomial":
        """Exact partial derivative d/dt_axis; terms constant in t_axis drop out."""
        terms = {}
        for expo, c in self.terms.items():
            if expo[axis]:
                terms[expo[:axis] + (expo[axis] - 1,) + expo[axis + 1 :]] = c * expo[axis]
        return Polynomial(self.nvars, terms)

    def d2(self, a: int, b: int, coords) -> np.ndarray:
        """d^2/(dt_a dt_b) at the broadcast shape of the coordinates it depends on."""
        poly = self.derivative(a).derivative(b)
        used = {i for expo in poly.terms for i, e in enumerate(expo) if e}
        return poly.value([c if i in used else 0.0 for i, c in enumerate(coords)])

    def complex_hessian(self, coords) -> np.ndarray:
        """Exact complex Hessian, entry [k, j] = d_j d_kbar, at the broadcast
        shape of the second derivatives (at least 2n axes): a target whose
        second derivatives vary along few axes gives few distinct rows."""
        m = self.nvars
        d2 = {(a, b): self.d2(a, b, coords)
              for a in range(m) for b in range(a, m) if a == b or a // 2 != b // 2}
        shape = np.broadcast_shapes(*(v.shape for v in d2.values()))
        return complex_hessian_from(lambda a, b: d2[a, b], m // 2,
                                    (1,) * (m - len(shape)) + shape)


def norm_squared(n: int, coeff: float = 1.0) -> Polynomial:
    """|z|^2 = sum_j (x_j^2 + y_j^2), scaled."""
    terms = {}
    for a in range(2 * n):
        expo = [0] * (2 * n)
        expo[a] = 2
        terms[tuple(expo)] = coeff
    return Polynomial(2 * n, terms)



@dataclass(frozen=True)
class RadialProfile:
    """Profile u(s) of a radial function u = u(|z|^2), as a polynomial in s."""

    coeffs: tuple  # u(s) = sum_k coeffs[k] * s^k

    def value(self, s: np.ndarray) -> np.ndarray:
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=np.float64),
                                                np.asarray(self.coeffs))

    def d1(self, s: np.ndarray) -> np.ndarray:
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs))
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=np.float64), c)

    def d2(self, s: np.ndarray) -> np.ndarray:
        c = np.polynomial.polynomial.polyder(np.asarray(self.coeffs), 2)
        return np.polynomial.polynomial.polyval(np.asarray(s, dtype=np.float64), c)


def radial_power(power: int, scale: float = 1.0) -> RadialProfile:
    """u(s) = scale * s^power / power (power >= 1); power 2 gives s^2/2."""
    if power < 1:
        raise ValueError(f"power must be >= 1, got {power}")
    coeffs = [0.0] * (power + 1)
    coeffs[power] = scale / power
    return RadialProfile(tuple(coeffs))

