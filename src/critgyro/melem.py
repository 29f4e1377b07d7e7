"""Exact single- and two-body matrix elements over the Fock modes.

Every element integrand is a polynomial times exp(-x), and the elements
integrate it exactly: each Laguerre factor is expanded into integer
monomial coefficients over an integer denominator, the integral of
x^k exp(-x) is k!, and the whole integral becomes one integer numerator
over one integer denominator, converted to float once (int / int division
is correctly rounded). Elements that vanish come out as exactly 0.0, where
a quadrature rule would leave the remainder of terms of order (2 l_max)!
that cancel. Two families of elements feed the many-body Hamiltonian:

  * V(k1, k2; A): one-body element of the quadrupolar trap deformation
    (A/2) M w_perp^2 (x^2 - y^2), nonzero only for m2 = m1 +- 2,
  * U(k1, k2, l1, l2; g): two-body contact element (g hbar^2/M) delta2(r)
    for bosons frozen in the lowest axial state, nonzero only when
    m_k1 + m_k2 = m_l1 + m_l2.

In trap units the condensate self-element is U(0000) = g / (2 pi) and the
lowest quadrupole element is V((0,0),(0,2)) = A / (2 sqrt 2) * I1 = A sqrt2/4.
Raw cached values exclude the g and A factors so one cache serves every
parameter combination.

A contact element factors over its creation pair and its annihilation
pair. Each pair contributes one `_pair_factor`: the integer product of its
two Laguerre polynomials over an integer denominator, the products of n!
and (n+|m|)! over both modes, and the |m| sum. `ElementCache.build` forms
one per mode pair, and `integral_i2` uses the same helpers. The bits
equal those of expanding all four factors at once: integer products are
exact in any grouping, so the integral and the norm ratio are the same
int / int quotients, each correctly rounded, and the float steps
2^(-|m| sum / 2) / (2 pi) * norm * I2 keep one order.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial, pi, sqrt
from operator import mul
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .fock import Mode

#: selection distance of the quadrupole coupling, in units of m
_QUAD_DELTA_M = 2


def _half(total: int) -> int:
    """Half of an |m| sum; the selection rules only ever produce even sums."""
    if total % 2:
        raise ParameterError(f"element integral needs an even |m| sum, got {total}")
    return total // 2


@lru_cache(maxsize=None)
def _laguerre_ints(n: int, alpha: int, halve: bool) -> tuple[tuple[int, ...], int]:
    """(c, d) with L_n^alpha(y) = sum_k c_k x^k / d for y = x, or y = x/2 if halve.

    L_n^alpha(x) = sum_k (-1)^k C(n+alpha, n-k) x^k / k!; the denominator
    d = n! (times 2^n when halving) makes every c_k an integer.
    """
    scale = 2 if halve else 1
    coeffs = tuple(
        (-1) ** k * comb(n + alpha, n - k) * (factorial(n) // factorial(k))
        * scale ** (n - k)
        for k in range(n + 1)
    )
    return coeffs, factorial(n) * scale**n


def _poly_mul(a, b) -> list[int]:
    """Coefficients of the product of two integer polynomials."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _factorials(modes) -> list[int]:
    """0!, 1!, ... up to the highest moment a contact element over `modes`
    integrates: half the |m| sum of four modes plus their four degrees."""
    top = (2 * max((abs(m) for _, m in modes), default=0)
           + 4 * max((n for n, _ in modes), default=0))
    return list(accumulate(range(1, top + 1), mul, initial=1))


def integral_i1(k1: Mode, k2: Mode) -> float:
    """Radial overlap integral of two modes against x^((|m1|+|m2|+2)/2) e^-x.

    Exact: the only rounding is the final conversion to float.
    """
    (n1, m1), (n2, m2) = k1, k2
    (c1, d1), (c2, d2) = _laguerre_ints(n1, abs(m1), False), _laguerre_ints(n2, abs(m2), False)
    power = _half(abs(m1) + abs(m2) + 2)
    poly = _poly_mul(c1, c2)
    return sum(c * factorial(power + k) for k, c in enumerate(poly)) / (d1 * d2)


class _Pair(NamedTuple):
    """What a contact element needs of one mode pair: the product of the two
    half-argument Laguerre factors as poly / den, the products of n! and of
    (n+|m|)! over both modes, and their |m| sum. An element pairs two."""

    poly: list[int]
    den: int
    n_fact: int
    nm_fact: int
    am: int


def _pair_factor(ka: Mode, kb: Mode) -> _Pair:
    (na, ma), (nb, mb) = ka, kb
    (ca, da), (cb, db) = _laguerre_ints(na, abs(ma), True), _laguerre_ints(nb, abs(mb), True)
    return _Pair(_poly_mul(ca, cb), da * db, factorial(na) * factorial(nb),
                 factorial(na + abs(ma)) * factorial(nb + abs(mb)), abs(ma) + abs(mb))


def _contact_integral(p: _Pair, q: _Pair, fact) -> float:
    """I2 of the four modes of p and q: the integral of x^(|m| sum / 2) e^-x
    times the four Laguerre factors, as one int / int division."""
    num = 0
    for i, a in enumerate(p.poly, _half(p.am + q.am)):
        for k, b in enumerate(q.poly, i):
            num += a * b * fact[k]
    return num / (p.den * q.den)


def _contact_raw(p: _Pair, q: _Pair, fact) -> float:
    """The contact element of the modes of p and q with g divided out."""
    norm = sqrt(p.n_fact * q.n_fact / (p.nm_fact * q.nm_fact))
    return 2.0 ** (-(p.am + q.am) / 2) / (2 * pi) * norm * _contact_integral(p, q, fact)


def integral_i2(k1: Mode, k2: Mode, l1: Mode, l2: Mode) -> float:
    """Four-mode contact overlap against x^(sum|m|/2) e^-x with half-argument Laguerres.

    Exact and independent of the order of the modes: the only rounding is
    the final conversion to float.
    """
    return _contact_integral(_pair_factor(k1, k2), _pair_factor(l1, l2),
                             _factorials((k1, k2, l1, l2)))


def _norm_sqrt(quad) -> float:
    """sqrt of prod n!/(n+|m|)! over the modes, rounded once before the root."""
    num = den = 1
    for n, m in quad:
        num *= factorial(n)
        den *= factorial(n + abs(m))
    return sqrt(num / den)


def pairs_by_total_m(modes) -> dict[int, list[tuple[int, int]]]:
    """Mode index pairs (a, b), a <= b, grouped by m_a + m_b: the pairs a
    contact element can couple. Groups and pairs run in first-seen order."""
    table: dict[int, list[tuple[int, int]]] = {}
    for a in range(len(modes)):
        for b in range(a, len(modes)):
            table.setdefault(modes[a].m + modes[b].m, []).append((a, b))
    return table


@dataclass
class ElementCache:
    """Parameter-free element tables over a fixed mode list.

    v_raw[i, j] carries everything of the deformation element except the
    anisotropy A; u_raw maps index quadruples (a, b, c, d) to the contact
    element with the interaction g divided out. A key holds one image of
    each element under the two-body symmetries (swaps within the creation
    pair, within the annihilation pair, and of the two pairs): the one with
    a <= b, c <= d and (a, b) <= (c, d). Both stay valid for every (g, A)
    pair: A * v_raw[i, j] and g * u_raw[key] are its elements V and U.

    `build` forms the factor of each pair of `pairs_by_total_m` once, and
    each key (p, q) costs one product of the two pairs' polynomials against
    a factorial table (the module docstring says why the bits hold).
    """

    modes: tuple[Mode, ...]
    v_raw: np.ndarray
    u_raw: dict = field(repr=False)

    @classmethod
    def build(cls, modes) -> "ElementCache":
        modes = tuple(Mode(*k) for k in modes)
        nm = len(modes)

        v_raw = np.zeros((nm, nm))
        for i, ki in enumerate(modes):
            for j, kj in enumerate(modes):
                if abs(kj.m - ki.m) == _QUAD_DELTA_M:
                    v_raw[i, j] = 0.25 * _norm_sqrt((ki, kj)) * integral_i1(ki, kj)

        # canonical keys are (p, q) for sorted pairs p <= q of equal total m
        fact = _factorials(modes)
        u_raw: dict[tuple[int, int, int, int], float] = {}
        for pairs in pairs_by_total_m(modes).values():
            factors = [_pair_factor(modes[a], modes[b]) for a, b in pairs]
            for i, (p, fp) in enumerate(zip(pairs, factors)):
                for q, fq in zip(pairs[i:], factors[i:]):
                    u_raw[p + q] = _contact_raw(fp, fq, fact)
        return cls(modes=modes, v_raw=v_raw, u_raw=u_raw)
