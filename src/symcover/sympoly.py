"""Multilinear symmetric polynomials over Z_m in the elementary-symmetric basis.

A symmetric multilinear polynomial in `ell` 0/1 variables is stored as
coefficients c_0..c_D of the elementary symmetric polynomials e_0..e_D.
On an input of Hamming weight w it evaluates to sum_t c_t * C(w, t),
so the whole object is equivalent to its weight-value table on 0..D.
That equivalence drives everything here: constructions are done in the
weight-value domain and converted back by binomial inversion.

The centerpiece is `bbr_construct`, a Barrington-Beigel-Rudich style
indicator polynomial: low degree, zero exactly at weight 0 among weights
up to d, and with per-prime-power values restricted to {0, 1}.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

from .zmod import Modulus, crt_combine


class SymmetricPolynomial(namedtuple("SymmetricPolynomial", "ell coeffs mod")):
    """f(z) = sum_t coeffs[t] * e_t(z) over Z_m, trailing zeros trimmed."""

    __slots__ = ()

    def __new__(cls, ell: int, coeffs: tuple[int, ...], mod: Modulus) -> SymmetricPolynomial:
        if len(coeffs) - 1 > ell:
            raise ValueError(f"degree {len(coeffs) - 1} exceeds variable count {ell}")
        return super().__new__(cls, ell, coeffs, mod)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def weight_table(self, up_to: int | None = None) -> list[int]:
        """Values on 0/1 points of Hamming weight 0..up_to (default: ell)."""
        hi = self.ell if up_to is None else up_to
        return [weight_value(self, w) for w in range(hi + 1)]


class ExponentChoice(namedtuple("ExponentChoice", "exponents degree_bound")):
    """Per-factor threshold exponents a_i with prod p_i^a_i >= d+1.

    degree_bound is max_i (2*e_i - 1) * (p_i^a_i - 1), the degree the
    indicator construction will not exceed.
    """

    __slots__ = ()


def _trim(coeffs: list[int]) -> tuple[int, ...]:
    d = len(coeffs) - 1
    while d > 0 and coeffs[d] == 0:
        d -= 1
    return tuple(coeffs[: d + 1])


def weight_value(f: SymmetricPolynomial, w: int) -> int:
    """Value of f on any 0/1 input with exactly w ones."""
    if not 0 <= w <= f.ell:
        raise ValueError(f"weight {w} outside 0..{f.ell}")
    return sum(c * math.comb(w, t) for t, c in enumerate(f.coeffs)) % f.mod.m


def from_weight_values(values: list[int], ell: int, mod: Modulus) -> SymmetricPolynomial:
    """Unique degree-<=D symmetric multilinear interpolant of the table.

    Solves v_w = sum_{t<=w} c_t * C(w, t) by forward substitution; the
    diagonal entries C(t, t) = 1 are units in any Z_m, so no division
    is ever needed.  Each C(w, t) is math.comb's exact integer, reduced
    with the sum: Z_m has zero divisors, so the binomial's quotient form
    is not available there.
    """
    if len(values) - 1 > ell:
        raise ValueError(f"table of length {len(values)} needs ell >= {len(values) - 1}")
    m = mod.m
    coeffs: list[int] = []
    for w, v in enumerate(values):
        acc = sum(coeffs[t] * math.comb(w, t) for t in range(w)) % m
        coeffs.append((v - acc) % m)
    return SymmetricPolynomial(ell, _trim(coeffs), mod)


def choose_exponents(mod: Modulus, d: int) -> ExponentChoice:
    """Pick a_1..a_r with prod p_i^a_i >= d+1 minimizing the degree bound.

    Exhaustive over a_i <= ceil(log_{p_i}(d+1)); raising any a_i past
    that can only worsen max_i (2e_i-1)(p_i^a_i - 1).  Ties go to the
    lexicographically smallest tuple, so the result is deterministic.
    """
    if d < 1:
        raise ValueError(f"threshold d must be >= 1, got {d}")

    def bound(exponents: tuple[int, ...]) -> int:
        return max((2 * e - 1) * (p**a - 1) for (p, e), a in zip(mod.factors, exponents))

    ranges = [range(next(a for a in itertools.count() if p**a > d) + 1) for p, _ in mod.factors]
    enough = (
        exponents
        for exponents in itertools.product(*ranges)
        if math.prod(p**a for (p, _), a in zip(mod.factors, exponents)) > d
    )
    best = min(enough, key=bound)  # product order is lexicographic: ties keep the first
    return ExponentChoice(best, bound(best))


def bbr_construct(mod: Modulus, d: int, ell: int) -> SymmetricPolynomial:
    """Low-degree indicator of "weight is nonzero", valid up to weight d.

    The returned f satisfies, with m = p_1^e_1 * ... * p_r^e_r:

      (i)  f(0) = 0 and f(w) != 0 mod m for 1 <= w <= d;
      (ii) for every weight w <= ell and every factor i, the value of f
           mod p_i^e_i is 0 or 1, and any value nonzero mod m is 1 mod
           at least one factor.

    Per factor i the indicator [w mod p_i^a_i != 0] is realized mod p_i
    by 1 - prod_{t<a_i} (1 - e_{p_i^t}(z)^(p_i - 1)): by Lucas' theorem
    e_{p^t} evaluates to the t-th base-p digit of w, and Fermat turns a
    nonzero digit into 1.  The table entry at weight w is the CRT
    combination of these bits, one per factor, and f is the binomial
    inversion of the table on weights 0..D, D = min(degree bound, ell).
    The Beigel-Tarui lift of that expression to mod p_i^e_i keeps every
    bit and has degree (2e_i-1)(p_i^a_i-1), so the lifts combined by CRT
    give a polynomial in ell variables of degree at most D, which its
    values on weights 0..D determine: f is that polynomial, and (ii)
    holds at every weight up to ell.  The lift is never run; it only
    sets the bound that choose_exponents balances.

    Since prod p_i^a_i > d, no weight in 1..d is divisible by every
    p_i^a_i, which gives (i).
    """
    mod.require_composite_nonprimepower()
    if not 1 <= d <= ell:
        raise ValueError(f"need 1 <= d <= ell, got d={d}, ell={ell}")
    choice = choose_exponents(mod, d)
    degree = min(choice.degree_bound, ell)
    table = []
    for w in range(degree + 1):
        bits = [int(w % p**a != 0) for (p, _), a in zip(mod.factors, choice.exponents)]
        table.append(crt_combine(bits, mod))
    return from_weight_values(table, ell, mod)
