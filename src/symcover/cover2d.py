"""Weighted rectangle covers of the n x n cross-monomial matrix.

The matrix cell (i, j) stands for the bilinear monomial x_i * y_j.  A
rectangle R(I, J) covers the cells I x J and corresponds to the single
bilinear multiplication (sum_{i in I} x_i)(sum_{j in J} y_j).  The goal
state is a weighted cover whose per-cell covering multiplicity, mod m,
is 0 on the diagonal and a unit-pattern value off it: congruent to 1
modulo at least one prime-power factor of m and 0 modulo each factor
where it is not 1.

The route: a digit-based initial cover whose multiplicity at (i, j) is
the Hamming distance of the base-N expansions of i and j, then a
transformation that replaces the cover by the subset-intersections
prescribed by an indicator polynomial's monomials.

A rectangle is the k = 2 case of a coverkd box, so this module keeps
only the digit construction and the s2 entry points into coverkd.
"""

from __future__ import annotations

from dataclasses import dataclass

from .zmod import Modulus
from .sympoly import SymmetricPolynomial, bbr_construct
from .coverkd import (
    Box,
    PropertyReport,
    WeightedBoxCover,
    _check_properties,
    _counts,
    _transform,
    mask_of,
)


@dataclass(frozen=True)
class DigitScheme:
    """Base-N positional encoding of the index values 1..n.

    Digit position 1 is the least significant.  base**digits >= n + 1,
    so every index fits in `digits` digits.
    """

    n: int
    base: int
    digits: int

    def digits_of(self, i: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.digits):
            out.append(i % self.base)
            i //= self.base
        return tuple(out)

    def hamming(self, i: int, j: int) -> int:
        return sum(a != b for a, b in zip(self.digits_of(i), self.digits_of(j)))


def WeightedRectCover(
    n: int, mod: Modulus | None, items: list[tuple[Box, int]], meta: dict | None = None
) -> WeightedBoxCover:
    """A weighted rectangle cover over indices 1..n: a k = 2 box cover."""
    return WeightedBoxCover(n, 2, mod, items, {} if meta is None else meta)


def digit_scheme(n: int) -> DigitScheme:
    """N = max(2, ceil(log2 n)); smallest g with N**g >= n + 1."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    base = max(2, (n - 1).bit_length())
    g = 1
    while base**g < n + 1:
        g += 1
    return DigitScheme(n, base, g)


def initial_cover(n: int, mod: Modulus | None = None) -> WeightedBoxCover:
    """One unit-weight rectangle per (digit position t, digit value l).

    Rows are the indices whose t-th digit equals l, columns those whose
    t-th digit differs, so cell (i, j) is covered once per position
    where the expansions of i and j disagree: its multiplicity is the
    Hamming distance, between 1 and g off the diagonal and 0 on it.
    """
    scheme = digit_scheme(n)
    items: list[tuple[Box, int]] = []
    digits = {i: scheme.digits_of(i) for i in range(1, n + 1)}
    full = (1 << (n + 1)) - 2  # every index 1..n
    for t in range(scheme.digits):
        for l in range(scheme.base):
            rows = mask_of([i for i in digits if digits[i][t] == l])
            rect = Box((rows, full ^ rows))
            if not rect.is_empty:
                items.append((rect, 1))
    return WeightedRectCover(n, mod, items, {"N": scheme.base, "g": scheme.digits})


def multiplicity_table(cover: WeightedBoxCover) -> list[list[int]]:
    """All n*n multiplicities at once (row-major, 0-indexed)."""
    counts = _counts(cover).tolist()
    if cover.mod:
        counts = list(map(cover.mod.m.__rmod__, counts))
    n = cover.n
    return [counts[r * n : (r + 1) * n] for r in range(n)]


def transform(cover: WeightedBoxCover, f: SymmetricPolynomial) -> WeightedBoxCover:
    """Replace the rectangle cover by f's monomial intersections."""
    return _transform(cover, f)


def verify_s2_properties(cover: WeightedBoxCover) -> PropertyReport:
    """Check every cell: diagonal counts are 0 mod m, off-diagonal counts
    are 1 modulo some prime-power factor and 0 modulo each factor where
    they are not 1."""
    return _check_properties(cover)


def build_s2_cover(n: int, mod: Modulus) -> WeightedBoxCover:
    """Initial digit cover -> indicator polynomial -> transformation.

    After the transformation the multiplicity of off-diagonal (i, j) is
    the indicator value at the Hamming distance of i and j, which is the
    unit-pattern property; diagonal cells are never covered because each
    stored rectangle has disjoint row and column sets.
    """
    mod.require_composite_nonprimepower()
    base = initial_cover(n, mod)
    f = bbr_construct(mod, d=base.meta["g"], ell=len(base.items))
    result = transform(base, f)
    result.meta["d"] = base.meta["g"]
    return result


def transformed_weights(cover: WeightedBoxCover) -> SymmetricPolynomial:
    """Reconstruct the indicator polynomial recorded by a transformation."""
    if cover.mod is None or "bbr_coeffs" not in cover.meta:
        raise ValueError("cover carries no transformation metadata")
    return SymmetricPolynomial(
        cover.meta["h"], tuple(cover.meta["bbr_coeffs"]), cover.mod
    )
