"""Exact arithmetic over Z_m and its prime-power components.

A composite modulus m is kept together with its full factorization
m = p_1^e_1 * ... * p_r^e_r.  Everything downstream (indicator
polynomials, cover verification, coefficient checks) works per prime
power and recombines by the Chinese remainder theorem, so the factored
form is the primary object, not the bare integer.
"""

from __future__ import annotations

import math
from collections import namedtuple

class NotInvertibleError(ValueError):
    """Raised when an element has no multiplicative inverse mod m."""


class UnsupportedModulusError(ValueError):
    """Raised when a construction needs more prime factors than m has,
    or when m has no factorization by trial division up to 2**20."""


class Modulus(namedtuple("Modulus", "m factors prime_powers")):
    """A modulus m >= 2 with its prime-power factorization.

    factors is sorted by prime and satisfies prod(p**e) == m;
    prime_powers holds each p**e, computed once from factors.
    """

    __slots__ = ()

    def __new__(cls, m: int, factors: tuple[tuple[int, int], ...]) -> Modulus:
        return super().__new__(cls, m, factors, tuple(p**e for p, e in factors))

    def __getnewargs__(self) -> tuple:
        return self.m, self.factors  # copy and pickle rebuild through __new__

    @property
    def r(self) -> int:
        return len(self.factors)

    def residues(self, x: int) -> list[int]:
        """Decompose x into its residue vector (one entry per factor)."""
        return [x % q for q in self.prime_powers]

    def require_composite_nonprimepower(self) -> None:
        if self.r < 2:
            raise UnsupportedModulusError(
                f"modulus {self.m} is a prime power; need at least two distinct primes"
            )

    def __str__(self) -> str:
        parts = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
        return f"{self.m} = {parts}"


_TRIAL_LIMIT = 2**20  # the last trial divisor; reaching it takes about 0.1 s


def factorize(m: int) -> Modulus:
    """Factor m >= 2 by trial division and return it as a Modulus.
    Raises UnsupportedModulusError when the divisor passes 2**20 while
    the cofactor left is still at least its square."""
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    factors = []
    rest = m
    p = 2
    while p * p <= rest:
        if p > _TRIAL_LIMIT:
            raise UnsupportedModulusError(
                f"modulus {m} is not factored by trial division up to 2**20: {rest} is left"
            )
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return Modulus(m, tuple(factors))


def crt_combine(rv: list[int], mod: Modulus) -> int:
    """Return the unique x in [0, m) with x = rv[i] mod p_i^e_i for every i."""
    if len(rv) != mod.r:
        raise ValueError(
            f"residue vector has {len(rv)} entries, modulus has {mod.r} factors"
        )
    x = 0
    q_done = 1
    for res, q in zip(rv, mod.prime_powers):
        # Lift x (a solution mod q_done) to a solution mod q_done * q.
        t = ((res - x) * pow(q_done, -1, q)) % q
        x += q_done * t
        q_done *= q
    return x % mod.m


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a mod m; raises NotInvertibleError if gcd(a, m) != 1."""
    g = math.gcd(a, m)
    if g != 1:
        raise NotInvertibleError(f"{a} is not invertible mod {m}: gcd = {g}")
    return pow(a, -1, m)


def astrong_coeff_status(
    target: int, actual: int, mod: Modulus
) -> tuple[bool, int | None]:
    """Per-value acceptance test used by every cover and coefficient check.

    `actual` stands in for `target` mod m when it agrees with `target`
    modulo at least one prime-power factor and is 0 modulo every factor
    where it disagrees.  Returns (ok, index of first agreeing factor).

    With target = 0 this forces actual = 0 mod m; with target = 1 it is
    exactly the unit-pattern condition on covering multiplicities.
    """
    agree = None
    ok = True
    for i, q in enumerate(mod.prime_powers):
        if target % q == actual % q:
            if agree is None:
                agree = i
        elif actual % q != 0:
            ok = False
    return (ok and agree is not None), agree
