"""Coefficient-level acceptance check between two multilinear polynomials.

A polynomial g stands in for a target f modulo a composite m when,
monomial by monomial, g's coefficient agrees with f's modulo at least
one prime-power factor of m and is 0 modulo every factor where they
disagree.  The relation constrains the written form, not the values,
and it is not symmetric in f and g.

The check iterates the union of both supports, so coefficients present
on either side only are compared against 0.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

from .zmod import Modulus, astrong_coeff_status
from .circuit import CoefficientMap, Monomial, VariableSpace, group_names


@dataclass
class MonomialWitness:
    monomial: Monomial
    target: int
    actual: int
    residue_pairs: list[tuple[int, int]]  # (target, actual) per factor
    agreeing_factor: int | None

    def line(self) -> str:
        mono = "*".join(f"{g}{i}" for g, i in self.monomial) or "1"
        pairs = " ".join(f"{a}|{b}" for a, b in self.residue_pairs)
        return f"{mono}: target {self.target} actual {self.actual} residues {pairs}"


@dataclass
class AStrongReport:
    ok: bool
    violations: list[MonomialWitness]
    checked: int

    def summary(self) -> str:
        if self.ok:
            return f"pass ({self.checked} monomials)"
        return f"fail ({len(self.violations)} of {self.checked} monomials)"


def target_coefficients(n: int, k: int, ordered: bool = False) -> CoefficientMap:
    """The coefficient map of the degree-k elementary symmetric target.

    unordered: coefficient 1 on each of the C(n, k) square-free
    monomials in the single group; ordered: coefficient 1 on each
    distinct-index tuple across the k groups, one monomial per ordering.
    Monomials list their variables in sorted order; each (group, i) is
    one shared tuple.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    groups = group_names(k) if ordered else ("x",)
    # ids[l][i] is variable i of the l-th group in sorted name order
    ids = [[(g, i) for i in range(n + 1)] for g in sorted(groups)]
    if ordered:
        # renaming positions maps the distinct-index tuples onto themselves,
        # so pairing each one with the sorted names yields the same key set
        perms = itertools.permutations(range(1, n + 1), k)
        pick = itertools.repeat(list.__getitem__)
        monos = map(tuple, map(map, pick, itertools.repeat(ids), perms))
    else:
        monos = itertools.combinations(ids[0][1:], k)
    return CoefficientMap(VariableSpace(groups, n), dict.fromkeys(monos, 1))


def check_astrong(
    b: CoefficientMap, a: CoefficientMap, mod: Modulus
) -> AStrongReport:
    """Does b's written form stand in for a's modulo mod?

    Per monomial in the union of supports: some factor must satisfy
    a = b, and every disagreeing factor must have b = 0.  A monomial
    missing from a map counts as coefficient 0 there; in particular a
    stray monomial in b must vanish mod every factor, hence mod m.

    Monomials are tallied per distinct (target, actual) pair and each
    pair is judged once; only monomials of a failing pair are sorted.
    """
    if b.vars != a.vars:
        raise ValueError(
            f"coefficient maps live on different variable spaces: "
            f"{b.vars} vs {a.vars}"
        )
    ac, bc = a.coeffs, b.coeffs
    # (target, actual) over a's support; actual None where b stores nothing
    tally = Counter(zip(ac.values(), map(bc.get, ac)))
    unstored = sum(count for (_, bv), count in tally.items() if bv is None)
    stray = []
    if len(bc) > len(ac) - unstored:
        stray = [*itertools.filterfalse(ac.__contains__, bc)]
        tally.update(zip(itertools.repeat(0), map(bc.__getitem__, stray)))
    status = {pair: astrong_coeff_status(pair[0], pair[1] or 0, mod) for pair in tally}
    failing = {pair for pair, (ok, _) in status.items() if not ok}
    violations: list[MonomialWitness] = []
    if failing:
        pairs_of_a = zip(ac.values(), map(bc.get, ac))
        found = [
            *itertools.compress(ac, map(failing.__contains__, pairs_of_a)),
            *(mono for mono in stray if (0, bc[mono]) in failing),
        ]
        for mono in sorted(found):
            pair = (ac.get(mono, 0), bc.get(mono))
            av, bv = pair[0], pair[1] or 0
            residues = [(av % q, bv % q) for q in mod.prime_powers]
            violations.append(MonomialWitness(mono, av, bv, residues, status[pair][1]))
    return AStrongReport(not violations, violations, len(ac) + len(stray))
