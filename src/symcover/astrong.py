"""Coefficient-level acceptance check between two multilinear polynomials.

A polynomial g stands in for a target f modulo a composite m when,
monomial by monomial, g's coefficient agrees with f's modulo at least
one prime-power factor of m and is 0 modulo every factor where they
disagree.  The relation constrains the written form, not the values,
and it is not symmetric in f and g.

The check iterates the union of both supports, so coefficients present
on either side only are compared against 0.  Two cell tables of one
shape are judged cell by cell, through one packed byte code per cell
when they hold 0/1 targets and actuals below 128 in bytes, and any
other pair of maps by lookups.
"""

from __future__ import annotations

import itertools
from collections import Counter, namedtuple
from collections.abc import Mapping

from .zmod import Modulus, astrong_coeff_status
from .circuit import CellTable, Monomial, cell_monomials
from .coverkd import _repeated_cells

ALL_CODES = bytes(range(256))


class MonomialWitness(namedtuple("MonomialWitness", "monomial target actual")):
    __slots__ = ()

    def line(self, mod: Modulus) -> str:
        """The monomial, both coefficients and their residues per factor."""
        mono = "*".join(f"{g}{i}" for g, i in self.monomial) or "1"
        pairs = " ".join(f"{self.target % q}|{self.actual % q}" for q in mod.prime_powers)
        return f"{mono}: target {self.target} actual {self.actual} residues {pairs}"


class AStrongReport(namedtuple("AStrongReport", "ok violations checked")):
    __slots__ = ()

    def summary(self) -> str:
        if self.ok:
            return f"pass ({self.checked} monomials)"
        return f"fail ({len(self.violations)} of {self.checked} monomials)"


def target_coefficients(n: int, k: int, ordered: bool = False) -> Mapping[Monomial, int]:
    """The coefficient map of the degree-k elementary symmetric target.

    unordered: coefficient 1 on each of the C(n, k) square-free
    monomials in the single group, variables in index order, as a dict;
    ordered: coefficient 1 on each distinct-index cell across the k
    groups, one monomial per ordering, as a CellTable.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not ordered:
        return dict.fromkeys(itertools.combinations([("x", i) for i in range(1, n + 1)], k), 1)
    distinct = bytearray(b"\1") * n**k
    for i in _repeated_cells(n, k):
        distinct[i] = 0
    return CellTable(n, k, distinct)


def check_astrong(
    b: Mapping[Monomial, int], a: Mapping[Monomial, int], mod: Modulus
) -> AStrongReport:
    """Does b's written form stand in for a's modulo mod?

    Per monomial in the union of supports: some factor must satisfy
    a = b, and every disagreeing factor must have b = 0.  A monomial
    missing from a map counts as coefficient 0 there; in particular a
    stray monomial in b must vanish mod every factor, hence mod m.
    Each monomial names its variables, so maps over different variable
    spaces fail rather than raise: b's coefficient is 0 on each of a's
    monomials that b lacks.

    Monomials are tallied per distinct (target, actual) pair and each
    pair is judged once; only monomials of a failing pair are sorted.
    Two CellTables of one shape are tallied cell by cell, at C speed,
    and the cells in neither support, (0, 0), are dropped: byte tables
    of 0/1 targets and actuals below 128 through one byte code per cell,
    any other pair through one (target, actual) tuple per cell.
    """
    if isinstance(a, CellTable) and isinstance(b, CellTable) and (a.n, a.k) == (b.n, b.k):
        return _check_tables(b, a, mod)
    # (target, actual) over a's support; actual None where b stores nothing
    tally = Counter(zip(a.values(), map(b.get, a)))
    unstored = sum(count for (_, bv), count in tally.items() if bv is None)
    stray = []
    if len(b) > len(a) - unstored:
        stray = [*itertools.filterfalse(a.__contains__, b)]
        tally.update(zip(itertools.repeat(0), map(b.__getitem__, stray)))
    failing = {(t, v) for t, v in tally if not astrong_coeff_status(t, v or 0, mod)[0]}
    violations: list[MonomialWitness] = []
    if failing:
        found = [
            *itertools.compress(a, map(failing.__contains__, zip(a.values(), map(b.get, a)))),
            *(mono for mono in stray if (0, b[mono]) in failing),
        ]
        violations = [MonomialWitness(mono, a.get(mono, 0), b.get(mono, 0))
                      for mono in sorted(found)]
    return AStrongReport(not violations, violations, len(a) + len(stray))


def _check_tables(b: CellTable, a: CellTable, mod: Modulus) -> AStrongReport:
    """check_astrong on two tables of one shape: every cell's pair is
    tallied, and the failing cells are picked out of one enumeration.
    Byte tables of 0/1 targets and actuals below 128 pack each cell into
    one byte, 2 * actual + target, by one big-int multiply-add, counted
    and flagged through bytes methods; other tables tally tuples."""
    packed = (isinstance(a.table, (bytes, bytearray)) and isinstance(b.table, (bytes, bytearray))
              and not a.table.translate(None, b"\0\1") and b.table.isascii())
    if packed:
        codes = (int.from_bytes(b.table, "little") * 2
                 + int.from_bytes(a.table, "little")).to_bytes(len(a.table), "little")
        # the codes that occur, in increasing order: delete them from all 256
        # codes, and then delete what is left
        present = ALL_CODES.translate(None, ALL_CODES.translate(None, codes))
        tally = {(c & 1, c >> 1): codes.count(c) for c in present if c}
    else:
        tally = Counter(zip(a.table, b.table))
        tally.pop((0, 0), None)
    failing = {pair for pair in tally if not astrong_coeff_status(*pair, mod)[0]}
    violations: list[MonomialWitness] = []
    if failing:
        cells = zip(cell_monomials(a.n, a.k), a.table, b.table)
        if packed:
            flags = codes.translate(bytes((c & 1, c >> 1) in failing for c in range(256)))
        else:
            flags = map(failing.__contains__, zip(a.table, b.table))
        found = sorted(itertools.compress(cells, flags))
        violations = [*itertools.starmap(MonomialWitness, found)]
    return AStrongReport(not violations, violations, sum(tally.values()))
