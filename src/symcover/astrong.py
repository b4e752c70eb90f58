"""Coefficient-level acceptance check between two multilinear polynomials.

A polynomial g stands in for a target f modulo a composite m when,
monomial by monomial, g's coefficient agrees with f's modulo at least
one prime-power factor of m and is 0 modulo every factor where they
disagree.  The relation constrains the written form, not the values,
and it is not symmetric in f and g.

The check iterates the union of both supports, so coefficients present
on either side only are compared against 0.  A cell table's coefficients
are its values mod m, so a cover's raw count table is judged as it is.
A cell table against a target table of 0s and 1s in bytes, of one shape,
is judged cell by cell by the property check's judge (coverkd._judge),
and any other pair by lookups, one monomial of the union at a time,
through a judge cached per (target, actual) pair, a cell table read as
the dict of its cells that are nonzero mod m, with their residues.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple
from collections.abc import Mapping

from .zmod import Modulus, astrong_coeff_status
from .circuit import CellTable, Monomial, cell_monomials
from .coverkd import _judge, _repeated_cells


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


def target_coefficients(n: int, k: int, ordered: bool = False) -> dict[Monomial, int] | CellTable:
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
    b: Mapping[Monomial, int] | CellTable, a: Mapping[Monomial, int] | CellTable, mod: Modulus
) -> AStrongReport:
    """Does b's written form stand in for a's modulo mod?

    Per monomial in the union of supports: some factor must satisfy
    a = b, and every disagreeing factor must have b = 0.  A monomial
    missing from a map counts as coefficient 0 there; in particular a
    stray monomial in b must vanish mod every factor, hence mod m.
    Each monomial names its variables, so maps over different variable
    spaces fail rather than raise: b's coefficient is 0 on each of a's
    monomials that b lacks.

    A CellTable's coefficient for a cell is the cell's value mod m, and a
    witness reports that residue.  A CellTable b against a CellTable a of
    one shape whose table is bytes of 0s and 1s, such as the ordered
    target, is judged cell by cell at C speed through the one verdict
    table of the property check, and the cells in neither support are not
    counted.  Any other pair is judged by lookups, a CellTable in it read
    as the dict of its cells that are nonzero mod m: each monomial of the
    union is looked up in both maps, and the judge is cached per (target,
    actual) pair, so each distinct pair is judged once; the failing
    monomials are sorted.
    """
    if (isinstance(a, CellTable) and isinstance(b, CellTable) and (a.n, a.k) == (b.n, b.k)
            and isinstance(a.table, (bytes, bytearray)) and not a.table.translate(None, b"\0\1")):
        return _check_tables(b, a, mod)
    b, a = _cell_dict(b, mod.m), _cell_dict(a, mod.m)
    fails = functools.cache(lambda t, v: not astrong_coeff_status(t, v, mod)[0])
    union = [*a, *itertools.filterfalse(a.__contains__, b)]
    zeros = itertools.repeat(0)
    targets, actuals = [*map(a.get, union, zeros)], [*map(b.get, union, zeros)]
    # monomials are distinct, so the failing ones sort by monomial alone
    found = sorted(itertools.compress(zip(union, targets, actuals), map(fails, targets, actuals)))
    violations = [*itertools.starmap(MonomialWitness, found)]
    return AStrongReport(not violations, violations, len(union))


def _cell_dict(t: Mapping[Monomial, int] | CellTable, m: int) -> Mapping[Monomial, int]:
    """A CellTable as the dict of its cells that are nonzero mod m, with
    their residues, in cell_monomials order; any other map as it is."""
    if not isinstance(t, CellTable):
        return t
    residues = [*map(m.__rmod__, t.table)]
    return dict(itertools.compress(zip(cell_monomials(t.n, t.k), residues), residues))


def _check_tables(b: CellTable, a: CellTable, mod: Modulus) -> AStrongReport:
    """check_astrong on a table of 0/1 targets in bytes: its 0 cells are
    found by bytes.find, _judge flags the cells whose raw value fails, and
    the failing cells' monomials are picked out of one enumeration, each
    with its value's residue.  The target's 1 cells and the 0 cells whose
    value is nonzero mod m are checked."""
    zeros = []
    i = a.table.find(0)
    while i >= 0:
        zeros.append(i)
        i = a.table.find(0, i + 1)
    flags = _judge(b.table, zeros, mod)
    found = sorted(itertools.compress(zip(cell_monomials(a.n, a.k), a.table, b.table), flags))
    violations = [MonomialWitness(mono, t, v % mod.m) for mono, t, v in found]
    stray = sum(b.table[i] % mod.m != 0 for i in zeros)
    return AStrongReport(not violations, violations, len(a.table) - len(zeros) + stray)
