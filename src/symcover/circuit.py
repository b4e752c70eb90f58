"""Depth-3 sum-of-products-of-linear-forms circuits over Z_m.

Every circuit here is homogeneous: linear forms have no constant term.
Variables are (group, index) pairs; a cover-derived circuit has one
variable group per cover dimension and one product gate per cover item,
so its gate count tracks the cover cardinality exactly.

Gates carry a repetition count next to their forms.  A scalar weight is
algebraically absorbed into a gate's first linear form, but the circuit
also doubles as a multiset of bipartite/multipartite graphs (one graph
per repetition of a unit gate), and that view needs the raw counts.
"""

from __future__ import annotations

import array
import itertools
import math
import operator
from collections.abc import Iterable
from dataclasses import dataclass

from .zmod import Modulus, NotInvertibleError, mod_inverse
from .coverkd import WeightedBoxCover, _counts, members

VarId = tuple[str, int]
Monomial = tuple[VarId, ...]


class BudgetExceededError(RuntimeError):
    """Raised when a symbolic expansion would produce too many terms."""


@dataclass(frozen=True)
class VariableSpace:
    """k named groups of n variables each; ids are (group, index)."""

    groups: tuple[str, ...]
    n: int

    def ids(self) -> list[VarId]:
        return [(g, i) for g in self.groups for i in range(1, self.n + 1)]


def group_names(k: int) -> tuple[str, ...]:
    if k == 1:
        return ("x",)
    if k == 2:
        return ("x", "y")
    return tuple(f"x{i}" for i in range(1, k + 1))


@dataclass
class Gate:
    forms: list[dict[VarId, int]]  # linear forms: variable -> coefficient
    repetition: int = 1


@dataclass
class SigmaPiSigmaCircuit:
    mod: Modulus
    vars: VariableSpace
    gates: list[Gate]


@dataclass(frozen=True)
class CircuitSize:
    gate_total: int
    products: int
    graph_model_count: int


def _from_cover(cover: WeightedBoxCover) -> SigmaPiSigmaCircuit:
    """One k-linear gate per item, weight folded into the first form.
    Every form names its variables through one shared id per (group, j),
    and gates share one form per distinct (group, part, coefficient)."""
    if cover.mod is None:
        raise ValueError("cover has no modulus")
    space = VariableSpace(group_names(cover.k), cover.n)
    ids = [[(g, j) for j in range(cover.n + 1)] for g in space.groups]
    shared: dict[tuple[int, int, int], dict[VarId, int]] = {}

    def form(l: int, part: int, c: int) -> dict[VarId, int]:
        key = (l, part, c)
        if key not in shared:
            shared[key] = dict.fromkeys(members(part, ids[l]), c)
        return shared[key]

    groups, ones = range(cover.k), [1] * (cover.k - 1)
    gates = [
        Gate([*map(form, groups, box.parts, [w % cover.mod.m, *ones])], repetition=w)
        for box, w in cover.items
    ]
    return SigmaPiSigmaCircuit(cover.mod, space, gates)


def from_cover2d(cover: WeightedBoxCover) -> SigmaPiSigmaCircuit:
    """One bilinear gate (w * sum x_i)(sum y_j) per rectangle."""
    return _from_cover(cover)


def from_coverkd(cover: WeightedBoxCover) -> SigmaPiSigmaCircuit:
    """One k-linear gate per box, weight folded into the first form."""
    return _from_cover(cover)


def evaluate(c: SigmaPiSigmaCircuit, assignment: dict[VarId, int]) -> int:
    """Sum over gates of the product of form values, all mod m."""
    m = c.mod.m
    total = 0
    for gate in c.gates:
        prod = 1
        for form in gate.forms:
            value = 0
            for var, coef in form.items():
                if var not in assignment:
                    raise ValueError(f"assignment missing variable {var}")
                value += coef * assignment[var]
            prod = prod * value % m
        total += prod
    return total % m


def size(c: SigmaPiSigmaCircuit) -> CircuitSize:
    """Gate total 1 + r + sum(s_i), plus the repetition-weighted count."""
    r = len(c.gates)
    s_total = sum(len(g.forms) for g in c.gates)
    reps = sum(g.repetition for g in c.gates)
    return CircuitSize(1 + r + s_total, r, reps)


def _nonzero_multilinear(forms: list[dict[VarId, int]]) -> bool:
    """False if an empty form zeroes the gate; a variable shared by two
    forms before that point makes a product that is not multilinear."""
    seen: set[VarId] = set()
    for coeffs in forms:
        if not coeffs:
            return False
        if not seen.isdisjoint(coeffs):
            var = next(filter(seen.__contains__, coeffs))
            raise ValueError(f"variable {var} repeats in a product: not multilinear")
        seen.update(coeffs)
    return True


def require_budget(sizes: Iterable[Iterable[int]], gates: int, budget: int) -> None:
    """Raise BudgetExceededError when an expansion's term count, the sum
    over gates of the product of their form sizes, exceeds the budget.
    A cover's gates have one form per part, of the part's size."""
    if sum(map(math.prod, sizes)) > budget:
        raise BudgetExceededError(f"expansion of {gates} gates exceeds {budget} terms")


def expand_coefficients(
    c: SigmaPiSigmaCircuit, budget: int = 10_000_000
) -> dict[Monomial, int]:
    """Exact symbolic expansion into a multilinear coefficient map, from
    monomial to Z_m coefficient.

    Every gate is multiplied out term by term: each choice of one
    variable per form gives a monomial, weighted by the product of the
    chosen coefficients.  The weights are summed over the integers per
    monomial and reduced mod m once at the end; zero coefficients are
    dropped.  If the term count, the product of form supports summed
    over gates, would exceed the budget, a resource error reports the
    gate count instead of grinding away.
    """
    m = c.mod.m
    require_budget((map(len, g.forms) for g in c.gates), len(c.gates), budget)
    sums: dict[Monomial, int] = {}
    for gate in c.gates:
        if _nonzero_multilinear(gate.forms):
            monos = map(tuple, map(sorted, itertools.product(*gate.forms)))
            weights = map(math.prod, itertools.product(*(f.values() for f in gate.forms)))
            for mono, weight in zip(monos, weights):
                sums[mono] = sums.get(mono, 0) + weight
    return {mono: value for mono, total in sums.items() if (value := total % m)}


def cover_coefficients(cover: WeightedBoxCover) -> dict[Monomial, int]:
    """The expansion of a cover's circuit, read off its count table: the
    coefficient of x^1_{j1}...x^k_{jk} is the count of cell (j1, ..., jk)
    mod m.  Cells come in row-major order and each monomial lists its
    variables in group-name order, where "x10" < "x2"."""
    if cover.mod is None:
        raise ValueError("cover has no modulus")
    groups = group_names(cover.k)
    counts = _counts(cover)
    residues = array.array(counts.typecode, map(cover.mod.m.__rmod__, counts))
    del counts  # freed before the map is built
    ids = ([(g, j) for j in range(1, cover.n + 1)] for g in groups)
    in_name_order = operator.itemgetter(*sorted(range(cover.k), key=groups.__getitem__))
    monos = map(in_name_order, itertools.compress(itertools.product(*ids), residues))
    return dict(zip(monos, itertools.compress(residues, residues)))


def evaluate_map(coeffs: dict[Monomial, int], assignment: dict[VarId, int], m: int) -> int:
    """Value of the expanded polynomial at a point, mod m."""
    total = 0
    for mono, coef in coeffs.items():
        term = coef
        for var in mono:
            if var not in assignment:
                raise ValueError(f"assignment missing variable {var}")
            term = term * assignment[var] % m
        total += term
    return total % m


def identify_variables_and_scale(
    c: SigmaPiSigmaCircuit, mod: Modulus
) -> SigmaPiSigmaCircuit:
    """Map all k groups onto one and divide each gate by k!.

    A k-linear circuit evaluated on the diagonal (all groups equal)
    counts every k-subset once per ordering; when k! is invertible mod
    m the scale factor undoes that.  The factor multiplies one linear
    form per gate, keeping the circuit a sum of products of forms.
    """
    k = len(c.vars.groups)
    fact = math.factorial(k)
    g = math.gcd(fact, mod.m)
    if g != 1:
        raise NotInvertibleError(
            f"k! = {fact} shares factor {g} with modulus {mod.m}; "
            f"identification needs gcd(m, k!) = 1"
        )
    scale = mod_inverse(fact, mod.m)
    space = VariableSpace(("x",), c.vars.n)
    gates = []
    for gate in c.gates:
        forms = []
        for pos, form in enumerate(gate.forms):
            merged: dict[VarId, int] = {}
            for (_, i), v in form.items():
                merged["x", i] = merged.get(("x", i), 0) + v
            factor = scale if pos == 0 else 1
            forms.append({var: v * factor % mod.m for var, v in merged.items()})
        gates.append(Gate(forms, repetition=gate.repetition))
    return SigmaPiSigmaCircuit(mod, space, gates)
