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

import itertools
import math
from dataclasses import dataclass

from .zmod import Modulus, NotInvertibleError, mod_inverse
from .coverkd import WeightedBoxCover

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
class LinearForm:
    """Homogeneous linear form: a map from variable id to Z_m coefficient."""

    coeffs: dict[VarId, int]

    def value(self, assignment: dict[VarId, int], m: int) -> int:
        total = 0
        for var, c in self.coeffs.items():
            if var not in assignment:
                raise ValueError(f"assignment missing variable {var}")
            total += c * assignment[var]
        return total % m

    def scaled(self, factor: int, m: int) -> "LinearForm":
        return LinearForm({v: (c * factor) % m for v, c in self.coeffs.items()})


@dataclass
class Gate:
    forms: list[LinearForm]
    repetition: int = 1


@dataclass
class SigmaPiSigmaCircuit:
    mod: Modulus
    vars: VariableSpace
    gates: list[Gate]


@dataclass
class CoefficientMap:
    """Monomial -> Z_m coefficient table; zero coefficients are not stored."""

    vars: VariableSpace
    coeffs: dict[Monomial, int]


@dataclass(frozen=True)
class CircuitSize:
    gate_total: int
    products: int
    graph_model_count: int


def _from_cover(cover: WeightedBoxCover) -> SigmaPiSigmaCircuit:
    """One k-linear gate per item, weight folded into the first form."""
    if cover.mod is None:
        raise ValueError("cover has no modulus")
    space = VariableSpace(group_names(cover.k), cover.n)
    gates = []
    for box, w in cover.items:
        forms = []
        for l, part in enumerate(box.parts):
            c = w % cover.mod.m if l == 0 else 1
            forms.append(LinearForm({(space.groups[l], j): c for j in sorted(part)}))
        gates.append(Gate(forms, repetition=w))
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
            prod = (prod * form.value(assignment, m)) % m
            if prod == 0:
                break
        total += prod
    return total % m


def size(c: SigmaPiSigmaCircuit) -> CircuitSize:
    """Gate total 1 + r + sum(s_i), plus the repetition-weighted count."""
    r = len(c.gates)
    s_total = sum(len(g.forms) for g in c.gates)
    reps = sum(g.repetition for g in c.gates)
    return CircuitSize(1 + r + s_total, r, reps)


def naive_snk_circuit(n: int, k: int, mod: Modulus) -> SigmaPiSigmaCircuit:
    """The C(n, k)-gate circuit with one product x_i1 * ... * x_ik per
    k-subset; computes the degree-k elementary symmetric polynomial
    exactly, so it serves as baseline and oracle."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    space = VariableSpace(("x",), n)
    gates = []
    for subset in itertools.combinations(range(1, n + 1), k):
        gates.append(Gate([LinearForm({("x", i): 1}) for i in subset]))
    return SigmaPiSigmaCircuit(mod, space, gates)


def naive_ordered_snk_circuit(n: int, k: int, mod: Modulus) -> SigmaPiSigmaCircuit:
    """One gate x^1_{i_1} * ... * x^k_{i_k} per ordered distinct-index
    tuple: the k-group cross version of the naive circuit."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    space = VariableSpace(group_names(k), n)
    gates = []
    for tup in itertools.permutations(range(1, n + 1), k):
        gates.append(
            Gate([LinearForm({(g, i): 1}) for g, i in zip(space.groups, tup)])
        )
    return SigmaPiSigmaCircuit(mod, space, gates)


def expand_coefficients(
    c: SigmaPiSigmaCircuit, budget: int = 10_000_000
) -> CoefficientMap:
    """Exact symbolic expansion into a multilinear coefficient map.

    Distributes each gate's forms, reduces mod m, and drops zeros.  The
    intermediate term count is bounded by the product of form supports
    per gate; if the total would exceed the budget, a resource error
    reports the gate count instead of grinding away.
    """
    m = c.mod.m
    estimate = 0
    for gate in c.gates:
        terms = 1
        for form in gate.forms:
            terms *= len(form.coeffs)
        estimate += terms
        if estimate > budget:
            raise BudgetExceededError(
                f"expansion of {len(c.gates)} gates exceeds {budget} terms"
            )
    acc: dict[Monomial, int] = {}
    for gate in c.gates:
        partial: dict[Monomial, int] = {(): 1}
        for form in gate.forms:
            nxt: dict[Monomial, int] = {}
            for mono, coef in partial.items():
                for var, fc in form.coeffs.items():
                    if var in mono:
                        raise ValueError(
                            f"variable {var} repeats in a product: not multilinear"
                        )
                    key = tuple(sorted(mono + (var,)))
                    nxt[key] = (nxt.get(key, 0) + coef * fc) % m
            partial = nxt
        for mono, coef in partial.items():
            acc[mono] = (acc.get(mono, 0) + coef) % m
    return CoefficientMap(c.vars, {k: v for k, v in acc.items() if v != 0})


def evaluate_map(cmap: CoefficientMap, assignment: dict[VarId, int], m: int) -> int:
    """Value of the expanded polynomial at a point, mod m."""
    total = 0
    for mono, coef in cmap.coeffs.items():
        term = coef
        for var in mono:
            term = (term * assignment[var]) % m
            if term == 0:
                break
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
            for (_, i), v in form.coeffs.items():
                key = ("x", i)
                merged[key] = (merged.get(key, 0) + v) % mod.m
            renamed = LinearForm(merged)
            forms.append(renamed.scaled(scale, mod.m) if pos == 0 else renamed)
        gates.append(Gate(forms, repetition=gate.repetition))
    return SigmaPiSigmaCircuit(mod, space, gates)
