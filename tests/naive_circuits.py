"""The naive circuits for the elementary symmetric polynomials: one
product gate per k-subset, or per ordered tuple of distinct indices.
They compute their polynomials exactly, so the tests use them as
baselines and oracles.  table_dict reads a cell table mod m as the dict
of its nonzero residues, the tests' oracle for a table's coefficients."""

import itertools

from symcover.circuit import Gate, SigmaPiSigmaCircuit, VariableSpace, cell_monomials, group_names


def table_dict(t, m):
    """The cell table t as a map from cell monomial to coefficient mod m:
    the residues of its cells that are nonzero mod m, in cell_monomials order."""
    return {mono: c % m for mono, c in zip(cell_monomials(t.n, t.k), t.table) if c % m}


def naive_snk_circuit(n, k, mod):
    """The C(n, k)-gate circuit with one product x_i1 * ... * x_ik per
    k-subset: the degree-k elementary symmetric polynomial."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    space = VariableSpace(("x",), n)
    gates = [Gate([{("x", i): 1} for i in subset])
             for subset in itertools.combinations(range(1, n + 1), k)]
    return SigmaPiSigmaCircuit(mod, space, gates)


def naive_ordered_snk_circuit(n, k, mod):
    """One gate x^1_{i_1} * ... * x^k_{i_k} per ordered distinct-index
    tuple: the k-group cross version of the naive circuit."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    space = VariableSpace(group_names(k), n)
    gates = [Gate([{(g, i): 1} for g, i in zip(space.groups, tup)])
             for tup in itertools.permutations(range(1, n + 1), k)]
    return SigmaPiSigmaCircuit(mod, space, gates)
