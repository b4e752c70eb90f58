import itertools
import random

import pytest

from symcover.zmod import NotInvertibleError, factorize
from symcover.cover2d import WeightedRectCover, build_s2_cover
from symcover.coverkd import (
    Box,
    WeightedBoxCover,
    _counts,
    box_multiplicity_table,
    build_sk_cover,
)
from symcover.circuit import (
    BudgetExceededError,
    Gate,
    SigmaPiSigmaCircuit,
    VariableSpace,
    cell_monomials,
    cover_coefficients,
    evaluate,
    evaluate_map,
    expand_coefficients,
    from_cover2d,
    from_coverkd,
    group_names,
    identify_variables_and_scale,
    size,
)
from symcover.astrong import target_coefficients

from naive_boxes import box_multiplicity
from naive_circuits import naive_ordered_snk_circuit, naive_snk_circuit

M6 = factorize(6)
M15 = factorize(15)
M35 = factorize(35)


def _assignment(space, values):
    return {var: values.get(var, 0) for var in space.ids()}


def test_from_cover2d_gates():
    cover = WeightedRectCover(
        4,
        M6,
        [
            (Box.of({1}, {2}), 4),
            (Box.of({1, 2}, {3}), 1),
        ],
    )
    c = from_cover2d(cover)
    assert len(c.gates) == len(cover.items)
    assert c.gates[0].forms[0] == {("x", 1): 4}
    assert c.gates[0].forms[1] == {("y", 2): 1}
    assert c.gates[1].forms[0] == {("x", 1): 1, ("x", 2): 1}
    assert c.gates[0].repetition == 4


def test_evaluate_examples():
    space = VariableSpace(("x", "y"), 4)
    gate = Gate([{("x", 1): 1, ("x", 2): 1}, {("y", 3): 1}])
    assert gate.repetition == 1
    c = SigmaPiSigmaCircuit(M6, space, [gate])
    point = _assignment(space, {("x", 1): 1, ("x", 2): 1, ("y", 3): 1})
    assert evaluate(c, point) == 2

    empty = SigmaPiSigmaCircuit(M6, space, [])
    assert evaluate(empty, point) == 0

    scaled = SigmaPiSigmaCircuit(
        M6, space, [Gate([{("x", 1): 4}, {("y", 2): 1}])]
    )
    point = _assignment(space, {("x", 1): 1, ("y", 2): 1})
    assert evaluate(scaled, point) == 4

    with pytest.raises(ValueError, match="missing"):
        evaluate(scaled, {("x", 1): 1})


def test_evaluate_rejects_a_partial_assignment_past_a_zero_form():
    # the first form is 0 at this point; the second still needs its variable
    gate = Gate([{("x", 1): 1}, {("y", 1): 1}])
    c = SigmaPiSigmaCircuit(M6, VariableSpace(("x", "y"), 1), [gate])
    with pytest.raises(ValueError, match=r"assignment missing variable \('y', 1\)"):
        evaluate(c, {("x", 1): 0})
    with pytest.raises(ValueError, match=r"assignment missing variable \('y', 1\)"):
        evaluate(c, {("x", 1): 1})


def test_evaluate_map_rejects_a_partial_assignment_past_a_zero_factor():
    # the expansion of the gate above: x1 is 0 at the first point
    expansion = {(("x", 1), ("y", 1)): 1}
    for point in ({("x", 1): 0}, {("x", 1): 1}):
        with pytest.raises(ValueError, match=r"assignment missing variable \('y', 1\)"):
            evaluate_map(expansion, point, 6)


def test_size_examples():
    naive = naive_snk_circuit(4, 2, M6)
    s = size(naive)
    assert (s.gate_total, s.products) == (19, 6)

    space = VariableSpace(("x", "y"), 2)
    assert size(SigmaPiSigmaCircuit(M6, space, [])).gate_total == 1

    single = SigmaPiSigmaCircuit(
        M6, space, [Gate([{("x", 1): 1}, {("y", 1): 1}])]
    )
    assert size(single).gate_total == 4


def test_naive_circuit_is_exact():
    c = naive_snk_circuit(3, 2, M6)
    expansion = expand_coefficients(c)
    target = target_coefficients(3, 2)
    assert expansion == target

    ones = naive_snk_circuit(5, 1, M6)
    point = {("x", i): 1 for i in range(1, 6)}
    assert evaluate(ones, point) == 5 % 6


def test_naive_gate_count():
    import math

    for n, k in ((4, 2), (6, 3), (5, 1)):
        assert len(naive_snk_circuit(n, k, M6).gates) == math.comb(n, k)


def test_expand_examples():
    space = VariableSpace(("x", "y"), 2)
    c = SigmaPiSigmaCircuit(
        M6,
        space,
        [Gate([{("x", 1): 1, ("x", 2): 1}, {("y", 1): 1}])],
    )
    out = expand_coefficients(c)
    assert out == {
        (("x", 1), ("y", 1)): 1,
        (("x", 2), ("y", 1)): 1,
    }

    c = SigmaPiSigmaCircuit(
        M6, space, [Gate([{("x", 1): 4}, {("y", 2): 1}])]
    )
    assert expand_coefficients(c) == {(("x", 1), ("y", 2)): 4}


def test_expand_matches_cover_multiplicity():
    cover = build_s2_cover(8, M6)
    expansion = expand_coefficients(from_cover2d(cover))
    for i in range(1, 9):
        for j in range(1, 9):
            coeff = expansion.get((("x", i), ("y", j)), 0)
            assert coeff == box_multiplicity(cover, (i, j))


def _hand_built_k10_cover():
    """k = 10 groups, where the names sort "x1" < "x10" < "x2"."""
    rng = random.Random(10)
    mod, n, k = M35, 3, 10
    parts = lambda: frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
    items = [(Box.of(*(parts() for _ in range(k))), rng.randint(1, mod.m - 1)) for _ in range(8)]
    return WeightedBoxCover(n, k, mod, items)


@pytest.mark.parametrize(
    "make",
    [
        lambda: build_s2_cover(40, M35),
        lambda: build_sk_cover(8, 3, M35),
        lambda: build_sk_cover(7, 4, factorize(385)),
        _hand_built_k10_cover,
    ],
    ids=["s2-40-35", "sk-8-3-35", "sk-7-4-385", "hand-k10"],
)
def test_expansion_is_the_cover_count_table(make):
    # the coefficient of x^1_{j1}...x^k_{jk} is the cell count mod m
    cover = make()
    groups = group_names(cover.k)
    expected = {
        tuple(sorted(zip(groups, cell))): count
        for cell, count in box_multiplicity_table(cover).items()
        if count
    }
    to_circuit = from_cover2d if cover.k == 2 else from_coverkd
    circuit = to_circuit(cover)
    assert expand_coefficients(circuit) == expected
    assert cover_coefficients(cover, _counts(cover)) == expected
    # with every form a separate object, shared by no two gates, it expands the same
    unshared = SigmaPiSigmaCircuit(circuit.mod, circuit.vars, [
        Gate([dict(f) for f in g.forms], repetition=g.repetition) for g in circuit.gates
    ])
    forms = [f for g in unshared.gates for f in g.forms]
    assert len({*map(id, forms)}) == len(forms)
    assert expand_coefficients(unshared) == cover_coefficients(cover, _counts(cover))


def test_cell_monomials_are_row_major_in_group_name_order():
    for n in range(1, 6):
        for k in range(1, 5):
            groups = group_names(k)
            expected = [tuple(zip(groups, cell))
                        for cell in itertools.product(range(1, n + 1), repeat=k)]
            assert list(cell_monomials(n, k)) == expected
    # from k = 10 on, "x10" sorts before "x2"; the first cells are read lazily
    first = list(itertools.islice(cell_monomials(10, 10), 12))
    names = ["x1", "x10", *(f"x{i}" for i in range(2, 10))]
    assert [[g for g, _ in mono] for mono in first] == [names] * 12
    assert [dict(mono)["x10"] for mono in first] == [*range(1, 11), 1, 2]
    assert [dict(mono)["x9"] for mono in first] == [1] * 10 + [2, 2]


def test_expand_budget():
    c = naive_snk_circuit(6, 2, M6)
    with pytest.raises(BudgetExceededError, match="15 gates"):
        expand_coefficients(c, budget=10)


def test_expand_rejects_repeated_variable():
    space = VariableSpace(("x",), 2)
    c = SigmaPiSigmaCircuit(
        M6, space, [Gate([{("x", 1): 1}, {("x", 1): 1}])]
    )
    with pytest.raises(ValueError, match="repeats"):
        expand_coefficients(c)


def test_identify_scale_factors():
    c2 = naive_ordered_snk_circuit(3, 2, M15)
    ident = identify_variables_and_scale(c2, M15)
    assert ident.gates[0].forms[0] == {("x", 1): 8}  # 2^{-1} mod 15

    c3 = naive_ordered_snk_circuit(4, 3, M35)
    ident3 = identify_variables_and_scale(c3, M35)
    assert ident3.gates[0].forms[0] == {("x", 1): 6}  # 6^{-1} mod 35

    with pytest.raises(NotInvertibleError, match="gcd"):
        identify_variables_and_scale(naive_ordered_snk_circuit(3, 2, M6), M6)


def test_identify_scales_each_merged_coefficient_once():
    # ("x", 1) and ("y", 1) merge into one coefficient a + b, which is
    # then divided by 2! once: (a + b) * 8 mod 15, not a * 8**2 + b * 8
    a, b = 7, 13
    space = VariableSpace(("x", "y"), 2)
    c = SigmaPiSigmaCircuit(M15, space, [Gate([{("x", 1): a, ("y", 1): b}, {("y", 2): 1}])])
    ident = identify_variables_and_scale(c, M15)
    assert ident.gates[0].forms == [{("x", 1): (a + b) * 8 % 15}, {("x", 2): 1}]


def test_identified_ordered_naive_equals_unordered():
    for n, k, mod in ((4, 2, M15), (6, 2, M15), (5, 3, M35), (10, 2, M15)):
        ordered = naive_ordered_snk_circuit(n, k, mod)
        ident = identify_variables_and_scale(ordered, mod)
        expansion = expand_coefficients(ident)
        target = target_coefficients(n, k)
        assert expansion == target


def test_cover_circuits_are_multilinear_across_groups():
    cover = build_sk_cover(8, 3, M6, seed=2)
    c = from_coverkd(cover)
    for gate in c.gates:
        groups = [sorted({g for g, _ in f}) for f in gate.forms]
        assert groups == [[g] for g in c.vars.groups]


def test_evaluation_matches_expansion_on_random_points():
    rng = random.Random(7)
    circuits = [
        from_cover2d(build_s2_cover(16, M6)),
        from_coverkd(build_sk_cover(8, 2, M6, seed=1)),
    ]
    for c in circuits:
        expansion = expand_coefficients(c)
        m = c.mod.m
        for _ in range(100):
            point = {var: rng.randrange(m) for var in c.vars.ids()}
            assert evaluate(c, point) == evaluate_map(expansion, point, m)
