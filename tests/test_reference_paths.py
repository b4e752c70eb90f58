"""The product-loop expansion, the tallying a-strong check, the packed-row
cell counts, the value-count property check and the exponent choice
against the plain loops they replaced, kept here as reference
implementations: same coefficient maps, same counts, same reports, same
choices, same errors.  The coefficients verify reads off a cover's count
table are checked against the expansion of the cover's circuit."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from symcover.zmod import astrong_coeff_status, factorize
from symcover.sympoly import ExponentChoice, choose_exponents
from symcover.cover2d import build_s2_cover, multiplicity_table
from symcover.coverkd import (
    Box,
    CellViolation,
    PropertyReport,
    WeightedBoxCover,
    _cell,
    _check_properties,
    _counts,
    _repeated_cells,
    box_multiplicity_table,
    build_sk_cover,
    field_width,
)
from symcover.circuit import (
    CoefficientMap,
    Gate,
    SigmaPiSigmaCircuit,
    VariableSpace,
    cover_coefficients,
    expand_coefficients,
    from_cover2d,
    from_coverkd,
    group_names,
    identify_variables_and_scale,
)
from symcover.astrong import (
    AStrongReport,
    MonomialWitness,
    check_astrong,
    target_coefficients,
)

MODULI = [factorize(m) for m in (6, 12, 35, 385)]


def reference_expand(c):
    """Distribute each gate's forms term by term, reducing mod m."""
    m = c.mod.m
    acc = {}
    for gate in c.gates:
        partial = {(): 1}
        for form in gate.forms:
            nxt = {}
            for mono, coef in partial.items():
                for var, fc in form.items():
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


def reference_check(b, a, mod):
    """Judge every monomial of the union of supports in sorted order."""
    violations = []
    support = set(a.coeffs) | set(b.coeffs)
    for mono in sorted(support):
        av = a.coeffs.get(mono, 0)
        bv = b.coeffs.get(mono, 0)
        ok, agree = astrong_coeff_status(av, bv, mod)
        if not ok:
            pairs = [(av % q, bv % q) for q in mod.prime_powers]
            violations.append(MonomialWitness(mono, av, bv, pairs, agree))
    return AStrongReport(not violations, violations, len(support))


def outcome(fn, *args):
    """The result, or the type of the error raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc)


def assert_same_expansion(c):
    expected = outcome(reference_expand, c)
    assert outcome(expand_coefficients, c) == expected
    return expected


GROUPS = st.sampled_from([("x",), ("x", "y"), ("y", "x"), ("x1", "x2", "x3")])


@st.composite
def circuits(draw, disjoint: bool):
    """Gates of forms over a small variable space, listed in any order,
    with mixed, zero and unreduced coefficients, empty forms and gates
    with no forms.  With `disjoint`, no variable is shared within a gate,
    but the forms' index ranges may interleave."""
    groups = draw(GROUPS)
    n = draw(st.integers(1, 4))
    mod = draw(st.sampled_from(MODULI))
    pool = [(g, i) for g in groups for i in range(1, n + 1)]
    coef = st.integers(-mod.m, 2 * mod.m)
    gates = []
    for _ in range(draw(st.integers(0, 4))):
        if disjoint:
            order = draw(st.permutations(pool))
            cuts = sorted(draw(st.lists(st.integers(0, len(pool)), max_size=3)))
            spans = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(pool)])]
            spans = [span for span in spans if span or draw(st.booleans())]
        else:
            spans = draw(st.lists(st.lists(st.sampled_from(pool), max_size=3), max_size=3))
        forms = [{var: draw(coef) for var in span} for span in spans]
        gates.append(Gate(forms, repetition=draw(st.integers(1, 3))))
    return SigmaPiSigmaCircuit(mod, VariableSpace(groups, n), gates)


@settings(max_examples=300, deadline=None)
@given(circuits(disjoint=True))
def test_expand_matches_reference_on_disjoint_forms(c):
    assert assert_same_expansion(c) is not ValueError


@settings(max_examples=300, deadline=None)
@given(circuits(disjoint=False))
def test_expand_matches_reference_on_any_forms(c):
    assert_same_expansion(c)


@st.composite
def shared_form_circuits(draw):
    """Gates built from one pool of forms, so that gates share form
    dicts; a gate may name one form twice, sharing its variables."""
    groups = draw(GROUPS)
    n = draw(st.integers(1, 4))
    mod = draw(st.sampled_from(MODULI))
    pool = [(g, i) for g in groups for i in range(1, n + 1)]
    spans = st.lists(st.sampled_from(pool), unique=True, max_size=3)
    coef = st.integers(-mod.m, 2 * mod.m)
    forms = [
        {var: draw(coef) for var in span}
        for span in draw(st.lists(spans, min_size=1, max_size=5))
    ]
    picks = st.lists(st.sampled_from(forms), max_size=3)
    gates = [Gate(draw(picks)) for _ in range(draw(st.integers(0, 5)))]
    return SigmaPiSigmaCircuit(mod, VariableSpace(groups, n), gates)


@settings(max_examples=300, deadline=None)
@given(shared_form_circuits())
def test_expand_matches_reference_on_shared_forms(c):
    assert_same_expansion(c)


@st.composite
def mixed_order_circuits(draw):
    """Gates whose forms are consecutive runs of the sorted variables,
    listed in any order (in order), and gates whose forms interleave or
    list their keys out of order, with one or several coefficient
    values per form."""
    groups = draw(GROUPS)
    n = draw(st.integers(2, 4))
    mod = draw(st.sampled_from(MODULI))
    pool = sorted((g, i) for g in groups for i in range(1, n + 1))
    coef = st.sampled_from([1, 2, mod.m - 1, mod.m, mod.m + 3])
    gates = []
    for _ in range(draw(st.integers(1, 5))):
        in_order = draw(st.booleans())
        order = pool if in_order else draw(st.permutations(pool))
        cuts = sorted(draw(st.lists(st.integers(1, len(pool) - 1), max_size=3, unique=True)))
        spans = [order[a:b] for a, b in zip([0, *cuts], [*cuts, len(pool)])]
        spans = draw(st.permutations(spans))
        gates.append(Gate([{var: draw(coef) for var in span} for span in spans]))
    return SigmaPiSigmaCircuit(mod, VariableSpace(groups, n), gates)


@settings(max_examples=300, deadline=None)
@given(mixed_order_circuits())
def test_expand_matches_reference_on_mixed_gate_orders(c):
    assert assert_same_expansion(c) is not ValueError


def test_expand_matches_reference_beyond_8_byte_fields():
    # weights of about m > 2**64 each: their total overflows an 8-byte field
    mod = factorize(3 * 2**65)
    m = mod.m
    space = VariableSpace(("x", "y"), 3)
    x, y = (lambda i: ("x", i)), (lambda i: ("y", i))
    gates = [
        Gate([{x(1): m - 1, x(2): m - 1}, {y(2): 1, y(3): 1}]),
        Gate([{x(1): m - 2}, {y(1): 1, y(2): m - 1, y(3): 1}]),
        Gate([{x(2): 1, x(3): m - 5}, {y(3): m - 1}]),
        Gate([{x(1): 3}, {y(2): 1}]),
    ]
    c = SigmaPiSigmaCircuit(mod, space, gates)
    # gates 1 and 3 each weigh m - 1 on some product: the fields need 9 bytes
    assert field_width(2 * (m - 1)) == 9
    expected = assert_same_expansion(c)
    assert expected is not ValueError
    assert expected.coeffs[(x(1), y(2))] == 4  # (m - 1) + (m - 2)(m - 1) + 3
    assert (x(1), y(3)) in expected.coeffs and (x(2), y(2)) in expected.coeffs


def test_cover_circuits_share_one_form_per_group_part_and_coefficient():
    cover = build_sk_cover(8, 3, factorize(35), seed=4)
    c = from_coverkd(cover)
    by_key = {}
    for (box, w), gate in zip(cover.items, c.gates):
        coeffs = [w % 35, 1, 1]
        for key in zip(range(3), box.parts, coeffs):
            by_key.setdefault(key, set()).add(id(gate.forms[key[0]]))
    assert all(len(ids) == 1 for ids in by_key.values())
    distinct = {id(f) for g in c.gates for f in g.forms}
    assert len(distinct) == len(by_key) < 3 * len(c.gates)


def test_identification_and_scaling_leave_shared_forms_untouched():
    mod = factorize(35)
    c = from_cover2d(build_s2_cover(12, mod))
    forms = {id(f): f for g in c.gates for f in g.forms}.values()
    before = [dict(f) for f in forms]
    identified = identify_variables_and_scale(c, mod)
    assert [*forms] == before
    new = {id(f) for g in identified.gates for f in g.forms}
    assert new.isdisjoint(map(id, forms))


def test_expand_edge_cases_match_reference():
    space = VariableSpace(("y", "x"), 3)
    x, y = (lambda i: ("x", i)), (lambda i: ("y", i))
    cases = {
        "groups out of order": [Gate([{y(1): 2, y(3): 1}, {x(2): 5}])],
        "forms out of order": [Gate([{y(2): 1}, {x(3): 1, x(1): 4}])],
        "mixed and zero coefficients": [
            Gate([{x(1): 0, x(2): 3, x(3): 6}, {y(1): 2, y(2): 7}])
        ],
        "empty form": [Gate([{x(1): 1}, {}]), Gate([{x(2): 1}])],
        "gate with no forms": [Gate([]), Gate([]), Gate([{x(1): 1}])],
        "shared after an empty form": [
            Gate([{x(1): 1}, {}, {x(1): 1}])
        ],
        "all coefficients cancel": [
            Gate([{x(1): 1}, {y(1): 1}]),
            Gate([{x(1): 5}, {y(1): 1}]),
        ],
    }
    for name, gates in cases.items():
        c = SigmaPiSigmaCircuit(MODULI[0], space, gates)
        assert assert_same_expansion(c) is not ValueError, name


def test_expand_rejects_a_variable_shared_by_two_forms():
    space = VariableSpace(("x", "y"), 3)
    shared = [
        Gate([{("x", 1): 1, ("x", 2): 1}, {("x", 2): 0}]),
        Gate([{("y", 1): 1}, {("x", 3): 1}, {("y", 1): 2}]),
    ]
    for gate in shared:
        c = SigmaPiSigmaCircuit(MODULI[0], space, [gate])
        with pytest.raises(ValueError, match="not multilinear"):
            reference_expand(c)
        with pytest.raises(ValueError, match="not multilinear"):
            expand_coefficients(c)


@pytest.mark.parametrize(
    "circuit",
    [
        lambda: from_cover2d(build_s2_cover(16, factorize(35))),
        lambda: from_coverkd(build_sk_cover(7, 3, factorize(35), seed=3)),
        lambda: identify_variables_and_scale(
            from_cover2d(build_s2_cover(12, factorize(35))), factorize(35)
        ),
        lambda: identify_variables_and_scale(
            from_coverkd(build_sk_cover(7, 3, factorize(385), seed=1)), factorize(385)
        ),
    ],
    ids=["s2", "sk", "s2-identified", "sk-identified"],
)
def test_expand_matches_reference_on_cover_circuits(circuit):
    c = circuit()
    assert assert_same_expansion(c) is not ValueError


MONOS = st.lists(st.integers(1, 4), min_size=1, max_size=2, unique=True).map(
    lambda idx: tuple(("x", i) for i in sorted(idx))
)


@st.composite
def map_pairs(draw):
    """A target and a candidate over one space, with monomials present
    only in b, only in a, and stored zero coefficients on either side."""
    space = VariableSpace(("x",), 4)
    mod = draw(st.sampled_from(MODULI))
    values = st.integers(0, 2 * mod.m)
    a = draw(st.dictionaries(MONOS, st.integers(0, 2), max_size=8))
    b = {mono: draw(values) for mono in a if draw(st.booleans())}
    b.update(draw(st.dictionaries(MONOS, values, max_size=4)))
    return CoefficientMap(space, b), CoefficientMap(space, a), mod


@settings(max_examples=300, deadline=None)
@given(map_pairs())
def test_check_matches_reference(case):
    assert check_astrong(*case) == reference_check(*case)


def test_check_matches_reference_on_cover_expansions():
    mod = factorize(35)
    cover = build_s2_cover(24, mod)
    good = expand_coefficients(from_cover2d(cover))
    shifted = CoefficientMap(good.vars, {mono: v + 1 for mono, v in good.coeffs.items()})
    shifted.coeffs[(("x", 1), ("x", 2))] = 5  # stray, and not of the target's shape
    target = target_coefficients(24, 2, ordered=True)
    for b in (good, shifted):
        assert check_astrong(b, target, mod) == reference_check(b, target, mod)


def test_ordered_target_is_its_definition():
    for n in range(1, 7):
        for k in range(1, min(n, 4) + 1):
            groups = group_names(k)
            expected = {
                tuple(sorted(zip(groups, tup))): 1
                for tup in itertools.permutations(range(1, n + 1), k)
            }
            got = target_coefficients(n, k, ordered=True)
            assert got.vars == VariableSpace(groups, n)
            assert got.coeffs == expected


def reference_counts(cover):
    """Add every box cell by cell into a flat row-major list."""
    n = cover.n
    counts = [0] * n**cover.k
    for box, w in cover.items:
        bases = [0]
        for part in box.parts[:-1]:
            bases = [(b + j - 1) * n for b in bases for j in range(1, n + 1) if part >> j & 1]
        last = [j - 1 for j in range(1, n + 1) if box.parts[-1] >> j & 1]
        for b in bases:
            for j in last:
                counts[b + j] += w
    return counts


def reference_check_properties(cover):
    """Judge the repeated-index cells and every cell whose count fails
    the unit pattern one by one, in flat order."""
    mod, n, k = cover.mod, cover.n, cover.k
    counts = reference_counts(cover)
    bad = {
        target: {c: not astrong_coeff_status(target, c, mod)[0] for c in set(counts)}
        for target in (0, 1)
    }
    suspects = _repeated_cells(n, k)
    suspects.update(itertools.compress(range(len(counts)), map(bad[1].__getitem__, counts)))
    violations = []
    for i in sorted(suspects):
        cell, d = _cell(i, n, k), counts[i] % mod.m
        target = int(len(set(cell)) == k)
        if bad[target][counts[i]]:
            reason = f"count {d} has residues {mod.residues(d)} per {mod}, target {target}"
            violations.append(CellViolation(cell, d, reason))
    return PropertyReport(not violations, violations, len(counts))


def assert_same_counts_and_report(cover):
    expected = reference_counts(cover)
    assert _counts(cover).tolist() == expected
    assert _check_properties(cover) == reference_check_properties(cover)
    m = cover.mod.m
    table = {_cell(i, cover.n, cover.k): c % m for i, c in enumerate(expected) if c}
    assert box_multiplicity_table(cover) == table
    if cover.k == 2:
        n = cover.n
        rows = [[c % m for c in expected[r * n : (r + 1) * n]] for r in range(n)]
        assert multiplicity_table(cover) == rows


@st.composite
def box_covers(draw):
    """Covers of any boxes, empty parts included, with weights anywhere
    in 1..m-1."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 7))
    mod = factorize(draw(st.sampled_from([6, 35, 385])))
    part = st.frozensets(st.integers(1, n))
    items = draw(st.lists(
        st.tuples(st.tuples(*[part] * k).map(lambda parts: Box.of(*parts)), st.integers(1, mod.m - 1)),
        max_size=12,
    ))
    return WeightedBoxCover(n, k, mod, items)


@settings(max_examples=300, deadline=None)
@given(box_covers())
def test_counts_and_check_match_reference(cover):
    assert_same_counts_and_report(cover)


@st.composite
def cancelling_box_covers(draw):
    """Covers of any boxes over n <= 6, empty parts and repeated-index
    cells included, where some items come back with the weight that
    cancels theirs mod m."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(2, 6))
    mod = factorize(draw(st.sampled_from([6, 35, 385])))
    part = st.frozensets(st.integers(1, n))
    items = draw(st.lists(
        st.tuples(st.tuples(*[part] * k).map(lambda parts: Box.of(*parts)), st.integers(1, mod.m - 1)),
        max_size=10,
    ))
    cancelled = draw(st.lists(st.sampled_from(items), max_size=len(items))) if items else []
    items += [(box, mod.m - w) for box, w in cancelled]
    return WeightedBoxCover(n, k, mod, draw(st.permutations(items)))


@settings(max_examples=300, deadline=None)
@given(cancelling_box_covers())
def test_cover_coefficients_are_the_expansion_of_the_cover_circuit(cover):
    to_circuit = from_cover2d if cover.k == 2 else from_coverkd
    assert cover_coefficients(cover) == expand_coefficients(to_circuit(cover))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("total", [2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32])
def test_counts_match_reference_at_every_field_width(k, total):
    # every cell counts total - 1, except (1, ..., 1), which counts total
    n = 3
    mod = factorize(6 * 2**32 if total > 2**16 else 385)
    full = Box.of(*[range(1, n + 1)] * k)
    weights = [mod.m - 1] * ((total - 1) // (mod.m - 1))
    weights.append(total - 1 - sum(weights))
    items = [(full, w) for w in weights if w] + [(Box.of(*[{1}] * k), 1)]
    cover = WeightedBoxCover(n, k, mod, items)
    assert _counts(cover).itemsize == next(b for b in (1, 2, 4, 8) if total < 256**b)
    assert_same_counts_and_report(cover)


def test_counts_reject_a_weight_sum_beyond_64_bits():
    mod = factorize(6 * 2**64)
    cover = WeightedBoxCover(2, 2, mod, [(Box.of({1}, {2}), 2**64)])
    with pytest.raises(ValueError, match="64-bit"):
        _counts(cover)


def test_a_failing_count_on_repeated_and_distinct_cells_is_found():
    # 0 sits on the diagonal cells (1, 1) and (3, 3) and on (1, 2); 2 sits
    # on (2, 2) and (2, 1): each count also held by a repeated-index cell
    mod = factorize(6)
    rect = lambda rows, cols: Box.of(rows, cols)
    items = [
        (rect({1}, {3}), 1), (rect({2}, {1, 3}), 1), (rect({3}, {1, 2}), 1),
        (rect({2}, {2}), 2), (rect({2}, {1}), 1),
    ]
    cover = WeightedBoxCover(3, 2, mod, items)
    report = _check_properties(cover)
    found = [(v.cell, v.count) for v in report.violations]
    assert found == [((1, 2), 0), ((2, 1), 2), ((2, 2), 2)]
    assert_same_counts_and_report(cover)
    fixed = WeightedBoxCover(3, 2, mod, items[:3] + [(rect({1}, {2}), 1)])
    assert _check_properties(fixed).ok
    assert_same_counts_and_report(fixed)


@pytest.mark.parametrize("m", [6, 35])
def test_check_matches_reference_on_s2_covers(m):
    mod = factorize(m)
    for n in [*range(2, 65), 128, 255, 256, 257]:
        cover = build_s2_cover(n, mod)
        dropped = WeightedBoxCover(n, 2, mod, cover.items[1:])
        for case in (cover, dropped):
            expected = reference_check_properties(case)
            assert _check_properties(case) == expected, n
            assert _counts(case).tolist() == reference_counts(case), n
        assert expected.ok is False and reference_check_properties(cover).ok, n


def reference_choose_exponents(mod, d):
    """Depth-first over a_i <= ceil(log_{p_i}(d+1)) in lexicographic order,
    keeping the first tuple with the least degree bound."""
    if d < 1:
        raise ValueError(f"threshold d must be >= 1, got {d}")
    caps = []
    for p, _ in mod.factors:
        a = 0
        while p**a < d + 1:
            a += 1
        caps.append(a)

    best = None
    best_bound = None

    def search(i, prefix, product):
        nonlocal best, best_bound
        if i == mod.r:
            if product < d + 1:
                return
            bound = max(
                (2 * e - 1) * (p**a - 1)
                for (p, e), a in zip(mod.factors, prefix)
            )
            if best_bound is None or bound < best_bound:
                best, best_bound = prefix, bound
            return
        for a in range(caps[i] + 1):
            search(i + 1, prefix + (a,), product * mod.factors[i][0] ** a)

    search(0, (), 1)
    assert best is not None and best_bound is not None
    return ExponentChoice(best, best_bound)


def test_choose_exponents_matches_reference():
    for m in range(2, 401):
        mod = factorize(m)
        for d in [*range(1, 65), 100, 255, 1000, 4096]:
            assert choose_exponents(mod, d) == reference_choose_exponents(mod, d), (m, d)


def test_choose_exponents_rejects_d_below_1_as_the_reference_does():
    for d in (0, -1):
        assert outcome(choose_exponents, factorize(6), d) == outcome(
            reference_choose_exponents, factorize(6), d
        )
