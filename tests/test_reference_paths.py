"""The product-loop expansion, the a-strong lookup judge (cached per
(target, actual) pair over the union of supports), the packed-row cell
counts, the value-count property check and the exponent choice against
the plain loops they replaced, kept here as reference implementations:
same coefficient maps, same counts, same reports, same choices, same
errors.  The coefficients verify reads off a cover's count table are
checked against the expansion of the cover's circuit.  One judge
(coverkd._judge) serves the property check and the a-strong check of
two cell tables: tables of one byte per cell are judged through byte
tables and wider ones through a set of failing values, so both kinds
are checked, on passing and failing covers; the reference decodes flat
indices with its own cell_at.  A cover's coefficients against the
ordered target, both cell tables, give the report the lookup judge
gives on their dicts, and flag the cells the property check flags;
only a 0/1 byte target sends a pair to the table judge.  The tables'
lookups are those of their dicts.  So are those of a cover circuit's
forms, read-only maps over a part's bitmask."""

import array
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from symcover.zmod import astrong_coeff_status, factorize
from symcover.sympoly import ExponentChoice, choose_exponents
from symcover.cover2d import build_s2_cover, multiplicity_table
from symcover.coverkd import (
    Box,
    CellViolation,
    PropertyReport,
    WeightedBoxCover,
    _check_properties,
    _counts,
    _repeated_cells,
    box_multiplicity_table,
    build_sk_cover,
    field_width,
)
from symcover.circuit import (
    CellTable,
    Gate,
    PartForm,
    SigmaPiSigmaCircuit,
    VariableSpace,
    cell_monomials,
    cover_coefficients,
    expand_coefficients,
    from_cover2d,
    from_coverkd,
    group_names,
    identify_variables_and_scale,
)
from symcover import astrong
from symcover.astrong import (
    AStrongReport,
    MonomialWitness,
    check_astrong,
    target_coefficients,
)

MODULI = [factorize(m) for m in (6, 12, 35, 385)]
# the count table's property tests run 300 examples, or more under a
# profile that asks for more (the long profile in conftest.py)
COUNT_EXAMPLES = max(300, settings().max_examples)


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
    return {k: v for k, v in acc.items() if v != 0}


def reference_check(b, a, mod):
    """Judge every monomial of the union of supports in sorted order."""
    violations = []
    support = set(a) | set(b)
    for mono in sorted(support):
        av = a.get(mono, 0)
        bv = b.get(mono, 0)
        if not astrong_coeff_status(av, bv, mod)[0]:
            violations.append(MonomialWitness(mono, av, bv))
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
    assert expected[(x(1), y(2))] == 4  # (m - 1) + (m - 2)(m - 1) + 3
    assert (x(1), y(3)) in expected and (x(2), y(2)) in expected


@pytest.mark.parametrize(
    "cover, convert",
    [
        # s2: items that share a first part can carry different weights
        (lambda: build_s2_cover(16, factorize(35)), from_cover2d),
        (lambda: build_sk_cover(8, 3, factorize(35), seed=4), from_coverkd),
    ],
    ids=["s2", "sk"],
)
def test_cover_circuits_share_one_form_per_group_part_and_coefficient(cover, convert):
    cover = cover()
    c = convert(cover)
    by_key = {}
    for (box, w), gate in zip(cover.items, c.gates):
        coeffs = [w % 35] + [1] * (cover.k - 1)
        for key in zip(range(cover.k), box.parts, coeffs):
            by_key.setdefault(key, set()).add(id(gate.forms[key[0]]))
    assert all(len(ids) == 1 for ids in by_key.values())
    distinct = {id(f) for g in c.gates for f in g.forms}
    assert len(distinct) == len(by_key) < cover.k * len(c.gates)


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
    """A target and a candidate over x1..x4, with monomials present only
    in b, only in a, and stored zero coefficients on either side."""
    mod = draw(st.sampled_from(MODULI))
    values = st.integers(0, 2 * mod.m)
    a = draw(st.dictionaries(MONOS, st.integers(0, 2), max_size=8))
    b = {mono: draw(values) for mono in a if draw(st.booleans())}
    b.update(draw(st.dictionaries(MONOS, values, max_size=4)))
    return b, a, mod


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(map_pairs())
def test_check_matches_reference(case):
    assert check_astrong(*case) == reference_check(*case)


def test_check_matches_reference_on_cover_expansions():
    mod = factorize(35)
    cover = build_s2_cover(24, mod)
    good = expand_coefficients(from_cover2d(cover))
    shifted = {mono: v + 1 for mono, v in good.items()}
    shifted[(("x", 1), ("x", 2))] = 5  # stray, and not of the target's shape
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
            assert target_coefficients(n, k, ordered=True) == expected


def cell_at(index, n, k):
    """The 1-based tuple at a flat row-major index: its k base-n digits,
    most significant first, each plus 1."""
    digits = []
    for _ in range(k):
        index, j = divmod(index, n)
        digits.append(j + 1)
    return tuple(reversed(digits))


def test_repeated_cells_are_their_definition():
    for n in range(1, 8):
        for k in range(1, 5):
            expected = {i for i in range(n**k) if len(set(cell_at(i, n, k))) < k}
            assert _repeated_cells(n, k) == expected


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
    suspects = {i for i in range(n**k) if len(set(cell_at(i, n, k))) < k}
    suspects.update(itertools.compress(range(len(counts)), map(bad[1].__getitem__, counts)))
    violations = []
    for i in sorted(suspects):
        cell, d = cell_at(i, n, k), counts[i] % mod.m
        target = int(len(set(cell)) == k)
        if bad[target][counts[i]]:
            violations.append(CellViolation(cell, d, target))
    # an array compares equal to any array of the same values, whatever its width
    return PropertyReport(not violations, violations, len(counts), counts=array.array("Q", counts))


def assert_same_counts_and_report(cover):
    expected = reference_counts(cover)
    assert _counts(cover).tolist() == expected
    assert _check_properties(cover) == reference_check_properties(cover)
    m = cover.mod.m
    table = {cell_at(i, cover.n, cover.k): c % m for i, c in enumerate(expected) if c}
    assert box_multiplicity_table(cover) == table
    if cover.k == 2:
        n = cover.n
        rows = [[c % m for c in expected[r * n : (r + 1) * n]] for r in range(n)]
        assert multiplicity_table(cover) == rows


def widened(cover):
    """The cover plus pairs of full boxes weighing 1 and m - 1, enough of
    them to add 256 or more to every cell: every count keeps its residue
    mod m, so every verdict stays, but the table needs wider fields."""
    m = cover.mod.m
    full = Box.of(*[range(1, cover.n + 1)] * cover.k)
    pad = [(full, 1), (full, m - 1)] * (255 // m + 1)
    return WeightedBoxCover(cover.n, cover.k, cover.mod, cover.items + pad)


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


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(box_covers())
def test_counts_and_check_match_reference(cover):
    assert_same_counts_and_report(cover)
    # judged again on a wide table: both verdict paths meet the reference,
    # and the report carries the wide table it judged
    padded = widened(cover)
    wide, expected = _check_properties(padded), reference_check_properties(cover)
    raised = sum(w for _, w in padded.items[len(cover.items):])
    assert wide[:-1] == expected[:-1]
    assert wide.counts.tolist() == [c + raised for c in expected.counts]


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


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(cancelling_box_covers())
def test_cover_coefficients_are_the_expansion_of_the_cover_circuit(cover):
    # read off the table the property check judged and carries in its report
    to_circuit = from_cover2d if cover.k == 2 else from_coverkd
    counts = _check_properties(cover).counts
    assert cover_coefficients(cover, counts) == expand_coefficients(to_circuit(cover))


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


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("bound", [2**8 - 1, 2**8, 2**16 - 1, 2**16])
def test_counts_match_reference_at_every_first_index_bound(k, bound):
    # the items whose first part is {j} weigh bound - n + j in all, so the
    # largest such sum is the last index's, and it falls on one cell alone,
    # (n, 1, ..., 1); the total is about n times the bound
    n = 5
    mod = factorize(6 * 2**32)
    full = [range(1, n + 1)] * (k - 1)
    items = [(Box.of({j}, *full), bound - n + j - (j == n)) for j in range(1, n + 1)]
    items.append((Box.of({n}, *[{1}] * (k - 1)), 1))
    cover = WeightedBoxCover(n, k, mod, items)
    total = sum(w for _, w in items)
    assert field_width(total) > field_width(bound - 1)
    assert _counts(cover).itemsize == field_width(bound)
    assert max(reference_counts(cover)) == bound
    assert_same_counts_and_report(cover)


@pytest.mark.parametrize(
    "build, itemsize",
    [
        (lambda: build_s2_cover(2048, factorize(6)), 1),
        (lambda: build_s2_cover(512, factorize(35)), 1),
        (lambda: build_sk_cover(10, 4, factorize(385), seed=0), 4),
    ],
    ids=["s2-cells", "s2-expand", "sk-boxes"],
)
def test_count_table_width_on_the_benchmark_covers(build, itemsize):
    # the benchmark's covers, as `build` makes them
    assert _counts(build()).itemsize == itemsize


def test_counts_reject_a_weight_sum_beyond_64_bits():
    mod = factorize(6 * 2**64)
    cover = WeightedBoxCover(2, 2, mod, [(Box.of({1}, {2}), 2**64)])
    with pytest.raises(ValueError, match="64-bit"):
        _counts(cover)


def assert_failing_count_is_found(table, itemsize):
    # 0 sits on the diagonal cells (1, 1) and (3, 3) and on (1, 2); 2 sits
    # on (2, 2) and (2, 1): each count also held by a repeated-index cell
    mod = factorize(6)
    rect = lambda rows, cols: Box.of(rows, cols)
    items = [
        (rect({1}, {3}), 1), (rect({2}, {1, 3}), 1), (rect({3}, {1, 2}), 1),
        (rect({2}, {2}), 2), (rect({2}, {1}), 1),
    ]
    cover = table(WeightedBoxCover(3, 2, mod, items))
    assert _counts(cover).itemsize == itemsize
    report = _check_properties(cover)
    found = [(v.cell, v.count) for v in report.violations]
    assert found == [((1, 2), 0), ((2, 1), 2), ((2, 2), 2)]
    assert_same_counts_and_report(cover)
    fixed = table(WeightedBoxCover(3, 2, mod, items[:3] + [(rect({1}, {2}), 1)]))
    assert _check_properties(fixed).ok
    assert_same_counts_and_report(fixed)


def test_a_failing_count_on_repeated_and_distinct_cells_is_found():
    assert_failing_count_is_found(lambda cover: cover, 1)


def test_a_failing_count_on_a_wide_table_is_found():
    # every count raised by a multiple of m
    assert_failing_count_is_found(widened, 2)


@pytest.mark.parametrize("m", [6, 35])
def test_check_matches_reference_on_s2_covers(m):
    # each case is judged on its one-byte table and, widened, on a wider one
    mod = factorize(m)
    for n in [*range(2, 65), 128, 255, 256, 257]:
        cover = build_s2_cover(n, mod)
        dropped = WeightedBoxCover(n, 2, mod, cover.items[1:])
        for case in (cover, dropped):
            expected = reference_check_properties(case)
            counts = reference_counts(case)
            wide = widened(case)
            raised = sum(w for _, w in wide.items[len(case.items):])
            report, wide_report = _check_properties(case), _check_properties(wide)
            assert (report.counts.itemsize, wide_report.counts.itemsize) == (1, 2), n
            assert report == expected and wide_report[:-1] == expected[:-1], n
            assert wide_report.counts.tolist() == [c + raised for c in counts], n
        assert expected.ok is False and reference_check_properties(cover).ok, n


@pytest.mark.parametrize(
    "table, itemsize", [(lambda cover: cover, 1), (widened, 2)], ids=["one-byte", "wide"]
)
def test_cover_coefficients_on_passing_and_failing_covers(table, itemsize):
    mod = factorize(35)
    cover = build_s2_cover(16, mod)
    target = target_coefficients(16, 2, ordered=True)
    for case, ok in ((cover, True), (WeightedBoxCover(16, 2, mod, cover.items[1:]), False)):
        case = table(case)
        counts = _counts(case)
        assert counts.itemsize == itemsize
        coefficients = cover_coefficients(case, counts)
        assert coefficients == expand_coefficients(from_cover2d(case))
        report = check_astrong(coefficients, target, mod)
        assert report.ok is ok
        assert report == check_astrong(dict(coefficients), dict(target), mod)


@st.composite
def judged_covers(draw):
    """A passing s2 or sk cover, k in {2, 3}, as built, with its first
    item dropped, or with every weight shifted by one.  Counts of one
    byte give a bytes residue table, wider ones an array, and the one
    judge takes both against the ordered target: here every m = 6 or
    m = 35 cover gives a bytes table, and every m = 385 cover, whose
    counts are wider than a byte, an array."""
    k = draw(st.sampled_from([2, 3]))
    mod = factorize(draw(st.sampled_from([6, 35, 385])))
    n = draw(st.integers(k, 8))
    if k == 2:
        cover = build_s2_cover(n, mod)
    else:
        cover = build_sk_cover(n, k, mod, seed=draw(st.integers(0, 3)))
    items = draw(st.sampled_from([
        cover.items, cover.items[1:], [(box, w + 1) for box, w in cover.items],
    ]))
    return WeightedBoxCover(n, k, mod, items)


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(judged_covers())
def test_cell_table_judge_matches_the_dict_judge(cover):
    coefficients = cover_coefficients(cover, _counts(cover))
    target = target_coefficients(cover.n, cover.k, ordered=True)
    assert isinstance(coefficients, CellTable) and isinstance(target, CellTable)
    report = check_astrong(coefficients, target, cover.mod)
    assert report == check_astrong(dict(coefficients), dict(target), cover.mod)


def position_order(mono):
    """A cell monomial's indices in position order, not group-name order."""
    groups = group_names(len(mono))
    return tuple(j for _, j in sorted(mono, key=lambda var: groups.index(var[0])))


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(judged_covers())
def test_property_check_and_table_judge_flag_the_same_cells(cover):
    properties = _check_properties(cover)
    target = target_coefficients(cover.n, cover.k, ordered=True)
    report = check_astrong(cover_coefficients(cover, properties.counts), target, cover.mod)
    assert report.ok is properties.ok
    assert sorted(position_order(v.monomial) for v in report.violations) == sorted(
        v.cell for v in properties.violations
    )


# one-byte and wide tables over k = 10, n = 2, where group-name order
# ("x10" < "x2") is not position order
K10 = bytes(i * 37 % 11 for i in range(1024))


@pytest.mark.parametrize("m", [6, 385])
def test_cell_table_judge_matches_the_dict_judge_at_k_10(m):
    # the failing monomials come sorted, which is not row-major order here
    mod = factorize(m)
    target = CellTable(2, 10, bytes(c % 2 for c in K10))
    actual = CellTable(2, 10, array.array("H", (c * 301 % m for c in K10)))
    report = check_astrong(actual, target, mod)
    assert not report.ok
    assert report == check_astrong(dict(actual), dict(target), mod)


TABLE_TYPES = {
    "bytes": bytes,
    "bytearray": bytearray,
    "array B": lambda values: array.array("B", values),
    "array H": lambda values: array.array("H", values),
}


@st.composite
def table_pairs(draw):
    """An actual and a target table over one shape, k <= 3 and small n,
    each held in bytes, a bytearray, or an array of one or two bytes per
    cell; targets of 0 and 1 only or holding a 2, and actuals up to 127
    or up to 255, so that the one judge takes some pairs and the lookup
    judge the others."""
    mod = factorize(draw(st.sampled_from([6, 35, 385])))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(1, 4))
    tables = []
    for top in (st.sampled_from([1, 2]), st.sampled_from([127, 255])):
        values = draw(st.lists(st.integers(0, draw(top)), min_size=n**k, max_size=n**k))
        kind = draw(st.sampled_from(sorted(TABLE_TYPES)))
        tables.append(CellTable(n, k, TABLE_TYPES[kind](values)))
    target, actual = tables
    return actual, target, mod


def square(actual, target, m):
    """An actual and a target table over the 3 x 3 cells, mod m."""
    return CellTable(3, 2, actual), CellTable(3, 2, target), factorize(m)


# pinned: every actual 127; actuals of 128, of 255 and 231 at m = 385, and
# in an array of two bytes per cell; a target holding a 2 or held in an
# array; all-zero tables; a failing table with several witnesses
DISTINCT = bytes(target_coefficients(3, 2, ordered=True).table)
PINNED = {
    "actual 127": square(bytes([127] * 9), DISTINCT, 6),
    "actual 128": square(bytes([1] * 8 + [128]), DISTINCT, 6),
    "actual 128 off the diagonal": square(bytes([0, 128, 3, 4, 0, 1, 1, 1, 0]), DISTINCT, 6),
    "actual 255": square(bytes([0, 255, 231, 1, 0, 1, 1, 1, 255]), DISTINCT, 385),
    "array H actual": square(array.array("H", [0, 1, 1, 300, 0, 1, 1, 1, 385]), DISTINCT, 385),
    "target 2": square(bytes(9), bytes([2] + [1] * 8), 35),
    "array target": square(DISTINCT, array.array("B", DISTINCT), 35),
    "all zero": square(bytes(9), bytearray(9), 35),
    "failing": square(bytes([5, 1, 6, 1, 0, 7, 2, 1, 0]), DISTINCT, 35),
}


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(table_pairs())
@example(PINNED["actual 127"])
@example(PINNED["actual 128"])
@example(PINNED["actual 128 off the diagonal"])
@example(PINNED["actual 255"])
@example(PINNED["array H actual"])
@example(PINNED["target 2"])
@example(PINNED["array target"])
@example(PINNED["all zero"])
@example(PINNED["failing"])
def test_table_judge_matches_the_dict_judge(case):
    b, a, mod = case
    assert check_astrong(b, a, mod) == check_astrong(dict(b), dict(a), mod)


DIAGONAL = [(1, 1), (2, 2), (3, 3)]


@pytest.mark.parametrize(
    "name, judged, checked, failing",
    [
        ("actual 127", True, 9, DIAGONAL),
        ("actual 128", True, 9, DIAGONAL),
        ("actual 128 off the diagonal", True, 6, [(1, 2)]),
        ("actual 255", True, 7, [(1, 2), (3, 3)]),
        ("array H actual", True, 7, [(2, 1)]),
        ("target 2", False, 9, [cell_at(i, 3, 2) for i in range(9)]),
        ("array target", False, 6, []),
        ("all zero", True, 0, []),
        ("failing", True, 7, [(1, 1), (1, 3), (2, 3), (3, 1)]),
    ],
)
def test_table_judge_takes_byte_targets_of_0_and_1_only(
    name, judged, checked, failing, monkeypatch
):
    # a pair whose target is a 0/1 byte table goes to the table judge once,
    # any other pair to the lookup judge, and both give the dict judge's report
    b, a, mod = PINNED[name]
    expected = check_astrong(dict(b), dict(a), mod)
    assert (expected.ok, expected.checked) == (not failing, checked)
    assert [tuple(j for _, j in v.monomial) for v in expected.violations] == failing
    calls = []
    table_judge = astrong._check_tables

    def recorded(*args):
        calls.append(args)
        return table_judge(*args)

    monkeypatch.setattr(astrong, "_check_tables", recorded)
    assert check_astrong(b, a, mod) == expected
    assert len(calls) == judged


def probe_keys(n, k):
    """Every cell monomial, and near misses: swapped group order, j = 0
    and j = n + 1, the wrong arity, non-tuples, and ("x", True) and
    ("x", 1.0), which a dict finds as ("x", 1)."""
    for mono in cell_monomials(n, k):
        (g, j), rest = mono[0], mono[1:]
        yield mono
        yield (*rest, mono[0])
        yield ((g, 0), *rest)
        yield ((g, n + 1), *rest)
        yield rest
        yield (*mono, mono[0])
        yield ((g, j == 1), *rest)
        yield ((g, float(j)), *rest)
    yield from ("x", 1, None, frozenset(next(cell_monomials(n, k))), [("x", 1)])


def probe(fn, key):
    """The result, or the type of the error raised."""
    try:
        return fn(key)
    except (KeyError, TypeError) as exc:
        return type(exc)


@st.composite
def cell_tables(draw):
    """A cover's coefficients or an ordered target."""
    if draw(st.booleans()):
        cover = draw(judged_covers())
        return cover_coefficients(cover, _counts(cover))
    n = draw(st.integers(1, 6))
    return target_coefficients(n, draw(st.integers(1, min(n, 3))), ordered=True)


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(cell_tables())
@example(CellTable(2, 10, K10))
@example(CellTable(2, 10, array.array("H", (c * 300 for c in K10))))
def test_cell_table_lookups_match_its_dict(table):
    n, k = table.n, table.k
    plain = dict(table)
    expected = [mono for mono, c in zip(cell_monomials(n, k), table.table) if c]
    assert list(table) == list(plain) == expected
    assert len(table) == len(plain) == len(expected)
    assert table == plain
    for key in probe_keys(n, k):
        assert probe(table.__contains__, key) == probe(plain.__contains__, key), key
        assert probe(table.get, key) == probe(plain.get, key), key


def form_probe_keys(n, groups):
    """Every variable of every group at j = 0..n + 1, another group's, and
    near misses: ("x", True) and ("x", 1.0), which a dict finds as
    ("x", 1), a bare index, a non-tuple and unhashable keys."""
    for g in (*groups, "z"):
        for j in range(n + 2):
            yield (g, j)
            yield (g, j == 1)
            yield (g, float(j))
            yield (j, g)
            yield j
    yield from ("x", None, (), ("x", 1, 1), [("x", 1)], ("x", [1]), {"x": 1})


@st.composite
def part_covers(draw):
    """A cover of arbitrary parts over 1..n, empty ones included, and
    weights, zero mod m included."""
    n, k = draw(st.integers(1, 9)), draw(st.integers(1, 3))
    mod = draw(st.sampled_from(MODULI))
    part = st.integers(0, 2**n - 1).map(lambda bits: bits << 1)
    item = st.tuples(st.tuples(*[part] * k).map(Box), st.integers(1, 2 * mod.m))
    return WeightedBoxCover(n, k, mod, draw(st.lists(item, min_size=1, max_size=6)))


@settings(max_examples=COUNT_EXAMPLES, deadline=None)
@given(part_covers())
def test_part_form_lookups_match_its_dict(cover):
    c = from_coverkd(cover)
    for (box, w), gate in zip(cover.items, c.gates):
        coeffs = [w % cover.mod.m] + [1] * (cover.k - 1)
        for g, part, coef, form in zip(c.vars.groups, box.parts, coeffs, gate.forms):
            assert isinstance(form, PartForm)
            plain = dict(form)
            expected = {(g, j): coef for j in range(1, cover.n + 1) if part >> j & 1}
            assert list(form) == list(plain) == list(expected)
            assert len(form) == len(plain) == len(expected)
            assert form == plain and plain == form and plain == expected
            assert list(form.items()) == list(plain.items())
            assert list(form.values()) == list(plain.values())
            for key in form_probe_keys(cover.n, c.vars.groups):
                assert probe(form.__contains__, key) == probe(plain.__contains__, key), key
                assert probe(form.get, key) == probe(plain.get, key), key
                assert probe(form.__getitem__, key) == probe(plain.__getitem__, key), key


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
