import itertools

import pytest

from symcover.zmod import factorize
from symcover.sympoly import SymmetricPolynomial, bbr_construct, weight_value
from symcover.cover2d import build_s2_cover
from symcover.coverkd import (
    Box,
    ConstructionError,
    HashMatrix,
    WeightedBoxCover,
    box_multiplicity,
    box_multiplicity_table,
    build_hash_family,
    build_sk_cover,
    initial_box_cover,
    rect_as_box_cover,
    transform_boxes,
    verify_hash_family,
    verify_sk_properties,
)

M6 = factorize(6)
M35 = factorize(35)

PAIRS_MATRIX = HashMatrix(4, 2, 2, ((0, 0, 1, 1), (0, 1, 0, 1)))


def test_verify_hash_family_accepts_known_matrix():
    report = verify_hash_family(PAIRS_MATRIX)
    assert report.ok
    assert report.checked == 6


def test_verify_hash_family_rejects_constant_rows():
    bad = HashMatrix(3, 2, 2, ((0, 0, 0),))
    report = verify_hash_family(bad)
    assert not report.ok
    assert len(report.failing_subsets) == 3


def test_single_identity_row_suffices_for_n_equals_k():
    for k in (2, 3, 4):
        h = HashMatrix(k, k, k, (tuple(range(k)),))
        assert verify_hash_family(h).ok
        assert h.separates(0, tuple(range(1, k + 1)))


def test_build_hash_family_greedy_and_randomized():
    greedy = build_hash_family(20, 3, 6, strategy="greedy", seed=11)
    assert verify_hash_family(greedy).ok
    assert greedy.u == 6  # pinned for regression
    rand = build_hash_family(20, 3, 6, strategy="randomized", seed=11)
    assert verify_hash_family(rand).ok
    assert rand.u == 10  # pinned for regression; well under 40
    # Deterministic given the seed.
    again = build_hash_family(20, 3, 6, strategy="greedy", seed=11)
    assert again == greedy


def test_build_hash_family_errors():
    with pytest.raises(ValueError, match="alphabet"):
        build_hash_family(6, 3, 2)
    with pytest.raises(ValueError, match="strategy"):
        build_hash_family(6, 2, 4, strategy="magic")
    with pytest.raises(ConstructionError, match="unseparated"):
        build_hash_family(8, 2, 2, seed=0, max_rows=0)


def test_initial_box_cover_reads_off_rows():
    cover = initial_box_cover(PAIRS_MATRIX, M6)
    # Row 2 is (0,1,0,1): columns hashed to 0 are {1,3}, to 1 are {2,4}.
    assert (Box((frozenset({1, 3}), frozenset({2, 4}))), 1) in cover.items
    assert cover.meta["u"] == 2


def test_initial_box_cover_properties():
    h = build_hash_family(8, 3, 6, seed=3)
    cover = initial_box_cover(h, M6)
    for box, w in cover.items:
        assert w == 1
        parts = list(box.parts)
        for a, b in itertools.combinations(parts, 2):
            assert not (a & b)
    for tup in itertools.product(range(1, 9), repeat=3):
        raw = sum(1 for box, _ in cover.items if box.contains(tup))
        if len(set(tup)) < 3:
            assert raw == 0
        else:
            assert 1 <= raw <= h.u


def test_box_multiplicity_basic():
    empty = WeightedBoxCover(4, 2, M6, [])
    assert box_multiplicity(empty, (1, 2)) == 0
    single = WeightedBoxCover(
        4, 2, M6, [(Box((frozenset({1}), frozenset({2}))), 5)]
    )
    assert box_multiplicity(single, (1, 2)) == 5
    assert box_multiplicity(single, (2, 1)) == 0
    with pytest.raises(ValueError):
        box_multiplicity(single, (0, 2))
    initial = initial_box_cover(PAIRS_MATRIX, M6)
    assert box_multiplicity(initial, (2, 2)) == 0


def test_box_intersection_componentwise():
    a = Box((frozenset({1, 2}), frozenset({3, 4}), frozenset({5})))
    b = Box((frozenset({2}), frozenset({3}), frozenset({5, 6})))
    assert a.intersect(b) == Box((frozenset({2}), frozenset({3}), frozenset({5})))


def test_transform_boxes_matches_weight_values():
    h = build_hash_family(8, 3, 6, seed=3)
    base = initial_box_cover(h, M6)
    f = bbr_construct(M6, d=h.u, ell=len(base.items))
    out = transform_boxes(base, f)
    base_table = box_multiplicity_table(
        WeightedBoxCover(base.n, base.k, None, base.items)
    )
    out_table = box_multiplicity_table(out)
    for tup in itertools.product(range(1, 9), repeat=3):
        w = base_table.get(tup, 0)
        assert out_table.get(tup, 0) % 6 == weight_value(f, w)
        if w == 0:
            assert tup not in out_table or out_table[tup] % 6 == 0


def test_transform_boxes_rejects_bad_inputs():
    base = initial_box_cover(PAIRS_MATRIX, M6)
    with pytest.raises(ValueError, match="variables"):
        transform_boxes(base, SymmetricPolynomial(2, (0, 1), M6))
    with pytest.raises(ValueError, match="constant"):
        transform_boxes(
            base, SymmetricPolynomial(len(base.items), (2, 1), M6)
        )


def test_build_sk_cover_k2():
    cover = build_sk_cover(8, 2, M6, seed=1)
    report = verify_sk_properties(cover)
    assert report.ok
    assert not report.sampled
    assert report.checked == 64


def test_build_sk_cover_k3():
    cover = build_sk_cover(12, 3, M35, seed=1)
    assert verify_sk_properties(cover).ok
    assert cover.meta["d"] == cover.meta["u"]


def test_ordering_invariance():
    cover = build_sk_cover(8, 3, M6, seed=5)
    table = box_multiplicity_table(cover)
    for combo in itertools.combinations(range(1, 9), 3):
        values = {table.get(p, 0) for p in itertools.permutations(combo)}
        assert len(values) == 1


def test_max_initial_multiplicity_is_at_most_u():
    h = build_hash_family(10, 2, 4, seed=9)
    base = initial_box_cover(h)
    table = box_multiplicity_table(base)
    assert max(table.values()) <= h.u


def test_transformed_boxes_have_disjoint_parts():
    cover = build_sk_cover(8, 2, M6, seed=1)
    for box, w in cover.items:
        assert 1 <= w <= 5
        for a, b in itertools.combinations(box.parts, 2):
            assert not (a & b)


def test_cross_validation_with_rect_pipeline():
    rect = build_s2_cover(8, M6)
    boxed = rect_as_box_cover(rect)
    assert verify_sk_properties(boxed).ok
    direct = build_sk_cover(8, 2, M6, seed=1)
    assert verify_sk_properties(direct).ok


def test_repeated_index_tuples_flagged_when_covered():
    # A box with overlapping parts covers (1, 1); the verifier must flag it.
    bad = WeightedBoxCover(
        3, 2, M6, [(Box((frozenset({1, 2}), frozenset({1, 3}))), 1)]
    )
    report = verify_sk_properties(bad)
    assert not report.ok
    assert any(v.cell == (1, 1) for v in report.violations)

    # k = 3, every distinct-index tuple covered once except for one
    # dropped tuple or one added repeated-index tuple, at the corners and
    # edges of the flat table.
    n = 3
    for cell in [(1, 2, n), (n, 2, 1), (n, n, n), (1, n, 1)]:
        items = [
            (Box(tuple(frozenset({j}) for j in tup)), 1)
            for tup in itertools.permutations(range(1, n + 1), 3)
            if tup != cell
        ]
        if len(set(cell)) < 3:
            items.append((Box(tuple(frozenset({j}) for j in cell)), 1))
        report = verify_sk_properties(WeightedBoxCover(n, 3, M6, items))
        assert [v.cell for v in report.violations] == [cell]
        assert report.checked == n**3
