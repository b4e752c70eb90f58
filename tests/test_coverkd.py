import functools
import hashlib
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from symcover import coverkd, serialize
from symcover.zmod import factorize
from symcover.sympoly import SymmetricPolynomial, bbr_construct, weight_value
from symcover.cover2d import build_s2_cover, initial_cover, transform
from symcover.coverkd import (
    Box,
    ConstructionError,
    HashMatrix,
    PropertyReport,
    WeightedBoxCover,
    box_multiplicity_table,
    build_hash_family,
    build_sk_cover,
    initial_box_cover,
    members,
    rect_as_box_cover,
    transform_boxes,
    verify_hash_family,
    verify_sk_properties,
)

from naive_boxes import box_multiplicity, contains, intersect

M6 = factorize(6)
M35 = factorize(35)
M385 = factorize(385)

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


@pytest.mark.parametrize(
    "args, seed, u, sha256",
    [
        ((10, 4, 8), 0, 4, "58baae62ca7a70136867f40b97bd77332fd16373fa8f05a1c097c93a428e1416"),
        ((8, 3, 6), 7, 3, "533407205a582d4149dcbb13f7d1245ea19b661f5ef8ebf07605d5a7e9717fc8"),
        ((20, 3, 6), 11, 6, "48258fbbfab58f86d133b7f2c8b1d4bccd5c332768790fcec820da0853db5203"),
        ((12, 2, 4), 3, 2, "48a033fb206e812a88771b886095a8ee1f12c43a56028e1e6afc6f32e5c78f1e"),
    ],
    ids=["10-4-8-seed0", "8-3-6-seed7", "20-3-6-seed11", "12-2-4-seed3"],
)
def test_build_hash_family_rows_are_pinned(args, seed, u, sha256):
    # the greedy search is deterministic given the seed: its rows are pinned
    h = build_hash_family(*args, seed=seed)
    assert verify_hash_family(h).ok
    assert h.u == u
    assert hashlib.sha256(json.dumps(h.rows).encode()).hexdigest() == sha256


def test_build_hash_family_errors(monkeypatch):
    with pytest.raises(ValueError, match="alphabet"):
        build_hash_family(6, 3, 2)
    with pytest.raises(ValueError, match="2 <= k <= n"):
        build_hash_family(6, 7, 2)  # k is judged before the alphabet
    monkeypatch.setattr(coverkd, "_MAX_ROUNDS", 0)
    with pytest.raises(ConstructionError, match="unseparated"):
        build_hash_family(8, 2, 2, seed=0)


def test_a_round_that_separates_nothing_adds_no_row(monkeypatch):
    # the first round draws 32 constant rows, which separate no subset: it
    # is skipped, and the rounds after it keep the pinned rows of seed 7
    n, draws = 8, random.Random

    class ZerosFirst:
        def __init__(self, seed):
            self.zeros, self.rng = 32 * n, draws(seed)

        def randrange(self, b):
            if self.zeros:
                self.zeros -= 1
                return 0
            return self.rng.randrange(b)

    monkeypatch.setattr(random, "Random", ZerosFirst)
    h = build_hash_family(n, 3, 6, seed=7)
    assert hashlib.sha256(json.dumps(h.rows).encode()).hexdigest() == (
        "533407205a582d4149dcbb13f7d1245ea19b661f5ef8ebf07605d5a7e9717fc8"
    )


def test_build_hash_family_rechecks_its_rows_exhaustively(monkeypatch):
    # rows the incremental tracking accepts but the exhaustive check refuses
    refused = coverkd.HashReport(False, [(1, 2)], 1)
    monkeypatch.setattr(coverkd, "verify_hash_family", lambda h: refused)
    with pytest.raises(ConstructionError, match="incremental tracking disagrees"):
        build_hash_family(8, 3, 6, seed=7)


def test_initial_box_cover_reads_off_rows():
    cover = initial_box_cover(PAIRS_MATRIX, M6)
    # Row 2 is (0,1,0,1): columns hashed to 0 are {1,3}, to 1 are {2,4}.
    assert (Box.of({1, 3}, {2, 4}), 1) in cover.items
    assert cover.meta["u"] == 2


def test_initial_box_cover_properties():
    h = build_hash_family(8, 3, 6, seed=3)
    cover = initial_box_cover(h, M6)
    # each row separates some 3-subset, whose 3! orderings are nonempty boxes
    assert len(cover.items) >= 6 * h.u
    for box, w in cover.items:
        assert w == 1
        parts = list(box.parts)
        for a, b in itertools.combinations(parts, 2):
            assert not (a & b)
    for tup in itertools.product(range(1, 9), repeat=3):
        raw = sum(1 for box, _ in cover.items if contains(box, tup))
        if len(set(tup)) < 3:
            assert raw == 0
        else:
            assert 1 <= raw <= h.u


def test_records_are_values():
    mod = factorize(6)
    a, b = WeightedBoxCover(3, 2, mod, []), WeightedBoxCover(3, 2, mod, [])
    a.meta["h"] = 1
    assert b.meta == {} and a.meta is not b.meta  # each cover its own fresh meta
    box, h = Box.of({1}, {2}), HashMatrix(2, 2, 2, ((0, 1),))
    for record, name in [(box, "parts"), (h, "rows"), (a, "meta")]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(box) == "Box(parts=(2, 4))" and box == Box((2, 4)) and h.u == 1
    assert PropertyReport(True, [], 0).sampled is False


def test_box_multiplicity_basic():
    empty = WeightedBoxCover(4, 2, M6, [])
    assert box_multiplicity(empty, (1, 2)) == 0
    single = WeightedBoxCover(
        4, 2, M6, [(Box.of({1}, {2}), 5)]
    )
    assert box_multiplicity(single, (1, 2)) == 5
    assert box_multiplicity(single, (2, 1)) == 0
    with pytest.raises(ValueError):
        box_multiplicity(single, (0, 2))
    initial = initial_box_cover(PAIRS_MATRIX, M6)
    assert box_multiplicity(initial, (2, 2)) == 0


def test_box_intersection_componentwise():
    a = Box.of({1, 2}, {3, 4}, {5})
    b = Box.of({2}, {3}, {5, 6})
    assert intersect(a, b) == Box.of({2}, {3}, {5})


@st.composite
def index_set_boxes(draw):
    """n, k and two boxes as tuples of k index sets over 1..n, empty sets
    included, with tuples of 1..n to probe them at."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 12))
    part = st.frozensets(st.integers(1, n))
    a, b = (draw(st.tuples(*[part] * k)) for _ in range(2))
    probes = draw(st.lists(st.tuples(*[st.integers(1, n)] * k), max_size=30))
    return n, k, a, b, probes


@settings(max_examples=300, deadline=None)
@given(index_set_boxes())
def test_mask_boxes_agree_with_index_sets(case):
    n, k, a, b, probes = case
    box_a, box_b = Box.of(*a), Box.of(*b)
    assert all(type(part) is int for part in box_a.parts)
    assert [members(part) for part in box_a.parts] == [sorted(s) for s in a]
    assert box_a.rows == a[0] and box_a.cols == a[1]
    assert box_a.is_empty == any(not s for s in a)
    meet = tuple(x & y for x, y in zip(a, b))
    assert intersect(box_a, box_b) == Box.of(*meet)
    assert intersect(box_a, box_b).is_empty == any(not s for s in meet)
    for tup in probes + [tuple(min(s, default=1) for s in a)]:
        assert contains(box_a, tup) == all(j in s for j, s in zip(tup, a))


@st.composite
def weighted_covers(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, 12))
    mod = factorize(draw(st.sampled_from([6, 35, 385])))
    part = st.frozensets(st.integers(1, n))
    boxes = st.tuples(*[part] * k).map(lambda parts: Box.of(*parts))
    items = draw(st.lists(st.tuples(boxes, st.integers(1, mod.m - 1)), max_size=10))
    return WeightedBoxCover(n, k, mod, items, {"seed": 0})


@settings(max_examples=200, deadline=None)
@given(weighted_covers())
def test_cover_round_trips_through_its_dict(cover):
    loaded = serialize.cover_from_dict(serialize.cover_to_dict(cover))
    assert (loaded.n, loaded.k, loaded.mod) == (cover.n, cover.k, cover.mod)
    assert loaded.items == cover.items


def test_transform_keeps_one_int_per_distinct_part():
    h = build_hash_family(12, 3, 6, seed=3)
    base = initial_box_cover(h, M35)
    out = transform_boxes(base, bbr_construct(M35, d=h.u, ell=len(base.items)))
    parts = [part for box, _ in out.items for part in box.parts]
    distinct = set(parts)
    # ints above 256 are not cached by the interpreter: only the transform shares them
    assert max(distinct) > 256 and len(distinct) < len(parts) // 100
    assert len({*map(id, parts)}) == len(distinct)


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


def _subset_items(cover, f):
    """The transform's items by definition: every item subset of size
    1..deg f with c_t != 0 and a nonempty intersection, in index-tuple
    order."""
    found = []
    for t in range(1, f.degree + 1):
        if f.coeffs[t] == 0:
            continue
        for combo in itertools.combinations(range(len(cover.items)), t):
            box = functools.reduce(intersect, (cover.items[i][0] for i in combo))
            if not box.is_empty:
                found.append((combo, box, f.coeffs[t]))
    return [(box, w) for _, box, w in sorted(found, key=lambda e: e[0])]


@pytest.mark.parametrize(
    "make, run, coeffs",
    [
        (lambda: initial_box_cover(build_hash_family(6, 3, 3, seed=0)),
         transform_boxes, (0, 1, 2, 5)),
        # c_2 = 0: no pair is written, but the triples through the pairs are
        (lambda: initial_box_cover(build_hash_family(6, 3, 3, seed=0)),
         transform_boxes, (0, 1, 0, 5)),
        (lambda: initial_box_cover(build_hash_family(5, 4, 4, seed=0)),
         transform_boxes, (0, 1, 2, 5)),
        (lambda: initial_cover(8), transform, (0, 1, 2, 5)),
    ],
    ids=["k3-hash", "k3-hash-c2-zero", "k4-hash", "s2-digits-8"],
)
def test_transform_item_list_is_subset_enumeration(make, run, coeffs):
    base = make()
    f = SymmetricPolynomial(len(base.items), coeffs, M6)
    assert run(base, f).items == _subset_items(base, f)


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


def test_build_sk_cover_k5():
    cover = build_sk_cover(8, 5, M385)
    assert verify_sk_properties(cover).ok


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
        3, 2, M6, [(Box.of({1, 2}, {1, 3}), 1)]
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
            (Box.of(*({j} for j in tup)), 1)
            for tup in itertools.permutations(range(1, n + 1), 3)
            if tup != cell
        ]
        if len(set(cell)) < 3:
            items.append((Box.of(*({j} for j in cell)), 1))
        report = verify_sk_properties(WeightedBoxCover(n, 3, M6, items))
        assert [v.cell for v in report.violations] == [cell]
        assert report.checked == n**3
