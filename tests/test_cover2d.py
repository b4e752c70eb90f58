import itertools

import pytest

from symcover.zmod import factorize
from symcover.sympoly import SymmetricPolynomial, weight_value
from symcover.coverkd import Box, box_multiplicity
from symcover.cover2d import (
    WeightedRectCover,
    build_s2_cover,
    digit_scheme,
    initial_cover,
    multiplicity_table,
    transform,
    transformed_weights,
    verify_s2_properties,
)

M6 = factorize(6)
M15 = factorize(15)


def test_digit_scheme_examples():
    assert (digit_scheme(4).base, digit_scheme(4).digits) == (2, 3)
    assert (digit_scheme(256).base, digit_scheme(256).digits) == (8, 3)
    assert (digit_scheme(2).base, digit_scheme(2).digits) == (2, 2)
    with pytest.raises(ValueError):
        digit_scheme(1)


def test_digit_scheme_capacity():
    for n in range(2, 400):
        s = digit_scheme(n)
        assert s.base**s.digits >= n + 1
        assert s.base ** (s.digits - 1) < n + 1  # g is minimal


def test_initial_cover_n4():
    cover = initial_cover(4, M6)
    # Least-significant digits of 1..4 in base 2 are 1,0,1,0.
    assert (Box.of({2, 4}, {1, 3}), 1) in cover.items
    assert box_multiplicity(cover, (1, 2)) == 2  # 001 vs 010 differ twice
    for i in range(1, 5):
        assert box_multiplicity(cover, (i, i)) == 0


def test_initial_cover_multiplicity_is_hamming():
    for n in (4, 7, 16, 33):
        cover = initial_cover(n, M6)
        scheme = digit_scheme(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert box_multiplicity(cover, (i, j)) == scheme.hamming(i, j) % 6


def test_initial_cover_bounds():
    for n in (2, 3, 4, 9, 31):
        cover = initial_cover(n)
        scheme = digit_scheme(n)
        assert len(cover.items) <= scheme.digits * scheme.base
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                h = box_multiplicity(cover, (i, j))
                if i == j:
                    assert h == 0
                else:
                    assert 1 <= h <= scheme.digits


def test_multiplicity_basic():
    empty = WeightedRectCover(4, M6, [])
    assert box_multiplicity(empty, (1, 2)) == 0
    single = WeightedRectCover(4, M6, [(Box.of({1}, {2}), 4)])
    assert box_multiplicity(single, (1, 2)) == 4
    assert box_multiplicity(single, (2, 1)) == 0
    with pytest.raises(ValueError):
        box_multiplicity(single, (0, 2))
    with pytest.raises(ValueError):
        box_multiplicity(single, (1, 5))


def test_rectangle_intersection_algebra():
    a = Box.of({1, 2}, {3, 4})
    b = Box.of({2, 3}, {4})
    assert a.intersect(b) == Box.of({2}, {4})


def _brute_transform_multiplicity(cover, f, i, j):
    # Independent oracle: walk every subset of items explicitly.
    hits = [idx for idx, (rect, _) in enumerate(cover.items) if rect.contains((i, j))]
    total = 0
    for size in range(1, f.degree + 1):
        if f.coeffs[size] == 0:
            continue
        for combo in itertools.combinations(range(len(cover.items)), size):
            if all(k in hits for k in combo):
                total += f.coeffs[size]
    return total % f.mod.m


def test_transform_matches_subset_enumeration():
    cover = initial_cover(4, M6)
    f = SymmetricPolynomial(len(cover.items), (0, 1, 2), M6)
    out = transform(cover, f)
    for i in range(1, 5):
        for j in range(1, 5):
            expected = _brute_transform_multiplicity(cover, f, i, j)
            assert box_multiplicity(out, (i, j)) == expected
            # Same number via the weight-value form.
            w = sum(1 for rect, _ in cover.items if rect.contains((i, j)))
            assert expected == weight_value(f, w)


def test_transform_cell_values_n4():
    cover = initial_cover(4, M6)
    f = SymmetricPolynomial(len(cover.items), (0, 1, 2), M6)
    out = transform(cover, f)
    scheme = digit_scheme(4)
    for i in range(1, 5):
        for j in range(1, 5):
            h = scheme.hamming(i, j)
            if h == 2:
                assert box_multiplicity(out, (i, j)) == 4
            if h == 0:
                assert box_multiplicity(out, (i, j)) == 0


def test_transform_rejects_bad_inputs():
    cover = initial_cover(4, M6)
    with pytest.raises(ValueError, match="variables"):
        transform(cover, SymmetricPolynomial(3, (0, 1), M6))
    with pytest.raises(ValueError, match="constant"):
        transform(cover, SymmetricPolynomial(len(cover.items), (1, 1), M6))
    weighted = WeightedRectCover(
        4, M6, [(Box.of({1}, {2}), 2)]
    )
    with pytest.raises(ValueError, match="unit-weight"):
        transform(weighted, SymmetricPolynomial(1, (0, 1), M6))


def test_transformed_cover_equals_weight_values_exhaustive():
    for n in (4, 8, 16, 31, 64):
        for mod in (M6, M15):
            cover = build_s2_cover(n, mod)
            f = transformed_weights(cover)
            base = initial_cover(n)
            table = multiplicity_table(cover)
            base_table = multiplicity_table(base)
            for i in range(n):
                for j in range(n):
                    assert table[i][j] == weight_value(f, base_table[i][j])


def test_transformed_cover_symmetry_and_disjointness():
    cover = build_s2_cover(16, M6)
    table = multiplicity_table(cover)
    for i in range(16):
        for j in range(16):
            assert table[i][j] == table[j][i]
    for rect, w in cover.items:
        assert 1 <= w <= 5
        assert not (rect.rows & rect.cols)


def test_cardinality_accounting():
    import math

    n = 8
    cover = initial_cover(n, M6)
    h = len(cover.items)
    f = SymmetricPolynomial(h, (0, 1, 2), M6)
    out = transform(cover, f)
    count = 0
    for size in (1, 2):
        for combo in itertools.combinations(cover.items, size):
            rows = frozenset.intersection(*(r.rows for r, _ in combo))
            cols = frozenset.intersection(*(r.cols for r, _ in combo))
            if rows and cols:
                count += 1
    assert len(out.items) == count
    assert len(out.items) <= math.comb(h, 1) + math.comb(h, 2)


def test_verify_examples():
    assert verify_s2_properties(build_s2_cover(16, M6)).ok

    base = initial_cover(4, M6)
    report = verify_s2_properties(base)
    assert not report.ok  # Hamming-distance counts are not unit-pattern mod 6

    diag = WeightedRectCover(2, M6, [(Box.of({1}, {1}), 1)])
    report = verify_s2_properties(diag)
    assert not report.ok
    assert any(v.cell == (1, 1) for v in report.violations)

    # One bad cell at each far corner of the flat table, every other exact.
    n = 4
    for cell in [(1, n), (n, 1), (n, n)]:
        items = [
            (Box.of({i}, {j}), 1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j and (i, j) != cell
        ]
        if cell == (n, n):
            items.append((Box.of({n}, {n}), 1))
        report = verify_s2_properties(WeightedRectCover(n, M6, items))
        assert [v.cell for v in report.violations] == [cell]
        assert report.checked == n * n


def test_build_s2_diagonal_never_covered():
    cover = build_s2_cover(16, M6)
    for i in range(1, 17):
        raw = sum(w for rect, w in cover.items if rect.contains((i, i)))
        assert raw == 0


def test_build_s2_rejects_prime_power():
    with pytest.raises(ValueError):
        build_s2_cover(8, factorize(4))


def test_small_n_edge_cases():
    for n in (2, 3):
        for mod in (M6, M15):
            cover = build_s2_cover(n, mod)
            assert verify_s2_properties(cover).ok


def test_known_mutation_blind_spot():
    # Weight bumps are usually detected, but not always: at n=16, m=6 the
    # item below covers only cells whose count is 3, and 3 + 1 = 4 is
    # itself a valid unit-pattern value (0 mod 2, 1 mod 3).  The bumped
    # cover is therefore still a correct representation, just not the
    # constructed one; detection of arbitrary single-weight edits cannot
    # be promised in general.
    cover = build_s2_cover(16, M6)
    blind = Box.of({16}, {5, 6, 7, 9, 10, 11, 13, 14, 15})
    idx = next(i for i, (r, _) in enumerate(cover.items) if r == blind)
    items = list(cover.items)
    rect, w = items[idx]
    assert w == 2
    items[idx] = (rect, w + 1)
    mutated = WeightedRectCover(cover.n, cover.mod, items, dict(cover.meta))
    assert verify_s2_properties(mutated).ok
    table = multiplicity_table(mutated)
    for j in sorted(blind.cols):
        assert table[15][j - 1] == 4
