import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from symcover.zmod import UnsupportedModulusError, binom_mod, factorize
from symcover.sympoly import (
    SymmetricPolynomial,
    amplify,
    bbr_construct,
    choose_exponents,
    from_weight_values,
    weight_value,
)

M6 = factorize(6)


def test_weight_value_examples():
    f = SymmetricPolynomial(6, (0, 1, 2), M6)
    assert weight_value(f, 3) == 3  # 3 + 2*C(3,2) = 9
    assert weight_value(f, 0) == 0
    g = SymmetricPolynomial(6, (0, 1, 2), M6)
    assert weight_value(g, 5) == 1  # 5 + 2*10 = 25
    with pytest.raises(ValueError):
        weight_value(f, 7)


def test_from_weight_values_examples():
    assert from_weight_values([0, 3], 4, M6).coeffs == (0, 3)
    f = from_weight_values([0, 1, 4], 6, M6)
    assert f.coeffs == (0, 1, 2)
    assert [weight_value(f, w) for w in range(3)] == [0, 1, 4]
    assert from_weight_values([5], 3, M6).coeffs == (5,)


@given(
    m=st.sampled_from([6, 12, 15, 35]),
    data=st.data(),
)
@settings(max_examples=80)
def test_weight_value_round_trip(m, data):
    mod = factorize(m)
    deg = data.draw(st.integers(0, 12))
    ell = data.draw(st.integers(deg, deg + 6))
    values = data.draw(
        st.lists(st.integers(0, m - 1), min_size=deg + 1, max_size=deg + 1)
    )
    f = from_weight_values(values, ell, mod)
    # The interpolant reproduces the full table, and the table determines
    # the polynomial uniquely.
    assert [weight_value(f, w) for w in range(deg + 1)] == values
    assert from_weight_values(f.weight_table(f.degree), ell, mod) == f


def test_from_weight_values_needs_enough_variables():
    with pytest.raises(ValueError):
        from_weight_values([0, 1, 2], 1, M6)


def test_amplify_identity_and_examples():
    assert amplify(5, 3, 1) == 2
    assert amplify(1, 2, 2) == 1
    # Degree-3 amplifier for p=2, e=2 is 3x^2 - 2x^3; check all residues.
    for x in range(4):
        assert amplify(x, 2, 2) == (3 * x * x - 2 * x**3) % 4
    assert amplify(2, 2, 2) == 0


def test_amplify_contract_exhaustive():
    for p in (2, 3, 5):
        for e in (1, 2, 3):
            q = p**e
            for x in range(q):
                a = amplify(x, p, e)
                assert 0 <= a < q
                if x % p == 0:
                    assert a % q == 0
                elif x % p == 1:
                    assert a % q == 1


def test_amplify_rejects_bad_exponent():
    with pytest.raises(ValueError):
        amplify(1, 2, 0)


def _brute_exponents(mod, d):
    # Independent search: try all tuples up to a generous cap.
    best = None
    caps = [next(a for a in range(40) if p**a >= d + 1) for p, _ in mod.factors]
    for combo in itertools.product(*(range(c + 1) for c in caps)):
        if math.prod(p**a for (p, _), a in zip(mod.factors, combo)) < d + 1:
            continue
        bound = max(
            (2 * e - 1) * (p**a - 1) for (p, e), a in zip(mod.factors, combo)
        )
        if best is None or (bound, combo) < best:
            best = (bound, combo)
    return best


def test_choose_exponents_examples():
    assert choose_exponents(M6, 5).exponents == (1, 1)
    assert choose_exponents(M6, 3).exponents == (1, 1)
    assert choose_exponents(M6, 1).exponents == (1, 0)


def test_choose_exponents_matches_brute_force():
    for m in (6, 10, 12, 15, 21, 35, 90):
        mod = factorize(m)
        for d in range(1, 30):
            choice = choose_exponents(mod, d)
            bound, combo = _brute_exponents(mod, d)
            assert choice.exponents == combo
            assert choice.degree_bound == bound
            assert (
                math.prod(p**a for (p, _), a in zip(mod.factors, combo)) >= d + 1
            )


def _check_bbr_contract(mod, d, ell):
    f = bbr_construct(mod, d, ell)
    table = f.weight_table()
    assert table[0] == 0 and f.coeffs[0] == 0
    for w in range(1, d + 1):
        assert table[w] % mod.m != 0, (mod.m, d, w)
    for w, v in enumerate(table):
        residues = mod.residues(v)
        assert all(res in (0, 1) for res in residues), (mod.m, d, w, residues)
        if v % mod.m != 0:
            assert 1 in residues
    return f


def test_bbr_concrete_instance():
    f = _check_bbr_contract(M6, 5, 27)
    assert f.coeffs == (0, 1, 2)
    assert f.degree == 2
    assert f.weight_table(5) == [0, 1, 4, 3, 4, 1]


def test_bbr_small_instance():
    f = _check_bbr_contract(M6, 1, 4)
    assert f.coeffs == (0, 3)


def test_bbr_contract_grid():
    # Acceptance runs the full d = 1..40 grid; keep a fast slice here.
    for m in (6, 10, 15, 21, 12):
        mod = factorize(m)
        for d in range(1, 13):
            _check_bbr_contract(mod, d, d + 10)


def test_bbr_degree_bounds():
    for m in (6, 10, 15, 21, 12):
        mod = factorize(m)
        max_e = max(e for _, e in mod.factors)
        max_p = max(p for p, _ in mod.factors)
        for d in range(1, 41):
            f = bbr_construct(mod, d, d + 10)
            choice = choose_exponents(mod, d)
            assert f.degree <= choice.degree_bound
            root = math.isqrt(d) + 1  # == ceil(sqrt(d+1))
            assert f.degree <= 2 * root * (2 * max_e - 1) * max_p


def test_bbr_rejects_prime_power_modulus():
    with pytest.raises(UnsupportedModulusError):
        bbr_construct(factorize(9), 2, 5)


def test_bbr_rejects_d_above_ell():
    with pytest.raises(ValueError):
        bbr_construct(M6, 5, 4)


def test_lucas_digit_identity():
    for p in (2, 3, 5):
        for w in range(201):
            for t in range(4):
                assert binom_mod(w, p**t, p) == (w // p**t) % p


def test_degree_never_exceeds_ell():
    # When the variable count is tight the table is truncated but the
    # contract still holds at every reachable weight.
    mod = factorize(35)
    f = bbr_construct(mod, 1, 1)
    assert f.degree <= 1
    assert f.weight_table() == [0, weight_value(f, 1)]
    assert weight_value(f, 1) % 35 != 0
