import copy
import math
import pickle

import pytest
from hypothesis import given, strategies as st

from symcover.zmod import (
    Modulus,
    NotInvertibleError,
    UnsupportedModulusError,
    astrong_coeff_status,
    crt_combine,
    factorize,
    mod_inverse,
)


def test_factorize_examples():
    assert factorize(6).factors == ((2, 1), (3, 1))
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert factorize(35).factors == ((5, 1), (7, 1))


def test_factorize_reconstructs_m():
    for m in range(2, 2000):
        mod = factorize(m)
        assert math.prod(p**e for p, e in mod.factors) == m
        primes = [p for p, _ in mod.factors]
        assert primes == sorted(primes)


def test_factorize_finds_prime_factors_up_to_the_trial_limit():
    assert factorize(999983 * 1000003).factors == ((999983, 1), (1000003, 1))
    assert factorize(3 * 2**65).factors == ((2, 65), (3, 1))


def test_factorize_gives_up_past_the_trial_limit():
    with pytest.raises(UnsupportedModulusError, match="2305843009213693951"):
        factorize(2**61 - 1)


def test_factorize_rejects_small():
    with pytest.raises(ValueError):
        factorize(1)
    with pytest.raises(ValueError):
        factorize(0)


def test_require_composite_nonprimepower():
    factorize(6).require_composite_nonprimepower()
    with pytest.raises(ValueError):
        factorize(8).require_composite_nonprimepower()


def test_crt_examples():
    m6 = factorize(6)
    assert crt_combine([1, 0], m6) == 3
    assert crt_combine([0, 1], m6) == 4
    assert crt_combine([1, 2], factorize(12)) == 5


def test_crt_length_mismatch():
    with pytest.raises(ValueError):
        crt_combine([1], factorize(6))


@given(st.sampled_from([6, 12, 15, 35, 360, 1001]), st.integers(0, 10**6))
def test_crt_round_trip(m, x):
    mod = factorize(m)
    x %= m
    assert crt_combine(mod.residues(x), mod) == x


def test_crt_residues_reproduced():
    import itertools

    for m in (6, 12, 90):
        mod = factorize(m)
        for rv in itertools.product(*(range(q) for q in mod.prime_powers)):
            assert mod.residues(crt_combine(list(rv), mod)) == list(rv)


def test_mod_inverse_examples():
    assert mod_inverse(2, 15) == 8
    assert mod_inverse(6, 35) == 6
    with pytest.raises(NotInvertibleError, match="gcd = 2"):
        mod_inverse(2, 6)


def test_mod_inverse_property():
    for m in list(range(2, 150)) + [9973, 10000]:
        step = 1 if m < 150 else 37
        for a in range(1, m, step):
            if math.gcd(a, m) == 1:
                assert mod_inverse(a, m) * a % m == 1


def test_astrong_coeff_status():
    m6 = factorize(6)
    assert astrong_coeff_status(0, 0, m6) == (True, 0)
    assert astrong_coeff_status(1, 3, m6) == (True, 0)  # 3 = 1 mod 2, 0 mod 3
    assert astrong_coeff_status(1, 4, m6) == (True, 1)  # 4 = 0 mod 2, 1 mod 3
    ok, _ = astrong_coeff_status(1, 2, m6)  # 2 mod 3 is neither 1 nor 0
    assert not ok
    ok, _ = astrong_coeff_status(0, 3, m6)  # 3 = 1 mod 2 where target is 0
    assert not ok


def test_astrong_zero_target_forces_zero():
    # status(0, b) passes exactly when b = 0 mod m.
    for m in (6, 12, 15):
        mod = factorize(m)
        for b in range(m):
            ok, _ = astrong_coeff_status(0, b, mod)
            assert ok == (b % m == 0)


def test_modulus_str():
    assert str(factorize(12)) == "12 = 2^2*3"


def test_cached_prime_powers_keep_value_semantics():
    a, b = factorize(360), factorize(360)
    assert a.prime_powers == (8, 9, 5)
    assert a.prime_powers is a.prime_powers  # computed once, when a is made
    # prime_powers is a third field, derived from factors: still equal, same hash
    assert a == b == Modulus(360, ((2, 3), (3, 2), (5, 1)))
    assert hash(a) == hash(b) == hash(Modulus(360, ((2, 3), (3, 2), (5, 1))))
    assert {a: "m"}[b] == "m"
    assert a != factorize(180) and a != Modulus(360, ((2, 3), (3, 2)))
    for x in range(-400, 800, 7):
        assert a.residues(x) == b.residues(x) == [x % 8, x % 9, x % 5]
    with pytest.raises(AttributeError):
        a.m = 6
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == a and c.prime_powers == (8, 9, 5)
