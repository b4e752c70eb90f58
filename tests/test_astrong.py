import pytest
from hypothesis import given, strategies as st

from symcover.zmod import factorize
from symcover.circuit import CoefficientMap, VariableSpace
from symcover.astrong import check_astrong, target_coefficients

M6 = factorize(6)

SPACE3 = VariableSpace(("x",), 3)


def _map3(coeffs):
    return CoefficientMap(SPACE3, coeffs)


def _mono(*indices):
    return tuple(("x", i) for i in indices)


def test_known_good_representation_mod6():
    # 3*x1x2 + 4*x2x3 + x1x3 stands in for x1x2 + x2x3 + x1x3 mod 6.
    a = target_coefficients(3, 2)
    b = _map3({_mono(1, 2): 3, _mono(2, 3): 4, _mono(1, 3): 1})
    report = check_astrong(b, a, M6)
    assert report.ok
    assert report.checked == 3


def test_coefficient_2_fails_mod6():
    a = _map3({_mono(1, 2): 1})
    b = _map3({_mono(1, 2): 2})
    report = check_astrong(b, a, M6)
    assert not report.ok
    assert report.violations[0].monomial == _mono(1, 2)


def test_stray_monomial_must_vanish_mod_m():
    a = _map3({})
    b = _map3({_mono(1, 2): 3})  # 3 = 1 mod 2 where the target is 0
    report = check_astrong(b, a, M6)
    assert not report.ok

    b6 = _map3({_mono(1, 2): 6})  # would be stored as 0; simulate a raw map
    assert check_astrong(b6, a, M6).ok


def test_variable_space_mismatch():
    a = target_coefficients(3, 2)
    b = CoefficientMap(VariableSpace(("x",), 4), {})
    with pytest.raises(ValueError, match="variable spaces"):
        check_astrong(b, a, M6)


@given(
    st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(1, 3)).map(
            lambda t: _mono(*sorted(set(t))) if t[0] != t[1] else _mono(t[0])
        ),
        st.integers(1, 5),
        max_size=6,
    )
)
def test_reflexivity(coeffs):
    a = _map3(coeffs)
    assert check_astrong(a, a, M6).ok


def test_zero_target_consequence():
    # Anything accepted against an all-zero target is 0 mod m.
    for b_val in range(6):
        b = _map3({_mono(1, 2): b_val})
        if check_astrong(b, _map3({}), M6).ok:
            assert b_val % 6 == 0


def test_target_coefficients_shapes():
    unordered = target_coefficients(3, 2)
    assert unordered.coeffs == {
        _mono(1, 2): 1,
        _mono(1, 3): 1,
        _mono(2, 3): 1,
    }

    ordered = target_coefficients(2, 2, ordered=True)
    assert ordered.coeffs == {
        (("x", 1), ("y", 2)): 1,
        (("x", 2), ("y", 1)): 1,
    }

    singles = target_coefficients(5, 1)
    assert len(singles.coeffs) == 5
    assert all(v == 1 for v in singles.coeffs.values())


def test_end_to_end_pipeline_other_moduli():
    # The acceptance gate runs m in {6, 15}; cover the other moduli here.
    from symcover.cover2d import build_s2_cover
    from symcover.circuit import expand_coefficients, from_cover2d

    for m in (35, 12):
        mod = factorize(m)
        for n in (4, 16, 48):
            expansion = expand_coefficients(from_cover2d(build_s2_cover(n, mod)))
            target = target_coefficients(n, 2, ordered=True)
            assert check_astrong(expansion, target, mod).ok


def test_report_summary_format():
    a = _map3({_mono(1, 2): 1})
    b = _map3({_mono(1, 2): 2})
    report = check_astrong(b, a, M6)
    assert report.summary() == "fail (1 of 1 monomials)"
    assert report.violations[0].line().startswith("x1*x2: ")

    good = check_astrong(a, a, M6)
    assert good.summary() == "pass (1 monomials)"
