from collections.abc import Mapping

from hypothesis import given, strategies as st

from symcover.zmod import factorize
from symcover.astrong import check_astrong, target_coefficients

from naive_circuits import table_dict

M6 = factorize(6)


def _mono(*indices):
    return tuple(("x", i) for i in indices)


def test_known_good_representation_mod6():
    # 3*x1x2 + 4*x2x3 + x1x3 stands in for x1x2 + x2x3 + x1x3 mod 6.
    a = target_coefficients(3, 2)
    b = {_mono(1, 2): 3, _mono(2, 3): 4, _mono(1, 3): 1}
    report = check_astrong(b, a, M6)
    assert report.ok
    assert report.checked == 3


def test_coefficient_2_fails_mod6():
    a = {_mono(1, 2): 1}
    b = {_mono(1, 2): 2}
    report = check_astrong(b, a, M6)
    assert not report.ok
    assert report.violations[0].monomial == _mono(1, 2)


def test_stray_monomial_must_vanish_mod_m():
    a = {}
    b = {_mono(1, 2): 3}  # 3 = 1 mod 2 where the target is 0
    report = check_astrong(b, a, M6)
    assert not report.ok

    b6 = {_mono(1, 2): 6}  # would be stored as 0; simulate a raw map
    assert check_astrong(b6, a, M6).ok


def test_one_group_expansion_fails_an_ordered_target():
    # the unordered target's monomials are strays against the ordered one
    b = target_coefficients(3, 2)
    a = target_coefficients(3, 2, ordered=True)
    report = check_astrong(b, a, M6)
    assert not report.ok
    assert report.checked == len(table_dict(a, 6)) + len(b) == 9
    assert len(report.violations) == 9
    assert {v.monomial for v in report.violations if v.target == 0} == set(b)


def test_maps_for_a_smaller_n_fail_a_larger_target():
    # the n = 4 map has no monomial with x5: each of those 4 targets gets 0
    report = check_astrong(target_coefficients(4, 2), target_coefficients(5, 2), M6)
    assert not report.ok and report.checked == 10
    assert [v.monomial for v in report.violations] == [_mono(i, 5) for i in range(1, 5)]
    assert all((v.target, v.actual) == (1, 0) for v in report.violations)

    from symcover.circuit import CellTable
    from symcover.cover2d import build_s2_cover
    from symcover.coverkd import _counts

    cover = build_s2_cover(4, M6)
    expansion = CellTable(4, 2, _counts(cover))
    assert check_astrong(expansion, target_coefficients(4, 2, ordered=True), M6).ok
    report = check_astrong(expansion, target_coefficients(5, 2, ordered=True), M6)
    assert not report.ok and len(report.violations) == 8


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
    assert check_astrong(coeffs, coeffs, M6).ok


def test_zero_target_consequence():
    # Anything accepted against an all-zero target is 0 mod m.
    for b_val in range(6):
        b = {_mono(1, 2): b_val}
        if check_astrong(b, {}, M6).ok:
            assert b_val % 6 == 0


def test_target_coefficients_shapes():
    unordered = target_coefficients(3, 2)
    assert unordered == {
        _mono(1, 2): 1,
        _mono(1, 3): 1,
        _mono(2, 3): 1,
    }

    ordered = target_coefficients(2, 2, ordered=True)
    # a record of its shape and cells, not a map
    assert ordered == (2, 2, b"\0\1\1\0") and not isinstance(ordered, Mapping)
    assert table_dict(ordered, 6) == {
        (("x", 1), ("y", 2)): 1,
        (("x", 2), ("y", 1)): 1,
    }

    singles = target_coefficients(5, 1)
    assert len(singles) == 5
    assert all(v == 1 for v in singles.values())


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
    a = {_mono(1, 2): 1}
    b = {_mono(1, 2): 2}
    report = check_astrong(b, a, M6)
    assert report.summary() == "fail (1 of 1 monomials)"
    assert report.violations[0].line(M6) == "x1*x2: target 1 actual 2 residues 1|0 1|2"

    good = check_astrong(a, a, M6)
    assert good.summary() == "pass (1 monomials)"
