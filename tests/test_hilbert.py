"""Poincare series coefficients and section dimensions."""

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wcikit.errors import UsageError
from wcikit.hilbert import h0, section_dim, series_coefficients
from wcikit.wci import WciFamily

X6 = WciFamily.parse("6/1,2,3")
X66 = WciFamily.parse("6,6/1^2,2^2,3^2")
X231 = WciFamily.parse("231,231,26/3^2,7^2,11^2,1^447")
X35 = WciFamily.parse("35/5,7,2^5,3^5")


def test_series_x6():
    assert series_coefficients((6,), (1, 2, 3), 10) == [1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_series_ambient():
    # no relations: plain monomial counting
    assert series_coefficients((), (1, 1), 4) == [1, 2, 3, 4, 5]


def test_h0_examples():
    assert h0(X6, 1) == 1
    assert h0(X66, 1) == 2
    assert h0(X231, 1) == 447


def test_h0_negative_k_rejected():
    with pytest.raises(UsageError):
        h0(X6, -1)


def test_section_dim_flags_formal_input():
    value, formal = section_dim(X6, 3)
    assert (value, formal) == (3, False)
    bad = WciFamily.parse("8,8,8/5^3,3^4,2^3")  # not quasi-smooth
    value, formal = section_dim(bad, 5)
    assert formal
    cone = WciFamily.parse("2/2,1^2")
    assert section_dim(cone, 1)[1]


def test_nonvanishing_examples():
    assert h0(X35, 6) >= 1
    assert h0(X231, 1) >= 1
    assert h0(WciFamily.of((), (2, 3)), 1) == 0


def test_series_x6_long():
    coeffs = series_coefficients((6,), (1, 2, 3), 60)
    assert coeffs[:7] == [1, 1, 2, 3, 4, 5, 6]
    assert coeffs[60] == 60
    with pytest.raises(UsageError):
        series_coefficients((6,), (1, 2, 3), -1)


@settings(max_examples=200, deadline=None)
@given(
    ws=st.lists(st.integers(min_value=1, max_value=6), min_size=2, max_size=5),
    data=st.data(),
)
def test_series_matches_inclusion_exclusion(ws, data):
    c = data.draw(st.integers(min_value=0, max_value=min(2, len(ws) - 1)))
    ds = [data.draw(st.integers(min_value=1, max_value=18)) for _ in range(c)]
    upto = data.draw(st.integers(min_value=0, max_value=40))
    coeffs = series_coefficients(tuple(ds), tuple(ws), upto)
    for k in (0, upto // 2, upto):
        assert coeffs[k] == oracles.h0(tuple(sorted(ds, reverse=True)), tuple(sorted(ws, reverse=True)), k)


def test_quasi_smooth_corpus_nonnegative():
    for fam in (X6, X66, X231, X35):
        coeffs = series_coefficients(fam.degrees, fam.weights.expand(), 80)
        assert all(v >= 0 for v in coeffs)
