"""Graded dimension tables and bigraded series."""

import pytest
from hypothesis import given, settings, strategies as st

from confspace.graded import (
    GradedDims,
    PoincareSeries,
    product_one_plus_jt,
    series_equal,
    sym_series,
)

import oracles


def test_graded_dims_drops_zeros():
    d = GradedDims({0: 1, 2: 0, 3: 4})
    assert d.get(2) == 0
    assert d.dims == {0: 1, 3: 4}
    assert d.items() == [(0, 1), (3, 4)]
    assert d == GradedDims({3: 4, 0: 1})
    assert repr(d) == "GradedDims({0: 1, 3: 4})"
    with pytest.raises(ValueError):
        GradedDims({1: -1})


def test_product_formula_coefficients_are_stirling():
    for k in range(9):
        series = product_one_plus_jt(k, 1)
        for j in range(k):
            want = oracles.stirling_cycles(k, k - j) if k else (1 if j == 0 else 0)
            assert series.coefficient(j) == want


def test_product_formula_step_spacing():
    series = product_one_plus_jt(4, 2)
    assert series.coefficient(1) == 0
    assert series.coefficient(2) == 6
    assert series.to_text() == "1 + 6t^2 + 11t^4 + 6t^6"


def test_series_arithmetic_and_truncation():
    s = PoincareSeries({(0, 0): 1, (2, 1): 0, (3, 2): 1}, 4, 2)
    assert s.coeffs == {(0, 0): 1, (3, 2): 1}
    t = PoincareSeries(s.coeffs, 2, 2)
    assert t.coefficient(3, 2) == 0
    assert series_equal(s, PoincareSeries({(0, 0): 1, (3, 2): 1, (5, 1): 7}, None, 2))
    assert not series_equal(s, PoincareSeries({(0, 0): 1, (3, 2): 2}, 4, 2))
    assert series_equal(s, PoincareSeries({(0, 0): 1, (3, 2): 2}, 2, 2))


def test_series_window_mismatch_is_error():
    a = PoincareSeries({(0, 0): 1}, 2, 2)
    b = PoincareSeries({(0, 0): 1}, None, None)
    assert series_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 2),
                          st.integers(0, 1)),
                min_size=1, max_size=3),
       st.integers(0, 5), st.integers(0, 3))
def test_sym_series_matches_brute_force(gens, degree, weight):
    table = {}
    for d, w, par in gens:
        # parity of the symmetric algebra is the parity of the degree here
        d = 2 * d if par == 0 else 2 * d + 1
        table[(d, w)] = table.get((d, w), 0) + 1
        if (d + w) > 40:
            pytest.skip("window too large")
    series = sym_series(table, 12, 4)
    if degree > 12 or weight > 4:
        return
    flat = [(d, w, d % 2) for (d, w), c in table.items() for _ in range(c)]
    want = oracles.sym_monomial_count(flat, degree, weight)
    assert series.coefficient(degree, weight) == want


def test_sym_series_square_zero_odd_generator():
    # one odd generator of degree 1, weight 1
    series = sym_series({(1, 1): 1}, 6, 6)
    assert series.coefficient(0, 0) == 1
    assert series.coefficient(1, 1) == 1
    assert series.coefficient(2, 2) == 0


def test_sym_series_single_even_generator():
    series = sym_series({(2, 1): 1}, 10, 5)
    for j in range(5):
        assert series.coefficient(2 * j, j) == 1
    assert series.coefficient(3, 1) == 0


def test_sym_series_slot_table_is_a_plain_dict():
    # zero multiplicities are skipped, negative ones and bad bidegrees refused
    series = sym_series({(1, 1): 2, (2, 1): 0}, 4, 2)
    assert series == sym_series({(1, 1): 2}, 4, 2)
    assert series.to_text() == "1 + 2s*t + s^2*t^2"
    with pytest.raises(ValueError):
        sym_series({(1, 1): -1}, 4, 2)
    with pytest.raises(ValueError):
        sym_series({(-1, 1): 1}, 4, 2)
    with pytest.raises(ValueError):
        sym_series({(1, 0): 1}, 4, 2)
