"""Cohomology of ordered configurations: normal form and ring structure."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from confspace import arnold

import oracles


@st.composite
def context(draw):
    k = draw(st.integers(min_value=3, max_value=5))
    n = draw(st.integers(min_value=2, max_value=3))
    return k, n


@st.composite
def word(draw, k, max_len=4):
    length = draw(st.integers(min_value=0, max_value=max_len))
    out = []
    for _ in range(length):
        a = draw(st.integers(min_value=1, max_value=k))
        b = draw(st.integers(min_value=1, max_value=k).filter(lambda x: x != a))
        out.append((a, b))
    return tuple(out)


def is_admissible(mono):
    bs = [b for _, b in mono]
    return all(a < b for a, b in mono) and bs == sorted(set(bs))


@settings(max_examples=150, deadline=None)
@given(context().flatmap(lambda kn: st.tuples(st.just(kn), word(kn[0]))))
def test_normal_form_lands_in_admissible_basis(args):
    (k, n), w = args
    x = arnold.normal_form(w, k, n)
    for mono in x.terms:
        assert is_admissible(mono)
        assert len(mono) == len(w)


@settings(max_examples=150, deadline=None)
@given(context())
def test_normal_form_fixes_admissible_monomials(kn):
    k, n = kn
    for degree in range(0, (k - 1) * (n - 1) + 1, n - 1):
        for mono in arnold.admissible_basis(k, n, degree):
            x = arnold.normal_form(mono, k, n)
            assert x.terms == {mono: 1}


@settings(max_examples=100, deadline=None)
@given(context().flatmap(lambda kn: st.tuples(
    st.just(kn), word(kn[0], 2), word(kn[0], 2), word(kn[0], 2))))
def test_multiply_is_associative(args):
    (k, n), wa, wb, wc = args
    a = arnold.normal_form(wa, k, n)
    b = arnold.normal_form(wb, k, n)
    c = arnold.normal_form(wc, k, n)
    left = arnold.multiply(arnold.multiply(a, b), c)
    right = arnold.multiply(a, arnold.multiply(b, c))
    assert left == right


@settings(max_examples=100, deadline=None)
@given(context())
def test_generator_orientation_sign(kn):
    k, n = kn
    swap_sign = (-1) ** n
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            fwd = arnold.generator(k, n, a, b)
            rev = arnold.generator(k, n, b, a)
            assert rev == fwd.scale(swap_sign)


def test_generators_square_to_zero():
    for n in (2, 3):
        g = arnold.generator(4, n, 1, 3)
        assert arnold.multiply(g, g).is_zero()


def test_arnold_relation_spot():
    k, n = 5, 2
    ab = arnold.generator(k, n, 2, 4)
    bc = arnold.generator(k, n, 4, 5)
    ca = arnold.generator(k, n, 5, 2)
    acc = arnold.multiply(ab, bc).add(arnold.multiply(bc, ca)).add(
        arnold.multiply(ca, ab))
    assert acc.is_zero()


def test_poincare_polynomial_known_value():
    series = arnold.poincare_polynomial(4, 3)
    assert series.to_text() == "1 + 6t^2 + 11t^4 + 6t^6"


def test_poincare_polynomial_checks_the_census(monkeypatch):
    with pytest.raises(ValueError, match="need k >= 0 and n >= 2"):
        arnold.poincare_polynomial(-1, 2)
    monkeypatch.setattr(arnold, "admissible_basis", lambda k, n, degree: [])
    with pytest.raises(AssertionError, match=re.escape(
            "basis census 0 != product formula 1 in degree 0 (k=3, n=2)")):
        arnold.poincare_polynomial(3, 2)


def test_census_counts_are_stirling():
    for n in (2, 3):
        for k in range(1, 7):
            for j in range(k):
                dim = len(arnold.admissible_basis(k, n, j * (n - 1)))
                assert dim == oracles.stirling_cycles(k, k - j)


def test_monomial_round_trip():
    mono = ((1, 2), (2, 3), (1, 10))
    text = arnold.monomial_str(mono)
    assert arnold.parse_monomial(text) == mono
    assert arnold.parse_monomial("1") == ()
    with pytest.raises(ValueError, match="ambiguous generator 'a123'"):
        arnold.parse_monomial("a123")


def test_class_repr():
    x = arnold.CohomologyClass(3, 2, {((1, 2),): 2, (): 1, ((1, 3),): -1})
    assert repr(x) == "1 + 2*a12 - a13"


@settings(max_examples=60, deadline=None)
@given(context().flatmap(lambda kn: st.tuples(
    st.just(kn), word(kn[0], 2), word(kn[0], 2),
    st.permutations(list(range(1, kn[0] + 1))))))
def test_symmetric_action_is_ring_map(args):
    (k, n), wa, wb, perm = args
    table = {i + 1: perm[i] for i in range(k)}
    a = arnold.normal_form(wa, k, n)
    b = arnold.normal_form(wb, k, n)
    left = arnold.sigma_act(table, arnold.multiply(a, b))
    right = arnold.multiply(arnold.sigma_act(table, a),
                            arnold.sigma_act(table, b))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(context().flatmap(lambda kn: st.tuples(
    st.just(kn), word(kn[0], 3),
    st.permutations(list(range(1, kn[0] + 1))),
    st.permutations(list(range(1, kn[0] + 1))))))
def test_symmetric_action_composes(args):
    (k, n), w, p, q = args
    tp = {i + 1: p[i] for i in range(k)}
    tq = {i + 1: q[i] for i in range(k)}
    comp = {i: tq[tp[i]] for i in tp}
    x = arnold.normal_form(w, k, n)
    assert arnold.sigma_act(comp, x) == arnold.sigma_act(tq, arnold.sigma_act(tp, x))


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        arnold.generator(3, 2, 1, 4)
    with pytest.raises(ValueError):
        arnold.generator(3, 2, 2, 2)
    with pytest.raises(ValueError):
        arnold.admissible_basis(3, 1, 0)
    # the top degree of k = 3, n = 2 is 2
    assert arnold.admissible_basis(3, 2, 3) == []
    with pytest.raises(ValueError, match="not a permutation"):
        arnold.sigma_act({1: 1, 2: 1, 3: 3}, arnold.generator(3, 2, 1, 2))
