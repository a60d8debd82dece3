"""Tall-forest basis, rewrite, pairing, and symmetric-group structure."""

import random
import re
from fractions import Fraction
from itertools import permutations
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from confspace import arnold, forests, modp
from confspace.graded import ContextError
from confspace.linalg import GF, QQ, ZZ, SparseMatrix, rank, smith_normal_form
from confspace.selftest import (_iota_forest, _random_forest, _random_tree,
                                assert_pairing_invariant)

import oracles


def combs(key):
    """The tall forest with these leaf sequences, as nested trees."""
    return tuple(map(forests.tall_from_seq, key))


def test_tree_helpers():
    t = ((1, 3), 2)
    assert forests.tree_leaves(t) == (1, 3, 2)
    assert forests.tree_min(t) == 1
    assert forests.tree_degree(t, 3) == 4
    assert forests.is_tall(((1, 3), 2))
    assert not forests.is_tall((1, (3, 2)))


def test_parse_and_str_round_trip():
    for text in ("((12)3),(45)", "(1 10),((2 3) 4)"):
        f = forests.parse_forest(text)
        assert forests.parse_forest(forests.forest_str(f)) == f


def test_tall_basis_counts_are_stirling():
    for n in (2, 3):
        for k in range(1, 8):
            for j in range(k):
                basis = forests.tall_basis(k, n, j * (n - 1))
                assert len(basis) == oracles.stirling_cycles(k, k - j)
                assert [combs(key) for key in basis] == oracles.tall_forests_by_cycles(k, j)
    # a degree that is not a multiple of n - 1 holds no forest
    assert forests.tall_basis(5, 3, 3) == []


def test_rewrite_fixes_tall_forests():
    for n in (2, 3):
        for k in range(1, 6):
            for j in range(k):
                for key in forests.tall_basis(k, n, j * (n - 1)):
                    x = forests.rewrite_to_tall(combs(key), n)
                    assert x.terms == {key: 1}


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 6), st.integers(2, 4), st.integers(0, 10**6))
def test_rewrite_matches_tensor_oracle(k, n, seed):
    f = _random_forest(k, random.Random(seed))
    x = forests.rewrite_to_tall(f, n)
    got = {}
    for g, c in x.terms.items():
        for key, c2 in _iota_forest(combs(g), n).items():
            v = got.get(key, 0) + c * c2
            if v:
                got[key] = v
            else:
                got.pop(key, None)
    assert got == _iota_forest(f, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_rule_matches_regrafting(n):
    """The tall expansion read off leaf words equals the Jacobi regrafting,
    on random single trees and forests with up to 7 leaves, and on the left
    comb on every permutation of [1, 6], which _tall_terms expands from the
    words of its prefix comb."""
    rng = random.Random(n)
    cases = []
    for _ in range(300):
        k = rng.randint(1, 7)
        labels = list(range(1, k + 1))
        rng.shuffle(labels)
        cases += [(_random_tree(labels, rng),), _random_forest(k, rng)]
    cases += [(forests.tall_from_seq(seq),) for seq in permutations(range(1, 7))]
    for f in cases:
        want = {tuple(map(forests.tree_leaves, g)): c
                for g, c in oracles.rewrite_by_grafting(f, n).items()}
        assert forests.rewrite_to_tall(f, n).terms == want, f


def test_single_tree_antisymmetry():
    # [2,1] against [1,2]: the graft sign in both parities
    for n in (2, 3):
        a = forests.rewrite_to_tall(((1, 2),), n)
        b = forests.rewrite_to_tall(((2, 1),), n)
        sign = -((-1) ** ((n - 1) % 2))
        assert b.terms == {f: sign * c for f, c in a.terms.items()}


def test_component_reorder_sign():
    # two odd trees swap: for n = 2 each 2-leaf tree has odd degree
    fwd = forests.rewrite_to_tall(((1, 2), (3, 4)), 2)
    rev = forests.rewrite_to_tall(((3, 4), (1, 2)), 2)
    assert rev.terms == {f: -c for f, c in fwd.terms.items()}
    # for n = 3 degrees are even and the swap carries no sign
    fwd = forests.rewrite_to_tall(((1, 2), (3, 4)), 3)
    rev = forests.rewrite_to_tall(((3, 4), (1, 2)), 3)
    assert rev.terms == fwd.terms


def test_forest_class_arithmetic():
    # n = 2: leaves have odd shifted degree, so (21) = (12) and the Jacobi
    # regrafting of (1(23)) has two + signs; n = 3 flips both
    for n, s in ((2, 1), (3, -1)):
        x = forests.rewrite_to_tall(((2, 1), 3), n)
        y = forests.rewrite_to_tall(((1, (2, 3)),), n)
        assert x.terms == {((1, 2), (3,)): s}
        assert y.to_json_obj() == {"((12)3)": 1, "((13)2)": s}
        diff = y.sub(x)
        assert diff.terms == {((1, 2), (3,)): -s, ((1, 2, 3),): 1, ((1, 3, 2),): s}
        assert diff.add(x) == y
        assert y.sub(y).is_zero() and y.sub(y) == forests.HomologyClass(3, n)
        assert repr(y.sub(y)) == "0"
        assert not diff.is_zero() and diff != y
    assert repr(forests.rewrite_to_tall(((1, (2, 3)),), 2)) == "((12)3) + ((13)2)"
    assert repr(forests.rewrite_to_tall(((2, 1), 3), 3)) == "-(12),3"


def test_class_context_mismatch_is_one_error():
    a = forests.rewrite_to_tall(((1, 2),), 2)
    with pytest.raises(ContextError, match=r"context mismatch: \(2,2\) vs \(2,3\)"):
        a.add(forests.rewrite_to_tall(((1, 2),), 3))
    with pytest.raises(ContextError):
        a.sub(forests.rewrite_to_tall(((1, 2), 3), 2))
    with pytest.raises(ContextError):
        arnold.generator(3, 2, 1, 2).add(arnold.generator(4, 2, 1, 2))
    with pytest.raises(ContextError):
        arnold.multiply(arnold.generator(3, 2, 1, 2), arnold.generator(3, 3, 1, 2))
    # the two class types never compare equal, even on equal data
    assert arnold.CohomologyClass(2, 2, {(): 1}) != forests.HomologyClass(2, 2, {(): 1})


def test_rewrite_rejects_bad_labels():
    with pytest.raises(forests.ForestError):
        forests.rewrite_to_tall(((1, 3),), 2)
    with pytest.raises(forests.ForestError):
        forests.rewrite_to_tall(((1, 1), 2), 2)
    # an internal vertex that is not a pair, and a leaf label below 1
    with pytest.raises(forests.ForestError):
        forests.rewrite_to_tall(((1, 2, 3),), 2)
    with pytest.raises(forests.ForestError):
        forests.rewrite_to_tall(((0, 1),), 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: forests.parse_tree("((12)3"), forests.ForestError, "missing ')'"),
    (lambda: forests.parse_tree("(1x)"), forests.ForestError, "unexpected character 'x'"),
    (lambda: forests.parse_tree("(12)3"), forests.ForestError, "trailing junk"),
    (lambda: forests.tall_basis(0, 2, 0), ValueError, "need k >= 1 and n >= 2"),
    (lambda: forests.rewrite_to_tall(((1, 2),), 1), ValueError, "need n >= 2"),
    (lambda: forests.coinvariants_dims(3, 2, ZZ), ValueError, "must form a field"),
    (lambda: forests.coinvariants_dims(3, 2, GF(3)), ValueError,
     "field characteristic 3 <= k = 3"),
], ids=["unclosed", "bad-character", "trailing", "tall-k-zero", "rewrite-n-one",
        "coinvariants-over-ZZ", "coinvariants-small-characteristic"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_pairing_unimodular_small():
    for n in (2, 3):
        for k in range(1, 5):
            for j in range(k):
                m = forests.pairing_matrix(k, n, j * (n - 1))
                factors, rnk = smith_normal_form(m)
                assert rnk == m.nrows == m.ncols
                assert all(x == 1 for x in factors)


def test_pairing_checks_the_basis_sizes(monkeypatch):
    monkeypatch.setattr(arnold, "admissible_basis", lambda k, n, degree: [])
    with pytest.raises(AssertionError,
                       match="basis size mismatch: 3 forests vs 0 monomials"):
        forests.pairing_matrix(3, 2, 1)


@pytest.mark.parametrize("k, n, j_max", [(k, n, k - 1) for k in range(1, 7)
                                          for n in (2, 3, 4, 5)]
                         + [(7, n, 5) for n in (2, 3)])
def test_pairing_matches_per_partition_inverse(k, n, j_max):
    for j in range(j_max + 1):
        degree = j * (n - 1)
        assert forests.pairing_matrix(k, n, degree) == \
            oracles.pairing_by_partition(k, n, degree)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_pairing_is_dual_to_path_words(k, n):
    """D P^T = I, D[f, G] the coefficient of G in the normal form of f's path
    word a_{s1 s2} a_{s2 s3} ..., tree by tree: the tall forests and the path
    monomials are dual bases.  This is the pairing's definition."""
    for j in range(k):
        degree = j * (n - 1)
        trees = forests.tall_basis(k, n, degree)
        col = {mono: c for c, mono in enumerate(arnold.admissible_basis(k, n, degree))}
        entries = {}
        for r, f in enumerate(trees):
            word = [pair for seq in f for pair in zip(seq, seq[1:])]
            for mono, c in arnold.normal_form(word, k, n).terms.items():
                entries[(r, col[mono])] = c
        d = SparseMatrix(len(trees), len(col), ZZ, entries)
        p = forests.pairing_matrix(k, n, degree)
        assert d.matmul(p.transpose()) == SparseMatrix.identity(len(trees), ZZ), degree


@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize("n", [2, 3])
def test_pairing_is_invariant_under_transpositions(k, n):
    """<tau f, tau a> = <f, a>; unimodularity is blind to signs, this is not."""
    for j in range(k):
        degree = j * (n - 1)
        assert_pairing_invariant(forests.pairing_matrix(k, n, degree), k, n, degree)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(2, 3), st.integers(0, 10**6))
def test_action_matrix_is_multiplicative(k, n, seed):
    rng = random.Random(seed)
    j = rng.randrange(k)
    degree = j * (n - 1)
    basis = forests.tall_basis(k, n, degree)
    if not basis:
        return
    p = list(range(1, k + 1))
    q = list(range(1, k + 1))
    rng.shuffle(p)
    rng.shuffle(q)
    tp = {i + 1: p[i] for i in range(k)}
    tq = {i + 1: q[i] for i in range(k)}
    comp = {i: tq[tp[i]] for i in tp}
    mp = forests.action_matrix(tp, k, n, degree)
    mq = forests.action_matrix(tq, k, n, degree)
    mc = forests.action_matrix(comp, k, n, degree)
    assert mq.matmul(mp) == mc


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3])
def test_action_matrix_matches_relabel_and_rewrite(k, n):
    rng = random.Random(k * 10 + n)
    perms = [{i: i % k + 1 for i in range(1, k + 1)}]
    for i in range(1, k):
        perms.append({**{v: v for v in range(1, k + 1)}, i: i + 1, i + 1: i})
    for _ in range(3):
        image = list(range(1, k + 1))
        rng.shuffle(image)
        perms.append(dict(zip(range(1, k + 1), image)))
    for j in range(k):
        degree = j * (n - 1)
        basis = forests.tall_basis(k, n, degree)
        for perm in perms:
            for domain in (ZZ, GF(3)):
                got = forests.action_matrix(perm, k, n, degree, domain=domain)
                want = oracles.reference_action_matrix(perm, k, n, degree, basis, domain)
                assert got.entries == want.entries, (perm, degree, domain)
                assert all(type(v) is int for v in got.entries.values())


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_transposition_matrices_match_action_matrix(k, n):
    for j in range(k):
        degree = j * (n - 1)
        basis = forests.tall_basis(k, n, degree)
        for domain in (ZZ, QQ, GF(5)):
            module = forests.forest_module(k, n, degree, domain)
            assert module.basis == basis and module.dim == len(basis)
            got = module.taus
            assert len(got) == k - 1
            # single-entry rows with equal content are one object
            units = {}
            for row in (row for m in got for row in m.rows.values() if len(row) == 1):
                assert units.setdefault(tuple(row.items()), row) is row, (degree, row)
            for i, m in enumerate(got, start=1):
                tau = {**{v: v for v in range(1, k + 1)}, i: i + 1, i + 1: i}
                want = oracles.reference_action_matrix(tau, k, n, degree, basis, domain)
                assert m.entries == want.entries, (i, degree, domain)
                assert m.domain == domain
                assert all(type(v) is int for v in m.entries.values())


@pytest.mark.parametrize("n", [2, 3])
def test_transposition_matrices_match_relabel_and_rewrite_at_k7(n):
    """The bench's size: every tau of forest_module(7, n, t) over GF(7), in
    every degree, against relabelling each tree and rewriting the whole
    forest, which checks the splice of a moved comb's terms into its key."""
    k, domain = 7, GF(7)
    for j in range(k):
        degree = j * (n - 1)
        module = forests.forest_module(k, n, degree, domain)
        for i, m in enumerate(module.taus, start=1):
            tau = {**{v: v for v in range(1, k + 1)}, i: i + 1, i + 1: i}
            want = oracles.reference_action_matrix(tau, k, n, degree, module.basis, domain)
            assert m.entries == want.entries, (i, degree)


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("n", [2, 3])
def test_orbit_coinvariants_match_stacked_rank(p, n):
    """The signed-orbit coinvariants equal one rank of the stacked
    tau_i - 1 on every degree of the mod-p modules, where loops of sign -1
    kill classes (at (5, 2, 2), for one)."""
    for j in range(p):
        v = modp.conf_module(p, n, j * (n - 1))
        assert v.module.coinvariants_dim() == \
            oracles.coinvariants_dim_stacked(v.dim, v.module.taus, v.field), (p, n, j)


def test_coinvariants_dims_match_stacked_rank_over_qq():
    for n in (2, 3):
        for k in range(2, 6):
            dims = forests.coinvariants_dims(k, n, QQ)
            for j in range(k):
                degree = j * (n - 1)
                m = forests.forest_module(k, n, degree, QQ)
                assert dims.get(degree) == oracles.coinvariants_dim_stacked(m.dim, m.taus, QQ)


def test_orbit_coinvariants_on_non_monomial_and_zero_columns():
    """A column that is not +-1 times a unit vector, zero columns included,
    goes to the projected rank."""
    field = GF(5)
    cases = [
        # tau e_0 = 2 e_1, tau e_1 = 3 e_0: (tau - 1) has rank 1 mod 5
        [SparseMatrix(2, 2, field, {(1, 0): 2, (0, 1): 3})],
        # tau = 0 kills everything
        [SparseMatrix.zero(3, 3, field)],
        # tau_1 e_0 = -e_0 kills e_0 and joins e_1 to e_2; then
        # tau_2 e_0 = e_0 + e_1 kills the class of e_1
        [SparseMatrix(3, 3, field, {(0, 0): -1, (2, 1): 1, (1, 2): 1}),
         SparseMatrix(3, 3, field, {(0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 2): 1})],
        # the same without tau_2: the class of e_1 and e_2 lives
        [SparseMatrix(3, 3, field, {(0, 0): -1, (2, 1): 1, (1, 2): 1})],
    ]
    for taus in cases:
        dim = taus[0].nrows
        assert forests.SymmetricModule(taus, dim, field).coinvariants_dim() == \
            oracles.coinvariants_dim_stacked(dim, taus, field)


def coinvariant_dim_oracle(k, n, degree):
    """dim of coinvariants = rank of the averaging projector over Q."""
    basis = forests.tall_basis(k, n, degree)
    if not basis:
        return 0
    z = len(basis)
    acc = SparseMatrix.zero(z, z, QQ)
    perms = []

    def gen(rest, cur):
        if not rest:
            perms.append(tuple(cur))
            return
        for i, x in enumerate(rest):
            gen(rest[:i] + rest[i + 1:], cur + [x])

    gen(list(range(1, k + 1)), [])
    for p in perms:
        table = {i + 1: p[i] for i in range(k)}
        m = forests.action_matrix(table, k, n, degree, domain=QQ)
        acc = acc.add(m)
    return rank(acc.scale(Fraction(1, factorial(k))))


def test_coinvariants_match_projector_oracle():
    for n in (2, 3):
        for k in (2, 3, 4):
            dims = forests.coinvariants_dims(k, n, QQ)
            for j in range(k):
                degree = j * (n - 1)
                assert dims.get(degree) == coinvariant_dim_oracle(k, n, degree)


def test_closed_form_unordered_betti():
    assert dict(forests.unordered_betti_rational(3, 2).items()) == {0: 1, 1: 1}
    assert dict(forests.unordered_betti_rational(3, 3).items()) == {0: 1}
    assert dict(forests.unordered_betti_rational(5, 4).items()) == {0: 1, 3: 1}
    with pytest.raises(Exception):
        forests.unordered_betti_rational(1, 2)
