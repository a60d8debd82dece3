"""Mod-p group cohomology: cyclic groups, Tate splice, symmetric groups."""

import copy
import itertools
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from confspace import forests, modp
from confspace.graded import GradedDims
from confspace.linalg import GF, SparseMatrix, kernel_basis, rank

import oracles


MODULE_CASES = [(3, 2), (3, 3), (5, 2), (5, 3), (7, 2)]


def all_t(p, n):
    return [j * (n - 1) for j in range(p)]


def coxeter(p, taus):
    """The GModule whose Sigma_p-action has these Coxeter generators."""
    return modp.GModule(p, module=forests.SymmetricModule(taus, taus[0].nrows, taus[0].domain))


def norm(v):
    """N = 1 + sigma + ... + sigma^(p-1), the first term of the run from 1."""
    return v.run(SparseMatrix.identity(v.dim, v.field), v.p)[0]


# ---------------------------------------------------------------------------
# GModule construction and validation


def test_conf_module_dimensions_are_stirling():
    for p, n in MODULE_CASES:
        for j in range(p):
            v = modp.conf_module(p, n, j * (n - 1))
            assert v.dim == oracles.stirling_cycles(p, p - j)


def test_conf_module_sigma_is_the_cycle_action_matrix():
    """sigma, formed as tau_1 ... tau_{p-1}, is the p-cycle i -> i+1 acting
    by leaf relabeling and rewriting to the tall basis (the test reference),
    entry for entry and with int entries, on every module of p <= 7 and
    n <= 3."""
    for p in (3, 5, 7):
        cycle = {i: i % p + 1 for i in range(1, p + 1)}
        for n in (2, 3):
            for t in all_t(p, n):
                v = modp.conf_module(p, n, t)
                want = oracles.reference_action_matrix(cycle, p, n, t, v.module.basis, GF(p))
                got = v.sigma.entries
                assert got == want.entries, (p, n, t)
                assert all(type(x) is int for x in got.values()), (p, n, t)


def test_gmodule_rejects_non_prime_and_bad_shapes():
    with pytest.raises(modp.ModpError, match="p = 4 is not prime"):
        modp.GModule(4, module=forests.forest_module(4, 2, 0, GF(2)))
    sigma = SparseMatrix.from_rows([[1, 0]], GF(3))
    with pytest.raises(modp.ModpError):
        modp.GModule(3, sigma)


@pytest.mark.parametrize("call, message", [
    (lambda: modp.GModule(3, SparseMatrix.identity(2, GF(5))),
     "sigma must have GF(3) coefficients"),
    (lambda: coxeter(3, [SparseMatrix.identity(2, GF(3))]),
     "expected 2 Coxeter generators, got 1"),
    (lambda: coxeter(3, [SparseMatrix.identity(2, GF(3)), SparseMatrix.identity(1, GF(3))]),
     "Coxeter generator shape or domain mismatch"),
    (lambda: modp.conf_module(3, 1, 0), "need n >= 2"),
    (lambda: modp.conf_module(3, 2, 5), "degree 5 is not a multiple of 1 inside [0, 2]"),
    (lambda: modp.GModule(4, SparseMatrix.identity(1, GF(2))), "p = 4 is not prime"),
    (lambda: modp.conf_module(4, 2, 0), "p = 4 is not prime"),
    (lambda: modp.verify_vanishing(4, 2), "p = 4 is not prime"),
    (lambda: modp.invariants_sigma_p(4, 2), "p = 4 is not prime"),
    (lambda: modp.cohen_series(4, 2, 8), "p = 4 is not prime"),
    (lambda: modp.verify_vanishing(5, 1), "need n >= 2"),
    (lambda: modp.invariants_sigma_p(5, 1), "need n >= 2"),
    (lambda: modp.cohen_series(5, 1, 8), "need n >= 2"),
    (lambda: modp.bar_cohomology(oracles.trivial_module(3), -1), "negative cohomological window"),
    (lambda: modp.bar_cohomology(oracles.regular_module(3), 2), "full Sigma_p action required"),
    (lambda: modp.nakaoka_series(2, 8), "p = 2 is not an odd prime"),
    (lambda: modp.nakaoka_series(5, -1), "negative degree bound"),
    (lambda: modp.cohen_series(5, 2, -1), "negative degree bound"),
], ids=["sigma-field", "tau-count", "tau-shape", "conf-n-one", "conf-degree",
        "gmodule-p-four", "conf-p-four", "vanishing-p-four", "invariants-p-four",
        "cohen-p-four", "vanishing-n-one", "invariants-n-one", "cohen-n-one",
        "bar-negative", "bar-no-taus", "nakaoka-p-two", "nakaoka-negative", "cohen-negative"])
def test_refusals(call, message):
    with pytest.raises(modp.ModpError, match=re.escape(message)):
        call()


def test_gmodule_validation_catches_broken_sigma():
    """A Sigma_p-module's sigma is the product of its taus, so no sigma can
    be given next to them: a broken one is refused as input, and so is a
    module given neither."""
    v = modp.conf_module(3, 2, 1)
    entries = dict(v.sigma.entries)
    i, j = next(iter(entries))
    entries[(i, j)] = (entries[(i, j)] + 1) % 3
    bad = SparseMatrix(v.dim, v.dim, GF(3), entries)
    for call in (lambda: modp.GModule(3, bad, v.module), lambda: modp.GModule(3)):
        with pytest.raises(modp.ModpError, match="exactly one of sigma"):
            call()


def test_gmodule_validation_catches_broken_tau():
    v = modp.conf_module(3, 2, 2)
    taus = list(v.module.taus)
    entries = dict(taus[0].entries)
    i, j = next(iter(entries))
    entries[(i, j)] = (entries[(i, j)] + 1) % 3
    taus[0] = SparseMatrix(v.dim, v.dim, GF(3), entries)
    with pytest.raises(Exception):
        coxeter(3, taus)


def test_sigma_without_taus_must_have_order_p():
    # a transposition over F_3 and -1 over F_5 have order 2
    swap = SparseMatrix(2, 2, GF(3), {(0, 1): 1, (1, 0): 1})
    minus = SparseMatrix.identity(3, GF(5)).scale(-1)
    for p, sigma in ((3, swap), (5, minus)):
        with pytest.raises(modp.ModpError, match="sigma\\^%d is not the identity" % p):
            modp.GModule(p, sigma)


def regular_sigma3_taus(copies, right=()):
    """Coxeter generators of `copies` copies of the regular Sigma_3-module
    over F_3: tau_i sends the basis vector of g to that of s_i g, or of
    g s_i for i in `right`."""
    elements = sorted(itertools.permutations((1, 2, 3)))
    index = {g: k for k, g in enumerate(elements)}
    taus = []
    for i in (1, 2):
        swap = {i: i + 1, i + 1: i}
        entries = {}
        for c in range(copies):
            for g in elements:
                if i in right:
                    h = tuple(g[swap.get(x, x) - 1] for x in (1, 2, 3))
                else:
                    h = tuple(swap.get(x, x) for x in g)
                entries[(6 * c + index[h], 6 * c + index[g])] = 1
        taus.append(SparseMatrix(6 * copies, 6 * copies, GF(3), entries))
    return taus


def test_gmodule_validation_is_exact_at_every_dimension():
    # 2040 columns; the broken entry sits in column 6, the first column of
    # the second copy, which a strided column sample would skip
    t1, t2 = regular_sigma3_taus(340)
    assert coxeter(3, [t1, t2]).dim == 2040
    entries = dict(t1.entries)
    (i, j), = [key for key in entries if key[1] == 6]
    entries[(i, j)] = 2
    bad = SparseMatrix(2040, 2040, GF(3), entries)
    with pytest.raises(modp.ModpError, match="tau_1"):
        coxeter(3, [bad, t2])


def test_gmodule_validation_names_the_failed_relator():
    t1, t2 = regular_sigma3_taus(1)
    _, r2 = regular_sigma3_taus(1, right=(2,))
    # left and right multiplications commute, so (tau_1 tau_2)^3 = tau_1 tau_2
    with pytest.raises(modp.ModpError, match="braid relator"):
        coxeter(3, [t1, r2])
    # sigma is the product of the taus, never a second input to compare
    with pytest.raises(modp.ModpError, match="exactly one of sigma"):
        modp.GModule(3, t2.matmul(t1), forests.SymmetricModule([t1, t2], 6, GF(3)))
    # transpositions (12), (23), (31) and their product in S_3, acting on
    # F_5^3: adjacent pairs braid and the product is 1, but tau_1 and tau_3
    # do not commute
    swaps = []
    for a, b in ((0, 1), (1, 2), (2, 0)):
        img = {0: 0, 1: 1, 2: 2, a: b, b: a}
        swaps.append(SparseMatrix(3, 3, GF(5), {(img[x], x): 1 for x in range(3)}))
    swaps.append(swaps[0].matmul(swaps[1]).matmul(swaps[2]))
    with pytest.raises(modp.ModpError, match="tau_1 and tau_3 do not commute"):
        coxeter(5, swaps)
    empty = SparseMatrix(0, 0, GF(3), {})
    assert coxeter(3, [empty, empty]).dim == 0


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MODULE_CASES), st.integers(0, 6))
def test_aug_and_norm_annihilate_each_other(case, j):
    p, n = case
    t = (j % p) * (n - 1)
    v = modp.conf_module(p, n, t)
    a = v.aug()
    nn = norm(v)
    assert a.matmul(nn).is_zero()
    assert nn.matmul(a).is_zero()


def test_norm_is_aug_power():
    # N = (sigma - 1)^(p-1) in F_p[C_p]
    for p in (3, 5):
        v = modp.conf_module(p, 2, p - 1)
        a = v.aug()
        acc = SparseMatrix.identity(v.dim, GF(p))
        for _ in range(p - 1):
            acc = acc.matmul(a)
        assert acc == norm(v)


# ---------------------------------------------------------------------------
# cyclic cohomology against a dense-rank oracle


def dense_cyclic_cohomology(v, s_max):
    d = v.dim
    a_rows = v.aug().to_dense()
    n_rows = norm(v).to_dense()
    ra = oracles.dense_rank_mod(a_rows, v.p)
    rn = oracles.dense_rank_mod(n_rows, v.p)
    out = {}
    for s in range(s_max + 1):
        if s == 0:
            h = d - ra
        elif s % 2 == 1:
            h = (d - rn) - ra
        else:
            h = (d - ra) - rn
        if h:
            out[s] = h
    return out


def cyclic_cohomology(v, s_max):
    """H^s(C_p; V) for s = 0..s_max from the library: H^0 = ker(sigma-1),
    and H^s for s >= 1 the Tate group at s."""
    tate = modp.tate(v, (1, max(s_max, 1)))
    return {s: v.dim - rank(v.aug()) if s == 0 else tate.get(s) for s in range(s_max + 1)}


def test_cyclic_cohomology_matches_dense_oracle():
    for p, n in ((3, 2), (3, 3), (5, 2)):
        for t in all_t(p, n):
            v = modp.conf_module(p, n, t)
            got = cyclic_cohomology(v, 4)
            assert got[1] == v.periodic_dim(), (p, n, t)
            assert {s: h for s, h in got.items() if h} == dense_cyclic_cohomology(v, 4)


def test_trivial_module_cohomology_all_ones():
    for p in (3, 5):
        v = oracles.trivial_module(p)
        assert all(h == 1 for h in cyclic_cohomology(v, 6).values())
        # Tate groups at s <= -2 are the homology H_(-s-1)
        assert modp.tate(v, (-7, 6)).items() == [(s, 1) for s in range(-7, 7)]


def test_regular_module_is_cohomologically_trivial():
    for p in (3, 5, 7):
        v = oracles.regular_module(p)
        assert cyclic_cohomology(v, 6) == {0: 1, **{s: 0 for s in range(1, 7)}}
        td = modp.tate(v, (-4, 4))
        assert all(td.get(s) == 0 for s in range(-4, 5))


# ---------------------------------------------------------------------------
# the periodic dimension, and N in the basis of ker(sigma-1)


def component_dense_rank(m, p):
    """Rank of m mod p: the sum of the dense ranks of the submatrices on
    the connected components of its row-column graph.  Every entry of m is
    in exactly one component, so no entry is left out."""
    parent = {}

    def find(x):
        # path halving: without it the walk's cost depends on entry order
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in m.entries:
        parent[find(("r", i))] = find(("c", j))
    blocks = {}
    for (i, j), v in m.entries.items():
        blocks.setdefault(find(("r", i)), {})[(i, j)] = v
    total = 0
    for entries in blocks.values():
        rows = sorted({i for i, _ in entries})
        cols = sorted({j for _, j in entries})
        at = {j: c for c, j in enumerate(cols)}
        dense = {i: [0] * len(cols) for i in rows}
        for (i, j), v in entries.items():
            dense[i][at[j]] = v
        total += oracles.dense_rank_mod([dense[i] for i in rows], p)
    return total


def assert_ranks_match_dense(v):
    assert v.periodic_dim() == (v.dim - component_dense_rank(v.aug(), v.p)
                                - component_dense_rank(norm(v), v.p))


def test_component_dense_rank_is_dense_rank():
    v = modp.conf_module(5, 2, 2)
    for m in (v.aug(), norm(v)):
        assert component_dense_rank(m, 5) == oracles.dense_rank_mod(m.to_dense(), 5)


def sign_twist(v):
    """V tensor the sign character: every tau_i changes sign, so sigma, a
    product of p - 1 of them, picks up (-1)^(p-1)."""
    taus = [m.scale(-1) for m in v.module.taus]
    return modp.GModule(v.p, module=forests.SymmetricModule(taus, v.dim, v.field, v.module.basis))


@pytest.mark.parametrize("p,twist", [(3, 0), (5, 0), (5, 1), (7, 0)])
def test_rank_route_matches_dense_on_conf_modules(p, twist):
    for t in range(p):
        v = modp.conf_module(p, 2, t)
        assert_ranks_match_dense(sign_twist(v) if twist else v)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((3, 5, 7)), st.data())
def test_rank_route_matches_dense_on_jordan_blocks(p, data):
    """sigma = a direct sum of Jordan blocks J_m of (x-1), m <= p, under a
    random relabelling of the basis: non-free modules, whose complement of
    im(sigma-1) is not 1/p of V."""
    sizes = data.draw(st.lists(st.integers(1, p), min_size=1, max_size=6))
    dim = sum(sizes)
    relabel = data.draw(st.permutations(range(dim)))
    entries, start = {}, 0
    for m in sizes:
        for i in range(start, start + m):
            entries[(relabel[i], relabel[i])] = 1
            if i + 1 < start + m:
                entries[(relabel[i], relabel[i + 1])] = 1
        start += m
    v = modp.GModule(p, SparseMatrix(dim, dim, GF(p), entries))
    assert_ranks_match_dense(v)
    # rank(sigma-1) is dim - len(sizes), and N = (sigma-1)^(p-1) is nonzero
    # exactly on a block of size p, so rank N is sizes.count(p)
    assert v.periodic_dim() == len(sizes) - sizes.count(p)


def norm_coords(v):
    """M, N in the basis kernel_basis(sigma-1), as the library forms it."""
    return modp._norm_coords(v, kernel_basis(v.aug()))


def test_rank_norm_equals_dense_rank_of_full_norm():
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            for t in all_t(p, n):
                v = modp.conf_module(p, n, t)
                assert rank(norm_coords(v)) == oracles.dense_rank_mod(norm(v).to_dense(), p), \
                    (p, n, t)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_norm_coords_and_the_unchecked_chain_map_identity(p):
    """Against the test's full N: M = norm_coords(v) has the dense rank of
    N and the kernel of N, and N g P = r g N holds, which the stable route
    derives from (sigma-1) g = g P (sigma-1) and does not check; on
    conf_module(p, n, t) for n in {2, 3} at every t, and on the sign
    twists."""
    r = modp._primitive_root(p)
    q = tuple((i - 1) * pow(r, -1, p) % p + 1 for i in range(1, p + 1))
    for n in (2, 3):
        for t in all_t(p, n):
            v = modp.conf_module(p, n, t)
            for case, w in (((n, t), v), ((n, t, "sign"), sign_twist(v))):
                full, m = norm(w), norm_coords(w)
                rn = component_dense_rank(full, p)
                assert rank(m) == rn, case
                y = kernel_basis(m)
                assert y.ncols == w.dim - rn and full.matmul(y).is_zero(), case
                g = w.module.element(q)
                assert full.matmul(g.matmul(right_sums(w, r))) == g.matmul(full).scale(r), case


def test_cp_route_forms_no_power_of_sigma(monkeypatch):
    """Tate groups, vanishing and fixed spaces need rank(sigma-1), rank N
    and the taus only: sigma^p = 1 follows from the Coxeter relators, and
    rank N is taken on the rows of N at the unit rows of
    kernel_basis(sigma-1), so no module runs sigma-products, which multiply
    on the right, from a full-height matrix, which would form its powers
    or N."""
    run = modp.GModule.run

    def narrow_run(v, x, m):
        if v.dim > 1 and x.nrows == v.dim:
            raise AssertionError("a power of sigma was formed")
        return run(v, x, m)

    monkeypatch.setattr(modp.GModule, "run", narrow_run)
    monkeypatch.setattr(modp, "_conf_cache", {})
    ts = all_t(7, 3)
    for t in ts:
        modp.tate(modp.conf_module(7, 3, t), (-2, 2))
    assert modp.verify_vanishing(7, 3)
    assert dict(modp.invariants_sigma_p(7, 3).items()) == {0: 1}
    assert sorted(modp._conf_cache) == [(7, 3, t) for t in ts]


class _Word:
    """A stand-in for a tau in the free monoid on 1, 2, ...: matmul
    concatenates, so SymmetricModule.element returns the word it
    multiplies along."""

    def __init__(self, word):
        self.word = word

    def matmul(self, other):
        return _Word(self.word + other.word)


def _word(q):
    """The word SymmetricModule.element multiplies along for q, leftmost
    factor first; () for the identity."""
    if q == tuple(sorted(q)):
        return ()
    return forests.SymmetricModule([_Word((i,)) for i in range(1, len(q))], 0, None).element(q).word


def test_transposition_word_recomposes_every_permutation():
    """q = tau_{w[0]} o tau_{w[1]} o ..., so applying the word's swaps to x
    from the right end reaches q(x), for every q of 1..5."""
    for q in itertools.permutations(range(1, 6)):
        word = _word(q)
        got = []
        for x in range(1, 6):
            for i in reversed(word):
                x = {i: i + 1, i + 1: i}.get(x, x)
            got.append(x)
        assert tuple(got) == q


def test_element_matrix_starts_at_the_first_tau():
    v = modp.conf_module(5, 2, 2)
    ident = SparseMatrix.identity(v.dim, GF(5))
    assert v.module.element((1, 2, 3, 4, 5)) == ident
    assert v.module.element((1, 3, 2, 4, 5)) is v.module.taus[1]
    q = (2, 3, 1, 5, 4)
    word = _word(q)
    want = ident
    for i in word:
        want = want.matmul(v.module.taus[i - 1])
    assert len(word) == 3 and v.module.element(q) == want


# ---------------------------------------------------------------------------
# Tate splice


def dense_tate(v, s):
    """Tate group at s from dense ranks: H^s for s >= 1, H^0 / im N at
    s = 0, ker N / im(sigma-1) at s = -1, and H_(-s-1) below, where the
    periodic resolution gives H_j = ker(sigma-1) / im N for j odd and
    ker N / im(sigma-1) for j even."""
    if s >= 1:
        return dense_cyclic_cohomology(v, s).get(s, 0)
    d = v.dim
    ra = oracles.dense_rank_mod(v.aug().to_dense(), v.p)
    rn = oracles.dense_rank_mod(norm(v).to_dense(), v.p)
    if s == 0:
        return dense_cyclic_cohomology(v, 0).get(0, 0) - rn
    if s == -1 or (-s - 1) % 2 == 0:
        return (d - rn) - ra
    return (d - ra) - rn


def test_tate_splices_cohomology_and_homology():
    for p, n in ((3, 2), (5, 2)):
        for t in all_t(p, n):
            v = modp.conf_module(p, n, t)
            td = modp.tate(v, (-6, 6))
            for s in range(-6, 7):
                assert td.get(s) == dense_tate(v, s), (p, n, t, s)


def test_tate_window_guards():
    v = oracles.trivial_module(3)
    td = modp.tate(v, (-3, 3))
    assert all(td.get(s) == 1 for s in range(-3, 4))
    with pytest.raises(modp.ModpError):
        modp.tate(v, (2, 1))


# ---------------------------------------------------------------------------
# vanishing and fixed spaces


def test_vanishing_is_vacuous_for_p_two():
    assert modp.verify_vanishing(2, 3) is True


def test_vanishing_small_cases():
    assert modp.verify_vanishing(3, 2) is True
    assert modp.verify_vanishing(5, 2) is True


def test_freeness_certificate_refuses_degree_zero():
    # the one-point forest partition of t = 0 is fixed by the p-cycle
    for p, n in ((3, 2), (5, 2), (5, 3)):
        assert modp._freeness_certificate(modp.conf_module(p, n, 0)) is False


def test_vanishing_raises_when_the_two_routes_disagree(monkeypatch):
    monkeypatch.setattr(modp, "_freeness_certificate", lambda v: False)
    with pytest.raises(AssertionError, match=re.escape(
            "certificate (False) and linear algebra (True) disagree at t = 1")):
        modp.verify_vanishing(3, 2)


def test_invariants_small_prime_exception():
    # p = 3 keeps an extra fixed class in the top degree when n is even;
    # only p > 3 follows the two-line closed form
    assert dict(modp.invariants_sigma_p(3, 2).items()) == {0: 1, 1: 1, 2: 1}
    assert dict(modp.invariants_sigma_p(3, 3).items()) == {0: 1}
    assert dict(modp.invariants_sigma_p(5, 2).items()) == {0: 1, 1: 1}
    assert dict(modp.invariants_sigma_p(5, 3).items()) == {0: 1}


# ---------------------------------------------------------------------------
# stable classes vs the bar resolution


def test_stable_route_matches_bar_on_twisted_modules():
    for n in (2, 3):
        for j in range(3):
            v = sign_twist(modp.conf_module(3, n, j * (n - 1)))
            a = modp.sigma_p_cohomology_stable(v, 4)
            b = modp.bar_cohomology(v, 4)
            assert all(a.get(s) == b.get(s) for s in range(5))


def test_stable_route_matches_bar_on_sign_module():
    v = sign_twist(oracles.trivial_module(3))
    a = modp.sigma_p_cohomology_stable(v, 4)
    b = modp.bar_cohomology(v, 4)
    assert all(a.get(s) == b.get(s) for s in range(5))


# dim H^s(Sigma_p; V) for s = 0..8 at p = 5 and s = 0..4 at p = 7, keyed
# by (p, n, t), V = conf_module(p, n, t)
STABLE_DIMS = {
    (5, 2, 0): [1, 0, 0, 0, 0, 0, 0, 1, 1],
    (5, 2, 1): [1, 0, 0, 0, 0, 0, 0, 0, 0],
    (5, 2, 2): [1, 0, 0, 0, 0, 0, 0, 0, 0],
    (5, 2, 3): [2, 0, 0, 0, 0, 0, 0, 0, 0],
    (5, 2, 4): [1, 0, 0, 0, 1, 1, 0, 0, 0],
    (5, 3, 0): [1, 0, 0, 0, 0, 0, 0, 1, 1],
    (5, 3, 2): [0, 0, 0, 0, 0, 0, 0, 0, 0],
    (5, 3, 4): [2, 0, 0, 0, 0, 0, 0, 0, 0],
    (5, 3, 6): [2, 0, 0, 0, 0, 0, 0, 0, 0],
    (5, 3, 8): [2, 1, 0, 0, 0, 0, 0, 0, 1],
    (7, 2, 0): [1, 0, 0, 0, 0],
    (7, 2, 1): [1, 0, 0, 0, 0],
    (7, 2, 2): [3, 0, 0, 0, 0],
    (7, 2, 3): [17, 0, 0, 0, 0],
    (7, 2, 4): [39, 0, 0, 0, 0],
}


def right_sums(v, m):
    """1 + sigma + ... + sigma^(m-1), each power a product with sigma on
    the right: the test's own products, not GModule.run."""
    x = acc = SparseMatrix.identity(v.dim, v.field)
    for _ in range(m - 1):
        x = x.matmul(v.sigma)
        acc = acc.add(x)
    return acc


def _stable_reference(v, s_max):
    """The stage loop of sigma_p_cohomology_stable as it was before the
    periodic dimension short-cut: N, ker N and the comparison maps phi_s
    are formed on every module, and the chain-map identity is asserted at
    every stage."""
    p = v.p
    r = modp._primitive_root(p)
    q = tuple((i - 1) * pow(r, -1, p) % p + 1 for i in range(1, p + 1))
    g = v.module.element(q)
    diffs = (v.aug(), right_sums(v, p))
    kernels = [kernel_basis(m) for m in diffs[:s_max + 1]]
    phis = (g, g.matmul(right_sums(v, r)))

    def phi(s):
        return phis[s % 2].scale(pow(r, s // 2, p))

    dims = {}
    for s in range(s_max + 1):
        ds, z = diffs[s % 2], kernels[s % 2]
        phi_s = phi(s)
        assert ds.matmul(phi_s) == phi(s + 1).matmul(ds), s
        moved = phi_s.matmul(z).sub(z)
        if s >= 1:
            moved = SparseMatrix.hstack([moved, diffs[(s + 1) % 2]])
        dims[s] = z.ncols - rank(moved)
    return GradedDims(dims)


def test_stable_route_matches_full_stage_loop():
    cases = [(modp.conf_module(p, n, t), 2 * p - 2)
             for p in (3, 5) for n in (2, 3) for t in all_t(p, n)]
    cases += [(sign_twist(modp.conf_module(3, n, t)), 4) for n in (2, 3) for t in all_t(3, n)]
    cases += [(sign_twist(oracles.trivial_module(3)), 4)]
    cases += [(modp.conf_module(7, 2, t), 4) for t in range(3)]
    for v, s_max in cases:
        assert modp.sigma_p_cohomology_stable(v, s_max) == _stable_reference(v, s_max), \
            (v.p, v.dim, s_max)


def test_stable_route_forms_no_norm_on_free_modules(monkeypatch):
    """An interior module is free, so its periodic dimension is 0 and the
    route stops at H^0, which needs no full-height product with sigma.  The
    top module has H^4 != 0 and needs the partial norm
    P = 1 + ... + sigma^(r-1), one run of r - 1 products; N is formed only
    as its rows at the unit rows of kernel_basis(sigma-1)."""
    monkeypatch.setattr(modp, "_conf_cache", {})
    p = 5
    interior, top = modp.conf_module(p, 2, 2), modp.conf_module(p, 2, 4)
    products = []
    matmul = SparseMatrix.matmul

    def counting(a, b):
        if b is v.sigma and a.nrows == v.dim:
            products.append(a)
        return matmul(a, b)

    monkeypatch.setattr(SparseMatrix, "matmul", counting)
    for v, want in ((interior, 0), (top, modp._primitive_root(p) - 1)):
        products.clear()
        modp.sigma_p_cohomology_stable(v, 8)
        assert len(products) == want, v.dim


@pytest.mark.parametrize("p", [3, 5, 7])
def test_stable_route_top_module_closed_form(p):
    """On the top module G_0 = G_1 = (-1)^(n-1), so for s >= 1 H^s is F_p
    when s mod 2(p-1) is p-1 or p (n even) or 0 or 1 (n odd), else 0."""
    for n in (2, 3, 4):
        v = modp.conf_module(p, n, (n - 1) * (p - 1))
        s_max = 4 * (p - 1) + 1
        dims = modp.sigma_p_cohomology_stable(v, s_max)
        live = (p - 1, p) if n % 2 == 0 else (0, 1)
        want = [int(s % (2 * p - 2) in live) for s in range(1, s_max + 1)]
        assert [dims.get(s) for s in range(1, s_max + 1)] == want, n


def test_stable_route_budget_on_the_top_module_at_p7():
    """Every degree comes from two h x h matrices, so s <= 30 costs about
    what s <= 1 does."""
    v = modp.conf_module(7, 2, 6)
    start = time.perf_counter()
    dims = modp.sigma_p_cohomology_stable(v, 30)
    assert time.perf_counter() - start < 10
    assert [s for s in range(1, 31) if dims.get(s)] == [6, 7, 18, 19, 30]


def direct_sum(*mods):
    """The block-diagonal sum of Sigma_p-modules over one prime."""
    def blocks(mats):
        entries, offset = {}, 0
        for m in mats:
            entries.update({(i + offset, j + offset): x for (i, j), x in m.entries.items()})
            offset += m.nrows
        return SparseMatrix(offset, offset, mats[0].domain, entries)

    return coxeter(mods[0].p, [blocks(ts) for ts in zip(*(v.module.taus for v in mods))])


def sum_cases(p, n):
    """V_0 + V_top, V_top + V_top, V_top + sign V_top and
    (V_0 + V_top) + sign V_0, with their periodic dimensions."""
    v0, top = modp.conf_module(p, n, 0), modp.conf_module(p, n, (n - 1) * (p - 1))
    return [(direct_sum(v0, top), 2), (direct_sum(top, top), 2),
            (direct_sum(top, sign_twist(top)), 2),
            (direct_sum(direct_sum(v0, top), sign_twist(v0)), 3)]


def test_stable_route_on_sums_matches_bar_at_p3():
    for v, h in sum_cases(3, 2):
        assert v.periodic_dim() == h
        assert modp.sigma_p_cohomology_stable(v, 4) == modp.bar_cohomology(v, 4), v.dim


def test_stable_route_on_sums_matches_stage_loop_at_p5():
    for n in (2, 3):
        for v, h in sum_cases(5, n):
            assert v.periodic_dim() == h
            assert modp.sigma_p_cohomology_stable(v, 9) == _stable_reference(v, 9), (n, v.dim)


def test_stable_route_refuses_a_non_chain_map(monkeypatch):
    v = modp.conf_module(5, 2, 4)
    monkeypatch.setattr(forests.SymmetricModule, "element",
                        lambda m, q: SparseMatrix.identity(m.dim, m.domain))
    with pytest.raises(modp.ModpError, match="not a chain map"):
        modp.sigma_p_cohomology_stable(v, 1)


def test_stable_route_cross_checks_the_periodic_dimension(monkeypatch):
    """Each periodic quotient counts its classes a second way."""
    v = modp.conf_module(5, 2, 4)
    periodic_dim = modp.GModule.periodic_dim
    monkeypatch.setattr(modp.GModule, "periodic_dim", lambda v: periodic_dim(v) + 1)
    with pytest.raises(modp.ModpError, match="has 1 classes, not h = 2"):
        modp.sigma_p_cohomology_stable(v, 1)


def test_module_rows_are_never_written(monkeypatch):
    """The taus share their single-entry rows, and a product, sigma among
    them, shares rows of its right factor, so no route may write to a row of
    sigma or a tau: each is the same after validation, Tate, vanishing,
    fixed spaces, the stable route and the eliminations of sigma - 1."""
    monkeypatch.setattr(modp, "_conf_cache", {})
    p, n = 5, 2
    mods = [modp.conf_module(p, n, t) for t in all_t(p, n)]
    before = [copy.deepcopy([m.rows for m in (v.sigma, *v.module.taus)]) for v in mods]
    for v in mods:
        modp.GModule(p, module=v.module)
        modp.tate(v, (-2, 2))
        modp.sigma_p_cohomology_stable(v, 8)
        kernel_basis(v.aug())
        rank(v.aug())
    assert modp.verify_vanishing(p, n)
    modp.invariants_sigma_p(p, n)
    for v, rows in zip(mods, before):
        assert [m.rows for m in (v.sigma, *v.module.taus)] == rows, v.dim


def test_stable_route_dims_are_pinned():
    for (p, n, t), want in STABLE_DIMS.items():
        dims = modp.sigma_p_cohomology_stable(modp.conf_module(p, n, t), len(want) - 1)
        assert [dims.get(s) for s in range(len(want))] == want, (p, n, t)


def test_stable_route_refusals_and_p_two():
    with pytest.raises(modp.ModpError, match="Sigma_p action"):
        modp.sigma_p_cohomology_stable(oracles.regular_module(3), 2)
    with pytest.raises(modp.ModpError, match="negative"):
        modp.sigma_p_cohomology_stable(oracles.trivial_module(3), -1)
    # Sigma_2 = C_2, so H^s(Sigma_2; F_2) = F_2 in every degree
    dims = modp.sigma_p_cohomology_stable(oracles.trivial_module(2), 3)
    assert [dims.get(s) for s in range(4)] == [1, 1, 1, 1]
    # p = 2 takes the general route, with r = 1 and g = 1
    assert modp._primitive_root(2) == 1
    swap = SparseMatrix(2, 2, GF(2), {(0, 1): 1, (1, 0): 1})
    for v in (oracles.trivial_module(2), coxeter(2, [swap])):
        a = modp.sigma_p_cohomology_stable(v, 4)
        assert a == modp.bar_cohomology(v, 4), v.dim
        assert [a.get(s) for s in range(5)] == list(cyclic_cohomology(v, 4).values()), v.dim


def test_bar_cohomology_refuses_large_groups():
    v = oracles.trivial_module(5)
    with pytest.raises(modp.ModpError):
        modp.bar_cohomology(v, 2)
    with pytest.raises(modp.ModpError):
        modp.bar_cohomology(oracles.trivial_module(3), 9)


def test_bar_cohomology_checks_multiplicativity(monkeypatch):
    v = oracles.trivial_module(3)
    # 2 * identity over F_3: its square is the identity, not itself
    monkeypatch.setattr(forests.SymmetricModule, "element",
                        lambda m, q: SparseMatrix.identity(m.dim, m.domain).scale(2))
    with pytest.raises(modp.ModpError, match="element matrices are not multiplicative"):
        modp.bar_cohomology(v, 2)


def test_nakaoka_series_degrees():
    series = modp.nakaoka_series(3, 12)
    got = {d for (d, _), c in series.coeffs.items() if c}
    assert got == {0, 3, 4, 7, 8, 11, 12}
    series = modp.nakaoka_series(5, 16)
    got = {d for (d, _), c in series.coeffs.items() if c}
    assert got == {0, 7, 8, 15, 16}
    for (_, __), c in series.coeffs.items():
        assert c == 1


def test_cohen_series_values():
    s = modp.cohen_series(5, 2, 8)
    assert s.to_text() == "1 + t"
    s = modp.cohen_series(5, 3, 8)
    assert s.to_text() == "1 + t^7 + t^8"
    with pytest.raises(modp.ModpError):
        modp.cohen_series(3, 2, 8)


def test_swan_period_brute_force_matches_closed_form():
    for p in (3, 5, 7):
        assert modp.swan_period(p) == 2 * (p - 1)


def test_swan_period_checks_the_brute_force_counts(monkeypatch):
    # only the identity: a centralizer of order 1
    monkeypatch.setattr(modp, "permutations", lambda points: [(1, 2, 3)])
    with pytest.raises(modp.ModpError, match="centralizer of the p-cycle should have order p"):
        modp.swan_period(3)
    # <(1 2 3)> and one transposition: |N| = 4 against |C| = 3
    monkeypatch.setattr(modp, "permutations",
                        lambda points: [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3)])
    with pytest.raises(modp.ModpError, match="centralizer order does not divide"):
        modp.swan_period(3)


def test_swan_period_closed_form_beyond_brute_force():
    assert modp.swan_period(11) == 20
    assert modp.swan_period(13) == 24


def test_stable_cohomology_of_trivial_module_is_nakaoka():
    for p in (3, 5):
        v = oracles.trivial_module(p)
        dims = modp.sigma_p_cohomology_stable(v, 2 * p - 2)
        series = modp.nakaoka_series(p, 2 * p - 2)
        for s in range(2 * p - 1):
            assert dims.get(s) == series.coefficient(s), (p, s)
