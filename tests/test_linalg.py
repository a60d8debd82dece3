"""Sparse exact linear algebra against dense and sympy oracles."""

from fractions import Fraction
from heapq import heappush

import pytest
from hypothesis import given, settings, strategies as st

from confspace import linalg
from confspace.linalg import (
    GF,
    QQ,
    ZZ,
    DomainError,
    SparseMatrix,
    invert,
    is_prime,
    kernel_basis,
    rank,
    smith_normal_form,
)

import oracles


def dense(m):
    return m.to_dense()


small_int = st.integers(min_value=-6, max_value=6)


@st.composite
def int_matrix(draw, max_dim=7):
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [[draw(small_int) for _ in range(ncols)] for _ in range(nrows)]
    return rows


@st.composite
def frac_matrix(draw, max_dim=6):
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    rows = [[Fraction(draw(small_int), draw(st.integers(1, 5)))
             for _ in range(ncols)] for _ in range(nrows)]
    return rows


@settings(max_examples=120, deadline=None)
@given(int_matrix())
def test_rank_int_entries_matches_dense_oracle(rows):
    m = SparseMatrix.from_rows(rows, QQ)
    assert rank(m) == oracles.dense_rank_qq(rows)


@pytest.mark.parametrize("fn", [rank, kernel_basis, invert])
def test_rank_over_zz_refused(fn):
    m = SparseMatrix.from_rows([[2, 0], [0, 3]], ZZ)
    with pytest.raises(DomainError):
        fn(m)


@settings(max_examples=120, deadline=None)
@given(frac_matrix())
def test_rank_qq_matches_dense_oracle(rows):
    m = SparseMatrix.from_rows(rows, QQ)
    assert rank(m) == oracles.dense_rank_qq(rows)


@settings(max_examples=120, deadline=None)
@given(int_matrix(), st.sampled_from([2, 3, 5, 7]))
def test_rank_gf_matches_dense_oracle(rows, p):
    m = SparseMatrix.from_rows(rows, GF(p))
    assert rank(m) == oracles.dense_rank_mod(rows, p)


@settings(max_examples=100, deadline=None)
@given(int_matrix(max_dim=5))
def test_smith_matches_sympy(rows):
    m = SparseMatrix.from_rows(rows, ZZ)
    factors, rnk = smith_normal_form(m)
    want = oracles.sympy_smith(rows)
    assert sorted(factors) == want
    assert rnk == len(want) == oracles.dense_rank_qq(rows)


@settings(max_examples=100, deadline=None)
@given(int_matrix())
def test_smith_divisibility_chain(rows):
    m = SparseMatrix.from_rows(rows, ZZ)
    factors, rnk = smith_normal_form(m)
    assert len(factors) == rnk
    assert all(f > 0 for f in factors)
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0


@st.composite
def unimodular(draw, n):
    """An n x n integer matrix of determinant +-1: the identity under random
    row negations and additions of a multiple of another row."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3 * n))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        c = draw(st.integers(-3, 3))
        if i == j:
            u[i] = [-v for v in u[i]]
        else:
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def dense_product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_smith_invariant_under_unimodular_change(data):
    nrows = data.draw(st.integers(1, 8))
    ncols = data.draw(st.integers(1, 8))
    a = [[data.draw(small_int) for _ in range(ncols)] for _ in range(nrows)]
    pqa = dense_product(dense_product(data.draw(unimodular(nrows)), a),
                        data.draw(unimodular(ncols)))
    assert (smith_normal_form(SparseMatrix.from_rows(pqa, ZZ))
            == smith_normal_form(SparseMatrix.from_rows(a, ZZ)))


def test_smith_of_twice_identity_at_scale():
    n = 300
    m = SparseMatrix(n, n, ZZ, {(i, i): 2 for i in range(n)})
    assert smith_normal_form(m) == ([2] * n, n)


@pytest.mark.parametrize("block, factors", [
    ([[2, 0], [0, 6]], [2, 6]),
    ([[4, 0], [0, 6]], [2, 12]),
    ([[2, 3], [3, 4]], [1, 1]),
    ([[4, 6]], [2]),
])
def test_smith_of_unimodular_block_plus_small_block(block, factors):
    """The unit pivots take the unimodular block (two of them are -1);
    the small block, which has no entry +-1, is left to the gcd loop."""
    unit = [[-1, 2, 0], [0, 1, 3], [0, 0, -1]]
    rows = [r + [0] * len(block[0]) for r in unit] + [[0] * 3 + r for r in block]
    m = SparseMatrix.from_rows(rows, ZZ)
    assert smith_normal_form(m) == ([1, 1, 1] + factors, 3 + len(factors))


def assert_kernel_matrix(m, want_rank, dense_rank):
    """kernel_basis(m) is m.ncols x nullity, m kills it, and its columns
    are independent by the dense oracle's rank."""
    k = kernel_basis(m)
    assert k.nrows == m.ncols
    assert k.ncols == m.ncols - want_rank
    assert m.matmul(k).is_zero()
    assert dense_rank(k.transpose().to_dense()) == k.ncols


@settings(max_examples=100, deadline=None)
@given(frac_matrix())
def test_kernel_vectors_lie_in_kernel(rows):
    m = SparseMatrix.from_rows(rows, QQ)
    assert_kernel_matrix(m, rank(m), oracles.dense_rank_qq)


@settings(max_examples=60, deadline=None)
@given(int_matrix(max_dim=4), st.sampled_from([3, 5]))
def test_kernel_count_gf(rows, p):
    m = SparseMatrix.from_rows(rows, GF(p))
    assert_kernel_matrix(m, oracles.dense_rank_mod(rows, p),
                         lambda dense: oracles.dense_rank_mod(dense, p))


@st.composite
def mixed_matrix(draw, max_dim=5, square=False):
    """Entries that are ints or Fractions, the two kinds QQ holds."""
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = nrows if square else draw(st.integers(min_value=0, max_value=max_dim))
    entry = st.one_of(small_int, st.builds(Fraction, small_int, st.integers(1, 5)))
    return [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=120, deadline=None)
@given(mixed_matrix())
def test_qq_mixed_entries_rank_and_kernel_match_dense_oracle(rows):
    m = SparseMatrix.from_rows(rows, QQ)
    want = oracles.dense_rank_qq(rows)
    assert rank(m) == want
    assert_kernel_matrix(m, want, oracles.dense_rank_qq)


@settings(max_examples=120, deadline=None)
@given(mixed_matrix(square=True))
def test_qq_mixed_entries_invert_matches_dense_oracle(rows):
    m = SparseMatrix.from_rows(rows, QQ)
    if oracles.dense_rank_qq(rows) < len(rows):
        with pytest.raises(ValueError):
            invert(m)
        return
    ident = SparseMatrix.identity(len(rows), QQ)
    assert m.matmul(invert(m)) == ident


def test_coerce_values_types_and_refusals():
    # columns: input, then the value over QQ, ZZ and GF(7); None is refused
    cases = [
        (3, 3, 3, 3),
        (-9, -9, -9, 5),
        (True, Fraction(1), 1, 1),
        (Fraction(6, 3), Fraction(2), 2, 2),
        (Fraction(1, 2), Fraction(1, 2), None, 4),
        (Fraction(3, 7), Fraction(3, 7), None, None),
    ]
    for x, *wants in cases:
        for domain, want in zip((QQ, ZZ, GF(7)), wants):
            if want is None:
                with pytest.raises(DomainError):
                    domain.coerce(x)
            else:
                got = domain.coerce(x)
                assert got == want and type(got) is type(want), (domain, x)


def test_qq_int_and_fraction_entries_are_equal():
    rows = [[1, 0, -2], [0, 3, 4]]
    ints = SparseMatrix.from_rows(rows, QQ)
    fracs = SparseMatrix.from_rows([[Fraction(x) for x in row] for row in rows], QQ)
    assert all(type(v) is int for v in ints.entries.values())
    assert ints == fracs


@settings(max_examples=60, deadline=None)
@given(int_matrix(max_dim=5), int_matrix(max_dim=5), small_int)
def test_linearity_of_add_scale(a_rows, b_rows, c):
    nrows = len(a_rows)
    ncols = len(a_rows[0]) if a_rows else 0
    b_rows = [[b_rows[i][j] if i < len(b_rows) and j < len(b_rows[i]) else 0
               for j in range(ncols)] for i in range(nrows)]
    a = SparseMatrix.from_rows(a_rows, ZZ)
    b = SparseMatrix.from_rows(b_rows, ZZ)
    left = a.add(b.scale(c)).to_dense()
    want = [[a_rows[i][j] + c * b_rows[i][j] for j in range(ncols)]
            for i in range(nrows)]
    assert left == want


def test_matmul_matches_dense():
    a = SparseMatrix.from_rows([[1, 2], [0, -3], [4, 0]], ZZ)
    b = SparseMatrix.from_rows([[2, 0, 1], [1, -1, 0]], ZZ)
    assert a.matmul(b).to_dense() == [[4, -2, 1], [-3, 3, 0], [8, 0, 4]]


@st.composite
def matmul_case(draw):
    """A domain and two matrices of compatible shapes, any of them empty;
    over QQ the entries mix ints and Fractions."""
    domain = draw(st.sampled_from([QQ, ZZ, GF(2), GF(3), GF(7)]))
    entry = small_int
    if domain is QQ:
        entry = st.one_of(small_int, st.builds(Fraction, small_int, st.integers(1, 5)))
    n, m, k = (draw(st.integers(0, 5)) for _ in range(3))

    def matrix(nrows, ncols):
        return SparseMatrix(nrows, ncols, domain, {
            (i, j): draw(entry) for i in range(nrows) for j in range(ncols)})
    return matrix(n, m), matrix(m, k)


@settings(max_examples=200, deadline=None)
@given(matmul_case())
def test_matmul_matches_dense_product_with_entry_types(case):
    a, b = case
    p = a.domain.characteristic
    da, db = a.to_dense(), b.to_dense()
    want = {}
    for i in range(a.nrows):
        for l in range(b.ncols):
            terms = [da[i][j] * db[j][l] for j in range(a.ncols) if da[i][j] and db[j][l]]
            x = sum(terms, 0) % p if p else sum(terms, 0)
            if x:
                # a sum of int products is an int; one Fraction makes it a Fraction
                want[(i, l)] = (x, Fraction if Fraction in map(type, terms) else int)
    c = a.matmul(b)
    assert (c.nrows, c.ncols, c.domain) == (a.nrows, b.ncols, a.domain)
    assert {key: (v, type(v)) for key, v in c.entries.items()} == want
    assert all(v != 0 for v in c.entries.values())


def test_matmul_single_entry_rows_keep_entry_types():
    """A left row with one entry scales one row of the right factor, copies
    it at an int 1, and multiplies at a Fraction 1, so that the entries
    become Fractions; a missing right row gives no row."""
    half = Fraction(1, 2)
    b = SparseMatrix(3, 2, QQ, {(0, 0): half, (0, 1): 3, (1, 1): 2})
    a = SparseMatrix(5, 3, QQ, {(0, 0): 1, (1, 1): Fraction(1), (2, 0): -2,
                                (3, 2): 5, (4, 0): 4, (4, 1): -1, (4, 2): 7})
    got = {key: (v, type(v)) for key, v in a.matmul(b).entries.items()}
    assert got == {(0, 0): (half, Fraction), (0, 1): (3, int),
                   (1, 1): (2, Fraction),
                   (2, 0): (-1, Fraction), (2, 1): (-6, int),
                   (4, 0): (2, Fraction), (4, 1): (10, int)}
    g = SparseMatrix(2, 2, GF(7), {(0, 0): 3, (1, 0): 2, (1, 1): 1})
    assert g.matmul(SparseMatrix(2, 1, GF(7), {(0, 0): 5})).entries == {(0, 0): 1, (1, 0): 3}
    # the accumulator drops an entry that cancels mod p
    assert g.matmul(SparseMatrix(2, 1, GF(7), {(0, 0): 3, (1, 0): 1})).entries == {(0, 0): 2}


def test_integer_rows_share_only_primitive_int_rows():
    m = SparseMatrix(5, 3, QQ, {(0, 0): 2, (0, 2): -3, (1, 0): 4, (1, 1): 6,
                                (2, 0): Fraction(1, 2), (2, 1): Fraction(1, 3),
                                (3, 0): Fraction(2, 3), (3, 2): Fraction(4, 3),
                                (4, 1): Fraction(5)})
    before = m.entries
    rows = linalg._integer_rows(m)
    assert list(rows) == [0, 1, 2, 3, 4]
    assert rows[0] is m.rows[0]
    assert [rows[i] for i in range(1, 5)] == [{0: 2, 1: 3}, {0: 3, 1: 2}, {0: 1, 2: 2}, {1: 1}]
    assert all(type(v) is int for row in rows.values() for v in row.values())
    assert m.entries == before


def test_add_and_sub_refuse_mixed_domains():
    """GF(7) 3 + QQ 1/2 once gave the zero matrix (7/2 is 0 mod 7), and QQ
    1/2 + GF(7) 3 a QQ 7/2; both orders are refused."""
    gf = SparseMatrix(1, 1, GF(7), {(0, 0): 3})
    qq = SparseMatrix(1, 1, QQ, {(0, 0): Fraction(1, 2)})
    for a, b in ((gf, qq), (qq, gf)):
        for op in (a.add, a.sub):
            with pytest.raises(DomainError):
                op(b)
    with pytest.raises(DomainError):
        SparseMatrix.identity(2, GF(3)).add(SparseMatrix.identity(2, GF(5)))


def test_matmul_refuses_shape_and_domain_mismatch():
    a = SparseMatrix.from_rows([[1, 2]], QQ)
    with pytest.raises(ValueError):
        a.matmul(SparseMatrix.from_rows([[1, 2]], QQ))
    for other in (ZZ, GF(3)):
        with pytest.raises(DomainError):
            a.matmul(SparseMatrix.from_rows([[1], [2]], other))
    with pytest.raises(DomainError):
        SparseMatrix.identity(2, GF(3)).matmul(SparseMatrix.identity(2, GF(5)))


def test_invert_roundtrip():
    m = SparseMatrix.from_rows([[2, 1], [1, 1]], QQ)
    inv = invert(m)
    assert m.matmul(inv).to_dense() == SparseMatrix.identity(2, QQ).to_dense()


def test_shape_and_domain_refusals():
    with pytest.raises(ValueError):
        invert(SparseMatrix.from_rows([[1, 2]], QQ))
    with pytest.raises(DomainError):
        smith_normal_form(SparseMatrix.from_rows([[2]], QQ))
    with pytest.raises(IndexError, match=r"entry \(2, 0\) outside 2x3"):
        SparseMatrix(2, 3, ZZ, {(2, 0): 1})
    a = SparseMatrix.identity(2, QQ)
    for op in (a.add, a.sub):
        with pytest.raises(ValueError, match="shape mismatch"):
            op(SparseMatrix.identity(3, QQ))
    with pytest.raises(ValueError, match="empty stack"):
        SparseMatrix.hstack([])
    assert repr(SparseMatrix(2, 3, GF(5), {(0, 1): 7})) == "SparseMatrix(2x3 over GF(5), 1 nonzero)"


def test_invert_rejects_singular():
    m = SparseMatrix.from_rows([[1, 2], [2, 4]], QQ)
    with pytest.raises(Exception):
        invert(m)


@st.composite
def square_matrix(draw, max_dim=5):
    n = draw(st.integers(min_value=0, max_value=max_dim))
    return [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(square_matrix(), st.sampled_from([0, 2, 3, 5, 7]))
def test_invert_matches_oracle_rank(rows, p):
    domain = GF(p) if p else QQ
    m = SparseMatrix.from_rows(rows, domain)
    full = (oracles.dense_rank_mod(rows, p) if p
            else oracles.dense_rank_qq(rows)) == len(rows)
    if not full:
        with pytest.raises(ValueError):
            invert(m)
        return
    inv = invert(m)
    ident = SparseMatrix.identity(len(rows), domain)
    assert m.matmul(inv) == ident
    assert inv.matmul(m) == ident


def test_is_prime_matches_sieve():
    composite = {a * b for a in range(2, 200) for b in range(2, 200)}
    assert ([n for n in range(-3, 400) if is_prime(n)]
            == [n for n in range(2, 400) if n not in composite])
    with pytest.raises(DomainError):
        GF(49)


def test_gf_coerces_fractions():
    f = GF(7)
    assert f.coerce(Fraction(1, 2)) == 4
    with pytest.raises(DomainError):
        f.coerce(Fraction(1, 7))


def test_zero_and_identity_shapes():
    z = SparseMatrix.zero(3, 2, QQ)
    assert z.nnz == 0 and z.nrows == 3 and z.ncols == 2
    assert rank(z) == 0
    assert rank(SparseMatrix.identity(4, GF(3))) == 4
    # identity skips the coercing constructor, and must still equal its matrix
    for domain in (ZZ, QQ, GF(2), GF(3)):
        for n in (0, 1, 4):
            got = SparseMatrix.identity(n, domain)
            want = SparseMatrix(n, n, domain, {(i, i): 1 for i in range(n)})
            assert (got.nrows, got.ncols, got.domain) == (n, n, domain)
            assert got == want and got.rows == want.rows, (domain, n)
            assert all(type(x) is int for x in got.entries.values()), (domain, n)


def test_stacking():
    a = SparseMatrix.from_rows([[1, 0]], ZZ)
    b = SparseMatrix.from_rows([[0, 2]], ZZ)
    assert SparseMatrix.hstack([a, b]).to_dense() == [[1, 0, 0, 2]]
    with pytest.raises(ValueError):
        SparseMatrix.hstack([a, SparseMatrix.from_rows([[1], [2]], ZZ)])
    with pytest.raises(DomainError):
        SparseMatrix.hstack([a, SparseMatrix.from_rows([[1]], GF(3))])


def test_transpose_rank_invariance():
    rows = [[0, 1, 2], [3, 0, 0]]
    m = SparseMatrix.from_rows(rows, QQ)
    assert rank(m) == rank(m.transpose()) == 2


def scan_eliminate(m, limit=None, reduce=False):
    """linalg._eliminate with no heap and no column bookkeeping: each pick
    scans the rows not set aside for the fewest entries, then the lowest
    id, and counts each column's active rows afresh.  _row_update writes
    to the row it is given, so each update is given a fresh copy."""
    p = m.domain.characteristic if m.domain.is_field else None
    active = (linalg._integer_rows(m) if p == 0
              else {i: m.rows[i] for i in sorted(m.rows)})
    limit = m.ncols if limit is None else limit
    aside, pivots, done = set(), [], {}
    while len(aside) < len(active):
        i = min((i for i in active if i not in aside),
                key=lambda i: (len(active[i]), i))
        row = active[i]
        cols = [jj for jj, v in row.items()
                if jj < limit and (p is not None or v in (1, -1))]
        if not cols:
            aside.add(i)
            continue
        j = min(cols, key=lambda jj: (sum(jj in r for r in active.values()), jj))
        prow = active.pop(i)
        if p and prow[j] != 1:
            inv = pow(prow[j], -1, p)
            prow = {jj: v * inv % p for jj, v in prow.items()}
        for r in [r for r, row in active.items() if j in row]:
            out = linalg._row_update(dict(active[r]), prow, j, p)
            aside.discard(r)
            if out:
                active[r] = out
            else:
                del active[r]
        pivots.append((j, i))
        done[i] = prow
    if reduce:
        row_of = dict(pivots)
        for j, i in reversed(pivots):
            row = done[i]
            for jj in [jj for jj in row if jj != j and jj in row_of]:
                row = linalg._row_update(dict(row), done[row_of[jj]], jj, p)
            done[i] = row
    return pivots, done, list(active.values())


_strip_content = linalg._strip_content


def _signed_strip(row):
    """_strip_content as it was with row signs normalised: the first
    (lowest-column) entry positive."""
    row = _strip_content(row)
    if row and row[min(row)] < 0:
        return {j: -v for j, v in row.items()}
    return row


def scan_reference(fn, *args):
    """fn run with the scanning eliminator and the sign-normalised rows."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_eliminate", scan_eliminate)
        mp.setattr(linalg, "_strip_content", _signed_strip)
        return fn(*args)


def outcome(fn, m):
    try:
        return fn(m)
    except ValueError as e:
        return str(e)


def up_to_sign(a, b):
    return a == b or a == {j: -v for j, v in b.items()}


# mostly zeros, with repeated values, so that buckets tie and churn
sparse_entry = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, 2, -3])


@st.composite
def sparse_rows(draw, max_dim=12):
    nrows = draw(st.integers(min_value=0, max_value=max_dim))
    ncols = draw(st.integers(min_value=0, max_value=max_dim))
    return [[draw(sparse_entry) for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=200, deadline=None)
@given(sparse_rows(), st.sampled_from([0, 7, None]), st.booleans(), st.data())
def test_heap_pick_matches_scan_reference(rows, p, reduce, data):
    """The heap picks the rows the scan picks: the same pivots and rest,
    the same rows over F_p and Z, and over Q the same rows up to sign."""
    domain = ZZ if p is None else GF(p) if p else QQ
    m = SparseMatrix.from_rows(rows, domain)
    limit = data.draw(st.none() | st.integers(0, m.ncols))
    pivots, done, rest = linalg._eliminate(m, limit, reduce)
    ref_pivots, ref_done, ref_rest = scan_reference(scan_eliminate, m, limit, reduce)
    assert pivots == ref_pivots
    assert done.keys() == ref_done.keys() and len(rest) == len(ref_rest)
    same = up_to_sign if p == 0 else (lambda a, b: a == b)
    assert all(same(done[i], ref_done[i]) for i in done)
    assert all(same(a, b) for a, b in zip(rest, ref_rest))


@settings(max_examples=100, deadline=None)
@given(sparse_rows(), st.sampled_from([0, 7]))
def test_public_outputs_match_scan_reference(rows, p):
    m = SparseMatrix.from_rows(rows, GF(p) if p else QQ)
    assert kernel_basis(m) == scan_reference(kernel_basis, m)
    n = min(m.nrows, m.ncols)
    square = SparseMatrix.from_rows([row[:n] for row in rows[:n]], m.domain)
    assert outcome(invert, square) == scan_reference(outcome, invert, square)
    z = SparseMatrix.from_rows(rows, ZZ)
    assert smith_normal_form(z) == scan_reference(smith_normal_form, z)


def test_row_back_at_an_old_count_is_pivoted_once(monkeypatch):
    """Row 2 has 4 entries, 3 after the pivot on row 0 and 4 again after
    the pivot on row 1, so the heap holds (4, 2) twice; the row is still
    pivoted once, at the first of them."""
    pushed = []
    monkeypatch.setattr(linalg, "heappush",
                        lambda heap, item: (pushed.append(item), heappush(heap, item)))
    rows = [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            [0, 1, 0, 0, 1, 1, 0, 0, 0, 0],
            [1, 1, 1, 1, 0, 0, 0, 0, 0, 0],
            [0, 0, 0, 0, 1, 1, 1, 1, 1, 1]]
    for domain in (QQ, GF(7), ZZ):
        pushed.clear()
        pivots, done, rest = linalg._eliminate(SparseMatrix.from_rows(rows, domain))
        assert pushed == [(3, 2), (4, 2)], domain
        assert pivots == [(0, 0), (1, 1), (2, 2), (4, 3)] and rest == [], domain
        assert len(done[2]) == 4, domain


@settings(max_examples=100, deadline=None)
@given(sparse_rows(), st.sampled_from([0, 7]))
def test_kernel_unit_rows_leave_a_row_space_complement(rows, p):
    """kernel_basis(m) has a unit row e_c for each of its columns c, and the
    unit vectors at the indices of those rows, stacked under the rows of m,
    have full rank m.ncols: they span a complement of the row space."""
    m = SparseMatrix.from_rows(rows, GF(p) if p else QQ)
    k = kernel_basis(m)
    units = {c: f for f, row in k.rows.items() if len(row) == 1 for c, x in row.items() if x == 1}
    assert sorted(units) == list(range(k.ncols))
    stacked = dict(m.entries)
    stacked.update({(m.nrows + c, f): 1 for c, f in units.items()})
    assert rank(SparseMatrix(m.nrows + k.ncols, m.ncols, m.domain, stacked)) == m.ncols


def test_aliased_input_rows_are_left_unchanged():
    """One dict as several rows of one matrix and as a row of a second, the
    way the taus and sigma share their single-entry rows: every elimination
    copies it before an update, so it keeps its entries, and the results
    are those of the same matrices with no row shared."""
    for domain in (GF(7), QQ, ZZ):
        shared = {0: 1, 1: 2}
        a = SparseMatrix._trusted(4, 3, domain, {0: shared, 1: {0: 1, 2: 1},
                                                 2: shared, 3: shared})
        b = SparseMatrix._trusted(3, 3, domain, {0: {0: 1, 1: 1}, 1: shared, 2: {2: 1}})
        c = SparseMatrix._trusted(3, 3, domain, {0: shared, 1: shared, 2: {2: 1}})
        for x in (a, b, c):
            fresh = SparseMatrix.from_rows(x.to_dense(), domain)
            if domain is ZZ:
                calls = [smith_normal_form]
            else:
                calls = [rank, kernel_basis, lambda m: outcome(invert, m)]
            for fn in calls:
                assert fn(x) == fn(fresh), (domain, fn)
                assert shared == {0: 1, 1: 2}, (domain, fn)


def store_dense(rows, domain):
    return [[domain.coerce(x) for x in row] for row in rows]


@st.composite
def store_rows(draw, nrows, ncols, domain):
    """Dense rows with mostly zero entries; over QQ a row may be an int
    row, an int row with content 2 or 6, or a row of Fractions."""
    out = []
    for _ in range(nrows):
        row = [draw(sparse_entry) for _ in range(ncols)]
        if domain is QQ:
            kind = draw(st.sampled_from(["int", "content", "fraction"]))
            if kind == "content":
                c = draw(st.sampled_from([2, 6]))
                row = [c * x for x in row]
            elif kind == "fraction":
                row = [Fraction(x, draw(st.integers(1, 5))) for x in row]
        out.append(row)
    return out


@st.composite
def row_store_case(draw):
    domain = draw(st.sampled_from([QQ, GF(7), ZZ]))
    n, m, k = (draw(st.integers(0, 5)) for _ in range(3))
    a, c = draw(store_rows(n, m, domain)), draw(store_rows(n, m, domain))
    b = draw(store_rows(m, k, domain))
    s = draw(small_int if domain is ZZ else st.one_of(small_int, st.just(Fraction(1, 2))))
    return domain, (n, m, k), a, b, c, s


def assert_row_store(got, want):
    """got keeps no empty row and no zero entry, and matches want densely."""
    assert all(got.rows.values())
    assert all(v != 0 for row in got.rows.values() for v in row.values())
    assert all(0 <= i < got.nrows and all(0 <= j < got.ncols for j in row)
               for i, row in got.rows.items())
    assert got.to_dense() == want


def typed(m):
    return {key: (v, type(v)) for key, v in m.entries.items()}


@settings(max_examples=150, deadline=None)
@given(row_store_case())
def test_row_store_invariants_and_inputs_left_unchanged(case):
    domain, (n, m, k), a_rows, b_rows, c_rows, s = case
    coerce = domain.coerce
    da, db, dc = (store_dense(r, domain) for r in (a_rows, b_rows, c_rows))
    a, b, c = (SparseMatrix(len(r), cols, domain,
                            {(i, j): x for i, row in enumerate(r) for j, x in enumerate(row)})
               for r, cols in ((a_rows, m), (b_rows, k), (c_rows, m)))
    for got, want in ((a, da), (b, db), (c, dc)):
        assert_row_store(got, want)
    assert_row_store(a.matmul(b), [[coerce(sum(row[t] * db[t][l] for t in range(m)))
                                    for l in range(k)] for row in da])
    assert_row_store(a.transpose(), [[da[i][j] for i in range(n)] for j in range(m)])
    assert_row_store(SparseMatrix.hstack([a, c]), [x + y for x, y in zip(da, dc)])
    assert_row_store(a.add(c), [[coerce(x + y) for x, y in zip(r1, r2)] for r1, r2 in zip(da, dc)])
    assert_row_store(a.sub(c), [[coerce(x - y) for x, y in zip(r1, r2)] for r1, r2 in zip(da, dc)])
    assert_row_store(a.scale(s), [[coerce(x * s) for x in row] for row in da])
    assert_row_store(SparseMatrix.identity(n, domain),
                     [[coerce(int(i == j)) for j in range(n)] for i in range(n)])
    d = min(n, m)
    square = SparseMatrix.from_rows([row[:d] for row in a_rows[:d]], domain)
    for x in (a, square):
        before = typed(x)
        if domain is ZZ:
            smith_normal_form(x)
        else:
            rank(x), kernel_basis(x)
            if x is square:
                outcome(invert, x)
        assert typed(x) == before
