"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: dense Gaussian elimination over
Fraction, textbook recurrences, brute-force enumeration, one inversion per
block, one rank of the stacked tau_i - 1 for coinvariants, Jacobi
regrafting for the tall rewrite, relabelling and rewriting every column for
action matrices.  The library must agree with these on small inputs; none
of this code is imported by the package itself.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, combinations, permutations, product

from confspace import arnold, forests, modp
from confspace.linalg import GF, QQ, ZZ, SparseMatrix, invert, rank


def from_rows(rows, domain):
    """The SparseMatrix of a dense matrix given as a list of rows."""
    ncols = len(rows[0]) if rows else 0
    return SparseMatrix(len(rows), ncols, domain,
                        {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


def to_dense(m):
    """The dense list of rows of a SparseMatrix, with the domain's zero
    where no entry is stored."""
    z = m.domain.coerce(0)
    dense = [[z] * m.ncols for _ in range(m.nrows)]
    for i, row in m.rows.items():
        for j, v in row.items():
            dense[i][j] = v
    return dense


def dense_rank_qq(rows):
    """Rank of a dense matrix (list of rows) by fraction-free Gauss."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def dense_rank_mod(rows, p):
    """Rank of a dense integer matrix mod a prime p."""
    m = [[int(x) % p for x in row] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [(x * inv) % p for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def dense_kernel_dim_qq(rows, ncols):
    return ncols - dense_rank_qq(rows) if ncols else 0


def sympy_smith(rows):
    """Elementary divisors > 0 of an integer matrix, via sympy."""
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    if not rows or not rows[0]:
        return []
    m = smith_normal_form(sympy.Matrix(rows))
    out = []
    for i in range(min(m.rows, m.cols)):
        v = int(m[i, i])
        if v:
            out.append(abs(v))
    return sorted(out)


def stirling_cycles(k, j):
    """Unsigned Stirling numbers of the first kind c(k, j)."""
    if k == 0:
        return 1 if j == 0 else 0
    if j < 1 or j > k:
        return 0
    return stirling_cycles(k - 1, j - 1) + (k - 1) * stirling_cycles(k - 1, j)


def stirling_sets(k, j):
    """Stirling numbers of the second kind S(k, j)."""
    if k == 0:
        return 1 if j == 0 else 0
    if j < 1 or j > k:
        return 0
    return stirling_sets(k - 1, j - 1) + j * stirling_sets(k - 1, j)


def tall_forests_by_cycles(k, j):
    """Tall forests on [1, k] with k - j trees, by brute force over Sigma_k.

    Each permutation is written in cycles; a cycle, read from its minimum,
    is a left comb, and the cycles are ordered by minimum.  Sorted by leaf
    sequences."""
    out = []
    for perm in permutations(range(1, k + 1)):
        seen, cycles = set(), []
        for start in range(1, k + 1):
            if start in seen:
                continue
            cycle = [start]
            x = perm[start - 1]
            while x != start:
                cycle.append(x)
                x = perm[x - 1]
            seen.update(cycle)
            cycles.append(tuple(cycle))
        if len(cycles) == k - j:
            out.append(tuple(cycles))
    forests_out = []
    for cycles in sorted(out):
        forest = []
        for cycle in cycles:
            tree = cycle[0]
            for leaf in cycle[1:]:
                tree = (tree, leaf)
            forest.append(tree)
        forests_out.append(tuple(forest))
    return forests_out


def sym_monomial_count(gens, degree, weight):
    """Brute-force dimension of the free graded-commutative algebra.

    gens: list of (degree, weight, parity) with parity 0 even, 1 odd.
    Counts monomials of the exact (degree, weight): even generators repeat,
    odd generators are square-zero.
    """
    evens = [(d, w) for d, w, par in gens if par == 0]
    odds = [(d, w) for d, w, par in gens if par == 1]
    total = 0
    # weight is bounded, so enumerate multisets of evens and subsets of odds
    for r_odd in range(len(odds) + 1):
        for chosen_odd in combinations(range(len(odds)), r_odd):
            d0 = sum(odds[i][0] for i in chosen_odd)
            w0 = sum(odds[i][1] for i in chosen_odd)
            if d0 > degree or w0 > weight:
                continue
            rem_w = weight - w0
            count = 0
            min_even_w = min((w for _, w in evens), default=0)
            max_r = rem_w // min_even_w if min_even_w else 0
            if rem_w == 0:
                count += 1 if d0 == degree else 0
            for r_even in range(1, max_r + 1):
                for multi in combinations_with_replacement(range(len(evens)), r_even):
                    d = d0 + sum(evens[i][0] for i in multi)
                    w = w0 + sum(evens[i][1] for i in multi)
                    if d == degree and w == weight:
                        count += 1
            total += count
    return total


def perm_compose(p, q):
    """(p then q) in one-line notation on 1..k."""
    return tuple(q[p[i] - 1] for i in range(len(p)))


def perm_sign(p):
    seen = [False] * len(p)
    sign = 1
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _monomial_partition(mono, k):
    """Leaf partition of [1, k] joined by the factors a_ab of a monomial."""
    parent = list(range(k + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in mono:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    blocks = {}
    for v in range(1, k + 1):
        blocks.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(b) for b in blocks.values()))


def pairing_by_partition(k, n, degree):
    """Pairing of tall_basis with admissible_basis, one inversion per leaf
    partition: each block is the inverse transpose of the change of basis
    from the forests' path monomials to admissible monomials."""
    trees = forests.tall_basis(k, n, degree)
    monos = arnold.admissible_basis(k, n, degree)
    row_blocks = {}
    for i, f in enumerate(trees):
        part = tuple(sorted(tuple(sorted(seq)) for seq in f))
        row_blocks.setdefault(part, []).append(i)
    col_blocks = {}
    for j, m in enumerate(monos):
        col_blocks.setdefault(_monomial_partition(m, k), []).append(j)
    assert sorted(row_blocks) == sorted(col_blocks)
    entries = {}
    for part, rows in row_blocks.items():
        cols = col_blocks[part]
        assert len(rows) == len(cols)
        col_pos = {monos[j]: a for a, j in enumerate(cols)}
        d_entries = {}
        for a, i in enumerate(rows):
            word = []
            for seq in trees[i]:
                word.extend(zip(seq, seq[1:]))
            for mono, c in arnold.normal_form(word, k, n).terms.items():
                d_entries[(a, col_pos[mono])] = c
        p = invert(SparseMatrix(len(rows), len(rows), QQ, d_entries).transpose())
        for a, prow in p.rows.items():
            for b, v in prow.items():
                assert v.denominator == 1
                entries[(rows[a], cols[b])] = int(v)
    return SparseMatrix(len(trees), len(monos), ZZ, entries)


def coinvariants_dim_stacked(dim, taus, field):
    """dim V - rank [tau_1 - 1 | ... | tau_r - 1], by one rank of the
    stacked matrix."""
    if not taus:
        return dim
    ident = SparseMatrix.identity(dim, field)
    return dim - rank(SparseMatrix.hstack([t.sub(ident) for t in taus]))


def trivial_module(p):
    """F_p with trivial sigma and trivial Sigma_p action."""
    one = SparseMatrix.identity(1, GF(p))
    return modp.GModule(p, module=forests.SymmetricModule([one] * (p - 1), 1, GF(p)))


def regular_module(p):
    """The free module F_p[C_p] (no Sigma_p structure)."""
    sigma = SparseMatrix(p, p, GF(p), {((i + 1) % p, i): 1 for i in range(p)})
    return modp.GModule(p, sigma)


def reference_action_matrix(perm, k, n, degree, basis, domain):
    """Matrix of a permutation on the tall forests with keys basis, by
    relabelling the leaves of every tree of basis[j] and rewriting the whole
    forest to the tall basis, column by column."""
    table = dict(perm)

    def relabel(t):
        if forests.is_leaf(t):
            return table[t]
        return (relabel(t[0]), relabel(t[1]))

    pos = {key: i for i, key in enumerate(basis)}
    entries = {}
    for j, key in enumerate(basis):
        moved = tuple(relabel(forests.tall_from_seq(seq)) for seq in key)
        for g, c in forests.rewrite_to_tall(moved, n).terms.items():
            entries[(pos[g], j)] = c
    return SparseMatrix(len(basis), len(basis), domain, entries)


def _spine(t):
    """(first leaf, leaf count) of a leaf or left comb."""
    m = 1
    while not forests.is_leaf(t):
        t = t[0]
        m += 1
    return t, m


@lru_cache(maxsize=None)
def _graft(T, U, par):
    """The bracket [T, U] of tall trees in the tall basis, by shifted
    antisymmetry [x, y] = -(-1)^(||x|| ||y||) [y, x] and the Jacobi
    regrafting [x, [y, z]] = [[x, y], z] - (-1)^(||y|| ||z||) [[x, z], y];
    par = n mod 2.  A tuple of (tall tree, coeff) pairs."""
    step = 1 - par  # (n-1) mod 2
    minT, mT = _spine(T)
    minU, mU = _spine(U)
    if minT > minU:
        s = -((-1) ** (mT * mU * step))
        return tuple((V, s * c) for V, c in _graft(U, T, par))
    if forests.is_leaf(U):
        return (((T, U), 1),)
    U1, u = U
    acc = {}
    for V, c in _graft(T, U1, par):
        for W, c2 in _graft(V, u, par):
            acc[W] = acc.get(W, 0) + c * c2
    s = (-1) ** ((mU - 1) * step)
    for V, c in _graft(T, u, par):
        for W, c2 in _graft(V, U1, par):
            acc[W] = acc.get(W, 0) - s * c * c2
    return tuple((W, c) for W, c in acc.items() if c != 0)


def tree_to_tall_by_grafting(t, par):
    """Expand one tree in the tall basis by regrafting its two subtrees'
    expansions, recursively; a dict tall tree -> coeff."""
    if forests.is_tall(t):
        return {t: 1}
    acc = {}
    for L, cl in tree_to_tall_by_grafting(t[0], par).items():
        for R, cr in tree_to_tall_by_grafting(t[1], par).items():
            for W, c in _graft(L, R, par):
                acc[W] = acc.get(W, 0) + cl * cr * c
    return {W: c for W, c in acc.items() if c}


def rewrite_by_grafting(f, n):
    """Expand a forest in the tall basis: each tree by regrafting, the trees
    put in minimum order by adjacent swaps, each swap of trees of degrees d
    and e costing (-1)^(d e).  A dict tall forest -> coeff."""
    trees = list(f)
    sign = 1
    for i in range(len(trees)):
        for j in range(len(trees) - 1 - i):
            a, b = trees[j], trees[j + 1]
            if forests.tree_min(a) > forests.tree_min(b):
                if forests.tree_degree(a, n) * forests.tree_degree(b, n) % 2:
                    sign = -sign
                trees[j], trees[j + 1] = b, a
    out = {}
    for combo in product(*(tree_to_tall_by_grafting(t, n % 2).items() for t in trees)):
        c = sign
        for _, x in combo:
            c *= x
        out[tuple(t for t, _ in combo)] = c
    return out
