"""Homology of ordered configuration spaces of R^n in the tree/forest model.

A labeled tree is a binary parenthesization of a sequence of distinct
positive leaf labels: a leaf is an int, an internal vertex a pair
(left, right).  A forest is an ordered tuple of trees whose label sets
partition [1, k].  A tree with m leaves sits in homological degree
(m-1)(n-1); Koszul signs for bracket identities use the shifted degree
||x|| = |x| + n - 1 = m(n-1).

Tall trees (left combs ((...((i1 i2) i3)...) im) whose first leaf is the
minimum) with components ordered by minimal leaf form a basis.  A tall
forest is a permutation of [1, k] in cycle form, each tree a cycle read
from its minimum, so those with r trees are counted by the Stirling number
c(k, r) = c(k-1, r-1) + (k-1) c(k-1, r), and tall_basis builds them by that
recurrence: k is a tree of its own, or goes right after one of the k-1
smaller leaves.  Arbitrary forests rewrite into the basis via shifted
antisymmetry

    [x, y] = -(-1)^(||x|| ||y||) [y, x]

and the Jacobi regrafting

    [x, [y, z]] = [[x, y], z] - (-1)^(||y|| ||z||) [[x, z], y],

applied recursively; reordering forest components uses the unshifted
Koszul rule (-1)^(|T_i| |T_j|).

The pairing with the cohomology basis of arnold has a closed form (Sinha,
The homology of the little disks operad, arXiv:math/0610236): <T, G> = +-1
when the map sending each factor a_ab of G to the vertex of T where the
leaves a and b meet is a bijection onto the internal vertices, and 0
otherwise.  For a tall forest f and an admissible monomial
G = a_{a1 b1} ... a_{aj bj} this reads

    P[f, G] = eps_f  if each a_i lies to the left of b_i in the same tree,
    P[f, G] = 0      otherwise,

with eps_f = 1 for n odd and, for n even, eps_f = (-1)^inv, inv the number
of inversions among the non-first leaves of f read left to right across
the whole forest.  Why the two agree: in a left comb two leaves meet at
the vertex that joins the later of them, so the internal vertices match
the non-first leaves.  When every a_i shares a tree with b_i, the b's of G
are j distinct non-first leaves (a_i < b_i, and a tall tree starts at its
minimum), hence all of them.  If each a_i lies left of b_i, a_{a_i b_i}
goes to b_i's vertex and the map is a bijection.  Conversely, let the map
be a bijection and suppose some a lay right of its b.  Then a_ab takes
a's vertex, so a's own factor a_{a'a}, with a' < a, must have a' to the
right of a.  Repeating walks through strictly decreasing labels, each
right of the last, down to the tree's minimum, which is leftmost: a
contradiction.
"""

from __future__ import annotations

from itertools import product
from math import prod

from . import arnold
from .graded import GradedDims, LinearCombination
from .linalg import ZZ, SparseMatrix, rank


class ForestError(Exception):
    """Malformed tree or forest input."""


# ---------------------------------------------------------------------------
# trees


def is_leaf(t):
    return isinstance(t, int)


def _validate_tree(t):
    """Refuse a malformed tree; return its leaf labels in left-to-right order."""
    if is_leaf(t):
        if t < 1:
            raise ForestError("leaf labels must be positive, got %r" % (t,))
        return (t,)
    if not (isinstance(t, tuple) and len(t) == 2):
        raise ForestError("internal vertex must be a pair, got %r" % (t,))
    return _validate_tree(t[0]) + _validate_tree(t[1])


def tree_leaves(t):
    """Leaf labels in left-to-right order."""
    if is_leaf(t):
        return (t,)
    return tree_leaves(t[0]) + tree_leaves(t[1])


def tree_min(t):
    return min(tree_leaves(t))


def tree_degree(t, n):
    return (len(tree_leaves(t)) - 1) * (n - 1)


def is_tall(t):
    """Left comb whose first leaf is the minimal label, decided in one walk
    down the left spine."""
    rights = []
    while not is_leaf(t):
        t, r = t
        if not is_leaf(r):
            return False
        rights.append(r)
    return not rights or t <= min(rights)


def _spine(t):
    """(first leaf, leaf count) of a leaf or left comb, read off its left
    spine; for a tall tree the first leaf is its minimum."""
    m = 1
    while not is_leaf(t):
        t = t[0]
        m += 1
    return t, m


def tall_from_seq(seq):
    t = seq[0]
    for s in seq[1:]:
        t = (t, s)
    return t


def tree_str(t):
    """Parenthesized string; labels over 9 are space-separated."""
    seq = tree_leaves(t)
    wide = any(x > 9 for x in seq)

    def go(node):
        if is_leaf(node):
            return str(node)
        left, right = go(node[0]), go(node[1])
        sep = " " if wide else ""
        return "(%s%s%s)" % (left, sep, right)

    return go(t)


def forest_str(f):
    return ",".join(tree_str(t) for t in f)


def parse_tree(text):
    """Inverse of tree_str.

    Without whitespace every digit is a leaf ("((12)3)"); with whitespace,
    leaves are whitespace-separated digit runs ("((1 2) 3)", "((10 2) 3)").
    """
    text = text.strip()
    per_digit = not any(ch.isspace() for ch in text)
    pos = 0

    def skip_ws():
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def node():
        nonlocal pos
        skip_ws()
        if pos >= len(text):
            raise ForestError("unexpected end of tree string %r" % text)
        ch = text[pos]
        if ch == "(":
            pos += 1
            left = node()
            right = node()
            skip_ws()
            if pos >= len(text) or text[pos] != ")":
                raise ForestError("missing ')' in %r" % text)
            pos += 1
            return (left, right)
        if ch.isdigit():
            if per_digit:
                pos += 1
                return int(ch)
            start = pos
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            return int(text[start:pos])
        raise ForestError("unexpected character %r in %r" % (ch, text))

    t = node()
    skip_ws()
    if pos != len(text):
        raise ForestError("trailing junk in tree string %r" % text)
    _validate_tree(t)
    return t


def parse_forest(text):
    parts = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return tuple(parse_tree(p) for p in parts if p.strip())


# ---------------------------------------------------------------------------
# classes


def _forest_key(f):
    return tuple(tree_leaves(t) for t in f)


class HomologyClass(LinearCombination):
    """Finitely supported map tall forest -> coefficient, in context (k, n)."""

    normalize = staticmethod(tuple)
    sort_key = staticmethod(_forest_key)
    label = staticmethod(forest_str)


# ---------------------------------------------------------------------------
# basis enumeration


def _tall_sequences(k, r):
    """Leaf sequences of the tall forests on [1, k] with r trees, by
    c(k, r) = c(k-1, r-1) + (k-1) c(k-1, r): k is a tree of its own, or
    goes right after one of the k-1 smaller leaves."""
    if not 0 <= r <= k:
        return
    if k == 0:
        yield ()
        return
    for f in _tall_sequences(k - 1, r - 1):
        yield f + ((k,),)
    for f in _tall_sequences(k - 1, r):
        for i, seq in enumerate(f):
            for pos in range(1, len(seq) + 1):
                yield f[:i] + (seq[:pos] + (k,) + seq[pos:],) + f[i + 1:]


def tall_basis(k, n, degree):
    """All tall forests of the given degree, sorted by leaf-sequence key."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    if degree < 0 or degree % (n - 1) != 0:
        return []
    seqs = sorted(_tall_sequences(k, k - degree // (n - 1)))
    return [tuple(map(tall_from_seq, f)) for f in seqs]


# ---------------------------------------------------------------------------
# rewriting


_GRAFT_CACHE = {}


def _graft(T, U, par):
    """Expand the bracket [T, U] of tall trees in the tall basis.

    par = n mod 2 (only the parity of n enters signs).  Returns a tuple of
    (tall tree, coeff) pairs.
    """
    key = (T, U, par)
    hit = _GRAFT_CACHE.get(key)
    if hit is not None:
        return hit
    step = 1 - par  # (n-1) mod 2
    minT, mT = _spine(T)
    minU, mU = _spine(U)
    if minT > minU:
        s = -((-1) ** (mT * mU * step))
        out = tuple((V, s * c) for V, c in _graft(U, T, par))
    elif is_leaf(U):
        out = (((T, U), 1),)
    else:
        U1, u = U
        acc = {}
        for V, c in _graft(T, U1, par):
            for W, c2 in _graft(V, u, par):
                acc[W] = acc.get(W, 0) + c * c2
        s = (-1) ** ((mU - 1) * step)
        for V, c in _graft(T, u, par):
            for W, c2 in _graft(V, U1, par):
                acc[W] = acc.get(W, 0) - s * c * c2
        out = tuple((W, c) for W, c in acc.items() if c != 0)
    _GRAFT_CACHE[key] = out
    return out


_TALL_CACHE = {}


def _tree_to_tall(t, par):
    """Expand one tree in the tall basis; returns tuple of (tree, coeff)."""
    key = (t, par)
    hit = _TALL_CACHE.get(key)
    if hit is not None:
        return hit
    if is_tall(t):
        out = ((t, 1),)
    else:
        acc = {}
        for L, cl in _tree_to_tall(t[0], par):
            for R, cr in _tree_to_tall(t[1], par):
                for W, c in _graft(L, R, par):
                    v = acc.get(W, 0) + cl * cr * c
                    if v == 0:
                        acc.pop(W, None)
                    else:
                        acc[W] = v
        out = tuple(acc.items())
    _TALL_CACHE[key] = out
    return out


def _reorder_sign(seqs, n):
    """Koszul sign of sorting trees with these leaf sequences by minimum.

    Swapping trees of degrees d and e costs (-1)^(d e), and a tree with m
    leaves has degree (m-1)(n-1)."""
    if n % 2:
        return 1
    odd = [min(s) for s in seqs if len(s) % 2 == 0]  # trees of odd degree
    swaps = sum(a > b for i, a in enumerate(odd) for b in odd[i + 1:])
    return -1 if swaps % 2 else 1


def rewrite_to_tall(f, n, seqs=None):
    """Expand a forest in the tall basis.

    The forest's labels must partition [1, k] for k = total leaf count; the
    given component order is part of the input and contributes the Koszul
    reordering sign.  A caller that passes seqs, the leaf sequences of f's
    trees, vouches for f, and f is not validated: action_matrix does so for
    the forests it builds itself.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    f = tuple(f)
    if seqs is None:
        seqs = [_validate_tree(t) for t in f]
        labels = sorted(x for s in seqs for x in s)
        if labels != list(range(1, len(labels) + 1)):
            raise ForestError("leaf labels must partition 1..%d, got %r"
                              % (len(labels), labels))
    par = n % 2
    sign = _reorder_sign(seqs, n)
    order = sorted(range(len(f)), key=lambda i: min(seqs[i]))
    expansions = [_tree_to_tall(f[i], par) for i in order]
    # the trees have disjoint labels and each expansion lists distinct trees
    # with nonzero coefficients: every combination is a new forest, none cancels
    terms = {tuple(t for t, _ in combo): sign * prod(c for _, c in combo)
             for combo in product(*expansions)}
    return HomologyClass(sum(map(len, seqs)), n, terms)


# ---------------------------------------------------------------------------
# pairing with the cohomology basis


def _forest_partition(f):
    return tuple(sorted((tuple(sorted(tree_leaves(t))) for t in f)))


def pairing_matrix(k, n, degree):
    """Matrix of the pairing between tall_basis and admissible_basis.

    Read off leaf order (see the module docstring): row f is eps_f on every
    monomial in the product, over the non-first leaves b of f in increasing
    order, of {a_ab : a < b, a left of b in b's tree}, and 0 elsewhere.
    Every such monomial is admissible by construction.
    """
    forests = tall_basis(k, n, degree)
    monos = arnold.admissible_basis(k, n, degree)
    if len(forests) != len(monos):
        raise AssertionError("basis size mismatch: %d forests vs %d monomials"
                             % (len(forests), len(monos)))
    col = {mono: j for j, mono in enumerate(monos)}
    rows = {}
    for i, f in enumerate(forests):
        seqs = [tree_leaves(t) for t in f]
        left = {seq[r]: [a for a in seq[:r] if a < seq[r]]
                for seq in seqs for r in range(1, len(seq))}
        eps = 1
        if n % 2 == 0:
            bs = [b for seq in seqs for b in seq[1:]]
            if sum(x > y for r, x in enumerate(bs) for y in bs[r + 1:]) % 2:
                eps = -1
        order = sorted(left)
        rows[i] = {col[tuple(zip(aa, order))]: eps
                   for aa in product(*map(left.get, order))}
    return SparseMatrix._trusted(len(forests), len(monos), ZZ, rows)


# ---------------------------------------------------------------------------
# symmetric-group action matrices and coinvariants


class IndexedBasis(tuple):
    """A basis of tall forests, frozen as a tuple, with its leaf-sequence
    keys and row lookups built once: every action matrix on the same
    IndexedBasis shares them."""

    def __new__(cls, forests):
        self = super().__new__(cls, forests)
        self.keys = [_forest_key(f) for f in self]
        self.row_of_key = {key: i for i, key in enumerate(self.keys)}
        self.row_of_forest = {f: i for i, f in enumerate(self)}
        return self


def action_matrix(perm, k, n, degree, basis=None, domain=ZZ):
    """Matrix of a permutation of [1, k] on the tall basis: column j is the
    image of basis[j] with its leaves relabelled, rewritten to the basis.
    A caller acting on one basis with several permutations passes it as an
    IndexedBasis, so that it is indexed once; any other basis is indexed
    here.

    Works on leaf sequences: a relabelled tall tree is the left comb on the
    relabelled sequence, and it is tall iff its first leaf is its minimum.
    When every tree of a forest stays tall, the column is the one forest of
    the sorted trees, with the Koszul sign of sorting them by minimum.
    Only the other columns go through rewrite_to_tall, with the leaf
    sequences of the combs built here, so those are not validated again.
    """
    table = arnold._perm_table(perm, k)
    if basis is None:
        basis = tall_basis(k, n, degree)
    if not isinstance(basis, IndexedBasis):
        basis = IndexedBasis(basis)
    row_of_key, row_of_forest = basis.row_of_key, basis.row_of_forest
    relabel = table.__getitem__
    coerce = domain.coerce
    rows = {}
    for j, key in enumerate(basis.keys):
        seqs = [tuple(map(relabel, seq)) for seq in key]
        if all(s[0] == min(s) for s in seqs):
            terms = [(row_of_key[tuple(sorted(seqs))], _reorder_sign(seqs, n))]
        else:
            moved = tuple(tall_from_seq(s) for s in seqs)
            terms = [(row_of_forest[g], c)
                     for g, c in rewrite_to_tall(moved, n, seqs).terms.items()]
        for r, c in terms:
            c = coerce(c)
            if c:
                rows.setdefault(r, {})[j] = c
    return SparseMatrix._trusted(len(basis), len(basis), domain, rows)


def _adjacent_transposition(i, k):
    table = {v: v for v in range(1, k + 1)}
    table[i] = i + 1
    table[i + 1] = i
    return table


def _coinvariants_dim(dim, taus, field):
    """dim V - rank [tau_1 - 1 | ... ]: the dimension of the coinvariants
    of the group that the square matrices taus generate on V = field^dim."""
    if not taus:
        return dim
    ident = SparseMatrix.identity(dim, field)
    return dim - rank(SparseMatrix.hstack([t.sub(ident) for t in taus]))


def coinvariants_dims(k, n, field):
    """Per degree, dim of the coinvariants of the symmetric-group action:
    dim V - rank [tau_1 - 1 | ... | tau_(k-1) - 1], tau_i the transposition
    (i, i+1).

    field must have characteristic 0 or > k (the transfer hypothesis); this
    computes H_*(B_k(R^n)) with those coefficients.
    """
    if not getattr(field, "is_field", False):
        raise ValueError("coefficients must form a field")
    if 0 < field.characteristic <= k:
        raise ValueError("field characteristic %d <= k = %d: transfer fails"
                         % (field.characteristic, k))
    out = {}
    for j in range(0, k):
        degree = j * (n - 1)
        basis = IndexedBasis(tall_basis(k, n, degree))
        dim = len(basis)
        if dim == 0:
            continue
        taus = [action_matrix(_adjacent_transposition(i, k), k, n, degree,
                              basis=basis, domain=field) for i in range(1, k)]
        d = _coinvariants_dim(dim, taus, field)
        if d:
            out[degree] = out.get(degree, 0) + d
    return GradedDims(out)


def unordered_betti_rational(k, n):
    """Closed form for H_*(B_k(R^n); Q): degree 0, plus degree n-1 when n-1 is odd."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    dims = {0: 1}
    if (n - 1) % 2 == 1:
        dims[n - 1] = 1
    return GradedDims(dims)
