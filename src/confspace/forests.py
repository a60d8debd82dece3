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
smaller leaves.  Its leaf sequences, one tuple per tree in minimum order,
determine it and are its key: tall_basis returns the sorted keys, and
HomologyClass terms, the taus of forest_module and the pairing are all keyed
by them.  Nested trees appear only at parse and print time (parse_forest,
key_str), and as the relabelled combs of tau columns that leave the tall
basis, which rewrite_to_tall expands.  Brackets obey shifted antisymmetry

    [x, y] = -(-1)^(||x|| ||y||) [y, x],

and reordering forest components uses the unshifted Koszul rule
(-1)^(|T_i| |T_j|).

Sigma_k acts by relabelling leaves.  forest_module builds the matrices of
the adjacent transpositions tau_i = (i, i+1) in one pass and returns one
SymmetricModule, which holds the taus with their dimension, domain and
basis keys.  Every other permutation's matrix is the product of the taus
along its reduced word (element), and the coinvariants and each key's leaf
partition are read off the same object.

Arbitrary trees rewrite into the basis by reading words.  Expand a tree in
the tensor algebra on its leaf labels, a bracket going to the graded
commutator [x, y] -> xy - (-1)^(||x|| ||y||) yx; on the free Lie algebra
this map is injective (the PBW theorem; Reutenauer, Free Lie Algebras,
1993).  In the expansion of a left comb l(x1 x2 ... xm) the only word that
starts with x1 is x1 x2 ... xm, with coefficient 1: at each bracket
[X, x_j] only the term X x_j keeps x1 in front.  So for a tree T with
minimum leaf m, l(m.w) is the only tall comb whose expansion contains the
word m.w, and its coefficient in T is the coefficient of m.w in the
expansion of T.  Those words are read by walking up from m: at each vertex
the sibling subtree contributes every word of its expansion as a suffix,
with the antisymmetry sign -(-1)^(||x|| ||y||) when m came from the right.
The words of one tree are distinct, so every coefficient is +-1.  The trees
that forest_module rewrites are relabelled combs l(x1 ... xm) with
the minimum m = x_q, q > 1, and their walk reads (m,) + u + (x_{q+1} ... xm)
with coefficient s c, for each word u of the prefix comb l(x1 ... x_{q-1})
with coefficient c and s the sign of the bracket that joins m.  The words
of a comb depend only on its length and the parity of n - 1, so they are
tabulated once per pair as position tuples, and read through each comb's
leaf sequence; no subtree's words are kept.

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

from functools import cache
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


def key_str(key):
    """forest_str of the tall forest with these leaf sequences."""
    return forest_str(tuple(map(tall_from_seq, key)))


class HomologyClass(LinearCombination):
    """Finitely supported map tall forest -> coefficient, in context (k, n).

    A term is keyed by the forest's leaf sequences, one tuple per tree in
    minimum order, e.g. ((1, 3, 2), (4,)) for ((13)2),4; key_str labels it.
    """

    normalize = staticmethod(tuple)
    sort_key = staticmethod(tuple)
    label = staticmethod(key_str)


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
    """The keys (leaf sequences) of all tall forests of the given degree,
    sorted."""
    if k < 1 or n < 2:
        raise ValueError("need k >= 1 and n >= 2")
    if degree < 0 or degree % (n - 1) != 0:
        return []
    return sorted(_tall_sequences(k, k - degree // (n - 1)))


# ---------------------------------------------------------------------------
# rewriting


def _words(t, step):
    """The expansion of a tree in the tensor algebra on its leaves, as a
    tuple of (word, coeff) pairs: [x, y] -> xy - (-1)^(||x|| ||y||) yx with
    step = (n-1) mod 2.  The 2^(m-1) words of a tree with m leaves are
    distinct, so none cancels."""
    if is_leaf(t):
        return (((t,), 1),)
    left, right = _words(t[0], step), _words(t[1], step)
    s = -1 if step and len(left[0][0]) * len(right[0][0]) % 2 else 1
    return (tuple((u + v, c * d) for u, c in left for v, d in right)
            + tuple((v + u, -s * c * d) for u, c in left for v, d in right))


@cache
def _comb_words(length, step):
    """The words of the left comb on positions 0 .. length-1, as (position
    tuple, coeff) pairs: the words of any comb of that length, read through
    its leaf sequence."""
    return _words(tall_from_seq(range(length)), step)


def _tall_terms(t, seq, step):
    """Expand one tree with leaf sequence seq in the tall basis: (leaf
    sequence, coeff) pairs, read off the words of its expansion that start
    with its minimum m (see the module docstring).  One walk down the left
    spine tells whether t is a left comb, whose words are read through
    _comb_words.  In any other tree, walking up from m, each sibling subtree
    appends its words, with the antisymmetry sign when m came from the
    right."""
    m = min(seq)
    node = t
    while not is_leaf(node) and is_leaf(node[1]):
        node = node[0]
    if is_leaf(node):
        q = seq.index(m)
        if not q:
            return ((seq, 1),)
        # -(-1)^(||m|| ||prefix||): m is one leaf, the prefix q of them
        s = 1 if step and q % 2 else -1
        pick, rest = seq.__getitem__, seq[q + 1:]
        return tuple(((m,) + tuple(map(pick, u)) + rest, s * c)
                     for u, c in _comb_words(q, step))
    siblings = []
    while not is_leaf(t):
        left, right = t
        if (right == m) if is_leaf(right) else (m in tree_leaves(right)):
            siblings.append((left, True))
            t = right
        else:
            siblings.append((right, False))
            t = left
    terms = (((m,), 1),)
    for sib, from_right in reversed(siblings):
        words = _words(sib, step)
        s = 1
        if from_right:
            # -(-1)^(||x|| ||y||) for x, the subtree holding m, and y = sib
            s = 1 if step and len(terms[0][0]) * len(words[0][0]) % 2 else -1
        terms = tuple((u + v, s * c * d) for u, c in terms for v, d in words)
    return terms


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
    """Expand a forest in the tall basis, as a HomologyClass keyed by leaf
    sequences.

    The forest's labels must partition [1, k] for k = total leaf count; the
    given component order is part of the input and contributes the Koszul
    reordering sign.  A caller that passes seqs, the leaf sequences of f's
    trees, vouches for f, and f is not validated: forest_module
    does so for the forests it builds itself.
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
    step = (n - 1) % 2
    sign = _reorder_sign(seqs, n)
    order = sorted(range(len(f)), key=lambda i: min(seqs[i]))
    expansions = [_tall_terms(f[i], seqs[i], step) for i in order]
    # the trees have disjoint labels and each expansion lists distinct trees
    # with nonzero coefficients: every combination is a new forest, none cancels
    terms = {tuple(u for u, _ in combo): sign * prod(c for _, c in combo)
             for combo in product(*expansions)}
    return HomologyClass(sum(map(len, seqs)), n, terms)


# ---------------------------------------------------------------------------
# pairing with the cohomology basis


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
    for i, seqs in enumerate(forests):
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
# the symmetric-group action and its coinvariants


class SymmetricModule:
    """Sigma_k acting on domain^dim through its Coxeter generators: taus[i-1]
    is the matrix of tau_i = (i, i+1).  basis, when given, holds the tall
    forest keys that index the rows and columns (forest_module's)."""

    def __init__(self, taus, dim, domain, basis=None):
        self.taus = taus
        self.dim = dim
        self.domain = domain
        self.basis = basis

    def element(self, q):
        """The matrix of the permutation q of [1, k], in one-line form (q[i-1]
        is the image of i).

        Bubble-sorting q swaps adjacent entries s_1, s_2, ..., s_m, one per
        inversion, so the word is reduced and q = tau_(s_m) o ... o tau_(s_1).
        The product tau_(s_m) ... tau_(s_1) is formed from the right, so that
        each left factor is one tau; it is the identity when q is, and well
        defined because the taus satisfy the Coxeter relators.
        """
        line = list(q)
        swaps = []
        changed = True
        while changed:
            changed = False
            for i in range(len(line) - 1):
                if line[i] > line[i + 1]:
                    line[i], line[i + 1] = line[i + 1], line[i]
                    swaps.append(i + 1)
                    changed = True
        if not swaps:
            return SparseMatrix.identity(self.dim, self.domain)
        m = self.taus[swaps[0] - 1]
        for i in swaps[1:]:
            m = self.taus[i - 1].matmul(m)
        return m

    def coinvariants_dim(self):
        """dim V - rank [tau_1 - 1 | ... ]: the dimension of the coinvariants
        of V = domain^dim, domain a field.

        A column c where some tau is monomial, tau e_c = s e_c' with s = +-1,
        gives the relation e_c = s e_c'.  A union-find with signs joins such
        columns into classes, e_c = w_c e_root.  A relation that closes a loop
        with product -1 gives 2 e_root = 0, so the class dies (in
        characteristic 2, -1 = 1 and no loop has product -1).  The other
        columns of the tau_i - 1 are projected onto the live classes and
        ranked.
        """
        dim, field = self.dim, self.domain
        one, minus_one = field.coerce(1), field.coerce(-1)
        parent = list(range(dim))
        weight = [1] * dim  # e_c = weight[c] e_parent[c]
        dead = [False] * dim

        def find(c):
            path = []
            while parent[c] != c:
                path.append(c)
                c = parent[c]
            for x in reversed(path):
                if parent[x] != c:
                    weight[x] *= weight[parent[x]]
                    parent[x] = c
            return c

        rest = []
        for t in self.taus:
            cols = t.transpose().rows
            for c in range(dim):
                col = cols.get(c, {})
                if len(col) == 1:
                    [(r, v)] = col.items()
                    s = 1 if v == one else -1 if v == minus_one else 0
                    if s:
                        rc, rr = find(c), find(r)
                        # e_rc = w_c s w_r e_rr
                        w = weight[c] * s * weight[r]
                        if rc == rr:
                            dead[rc] = dead[rc] or w != 1
                        else:
                            parent[rc], weight[rc] = rr, w
                            dead[rr] = dead[rr] or dead[rc]
                        continue
                rest.append((c, col))
        live = {}
        for c in range(dim):
            root = find(c)
            if not dead[root] and root not in live:
                live[root] = len(live)
        if not rest or not live:
            return len(live)

        # (tau - 1) e_c, with each e_r replaced by weight[r] e_root, or 0 if dead
        entries = {}
        for j, (c, col) in enumerate(rest):
            for r, v in [*col.items(), (c, -1)]:
                root = find(r)
                if not dead[root]:
                    key = (live[root], j)
                    entries[key] = entries.get(key, 0) + weight[r] * v
        return len(live) - rank(SparseMatrix(len(live), len(rest), field, entries))

    def partitions(self):
        """The leaf partition of each basis key, in basis order: the sorted
        label sets of its trees."""
        return [tuple(sorted(tuple(sorted(seq)) for seq in key)) for key in self.basis]


def forest_module(k, n, degree, domain=ZZ):
    """H_degree(Conf_k(R^n)) over domain on the tall basis, as the matrices
    of tau_1 ... tau_(k-1), tau_i the transposition (i, i+1) acting by
    relabelling leaves, built in one pass over the basis.  Every other
    permutation's matrix is a product of these (SymmetricModule.element).

    Per column, i and i+1 are found once.  In different trees they swap,
    and both trees stay tall: a head i becomes i+1 among larger leaves, a
    head i+1 becomes i.  The trees trade places in the minimum order only
    when both head their trees, with the Koszul sign of that swap, -1 iff
    n is even and both have an even leaf count.  In one tree with i not its
    head, neither heads it, and they swap in place with sign +1.  Only when
    i heads a tree that holds i+1 does the column go through
    rewrite_to_tall.

    A row with one entry c at column j is the same dict {j: c} in every
    tau that has it, taken from one table per call: linalg writes to no
    row of an existing matrix, so the taus may share rows.
    """
    basis = tall_basis(k, n, degree)
    row = {key: i for i, key in enumerate(basis)}
    coerce = domain.coerce
    one, minus_one = coerce(1), coerce(-1)
    mats = [{} for _ in range(1, k)]
    for j, key in enumerate(basis):
        where = {x: (a, pos) for a, seq in enumerate(key) for pos, x in enumerate(seq)}
        for i in range(1, k):
            (a, pa), (b, pb) = where[i], where[i + 1]
            seqs = list(key)
            if a != b:
                sa, sb = key[a], key[b]
                seqs[a] = sa[:pa] + (i + 1,) + sa[pa + 1:]
                seqs[b] = sb[:pb] + (i,) + sb[pb + 1:]
                c = one
                if pa == pb == 0:
                    # adjacent in the minimum order, and they trade places
                    seqs[a], seqs[b] = seqs[b], seqs[a]
                    if n % 2 == 0 and len(sa) % 2 == 0 and len(sb) % 2 == 0:
                        c = minus_one
                terms = [(row[tuple(seqs)], c)]
            else:
                seq = list(key[a])
                seq[pa], seq[pb] = i + 1, i
                seqs[a] = tuple(seq)
                if pa:
                    terms = [(row[tuple(seqs)], one)]
                else:
                    moved = tuple(tall_from_seq(s) for s in seqs)
                    terms = [(row[g], coerce(c))
                             for g, c in rewrite_to_tall(moved, n, seqs).terms.items()]
            # every coefficient is +-1, nonzero in every domain
            rows = mats[i - 1]
            for r, c in terms:
                rows.setdefault(r, {})[j] = c
    units = {}
    for rows in mats:
        for r, row in rows.items():
            if len(row) == 1:
                rows[r] = units.setdefault(next(iter(row.items())), row)
    dim = len(basis)
    taus = [SparseMatrix._trusted(dim, dim, domain, rows) for rows in mats]
    return SymmetricModule(taus, dim, domain, basis)


def action_matrix(perm, k, n, degree, domain=ZZ):
    """Matrix of a permutation of [1, k] on the tall basis: column j is the
    image of the j-th key with its leaves relabelled, in the basis.  It is
    forest_module's element, the one route from a permutation to its
    matrix."""
    table = arnold._perm_table(perm, k)
    return forest_module(k, n, degree, domain).element(tuple(map(table.get, range(1, k + 1))))


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
    return GradedDims({j * (n - 1): forest_module(k, n, j * (n - 1), field).coinvariants_dim()
                       for j in range(k)})


def unordered_betti_rational(k, n):
    """Closed form for H_*(B_k(R^n); Q): degree 0, plus degree n-1 when n-1 is odd."""
    if k < 2 or n < 1:
        raise ValueError("need k >= 2 and n >= 1")
    dims = {0: 1}
    if (n - 1) % 2 == 1:
        dims[n - 1] = 1
    return GradedDims(dims)
