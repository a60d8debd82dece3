"""Finitely presented groups, coset tables, Schreier transversals, and the
Reidemeister-Schreier rewriting, with braid-group presets.

Words are tuples of signed 1-based generator indices (+i a generator, -i
its inverse).  The word problem for braid groups is decided through the
faithful action on a free group

  sigma_i: x_i -> x_i x_{i+1} x_i^{-1},  x_{i+1} -> x_i,

composed left to right.  Subgroups are specified by a homomorphism to a
permutation group, either as a kernel or as a point stabilizer; the coset
table acts on the right, and one breadth-first search (generators in
declared order, positive step before negative) both labels the cosets in
discovery order and records the Schreier transversal: each new coset's
representative is its finder's plus one letter, so the representatives are
prefix-closed by construction.
"""

from __future__ import annotations

from .linalg import ZZ, SparseMatrix, smith_normal_form


class GroupError(Exception):
    pass


# ---------------------------------------------------------------------------
# free words


def free_reduce(seq):
    out = []
    for s in seq:
        if out and out[-1] == -s:
            out.pop()
        else:
            out.append(s)
    return tuple(out)


def word_inverse(w):
    return tuple(-s for s in reversed(w))


def concat(*ws):
    out = []
    for w in ws:
        out.extend(w)
    return free_reduce(out)


def cyclic_reduce(w):
    w = free_reduce(w)
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return w


def conjugate(x, g):
    """g x g^-1."""
    return concat(g, x, word_inverse(g))


def _canonical_cyclic(w):
    """Least rotation of the cyclically reduced word w or of its inverse,
    None for the empty word; used only to spot duplicates."""
    best = None
    for cand in (w, word_inverse(w)):
        for r in range(len(cand)):
            rot = cand[r:] + cand[:r]
            if best is None or rot < best:
                best = rot
    return best


# ---------------------------------------------------------------------------
# presentations

class Presentation:
    """Generator names plus freely and cyclically reduced relator words.

    The constructor is the one place that reduces relators: it cyclically
    reduces each word, drops the empty ones, and keeps the first of those
    equal up to rotation and inversion (_canonical_cyclic)."""

    def __init__(self, gens, relators, ambient_words=None):
        self.gens = list(gens)
        if len(set(self.gens)) != len(self.gens):
            raise GroupError("duplicate generator names")
        self.relators = []
        seen = set()
        for r in map(cyclic_reduce, relators):
            key = _canonical_cyclic(r)
            if r and key not in seen:
                seen.add(key)
                self.relators.append(r)
        # subgroup presentations remember what each generator means in the
        # ambient group
        self.ambient_words = ambient_words

    def word_str(self, w):
        parts = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            e = (j - i) if w[i] > 0 else -(j - i)
            name = self.gens[abs(w[i]) - 1]
            parts.append(name if e == 1 else "%s^%d" % (name, e))
            i = j
        return "".join(parts) if parts else "1"

    def to_text(self):
        rels = ", ".join(self.word_str(r) for r in self.relators)
        return "gens: %s ; rels: %s" % (",".join(self.gens), rels)

    def abelianization(self):
        """(free rank, invariant factors > 1) of the abelianized group."""
        entries = {}
        for r, w in enumerate(self.relators):
            for s in w:
                key = (r, abs(s) - 1)
                entries[key] = entries.get(key, 0) + (1 if s > 0 else -1)
        m = SparseMatrix(len(self.relators), len(self.gens), ZZ,
                         {k: v for k, v in entries.items() if v})
        factors, rk = smith_normal_form(m)
        return (len(self.gens) - rk, [f for f in factors if f > 1])

    def __repr__(self):
        return "Presentation(%s)" % self.to_text()


def braid_presentation(k):
    """Artin generators s1..s(k-1); braid and commutation relators."""
    if k < 1:
        raise GroupError("need k >= 1")
    gens = ["s%d" % i for i in range(1, k)]
    rels = []
    for i in range(1, k - 1):
        rels.append((i, i + 1, i, -(i + 1), -i, -(i + 1)))
    for i in range(1, k - 1):
        for j in range(i + 2, k):
            rels.append((i, j, -i, -j))
    return Presentation(gens, rels)


def symmetric_presentation(k):
    """Coxeter presentation: t_i^2, (t_i t_{i+1})^3, (t_i t_j)^2."""
    if k < 1:
        raise GroupError("need k >= 1")
    gens = ["t%d" % i for i in range(1, k)]
    rels = [(i, i) for i in range(1, k)]
    for i in range(1, k - 1):
        rels.append((i, i + 1) * 3)
    for i in range(1, k - 1):
        for j in range(i + 2, k):
            rels.append((i, j) * 2)
    return Presentation(gens, rels)


# ---------------------------------------------------------------------------
# permutations (one-line tuples, acting on the right: x^f = f[x-1])


def _perm_mul(f, g):
    """x^(fg) = (x^f)^g."""
    return tuple(g[f[x] - 1] for x in range(len(f)))


def _perm_inv(f):
    out = [0] * len(f)
    for x, y in enumerate(f):
        out[y - 1] = x + 1
    return tuple(out)


def _perm_eval(word, images, inverses):
    """The permutation of a word: letter s acts by images[s-1], and by
    inverses[-s-1] when s < 0."""
    cur = tuple(range(1, len(images[0]) + 1))
    for s in word:
        cur = _perm_mul(cur, images[s - 1] if s > 0 else inverses[-s - 1])
    return cur


# ---------------------------------------------------------------------------
# coset tables


class CosetTable:
    """Right action of the generators on cosets 1..n, base coset 1:
    action[g-1][c-1] is c.g and inverse[g-1][c-1] is c.g^-1.  transversal
    maps each coset to its representative word, base -> empty."""

    def __init__(self, action, inverse, transversal):
        self.n = len(transversal)
        self.action = action
        self.inverse = inverse
        self.transversal = transversal

    def step(self, coset, letter):
        t = self.action if letter > 0 else self.inverse
        return t[abs(letter) - 1][coset - 1]


def coset_table_from_hom(pres, images, kind, point=None):
    """Coset table of a subgroup given by generator images in a
    permutation group: its kernel, or the stabilizer of a point.

    images are one-line tuples acting on the right; every relator must map
    to the identity permutation.
    """
    if len(images) != len(pres.gens):
        raise GroupError("need one permutation per generator")
    if not images:
        raise GroupError("the presentation has no generators (B_1 and S_1 are trivial); "
                         "a coset table needs at least one generator image")
    images = [tuple(p) for p in images]
    deg = len(images[0])
    for p in images:
        if len(p) != deg or sorted(p) != list(range(1, deg + 1)):
            raise GroupError("images must be permutations of the same degree")
    inverses = [_perm_inv(p) for p in images]
    for r in pres.relators:
        if _perm_eval(r, images, inverses) != tuple(range(1, deg + 1)):
            raise GroupError(
                "not a homomorphism: relator %s does not map to the identity"
                % pres.word_str(r))

    if kind == "kernel":
        start = tuple(range(1, deg + 1))
        move = _perm_mul
    elif kind == "stabilizer":
        start = deg if point is None else point
        if not (1 <= start <= deg):
            raise GroupError("stabilized point out of range")
        move = lambda state, g: g[state - 1]
    else:
        raise GroupError("kind must be 'kernel' or 'stabilizer'")

    # one breadth-first search labels the cosets, fills both tables, and
    # gives each new coset its finder's representative plus one letter;
    # order grows while it is read
    index = {start: 1}
    order = [start]
    transversal = {1: ()}
    action = [[] for _ in images]
    inverse = [[] for _ in images]
    for c, cur in enumerate(order, 1):
        for g in range(len(images)):
            for letter, h, row in ((g + 1, images[g], action[g]),
                                   (-g - 1, inverses[g], inverse[g])):
                nxt = move(cur, h)
                if nxt not in index:
                    index[nxt] = len(order) + 1
                    order.append(nxt)
                    transversal[len(order)] = transversal[c] + (letter,)
                row.append(index[nxt])
    return CosetTable(action, inverse, transversal)


def schreier_transversal(table):
    """Breadth-first coset representatives, from the search that built the
    table; prefix-closed, base -> empty."""
    return dict(table.transversal)


def subgroup_presentation(pres, table, transversal):
    """Reidemeister-Schreier presentation of the subgroup of a coset table.

    Generators are the nontrivial rep(c) s rep(c.s)^-1; relators are the
    ambient relators rewritten at every coset, freely reduced; Presentation
    reduces them cyclically and drops duplicates.  No other simplification
    is made beyond dropping trivial generators.  No rewritten relator is
    empty: a non-empty cyclically reduced relator traces a closed path in
    the coset graph that never turns straight back, and such a path
    survives contracting the transversal's tree.
    """
    names = []
    gen_of = {}
    ambient = {}
    for c in range(1, table.n + 1):
        for g in range(1, len(pres.gens) + 1):
            w = concat(transversal[c], (g,),
                       word_inverse(transversal[table.step(c, g)]))
            if w:
                name = "y%d" % (len(names) + 1)
                names.append(name)
                gen_of[(c, g)] = len(names)
                ambient[name] = w

    def rewrite(word, c):
        out = []
        for s in word:
            if s > 0:
                idx = gen_of.get((c, s))
                if idx:
                    out.append(idx)
                c = table.step(c, s)
            else:
                c = table.step(c, s)
                idx = gen_of.get((c, -s))
                if idx:
                    out.append(-idx)
        return free_reduce(out)

    relators = (rewrite(r, c) for c in range(1, table.n + 1) for r in pres.relators)
    return Presentation(names, relators, ambient_words=ambient)


# ---------------------------------------------------------------------------
# the Artin action


class FreeAutomorphism:
    """Automorphism of a free group of rank k, given by the reduced images
    of the generators x_1..x_k.  No inverse is stored: the Artin action
    composes the actions of sigma_i^(+-1), each an automorphism."""

    def __init__(self, k, images):
        self.k = k
        self.images = [free_reduce(w) for w in images]

    @classmethod
    def identity(cls, k):
        return cls(k, [(i,) for i in range(1, k + 1)])

    def apply_word(self, word):
        out = []
        for s in word:
            w = self.images[abs(s) - 1]
            out.extend(w if s > 0 else word_inverse(w))
        return free_reduce(out)

    def compose(self, other):
        """self after other: (self.compose(other))(x) = self(other(x))."""
        return FreeAutomorphism(self.k, [self.apply_word(w) for w in other.images])

    def permutation(self):
        """Induced permutation of the generators' conjugacy classes."""
        out = {}
        for i in range(1, self.k + 1):
            w = cyclic_reduce(self.images[i - 1])
            if len(w) != 1 or w[0] < 0:
                raise GroupError(
                    "image of generator %d is not conjugate to a generator" % i)
            out[i] = w[0]
        return out

    def __eq__(self, other):
        return (isinstance(other, FreeAutomorphism)
                and self.k == other.k and self.images == other.images)


def _sigma_auto(i, e, k):
    """The Artin action of sigma_i^e, e = +-1, on the free group x_1..x_k."""
    ims = [(j,) for j in range(1, k + 1)]
    if e > 0:
        ims[i - 1] = (i, i + 1, -i)
        ims[i] = (i,)
    else:
        ims[i - 1] = (i + 1,)
        ims[i] = (-(i + 1), i, i + 1)
    return FreeAutomorphism(k, ims)


def artin_action(word, k):
    """The automorphism of F_k given by a braid word (composite of the
    generator actions, leftmost letter outermost)."""
    result = FreeAutomorphism.identity(k)
    for s in word:
        if not (1 <= abs(s) <= k - 1):
            raise GroupError("letter %d is not a valid B_%d generator" % (s, k))
        result = result.compose(_sigma_auto(abs(s), 1 if s > 0 else -1, k))
    return result


def braid_words_equal(w1, w2, k):
    """Word-problem oracle for B_k via the faithful free-group action."""
    return artin_action(free_reduce(w1), k) == artin_action(free_reduce(w2), k)


# ---------------------------------------------------------------------------
# the winding generators and their identities


def winding_generator(i, j):
    """A_ij: strand j winds once around strand i, in front of the others."""
    if not (1 <= i < j):
        raise GroupError("need 1 <= i < j")
    pre = tuple(range(j - 1, i, -1))
    return concat(pre, (i, i), word_inverse(pre))


def coset_rep_word(ell, k):
    """g_ell = s_{k-1} ... s_ell (empty for ell = k)."""
    if not (1 <= ell <= k):
        raise GroupError("need 1 <= ell <= k")
    return tuple(range(k - 1, ell - 1, -1))


def verify_paper_relations(k):
    """Check the identity catalogue used in the semidirect-product
    presentations of the braid subgroups: the four conjugation relations of
    the g_ell against the s_i, and the eleven families obtained by
    conjugating the defining relators by the transversal.  Includes a
    sign-flipped negative control that must fail.

    Returns a list of dicts {family, params, expected, ok}.
    """
    if k < 3:
        raise GroupError("need k >= 3")

    def sig(i):
        return (i,)

    def comm(wa, wb):
        return concat(wa, wb, word_inverse(wa), word_inverse(wb))

    def br(i):
        return (i, i + 1, i, -(i + 1), -i, -(i + 1))

    A = winding_generator
    g = lambda ell: coset_rep_word(ell, k)
    checks = []

    def add(family, params, lhs, rhs, expected=True):
        checks.append((family, params, lhs, rhs, expected))

    # conjugation lemma
    for ell in range(3, k + 1):
        for i in range(1, ell - 1):
            add("lemma:fix", (ell, i), conjugate(sig(i), g(ell)), sig(i))
    for ell in range(1, k):
        for i in range(ell + 1, k):
            add("lemma:shift", (ell, i), conjugate(sig(i), g(ell)), sig(i - 1))
    for i in range(1, k):
        add("lemma:winding", (i,),
            concat(g(i), sig(i), word_inverse(g(i + 1))), A(i, k))
    for i in range(2, k + 1):
        add("lemma:collapse", (i,),
            concat(g(i), sig(i - 1), word_inverse(g(i - 1))), ())

    # commutation families
    for ell in range(1, k - 1):
        for i in range(ell + 1, k - 1):
            for j in range(i + 2, k):
                add("family:1", (ell, i, j),
                    conjugate(comm(sig(i), sig(j)), g(ell)),
                    comm(sig(i - 1), sig(j - 1)))
    for i in range(1, k - 1):
        for j in range(i + 2, k):
            add("family:2", (i, j),
                conjugate(comm(sig(i), sig(j)), g(i)),
                comm(A(i, k), sig(j - 1)))
    for i in range(1, k - 1):
        for j in range(i + 2, k):
            add("family:3", (i, j),
                conjugate(comm(sig(i), sig(j)), g(i + 1)), ())
    for j in range(3, k):
        for i in range(1, j - 1):
            add("family:4", (i, j),
                conjugate(comm(sig(i), sig(j)), g(j)),
                comm(sig(i), A(j, k)))
    for j in range(3, k - 1):
        for i in range(1, j - 1):
            add("family:5", (i, j),
                conjugate(comm(sig(i), sig(j)), g(j + 1)), ())
    for ell in range(5, k):
        for j in range(3, ell - 1):
            for i in range(1, j - 1):
                add("family:6", (ell, i, j),
                    conjugate(comm(sig(i), sig(j)), g(ell)),
                    comm(sig(i), sig(j)))

    # braid-relator families
    for ell in range(1, k - 1):
        for i in range(ell + 1, k - 1):
            add("family:7", (ell, i), conjugate(br(i), g(ell)), br(i - 1))
    for i in range(1, k - 1):
        u = concat(A(i, k), A(i + 1, k))
        add("family:8", (i,),
            conjugate(br(i), g(i)),
            concat(u, sig(i), word_inverse(u), word_inverse(sig(i))))
    for i in range(1, k - 1):
        add("family:9", (i,),
            conjugate(br(i), g(i + 1)),
            concat(conjugate(A(i, k), sig(i)), word_inverse(A(i + 1, k))))
    for i in range(1, k - 1):
        add("family:10", (i,), conjugate(br(i), g(i + 2)), ())
    for ell in range(4, k + 1):
        for i in range(1, ell - 2):
            add("family:11", (ell, i), conjugate(br(i), g(ell)), br(i))

    # negative control: flip one sign in family:9
    i = 1
    add("negative-control", (i,),
        conjugate(br(i), g(i + 1)),
        concat(conjugate(A(i, k), sig(i)), A(i + 1, k)),
        expected=False)

    report = []
    for family, params, lhs, rhs, expected in checks:
        ok = braid_words_equal(lhs, rhs, k)
        report.append({"family": family, "params": params,
                       "expected": expected, "ok": ok == expected})
    return report
