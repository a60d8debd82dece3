"""Rational Betti numbers of unordered configuration spaces of an open
oriented n-manifold M, computed by Lie algebra homology.

Input is the compactly supported cohomology ring H_c(M) as a finite
graded-commutative algebra A (degrees in [0, n]).  From it we build a
bigraded Lie algebra g with

  * a weight-1 slot for each basis class a, in homological degree n-1-|a|,
  * for n even, a weight-2 slot a~ in degree 2n-2-|a|,
  * bracket [a(x)v, b(x)v] = (-1)^((n-1)|b|) (ab)~ when n is even,
    everything else zero; n odd makes g abelian.

The Chevalley-Eilenberg complex Sym(g[1]) carries the differential

  d(x_1...x_m) = sum_{i<j} (-1)^(|x_i|) eps(i,j) [x_i, x_j] x_1...^i...^j...x_m

with all Koszul signs computed from shifted degrees (|x|+1 on g); its
weight-k homology gives the Betti numbers of the space of k unordered
points in M.  Shifted slots of even degree are polynomial, odd exterior.
So the occurrences of a repeated slot are interchangeable, and the sum is
taken over pairs of slots a <= b with a nonzero bracket, weighted by the
e_a * e_b pairs of occurrences (C(e_a, 2) when a = b).  Entries are ints.

betti computes a block's homology piece by piece.  d preserves every
integer grading phi of the algebra's classes with phi(w) = phi(u) + phi(v)
for each term w of a bracket [u, v] (a~ graded like a), so a block is the
direct sum of its pieces of fixed phi.  The symmetry search returns
signed permutations of the classes that are Lie automorphisms by the way
it builds them, and each carries every piece isomorphically onto a piece;
only one piece per orbit of the automorphisms found is built and ranked.
A dynamic program over the slots counts the chains by degree, grading key
and the keys of their images, so the pieces, their sizes and their orbits
are known before any monomial is listed; then a search pruned on those
counts lists the monomials of the ranked pieces only.  That search is
the one lister of chains: ce_block (and GMLie.block) is its case of no
grading and no symmetry, one piece per weight keyed by degree alone,
built whole for the tests and the selftest.  euler_series reads the
counts of a table keyed by degree and lists nothing, and chain_dims reads
the chain counts off the symmetric-algebra series, which every listing
is checked against.

The stabilization map (adding a point near infinity) is the formal
derivative d/dx by the slot x dual to the point class.  On an open M the
point class multiplies every class to zero, so x brackets trivially,
multiplication by x is a chain map, and d/dx after it is the diagonal
automorphism m -> (e_x(m) + 1) m.  So d/dx is onto in homology, and
stability_report reads where it is an isomorphism off the Betti numbers:
where the two agree.  A closed M has a degree-0 class, x brackets with it,
and the splitting fails (H_2(B_2(S^2); Q) = 0 maps to H_2(S^2; Q) = Q);
stability_report refuses such an algebra.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm

from .graded import GradedDims, PoincareSeries, series_equal, sym_series
from .linalg import QQ, SparseMatrix, kernel_basis, rank


class AlgebraError(Exception):
    """Invalid algebra document or failed structure-constant validation."""


class StabilityError(Exception):
    """Stabilization hypotheses not met."""


# ---------------------------------------------------------------------------
# coefficient algebras


class CAlgebra:
    """Finite graded-commutative associative algebra (possibly nonunital).

    Products are stored as a total table (name, name) -> {name: coeff};
    omitted pairs are zero.  Validated where it is built: every degree lies
    in [0, n], every product names only basis elements, and the products
    are degree-additive, graded-commutative and associative, or
    AlgebraError is raised.
    """

    def __init__(self, name, n, degrees, prod):
        self.name = name
        self.n = n
        self.names = list(degrees)
        self.degree = dict(degrees)
        self.prod = prod
        _validate_algebra(self)
        # a pair with an empty result, its names checked, is stored as no entry
        self.prod = {pair: res for pair, res in prod.items() if res}

    def product(self, x, y):
        return self.prod.get((x, y), {})


def _validate_algebra(a):
    for x, d in a.degree.items():
        if not (0 <= d <= a.n):
            raise AlgebraError("basis element %r has degree %d outside [0, %d]"
                               % (x, d, a.n))
    for (x, y), res in a.prod.items():
        if x not in a.degree or y not in a.degree:
            raise AlgebraError("product names unknown basis element (%r, %r)" % (x, y))
        dxy = a.degree[x] + a.degree[y]
        for z in res:
            if z not in a.degree:
                raise AlgebraError("product result names unknown basis %r" % z)
            if a.degree[z] != dxy:
                raise AlgebraError(
                    "product %s*%s hits %r of degree %d, expected %d"
                    % (x, y, z, a.degree[z], dxy))
    for x in a.names:
        for y in a.names:
            sign = (-1) ** (a.degree[x] * a.degree[y])
            left = a.product(x, y)
            right = a.product(y, x)
            if left != {z: sign * c for z, c in right.items()}:
                raise AlgebraError(
                    "graded commutativity fails on (%s, %s)" % (x, y))
    for x in a.names:
        for y in a.names:
            for z in a.names:
                lhs = {}
                for w, c in a.product(x, y).items():
                    for u, c2 in a.product(w, z).items():
                        lhs[u] = lhs.get(u, 0) + c * c2
                rhs = {}
                for w, c in a.product(y, z).items():
                    for u, c2 in a.product(x, w).items():
                        rhs[u] = rhs.get(u, 0) + c * c2
                if ({u: c for u, c in lhs.items() if c}
                        != {u: c for u, c in rhs.items() if c}):
                    raise AlgebraError(
                        "associativity fails on (%s, %s, %s)" % (x, y, z))


def _fields(item, what, **types):
    """The values of a document item at the keys of types, each of its
    type; an AlgebraError naming the item otherwise."""
    try:
        values = [item[key] for key in types]
    except (KeyError, TypeError):
        values = None
    if values is None or any(type(v) is not t for v, t in zip(values, types.values())):
        raise AlgebraError("malformed %s %r: needs %s" % (what, item, ", ".join(
            "%s %r" % (t.__name__, key) for key, t in types.items())))
    return values


def _list(value, what):
    if not isinstance(value, list):
        raise AlgebraError("%s must be a list, got %r" % (what, value))
    return value


def load_algebra(document):
    """Load an algebra document (the JSON schema of README): its shape and
    duplicate entries are checked here, its names and structure constants
    by CAlgebra.

    {"name": str, "ambient_dim": int,
     "basis": [{"name": str, "degree": int}],
     "products": [{"left": str, "right": str,
                   "result": [{"basis": str, "coeff": int}]}]}
    """
    name, n = _fields(document, "algebra document", name=str, ambient_dim=int)
    try:
        basis = _list(document["basis"], "basis")
        products = _list(document.get("products", []), "products")
    except KeyError as exc:
        raise AlgebraError("malformed algebra document: %s" % exc)
    if n < 1:
        raise AlgebraError("ambient_dim must be positive")
    degrees = {}
    for item in basis:
        bname, degree = _fields(item, "basis item", name=str, degree=int)
        if bname in degrees:
            raise AlgebraError("duplicate basis name %r" % bname)
        degrees[bname] = degree
    prod = {}
    for item in products:
        left, right = _fields(item, "product", left=str, right=str)
        if (left, right) in prod:
            raise AlgebraError("duplicate product entry (%r, %r)" % (left, right))
        res = {}
        for term in _list(item.get("result", []), "product result"):
            z, c = _fields(term, "product result term", basis=str, coeff=int)
            res[z] = res.get(z, 0) + c
        # an empty result is kept, so that CAlgebra checks its names
        prod[(left, right)] = {z: c for z, c in res.items() if c}
    return CAlgebra(name, n, degrees, prod)


# ---------------------------------------------------------------------------
# the Lie algebra


class Slot:
    __slots__ = ("name", "gdeg", "weight", "source")

    def __init__(self, name, gdeg, weight, source):
        self.name = name
        self.gdeg = gdeg      # homological degree in g
        self.weight = weight  # 1 or 2
        self.source = source  # underlying algebra basis name

    @property
    def sdeg(self):
        return self.gdeg + 1  # degree in g[1]

    def __repr__(self):
        return "Slot(%r, deg=%d, w=%d)" % (self.name, self.gdeg, self.weight)


class GMLie:
    """Bigraded Lie algebra built from a compactly-supported cohomology ring."""

    def __init__(self, algebra, slots, bracket):
        self.algebra = algebra
        self.n = algebra.n
        self.slots = slots
        self.index = {s.name: i for i, s in enumerate(slots)}
        # (name, name) -> {name: nonzero coeff}; a zero bracket has no entry
        self.bracket = bracket
        # slot a -> [(b >= a, [(z, c), ...])]
        self.bracket_table = [[] for _ in slots]
        for (x, y), res in bracket.items():
            terms = [(self.index[z], c) for z, c in res.items()]
            if self.index[x] <= self.index[y]:
                self.bracket_table[self.index[x]].append((self.index[y], terms))

    def bracket_of(self, x, y):
        return self.bracket.get((x, y), {})

    def point_slot(self):
        """The weight-1 slot of the top-degree class (dual to a point)."""
        found = [s for s in self.slots
                 if s.weight == 1 and self.algebra.degree[s.source] == self.n]
        if len(found) != 1:
            raise StabilityError(
                "expected exactly one top-degree class, found %d" % len(found))
        return found[0].name

    def block(self, k):
        return ce_block(self, k)


def build_gm(a):
    """The Lie algebra of the configuration-space homology theorem.

    a is a CAlgebra, validated when it was built, so the bracket [x, y] =
    (-1)^|y| (xy)~ (n even) is a graded Lie bracket by construction and is
    not checked here.  It has degree 0 and adds weights, as |xy| = |x| +
    |y|.  It is antisymmetric, [x, y] = -(-1)^(d_x d_y) [y, x] for the slot
    degrees d_x = n-1-|x| = 1 + |x| mod 2: yx = (-1)^(|x||y|) xy, and
    1 + d_x d_y + |x| + |x||y| = |y| mod 2.  Jacobi holds, as every bracket
    lands in weight 2, and a bracket with a weight-2 slot is zero.  For n
    odd g is abelian.
    """
    n = a.n
    slots = []
    for x in a.names:
        slots.append(Slot(x, n - 1 - a.degree[x], 1, x))
    if n % 2 == 0:
        for x in a.names:
            slots.append(Slot(x + "~", 2 * n - 2 - a.degree[x], 2, x))
    slots.sort(key=lambda s: (s.weight, s.gdeg, s.name))
    bracket = {}
    if n % 2 == 0:
        for x in a.names:
            for y in a.names:
                res = {}
                sign = (-1) ** ((n - 1) * a.degree[y])
                for z, c in a.product(x, y).items():
                    res[z + "~"] = sign * c
                if res:
                    bracket[(x, y)] = res
    return GMLie(a, slots, bracket)


# ---------------------------------------------------------------------------
# Chevalley-Eilenberg blocks


class CEComplexBlock:
    """Weight-k piece of the complex: bases per degree plus differentials."""

    def __init__(self, weight, bases, diffs):
        self.weight = weight
        self.bases = bases    # degree -> list of exponent tuples
        self.index = {i: {m: a for a, m in enumerate(ms)}
                      for i, ms in bases.items()}
        self.diffs = diffs    # degree i -> SparseMatrix C_i -> C_{i-1}
        self._ranks = {}

    def dim(self, i):
        return len(self.bases.get(i, ()))

    def diff_rank(self, i):
        """Rank of d_i: C_i -> C_{i-1} (0 where there is none), computed once."""
        if i not in self._ranks:
            d = self.diffs.get(i)
            self._ranks[i] = rank(d) if d is not None else 0
        return self._ranks[i]

    def homology(self, i):
        """dim H_i = dim C_i - rank d_i - rank d_{i+1}."""
        return self.dim(i) - self.diff_rank(i) - self.diff_rank(i + 1)

    def degrees(self):
        return sorted(self.bases)


def _d_monomial(g, mono, sdeg):
    """Image of one monomial under the CE differential, as {monomial: coeff}.

    The sum over pairs of factor occurrences i < j is taken over pairs of
    slots a <= b with a nonzero bracket.  A slot of exponent > 1 has even
    shifted degree, so its occurrences are interchangeable: the e_a * e_b
    pairs (C(e_a, 2) when a = b) give equal terms, and every Koszul sign is
    read off the prefix sums pre of shifted degrees over the slots.
    """
    pre = [0]
    for e, d in zip(mono, sdeg):
        pre.append(pre[-1] + e * d)
    out = {}
    for a, ea in enumerate(mono):
        if not ea:
            continue
        sa = sdeg[a]
        for b, res in g.bracket_table[a]:
            mult = ea * (ea - 1) // 2 if b == a else ea * mono[b]
            if not mult:
                continue
            sb = sdeg[b]
            # parity: Koszul sign of moving x_a, x_b to the front, times (-1)^sa
            sign = sa * (1 + pre[a]) + sb * (pre[b] - sa)
            rest = list(mono)
            rest[a] -= 1
            rest[b] -= 1
            for z, c in res:
                sz = sdeg[z]
                if sz % 2 == 1 and rest[z] >= 1:
                    continue
                # insert z into the sorted monomial: pass the slots before it
                passed = pre[z] - (sa if a < z else 0) - (sb if b < z else 0)
                v = mult * c if (sign + sz * passed) % 2 == 0 else -mult * c
                rest[z] += 1
                key = tuple(rest)
                rest[z] -= 1
                out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def _assemble(g, k, bases):
    """The complex on bases, degree -> exponent vectors in increasing order,
    whose span d maps into itself: a whole weight-k block or one piece of
    it.  Verifies d has square zero."""
    sdeg = [s.sdeg for s in g.slots]
    block = CEComplexBlock(k, bases, {})
    diffs = block.diffs
    for deg, ms in bases.items():
        target = block.index.get(deg - 1, {})
        entries = {}
        for col, mono in enumerate(ms):
            for im, c in _d_monomial(g, mono, sdeg).items():
                entries[(target[im], col)] = c
        diffs[deg] = SparseMatrix(len(target), len(ms), QQ, entries)
    for deg in sorted(bases):
        d_here = diffs[deg]
        d_up = diffs.get(deg + 1)
        if d_up is not None and d_here.nrows and not d_here.matmul(d_up).is_zero():
            raise AssertionError("d^2 != 0 in weight %d at degree %d" % (k, deg + 1))
    return block


def _sym_series(g, weight_bound):
    """sym_series of the slots of g up to weight_bound, in every degree
    those weights reach."""
    gens = Counter((s.sdeg, s.weight) for s in g.slots)
    max_sd = max((s.sdeg for s in g.slots), default=0)
    return sym_series(gens, weight_bound * max_sd, weight_bound)


def chain_dims(g, k):
    """Counter degree -> number of chains of the weight-k block, read off
    the weight-k slice of the symmetric-algebra series of the slots; no
    monomial is listed."""
    if k < 0:
        raise ValueError("weight must be nonnegative")
    return Counter({d: c for (d, w), c in _sym_series(g, k).coeffs.items() if w == k and c})


# ---------------------------------------------------------------------------
# grading and symmetries


def _grading(g, k):
    """Grading key of each slot, for monomials of weight k.

    The bracket preserves every integer functional phi on the algebra's
    classes with phi(src w) = phi(src u) + phi(src v) for each nonzero
    term c w of [u, v]: the rational kernel of that relation matrix, each
    kernel vector scaled to integers.  A slot is graded by its source
    class, so a~ like a.  The functionals are packed into one int in
    balanced radix 2kM + 1, M the largest |phi|, which holds each sum of
    at most k values exactly, so equal keys mean equal gradings."""
    col = {}
    for s in g.slots:
        col.setdefault(s.source, len(col))
    src = {s.name: col[s.source] for s in g.slots}
    entries = {}
    r = 0
    for (u, v), res in g.bracket.items():
        for w in res:
            for j, x in ((src[w], 1), (src[u], -1), (src[v], -1)):
                entries[(r, j)] = entries.get((r, j), 0) + x
            r += 1
    phis = []
    for vec in kernel_basis(SparseMatrix(r, len(col), QQ, entries)).transpose().rows.values():
        scale = lcm(*(Fraction(v).denominator for v in vec.values()))
        phis.append({j: int(v * scale) for j, v in vec.items()})
    radix = 2 * k * max((abs(v) for phi in phis for v in phi.values()), default=0) + 1
    packed = [sum(phi.get(j, 0) * radix ** t for t, phi in enumerate(phis))
              for j in range(len(col))]
    return [packed[col[s.source]] for s in g.slots]


def _bracket_holds(g, image, u, v):
    """Whether [image u, image v] = s_u s_v sum_w c_w s_w image(w), where
    [u, v] = sum_w c_w w and image maps a slot to (slot, sign)."""
    (iu, su), (iv, sv) = image[u], image[v]
    want = {image[w][0]: su * sv * image[w][1] * c for w, c in g.bracket_of(u, v).items() if c}
    return want == {w: c for w, c in g.bracket_of(iu, iv).items() if c}


def _slot_image(g, cmap):
    """Slot -> (slot, sign) under the signed class map cmap, class ->
    (class, sign), on the classes it maps: a and a~ go to sign * sigma(a)
    and sign * sigma(a)~.  cmap maps each class to one with the same slot
    weights and degrees, so each image slot exists and keeps its degree."""
    slot = {(s.source, s.weight): s.name for s in g.slots}
    return {s.name: (slot[(cmap[s.source][0], s.weight)], cmap[s.source][1])
            for s in g.slots if s.source in cmap}


def _root(parent, x):
    """Union-find root of x; parent maps each element to its parent.  Each
    step points x at its grandparent (path halving)."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


_SEARCH_NODES = 64  # search budget per candidate x -> +-y


def _symmetries(g):
    """Slot permutations of Lie automorphisms of g that permute the
    algebra's classes up to sign.

    For each pair of classes x, y with equal slot degrees and not yet in
    one orbit of the maps found, a depth-first search tries to extend
    x -> +-y.  A node fails if a bracket of mapped slots breaks
    _bracket_holds, or is nonzero and maps to zero.  It next maps a class
    that is a term of a bracket of mapped slots, else the first unmapped
    class, trying itself first, then the other classes of its slot
    degrees, with either sign.  The search gives up after _SEARCH_NODES
    nodes, so missing a symmetry costs time only.

    A map the search returns is a Lie automorphism of g by construction.
    It returns only when every class is mapped, and a class is mapped only
    to an unused one, so the map permutes the classes.  Each class goes to
    one with the same slot weights and degrees, so the slots are permuted
    with weight and degree kept.  In the final node every slot is mapped,
    and _bracket_holds was checked on every pair with a nonzero bracket on
    either side; on the other pairs both sides are zero."""
    src = {s.name: s.source for s in g.slots}
    sig = {}
    for s in g.slots:
        sig.setdefault(s.source, []).append((s.weight, s.gdeg))
    nonzero = {u: {v for v in src if any(g.bracket_of(u, v).values())} for u in src}

    def extend(cmap, budget):
        if budget[0] <= 0:
            return None
        budget[0] -= 1
        image = _slot_image(g, cmap)
        free = []
        for u, (iu, _) in image.items():
            for v, (iv, _) in image.items():
                if v in nonzero[u] or iv in nonzero[iu]:
                    terms = [w for w, c in g.bracket_of(u, v).items() if c and w not in image]
                    if terms and iv not in nonzero[iu] or not (terms or _bracket_holds(g, image, u, v)):
                        return None
                    free += [src[w] for w in terms]
        free += [c for c in sig if c not in cmap]
        if not free:
            return cmap
        x, used = free[0], {c for c, _ in cmap.values()}
        for y in sorted(sig, key=lambda y: y != x):
            for sign in (1, -1):
                if y not in used and sig[y] == sig[x]:
                    found = extend({**cmap, x: (y, sign)}, budget)
                    if found is not None:
                        return found
        return None

    orbit = {c: c for c in sig}
    index = {(s.source, s.weight): i for i, s in enumerate(g.slots)}
    perms = []
    for x in sig:
        for y in sig:
            for sign in (1, -1):
                if _root(orbit, x) == _root(orbit, y) or sig[x] != sig[y]:
                    break
                cmap = extend({x: (y, sign)}, [_SEARCH_NODES])
                if cmap is not None:
                    for a, (b, _) in cmap.items():
                        orbit[_root(orbit, a)] = _root(orbit, b)
                    perms.append([index[(cmap[s.source][0], s.weight)] for s in g.slots])
    return perms


class _ChainTable:
    """Counts of monomials by weight and packed key, and a search that
    lists the monomials of one packed key: the one lister of chains.

    rows[i][rem] maps each sum of packed[j] * e_j over a monomial on slots
    i, i+1, ... of weight rem to the number of such monomials.  The rows
    are counted from the last slot to the first: x_i^e m, for m on slots
    i+1, ..., adds e * packed[i] to the key of m.  Only the rows that row k
    of slot 0 reads are built, and a row with no exponent e > 0 is the row
    below it, shared.  Each row lists its keys in the order that the
    monomials, in increasing order of their exponent vectors, first reach
    them."""

    def __init__(self, slots, sdeg, k, packed):
        self.slots, self.k, self.packed = slots, k, packed
        # tops[i][rem]: the exponents slot i can take, 0 included, with weight
        # rem left; exterior (odd shifted degree) slots are capped at 1
        self.tops = tops = [[min(1 if d % 2 else k, rem // s.weight) + 1 for rem in range(k + 1)]
                            for s, d in zip(slots, sdeg)]
        need = [{k}]
        for s, top in zip(slots, tops):
            need.append({rem - e * s.weight for rem in need[-1] for e in range(top[rem])})
        rows = [None] * len(slots) + [{rem: {} if rem else {0: 1} for rem in need[-1]}]
        for i in range(len(slots) - 1, -1, -1):
            w, f, top, nxt = slots[i].weight, packed[i], tops[i], rows[i + 1]
            row = rows[i] = {}
            for rem in need[i]:
                if top[rem] == 1:
                    row[rem] = nxt[rem]
                    continue
                cur = row[rem] = dict(nxt[rem])
                for e in range(1, top[rem]):
                    shift = e * f
                    for key, c in nxt[rem - e * w].items():
                        key += shift
                        cur[key] = cur.get(key, 0) + c
        self.rows = rows
        # (slot, weight left, key left) -> its branches, for each state that
        # a search has entered
        self.branches = {}

    def _branch(self, i, rem, t):
        """The branches of the search at slot i with weight rem and key t
        left, one per exponent e of slot i that leaves weight rem - e w_i
        and key t - e packed[i] to a monomial of the next row.  A branch is
        the nonzero (slot, exponent) pairs it sets, at slot i and at each
        next slot with one branch only, and then the branches of the first
        slot with two or more, or None where the monomial is complete.
        Each state stores its branches, not its completions."""
        key = (i, rem, t)
        out = self.branches.get(key)
        if out is None:
            out = self.branches[key] = []
            w, f, nxt = self.slots[i].weight, self.packed[i], self.rows[i + 1]
            for e in range(self.tops[i][rem]):
                left, u = rem - e * w, t - e * f
                if u not in nxt[left]:
                    continue
                sets = [(i, e)] if e else []
                if not left:
                    out.append((sets, None))
                    continue
                child = self._branch(i + 1, left, u)
                if len(child) == 1:
                    more, child = child[0]
                    sets = sets + more if e else more
                out.append((sets, child))
        return out

    def monomials(self, target):
        """The exponent vectors of weight k with packed key target, in
        increasing order.  The search sets x_i^e only when the next row
        holds the weight and key that are left."""
        exps = [0] * len(self.slots)
        if not self.k:
            return [tuple(exps)] if target in self.rows[0][0] else []
        out = []

        def walk(branches):
            for sets, child in branches:
                for j, e in sets:
                    exps[j] = e
                if child is None:
                    out.append(tuple(exps))
                else:
                    walk(child)
                for j, _ in sets:
                    exps[j] = 0

        walk(self._branch(0, self.k, target))
        return out


def _balanced_digits(value, radix, count):
    """The lowest count digits of value in balanced radix (radix odd)."""
    out = []
    for _ in range(count):
        digit = (value + radix // 2) % radix - radix // 2
        out.append(digit)
        value = (value - digit) // radix
    return out


def _orbits(g, k, key, perms):
    """The weight-k pieces of the grading key, counted and joined into
    orbits of the slot permutations perms, with no monomial listed.

    A slot's packed key is its shifted degree plus D times its grading key
    and the grading keys of its images under perms, in balanced radix R.
    Shifted degrees are nonnegative and D exceeds every degree of
    weight k; R = 2kM + 1, M the largest |grading key| of a slot, so a
    monomial's packed key holds its degree, its grading key and the
    grading key of each of its images.  A Lie automorphism carries
    a grading to a grading, so each image key is a function of the grading
    key; a key with two images raises AssertionError.  The pieces, their
    chain counts per degree and their images are read off row k of slot 0
    of a _ChainTable; the counts per degree must sum to chain_dims, and
    the pieces of one orbit must have equal counts.  With every key zero
    and no perms, the one piece is the whole block, keyed by degree alone.

    Returns the table and, per orbit in the order of first monomials, its
    number of pieces and, per degree, the packed key and chain count of its
    first piece."""
    chains = chain_dims(g, k)
    sdeg = [s.sdeg for s in g.slots]
    radix = 2 * k * max(map(abs, key), default=0) + 1
    degrees = k * max(sdeg, default=0) + 1
    packed = [d + degrees * sum(key[j] * radix ** t for t, j in enumerate([i] + [p[i] for p in perms]))
              for i, d in enumerate(sdeg)]
    table = _ChainTable(g.slots, sdeg, k, packed)
    pieces = {}  # packed key less degree -> {degree: chains}
    totals = Counter()
    for f, c in table.rows[0][k].items():
        rest, deg = divmod(f, degrees)
        pieces.setdefault(rest, {})[deg] = c
        totals[deg] += c
    if totals != chains:
        raise AssertionError("weight-%d chains per degree %r, but the series gives %r"
                             % (k, sorted(totals.items()), sorted(chains.items())))
    packed_of = {}  # grading key -> packed key less degree
    parent = {}
    for rest in pieces:
        p, *images = _balanced_digits(rest, radix, 1 + len(perms))
        if packed_of.setdefault(p, rest) != rest:
            raise AssertionError("weight-%d piece %d has two image keys under one symmetry"
                                 % (k, p))
        for q in [p] + images:
            parent.setdefault(q, q)
            parent[_root(parent, q)] = _root(parent, p)
    orbits = {}
    for p in packed_of:
        orbits.setdefault(_root(parent, p), []).append(p)
    out = []
    for rep, *others in orbits.values():
        counts = pieces[packed_of[rep]]
        for p in others:
            if pieces[packed_of[p]] != counts:
                raise AssertionError("weight-%d pieces %d and %d of one orbit differ in size"
                                     % (k, rep, p))
        out.append((1 + len(others), {deg: (deg + degrees * packed_of[rep], c)
                                      for deg, c in counts.items()}))
    return table, out


def _pieces(g, k, key, perms):
    """(orbit size, complex) for the first piece of each orbit of _orbits:
    each degree is listed by the table's search, in increasing order, and
    must match its count, then _assemble builds the piece."""
    table, orbits = _orbits(g, k, key, perms)
    for size, targets in orbits:
        bases = {}
        for deg, (target, count) in targets.items():
            bases[deg] = table.monomials(target)
            if len(bases[deg]) != count:
                raise AssertionError("weight-%d piece lists %d chains in degree %d, counted %d"
                                     % (k, len(bases[deg]), deg, count))
        yield size, _assemble(g, k, bases)


def betti(g, k):
    """Homology dimensions of the weight-k block over Q, piece by piece.

    d preserves the grading key of _grading, so the block is the direct sum
    of its pieces, one per key.  A symmetry of _symmetries is a Lie
    automorphism, so it carries each piece isomorphically onto a piece.
    _orbits counts the pieces and joins them into orbits; only the first
    piece of each orbit is listed, built and ranked, counted once per
    member.  No monomial outside those pieces is listed."""
    out = {}
    for size, block in _pieces(g, k, _grading(g, k), _symmetries(g)):
        for i in block.degrees():
            out[i] = out.get(i, 0) + size * block.homology(i)
    return GradedDims(out)


def ce_block(g, k):
    """The whole weight-k complex, the one piece of _pieces with every key
    zero and no symmetry: each degree in increasing order of the exponent
    vectors, checked against chain_dims.  Verifies d has square zero."""
    pieces = list(_pieces(g, k, [0] * len(g.slots), []))
    return pieces[0][1] if pieces else CEComplexBlock(k, {}, {})


# ---------------------------------------------------------------------------
# stabilization


def stability_report(g, k_max):
    """Rows (k, i, iso?) for the maps weight k+1 -> k, k < k_max, one per
    degree i with chains in weight k+1.

    Adding a point near infinity is the derivative phi = d/dx by the point
    slot x.  When x brackets trivially with every slot, as for an open M,
    multiplication by x is a chain map iota, and phi iota multiplies each
    monomial m by e_x(m) + 1, a chain automorphism over Q.  So phi_* is
    onto, and an isomorphism exactly when the two Betti numbers agree.  A
    nonzero bracket of x needs a degree-0 class, as for a closed M, and
    there phi_* need not be onto; such an algebra is refused.

    Requires ambient dimension > 2; the stable range is i <= k there."""
    if k_max < 0:
        raise ValueError("weight must be nonnegative")
    if g.n <= 2:
        raise StabilityError(
            "stability range is only guaranteed for ambient dimension > 2; "
            "got n = %d" % g.n)
    x = g.point_slot()
    if any(any(g.bracket_of(x, s.name).values()) for s in g.slots):
        raise StabilityError(
            "the point slot %r has a nonzero bracket, so adding a point need not "
            "be onto in homology; stability needs an open manifold" % x)
    dims = [betti(g, k) for k in range(k_max + 1)]
    return [(k, i, dims[k + 1].get(i) == dims[k].get(i))
            for k in range(k_max) for i in sorted(chain_dims(g, k + 1))]


# ---------------------------------------------------------------------------
# series cross-checks


def euler_series(g, weight_bound):
    """sum_k chi(weight-k block) s^k, computed from the chain counts per
    degree in row k of slot 0 of a _ChainTable keyed by shifted degree
    and, independently, from the symmetric-algebra series at t -> -1; the
    two must agree.  No chain is listed and no block is built."""
    if weight_bound < 0:
        raise ValueError("weight must be nonnegative")
    by_weight = _sym_series(g, weight_bound).euler_by_weight()
    sdeg = [s.sdeg for s in g.slots]
    coeffs = {}
    for k in range(weight_bound + 1):
        chi = sum((-1) ** deg * c for deg, c in _ChainTable(g.slots, sdeg, k, sdeg).rows[0][k].items())
        if chi != by_weight.get(k, 0):
            raise AssertionError(
                "Euler mismatch at weight %d: chain sum %d vs series %d"
                % (k, chi, by_weight.get(k, 0)))
        if chi:
            coeffs[(0, k)] = chi
    return PoincareSeries(coeffs, None, weight_bound)


def sym_homology_odd(h, k):
    """Weight-k piece of the free graded-commutative algebra on h.

    For an odd-dimensional manifold with finite homology h this equals the
    homology of its k-point unordered configuration space."""
    if k < 0:
        raise ValueError("weight must be nonnegative")
    dims = dict(h.items()) if hasattr(h, "items") else dict(h)
    gens = {}
    max_d = 0
    for d, c in dims.items():
        if d < 0:
            raise ValueError("homology degrees must be nonnegative")
        if c:
            gens[(d, 1)] = c
            max_d = max(max_d, d)
    sym = sym_series(gens, max_d * k if gens else 0, k)
    return sym.weight_slice(k)


def labeled_series_check(a, r, degree_bound=20):
    """Bigraded series identity for labeled configuration spaces.

    LHS: sum_k P(H_*(B_k(M))) s^k t^(rk) from the Lie algebra homology.
    RHS: the symmetric algebra on one weight-1 slot of degree r+i for each
    dimension of H_i(M).  Requires n odd and r > 1 even."""
    n = a.n
    if n % 2 == 0:
        raise ValueError("the identity requires odd ambient dimension (r+n odd)")
    if r <= 1 or r % 2 == 1:
        raise ValueError("need r > 1 even")
    g = build_gm(a)
    h_dims = {}
    for x in a.names:
        i = n - a.degree[x]
        h_dims[i] = h_dims.get(i, 0) + 1
    weight_bound = degree_bound // r
    coeffs = {}
    for k in range(weight_bound + 1):
        for i, v in betti(g, k).items():
            if i + r * k <= degree_bound:
                coeffs[(i + r * k, k)] = v
    lhs = PoincareSeries(coeffs, degree_bound, weight_bound)
    gens = {(r + i, 1): c for i, c in h_dims.items() if c}
    rhs = sym_series(gens, degree_bound, weight_bound)
    return series_equal(lhs, rhs)
