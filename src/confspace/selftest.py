"""End-to-end acceptance checks, runnable via `confspace selftest`.

Each check is a zero-argument function: it raises (AssertionError or a
library error) on failure and returns a one-line summary on success.  The
budgets are wall-clock seconds on a single core; `run_check` times each check
so a performance regression is visible even while the mathematics stays right.

The forest-rewrite check carries its own oracle, independent of the
rewriting code it tests: a bracket monomial is expanded in the tensor algebra on its
leaf letters, where the bracket is the graded commutator in the shifted
grading (a tree with m leaves sits in degree m(n-1)).  The rewrite into the
tall basis must preserve that expansion word for word.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import permutations
from math import factorial

from . import arnold
from . import braid
from . import ce
from . import forests
from . import modp
from . import presets
from .graded import GradedDims
from .linalg import QQ, ZZ, SparseMatrix, smith_normal_form


# ---------------------------------------------------------------------------
# tensor-algebra oracle for the tall rewrite


def _iota_tree(t, step):
    """Expansion of a bracket monomial in the tensor algebra, word -> coeff.

    step = (n-1) mod 2; the commutator sign is (-1)^(|x||y|) in the shifted
    grading, and |x| = (leaves of x)(n-1) only matters mod 2.
    """
    if forests.is_leaf(t):
        return {(t,): 1}
    left = _iota_tree(t[0], step)
    right = _iota_tree(t[1], step)
    ml = len(forests.tree_leaves(t[0]))
    mr = len(forests.tree_leaves(t[1]))
    sign = (-1) ** (ml * mr * step)
    out = {}
    for w1, c1 in left.items():
        for w2, c2 in right.items():
            c = c1 * c2
            out[w1 + w2] = out.get(w1 + w2, 0) + c
            out[w2 + w1] = out.get(w2 + w1, 0) - sign * c
    return {w: c for w, c in out.items() if c}


def _iota_forest(f, n):
    """Joint expansion of a forest: tuple of one word per tree -> coeff.

    Components are put in min-leaf order first, with the Koszul sign in the
    unshifted grading (tree degree (m-1)(n-1)), matching the convention that
    the input component order is part of the data.
    """
    step = (n - 1) % 2
    degs = [forests.tree_degree(t, n) for t in f]
    mins = [forests.tree_min(t) for t in f]
    order = list(range(len(f)))
    sign = 1
    for i in range(1, len(order)):
        j = i
        while j > 0 and mins[order[j - 1]] > mins[order[j]]:
            if degs[order[j - 1]] % 2 and degs[order[j]] % 2:
                sign = -sign
            order[j - 1], order[j] = order[j], order[j - 1]
            j -= 1
    combos = {(): sign}
    for i in order:
        part = _iota_tree(f[i], step)
        nxt = {}
        for pref, c in combos.items():
            for w, c2 in part.items():
                key = pref + (w,)
                nxt[key] = nxt.get(key, 0) + c * c2
        combos = {key: c for key, c in nxt.items() if c}
    return combos


def _random_tree(labels, rng):
    if len(labels) == 1:
        return labels[0]
    cut = rng.randint(1, len(labels) - 1)
    return (_random_tree(labels[:cut], rng), _random_tree(labels[cut:], rng))


def _random_forest(k, rng):
    labels = list(range(1, k + 1))
    rng.shuffle(labels)
    r = rng.randint(1, k)
    cuts = sorted(rng.sample(range(1, k), r - 1))
    bounds = [0] + cuts + [k]
    return tuple(_random_tree(labels[a:b], rng)
                 for a, b in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# the checks


def check_census():
    """Ordered-configuration Betti numbers match the product formula."""
    cases = 0
    for n in (2, 3, 4):
        for k in range(9):
            arnold.poincare_polynomial(k, n)
            top = max(k - 1, 0) * (n - 1)
            total = sum(len(arnold.admissible_basis(k, n, d))
                        for d in range(top + 1))
            assert total == factorial(max(k, 1)), \
                "census misses k! at k=%d, n=%d" % (k, n)
            cases += 1
    return "product formula == admissible census, %d (k, n) pairs" % cases


def check_triple_relation():
    """The three-term relation normalizes to zero for every ordered triple."""
    cases = 0
    for n in (2, 3):
        for k in range(3, 7):
            for a, b, c in permutations(range(1, k + 1), 3):
                x = arnold.multiply(arnold.generator(k, n, a, b),
                                    arnold.generator(k, n, b, c))
                x = x.add(arnold.multiply(arnold.generator(k, n, b, c),
                                          arnold.generator(k, n, c, a)))
                x = x.add(arnold.multiply(arnold.generator(k, n, c, a),
                                          arnold.generator(k, n, a, b)))
                assert x.is_zero(), \
                    "triple (%d,%d,%d) fails at k=%d, n=%d" % (a, b, c, k, n)
                cases += 1
    return "three-term relation zero for %d ordered triples" % cases


def _admissible_action(perm, k, n, degree):
    """Matrix of arnold.sigma_act on admissible_basis: column j is the image
    of the j-th admissible monomial."""
    monos = arnold.admissible_basis(k, n, degree)
    row_of = {mono: i for i, mono in enumerate(monos)}
    entries = {}
    for j, mono in enumerate(monos):
        image = arnold.sigma_act(perm, arnold.CohomologyClass(k, n, {mono: 1}))
        for image_mono, c in image.terms.items():
            entries[(row_of[image_mono], j)] = c
    return SparseMatrix(len(monos), len(monos), ZZ, entries)


def assert_pairing_invariant(p, k, n, degree):
    """Assert A(tau)^T P B(tau) = P for the pairing matrix P and each
    adjacent transposition tau, with A and B the actions of tau on the two
    bases, A from forests.forest_module's taus, the ones modp uses;
    return the number of transpositions checked.  Unimodularity cannot see
    a sign error; invariance can."""
    for i, a in enumerate(forests.forest_module(k, n, degree).taus, start=1):
        tau = {**{v: v for v in range(1, k + 1)}, i: i + 1, i + 1: i}
        b = _admissible_action(tau, k, n, degree)
        assert a.transpose().matmul(p).matmul(b) == p, \
            "pairing not invariant under (%d %d) at k=%d, n=%d, degree %d" \
            % (i, i + 1, k, n, degree)
    return k - 1


def check_pairing():
    """Forest/monomial pairing matrices are unimodular in every degree for
    k <= 7, and for k <= 5 invariant under each adjacent transposition."""
    cases = 0
    invariant = 0
    for n in (2, 3):
        for k in range(1, 8):
            for j in range(k):
                d = j * (n - 1)
                m = forests.pairing_matrix(k, n, d)
                factors, rnk = smith_normal_form(m)
                assert rnk == m.nrows == m.ncols and all(x == 1 for x in factors), \
                    "pairing not unimodular at k=%d, n=%d, degree %d" % (k, n, d)
                cases += 1
                if k <= 5:
                    invariant += assert_pairing_invariant(m, k, n, d)
    return ("pairing unimodular in %d degrees, invariant under %d transpositions"
            % (cases, invariant))


def check_rewrite():
    """Tall rewrite agrees with the tensor-algebra expansion."""
    cases = 0
    for n in (2, 3):
        for k in range(2, 7):
            rng = random.Random(10007 * k + n)
            for _ in range(500):
                f = _random_forest(k, rng)
                want = _iota_forest(f, n)
                x = forests.rewrite_to_tall(f, n)
                got = {}
                for seqs, c in x.terms.items():
                    g = tuple(map(forests.tall_from_seq, seqs))
                    assert all(forests.is_tall(t) for t in g)
                    for key, c2 in _iota_forest(g, n).items():
                        v = got.get(key, 0) + c * c2
                        if v:
                            got[key] = v
                        else:
                            got.pop(key, None)
                assert got == want, "rewrite disagrees with oracle on %r (n=%d)" % (f, n)
                cases += 1
    for n in (2, 3):
        for k in range(1, 9):
            count = len(forests.tall_basis(k, n, (k - 1) * (n - 1)))
            assert count == factorial(k - 1), \
                "tall tree count at k=%d, n=%d: %d" % (k, n, count)
    return "%d random forests match the oracle; tall tree counts are (k-1)!" % cases


def check_coinvariants():
    """Symmetric-group coinvariants of the forest module match the closed form."""
    cases = 0
    for n in (2, 3, 4):
        for k in range(2, 7):
            got = forests.coinvariants_dims(k, n, QQ)
            want = forests.unordered_betti_rational(k, n)
            assert got == want, \
                "coinvariants at k=%d, n=%d: %r != %r" % (k, n, got, want)
            cases += 1
    return "coinvariant dimensions match the closed form, %d (k, n) pairs" % cases


def check_surfaces():
    """Two-point degree-2 Betti numbers of punctured surfaces; the Betti
    numbers of closed surfaces from symmetry orbits of pieces against the
    homology of the whole blocks.  Both list their chains from one table,
    keyed by grading and symmetry or by degree alone; what stays
    independent is the sym_series count each listing is checked against,
    d^2 = 0 on each complex, and the tests' reference lister."""
    g = ce.build_gm(presets.load_preset("punctured-torus"))
    b = ce.betti(g, 2)
    assert b.get(2) == 2, "punctured torus: H_2 of the 2-point space is %d" % b.get(2)
    g = ce.build_gm(presets.load_preset("twice-punctured-plane"))
    b = ce.betti(g, 2)
    assert b.get(2) == 3, "twice-punctured plane: H_2 is %d" % b.get(2)
    for name in ("closed-surface-1", "closed-surface-2"):
        g = ce.build_gm(presets.load_preset(name))
        for k in range(6):
            block = g.block(k)
            want = GradedDims({i: block.homology(i) for i in block.degrees()})
            got = ce.betti(g, k)
            assert got == want, "%s, k=%d: pieces %r, whole block %r" % (name, k, got, want)
    return ("two-point degree-2 Betti numbers: 2 (punctured torus), 3 (twice-punctured "
            "plane); pieces = whole blocks for genus 1, 2, k <= 5")


def check_odd_manifolds():
    """For odd-dimensional manifolds the answer is a free symmetric algebra."""
    targets = {
        "euclidean-3": {0: 1},
        "solid-torus": {0: 1, 1: 1},
        "handlebody-1": {0: 1, 1: 1},
        "handlebody-2": {0: 1, 1: 2},
        "handlebody-3": {0: 1, 1: 3},
        "r3-minus-1": {0: 1, 2: 1},
        "r3-minus-2": {0: 1, 2: 2},
        "r3-minus-3": {0: 1, 2: 3},
    }
    cases = 0
    for name, h in targets.items():
        g = ce.build_gm(presets.load_preset(name))
        for k in range(9):
            want = ce.sym_homology_odd(GradedDims(h), k)
            got = ce.betti(g, k)
            assert got == want, \
                "%s at k=%d: %r != %r" % (name, k, got, want)
            cases += 1
    return "free symmetric algebra on H_*(M) for %d (preset, k) pairs" % cases


def check_stability():
    """Adding a point is a homology isomorphism in the stable range."""
    cases = 0
    for name in presets.list_presets():
        a = presets.load_preset(name)
        if a.n <= 2:
            continue
        rows = ce.stability_report(ce.build_gm(a), 6)
        for k, i, ok in rows:
            if i <= k:
                assert ok, "%s: map at weight %d not iso in degree %d" % (name, k, i)
                cases += 1
    return "stabilization iso in %d stable (preset, k, i) triples" % cases


def check_euler():
    """Per-weight Euler characteristics against the symmetric-algebra series."""
    names = presets.list_presets()
    for name in names:
        ce.euler_series(ce.build_gm(presets.load_preset(name)), 10)
    return "chain-level vs series Euler characteristics agree, %d presets, weight <= 10" % len(names)


def check_labeled_series():
    """Bigraded series identity for labeled configuration spaces, r = 2."""
    cases = 0
    for name in presets.list_presets():
        a = presets.load_preset(name)
        if a.n % 2 == 0:
            continue
        assert ce.labeled_series_check(a, 2, 20), "series identity fails for %s" % name
        cases += 1
    return "labeled series identity holds for %d odd-dimensional presets" % cases


def check_vanishing():
    """Interior mod-p homology of the cyclic group vanishes."""
    cases = []
    for p, n in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4), (7, 2)):
        assert modp.verify_vanishing(p, n), "interior homology at p=%d, n=%d" % (p, n)
        cases.append((p, n))
    return "interior vanishing certified (both routes) for %r" % (cases,)


def check_invariants():
    """Coxeter fixed spaces match the closed form for p > 3."""
    for p in (5, 7):
        for n in (2, 3, 4):
            want = GradedDims({0: 1, n - 1: 1} if n % 2 == 0 else {0: 1})
            got = modp.invariants_sigma_p(p, n)
            assert got == want, \
                "fixed space at p=%d, n=%d: %r != %r" % (p, n, got, want)
    return "fixed spaces match the closed form for p in {5, 7}, n in {2, 3, 4}"


def check_tate():
    """Tate dims match the closed form and the Swan period is 2(p-1)."""
    cases = 0
    for p in (3, 5, 7):
        for n in (2, 3, 4):
            top = (n - 1) * (p - 1)
            for j in range(p):
                t = j * (n - 1)
                want = [1 if t in (0, top) else 0] * 13
                td = modp.tate(modp.conf_module(p, n, t), (-6, 6))
                got = [td.get(s) for s in range(-6, 7)]
                assert got == want, \
                    "Tate dims on [-6, 6] at p=%d, n=%d, t=%d: %r != %r" % (p, n, t, got, want)
                cases += 1
    for p in (3, 5, 7):
        period = modp.swan_period(p)
        assert period == 2 * (p - 1), "Swan period at p=%d: %d" % (p, period)
    return ("Tate dims on [-6, 6] are 1 at t = 0 and t = (n-1)(p-1) and 0 between "
            "on %d modules; Swan periods 4, 8, 12" % cases)


def check_stable_vs_bar():
    """Stable-class route equals the bar-resolution oracle at p = 3."""
    cases = 0
    for n in (2, 3):
        for j in range(3):
            v = modp.conf_module(3, n, j * (n - 1))
            a = modp.sigma_p_cohomology_stable(v, 4)
            b = modp.bar_cohomology(v, 4)
            for s in range(5):
                assert a.get(s) == b.get(s), \
                    "H^%d at n=%d, t=%d: stable %d vs bar %d" \
                    % (s, n, j * (n - 1), a.get(s), b.get(s))
            cases += 1
    return "stable-class and bar dimensions agree on %d modules, s <= 4" % cases


def check_braid():
    """Artin action, relation catalogue, and two subgroup presentations."""
    for k in range(2, 11):
        pres = braid.braid_presentation(k)
        ident = braid.FreeAutomorphism.identity(k)
        for rel in pres.relators:
            assert braid.artin_action(rel, k) == ident, \
                "relator %r not in the kernel of the Artin action, k=%d" % (rel, k)
    for k in (3, 4, 5, 6):
        for rec in braid.verify_paper_relations(k):
            assert rec["ok"], "relation family %r fails at %r (k=%d)" \
                % (rec["family"], rec["params"], k)
    sym3 = braid.symmetric_presentation(3)
    table = braid.coset_table_from_hom(sym3, [(2, 1, 3), (2, 1, 3)], "kernel")
    sub = braid.subgroup_presentation(sym3, table, braid.schreier_transversal(table))
    assert sub.abelianization() == (0, [3]), \
        "alternating subgroup of Sym_3: %r" % (sub.abelianization(),)
    b3 = braid.braid_presentation(3)
    table = braid.coset_table_from_hom(b3, [(2, 1, 3), (1, 3, 2)], "kernel")
    sub = braid.subgroup_presentation(b3, table, braid.schreier_transversal(table))
    assert sub.abelianization() == (3, []), \
        "pure braid group on 3 strands: %r" % (sub.abelianization(),)
    return "Artin kernel k <= 10; relation catalogue k <= 6; A_3 -> Z/3, P_3 -> Z^3"


CHECKS = (
    (1, "arnold-census", 5.0, check_census),
    (2, "arnold-triple-relation", 5.0, check_triple_relation),
    (3, "forest-pairing-unimodular", 30.0, check_pairing),
    (4, "forest-rewrite-oracle", 60.0, check_rewrite),
    (5, "forest-coinvariants", 60.0, check_coinvariants),
    (6, "surface-two-points", 1.0, check_surfaces),
    (7, "odd-manifold-betti", 120.0, check_odd_manifolds),
    (8, "stability-window", 120.0, check_stability),
    (9, "euler-series", 60.0, check_euler),
    (10, "labeled-series", 60.0, check_labeled_series),
    (11, "modp-vanishing", 180.0, check_vanishing),
    (12, "modp-invariants", 300.0, check_invariants),
    (13, "tate-periodicity", 60.0, check_tate),
    (14, "stable-vs-bar", 60.0, check_stable_vs_bar),
    (15, "braid-presentations", 30.0, check_braid),
)


@dataclass
class CheckResult:
    number: int
    name: str
    ok: bool
    elapsed: float
    budget: float
    detail: str

    @property
    def in_budget(self):
        return self.ok and self.elapsed <= self.budget

    def to_json_obj(self):
        return {
            "number": self.number,
            "name": self.name,
            "ok": self.ok,
            "elapsed": round(self.elapsed, 3),
            "budget": self.budget,
            "detail": self.detail,
        }


def run_check(number):
    """Run one check by its index; never raises, failures land in the result."""
    for num, name, budget, fn in CHECKS:
        if num == number:
            break
    else:
        raise ValueError("no check numbered %r" % (number,))
    start = time.monotonic()
    try:
        detail = fn()
        ok = True
    except Exception as exc:
        detail = "%s: %s" % (type(exc).__name__, exc)
        ok = False
    return CheckResult(num, name, ok, time.monotonic() - start, budget, detail)
