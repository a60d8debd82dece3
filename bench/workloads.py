"""The benchmark's workloads: seeded op lists with answer checks.

An op is the library call sequence that one CLI subcommand makes.  Each
op's answer is compared with the answer recorded in expected.json by
`python3 bench/record.py` on the commit that added the benchmark, and also
with a closed form where the mathematics gives one (surface Betti tables,
top-degree Tate and stable dims and Euler series have none).

The op families are fixed, so a run's cost does not depend on the seed.
The seed fixes the op order within each phase, which decides which op pays
each miss of the module-level caches (modp's module cache, the forests
graft cache), and the basis names of the surface algebras, which permutes
the rows and columns of every CE differential without changing any answer.
modp-p7 has two phases: the C_p ops (Tate, invariants, vanishing) build
every module, then the Sigma_p stable-class ops run on cached modules.
Otherwise the slowest op, stable t=4, would pay for building its module in
about half of the seeds, and op_max would split in two by seed.

Sizes are cut from the ROADMAP's heavy paths so that a round takes 7 to 25
s on a 2-core Xeon and a 30 s run holds one to three rounds:
  * modp-p7 runs n in {2, 3} (both parities of n; n = 4 repeats the work
    of n = 2 on equal-sized modules);
  * ce-surface drops betti at (g, k) = (3, 11);
  * zz-smith replaces P_6 (one 30 s Smith form) by the stabilizer of an
    ordered triple of strands in B_7, and stops the pairing at j = 4.
"""

from __future__ import annotations

import json
import os
import random
from itertools import permutations
from math import comb, factorial

from confspace import braid, ce, cli, forests, linalg, modp, presets

WORKLOADS = ("modp-p7", "ce-surface", "zz-smith")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

P = 7
MODP_NS = (2, 3)
STABLE_TS = (0, 1, 2, 3, 4)
TATE_WINDOW = (-6, 6)
SURFACES = ((2, 12), (2, 13), (3, 10), (4, 8))
ODD_BETTI_K = 8
PURE_KS = (5,)
TUPLE_STABILIZERS = ((7, 3),)  # (strands k, ordered tuple length r)
PAIRING_JS = (0, 1, 2, 3, 4)

# op names kept by the reduced-size smoke run of each workload
SMOKE = {
    "modp-p7": {"tate n=2 t=0", "tate n=2 t=1", "tate n=2 t=2", "tate n=3 t=0",
                "tate n=3 t=2", "stable t=0", "stable t=1", "stable t=2"},
    "ce-surface": {"betti euclidean-3 k=8", "betti handlebody-2 k=8", "stability r3-minus-2",
                   "euler punctured-torus", "euler surface-2-1"},
    "zz-smith": {"braid pure k=5", "pairing j=0", "pairing j=1", "pairing j=2"},
}


class Op:
    """One timed call sequence: run() returns a JSON-able answer and
    check(answer) returns a list of mismatch descriptions (empty when right)."""

    def __init__(self, name, run, check=None):
        self.name = name
        self.run = run
        self.check = check or (lambda answer: [])


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _with_recorded(op, expected):
    """Also check op against its answer recorded in expected.json."""
    closed_form = op.check

    def check(answer):
        if op.name not in expected:
            return ["no recorded answer"]
        want = expected[op.name]
        out = [] if answer == want else ["got %r, recorded %r" % (answer, want)]
        return out + closed_form(answer)
    return Op(op.name, op.run, check)


def _equals(want, what):
    def check(answer):
        return [] if answer == want else ["%s: got %r, want %r" % (what, answer, want)]
    return check


def _graded(dims):
    return {str(d): v for d, v in sorted(dims.items()) if v}


# -- modp-p7 ------------------------------------------------------------------


def _interior_stable(dims):
    return [] if dims[1:] == [0, 0, 0, 0] else ["interior H^s, 1 <= s <= 4: %r" % dims[1:]]


def _modp_phases():
    ops = []
    lo, hi = TATE_WINDOW
    for n in MODP_NS:
        top = (n - 1) * (P - 1)
        for j in range(P):
            t = j * (n - 1)
            name = "tate n=%d t=%d" % (n, t)

            def run(n=n, t=t):
                td = modp.tate(modp.conf_module(P, n, t), TATE_WINDOW)
                return [td.get(s) for s in range(lo, hi + 1)]
            check = None
            if t == 0:
                check = _equals([1] * (hi - lo + 1), "Tate dims of the trivial module")
            elif t < top:
                check = _equals([0] * (hi - lo + 1), "Tate dims of a free module")
            ops.append(Op(name, run, check))

        def run_inv(n=n):
            return _graded(modp.invariants_sigma_p(P, n))
        want = {0: 1, n - 1: 1} if n % 2 == 0 else {0: 1}
        ops.append(Op("invariants n=%d" % n, run_inv,
                      _equals(_graded(want), "Coxeter fixed-space dims")))
        ops.append(Op("vanishing n=%d" % n, lambda n=n: modp.verify_vanishing(P, n),
                      _equals(True, "interior vanishing")))
    stable = []
    n = MODP_NS[0]
    for t in STABLE_TS:
        def run_stable(t=t):
            dims = modp.sigma_p_cohomology_stable(modp.conf_module(P, n, t), 4)
            return [dims.get(s) for s in range(5)]
        if t == 0:
            # H^s(Sigma_p; F_p) vanishes for 0 < s < 2p - 3
            check = _equals([1, 0, 0, 0, 0], "H^s(Sigma_7; F_7), s <= 4")
        else:
            check = _interior_stable
        stable.append(Op("stable t=%d" % t, run_stable, check))
    return [ops, stable]


# -- ce-surface -----------------------------------------------------------------


def _renamed_surface(genus, rng):
    """cli's closed-surface document with its basis names permuted by rng.

    GMLie slots sort by name within (weight, degree), so renaming permutes
    the rows and columns of every CE differential."""
    doc = cli._closed_surface_doc(genus)
    old = [b["name"] for b in doc["basis"]]
    new = ["b%02d" % i for i in range(len(old))]
    rng.shuffle(new)
    rename = dict(zip(old, new))
    return {
        "name": doc["name"], "ambient_dim": doc["ambient_dim"],
        "basis": [{"name": rename[b["name"]], "degree": b["degree"]} for b in doc["basis"]],
        "products": [{"left": rename[p["left"]], "right": rename[p["right"]],
                      "result": [{"basis": rename[r["basis"]], "coeff": r["coeff"]}
                                 for r in p["result"]]}
                     for p in doc["products"]],
    }


def _odd_homology(a):
    """H_*(M) dims of an odd-dimensional manifold from its compactly
    supported cohomology, by Poincare duality: H_i = H_c^(n-i)."""
    h = {}
    for x in a.names:
        i = a.n - a.degree[x]
        h[i] = h.get(i, 0) + 1
    return h


def _iso_in_stable_range(rows):
    bad = [r for r in rows if r[1] <= r[0] and not r[2]]
    return ["not iso in the stable range: %r" % bad] if bad else []


def _ce_ops(rng):
    ops = []
    for g, k in SURFACES:
        a = ce.load_algebra(_renamed_surface(g, rng))
        ops.append(Op("betti surface g=%d k=%d" % (g, k),
                      lambda a=a, k=k: _graded(ce.betti(ce.build_gm(a), k))))
    algebras = {name: presets.load_preset(name) for name in presets.list_presets()}
    for pname, a in algebras.items():
        if a.n % 2 == 1:
            want = ce.sym_homology_odd(_odd_homology(a), ODD_BETTI_K)
            ops.append(Op("betti %s k=%d" % (pname, ODD_BETTI_K),
                          lambda a=a: _graded(ce.betti(ce.build_gm(a), ODD_BETTI_K)),
                          _equals(_graded(want), "free symmetric algebra on H_*(M)")))
        if a.n > 2:
            def run_stab(a=a):
                return [[k, i, ok] for k, i, ok in ce.stability_report(ce.build_gm(a), 6)]
            ops.append(Op("stability %s" % pname, run_stab, _iso_in_stable_range))

        def run_euler(a=a):
            series = ce.euler_series(ce.build_gm(a), 10)
            return {str(w): c for (_, w), c in sorted(series.coeffs.items())}
        ops.append(Op("euler %s" % pname, run_euler))
    return ops


# -- zz-smith -------------------------------------------------------------------


def _stirling_first(k, m):
    """Unsigned Stirling number of the first kind c(k, m)."""
    row = [1]
    for i in range(k):
        nxt = [0] * (len(row) + 1)
        for j, c in enumerate(row):
            nxt[j] += i * c
            nxt[j + 1] += c
        row = nxt
    return row[m]


def _tuple_action(k, r):
    """Images of the braid generators acting on ordered r-tuples of strands."""
    pts = list(permutations(range(1, k + 1), r))
    idx = {p: i + 1 for i, p in enumerate(pts)}
    return [tuple(idx[tuple(perm[x - 1] for x in p)] for p in pts)
            for perm in cli._hom_images("permutation", k)]


def _subgroup_op(name, pres, images, kind, want_cosets, want_rank):
    def run():
        table = braid.coset_table_from_hom(pres, images, kind, 1 if kind == "stabilizer" else None)
        sub = braid.subgroup_presentation(pres, table, braid.schreier_transversal(table))
        free_rank, torsion = sub.abelianization()
        return {"cosets": table.n, "free_rank": free_rank, "torsion": list(torsion)}
    want = {"cosets": want_cosets, "free_rank": want_rank, "torsion": []}
    return Op(name, run, _equals(want, "cosets and abelianization"))


def _pairing_op(j):
    k, n = P, 2
    size = _stirling_first(k, k - j)  # tall forests with k - j trees

    def run():
        m = forests.pairing_matrix(k, n, j * (n - 1))
        factors, rnk = linalg.smith_normal_form(m)
        return {"rows": m.nrows, "cols": m.ncols, "rank": rnk,
                "unimodular": all(f == 1 for f in factors)}
    want = {"rows": size, "cols": size, "rank": size, "unimodular": True}
    return Op("pairing j=%d" % j, run, _equals(want, "unimodular pairing of tall-basis size"))


def _zz_ops():
    ops = []
    for k in PURE_KS:
        # pure braid group P_k: k! cosets, abelianization Z^(k choose 2)
        ops.append(_subgroup_op("braid pure k=%d" % k, braid.braid_presentation(k),
                                cli._hom_images("permutation", k), "kernel",
                                factorial(k), comb(k, 2)))
    for k, r in TUPLE_STABILIZERS:
        # strands 1..r fixed, the other k - r permuted freely: k!/(k-r)!
        # cosets; abelianization Z^(C(r,2) + r + [k - r >= 2]), one class per
        # pair of fixed strands, per fixed strand around the free ones, and
        # one for the half-twists among the free ones
        ops.append(_subgroup_op("braid stabilizer k=%d r=%d" % (k, r),
                                braid.braid_presentation(k), _tuple_action(k, r),
                                "stabilizer", factorial(k) // factorial(k - r),
                                comb(r, 2) + r + (1 if k - r >= 2 else 0)))
    for j in PAIRING_JS:
        ops.append(_pairing_op(j))
    return ops


def build_ops(workload, seed, expected=None, smoke=False):
    """The seeded op list of a workload (everything here counts as set-up)."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r; known: %s" % (workload, ", ".join(WORKLOADS)))
    if expected is None:
        expected = load_expected()
    rng = random.Random(seed)
    if workload == "modp-p7":
        phases = _modp_phases()
    elif workload == "ce-surface":
        phases = [_ce_ops(rng)]
    else:
        phases = [_zz_ops()]
    ops = []
    for phase in phases:
        if smoke:
            phase = [op for op in phase if op.name in SMOKE[workload]]
        rng.shuffle(phase)
        ops.extend(_with_recorded(op, expected) for op in phase)
    return ops
