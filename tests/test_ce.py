"""Lie-algebra chain complexes for unordered configurations."""

import itertools
import json
import random
import re
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from confspace import ce, cli, presets
from confspace.graded import GradedDims, PoincareSeries

import oracles


ALL_PRESETS = presets.list_presets()


def gm(name):
    return ce.build_gm(presets.load_preset(name))


def test_preset_listing_is_sorted_and_complete():
    assert ALL_PRESETS == sorted(ALL_PRESETS)
    for expected in ("euclidean-2", "punctured-torus", "twice-punctured-plane",
                     "solid-torus", "closed-surface-2", "r3-minus-3"):
        assert expected in ALL_PRESETS


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_differential_squares_to_zero(name):
    g = gm(name)
    for k in range(5):
        block = ce.ce_block(g, k)
        degs = sorted(block.degrees())
        for i in degs:
            d_i = block.diffs.get(i)
            d_up = block.diffs.get(i + 1)
            if d_i is None or d_up is None:
                continue
            assert d_i.matmul(d_up).is_zero(), (name, k, i)


def reference_d_monomial(g, mono):
    """The CE differential of one monomial by the textbook sum over pairs
    i < j of factor occurrences, every sign from the occurrence list."""
    slots = g.slots
    factors = []
    for idx, e in enumerate(mono):
        factors.extend([idx] * e)
    m = len(factors)
    sdeg = [slots[idx].sdeg for idx in factors]
    prefix = [0]
    for d in sdeg:
        prefix.append(prefix[-1] + d)
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            res = g.bracket_of(slots[factors[i]].name, slots[factors[j]].name)
            if not res:
                continue
            # Koszul sign of the shuffle moving x_i, x_j to the front
            eps = (sdeg[i] * prefix[i]) + (sdeg[j] * (prefix[j] - sdeg[i]))
            sign = (-1) ** (sdeg[i] + eps)
            rest = list(mono)
            rest[factors[i]] -= 1
            rest[factors[j]] -= 1
            for zname, c in res.items():
                z = g.index[zname]
                zs = slots[z]
                if zs.sdeg % 2 == 1 and rest[z] >= 1:
                    continue
                # insert z into the sorted monomial: pass the slots before it
                passed = sum(rest[u] * slots[u].sdeg for u in range(z))
                new = list(rest)
                new[z] += 1
                key = tuple(new)
                out[key] = out.get(key, 0) + sign * c * ((-1) ** (zs.sdeg * passed))
    return {key: v for key, v in out.items() if v}


def assert_block_matches_reference(g, k):
    block = ce.ce_block(g, k)
    for deg, ms in block.bases.items():
        assert ms == sorted(set(ms)), (k, deg)
        for mono in ms:
            assert sum(e * s.sdeg for e, s in zip(mono, g.slots)) == deg
        target = block.index.get(deg - 1, {})
        want = {(target[im], col): c for col, mono in enumerate(ms)
                for im, c in reference_d_monomial(g, mono).items()}
        d = block.diffs[deg]
        assert (d.nrows, d.ncols) == (len(target), len(ms))
        assert d.entries == want, (k, deg)
        assert all(type(c) is int for c in d.entries.values()), (k, deg)


def flip_bracket(g):
    return ce.GMLie(g.algebra, g.slots,
                    {key: {z: -c for z, c in res.items()}
                     for key, res in g.bracket.items()})


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_differential_matches_occurrence_pair_reference(name):
    g = gm(name)
    flipped = flip_bracket(g)
    for k in range(6):
        assert_block_matches_reference(g, k)
        assert_block_matches_reference(flipped, k)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_closed_surface_differential_matches_reference(genus):
    g = ce.build_gm(ce.load_algebra(presets.closed_surface_doc(genus)))
    assert g.bracket
    flipped = flip_bracket(g)
    for k in range(7):
        assert_block_matches_reference(g, k)
        assert_block_matches_reference(flipped, k)


def test_punctured_torus_two_points_full_table():
    b = ce.betti(gm("punctured-torus"), 2)
    assert dict(b.items()) == {0: 1, 1: 2, 2: 2}


def test_twice_punctured_plane_two_points_full_table():
    b = ce.betti(gm("twice-punctured-plane"), 2)
    assert dict(b.items()) == {0: 1, 1: 3, 2: 3}


def test_euclidean_plane_betti():
    g = gm("euclidean-2")
    assert dict(ce.betti(g, 2).items()) == {0: 1, 1: 1}
    assert dict(ce.betti(g, 3).items()) == {0: 1, 1: 1}
    assert dict(ce.betti(g, 1).items()) == {0: 1}


def test_closed_surface_two_points():
    # closed genus-2 surface: weight-2 block of the compactly supported theory
    b = ce.betti(gm("closed-surface-2"), 2)
    assert dict(b.items()) == {0: 1, 1: 4, 2: 6}
    # chi(B_2(S)) = chi(S)(chi(S) - 1)/2 = 3 for chi(S) = -2
    assert sum(((-1) ** i) * d for i, d in b.items()) == 3


def test_closed_surface_genus_4_twelve_points():
    # a weight-12 block of 502,996 chains; chi(B_12(S)) = C(chi(S), 12)
    # with chi(S) = -6, and C(-6, 12) = C(17, 12) = 6188
    b = ce.betti(ce.build_gm(ce.load_algebra(presets.closed_surface_doc(4))), 12)
    assert [b.get(i) for i in range(14)] == [
        1, 8, 28, 85, 218, 532, 1098, 2289, 4187, 7748, 13034, 22079, 29735, 9372]
    assert dict(b.items()).keys() == set(range(14))
    assert sum((-1) ** i * d for i, d in b.items()) == 6188 == comb(17, 12)


@pytest.mark.parametrize("name", ["punctured-torus", "closed-surface-1"])
def test_betti_invariant_under_bracket_sign(name):
    g = gm(name)
    assert g.bracket, name
    flipped = flip_bracket(g)
    for k in range(7):
        assert ce.betti(flipped, k) == ce.betti(g, k), (name, k)
        block = g.block(k)
        for i, d in flipped.block(k).diffs.items():
            assert d == block.diffs[i].scale(-1), (name, k, i)


def whole_block_betti(g, k):
    block = g.block(k)
    return GradedDims({i: block.homology(i) for i in block.degrees()})


def renamed_surface(genus, rng):
    """A closed-surface algebra with its basis names shuffled, so that its
    slots sort in another order."""
    doc = presets.closed_surface_doc(genus)
    old = [b["name"] for b in doc["basis"]]
    new = ["c%d" % i for i in range(len(old))]
    rng.shuffle(new)
    rename = dict(zip(old, new))
    doc["basis"] = [dict(b, name=rename[b["name"]]) for b in doc["basis"]]
    doc["products"] = [
        {"left": rename[p["left"]], "right": rename[p["right"]],
         "result": [dict(r, basis=rename[r["basis"]]) for r in p["result"]]}
        for p in doc["products"]]
    return ce.load_algebra(doc)


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_betti_from_pieces_equals_whole_block_on_presets(name):
    g = gm(name)
    flipped = flip_bracket(g)
    for k in range(9):
        want = whole_block_betti(g, k)
        assert ce.betti(g, k) == want, (name, k)
        assert ce.betti(flipped, k) == want, (name, k)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_betti_from_pieces_equals_whole_block_on_shuffled_surfaces(genus):
    rng = random.Random(genus)
    for k in range(8):
        g = ce.build_gm(renamed_surface(genus, rng))
        want = whole_block_betti(g, k)
        assert ce.betti(g, k) == want, (genus, k)
        assert ce.betti(flip_bracket(g), k) == want, (genus, k)


def test_symmetries_found_on_surfaces():
    # x_i <-> y_i and the swaps of handles join the degree-1 classes of a
    # genus-g surface into one orbit of the permutations found
    for genus in (1, 2, 3):
        g = ce.build_gm(renamed_surface(genus, random.Random(genus)))
        perms = ce._symmetries(g)
        assert perms, genus
        odd = {i for i, s in enumerate(g.slots) if s.weight == 1 and s.gdeg == 0}
        orbit = {min(odd)}
        for _ in odd:
            orbit |= {p[i] for p in perms for i in orbit}
        assert orbit == odd, genus


def test_symmetry_search_that_runs_out_of_nodes_costs_time_only():
    # two degree-1 classes and one class in each degree 2..69: extending
    # a -> b maps the other 68 classes one node each, past _SEARCH_NODES
    basis = [("a", 1), ("b", 1)] + [("c%d" % d, d) for d in range(2, 70)]
    g = ce.build_gm(ce.load_algebra(presets.doc("wide", 71, basis, [])))
    assert len(g.slots) > ce._SEARCH_NODES
    assert ce._symmetries(g) == []
    block = ce.ce_block(g, 2)
    assert ce.betti(g, 2) == GradedDims({i: block.homology(i) for i in block.degrees()})


def test_betti_checks_orbit_piece_sizes(monkeypatch):
    # swapping the weight-1 slots z and x1 of the punctured torus is no
    # symmetry: it joins pieces of different sizes
    g = gm("punctured-torus")
    assert [repr(s) for s in g.slots[:2]] == ["Slot('z', deg=-1, w=1)", "Slot('x1', deg=0, w=1)"]
    monkeypatch.setattr(ce, "_symmetries", lambda g: [[1, 0, 2, 3, 4, 5]])
    with pytest.raises(AssertionError, match="weight-1 pieces 1 and 4 of one orbit differ in size"):
        ce.betti(g, 1)


def test_betti_checks_chain_counts_against_the_series(monkeypatch):
    monkeypatch.setattr(ce, "_sym_series", lambda g, wb: PoincareSeries.one(None, wb))
    with pytest.raises(AssertionError, match=re.escape(
            "weight-1 chains per degree [(0, 1), (1, 2)], but the series gives []")):
        ce.betti(gm("punctured-torus"), 1)


def test_betti_checks_listed_chains_against_counts(monkeypatch):
    monomials = ce._ChainTable.monomials
    monkeypatch.setattr(ce._ChainTable, "monomials", lambda self, t: monomials(self, t)[1:])
    with pytest.raises(AssertionError, match="weight-2 piece lists 0 chains in degree 2, counted 1"):
        ce.betti(gm("punctured-torus"), 2)


def test_ce_block_checks_listed_chains_against_counts(monkeypatch):
    monomials = ce._ChainTable.monomials
    monkeypatch.setattr(ce._ChainTable, "monomials", lambda self, t: monomials(self, t)[1:])
    with pytest.raises(AssertionError, match="weight-2 piece lists 2 chains in degree 2, counted 3"):
        ce.ce_block(gm("punctured-torus"), 2)


def test_betti_checks_image_keys_are_functions_of_the_key(monkeypatch):
    # swapping z and x1 is no symmetry: z~ and x1 y1 share a grading key,
    # but their images z~ and z y1 do not
    g = gm("punctured-torus")
    monkeypatch.setattr(ce, "_symmetries", lambda g: [[1, 0, 2, 3, 4, 5]])
    with pytest.raises(AssertionError, match="weight-2 piece -?[0-9]+ has two image keys"):
        ce.betti(g, 2)


def test_betti_lists_no_whole_block(monkeypatch):
    g = gm("closed-surface-2")
    want = whole_block_betti(g, 4)
    monomials = ce._ChainTable.monomials
    listed = []

    def record(self, target):
        listed.append(monomials(self, target))
        return listed[-1]

    monkeypatch.setattr(ce._ChainTable, "monomials", record)
    assert ce.betti(g, 4) == want
    assert sum(map(len, listed)) < sum(ce.chain_dims(g, 4).values())


def test_betti_hands_only_representative_pieces_to_assemble(monkeypatch):
    g = ce.build_gm(ce.load_algebra(presets.closed_surface_doc(3)))
    key = ce._grading(g, 6)
    _, orbits = ce._orbits(g, 6, key, ce._symmetries(g))
    counted = sum(c for _, targets in orbits for _, c in targets.values())
    whole = {}
    for deg, ms in oracles.ce_chains(g, 6).items():
        for m in ms:
            whole.setdefault(sum(e * kk for e, kk in zip(m, key)), {}).setdefault(deg, []).append(m)
    assemble = ce._assemble
    handed = []

    def record(g, k, bases):
        handed.append(bases)
        return assemble(g, k, bases)

    monkeypatch.setattr(ce, "_assemble", record)
    ce.betti(g, 6)
    # each basis handed over is one whole piece, in increasing order
    pieces = list(whole.values())
    assert all(bases in pieces for bases in handed)
    assert sum(len(ms) for bases in handed for ms in bases.values()) == counted
    assert counted < sum(ce.chain_dims(g, 6).values())


def test_assemble_checks_d_squared(monkeypatch):
    d_monomial = ce._d_monomial
    monkeypatch.setattr(ce, "_d_monomial",
                        lambda g, mono, sdeg: {m: 1 for m in d_monomial(g, mono, sdeg)})
    with pytest.raises(AssertionError, match=re.escape("d^2 != 0 in weight 4 at degree 5")):
        ce.ce_block(gm("closed-surface-1"), 4)


def test_euler_series_checks_the_chain_sum(monkeypatch):
    monkeypatch.setattr(ce, "_sym_series", lambda g, wb: PoincareSeries.one(None, wb))
    with pytest.raises(AssertionError,
                       match="Euler mismatch at weight 1: chain sum -1 vs series 0"):
        ce.euler_series(gm("punctured-torus"), 3)


@pytest.mark.parametrize("degrees, prod, message", [
    ({"a": 3}, {}, "basis element 'a' has degree 3 outside [0, 2]"),
    ({"a": 1, "b": 1, "p": 2}, {("a", "b"): {"a": 1}, ("b", "a"): {"a": -1}},
     "product a*b hits 'a' of degree 1, expected 2"),
    ({"a": 1, "b": 1, "p": 2}, {("a", "b"): {"p": 1}, ("b", "a"): {"p": 1}},
     "graded commutativity fails on (a, b)"),
    # (e e) a = a a = 0, e (e a) = e e = a
    ({"e": 0, "a": 0}, {("e", "e"): {"a": 1}, ("e", "a"): {"e": 1}, ("a", "e"): {"e": 1}},
     "associativity fails on (e, e, a)"),
    ({"a": 1}, {("a", "b"): {"a": 1}}, "product names unknown basis element ('a', 'b')"),
    ({"a": 1}, {("a", "a"): {"q": 1}}, "product result names unknown basis 'q'"),
], ids=["degree", "product-degree", "commutativity", "associativity", "unknown-name",
        "unknown-result-name"])
def test_calgebra_is_validated_where_it_is_built(degrees, prod, message):
    with pytest.raises(ce.AlgebraError, match=re.escape(message)):
        ce.CAlgebra("bad", 2, degrees, prod)


def all_lie_algebras():
    """build_gm of every preset and of shuffled surfaces of genus 1..3,
    each with its sign-flipped copy."""
    gs = [gm(name) for name in ALL_PRESETS]
    gs += [ce.build_gm(renamed_surface(genus, random.Random(genus))) for genus in (1, 2, 3)]
    return gs + [flip_bracket(g) for g in gs]


def test_build_gm_brackets_are_graded_lie_brackets():
    """Degree 0, weight-additive and antisymmetric; Jacobi is empty, since
    every bracket lands in weight 2 and weight-2 slots bracket to zero."""
    for g in all_lie_algebras():
        slot = {s.name: s for s in g.slots}
        for (x, y), res in g.bracket.items():
            assert slot[x].weight == slot[y].weight == 1, (g.algebra.name, x, y)
            for z in res:
                assert slot[z].gdeg == slot[x].gdeg + slot[y].gdeg, (g.algebra.name, x, y)
                assert slot[z].weight == 2, (g.algebra.name, x, y)
        for x in slot:
            for y in slot:
                sign = (-1) ** (slot[x].gdeg * slot[y].gdeg)
                flipped = {z: -sign * c for z, c in g.bracket_of(y, x).items()}
                assert g.bracket_of(x, y) == flipped, (g.algebra.name, x, y)


def assert_signed_lie_automorphism(g, perm):
    """perm, slot i -> slot perm[i], is a bijection of the slots that keeps
    weight and degree and moves a and a~ together, and some signs on the
    classes make [perm u, perm v] = s_u s_v perm [u, v] for every pair."""
    slots = g.slots
    assert sorted(perm) == list(range(len(slots)))
    cls = {}
    for s, j in zip(slots, perm):
        t = slots[j]
        assert (t.weight, t.gdeg) == (s.weight, s.gdeg)
        assert cls.setdefault(s.source, t.source) == t.source
    img = {s.name: slots[j].name for s, j in zip(slots, perm)}
    classes = sorted(cls)
    for signs in itertools.product((1, -1), repeat=len(classes)):
        sign = {s.name: dict(zip(classes, signs))[s.source] for s in slots}
        if all(g.bracket_of(img[u], img[v])
               == {img[w]: sign[u] * sign[v] * sign[w] * c for w, c in g.bracket_of(u, v).items()}
               for u in img for v in img):
            return
    raise AssertionError("no signs make %r a Lie automorphism of %s" % (perm, g.algebra.name))


def test_symmetries_are_signed_lie_automorphisms():
    found = 0
    for g in all_lie_algebras():
        for perm in ce._symmetries(g):
            assert_signed_lie_automorphism(g, perm)
            found += 1
    assert found


def image_of(g, cmap):
    """Slot -> (slot, sign) for the signed class map cmap."""
    return {s.name: (cmap[s.source][0] + ("~" if s.weight == 2 else ""), cmap[s.source][1])
            for s in g.slots}


def test_signed_permutation_with_one_wrong_sign_is_refused():
    g = gm("closed-surface-1")
    fixed = {"e": ("e", 1), "z": ("z", 1)}
    names = [s.name for s in g.slots]

    def holds(h, cmap):
        return all(ce._bracket_holds(h, image_of(h, cmap), u, v) for u in names for v in names)

    # [x1, y1] = z~ and [y1, x1] = -z~: the swap needs one sign flipped
    assert not ce._bracket_holds(g, image_of(g, {**fixed, "x1": ("y1", 1), "y1": ("x1", 1)}),
                                 "x1", "y1")
    assert holds(g, {**fixed, "x1": ("y1", 1), "y1": ("x1", -1)})
    assert holds(g, {"e": ("e", 1), "z": ("z", -1), "x1": ("y1", 1), "y1": ("x1", 1)})
    # the sign-flipped copy has the same automorphisms
    flipped = flip_bracket(g)
    assert not ce._bracket_holds(
        flipped, image_of(flipped, {**fixed, "x1": ("y1", 1), "y1": ("x1", 1)}), "x1", "y1")
    assert holds(flipped, {**fixed, "x1": ("y1", 1), "y1": ("x1", -1)})


@pytest.mark.parametrize("name", ALL_PRESETS)
def test_differential_preserves_grading_key(name):
    g = gm(name)
    for k in range(7):
        key = ce._grading(g, k)
        keys = {m: sum(e * kk for e, kk in zip(m, key))
                for ms in oracles.ce_chains(g, k).values() for m in ms}
        block = ce.ce_block(g, k)
        for i, d in block.diffs.items():
            for r, row in d.rows.items():
                for c in row:
                    assert keys[block.bases[i - 1][r]] == keys[block.bases[i][c]], (name, k, i)


def test_stability_report_stable_range():
    for name in ("euclidean-3", "solid-torus", "r3-minus-2"):
        rows = ce.stability_report(gm(name), 4)
        assert rows, name
        for k, i, ok in rows:
            if i <= k:
                assert ok, (name, k, i)


# For each preset with n > 2 and each k = 0..5: the source degrees i of the
# map weight k+1 -> k, and those where the induced map is not an iso.
STABILITY_ROWS = {
    "euclidean-3": [
        ([0], []), ([0], []), ([0], []), ([0], []), ([0], []), ([0], [])],
    "euclidean-4": [
        ([0], []), ([0, 3], [3]), ([0, 3], []), ([0, 3], []), ([0, 3], []),
        ([0, 3], [])],
    "handlebody-1": [
        ([0, 1], [1]), ([0, 1], []), ([0, 1], []), ([0, 1], []), ([0, 1], []),
        ([0, 1], [])],
    "handlebody-2": [
        ([0, 1], [1]), ([0, 1, 2], [2]), ([0, 1, 2], []), ([0, 1, 2], []),
        ([0, 1, 2], []), ([0, 1, 2], [])],
    "handlebody-3": [
        ([0, 1], [1]), ([0, 1, 2], [2]), ([0, 1, 2, 3], [3]),
        ([0, 1, 2, 3], []), ([0, 1, 2, 3], []), ([0, 1, 2, 3], [])],
    "r3-minus-1": [
        ([0, 2], [2]), ([0, 2, 4], [4]), ([0, 2, 4, 6], [6]),
        ([0, 2, 4, 6, 8], [8]), ([0, 2, 4, 6, 8, 10], [10]),
        ([0, 2, 4, 6, 8, 10, 12], [12])],
    "r3-minus-2": [
        ([0, 2], [2]), ([0, 2, 4], [4]), ([0, 2, 4, 6], [6]),
        ([0, 2, 4, 6, 8], [8]), ([0, 2, 4, 6, 8, 10], [10]),
        ([0, 2, 4, 6, 8, 10, 12], [12])],
    "r3-minus-3": [
        ([0, 2], [2]), ([0, 2, 4], [4]), ([0, 2, 4, 6], [6]),
        ([0, 2, 4, 6, 8], [8]), ([0, 2, 4, 6, 8, 10], [10]),
        ([0, 2, 4, 6, 8, 10, 12], [12])],
    "s1xr2": [
        ([0, 1], [1]), ([0, 1], []), ([0, 1], []), ([0, 1], []), ([0, 1], []),
        ([0, 1], [])],
    "solid-torus": [
        ([0, 1], [1]), ([0, 1], []), ([0, 1], []), ([0, 1], []), ([0, 1], []),
        ([0, 1], [])],
}


def test_stability_report_rows_are_pinned():
    assert sorted(STABILITY_ROWS) == [
        name for name in ALL_PRESETS if presets.load_preset(name).n > 2]
    for name, per_k in STABILITY_ROWS.items():
        want = [(k, i, i not in bad) for k, (degrees, bad) in enumerate(per_k)
                for i in degrees]
        assert ce.stability_report(gm(name), 6) == want, name


def test_stability_rejects_small_dimension():
    with pytest.raises(ce.StabilityError):
        ce.stability_report(gm("euclidean-2"), 3)


def test_stability_needs_exactly_one_top_class():
    for basis, found in (([("a", 2)], 0), ([("a", 3), ("b", 3)], 2)):
        g = ce.build_gm(ce.load_algebra(presets.doc("no-point", 3, basis, [])))
        with pytest.raises(ce.StabilityError,
                           match="expected exactly one top-degree class, found %d" % found):
            ce.stability_report(g, 2)


# Open 4- and 6-manifolds whose cohomology has nonzero products, each minus
# a point: their CE differentials are nonzero.  The rows were recorded with
# the rank of [phi Z | B], phi Z the image of the source's cycles and B the
# target's boundaries, before stability_report read them off Betti numbers.
OPEN_WITH_BRACKETS = {
    "cp2-minus-point": (
        4, [("a", 2), ("b", 4)], [("a", "a", [("b", 1)])],
        [([0, 2], [2]), ([0, 2, 3, 4, 5], [5]), ([0, 2, 3, 4, 5, 6, 7], [7]),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9], []), ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], []),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13], [])]),
    "s2xs2-minus-point": (
        4, [("a", 2), ("b", 2), ("p", 4)],
        [("a", "b", [("p", 1)]), ("b", "a", [("p", 1)])],
        [([0, 2], [2]), ([0, 2, 3, 4, 5], [4, 5]), ([0, 2, 3, 4, 5, 6, 7], [6, 7]),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10], [8, 9, 10]),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], [10, 11, 12]),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14], [12, 13, 14])]),
    "cp2-cp2-minus-point": (
        4, [("a", 2), ("b", 2), ("p", 4)],
        [("a", "a", [("p", 1)]), ("b", "b", [("p", 1)])],
        [([0, 2], [2]), ([0, 2, 3, 4, 5], [4, 5]), ([0, 2, 3, 4, 5, 6, 7], [6, 7]),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10], [8, 9, 10]),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12], [10, 11, 12]),
         ([0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14], [12, 13, 14])]),
    "s3xs3-minus-point": (
        6, [("a", 3), ("b", 3), ("p", 6)],
        [("a", "b", [("p", 1)]), ("b", "a", [("p", -1)])],
        [([0, 3], [3]), ([0, 3, 5, 6, 8], [8]), ([0, 3, 5, 6, 8, 11], [8, 11]),
         ([0, 3, 5, 6, 8, 11, 13, 14, 16], [11, 16]),
         ([0, 3, 5, 6, 8, 11, 13, 14, 16, 19], [16, 19]),
         ([0, 3, 5, 6, 8, 11, 13, 14, 16, 19, 21, 22, 24], [19, 24])]),
}


@pytest.mark.parametrize("name", sorted(OPEN_WITH_BRACKETS))
def test_stability_rows_with_brackets_are_pinned(name):
    n, basis, products, per_k = OPEN_WITH_BRACKETS[name]
    g = ce.build_gm(ce.load_algebra(presets.doc(name, n, basis, products)))
    assert g.bracket
    want = [(k, i, i not in bad) for k, (degrees, bad) in enumerate(per_k) for i in degrees]
    assert ce.stability_report(g, 6) == want


# closed even-dimensional manifolds: the unit brackets with the point slot
CLOSED_EVEN = {
    "s4": presets.doc("s4", 4, [("e", 0), ("p", 4)], [
        ("e", "e", [("e", 1)]), ("e", "p", [("p", 1)]), ("p", "e", [("p", 1)])]),
    "cp2": presets.doc("cp2", 4, [("e", 0), ("a", 2), ("b", 4)], [
        ("e", "e", [("e", 1)]), ("e", "a", [("a", 1)]), ("a", "e", [("a", 1)]),
        ("e", "b", [("b", 1)]), ("b", "e", [("b", 1)]), ("a", "a", [("b", 1)])]),
}


@pytest.mark.parametrize("name", sorted(CLOSED_EVEN))
def test_stability_refuses_closed_even_manifolds(name, tmp_path, capsys):
    with pytest.raises(ce.StabilityError, match="nonzero bracket"):
        ce.stability_report(ce.build_gm(ce.load_algebra(CLOSED_EVEN[name])), 3)
    path = tmp_path / ("%s.json" % name)
    path.write_text(json.dumps(CLOSED_EVEN[name]))
    code = cli.main(["ce", "stability", "--algebra", str(path), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 2
    assert json.loads(out)["error"]["type"] == "StabilityError"


def test_euler_series_matches_betti_euler():
    for name in ("punctured-torus", "solid-torus", "euclidean-4"):
        g = gm(name)
        series = ce.euler_series(g, 6)
        for k in range(7):
            chi = sum(((-1) ** i) * d for i, d in ce.betti(g, k).items())
            assert series.coefficient(0, k) == chi, (name, k)


def test_euler_series_builds_no_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("a block was built")

    monkeypatch.setattr(ce, "ce_block", refuse)
    monkeypatch.setattr(ce, "_assemble", refuse)
    monkeypatch.setattr(ce._ChainTable, "monomials", refuse)
    series = ce.euler_series(gm("closed-surface-1"), 6)
    # chi(B_k(T^2)) = binomial(chi(T^2), k) = 0 for k >= 1
    assert series.coeffs == {(0, 0): 1}


def test_chain_dims_equal_enumerated_counts():
    algebras = [presets.load_preset(name) for name in ALL_PRESETS]
    algebras += [ce.load_algebra(presets.closed_surface_doc(genus)) for genus in range(5)]
    for a in algebras:
        g = ce.build_gm(a)
        for k in range(8):
            enumerated = Counter({deg: len(ms) for deg, ms in oracles.ce_chains(g, k).items()})
            assert ce.chain_dims(g, k) == enumerated, (a.name, k)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        ce.chain_dims(g, -1)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        ce.ce_block(g, -1)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        ce.betti(g, -1)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        ce.euler_series(g, -1)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        ce.stability_report(g, -1)
    with pytest.raises(ValueError, match="weight must be nonnegative"):
        ce.sym_homology_odd({0: 1}, -1)


def test_ce_block_bases_equal_the_reference_lister():
    algebras = [(presets.load_preset(name), 8) for name in ALL_PRESETS]
    algebras += [(ce.load_algebra(presets.closed_surface_doc(genus)), 7) for genus in range(5)]
    for a, bound in algebras:
        g = ce.build_gm(a)
        for k in range(bound):
            assert ce.ce_block(g, k).bases == oracles.ce_chains(g, k), (a.name, k)


def test_labeled_series_identity_and_guards():
    a = presets.load_preset("solid-torus")
    assert ce.labeled_series_check(a, 2, 16)
    with pytest.raises(ValueError):
        ce.labeled_series_check(a, 3, 16)
    with pytest.raises(ValueError):
        ce.labeled_series_check(presets.load_preset("euclidean-2"), 2, 16)


def test_sym_homology_odd_small():
    h = GradedDims({0: 1, 1: 2})
    sym2 = ce.sym_homology_odd(h, 2)
    # Sym^2 of one even class e and two odd x, y: e^2; ex, ey; xy
    assert dict(sym2.items()) == {0: 1, 1: 2, 2: 1}
    with pytest.raises(ValueError, match="homology degrees must be nonnegative"):
        ce.sym_homology_odd({-1: 1}, 2)


def test_load_algebra_validation():
    doc = {"name": "bad", "ambient_dim": 2,
           "basis": [{"name": "e", "degree": 0},
                     {"name": "x", "degree": 1}],
           "products": [{"left": "e", "right": "e",
                         "result": [{"basis": "x", "coeff": 1}]}]}
    with pytest.raises(ce.AlgebraError):
        ce.load_algebra(doc)
    doc = {"name": "bad2", "ambient_dim": 2,
           "basis": [{"name": "x", "degree": 1},
                     {"name": "y", "degree": 1},
                     {"name": "z", "degree": 2}],
           "products": [{"left": "x", "right": "y",
                         "result": [{"basis": "z", "coeff": 1}]},
                        {"left": "y", "right": "x",
                         "result": [{"basis": "z", "coeff": 1}]}]}
    with pytest.raises(ce.AlgebraError):
        ce.load_algebra(doc)


def _torus_doc(**changes):
    doc = {"name": "t", "ambient_dim": 2,
           "basis": [{"name": "x", "degree": 1}, {"name": "y", "degree": 1},
                     {"name": "z", "degree": 2}],
           "products": [{"left": "x", "right": "y",
                         "result": [{"basis": "z", "coeff": 1}]},
                        {"left": "y", "right": "x",
                         "result": [{"basis": "z", "coeff": -1}]}]}
    doc.update(changes)
    return doc


@pytest.mark.parametrize("doc, named", [
    (_torus_doc(basis=[{"name": "x"}]), "{'name': 'x'}"),
    (_torus_doc(basis=[{"name": "x", "degree": "one"}]), "'one'"),
    (_torus_doc(basis=[{"name": 3, "degree": 1}]), "{'name': 3"),
    (_torus_doc(basis=[{"name": "x", "degree": 1.5}]), "1.5"),
    (_torus_doc(basis=["x"]), "'x'"),
    (_torus_doc(basis="xyz"), "'xyz'"),
    (_torus_doc(products=[{"left": "x", "result": []}]), "{'left': 'x'"),
    (_torus_doc(products=[{"left": "x", "right": "y", "result": [{"basis": "z"}]}]),
     "{'basis': 'z'}"),
    (_torus_doc(products=[{"left": "x", "right": "y", "result": "z"}]), "'z'"),
    (_torus_doc(products={"left": "x"}), "{'left': 'x'}"),
    (_torus_doc(name=["t"]), "'name': ['t']"),
    (_torus_doc(ambient_dim=2.5), "'ambient_dim': 2.5"),
    (_torus_doc(ambient_dim="3"), "'ambient_dim': '3'"),
    (_torus_doc(ambient_dim=True), "'ambient_dim': True"),
    ({"ambient_dim": 2, "basis": []}, "needs str 'name', int 'ambient_dim'"),
    ({"name": "t", "ambient_dim": 2}, "malformed algebra document: 'basis'"),
    (_torus_doc(ambient_dim=0), "ambient_dim must be positive"),
    (_torus_doc(basis=[{"name": "x", "degree": 3}], products=[]), "degree 3 outside [0, 2]"),
    (_torus_doc(basis=[{"name": "x", "degree": 1}] * 2), "duplicate basis name 'x'"),
    (_torus_doc(products=[{"left": "x", "right": "q"}]), "unknown basis element ('x', 'q')"),
    (_torus_doc(products=[{"left": "x", "right": "y", "result": [{"basis": "q", "coeff": 1}]}]),
     "names unknown basis 'q'"),
    (_torus_doc(products=_torus_doc()["products"][:1] * 2), "duplicate product entry ('x', 'y')"),
    (_torus_doc(products=[{"left": "x", "right": "y", "result": []}] + _torus_doc()["products"]),
     "duplicate product entry ('x', 'y')"),
    ({"name": "t", "ambient_dim": 2,
      "basis": [{"name": "a", "degree": 0}, {"name": "b", "degree": 0}],
      "products": [{"left": "a", "right": "a", "result": [{"basis": "b", "coeff": 1}]},
                   {"left": "a", "right": "b", "result": [{"basis": "a", "coeff": 1}]},
                   {"left": "b", "right": "a", "result": [{"basis": "a", "coeff": 1}]}]},
     "associativity fails on (a, a, b)"),
], ids=["no-degree", "degree-not-int", "name-not-str", "degree-fractional", "item-not-object",
        "basis-not-list", "no-right", "term-no-coeff", "result-not-list",
        "products-not-list", "doc-name-not-str", "ambient-dim-fractional", "ambient-dim-str",
        "ambient-dim-bool", "no-name", "no-basis", "ambient-dim-zero", "degree-above-n",
        "duplicate-basis", "product-unknown-name", "result-unknown-name", "duplicate-product",
        "duplicate-after-empty", "not-associative"])
def test_load_algebra_refuses_malformed_items(doc, named, tmp_path, capsys):
    assert ce.load_algebra(_torus_doc()).names
    with pytest.raises(ce.AlgebraError, match=re.escape(named)):
        ce.load_algebra(doc)
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["ce", "betti", "--algebra", str(path), "--k", "2",
                     "--format", "json"])
    error = json.loads(capsys.readouterr().out)["error"]
    assert (code, error["type"]) == (2, "AlgebraError")
    assert named in error["message"]


def test_load_algebra_stores_no_zero_coefficient():
    # x*x = z - z: the pair cancels to no entry, as if it were not listed
    cancel = _torus_doc(products=_torus_doc()["products"] + [
        {"left": "x", "right": "x",
         "result": [{"basis": "z", "coeff": 1}, {"basis": "z", "coeff": -1}]}])
    a, b = ce.load_algebra(cancel), ce.load_algebra(_torus_doc())
    assert ("x", "x") not in a.prod
    assert a.prod == b.prod
    for k in (1, 2, 3):
        assert ce.betti(ce.build_gm(a), k) == ce.betti(ce.build_gm(b), k), k


def test_algebra_document_round_trip(tmp_path):
    document = presets.preset_document("punctured-torus")
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(document))
    a = ce.load_algebra(json.loads(path.read_text()))
    assert a.name == "punctured-torus"
    assert dict(ce.betti(ce.build_gm(a), 2).items()) == {0: 1, 1: 2, 2: 2}
