"""Braid presentations, coset enumeration, and the Artin action."""

import itertools
import re
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from confspace import braid, cli


letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
words = st.lists(letters, max_size=8).map(tuple)


@settings(max_examples=100, deadline=None)
@given(words)
def test_free_reduce_idempotent_and_inverse(w):
    r = braid.free_reduce(w)
    assert braid.free_reduce(r) == r
    assert braid.free_reduce(braid.concat(r, braid.word_inverse(r))) == ()


@settings(max_examples=100, deadline=None)
@given(words)
def test_cyclic_reduce_is_shorter_conjugate(w):
    c = braid.cyclic_reduce(w)
    assert len(c) <= len(braid.free_reduce(w))
    if c:
        assert -c[0] != c[-1]


def test_braid_presentation_shape():
    pres = braid.braid_presentation(4)
    assert pres.gens == ["s1", "s2", "s3"]
    assert pres.abelianization() == (1, [])


def test_symmetric_presentation_abelianization():
    for k in (2, 3, 4, 5):
        assert braid.symmetric_presentation(k).abelianization() == (0, [2])


def test_artin_action_frozen_images():
    a = braid.artin_action((1,), 3)
    assert a.images == [(1, 2, -1), (1,), (3,)]
    assert a.permutation() == {1: 2, 2: 1, 3: 3}
    assert not a.is_pure()
    assert braid.artin_action((1, 1), 3).is_pure()


def test_artin_action_is_faithful_on_relations():
    assert braid.braid_words_equal((1, 2, 1), (2, 1, 2), 3)
    assert not braid.braid_words_equal((1, 2), (2, 1), 3)
    assert not braid.braid_words_equal((1,), (), 3)
    assert braid.braid_words_equal((1, 3), (3, 1), 4)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3).filter(lambda x: x != 0),
                max_size=6).map(tuple))
def test_artin_action_composes(w):
    k = 4
    half = len(w) // 2
    a = braid.artin_action(w[:half], k)
    b = braid.artin_action(w[half:], k)
    assert a.compose(b) == braid.artin_action(w, k)


def test_winding_generators_are_pure():
    for k in (3, 4, 5):
        for i in range(1, k):
            for j in range(i + 1, k + 1):
                w = braid.winding_generator(i, j)
                assert braid.artin_action(w, k).is_pure(), (i, j)


def test_coset_table_kernel_index():
    for k in (3, 4):
        pres = braid.braid_presentation(k)
        images = []
        for i in range(1, k):
            perm = list(range(1, k + 1))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            images.append(tuple(perm))
        table = braid.coset_table_from_hom(pres, images, "kernel")
        assert table.n == factorial(k)


def test_coset_table_stabilizer_index():
    k = 4
    pres = braid.braid_presentation(k)
    images = []
    for i in range(1, k):
        perm = list(range(1, k + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        images.append(tuple(perm))
    table = braid.coset_table_from_hom(pres, images, "stabilizer", point=k)
    assert table.n == k


def test_coset_table_rejects_non_homomorphism():
    pres = braid.symmetric_presentation(3)
    with pytest.raises(braid.GroupError):
        braid.coset_table_from_hom(pres, [(2, 1, 3), (1, 2, 3)], "kernel")


@pytest.mark.parametrize("call, message", [
    (lambda: braid.Presentation(["a", "a"], []), "duplicate generator names"),
    (lambda: braid.braid_presentation(0), "need k >= 1"),
    (lambda: braid.symmetric_presentation(0), "need k >= 1"),
    (lambda: braid.coset_table_from_hom(braid.symmetric_presentation(3), [(2, 1, 3)],
                                        "kernel"), "one permutation per generator"),
    (lambda: braid.coset_table_from_hom(braid.symmetric_presentation(3),
                                        [(2, 1, 3), (1, 3)], "kernel"),
     "permutations of the same degree"),
    (lambda: braid.coset_table_from_hom(braid.symmetric_presentation(3),
                                        [(2, 1, 3), (1, 3, 2)], "orbit"),
     "kind must be 'kernel' or 'stabilizer'"),
    (lambda: braid.artin_action((1, 3), 3), "letter 3 is not a valid B_3 generator"),
    (lambda: braid.winding_generator(2, 2), "need 1 <= i < j"),
    (lambda: braid.coset_rep_word(0, 3), "need 1 <= ell <= k"),
    (lambda: braid.verify_paper_relations(2), "need k >= 3"),
], ids=["duplicate-generators", "braid-k-zero", "symmetric-k-zero", "image-count",
        "image-degree", "unknown-kind", "artin-letter", "winding-pair", "coset-rep-index",
        "relations-k-two"])
def test_refusals(call, message):
    with pytest.raises(braid.GroupError, match=re.escape(message)):
        call()


def test_schreier_transversal_prefix_closed():
    pres = braid.symmetric_presentation(4)
    images = []
    for i in range(1, 4):
        perm = list(range(1, 5))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        images.append(tuple(perm))
    table = braid.coset_table_from_hom(pres, images, "stabilizer", point=4)
    reps = braid.schreier_transversal(table)
    assert len(reps) == table.n
    rep_words = set(reps.values())
    for w in reps.values():
        for i in range(len(w)):
            assert w[:i] in rep_words


def _second_bfs_transversal(table):
    """The transversal as a second breadth-first search over the finished
    table found it: generators in order, +g before -g."""
    reps = {1: ()}
    queue = [1]
    for c in queue:
        for g in range(1, len(table.action) + 1):
            for e in (1, -1):
                nxt = table.step(c, g * e)
                if nxt not in reps:
                    reps[nxt] = reps[c] + (g * e,)
                    queue.append(nxt)
    return reps


def _tuple_action(k, r):
    """The adjacent transpositions of 1..k acting on ordered r-tuples of
    strands, as permutations of the tuples' indices."""
    pts = list(itertools.permutations(range(1, k + 1), r))
    idx = {p: i + 1 for i, p in enumerate(pts)}
    return [tuple(idx[tuple(perm[x - 1] for x in p)] for p in pts)
            for perm in cli._hom_images("permutation", k)]


def _table_cases():
    """(presentation, images, kind, point) over braid and symmetric groups
    with k <= 6, both targets, the kernel and the stabilizer of every
    point, and the tuple action at (k, r) = (7, 3)."""
    for k in range(2, 7):
        for pres in (braid.braid_presentation(k), braid.symmetric_presentation(k)):
            for target in ("permutation", "sign"):
                images = cli._hom_images(target, k)
                yield pres, images, "kernel", None
                for point in range(1, len(images[0]) + 1):
                    yield pres, images, "stabilizer", point
    yield braid.braid_presentation(7), _tuple_action(7, 3), "stabilizer", 1


def test_transversal_is_the_second_bfs_and_the_table_is_an_action():
    """The transversal recorded while the table is built equals the one a
    second search over the finished table finds; each representative
    reaches its coset, the inverse table inverts the action, and every
    relator acts trivially on the cosets."""
    cases = 0
    for pres, images, kind, point in _table_cases():
        table = braid.coset_table_from_hom(pres, images, kind, point)
        reps = braid.schreier_transversal(table)
        assert reps == _second_bfs_transversal(table), (pres.gens, kind, point)
        assert len(reps) == table.n
        cosets = range(1, table.n + 1)
        for c in cosets:
            assert table.trace(1, reps[c]) == c
            for g in range(1, len(pres.gens) + 1):
                assert table.step(table.step(c, g), -g) == c
        for r in pres.relators:
            assert all(table.trace(c, r) == c for c in cosets)
        cases += 1
    assert cases == 81


def test_schreier_transversal_returns_a_copy():
    table = braid.coset_table_from_hom(braid.symmetric_presentation(3),
                                       [(2, 1, 3), (1, 3, 2)], "kernel")
    reps = braid.schreier_transversal(table)
    reps[1] = (1,)
    assert braid.schreier_transversal(table)[1] == ()


def _rewritten_relators(pres, table, reps):
    """Every ambient relator rewritten at every coset in the Schreier
    generators, freely and cyclically reduced, with no deduplication."""
    gen_of = {}
    for c in range(1, table.n + 1):
        for g in range(1, len(pres.gens) + 1):
            if braid.concat(reps[c], (g,), braid.word_inverse(reps[table.step(c, g)])):
                gen_of[(c, g)] = len(gen_of) + 1
    for c in range(1, table.n + 1):
        for r in pres.relators:
            out, at = [], c
            for s in r:
                if s > 0:
                    if (at, s) in gen_of:
                        out.append(gen_of[(at, s)])
                    at = table.step(at, s)
                else:
                    at = table.step(at, s)
                    if (at, -s) in gen_of:
                        out.append(-gen_of[(at, -s)])
            yield braid.cyclic_reduce(out)


def test_no_rewritten_relator_is_empty():
    """subgroup_presentation keeps no guard for an empty rewritten relator:
    a non-empty cyclically reduced relator traces a closed path in the
    coset graph that never turns straight back, and contracting the
    transversal's tree leaves such a path non-empty."""
    for pres, images, kind, point in _table_cases():
        table = braid.coset_table_from_hom(pres, images, kind, point)
        reps = braid.schreier_transversal(table)
        assert all(_rewritten_relators(pres, table, reps)), (pres.gens, kind, point)


def test_alternating_subgroup_of_sym3():
    pres = braid.symmetric_presentation(3)
    table = braid.coset_table_from_hom(pres, [(2, 1, 3), (2, 1, 3)], "kernel")
    assert table.n == 2
    sub = braid.subgroup_presentation(pres, table,
                                      braid.schreier_transversal(table))
    assert sub.abelianization() == (0, [3])


def test_pure_braid_subgroup_of_b3():
    pres = braid.braid_presentation(3)
    table = braid.coset_table_from_hom(pres, [(2, 1, 3), (1, 3, 2)], "kernel")
    assert table.n == 6
    sub = braid.subgroup_presentation(pres, table,
                                      braid.schreier_transversal(table))
    assert sub.abelianization() == (3, [])
    # every subgroup generator's ambient word really lies in the kernel
    assert sub.ambient_words is not None
    for w in sub.ambient_words.values():
        assert table.trace(1, w) == 1


def test_pure_braid_subgroup_of_b6_abelianization():
    """H_1 of the ordered configuration space of 6 points in the plane is
    Z^15, one generator per pair of strands."""
    k = 6
    images = [tuple(range(1, i)) + (i + 1, i) + tuple(range(i + 2, k + 1))
              for i in range(1, k)]
    pres = braid.braid_presentation(k)
    table = braid.coset_table_from_hom(pres, images, "kernel")
    assert table.n == factorial(k)
    sub = braid.subgroup_presentation(pres, table,
                                      braid.schreier_transversal(table))
    assert sub.abelianization() == (k * (k - 1) // 2, [])


def test_strand_stabilizer_presentation_is_consistent():
    k = 4
    pres = braid.braid_presentation(k)
    images = []
    for i in range(1, k):
        perm = list(range(1, k + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        images.append(tuple(perm))
    table = braid.coset_table_from_hom(pres, images, "stabilizer", point=k)
    sub = braid.subgroup_presentation(pres, table,
                                      braid.schreier_transversal(table))
    for w in sub.ambient_words.values():
        assert table.trace(1, w) == 1
    for rel in sub.relators:
        # relators written back in ambient letters must act trivially
        ambient = []
        for s in rel:
            w = sub.ambient_words[sub.gens[abs(s) - 1]]
            ambient.extend(w if s > 0 else braid.word_inverse(w))
        assert braid.artin_action(tuple(ambient), k) == \
            braid.FreeAutomorphism.identity(k)


def test_verify_paper_relations_catalogue():
    for k in (3, 4, 5, 6):
        recs = braid.verify_paper_relations(k)
        assert all(r["ok"] for r in recs)
        assert any(r["expected"] is False for r in recs)
    # every conjugation family is instantiated once the strand count allows
    families = {r["family"] for r in braid.verify_paper_relations(6)}
    for i in range(1, 12):
        assert "family:%d" % i in families, i


def test_presentation_text():
    pres = braid.braid_presentation(3)
    assert pres.to_text() == "gens: s1,s2 ; rels: s1s2s1s2^-1s1^-1s2^-1"
    assert repr(pres) == "Presentation(gens: s1,s2 ; rels: s1s2s1s2^-1s1^-1s2^-1)"


def test_word_str():
    pres = braid.braid_presentation(3)
    assert pres.word_str((1, -2, -2, 1)) == "s1s2^-2s1"
    assert pres.word_str((2, 2, 2)) == "s2^3"
    assert pres.word_str(()) == "1"


def test_sigma_inverse_images_invert():
    # the actions of sigma_i and sigma_i^-1 compose to the identity
    for k in range(2, 6):
        ident = braid.FreeAutomorphism.identity(k)
        for i in range(1, k):
            for e in (1, -1):
                a = braid._sigma_auto(i, e, k).compose(braid._sigma_auto(i, -e, k))
                assert a == ident, (k, i, e)


def test_permutation_refuses_non_conjugate_image():
    with pytest.raises(braid.GroupError, match="generator 1"):
        braid.FreeAutomorphism(2, [(1, 2), (2,)]).permutation()
