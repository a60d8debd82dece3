"""The integral cohomology ring of ordered configuration spaces of R^n.

Generators a_ab (1 <= a != b <= k) of degree n-1 satisfy

    a_ba   = (-1)^n a_ab,
    a_ab^2 = 0,
    a_ab a_bc + a_bc a_ca + a_ca a_ab = 0   (the three-term relation),

and generators graded-commute with the Koszul sign (-1)^((n-1)^2) per
transposition.  Products of generators rewrite to the admissible basis:
monomials a_{a1 b1} ... a_{am bm} with a_l < b_l and b_1 < ... < b_m.

A monomial is represented as a tuple of (a, b) index pairs; a class is a
finitely supported integer (or field) combination of admissible monomials.

Rewriting runs by downward induction on the largest repeated b-index: for
x, y < b the three-term relation gives the two-term expansion

    a_xb a_yb = (-1)^(n+1) a_yx a_xb + (-1)^(1+(n-1)^2) a_yx a_yb,

whose right side only involves smaller repeated indices, so the measure
(largest repeated b, number of factors carrying it) strictly decreases.
"""

from __future__ import annotations

from itertools import combinations, product

from .graded import LinearCombination, product_one_plus_jt


def monomial_key(mono):
    """Deterministic ordering key: lex on the flattened (b, a) sequence."""
    flat = []
    for a, b in mono:
        flat.extend((b, a))
    return tuple(flat)


def monomial_str(mono):
    if not mono:
        return "1"
    parts = []
    for a, b in mono:
        if a <= 9 and b <= 9:
            parts.append("a%d%d" % (a, b))
        else:
            parts.append("a%d_%d" % (a, b))
    return "*".join(parts)


def parse_monomial(text):
    """Inverse of monomial_str: "a12*a23" -> ((1, 2), (2, 3))."""
    text = text.strip()
    if text in ("1", ""):
        return ()
    pairs = []
    for atom in text.split("*"):
        atom = atom.strip()
        if not atom.startswith("a"):
            raise ValueError("bad generator %r" % atom)
        body = atom[1:]
        if "_" in body:
            a, b = body.split("_")
        elif len(body) == 2:
            a, b = body[0], body[1]
        else:
            raise ValueError("ambiguous generator %r; use a<i>_<j> for indices over 9" % atom)
        pairs.append((int(a), int(b)))
    return tuple(pairs)


def _monomial_tuple(mono):
    return tuple(tuple(p) for p in mono)


class CohomologyClass(LinearCombination):
    """Finitely supported map admissible monomial -> coefficient, in context (k, n)."""

    normalize = staticmethod(_monomial_tuple)
    sort_key = staticmethod(monomial_key)
    label = staticmethod(monomial_str)


def generator(k, n, a, b):
    return normal_form([(a, b)], k, n)


def admissible_basis(k, n, degree):
    """All admissible monomials of the given degree, in flattened-(b,a) lex order."""
    if k < 0 or n < 2:
        raise ValueError("need k >= 0 and n >= 2")
    if degree < 0 or (degree % (n - 1)) != 0:
        return []
    m = degree // (n - 1)
    if m == 0:
        return [()]
    if m > k - 1:
        return []
    out = []
    for bs in combinations(range(2, k + 1), m):
        for aa in product(*(range(1, b) for b in bs)):
            out.append(tuple(zip(aa, bs)))
    out.sort(key=monomial_key)
    return out


def _check_pair(a, b, k):
    if not (1 <= a <= k and 1 <= b <= k) or a == b:
        raise ValueError("invalid generator indices (%r, %r) for k=%d" % (a, b, k))


def normal_form(word, k, n):
    """Rewrite a product of generators to the admissible basis.

    word: iterable of (a, b) pairs, not necessarily oriented or ordered.
    Returns the equal CohomologyClass supported on admissible monomials.
    """
    word = tuple((int(a), int(b)) for a, b in word)
    for a, b in word:
        _check_pair(a, b, k)
    swap_sign = (-1) ** n          # a_ba = (-1)^n a_ab
    trans_sign = (-1) ** ((n - 1) ** 2)  # Koszul sign per generator transposition
    result = {}
    stack = [(word, 1)]
    while stack:
        w, coeff = stack.pop()
        # orient every pair upward
        oriented = []
        for a, b in w:
            if a > b:
                a, b = b, a
                coeff *= swap_sign
            oriented.append((a, b))
        # a repeated generator kills the word (nilpotence + commutation)
        if len(set(oriented)) != len(oriented):
            continue
        # sort by (b, a), tracking the Koszul sign of the permutation
        if trans_sign == -1:
            inversions = 0
            for i in range(len(oriented)):
                for j in range(i + 1, len(oriented)):
                    if (oriented[i][1], oriented[i][0]) > (oriented[j][1], oriented[j][0]):
                        inversions += 1
            if inversions % 2:
                coeff = -coeff
        oriented.sort(key=lambda p: (p[1], p[0]))
        # locate the last adjacent pair sharing a b-index
        clash = None
        for i in range(len(oriented) - 1, 0, -1):
            if oriented[i][1] == oriented[i - 1][1]:
                clash = i
                break
        if clash is None:
            mono = tuple(oriented)
            result[mono] = result.get(mono, 0) + coeff
            continue
        x = oriented[clash - 1][0]
        y = oriented[clash][0]
        b = oriented[clash][1]
        head = tuple(oriented[:clash - 1])
        tail = tuple(oriented[clash + 1:])
        stack.append((head + ((y, x), (x, b)) + tail, coeff * ((-1) ** (n + 1))))
        stack.append((head + ((y, x), (y, b)) + tail, coeff * ((-1) ** (1 + (n - 1) ** 2))))
    return CohomologyClass(k, n, result)


def multiply(x, y):
    """Product of two classes: concatenate words, rewrite to normal form."""
    x._check(y)
    acc = CohomologyClass(x.k, x.n)
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            piece = normal_form(m1 + m2, x.k, x.n).scale(c1 * c2)
            acc = acc.add(piece)
    return acc


def sigma_act(perm, x):
    """Relabel generator indices by a permutation of [1, k], then rewrite.

    perm: dict mapping 1..k -> 1..k.
    """
    table = _perm_table(perm, x.k)
    acc = CohomologyClass(x.k, x.n)
    for mono, c in x.terms.items():
        word = tuple((table[a], table[b]) for a, b in mono)
        acc = acc.add(normal_form(word, x.k, x.n).scale(c))
    return acc


def _perm_table(perm, k):
    table = dict(perm)
    if sorted(table) != list(range(1, k + 1)) or sorted(table.values()) != list(range(1, k + 1)):
        raise ValueError("not a permutation of 1..%d: %r" % (k, perm))
    return table


def poincare_polynomial(k, n):
    """prod_{j=1}^{k-1} (1 + j t^(n-1)), cross-checked against the basis census."""
    if k < 0 or n < 2:
        raise ValueError("need k >= 0 and n >= 2")
    formula = product_one_plus_jt(k, n - 1)
    for m in range(0, max(k, 1)):
        d = m * (n - 1)
        census = len(admissible_basis(k, n, d))
        if census != formula.coefficient(d):
            raise AssertionError(
                "basis census %d != product formula %d in degree %d (k=%d, n=%d)"
                % (census, formula.coefficient(d), d, k, n))
    return formula
