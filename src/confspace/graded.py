"""Graded dimension tables, Poincare series, and linear combinations.

Degrees are arbitrary integers (compactly supported cohomology is placed in
negative degrees downstream); weights are nonnegative.  Series are polynomials
or truncated power series in t (degree) and s (weight); every series carries
explicit truncation bounds and all arithmetic respects them.  Silent
truncation never happens: a bound of None means the data is exact.
sym_series counts the free graded-commutative algebra on a table of slots
given as a {(degree, weight): multiplicity} dict.

LinearCombination is the class type shared by arnold (cohomology classes on
admissible monomials) and forests (homology classes on tall forests): a
finitely supported map basis element -> coefficient in a context (k, n).
"""

from __future__ import annotations

from math import comb


class SeriesWindowError(Exception):
    pass


class ContextError(Exception):
    """Classes from different (k, n) contexts were mixed."""


class LinearCombination:
    """Finitely supported map basis element -> coefficient, in context (k, n).

    Zero coefficients are never stored.  A subclass names its basis: the
    static methods normalize (key as given -> stored key), sort_key and
    label.
    """

    def __init__(self, k, n, terms=None):
        self.k = k
        self.n = n
        self.terms = {}
        if terms:
            normalize = self.normalize
            for key, c in terms.items():
                if c != 0:
                    self.terms[normalize(key)] = c

    def _check(self, other):
        if (self.k, self.n) != (other.k, other.n):
            raise ContextError("context mismatch: (%d,%d) vs (%d,%d)"
                               % (self.k, self.n, other.k, other.n))

    def add(self, other):
        self._check(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            v = acc.get(key, 0) + c
            if v == 0:
                acc.pop(key, None)
            else:
                acc[key] = v
        out = type(self)(self.k, self.n)
        out.terms = acc
        return out

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        return type(self)(self.k, self.n, {key: c * v for key, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def items(self):
        return sorted(self.terms.items(), key=lambda kv: self.sort_key(kv[0]))

    def __eq__(self, other):
        return (type(other) is type(self)
                and (self.k, self.n) == (other.k, other.n)
                and self.terms == other.terms)

    def to_json_obj(self):
        return {self.label(key): c for key, c in self.items()}

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, c in self.items():
            if c == 1:
                parts.append(self.label(key))
            elif c == -1:
                parts.append("-%s" % self.label(key))
            else:
                parts.append("%d*%s" % (c, self.label(key)))
        return " + ".join(parts).replace("+ -", "- ")


class GradedDims:
    """Finitely supported map degree -> dimension, zero dims not stored."""

    def __init__(self, dims=None):
        self.dims = {}
        if dims:
            for d, v in dims.items():
                if v < 0:
                    raise ValueError("negative dimension in degree %d" % d)
                if v:
                    self.dims[int(d)] = int(v)

    def get(self, d):
        return self.dims.get(d, 0)

    def items(self):
        return sorted(self.dims.items())

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __repr__(self):
        return "GradedDims(%r)" % (dict(self.items()),)


class PoincareSeries:
    """Polynomial / truncated series in t (degree) and s (weight).

    coeffs: dict (deg, weight) -> integer coefficient.
    deg_bound / weight_bound: inclusive truncation bounds; None means exact.
    """

    def __init__(self, coeffs=None, deg_bound=None, weight_bound=None):
        self.deg_bound = deg_bound
        self.weight_bound = weight_bound
        self.coeffs = {}
        if coeffs:
            for (d, w), c in coeffs.items():
                if c == 0:
                    continue
                if deg_bound is not None and d > deg_bound:
                    continue
                if weight_bound is not None and w > weight_bound:
                    continue
                self.coeffs[(int(d), int(w))] = c

    @classmethod
    def one(cls, deg_bound=None, weight_bound=None):
        return cls({(0, 0): 1}, deg_bound, weight_bound)

    def coefficient(self, d, w=0):
        return self.coeffs.get((d, w), 0)

    def weight_slice(self, w):
        return GradedDims({d: c for (d, ww), c in self.coeffs.items() if ww == w and c > 0})

    def _merge_bounds(self, other):
        def merge(a, b):
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)
        return merge(self.deg_bound, other.deg_bound), merge(self.weight_bound, other.weight_bound)

    def mul(self, other):
        db, wb = self._merge_bounds(other)
        acc = {}
        for (d1, w1), c1 in self.coeffs.items():
            for (d2, w2), c2 in other.coeffs.items():
                d, w = d1 + d2, w1 + w2
                if db is not None and d > db:
                    continue
                if wb is not None and w > wb:
                    continue
                acc[(d, w)] = acc.get((d, w), 0) + c1 * c2
        return PoincareSeries(acc, db, wb)

    def euler_by_weight(self):
        """Substitute t -> -1: map weight -> alternating coefficient sum."""
        acc = {}
        for (d, w), c in self.coeffs.items():
            acc[w] = acc.get(w, 0) + ((-1) ** d) * c
        return {w: v for w, v in sorted(acc.items()) if v != 0}

    def to_text(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (d, w) in sorted(self.coeffs, key=lambda k: (k[1], k[0])):
            c = self.coeffs[(d, w)]
            atoms = []
            if w:
                atoms.append("s" if w == 1 else "s^%d" % w)
            if d:
                atoms.append("t" if d == 1 else "t^%d" % d)
            body = "*".join(atoms)
            if not body:
                term = str(c)
            elif c == 1:
                term = body
            elif c == -1:
                term = "-" + body
            else:
                term = "%d%s" % (c, body)
            parts.append(term)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __eq__(self, other):
        """Strict equality: same coefficients and same bounds (use series_equal for windows)."""
        return (isinstance(other, PoincareSeries)
                and self.coeffs == other.coeffs
                and self.deg_bound == other.deg_bound
                and self.weight_bound == other.weight_bound)

    def __repr__(self):
        return "PoincareSeries(%s)" % self.to_text()


def series_equal(a, b):
    """Exact coefficient equality on the common truncation window."""
    db, wb = a._merge_bounds(b)
    if (db is not None and db < 0) or (wb is not None and wb < 0):
        raise SeriesWindowError("truncation windows do not overlap")

    def window(series):
        out = {}
        for (d, w), c in series.coeffs.items():
            if db is not None and d > db:
                continue
            if wb is not None and w > wb:
                continue
            out[(d, w)] = c
        return out

    return window(a) == window(b)


def sym_series(v, degree_bound, weight_bound):
    """Poincare series of Sym(v) = F[v_even] (x) Lambda[v_odd], truncated.

    v maps (degree, weight) to the number of basis slots of that bidegree.
    Each slot of even degree d and weight w contributes a factor
    1/(1 - s^w t^d); each odd-degree slot contributes (1 + s^w t^d).
    """
    if degree_bound is None or weight_bound is None:
        raise SeriesWindowError("sym_series needs finite truncation bounds")
    result = PoincareSeries.one(degree_bound, weight_bound)
    for (d, w), mult in sorted(v.items()):
        if mult < 0:
            raise ValueError("negative dimension")
        if not mult:
            continue
        if d < 0:
            raise ValueError("sym_series requires nonnegative degrees (got %d)" % d)
        if w < 1:
            raise ValueError("sym_series requires weights >= 1 (got %d)" % w)
        coeffs = {}
        if d % 2 == 0:
            jmax = weight_bound // w
            if d > 0:
                jmax = min(jmax, degree_bound // d)
            for j in range(jmax + 1):
                coeffs[(d * j, w * j)] = comb(mult - 1 + j, j)
        else:
            for j in range(mult + 1):
                if w * j > weight_bound:
                    break
                if d * j > degree_bound:
                    break
                coeffs[(d * j, w * j)] = comb(mult, j)
        result = result.mul(PoincareSeries(coeffs, degree_bound, weight_bound))
    return result


def product_one_plus_jt(k, step):
    """The exact polynomial prod_{j=1}^{k-1} (1 + j*t^step)."""
    result = PoincareSeries.one()
    for j in range(1, k):
        result = result.mul(PoincareSeries({(0, 0): 1, (step, 0): j}))
    return result
