"""Graded and bigraded dimension bookkeeping and Poincare series calculus.

Degrees are arbitrary integers (compactly supported cohomology is placed in
negative degrees downstream); weights are nonnegative.  Series are polynomials
or truncated power series in t (degree) and s (weight); every series carries
explicit truncation bounds and all arithmetic respects them.  Silent
truncation never happens: a bound of None means the data is exact.
"""

from __future__ import annotations

from math import comb


class SeriesWindowError(Exception):
    pass


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

    def total(self):
        return sum(self.dims.values())

    def euler(self):
        return sum((-1) ** d * v for d, v in self.dims.items())

    def tensor(self, other):
        acc = {}
        for d1, v1 in self.dims.items():
            for d2, v2 in other.dims.items():
                acc[d1 + d2] = acc.get(d1 + d2, 0) + v1 * v2
        return GradedDims(acc)

    def direct_sum(self, other):
        acc = dict(self.dims)
        for d, v in other.dims.items():
            acc[d] = acc.get(d, 0) + v
        return GradedDims(acc)

    def shift(self, by):
        return GradedDims({d + by: v for d, v in self.dims.items()})

    def __eq__(self, other):
        return isinstance(other, GradedDims) and self.dims == other.dims

    def __repr__(self):
        return "GradedDims(%r)" % (dict(self.items()),)


class BigradedDims:
    """Finitely supported map (degree, weight) -> dimension."""

    def __init__(self, dims=None):
        self.dims = {}
        if dims:
            for (d, w), v in dims.items():
                if w < 0:
                    raise ValueError("negative weight")
                if v < 0:
                    raise ValueError("negative dimension")
                if v:
                    self.dims[(int(d), int(w))] = int(v)

    def get(self, d, w):
        return self.dims.get((d, w), 0)

    def items(self):
        return sorted(self.dims.items())

    def tensor(self, other):
        acc = {}
        for (d1, w1), v1 in self.dims.items():
            for (d2, w2), v2 in other.dims.items():
                key = (d1 + d2, w1 + w2)
                acc[key] = acc.get(key, 0) + v1 * v2
        return BigradedDims(acc)

    def direct_sum(self, other):
        acc = dict(self.dims)
        for key, v in other.dims.items():
            acc[key] = acc.get(key, 0) + v
        return BigradedDims(acc)

    def weight_slice(self, w):
        return GradedDims({d: v for (d, ww), v in self.dims.items() if ww == w})

    def __eq__(self, other):
        return isinstance(other, BigradedDims) and self.dims == other.dims

    def __repr__(self):
        return "BigradedDims(%r)" % (dict(self.items()),)


def tensor(a, b):
    if type(a) is not type(b):
        raise TypeError("tensor requires matching graded types")
    return a.tensor(b)


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

    @classmethod
    def zero(cls, deg_bound=None, weight_bound=None):
        return cls({}, deg_bound, weight_bound)

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

    def add(self, other):
        db, wb = self._merge_bounds(other)
        acc = dict(self.coeffs)
        for key, c in other.coeffs.items():
            acc[key] = acc.get(key, 0) + c
        return PoincareSeries(acc, db, wb)

    def sub(self, other):
        return self.add(other.scale(-1))

    def scale(self, c):
        return PoincareSeries({k: c * v for k, v in self.coeffs.items()},
                              self.deg_bound, self.weight_bound)

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

    def to_json_obj(self):
        return {
            "deg_bound": self.deg_bound,
            "weight_bound": self.weight_bound,
            "terms": [[d, w, c] for (d, w), c in sorted(self.coeffs.items())],
        }

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

    Each basis slot of even degree d and weight w contributes a factor
    1/(1 - s^w t^d); each odd-degree slot contributes (1 + s^w t^d).
    """
    if degree_bound is None or weight_bound is None:
        raise SeriesWindowError("sym_series needs finite truncation bounds")
    result = PoincareSeries.one(degree_bound, weight_bound)
    for (d, w), mult in v.items():
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
