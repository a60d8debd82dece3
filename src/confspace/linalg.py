"""Exact scalar domains and sparse linear algebra over Q, F_p, and Z.

Every computation in this package reduces to rank, kernel, or Smith normal
form of a sparse matrix over an exact coefficient domain.  No floating point
is used anywhere.

One eliminator serves rank, kernel_basis and invert over the fields.  A row
update is a*row - b*prow, which clears the pivot column.  Over Q rows are
primitive integer vectors: the update is fraction-free (Bareiss-style
cross-multiplication), then the content is stripped.  Over F_p each pivot
row is first scaled so its pivot entry is 1, so a = 1.  Pivots are chosen
Markowitz-style: a row of fewest entries, then its column with the fewest
active rows, with a deterministic tie-break on the lowest row index, then
the lowest column index, so results and orderings are reproducible across
runs.  rank counts the pivots.  For kernel_basis and invert a
back-substitution pass then clears every pivot column outside its own row;
the kernel basis is indexed by the non-pivot columns, and the inverse is
read off the reduced [A | I] with pivots restricted to the columns of A.
Smith normal form over Z is a separate algorithm (it also needs column
operations and a divisibility fix-up).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm


class DomainError(Exception):
    """Operation attempted over an unsupported coefficient domain."""


def is_prime(n):
    """Primality of an integer by trial division up to isqrt(n)."""
    return n >= 2 and all(n % q for q in range(2, isqrt(n) + 1))


class Rationals:
    name = "QQ"
    is_field = True
    characteristic = 0

    def coerce(self, x):
        return Fraction(x)

    def __repr__(self):
        return "QQ"


class Integers:
    name = "ZZ"
    is_field = False
    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise DomainError("non-integral value %r over ZZ" % (x,))
            return x.numerator
        return int(x)

    def __repr__(self):
        return "ZZ"


class PrimeField:
    is_field = True

    def __init__(self, p):
        if not is_prime(p):
            raise DomainError("modulus %d is not prime" % p)
        self.p = p
        self.name = "GF(%d)" % p
        self.characteristic = p

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise DomainError(
                    "denominator of %s is divisible by %d" % (x, self.p))
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return int(x) % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


QQ = Rationals()
ZZ = Integers()

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


class SparseMatrix:
    """Immutable-by-convention sparse matrix: dict (row, col) -> nonzero scalar."""

    def __init__(self, nrows, ncols, domain, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.domain = domain
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = domain.coerce(v)
                if v == 0:
                    continue
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError("entry (%d, %d) outside %dx%d" % (i, j, nrows, ncols))
                self.entries[(i, j)] = v

    @classmethod
    def from_rows(cls, rows, domain):
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                entries[(i, j)] = v
        return cls(nrows, ncols, domain, entries)

    @classmethod
    def identity(cls, n, domain):
        return cls(n, n, domain, {(i, i): 1 for i in range(n)})

    @classmethod
    def zero(cls, nrows, ncols, domain):
        return cls(nrows, ncols, domain)

    @property
    def nnz(self):
        return len(self.entries)

    def get(self, i, j):
        return self.entries.get((i, j), self.domain.coerce(0))

    def rows_dict(self):
        rows = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        return rows

    def transpose(self):
        return SparseMatrix(
            self.ncols, self.nrows, self.domain,
            {(j, i): v for (i, j), v in self.entries.items()})

    def to_dense(self):
        z = self.domain.coerce(0)
        dense = [[z] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            dense[i][j] = v
        return dense

    def mul_vec(self, vec):
        """Matrix times sparse column vector (dict col -> scalar)."""
        out = {}
        for (i, j), v in self.entries.items():
            x = vec.get(j)
            if x is None:
                continue
            out[i] = out.get(i, 0) + v * x
        result = {}
        for i, v in out.items():
            v = self.domain.coerce(v)
            if v != 0:
                result[i] = v
        return result

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %s x %s" % ((self.nrows, self.ncols), (other.nrows, other.ncols)))
        if self.domain is not other.domain and self.domain != other.domain:
            raise DomainError("domain mismatch %r vs %r" % (self.domain, other.domain))
        other_rows = other.rows_dict()
        acc = {}
        for (i, j), v in self.entries.items():
            row = other_rows.get(j)
            if not row:
                continue
            for l, w in row.items():
                acc[(i, l)] = acc.get((i, l), 0) + v * w
        return SparseMatrix(self.nrows, other.ncols, self.domain, acc)

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        acc = dict(self.entries)
        for key, v in other.entries.items():
            acc[key] = acc.get(key, 0) + sign * v
        return SparseMatrix(self.nrows, self.ncols, self.domain, acc)

    def scale(self, c):
        return SparseMatrix(self.nrows, self.ncols, self.domain,
                            {k: v * c for k, v in self.entries.items()})

    @classmethod
    def vstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise ValueError("empty stack")
        ncols = mats[0].ncols
        domain = mats[0].domain
        entries = {}
        offset = 0
        for m in mats:
            if m.ncols != ncols:
                raise ValueError("column mismatch in vstack")
            for (i, j), v in m.entries.items():
                entries[(i + offset, j)] = v
            offset += m.nrows
        return cls(offset, ncols, domain, entries)

    @classmethod
    def hstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise ValueError("empty stack")
        nrows = mats[0].nrows
        domain = mats[0].domain
        entries = {}
        offset = 0
        for m in mats:
            if m.nrows != nrows:
                raise ValueError("row mismatch in hstack")
            for (i, j), v in m.entries.items():
                entries[(i, j + offset)] = v
            offset += m.ncols
        return cls(nrows, offset, domain, entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.entries == other.entries)

    def __repr__(self):
        return "SparseMatrix(%dx%d over %r, %d nonzero)" % (
            self.nrows, self.ncols, self.domain, self.nnz)


def _row_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return 1
    return g


def _strip_content(row):
    g = _row_content(row)
    if g > 1:
        for j in list(row):
            row[j] //= g
    # normalize overall sign for determinism: first (lowest-col) entry positive
    if row:
        lead = row[min(row)]
        if lead < 0:
            for j in list(row):
                row[j] = -row[j]
    return row


def _integer_rows(m):
    """Rows of a Q matrix as primitive integer dicts, in row order
    (denominators cleared, content stripped)."""
    rows = []
    for _, row in sorted(m.rows_dict().items()):
        den = lcm(*(v.denominator for v in row.values()))
        rows.append(_strip_content({j: v.numerator * (den // v.denominator)
                                    for j, v in row.items()}))
    return rows


class _PivotQueue:
    """Bucket queue over active rows keyed by nnz.

    Pivot choice: a row of minimal nnz (lowest id on ties), then the column
    below limit in it with the fewest active rows (lowest index on ties) -
    the cheap end of the Markowitz heuristic, with every choice
    deterministic.  The column is None when the row has none below limit.
    """

    def __init__(self, active):
        self.buckets = {}
        for i, row in active.items():
            self.buckets.setdefault(len(row), set()).add(i)

    def remove(self, i, size):
        b = self.buckets.get(size)
        if b is not None:
            b.discard(i)
            if not b:
                del self.buckets[size]

    def add(self, i, size):
        self.buckets.setdefault(size, set()).add(i)

    def pick(self, active, col_rows, limit):
        size = min(self.buckets)
        i = min(self.buckets[size])
        j = min((jj for jj in active[i] if jj < limit),
                key=lambda jj: (len(col_rows[jj]), jj), default=None)
        return i, j


def _row_update(row, prow, j, p):
    """a*row - b*prow with a = prow[j] and b = row[j], so column j drops out.

    Over F_p (p > 0) the pivot row is scaled so that a = 1, and entries are
    reduced mod p.  Over Q (p = 0) rows are primitive integer vectors, and
    the result is stripped of its content."""
    b = row[j]
    if p:
        out = dict(row)
        for jj, v in prow.items():
            w = (out.get(jj, 0) - b * v) % p
            if w:
                out[jj] = w
            else:
                del out[jj]
        return out
    a = prow[j]
    out = {jj: a * v for jj, v in row.items()}
    for jj, v in prow.items():
        out[jj] = out.get(jj, 0) - b * v
    return _strip_content({jj: v for jj, v in out.items() if v})


def _eliminate(m, limit=None, reduce=False):
    """The one elimination behind rank, kernel_basis and invert.

    Returns (pivots, rows): pivots lists (column, row id) in pivot order,
    and rows maps each pivot's row id to its row (pivot entry 1 over F_p,
    a primitive integer vector over Q).  Each pivot row has no entry in the
    columns of earlier pivots; with reduce, back-substitution also clears
    the columns of later ones.  Pivot columns are chosen below limit
    (default: all); a row left with no entry there raises ValueError.
    """
    if not m.domain.is_field:
        raise DomainError("elimination over %r is unsupported; use smith_normal_form"
                          % m.domain)
    p = m.domain.characteristic
    if p:
        rows = [row for _, row in sorted(m.rows_dict().items())]
    else:
        rows = _integer_rows(m)
    if limit is None:
        limit = m.ncols
    active = dict(enumerate(rows))
    col_rows = {}
    for i, row in active.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    queue = _PivotQueue(active)
    pivots = []
    done = {}
    while active:
        i, j = queue.pick(active, col_rows, limit)
        if j is None:
            raise ValueError("matrix is singular")
        prow = active.pop(i)
        queue.remove(i, len(prow))
        for jj in prow:
            col_rows[jj].discard(i)
        if p and prow[j] != 1:
            inv = pow(prow[j], -1, p)
            prow = {jj: v * inv % p for jj, v in prow.items()}
        for r in list(col_rows.get(j, ())):
            row = active[r]
            queue.remove(r, len(row))
            for jj in row:
                col_rows[jj].discard(r)
            row = _row_update(row, prow, j, p)
            if row:
                active[r] = row
                queue.add(r, len(row))
                for jj in row:
                    col_rows.setdefault(jj, set()).add(r)
            else:
                del active[r]
        pivots.append((j, i))
        done[i] = prow
    if reduce:
        row_of = dict(pivots)
        for j, i in reversed(pivots):
            row = done[i]
            for jj in [jj for jj in row if jj != j and jj in row_of]:
                row = _row_update(row, done[row_of[jj]], jj, p)
            done[i] = row
    return pivots, done


def rank(m):
    """Exact rank of a matrix over a field (Q or F_p): its number of pivots."""
    return len(_eliminate(m)[0])


def kernel_basis(m):
    """Vectors (dict col -> scalar) spanning the right null space; field domains only.

    One vector per non-pivot column f, in increasing f: it has entry 1 at
    f, 0 at the other non-pivot columns, and at each pivot column the value
    read off that pivot's fully reduced row.  The pivots are the Markowitz
    choices of the eliminator, so they need not be the leftmost columns.
    """
    pivots, rows = _eliminate(m, reduce=True)
    p = m.domain.characteristic
    pivot_cols = {j for j, _ in pivots}
    one = m.domain.coerce(1)
    basis = {f: {f: one} for f in range(m.ncols) if f not in pivot_cols}
    for j, i in pivots:
        row = rows[i]
        a = row[j]
        for f, v in row.items():
            if f != j:
                basis[f][j] = -v % p if p else Fraction(-v, a)
    return list(basis.values())


def invert(m):
    """Inverse of a square matrix over a field; raises ValueError if singular.

    Reduces [m | I] with pivots restricted to the columns of m."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    n = m.nrows
    aug = SparseMatrix.hstack([m, SparseMatrix.identity(n, m.domain)])
    pivots, rows = _eliminate(aug, limit=n, reduce=True)
    p = m.domain.characteristic
    entries = {}
    for j, i in pivots:
        row = rows[i]
        a = row[j]
        for jj, v in row.items():
            if jj >= n:
                entries[(j, jj - n)] = v if p else Fraction(v, a)
    return SparseMatrix(n, n, m.domain, entries)


def smith_normal_form(m):
    """Invariant factors d_1 | d_2 | ... (positive) and rank of an integer matrix."""
    if not isinstance(m.domain, Integers):
        raise DomainError("smith_normal_form requires ZZ coefficients")
    rows = {i: dict(row) for i, row in m.rows_dict().items()}
    col_rows = {}
    for i, row in rows.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)

    def min_entry():
        best = None
        best_key = None
        for i in sorted(rows):
            for j, v in sorted(rows[i].items()):
                key = (abs(v), i, j)
                if best_key is None or key < best_key:
                    best_key = key
                    best = (i, j)
        return best

    def add_row(src, dst, c):
        # row_dst += c * row_src
        row_s = rows.get(src, {})
        row_d = rows.setdefault(dst, {})
        for j, v in row_s.items():
            w = row_d.get(j, 0) + c * v
            if w == 0:
                if j in row_d:
                    del row_d[j]
                    col_rows[j].discard(dst)
            else:
                if j not in row_d:
                    col_rows.setdefault(j, set()).add(dst)
                row_d[j] = w
        if not row_d:
            rows.pop(dst, None)

    def add_col(src, dst, c):
        # col_dst += c * col_src
        for i in list(col_rows.get(src, ())):
            v = rows[i][src]
            w = rows[i].get(dst, 0) + c * v
            if w == 0:
                if dst in rows[i]:
                    del rows[i][dst]
                    col_rows[dst].discard(i)
            else:
                if dst not in rows[i]:
                    col_rows.setdefault(dst, set()).add(i)
                rows[i][dst] = w

    factors = []
    while rows:
        # clean empties
        for i in [i for i, r in rows.items() if not r]:
            del rows[i]
        if not rows:
            break
        pos = min_entry()
        if pos is None:
            break
        i, j = pos
        piv = rows[i][j]
        # reduce column j against the pivot row, then row i against the pivot col
        dirty = False
        for r in [r for r in col_rows.get(j, ()) if r != i]:
            v = rows[r][j]
            q = v // piv
            if q:
                add_row(i, r, -q)
            if rows.get(r, {}).get(j):
                dirty = True
        for c in [c for c in list(rows.get(i, {})) if c != j]:
            v = rows[i][c]
            q = v // piv
            if q:
                add_col(j, c, -q)
            if rows.get(i, {}).get(c):
                dirty = True
        if dirty:
            continue
        # pivot row and column are now clear except the pivot itself;
        # enforce divisibility: pivot must divide every remaining entry
        offender = None
        for r in sorted(rows):
            if r == i:
                continue
            for c, v in sorted(rows[r].items()):
                if v % piv != 0:
                    offender = r
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, i, 1)
            continue
        factors.append(abs(piv))
        for jj in list(rows[i]):
            col_rows[jj].discard(i)
        del rows[i]
    factors.sort()
    return factors, len(factors)
