"""Exact scalar domains and sparse linear algebra over Q, F_p, and Z.

Every computation in this package reduces to rank, kernel, or Smith normal
form of a sparse matrix over an exact coefficient domain.  No floating point
is used anywhere.  A QQ entry is an int or a Fraction: an int is an exact
rational equal to its Fraction, so QQ keeps ints as they are and an
integral matrix never builds a Fraction.

A SparseMatrix is stored by rows only: a dict row index -> row, each row a
dict column -> nonzero entry, with no empty row.  Products, sums, stacks,
transposes and the eliminator read and build rows directly; the flat
(row, col) -> entry dict is made only on request.  Rows may be shared
between matrices: a row of a product with a single entry on the left is a
scaled row of the right factor, or, at an int 1, that row itself, and
matrices built together may hold one dict for equal rows (the
single-entry rows of the taus of forests.forest_module).  Nothing writes to
a row of an existing matrix: the eliminator starts from the input's rows
as they are (over Q from the rows that already are primitive integer
vectors), copies each one on its first update, and from then on updates
that copy in place.

One eliminator serves rank, kernel_basis and invert over the fields, and
the unit pivots of smith_normal_form over Z.  A row update is
a*row - b*prow, which clears the pivot column, in one pass over the pivot
row that also keeps each column's set of active rows current.  Over Q
rows are primitive integer vectors: the update is fraction-free
(Bareiss-style cross-multiplication), then the content is stripped.
Over F_p each pivot row is first scaled so its pivot entry is 1, so
a = 1.  Over Z only an entry +-1 may pivot, a = 1 and b is the row's
entry over the pivot, so every update is unimodular.  Pivots are chosen
Markowitz-style: a row of fewest entries, then its column with the fewest
active rows, with a deterministic tie-break on the lowest row index, then
the lowest column index, so results and orderings are reproducible across
runs.  Rows wait in one heap of (entry count, row id) pairs, and an updated
row is pushed with its new count; a pair whose row is gone or has another
count is skipped when it comes up, so a pick costs O(log n) amortised and
makes the choice a scan would.
Over Q row signs are not normalised.  A row with no admissible column is
set aside until an update changes it; the rows still set aside at the end
are returned.  rank counts the pivots.  For kernel_basis and invert a
back-substitution pass then clears every pivot column outside its own row;
kernel_basis returns one matrix whose columns are indexed by the non-pivot
columns, with the identity in its rows there, so the unit vectors at the
non-pivot columns span a complement of the row space; the inverse is read
off the reduced [A | I] with pivots restricted to the columns of A.
smith_normal_form counts a factor 1 per unit pivot and runs a short gcd
loop, with row and column operations, on the rows set aside.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
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
        return x if type(x) is int else Fraction(x)

    def __repr__(self):
        return "QQ"


class Integers:
    name = "ZZ"
    is_field = False
    characteristic = 0

    def coerce(self, x):
        if type(x) is int:
            return x
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
        if type(x) is int:
            return x % self.p
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
    """Immutable-by-convention sparse matrix stored by rows.

    rows maps a row index to that row, a dict column -> nonzero scalar.  A
    row with no entry is absent, so no row is empty and no entry is zero.
    The constructor takes entries as a dict (row, col) -> scalar, coerces
    them to the domain and drops zeros; the entries property gives the
    stored entries back in that form, built afresh on each access for tests
    and cold paths.  A row may be shared with other matrices: matmul shares
    rows of its right factor, and matrices built together may hold one dict
    for equal rows.  Every operation builds its result from new rows, save
    the rows matmul shares, and never writes to an operand's rows, so a
    shared row is never written either.
    """

    def __init__(self, nrows, ncols, domain, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.domain = domain
        self.rows = rows = {}
        if entries:
            coerce = domain.coerce
            for (i, j), v in entries.items():
                v = coerce(v)
                if v == 0:
                    continue
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError("entry (%d, %d) outside %dx%d" % (i, j, nrows, ncols))
                row = rows.get(i)
                if row is None:
                    rows[i] = {j: v}
                else:
                    row[j] = v

    @classmethod
    def _trusted(cls, nrows, ncols, domain, rows):
        """A matrix on rows that are nonempty, in range, and hold coerced
        nonzero entries."""
        m = cls.__new__(cls)
        m.nrows, m.ncols, m.domain, m.rows = nrows, ncols, domain, rows
        return m

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
        one = domain.coerce(1)
        return cls._trusted(n, n, domain, {i: {i: one} for i in range(n)})

    @classmethod
    def zero(cls, nrows, ncols, domain):
        return cls(nrows, ncols, domain)

    @property
    def entries(self):
        return {(i, j): v for i, row in self.rows.items() for j, v in row.items()}

    @property
    def nnz(self):
        return sum(map(len, self.rows.values()))

    def transpose(self):
        cols = {}
        for i, row in self.rows.items():
            for j, v in row.items():
                cols.setdefault(j, {})[i] = v
        return SparseMatrix._trusted(self.ncols, self.nrows, self.domain, cols)

    def to_dense(self):
        z = self.domain.coerce(0)
        dense = [[z] * self.ncols for _ in range(self.nrows)]
        for i, row in self.rows.items():
            for j, v in row.items():
                dense[i][j] = v
        return dense

    def matmul(self, other):
        """self * other row by row; over F_p every entry is reduced mod p,
        and zeros are dropped.  Entries keep the type of their sums: over Q
        an int stays an int.

        A row of self with one entry v gives v times one row of other, with
        no accumulator, and that row itself, shared, when v is the int 1;
        the other rows are summed in one accumulator."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch %s x %s" % ((self.nrows, self.ncols), (other.nrows, other.ncols)))
        _same_domain(self.domain, other.domain)
        p = self.domain.characteristic
        other_rows = other.rows
        out = {}
        for i, row in self.rows.items():
            if len(row) == 1:
                [(j, v)] = row.items()
                orow = other_rows.get(j)
                if orow is None:
                    continue
                if v == 1 and type(v) is int:
                    out[i] = orow
                elif p:
                    # v and every w are nonzero mod the prime p
                    out[i] = {l: v * w % p for l, w in orow.items()}
                else:
                    out[i] = {l: v * w for l, w in orow.items()}
                continue
            acc = {}
            for j, v in row.items():
                orow = other_rows.get(j)
                if orow is not None:
                    for l, w in orow.items():
                        acc[l] = acc.get(l, 0) + v * w
            if p:
                acc = {l: x % p for l, x in acc.items() if x % p}
            else:
                acc = {l: x for l, x in acc.items() if x}
            if acc:
                out[i] = acc
        return SparseMatrix._trusted(self.nrows, other.ncols, self.domain, out)

    def add(self, other):
        return self._combine(other, 1)

    def sub(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        _same_domain(self.domain, other.domain)
        p = self.domain.characteristic
        rows = {i: dict(row) for i, row in self.rows.items()}
        for i, orow in other.rows.items():
            row = rows.setdefault(i, {})
            for j, v in orow.items():
                x = row.get(j, 0) + sign * v
                if p:
                    x %= p
                if x:
                    row[j] = x
                else:
                    del row[j]
            if not row:
                del rows[i]
        return SparseMatrix._trusted(self.nrows, self.ncols, self.domain, rows)

    def scale(self, c):
        coerce = self.domain.coerce
        rows = {}
        for i, row in self.rows.items():
            row = {j: x for j, v in row.items() if (x := coerce(v * c))}
            if row:
                rows[i] = row
        return SparseMatrix._trusted(self.nrows, self.ncols, self.domain, rows)

    @classmethod
    def hstack(cls, mats):
        mats = list(mats)
        if not mats:
            raise ValueError("empty stack")
        nrows = mats[0].nrows
        domain = mats[0].domain
        rows = {}
        offset = 0
        for m in mats:
            if m.nrows != nrows:
                raise ValueError("shape mismatch in stack")
            _same_domain(domain, m.domain)
            for i, row in m.rows.items():
                rows.setdefault(i, {}).update({j + offset: v for j, v in row.items()})
            offset += m.ncols
        return cls._trusted(nrows, offset, domain, rows)

    def is_zero(self):
        return not self.rows

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix)
                and (self.nrows, self.ncols) == (other.nrows, other.ncols)
                and self.rows == other.rows)

    def __repr__(self):
        return "SparseMatrix(%dx%d over %r, %d nonzero)" % (
            self.nrows, self.ncols, self.domain, self.nnz)


def _same_domain(a, b):
    if a is not b and a != b:
        raise DomainError("domain mismatch %r vs %r" % (a, b))


def _row_content(row):
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return 1
    return g


def _strip_content(row):
    """row divided by its content: a new dict if the content is > 1, else
    row itself."""
    g = _row_content(row)
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _integer_rows(m):
    """The rows of a Q matrix as primitive integer vectors, by row index in
    increasing order.  A row that already is one is shared; a new dict is
    built only to clear denominators or to strip content."""
    rows = {}
    for i in sorted(m.rows):
        row = m.rows[i]
        if any(type(v) is not int for v in row.values()):
            den = lcm(*(v.denominator for v in row.values()))
            row = {j: v.numerator * (den // v.denominator) for j, v in row.items()}
        rows[i] = _strip_content(row)
    return rows


def _row_update(row, prow, j, p, col_rows=None, r=None):
    """a*row - b*prow with a = prow[j] and b = row[j], so column j drops out,
    written into row: the caller owns row, and row is not prow.  Returns
    the updated row, row itself save over Q when its content was above 1.

    Over F_p (p > 0) the pivot row is scaled so that a = 1, and entries are
    reduced mod p.  Over Z (p None) a = 1 and b = row[j] // prow[j]: column
    j drops out at a pivot +-1, and is left at row[j] mod prow[j] in the
    gcd loop of smith_normal_form.  Over Q (p = 0) rows are primitive
    integer vectors: row is scaled by a unless a = 1, and the result is
    stripped of its content.  The support of row changes only at the
    columns of prow, so the same loop keeps col_rows[jj], the rows with an
    entry at jj, current for row id r when col_rows is given."""
    b = row[j]
    if p is None:
        b //= prow[j]
    elif not p:
        a = prow[j]
        if a != 1:
            for jj in row:
                row[jj] *= a
    for jj, v in prow.items():
        old = row.get(jj)
        if old is None:
            # b and v are nonzero (mod p over F_p), and so is b*v
            row[jj] = -b * v % p if p else -b * v
            if col_rows is not None:
                col_rows[jj].add(r)
            continue
        w = (old - b * v) % p if p else old - b * v
        if w:
            row[jj] = w
        else:
            del row[jj]
            if col_rows is not None:
                col_rows[jj].discard(r)
    return _strip_content(row) if p == 0 else row


def _eliminate(m, limit=None, reduce=False):
    """The one elimination behind rank, kernel_basis, invert and the unit
    pivots of smith_normal_form.

    Returns (pivots, rows, rest): pivots lists (column, row index of m) in
    pivot order, and rows maps each pivot's row index to its row (pivot
    entry 1 over F_p, +-1 over Z, a primitive integer vector over Q).  Each
    pivot row has no entry in the columns of earlier pivots; with reduce,
    back-substitution also clears the columns of later ones.  Pivot columns
    are chosen below limit (default: all), and over Z only at an entry +-1.
    rest lists the rows left with no admissible column; they have no entry
    in a pivot column.  Over Z every step is unimodular, so the Smith form
    of m is one factor 1 per pivot and the Smith form of rest.

    Rows are updated in place, by _row_update, once this call owns them:
    owned holds the ids of the rows it built.  A row of m, or one that
    _integer_rows shares with m, is copied on its first write, so the rows
    of m are never written, even where one dict is several rows of m or a
    row of another matrix.  A returned row that no update touched may be a
    row of m itself, so callers copy a returned row before writing to it.
    """
    # p: the characteristic over the fields, None over Z
    p = m.domain.characteristic if m.domain.is_field else None
    if p == 0:
        active = _integer_rows(m)
    else:
        active = {i: m.rows[i] for i in sorted(m.rows)}
    if limit is None:
        limit = m.ncols
    col_rows = {}
    for i, row in active.items():
        for j in row:
            col_rows.setdefault(j, set()).add(i)
    # (entry count, row id) of every row waiting for a pick; a pair whose
    # row is gone or has another count now is stale and skipped
    heap = [(len(row), i) for i, row in active.items()]
    heapify(heap)
    owned = set()
    pivots = []
    done = {}
    while heap and active:
        n, i = heappop(heap)
        row = active.get(i)
        if row is None or len(row) != n:
            continue
        cols = ((jj for jj in row if jj < limit) if p is not None
                else (jj for jj in row if jj < limit and row[jj] in (1, -1)))
        j = min(cols, key=lambda jj: (len(col_rows[jj]), jj), default=None)
        if j is None:
            # set aside until an update pushes it again
            continue
        prow = active.pop(i)
        for jj in prow:
            col_rows[jj].discard(i)
        if p and prow[j] != 1:
            inv = pow(prow[j], -1, p)
            prow = {jj: v * inv % p for jj, v in prow.items()}
            owned.add(i)
        for r in list(col_rows[j]):
            row = active[r]
            if r not in owned:
                row = dict(row)
                owned.add(r)
            row = _row_update(row, prow, j, p, col_rows, r)
            if row:
                active[r] = row
                heappush(heap, (len(row), r))
            else:
                del active[r]
        pivots.append((j, i))
        done[i] = prow
    if reduce:
        row_of = dict(pivots)
        for j, i in reversed(pivots):
            row = done[i]
            later = [jj for jj in row if jj != j and jj in row_of]
            if later and i not in owned:
                row = dict(row)
            for jj in later:
                row = _row_update(row, done[row_of[jj]], jj, p)
            done[i] = row
    return pivots, done, list(active.values())


def _require_field(m):
    if not m.domain.is_field:
        raise DomainError("elimination over %r is unsupported; use smith_normal_form"
                          % m.domain)


def rank(m):
    """Exact rank of a matrix over a field (Q or F_p): its number of pivots."""
    _require_field(m)
    return len(_eliminate(m)[0])


def kernel_basis(m):
    """The right null space of m as the columns of an m.ncols x nullity
    matrix; field domains only.

    One column per non-pivot column f of m, in increasing f: it has entry 1
    at row f, 0 at the other non-pivot columns, and at each pivot column
    the value read off that pivot's fully reduced row.  The pivots are the
    Markowitz choices of the eliminator, so they need not be the leftmost
    columns.

    The rows at the non-pivot columns are the identity, so reading those
    coordinates is one-to-one on the null space, and the unit vectors at
    the non-pivot columns span a complement of the row space of m: a
    combination of them that lay in the row space would vanish on the
    null space, and so be zero.
    """
    _require_field(m)
    pivots, rows, _ = _eliminate(m, reduce=True)
    p = m.domain.characteristic
    pivot_cols = {j for j, _ in pivots}
    free = {f: c for c, f in enumerate(f for f in range(m.ncols) if f not in pivot_cols)}
    out = {f: {c: 1} for f, c in free.items()}
    for j, i in pivots:
        row = rows[i]
        a = row[j]
        krow = {free[f]: -v % p if p else Fraction(-v, a) for f, v in row.items() if f != j}
        if krow:
            out[j] = krow
    return SparseMatrix._trusted(m.ncols, len(free), m.domain, out)


def invert(m):
    """Inverse of a square matrix over a field; raises ValueError if singular.

    Reduces [m | I] with pivots restricted to the columns of m; a row left
    with no entry there means m is singular."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of non-square matrix")
    _require_field(m)
    n = m.nrows
    aug = SparseMatrix.hstack([m, SparseMatrix.identity(n, m.domain)])
    pivots, rows, rest = _eliminate(aug, limit=n, reduce=True)
    if rest:
        raise ValueError("matrix is singular")
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
    """Invariant factors d_1 | d_2 | ... (positive) and rank of an integer matrix.

    The eliminator takes a factor 1 per unit pivot.  A gcd loop handles the
    rows it leaves: it pivots on an entry d of least absolute value and
    clears d's column by row operations with division with remainder.  Once
    d is alone in its column, column operations only reduce d's row mod d;
    if that leaves it bare, a row with an entry d does not divide is folded
    in and reduced the same way.  Whatever is left is smaller than |d| and
    is pivoted on next; if nothing is, d divides every entry and |d| is a
    factor.
    """
    if not isinstance(m.domain, Integers):
        raise DomainError("smith_normal_form requires ZZ coefficients")
    pivots, _, rest = _eliminate(m)
    factors = [1] * len(pivots)
    # the loop writes to its rows, and rest may hold rows of m
    rows = [dict(row) for row in rest]
    while rows:
        _, r, j = min((abs(v), r, jj) for r, row in enumerate(rows)
                      for jj, v in row.items())
        prow = rows.pop(r)
        d = prow[j]
        rows = [_row_update(row, prow, j, None) if j in row else row for row in rows]
        rows = [row for row in rows if row]
        if any(j in row for row in rows):
            rows.append(prow)
            continue
        rest = {jj: v % d for jj, v in prow.items() if v % d}
        if not rest:
            offender = next((row for row in rows if any(v % d for v in row.values())),
                            None)
            if offender is None:
                factors.append(abs(d))
                continue
            rest = {jj: v % d for jj, v in offender.items() if v % d}
        rest[j] = d
        rows.append(rest)
    return factors, len(factors)
