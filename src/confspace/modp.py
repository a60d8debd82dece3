"""Mod-p cohomology of C_p and Sigma_p with configuration-space coefficients.

The adjacent transpositions tau_i = (i, i+1) act on the degree-t piece of
H_*(Conf_p(R^n); F_p) through the tall-forest basis, and their product
sigma = tau_1 ... tau_{p-1}, the p-cycle (1 2 ... p), generates the Sylow
subgroup C_p.  Everything downstream of the module data is small
homological algebra over F_p:

  * C_p-(co)homology comes from the 2-periodic resolution
    ... -> F_p[C_p] --N--> F_p[C_p] --(sigma-1)--> F_p[C_p] -> F_p
    with N = 1 + sigma + ... + sigma^(p-1).  In every degree s >= 1 both
    quotients, ker N / im(sigma-1) and ker(sigma-1) / im N, have the one
    dimension dim V - rank(sigma-1) - rank(N); so does every Tate group,
    which makes the Tate dimensions constant in s (Herbrand quotient 1).
    That dimension, h, is read off one forward pass of the eliminator on
    sigma-1, with no back-substitution and no kernel.  As sigma^p = 1,
    (sigma-1)^p = 0 over F_p, so V splits into b = dim V - rank(sigma-1)
    Jordan blocks of sigma-1, each of size at most p, and
    N = (sigma-1)^(p-1) has rank the number of blocks of size p.  So h = 0
    exactly when p b = dim V, every block free (Brown, Cohomology of
    Groups, ch. VI), and this settles every interior degree t.  Otherwise
    rank N is rank M, M = E^T N the rows of N at the b non-pivot columns:
    a vector of ker(sigma-1), which holds im N, is fixed by its
    coordinates there, so rank M = rank N and ker M = ker N.  M is the
    first term of GModule.run(E^T, p), which multiplies by sigma on the
    right, so only those rows are formed.  The stable route reads the same
    coordinates as the unit rows of Z = kernel_basis(sigma-1), the one
    reducer it runs, and then M is N in the basis Z.  Every run of
    sigma-products is GModule.run: M, the partial norm
    1 + ... + sigma^(r-1) of the stable route, and sigma^p in validation;
    no power of sigma is stored.
  * Sigma_p-cohomology is computed by restriction to C_p: in every degree
    s >= 1 the image of the restriction is the subspace fixed by the
    normalizer N(C_p)/C_p, a cyclic group of order p-1 generated by
    sigma -> sigma^r for a primitive root r.  The H^0 reported is that
    fixed part of ker(sigma-1), V^{N(C_p)}, which for p >= 5 can exceed
    V^{Sigma_p}.  When the periodic dimension h is 0 (every free module,
    so every interior degree t) only H^0 is left.  Otherwise the
    normalizer acts on the two periodic quotients by two h x h matrices,
    and these give H^s for every s >= 1 with no elimination per degree.
  * A normalized bar-resolution computation over the full symmetric group
    is kept as a brute-force oracle for tiny groups.

A module is given either by sigma alone (a C_p-module) or by a
forests.SymmetricModule alone (a Sigma_p-module, through its Coxeter
generators tau_1 .. tau_{p-1}), in which case sigma is their product
tau_1 ... tau_{p-1}, formed once.  Every permutation matrix used here,
sigma, the normalizer element g and the bar oracle's elements, is the
module's element along the permutation's reduced word; modp keeps no
permutation-word code.  Every module is validated on construction by full
matrix equations for the group relations, at every dimension.  With the
taus, sigma^p = 1 is not checked separately: it follows from the Coxeter
relators, since sigma is the image of a p-cycle.
"""

from __future__ import annotations

from itertools import permutations, product
from math import factorial

from . import forests
from .graded import GradedDims, PoincareSeries
from .linalg import GF, SparseMatrix, is_prime, kernel_basis, pivot_columns, rank


class ModpError(Exception):
    pass


class GModule:
    """F_p vector space with an action of C_p = <sigma>, or of Sigma_p
    through its Coxeter generators tau_1 .. tau_{p-1}.

    Exactly one of sigma and module, a forests.SymmetricModule, is given.
    With module, sigma is the product tau_1 tau_2 ... tau_{p-1} of its
    taus, the module's element at the p-cycle (1 2 ... p), and is never
    compared with a second copy.  Validated on construction, every check
    a full matrix equation: with taus, tau_i^2 = 1, (tau_i tau_{i+1})^3 =
    1 and (tau_i tau_j)^2 = 1 for j > i+1, which imply sigma^p = 1;
    without them, sigma^p = 1 itself, the last term of run(sigma, p).  No
    power of sigma is stored: run forms each run of sigma-products, with
    sigma on the right, and keeps nothing.  The one cached datum is the
    int periodic_dim(); no kernel of sigma-1 is kept.
    """

    def __init__(self, p, sigma=None, module=None):
        if not is_prime(p):
            raise ModpError("p = %d is not prime" % p)
        if (sigma is None) == (module is None):
            raise ModpError("give exactly one of sigma and the Coxeter generators")
        field = GF(p)
        self.p = p
        self.field = field
        self.sigma = sigma
        self.module = module
        self._h = None
        if module is None:
            if sigma.nrows != sigma.ncols:
                raise ModpError("sigma must be square, got %dx%d" % (sigma.nrows, sigma.ncols))
            if sigma.domain != field:
                raise ModpError("sigma must have GF(%d) coefficients" % p)
            self.dim = sigma.nrows
        else:
            if len(module.taus) != p - 1:
                raise ModpError("expected %d Coxeter generators, got %d"
                                % (p - 1, len(module.taus)))
            self.dim = module.dim
            if module.domain != field or any((m.nrows, m.ncols) != (self.dim, self.dim)
                                             or m.domain != field for m in module.taus):
                raise ModpError("Coxeter generator shape or domain mismatch")
        self._validate()
        if module is not None:
            # the p-cycle (2, 3, ..., p, 1) has the word (1, 2, ..., p-1)
            self.sigma = module.element(tuple(range(2, p + 1)) + (1,))

    # -- lazy matrix data ---------------------------------------------------

    def run(self, x, m):
        """(x + x sigma + ... + x sigma^(m-1), x sigma^(m-1)) for m >= 1,
        by m - 1 products with sigma on the right and m - 1 sums; nothing
        is kept."""
        acc = x
        for _ in range(m - 1):
            x = x.matmul(self.sigma)
            acc = acc.add(x)
        return acc, x

    def aug(self):
        """sigma - 1, the augmentation-stage differential, formed afresh on
        each call: it is needed once per route, and not kept in memory."""
        return self.sigma.sub(SparseMatrix.identity(self.dim, self.field))

    def periodic_dim(self):
        """dim V - rank(sigma-1) - rank(N), the dimension of H^s and H_s
        for every s >= 1 and of every Tate group; computed once.

        ker N / im(sigma-1) and ker(sigma-1) / im N, the two quotients the
        periodic resolution alternates between, both have this dimension.
        One forward pass over sigma-1 gives its rank and pivot columns.
        With b = dim V - rank(sigma-1) Jordan blocks, each of size at most
        p since sigma^p = 1 holds on every validated module, h = 0 when
        p b = dim V, and nothing else is formed.  Otherwise rank N is the
        rank of M = _norm_coords at the b non-pivot columns, the unit rows
        of kernel_basis(sigma-1), which is not formed."""
        if self._h is None:
            pivots = set(pivot_columns(self.aug()))
            free = [f for f in range(self.dim) if f not in pivots]
            if self.p * len(free) == self.dim:
                self._h = 0
            else:
                self._h = len(free) - rank(_norm_coords(self, dict(enumerate(free))))
        return self._h

    # -- construction-time checks -------------------------------------------

    def _validate(self):
        """The group relations as full matrix equations.

        Without a module, sigma^p = 1 is checked on run(sigma, p).  With
        its taus it is implied by the checks below: once tau_i^2 = 1 and the
        braid and commutation relators hold, the taus define a homomorphism
        from Sigma_p (Moore's Coxeter presentation), and sigma, formed
        after these checks as tau_1 ... tau_{p-1}, is the image of a
        p-cycle, which has order p."""
        p = self.p
        ident = SparseMatrix.identity(self.dim, self.field)
        if self.module is None:
            if self.run(self.sigma, p)[1] != ident:
                raise ModpError("sigma^%d is not the identity" % p)
            return
        ts = self.module.taus
        for i, t in enumerate(ts, start=1):
            if t.matmul(t) != ident:
                raise ModpError("tau_%d^2 is not the identity" % i)
        # with every tau_i an involution, (tau_i tau_{i+1})^3 = 1 is the braid
        # identity and (tau_i tau_j)^2 = 1 is commutation; both need only
        # products with a single tau, which stay sparser than powers of m
        for i in range(1, p - 1):
            m = ts[i - 1].matmul(ts[i])
            if m.matmul(ts[i - 1]) != ts[i].matmul(m):
                raise ModpError("braid relator fails at (tau_%d, tau_%d)" % (i, i + 1))
        for i in range(1, p):
            for j in range(i + 2, p):
                if ts[i - 1].matmul(ts[j - 1]) != ts[j - 1].matmul(ts[i - 1]):
                    raise ModpError("tau_%d and tau_%d do not commute" % (i, j))


_conf_cache = {}


def conf_module(p, n, t):
    """Degree-t piece of H_*(Conf_p(R^n); F_p) on the tall-forest basis.

    tau_i acts by the transposition (i, i+1), through forests.forest_module,
    and sigma, the p-cycle i -> i+1, is their product tau_1 ... tau_{p-1},
    formed by GModule.  t must be a multiple of n-1 inside [0, (n-1)(p-1)].
    Results are memoized: the matrices are never mutated downstream.
    """
    key = (p, n, t)
    if key in _conf_cache:
        return _conf_cache[key]
    if not is_prime(p):
        raise ModpError("p = %d is not prime" % p)
    if n < 2:
        raise ModpError("need n >= 2")
    top = (n - 1) * (p - 1)
    if t < 0 or t > top or t % (n - 1) != 0:
        raise ModpError("degree %d is not a multiple of %d inside [0, %d]" % (t, n - 1, top))
    v = GModule(p, module=forests.forest_module(p, n, t, GF(p)))
    _conf_cache[key] = v
    return v


# -- C_p (co)homology from the periodic resolution ---------------------------


def tate(v, window):
    """Tate cohomology dims of C_p on the window (s_min, s_max), inclusive,
    as GradedDims: read them with get(s) for s in the window, since zero
    dims are not stored.

    Every Tate group has dimension v.periodic_dim(): for s > 0 it is H^s,
    for s < -1 the homology H_(-s-1), and in the middle coker(N) on
    invariants at s = 0, ker(N)/im(sigma-1) at s = -1.  It is read off
    one forward pass over sigma-1, and rows of N only off free modules;
    no kernel is formed.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo > hi:
        raise ModpError("empty Tate window [%d, %d]" % (lo, hi))
    h = v.periodic_dim()
    return GradedDims({s: h for s in range(lo, hi + 1)})


# -- vanishing of the interior degrees ----------------------------------------


def _freeness_certificate(v):
    """True iff the sigma-orbit block decomposition certifies freeness.

    Two facts are checked on the tall-forest basis: no basis forest's leaf
    partition is fixed by the p-cycle (orbits of partition blocks then have
    size exactly p), and every sigma-image of a basis vector is supported in
    the block of the rotated partition.  Together these exhibit V as a sum
    of modules induced from the trivial subgroup, i.e. free ones.  v is a
    conf_module result, whose module carries its tall-forest basis.
    """
    p = v.p
    parts = v.module.partitions()
    shifted = []
    for pi in parts:
        moved = tuple(sorted(tuple(sorted(x % p + 1 for x in comp)) for comp in pi))
        if moved == pi:
            return False
        shifted.append(moved)
    return all(parts[r] == shifted[c] for r, row in v.sigma.rows.items() for c in row)


def verify_vanishing(p, n):
    """True iff H_s(C_p; H_t) = 0 for 0 < s <= 2p and all interior t.

    Interior means 0 < t < (n-1)(p-1), i.e. t = j(n-1) for 0 < j < p-1;
    an empty interior (p = 2) is vacuously true.  Every degree is decided
    by two independent routes, and a disagreement raises AssertionError:
    the block certificate, read off the basis partitions and the support
    of sigma, and linear algebra, h = 0 from periodic_dim.  The latter is
    the Jordan count p (dim V - rank(sigma-1)) = dim V of one forward
    pass, with rank M formed only off free modules; it never reads the
    basis.
    """
    if not is_prime(p):
        raise ModpError("p = %d is not prime" % p)
    if n < 2:
        raise ModpError("need n >= 2")
    ok_all = True
    for j in range(1, p - 1):
        t = j * (n - 1)
        v = conf_module(p, n, t)
        cert = _freeness_certificate(v)
        # H_s for every s >= 1 has dimension v.periodic_dim()
        lin = v.periodic_dim() == 0
        if cert != lin:
            raise AssertionError(
                "certificate (%r) and linear algebra (%r) disagree at t = %d" % (cert, lin, t))
        ok_all = ok_all and cert
    return ok_all


# -- Sigma_p fixed spaces and the stable-class route --------------------------


def invariants_sigma_p(p, n):
    """Dimension of the simultaneous Coxeter fixed space on cohomology, per t.

    Computed as the coinvariants dimension of the homology module, which is
    its dual: dim V - rank [tau_1 - 1 | ... | tau_{p-1} - 1].
    """
    return GradedDims({j * (n - 1): conf_module(p, n, j * (n - 1)).module.coinvariants_dim()
                       for j in range(p)})


def _primitive_root(p):
    """The least generator of the units mod the prime p; 1 when p = 2."""
    for r in range(1, p):
        x, seen = 1, set()
        for _ in range(p - 1):
            x = x * r % p
            seen.add(x)
        if len(seen) == p - 1:
            return r


def _unit_rows(z):
    """{c: f}, for each column c of the kernel_basis matrix z, a row f of z
    equal to the unit row e_c (z has one at each non-pivot column).  The
    rows of z at these f are the identity, so reading coordinates f is
    one-to-one on col z, and the unit vectors e_f span a complement of the
    row space of the matrix z is the kernel of."""
    return {c: f for f, row in z.rows.items() if len(row) == 1 for c, x in row.items() if x == 1}


def _coords(units, x):
    """The rows of x at the indices units picks, row c from row units[c]:
    x in the basis z when col x lies in col z and units = _unit_rows(z)."""
    return SparseMatrix._trusted(len(units), x.ncols, x.domain,
                                 {c: x.rows[f] for c, f in units.items() if f in x.rows})


def _norm_coords(v, units):
    """M = E^T N for the coordinate map units = {c: f}: row c of M is row f
    of N, taken as the first term of run(E^T, p), where E^T holds the unit
    rows e_f.  im N lies in ker(sigma-1); when reading these coordinates is
    one-to-one there, rank M = rank N and ker M = ker N.  With units the
    non-pivot columns of sigma-1, or _unit_rows(z) for z =
    kernel_basis(sigma-1), it is, and in the latter case M is N in the
    basis z."""
    e = {c: {f: 1} for c, f in units.items()}
    return v.run(SparseMatrix._trusted(len(units), v.dim, v.field, e), v.p)[0]


def _quotient_matrix(z, b, phi, h):
    """Matrix of phi on col z / col(z b), for z a kernel_basis matrix, b a
    matrix of z.ncols rows (a subspace of col z in the basis z), and phi a
    map of col z to itself that keeps col(z b).

    The columns of K = kernel_basis(b^T) are the functionals that vanish
    on col b, coordinates on the quotient; there must be h of them.  A
    unit row e_j of K at c makes column c of z a lift of class j, and
    column j of the matrix is K^T _coords(phi z_c)."""
    k = kernel_basis(b.transpose())
    if k.ncols != h:
        raise ModpError("a periodic quotient has %d classes, not h = %d" % (k.ncols, h))
    lifts = SparseMatrix(z.ncols, h, z.domain, {(c, j): 1 for j, c in _unit_rows(k).items()})
    return k.transpose().matmul(_coords(_unit_rows(z), phi.matmul(z.matmul(lifts))))


def sigma_p_cohomology_stable(v, s_max):
    """dim H^s(Sigma_p; V) via stable classes, s = 0..s_max.

    Restriction to C_p is injective, and in every degree s >= 1 its image
    is the classes fixed by N(C_p)/C_p = <sigma -> sigma^r>, r a primitive
    root.  H^0, taken first, is the classes of ker(sigma-1) fixed by g
    below, that is V^{N(C_p)}.  The stable-element image does not hold in
    degree 0, and for p >= 5 this can exceed V^{Sigma_p}: at
    conf_module(5, 2, 2) it is 1 against 0.  If s_max = 0 or the
    periodic dimension h is 0, nothing else is formed.  Otherwise the
    normalizer acts on periodic-resolution cochains by phi_2j = r^j g and
    phi_{2j+1} = r^j g P, P = 1 + sigma + ... + sigma^(r-1), where g
    realizes a permutation conjugating sigma to sigma^r.  phi is a chain
    map iff (sigma-1) g = g P (sigma-1) and N g P = r g N.  The first is
    checked once; it is sigma g = g sigma^r, as P (sigma-1) = sigma^r - 1,
    and with sigma^p = 1 it gives the second: g^-1 N g is the sum of the
    sigma^(ri), which is N, so g N = N g, and N sigma^i = N gives N P = r N.
    With Z = kernel_basis(sigma-1) and M = _norm_coords(v, _unit_rows(Z)),
    im N is col M in the basis Z and ker N = ker M.  G_0, the h x h matrix of g on
    ker(sigma-1)/im N, comes from Z and M, and G_1, that of g P on
    ker N/im(sigma-1), from kernel_basis(M) and sigma-1 in its basis; no
    full N is formed.  dim H^s = h - rank(r^(s//2) G_(s mod 2) - 1) for
    every s >= 1.
    """
    if v.module is None:
        raise ModpError("full Sigma_p action required")
    if s_max < 0:
        raise ModpError("negative cohomological window")
    p = v.p
    r = _primitive_root(p)
    rinv = pow(r, -1, p)
    # g realizes q: i -> (i-1) r^{-1} + 1, which conjugates sigma to sigma^r
    q = tuple((i - 1) * rinv % p + 1 for i in range(1, p + 1))
    g = v.module.element(q)
    aug = v.aug()
    z = kernel_basis(aug)
    dims = {0: z.ncols - rank(g.matmul(z).sub(z))}
    h = v.periodic_dim()
    if h == 0 or s_max == 0:
        # restriction to C_p is injective, and h = 0 is H^s(C_p; V) = 0
        return GradedDims(dims)
    gp = g.matmul(v.run(SparseMatrix.identity(v.dim, v.field), r)[0])
    if aug.matmul(g) != gp.matmul(aug):
        raise ModpError("comparison map is not a chain map")
    m = _norm_coords(v, _unit_rows(z))
    y = kernel_basis(m)
    mats = (_quotient_matrix(z, m, g, h), _quotient_matrix(y, _coords(_unit_rows(y), aug), gp, h))
    one = SparseMatrix.identity(h, v.field)
    dims.update((s, h - rank(mats[s % 2].scale(pow(r, s // 2, p)).sub(one)))
                for s in range(1, s_max + 1))
    return GradedDims(dims)


def bar_cohomology(v, s_max):
    """H^s(G; V) for the full symmetric group by the normalized bar complex.

    Brute-force oracle: refuses groups of order above 6 and s_max above 4.
    Element matrices come from reduced transposition words, multiplicativity
    is asserted on every pair.
    """
    if v.module is None:
        raise ModpError("full Sigma_p action required")
    p = v.p
    order = factorial(p)
    if order > 6:
        raise ModpError("group of order %d is too large for the bar oracle (limit 6)" % order)
    if s_max > 4:
        raise ModpError("bar oracle is limited to s <= 4, got %d" % s_max)
    if s_max < 0:
        raise ModpError("negative cohomological window")
    ident_el = tuple(range(1, p + 1))
    elements = sorted(permutations(range(1, p + 1)))
    mats = {el: v.module.element(el) for el in elements}

    def compose(f, g):
        return tuple(f[g[x - 1] - 1] for x in range(1, p + 1))

    for f in elements:
        for g in elements:
            if mats[compose(f, g)] != mats[f].matmul(mats[g]):
                raise ModpError("element matrices are not multiplicative")
    nonid = [el for el in elements if el != ident_el]
    dm = v.dim

    def delta_matrix(s):
        rows_t = list(product(nonid, repeat=s + 1))
        cols_t = list(product(nonid, repeat=s))
        col_pos = {t: i for i, t in enumerate(cols_t)}
        entries = {}
        for ri, tup in enumerate(rows_t):
            base = ri * dm
            c0 = col_pos[tup[1:]] * dm
            for i, row in mats[tup[0]].rows.items():
                for j, val in row.items():
                    key = (base + i, c0 + j)
                    entries[key] = entries.get(key, 0) + val
            for i in range(1, s + 1):
                merged = compose(tup[i - 1], tup[i])
                if merged == ident_el:
                    continue
                cj = col_pos[tup[:i - 1] + (merged,) + tup[i + 1:]] * dm
                sgn = -1 if i % 2 else 1
                for m in range(dm):
                    key = (base + m, cj + m)
                    entries[key] = entries.get(key, 0) + sgn
            ct = col_pos[tup[:s]] * dm
            sgn = -1 if (s + 1) % 2 else 1
            for m in range(dm):
                key = (base + m, ct + m)
                entries[key] = entries.get(key, 0) + sgn
        return SparseMatrix(len(rows_t) * dm, len(cols_t) * dm, v.field, entries)

    dims = {}
    prev_rank = 0
    for s in range(s_max + 1):
        size = len(nonid) ** s * dm
        r_s = rank(delta_matrix(s))
        dims[s] = size - r_s - prev_rank
        prev_rank = r_s
    return GradedDims(dims)


# -- closed-form series --------------------------------------------------------


def nakaoka_series(p, degree_bound):
    """Series of Lambda(v_{2p-3}) tensor F_p[beta v_{2p-2}], truncated."""
    if not is_prime(p) or p == 2:
        raise ModpError("p = %d is not an odd prime" % p)
    if degree_bound < 0:
        raise ModpError("negative degree bound")
    coeffs = {}
    for base in (0, 2 * p - 3):
        d = base
        while d <= degree_bound:
            coeffs[(d, 0)] = coeffs.get((d, 0), 0) + 1
            d += 2 * p - 2
    return PoincareSeries(coeffs, degree_bound, 0)


def cohen_series(p, n, degree_bound):
    """Poincare series of H^*(B_p(R^n); F_p) for p > 3.

    Fiber product over F_p in degree 0: the fixed-space series from
    invariants_sigma_p plus nakaoka_series truncated at (n-1)(p-1), minus
    the doubled constant term.
    """
    if not is_prime(p):
        raise ModpError("p = %d is not prime" % p)
    if p <= 3:
        raise ModpError(
            "p = %d is outside the p > 3 hypothesis of the fixed-space closed form; "
            "combine invariants_sigma_p and nakaoka_series by hand instead" % p)
    if n < 2:
        raise ModpError("need n >= 2")
    if degree_bound < 0:
        raise ModpError("negative degree bound")
    inv = invariants_sigma_p(p, n)
    nak = nakaoka_series(p, min(degree_bound, (n - 1) * (p - 1)))
    coeffs = {(d, 0): c for d, c in inv.items() if d <= degree_bound}
    for (d, _w), c in nak.coeffs.items():
        coeffs[(d, 0)] = coeffs.get((d, 0), 0) + c
    coeffs[(0, 0)] = coeffs.get((0, 0), 0) - 1
    return PoincareSeries(coeffs, degree_bound, 0)


def swan_period(p):
    """Least period of the Tate cohomology of Sigma_p at p: 2(p-1).

    For p <= 7 the normalizer and centralizer of <sigma> are found by brute
    force over Sigma_p and the period is 2 |N| / |C|; beyond that the closed
    form is returned directly.
    """
    if not is_prime(p) or p == 2:
        raise ModpError("p = %d is not an odd prime" % p)
    if p > 7:
        return 2 * (p - 1)
    cycle = tuple(list(range(2, p + 1)) + [1])
    power_set = set()
    cur = tuple(range(1, p + 1))
    for _ in range(p):
        power_set.add(cur)
        cur = tuple(cycle[x - 1] for x in cur)
    n_count = 0
    c_count = 0
    for g in permutations(range(1, p + 1)):
        ginv = [0] * p
        for x in range(1, p + 1):
            ginv[g[x - 1] - 1] = x
        conj = tuple(g[cycle[ginv[x - 1] - 1] - 1] for x in range(1, p + 1))
        if conj in power_set:
            n_count += 1
            if conj == cycle:
                c_count += 1
    if c_count != p:
        raise ModpError("centralizer of the p-cycle should have order p")
    if n_count % c_count:
        raise ModpError("centralizer order does not divide normalizer order")
    return 2 * (n_count // c_count)
