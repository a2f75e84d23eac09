"""Weak Hopf algebra data and the complete axiom engine.

A WeakHopf bundles an Algebra with a comultiplication, counit and antipode
given as exact matrices in the chosen basis.  verify_axioms() checks every
defining axiom as a multilinear identity evaluated on basis tuples (which
suffices by multilinearity; Sweedler legs are never expanded symbolically),
and failures are report entries rather than exceptions.

Comultiplication rows live on flat tensor indices: the coefficient of
e_i (x) e_j in Delta(e_h) is delta[h][i*dim + j].  A law in Sweedler
notation sums over these legs with `linalg.legsum` (h1 S(h2) is
``legsum(delta[h], dim, lambda i, j: e_i S(e_j))``) or reads them as slices
from `linalg.tslices`; only the witness of the delta_one law decodes the
index itself.  The dual pairing convention is <Delta(phi), h (x) g> =
<phi, hg> with h the left factor.

The laws read what is stored for a basis element: Delta(e_h) is
``delta[h]``, S(e_h) is ``s[h]``, eps(e_h) is ``eps[h]`` and e_i e_j is the
cell ``alg.table[i][j]`` (see `algebra`).  delta_multiplicative,
s_anti_multiplicative and eps_weak_multiplicative join the legs of
Delta(e_i), S(e_i) or Delta(e_g) to the nonempty cells in one sum of
lhs - rhs per row over nonzero terms (`_first_failing_case`), keyed
so that no two cases share a key: the least key of the first row that
differs names the first failing tuple.  antipode_unique sums both
convolutions per h over the same legs and cells, and the Delta(1)
products of delta_one walk the same cells.
coassociativity and the counit laws take one sum per h over the legs of
Delta(e_h) and the rows of Delta or eps; the integral equations read
h e_j, eps_t(h) e_j and e_j eps_s(h) off the cells, and the Casimir law
of a separability idempotent joins its legs to the cells in one sum per
basis element of the subalgebra.

The structure derived from a WeakHopf alone lives on the object, computed
on first use and then shared by every caller: the legs of each Delta(e_h)
(`legs`), Delta(1) (`delta_one`), the scalars eps(e_i e_j) of every basis
pair (`eps_products`), the sparse rows of eps_t and eps_s (`eps_rows`,
both read off Delta(1) and eps_products), the rows of S^-1 (`s_inv`) and
the verified counital data (`counital`, the CounitalData of counital()).
Like every stored row, Delta(1) is a sparse dict; its keys are in sorted
order, so the laws that walk its legs meet them in index order and name
the same first failing leg.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from weakhopf import algebra as ag
from weakhopf import linalg as la
from weakhopf.checks import CheckList


class EquivalenceViolation(AssertionError):
    """The three is_hopf criteria disagreed: an axiom-engine bug."""


@dataclass(frozen=True)
class WeakHopf:
    alg: ag.Algebra
    delta: tuple  # sparse rows H -> H (x) H
    eps: tuple  # dense functional
    s: tuple  # sparse rows H -> H

    @property
    def dim(self):
        return self.alg.dim

    @cached_property
    def p(self):
        return self.alg.p

    def d(self, x):
        return ag.apply_map(self.delta, x, self.p)

    def S(self, x):
        return ag.apply_map(self.s, x, self.p)

    def e(self, x):
        return ag.trace_of(self.eps, x, self.p)

    def et(self, x):
        return ag.apply_map(self.eps_rows[0], x, self.p)

    @cached_property
    def s_inv(self):
        """The sparse rows of S^-1."""
        return la.inverse(self.s, self.dim, self.p)

    @cached_property
    def legs(self):
        """legs[h][a] = {b: c} over the legs c e_a (x) e_b of Delta(e_h)."""
        return tuple(la.tslices(dh, self.dim)[0] for dh in self.delta)

    @cached_property
    def delta_one(self):
        """Delta(1), a flat tensor as a sparse dict with sorted keys."""
        return dict(sorted(self.d(self.alg.unit_sparse()).items()))

    @cached_property
    def eps_products(self):
        """eps_products[i][j] = eps(e_i e_j), one scalar per basis pair,
        read off the structure table; read-only like every stored row."""
        return tuple(tuple(self.e(dict(cell)) if cell else 0 for cell in row)
                     for row in self.alg.table)

    @cached_property
    def eps_rows(self):
        """(eps_t, eps_s) as sparse rows.

        With Delta(1) = sum c_uv u (x) v, eps_t(h) = sum c_uv eps(u h) v and
        eps_s(h) = sum c_uv u eps(h v), in one pass over the legs of Delta(1)
        and the nonzero eps(e_u e_h), eps(e_h e_v).
        """
        d, p = self.dim, self.p
        em = [la.sparse(row) for row in self.eps_products]
        rows, cols = la.tslices(self.delta_one, d)
        return tuple(tuple(la.transpose([ag.apply_map(m, sl.get(k, {}), p)
                                         for k in range(d)], d))
                     for m, sl in ((em, cols), (la.transpose(em, d), rows)))

    @cached_property
    def counital(self):
        """The verified CounitalData of H."""
        return counital(self)

    @cached_property
    def coalgebra_checks(self):
        """The CheckList of the coalgebra laws of H, decided once; read-only
        (`verify_axioms` starts from a copy of its items)."""
        return coalgebra_checks(self)


def make_weakhopf(alg, delta, eps, s):
    H = WeakHopf(alg, ag.map_rows(delta, alg.p),
                 tuple(la.as_scalar(c, alg.p) for c in eps),
                 ag.map_rows(s, alg.p))
    H.coalgebra_checks.require()
    return H


# ---------------------------------------------------------------------------
# the axiom engine

def coalgebra_checks(H):
    """The coalgebra laws, decided per h in one sum over the legs
    c e_a (x) e_b of Delta(e_h): (Delta (x) id)Delta(h) -
    (id (x) Delta)Delta(h) at the flat triple, read off the rows Delta(e_a)
    and Delta(e_b), and (eps (x) id)Delta(h) - h and (id (x) eps)Delta(h) - h
    in two bands from d^3 on.  Each law reads its own band, so the least h
    whose band is nonzero is its witness."""
    cl = CheckList()
    d, p, delta, eps = H.dim, H.p, H.delta, H.eps
    dd = d * d
    d3 = dd * d

    def terms(h):
        yield d3 + h, -1
        yield d3 + d + h, -1
        for a, brow in H.legs[h].items():
            for b, c in brow.items():
                yield d3 + b, c * eps[a]
                yield d3 + d + a, c * eps[b]
                for k, w in delta[a].items():
                    yield k * d + b, c * w
                for k, w in delta[b].items():
                    yield a * dd + k, -c * w

    # the nonzero sums, in order of h: an h with none holds every law
    diffs = {h: s for h in range(d) if (s := la.termsum(terms(h), p))}
    for name, text, lo, hi in (
            ("coassociativity", "(Delta (x) id)Delta = (id (x) Delta)Delta",
             0, d3),
            ("counit_left", "(eps (x) id)Delta = id", d3, d3 + d),
            ("counit_right", "(id (x) eps)Delta = id", d3 + d, d3 + 2 * d)):
        with cl.holds(name, text) as law:
            law.fails_at(next(((h,) for h, s in diffs.items()
                               if any(lo <= k < hi for k in s)), None))
    return cl


def verify_axioms(H):
    """Full axiom report: one entry per axiom, each on all basis tuples."""
    cl = CheckList(list(H.coalgebra_checks.items))
    alg = H.alg
    d, p = H.dim, H.p

    # Delta(e_i)Delta(e_j) = sum (e_a e_x) (x) (e_b e_y) over the legs
    # a (x) b of Delta(e_i) and x (x) y of Delta(e_j): the nonempty cells
    # (a, x) of each row a meet the legs of every Delta(e_j) indexed by x
    table, dd, legs = alg.table, d * d, H.legs
    row_cells = [{x: c for x, c in enumerate(row) if c} for row in table]
    by_x = la.transpose(legs, d)
    with cl.holds("delta_multiplicative",
                  "Delta(hg) = Delta(h)Delta(g)") as law:
        row = _first_failing_case(H, H.delta, dd, lambda i: (
            (j * dd + m * d + n, -s * u * c * w)
            for a, brow in legs[i].items()
            for x, cax in row_cells[a].items()
            for j, yrow in by_x[x].items() for b, s in brow.items()
            for y, u in yrow.items() for m, c in cax
            for n, w in table[b][y]))
        law.fails_at(row and row[:2])

    # eps(h g1) eps(g2 f) = eps(x1 f) with x1 = eps(h g1) g2, and the mirror
    # eps(h g2) eps(g1 f) = eps(x2 f) with x2 = g1 eps(h g2); for every h at
    # once, x1 is row h of (P (x) id)Delta(g) and x2 column h of
    # (id (x) P)Delta(g), P the map e_u -> sum_h eps(e_h e_u) e_h.  Per
    # (h, g) the three sides are rows over f, each a combination of the rows
    # eps(e_l e_f) of eps_products: eps((hg)f) from the cell of hg (equal to
    # eps(h(gf)) by associativity), eps(x1 f) and eps(x2 f).  Per h one sum
    # holds lhs - r1 at g d + f and r1 - r2 at d^2 + g d + f: the witness
    # (h, g, f) names the first failing one of the two
    em = H.eps_products
    P = [{h: em[h][u] for h in range(d) if em[h][u]} for u in range(d)]
    x1s = la.transpose([la.tslices(ag.apply_tensor(P, None, dg, d, d, p),
                                   d)[0] for dg in H.delta], d)
    x2s = la.transpose([la.tslices(ag.apply_tensor(None, P, dg, d, d, p),
                                   d)[1] for dg in H.delta], d)
    em_rows = [la.sparse(row) for row in em]

    def minus_rhs(h):
        for g, x1 in x1s[h].items():
            for u, c in x1.items():
                for f, w in em_rows[u].items():
                    t = c * w
                    yield g * d + f, -t
                    yield dd + g * d + f, t
        for g, x2 in x2s[h].items():
            for u, c in x2.items():
                for f, w in em_rows[u].items():
                    yield dd + g * d + f, -c * w

    with cl.holds("eps_weak_multiplicative",
                  "eps(hgf) = eps(h g1)eps(g2 f) = eps(h g2)eps(g1 f)") as law:
        law.fails_at(_first_failing_case(H, em_rows, d, minus_rhs))

    # With Delta(1) = sum c_uv u (x) v, the unit law (checked by
    # make_algebra) gives (Delta(1) (x) 1)(1 (x) Delta(1)) =
    # sum c_uv c_xy u (x) vx (x) y and its mirror sum c_uv c_xy u (x) xv (x) y.
    # Both walk the nonempty cells (v, x), resp. (x, v), against the column
    # slice of Delta(1) at v and its row slice at x.
    col_cells = la.transpose(row_cells, d)
    d1 = H.delta_one
    t_left = ag.apply_tensor(H.delta, None, d1, d, d, p)
    rows, cols = la.tslices(d1, d)
    prod1, prod2 = (la.termsum(
        (((u * d + m) * d + y, cu * w * cy) for v, col in cols.items()
         for x, cell in cells[v].items() if x in rows for u, cu in col.items()
         for m, w in cell for y, cy in rows[x].items()), p)
        for cells in (row_cells, col_cells))
    # key by key where they differ: the witness is the first (u, m, y)
    with cl.holds("delta_one",
                  "(Delta (x) id)Delta(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) "
                  "= (1 (x) Delta(1))(Delta(1) (x) 1)") as law:
        for key in law.over(() if t_left == prod1 == prod2 else sorted(
                t_left.keys() | prod1.keys() | prod2.keys())):
            um, y = divmod(key, d)
            where = divmod(um, d) + (y,)
            if law.check(where, t_left.get(key), prod1.get(key)):
                law.check(where, t_left.get(key), prod2.get(key))

    est, ess = H.eps_rows
    with cl.holds("antipode_target", "h1 S(h2) = eps_t(h)") as law:
        for h in law.over(range(d)):
            law.check((h,), la.legsum(H.delta[h], d, lambda x, y: alg.mul(
                {x: 1}, H.s[y]), H.p), est[h])

    # S(h1) h2 of every basis element, read again by the sandwich law
    s_left = [la.legsum(dh, d, lambda x, y: alg.mul(H.s[x], {y: 1}), H.p)
              for dh in H.delta]
    with cl.holds("antipode_source", "S(h1) h2 = eps_s(h)") as law:
        for h in law.over(range(d)):
            law.check((h,), s_left[h], ess[h])

    # S(h1) h2 S(h3) = sum of c S(a1) a2 S(k) over the legs c a (x) k of
    # Delta(h), the legs of (Delta (x) id)Delta(h) grouped by a
    with cl.holds("antipode_sandwich", "S(h1) h2 S(h3) = S(h)") as law:
        for h in law.over(range(d)):
            law.check((h,), la.legsum(H.delta[h], d, lambda a, k: alg.mul(
                s_left[a], H.s[k]), H.p), H.s[h])

    # S(e_j)S(e_i) = sum S_jx S_iy e_x e_y over the nonempty cells (x, y),
    # with the rows of S indexed by their keys x
    s_by_x = la.transpose(H.s, d)
    with cl.holds("s_anti_multiplicative", "S(hg) = S(g)S(h)") as law:
        row = _first_failing_case(H, H.s, d, lambda i: (
            (j * d + n, -a * b * w) for y, b in H.s[i].items()
            for x, cell in col_cells[y].items()
            for j, a in s_by_x[x].items() for n, w in cell))
        law.fails_at(row and row[:2])

    with cl.holds("s_anti_comultiplicative",
                  "Delta(S(h)) = S(h2) (x) S(h1)") as law:
        for h in law.over(range(d)):
            rhs = la.legsum(H.delta[h], d, lambda i, j: la.tensor_sparse(
                H.s[j], H.s[i], d, H.p), H.p)
            law.check((h,), H.d(H.s[h]), rhs)

    cl.add("s_bijective", "S is bijective in finite dimension",
           la.rank(H.s, d, H.p) == d)

    # uniqueness of the antipode, certified through the convolution algebra:
    # any S' obeying the axioms satisfies S' = S'*id*S' = S'*(id*S)
    # = (S'*id)*S = eps_s*S, and eps_s*S = S pins it to this S.  Per h one
    # sum holds (eps_s*S)(h) - S(h) at m and (S*eps_t)(h) - S(h) at d + m,
    # f(a) g(b) summed over the legs a (x) b of Delta(e_h) and the cells
    # of f(a) x g(b)
    def conv_minus_s(h):
        for off, f, g in ((0, ess, H.s), (d, H.s, est)):
            for m, w in H.s[h].items():
                yield off + m, -w
            for a, brow in legs[h].items():
                for x, u in f[a].items():
                    for b, c in brow.items():
                        for y, v in g[b].items():
                            for m, w in table[x][y]:
                                yield off + m, c * u * v * w

    with cl.holds("antipode_unique", "eps_s * S = S = S * eps_t in the "
                  "convolution algebra") as law:
        for h in law.over(range(d)):
            law.check((h,), la.termsum(conv_minus_s(h), p), {})
    return cl


def _first_failing_case(H, f, width, minus_rhs):
    """The first (i, j, o) where the law f(e_i e_j) = rhs(i, j) fails at
    output index o, or None; f holds the rows of a map such as Delta or S.
    Per row one sum of lhs - rhs keyed by j width + o, over nonzero terms
    only (f of the cells e_i e_j, and minus_rhs(i)), so a pair with no term
    is 0 = 0.  minus_rhs may hold a second equation of each case one band
    up, at d width + j width + o; no two cases share a key mod d width, so
    the least one names the first failing (j, o) of the row."""
    table, p, d = H.alg.table, H.p, H.dim
    for i in range(d):
        lhs = ((j * width + o, c * w) for j, cell in enumerate(table[i])
               for m, c in cell for o, w in f[m].items())
        if diff := la.termsum(chain(lhs, minus_rhs(i)), p):
            jo = min(k % (d * width) for k in diff)
            return i, jo // width, jo % width
    return None


# ---------------------------------------------------------------------------
# counital data

@dataclass(frozen=True)
class CounitalData:
    eps_t: tuple  # sparse rows
    eps_s: tuple
    Ht: la.Subspace
    Hs: la.Subspace
    e_t: dict  # separability idempotent of Ht, flat tensor
    e_s: dict
    checks: CheckList


def counital(H):
    """Counital maps and subalgebras, with every stated identity verified."""
    cl = CheckList()
    d = H.dim
    alg = H.alg
    est, ess = H.eps_rows
    cl.add("eps_t_idempotent", "eps_t o eps_t = eps_t",
           ag.compose_maps(est, est, H.p) == est)
    cl.add("eps_s_idempotent", "eps_s o eps_s = eps_s",
           ag.compose_maps(ess, ess, H.p) == ess)

    Ht = la.Subspace.from_vectors(d, est, H.p)
    Hs = la.Subspace.from_vectors(d, ess, H.p)
    # second characterization from Delta(1): Ht = span of left-slices,
    # Hs = span of right-slices
    d1 = H.delta_one
    rows_t, rows_s = la.tslices(d1, d)
    Ht2 = la.Subspace.from_vectors(d, list(rows_t.values()), H.p)
    Hs2 = la.Subspace.from_vectors(d, list(rows_s.values()), H.p)
    agree = Ht == Ht2 and Hs == Hs2
    cl.add("counital_subalgebras",
           "im(eps_t) = {(phi (x) id)Delta(1)}, im(eps_s) = {(id (x) phi)Delta(1)}",
           agree)
    if not agree:
        cl.require()

    cl.add("s_swaps_counitals", "S o eps_t = eps_s o S, S o eps_s = eps_t o S",
           ag.compose_maps(est, H.s, H.p) == ag.compose_maps(H.s, ess, H.p)
           and ag.compose_maps(ess, H.s, H.p)
           == ag.compose_maps(H.s, est, H.p))

    with cl.holds("counitals_commute", "zy = yz for z in Ht, y in Hs") as law:
        for a, rt in law.over(enumerate(Ht.basis)):
            for b, rs in law.over(enumerate(Hs.basis)):
                law.check((a, b), alg.commutator(rt, rs), {})

    s_img = la.Subspace.from_vectors(d, [H.S(r) for r in Ht.basis], H.p)
    with cl.holds("s_anti_iso_bases",
                  "S restricts to an anti-isomorphism Ht -> Hs") as law:
        law.check(("S(Ht)", "Hs"), (s_img, Ht.dim), (Hs, Hs.dim))
        for a, r1 in law.over(enumerate(Ht.basis)):
            for b, r2 in law.over(enumerate(Ht.basis)):
                law.check((a, b), H.S(alg.mul(r1, r2)),
                          alg.mul(H.S(r2), H.S(r1)))

    e_t = la.legsum(d1, d, lambda u, v: la.tensor_sparse(
        H.s[u], {v: 1}, d, H.p), H.p)
    e_s = la.legsum(d1, d, lambda u, v: la.tensor_sparse(
        {u: 1}, H.s[v], d, H.p), H.p)
    fail_t, fail_s = _separates(H, e_t, Ht), _separates(H, e_s, Hs)
    cl.add("e_t_separates_Ht", "e_t = (S (x) id)Delta(1) is a separability "
           "idempotent for Ht", fail_t is None, witness=fail_t)
    cl.add("e_s_separates_Hs", "e_s = (id (x) S)Delta(1) is a separability "
           "idempotent for Hs", fail_s is None, witness=fail_s)
    return CounitalData(est, ess, Ht, Hs, e_t, e_s, cl)


def _separates(H, e, sub):
    """None iff the flat tensor e is a separability idempotent for sub,
    else the first condition it fails, as the witness text: a leg outside
    sub (row a of e is its second leg beside e_a, column b its first leg
    beside e_b; rows first, each side in index order), mu(e) != 1, or the
    first basis z of sub with (z (x) 1)e != e(1 (x) z).  Over the legs
    c e_a (x) e_b of e, the unit law (decided by make_algebra) gives
    (z (x) 1)e = sum c (z e_a) (x) e_b and e(1 (x) z) = sum c e_a (x) (e_b z):
    per z, one sum of their difference reads z e_a off the cells (x, a) and
    e_b z off the cells (b, y)."""
    d, p, table = H.dim, H.p, H.alg.table
    rows, cols = la.tslices(e, d)
    for side, legs in (("row", rows), ("column", cols)):
        for k in sorted(legs):
            if not sub.contains(legs[k]):
                return "%s %d of e lies outside the subalgebra" % (side, k)
    if la.termsum(((m, c * w) for a, brow in rows.items()
                   for b, c in brow.items() for m, w in table[a][b]),
                  p) != H.alg.unit_sparse():
        return "mu(e) != 1"
    for i, z in enumerate(sub.basis):
        if la.termsum(chain(
                ((m * d + b, c * u * w) for a, brow in rows.items()
                 for x, u in z.items() for m, w in table[x][a]
                 for b, c in brow.items()),
                ((a * d + n, -c * u * w) for b, acol in cols.items()
                 for y, u in z.items() for n, w in table[b][y]
                 for a, c in acol.items())), p):
            return "(z (x) 1)e != e(1 (x) z) at z = basis %d" % i
    return None


# ---------------------------------------------------------------------------
# duals, integrals, the Hopf degeneration

def transpose(H):
    """The dual's product table, coproduct, counit and antipode on the dual
    basis, read off H: the product transposes Delta, the coproduct
    transposes the product, the counit is the unit and the antipode
    transposes S.  The dual's unit is eps."""
    d = H.dim
    prod = la.transpose(H.delta, d * d)  # row i d + j holds e_i* e_j*
    return ([prod[i * d:(i + 1) * d] for i in range(d)],
            la.transpose([dict(cell) for row in H.alg.table for cell in row],
                         d),
            H.alg.unit, la.transpose(H.s, d))


def dual(H):
    """The dual weak Hopf algebra on the dual basis.

    Product transposes Delta, coproduct transposes the product, antipode
    transposes S; the result passes the axiom engine before returning.
    """
    table, delta_star, eps_star, s_star = transpose(H)
    Hd = make_weakhopf(ag.make_algebra(table, H.eps, p=H.p), delta_star,
                       eps_star, s_star)
    verify_axioms(Hd).require()
    return Hd


def involution_witness(H, Hd):
    """None when the transpose of Hd is H's own product, Delta, eps and S
    and Hd's eps is H's unit: Hd then is dual(H) and the double dual is H,
    matrix for matrix.  Otherwise the first differing matrix and basis
    index, e.g. "s basis 2", "unit basis 0" or "table basis (0, 1)"."""
    table, *maps = transpose(Hd)
    for i, row in enumerate(H.alg.table):
        for j, cell in enumerate(row):
            if dict(cell) != table[i][j]:
                return "table basis (%d, %d)" % (i, j)
    for name, mine, back in zip(("delta", "eps", "s", "unit"),
                                (H.delta, H.eps, H.s, H.alg.unit),
                                (*maps, Hd.eps)):
        for k, (a, b) in enumerate(zip(mine, back)):
            if a != b:
                return "%s basis %d" % (name, k)
    return None


@dataclass(frozen=True)
class IntegralSpaces:
    left: la.Subspace
    right: la.Subspace
    normalized_left: dict | None


def integrals(H):
    """The left and right integral spaces and a normalized left integral.

    The left integrals are the l with h l = eps_t(h) l, the right ones the
    r with r h = r eps_s(h); a normalized left integral has eps_t(l) = 1.
    Both equations are read off the structure table and the rows of eps_t
    and eps_s, with no product per basis pair.
    """
    d, p, alg = H.dim, H.p, H.alg
    est, ess = H.eps_rows

    # the image of e_j holds h e_j - eps_t(h) e_j (left) and
    # e_j h - e_j eps_s(h) (right) at offset h d, for every basis h.  With
    # row[u] the cell e_u e_j (left) or e_j e_u (right), both are
    # row[h] - sum_u eps(h)_u row[u]: one sum over nonempty cells per j
    def images(cells, eps):
        return [la.termsum(chain(
            ((h * d + m, w) for h, cell in enumerate(row) for m, w in cell),
            ((h * d + m, -c * w) for h, eh in enumerate(eps)
             for u, c in eh.items() for m, w in row[u])), p)
            for row in cells]

    left = la.kernel(images(list(zip(*alg.table)), est), p)
    right = la.kernel(images(alg.table, ess), p)

    normalized = None
    if left.dim:
        basis = left.basis
        try:
            normalized = ag.apply_map(basis, la.solve(
                [H.et(b) for b in basis], alg.unit_sparse(), H.p), H.p)
        except la.NoSolution:
            normalized = None
    return IntegralSpaces(left, right, normalized)


def maschke_consistent(H, ints):
    """Maschke (Boehm-Nill-Szlachanyi): a normalized left integral exists
    iff H is separable.

    A normalized left integral l gives the candidate f = l1 (x) S(l2),
    decided by `_separates` on the full basis: mu(f) = 1 and the Casimir
    law (e_c (x) 1) f = f (1 (x) e_c) for every c, the equations that
    `ag.separability_element` solves.  Only when there is no l, or f
    fails, does that d^2-unknown solve decide separability.
    """
    l, d, p = ints.normalized_left, H.dim, H.p
    if l is not None:
        f = la.legsum(H.d(l), d, lambda i, j: la.tensor_sparse(
            {i: 1}, H.s[j], d, p), p)
        if _separates(H, f, la.Subspace.full(d, p)) is None:
            return True
    try:
        ag.separability_element(H.alg)
        separable = True
    except ag.NotKanzaki:
        separable = False
    return (l is not None) == separable


def is_hopf(H):
    """True iff Delta(1) = 1 (x) 1; asserts the stated equivalences."""
    d = H.dim
    alg = H.alg
    one2 = la.tensor_sparse(alg.unit_sparse(), alg.unit_sparse(), d, H.p)
    t1 = H.delta_one == one2
    em = H.eps_products
    t2 = all(em[i][j] == la.residue(H.eps[i] * H.eps[j], H.p)
             for i in range(d) for j in range(d))
    Ht = la.Subspace.from_vectors(d, H.eps_rows[0], H.p)
    one_span = la.Subspace.from_vectors(d, [alg.unit_sparse()], H.p)
    t3 = Ht == one_span
    if not (t1 == t2 == t3):
        raise EquivalenceViolation(
            "Delta(1)=1(x)1 <-> eps multiplicative <-> Ht = k1 disagreed: "
            "%s %s %s" % (t1, t2, t3))
    return t1
