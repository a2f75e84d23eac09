"""Finite-dimensional unital associative algebras over an exact field.

An Algebra is a basis, a structure-constant table and a unit vector;
construction verifies the unit law on every basis element and
associativity on every basis triple.  Associativity is decided on an
integer copy of the table (over Q scaled by the lcm of its denominators,
which scales both sides of the law by the same nonzero square; over F_p
the residues), summing only the nonzero terms of each side.
Laws whose passing elements form a subalgebra are decided on
`Algebra.generators`, a generating set of basis elements, which decides
them for every basis element: associativity through the middle nucleus,
the multiplicativity of an inclusion, the N-linearity of a conditional
expectation and the centralizer of an embedded algebra (`_by_generators`,
`centralizer`).  When a generator fails, every basis element is scanned,
so a failure names the same first tuple as the full scan.
On top of that sit inclusions, conditional expectations, dual-bases
solvers, Kanzaki separability and the certification of symmetric Markov
extensions.

Each conditional expectation keeps one read-only table,
``E.products[i][j] = E(e_i e_j)`` in small coordinates, built once on first
use.  The laws that take E of a product with a basis element read it
(N-linearity, dual bases, symmetry, the trace T0 = T o E, the relative
tensor square and the basic construction's E-multiplication).
E is linear, so E(e_m x) = sum_k x_k E(e_m e_k) is the value that the
product-then-E computation gives, and each law is still decided on every
basis tuple, in the same order and with the same witness.  The table is
shared by every reader: callers copy an entry, never mutate it.

Linear maps between based spaces are stored as tuples of sparse rows:
``rows[i]`` is the image of the i-th basis vector as a zero-free dict
{index: coeff}, the one sparse form of `linalg`.  Apply them with
`apply_map`.  The structure table is the exception: ``table[i][j]`` is the
sorted ``((index, coeff), ...)`` tuple of e_i e_j, which the product
kernels walk faster than a dict, and the unit is a dense tuple.

Every sum is seeded with its first term: the kernels (`Algebra.mul`,
`apply_map`, `apply_tensor`, `tensor_mul`, `cell_sum`, `centralizer`)
write ``o = out.get(k); out[k] = t if o is None else o + t`` and end with
`la.residues`, and a scalar sum goes through `la.scalar_sum`.  Over Q,
``0 + x`` on a `la.Rational` x is a reflected Python call that builds a
new Rational, and most entries have one term.  An empty cell or a
zero vector forms nothing: `Algebra.mul` and `apply_map` return {} on an
empty input, `E.products` applies E only to nonempty cells, and no trace,
product or class is formed of a value that is zero by construction.  No
case of a law is skipped: every law is still decided on every basis tuple.

A basis element is its index.  The product of two basis elements is read
from ``table[i][j]`` (walked as pairs where it is only summed, ``dict(cell)``
where a vector is compared or passed on), and the image of e_i under a
stored map is ``rows[i]``; neither is rebuilt as a vector and pushed
through `Algebra.mul` or `apply_map`.  A one-hot ``{i: 1}`` is written only
where a vector is needed: a basis element times another vector, or the
right-hand side of a law.

Frobenius coordinate systems are never unique: two systems for the same
inclusion differ by an invertible element d of the centralizer (the second
homomorphism is x -> E(dx), with dual bases transported by d^-1).  The
solvers here always return the canonical solution of `linalg.solve` (zero
at non-pivot coordinates), and every construction downstream is verified
identity by identity, so the choice never matters.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from math import lcm

from weakhopf import linalg as la
from weakhopf.checks import CheckList
from weakhopf.linalg import (Subspace, dense, format_vector, sadd_into,
                             sparse, svec, tindex)


class NotAssociative(ValueError):
    def __init__(self, i, j, k, lhs, rhs):
        self.witness = (i, j, k, lhs, rhs)
        super().__init__("(e%d e%d) e%d != e%d (e%d e%d)" % (i, j, k, i, j, k))


class BadUnit(ValueError):
    def __init__(self, i, side):
        self.witness = (i, side)
        super().__init__("unit fails on e%d (%s)" % (i, side))


class NotClosed(ValueError):
    pass


class NoDualBases(Exception):
    """The dual-bases system is infeasible: not Frobenius, or not depth 2
    when the solution was constrained to a centralizer."""


class NotKanzaki(Exception):
    """No symmetric separability element exists."""


# ---------------------------------------------------------------------------

def apply_map(rows, x, p=None):
    """Apply a sparse-rows linear map to a sparse vector."""
    if not x:
        return {}
    out = {}
    for i, c in x.items():
        for j, v in rows[i].items():
            t = c * v
            o = out.get(j)
            out[j] = t if o is None else o + t
    return la.residues(out, p)


def apply_tensor(f, g, x, n, m, p=None):
    """(f (x) g)(x) for sparse-rows maps f and g, None meaning the identity.

    x is a flat tensor on indices i n + j and the image is on k m + l: n and
    m are the dimensions of the domain and the codomain of g.
    """
    out = {}
    for ij, c in x.items():
        i, j = divmod(ij, n)
        for k, a in (f[i] if f is not None else {i: 1}).items():
            base = k * m
            ca = c * a
            for l, b in (g[j] if g is not None else {j: 1}).items():
                t = ca * b
                o = out.get(base + l)
                out[base + l] = t if o is None else o + t
    return la.residues(out, p)


def tensor_mul(A, B, x, y):
    """Product in A (x) B of flat tensors on indices a B.dim + b."""
    n = B.dim
    out = {}
    for ij, a in x.items():
        i, j = divmod(ij, n)
        ti, tj = A.table[i], B.table[j]
        for kl, b in y.items():
            k, l = divmod(kl, n)
            c = a * b
            for m, v1 in ti[k]:
                base = m * n
                cv = c * v1
                for m2, v2 in tj[l]:
                    t = cv * v2
                    o = out.get(base + m2)
                    out[base + m2] = t if o is None else o + t
    return la.residues(out, A.p)


def map_rows(images, p=None):
    """Stored rows of a linear map from its images, given as sparse dicts:
    scalars in the `la.as_scalar` form, zeros dropped, keys in sorted
    order."""
    return tuple(dict(_srow(im.items(), p)) for im in images)


def _srow(pairs, p):
    """svec of (index, scalar) pairs, each through as_scalar, zeros dropped:
    a structure-table cell, or the items of a stored row."""
    row = ((i, la.as_scalar(c, p)) for i, c in pairs)
    return svec({i: c for i, c in row if c != 0})


def compose_maps(first, second, p=None):
    """rows of (second o first)."""
    return tuple(apply_map(second, r, p) for r in first)


@dataclass(frozen=True)
class Algebra:
    dim: int
    table: tuple  # table[i][j]: sparse product e_i e_j
    unit: tuple  # dense coords
    labels: tuple | None = None
    p: int | None = None

    @cached_property
    def generators(self):
        """Basis indices that generate the algebra, in index order.

        A closure walk over the table: an index is picked when no
        left-normed word in the indices picked before it reaches it, a word
        being a picked index or a reached index times a picked one.  A
        word whose table cell holds the one term c e_k reaches k, for then
        e_k = c^-1 (word) lies in the subalgebra the picked indices
        generate; a cell of several terms reaches nothing.  Once every
        index is picked or reached, that subalgebra is the whole algebra.
        On a monomial table (every nonempty cell one term: group and
        groupoid algebras, matrix units, every tower level) this is a small
        set; on a table with no one-term cell it is the full basis.
        """
        table = self.table
        reached, words, gens = [False] * self.dim, [], []
        for g in range(self.dim):
            if reached[g]:
                continue
            reached[g] = True
            gens.append(g)
            # every word so far times g, and g times every generator
            todo = [(w, g) for w in words] + [(g, h) for h in gens]
            words.append(g)
            while todo:
                w, h = todo.pop()
                cell = table[w][h]
                if len(cell) == 1 and not reached[k := cell[0][0]]:
                    reached[k] = True
                    words.append(k)
                    todo.extend((k, h2) for h2 in gens)
        return tuple(gens)

    def mul(self, x, y):
        """Product of sparse vectors."""
        if not x or not y:
            return {}
        out = {}
        table = self.table
        for i, a in x.items():
            ti = table[i]
            for j, b in y.items():
                cell = ti[j]
                if cell:
                    c = a * b
                    for k, v in cell:
                        t = c * v
                        o = out.get(k)
                        out[k] = t if o is None else o + t
        return la.residues(out, self.p)

    def mulm(self, *xs):
        acc = xs[0]
        for y in xs[1:]:
            if not acc:
                return {}
            acc = self.mul(acc, y)
        return acc

    def unit_sparse(self):
        return sparse(self.unit)

    def commutator(self, x, y):
        return sadd_into(self.mul(x, y), self.mul(y, x), -1, self.p)

    def scalar_of(self, x):
        """If x is a multiple of the unit, return the multiplier, else None."""
        ud = self.unit_sparse()
        if not x:
            return 0
        k, v = next(iter(x.items()))
        if ud.get(k) is None:
            return None
        c = la.div(v, ud[k], self.p)
        return c if x == la.sscale(ud, c, self.p) else None

    def lmul_rows(self, x):
        """Sparse rows of left multiplication by x."""
        return tuple(self.mul(x, {j: 1}) for j in range(self.dim))

    def rmul_rows(self, x):
        return tuple(self.mul({j: 1}, x) for j in range(self.dim))


def make_algebra(structure, unit, labels=None, p=None):
    """Build an Algebra after verifying the unit law and associativity.

    `structure` is a dim x dim table of sparse dicts, cell [i][j] holding
    e_i e_j.  The unit law is one sum: (2 i + side) dim + n holds
    (u e_i - e_i)_n on the left side and (e_i u - e_i)_n on the right, read
    from row k and column k of the table for each unit coordinate u_k, so
    its least nonzero key names the first failing (i, side).
    `check_associative` decides every basis triple on the table times d,
    the lcm of its denominators (over F_p, on the residues): both sides of
    the law are quadratic in the table, so they scale by the same d^2 and
    the law is the same.
    """
    dim = len(structure)
    table = tuple(tuple(_srow(cell.items(), p) if cell else ()
                        for cell in row) for row in structure)
    unit = tuple(la.as_scalar(c, p) for c in unit)
    alg = Algebra(dim, table, unit, tuple(labels) if labels else None, p)
    diff = {(2 * i + side) * dim + i: -1
            for i in range(dim) for side in (0, 1)}
    for k, u in alg.unit_sparse().items():
        for i, row in enumerate(table):
            for side, cell in ((0, table[k][i]), (1, row[k])):
                off = (2 * i + side) * dim
                for n, v in cell:
                    t = u * v
                    o = diff.get(off + n)
                    diff[off + n] = t if o is None else o + t
    if diff := la.residues(diff, p):
        i2 = min(diff) // dim
        raise BadUnit(i2 // 2, ("left", "right")[i2 % 2])
    check_associative(alg)
    return alg


def check_associative(alg):
    """Raise NotAssociative at the first basis triple (i, j, k) where
    (e_i e_j) e_k != e_i (e_j e_k).

    The law is decided by the middle factor: the g with (x g) y = x (g y)
    for all x, y form the middle nucleus, a subalgebra by the Teichmüller
    identity (Schafer, An Introduction to Nonassociative Algebras, 1966),
    so A is associative as soon as every generator of `Algebra.generators`
    is in it, and `_by_generators` scans every middle index only when one
    is not.  Each middle index g is one sum on the table times d, the lcm
    of its denominators (over F_p, on the residues): both sides of the law
    are quadratic in the table, so they scale by the same d^2 and the law
    is the same.  `_middle_failure` keys it by (i, k, n), so its least
    nonzero key names the first failing (i, k) of g, and the least failing
    (i, g, k) over the basis is the first failing triple; only its two
    sides are formed.
    """
    dim, p = alg.dim, alg.p
    d = 1 if p else lcm(*(c.denominator for row in alg.table
                          for cell in row for _, c in cell))
    rows = [[(j, [(n, c if p else c.numerator * (d // c.denominator))
                  for n, c in cell])
             for j, cell in enumerate(row) if cell] for row in alg.table]
    cols = [[] for _ in range(dim)]  # cols[j]: the (i, cell) of column j
    for i, row in enumerate(rows):
        for j, cell in row:
            cols[j].append((i, cell))
    if ijk := _by_generators(alg, lambda g: _middle_failure(rows, cols, g,
                                                           dim, p)):
        i, j, k = ijk
        raise NotAssociative(i, j, k, alg.mul(dict(alg.table[i][j]), {k: 1}),
                             alg.mul({i: 1}, dict(alg.table[j][k])))


def _middle_failure(rows, cols, g, dim, p):
    """The least (i, g, k) with (e_i e_g) e_k != e_i (e_g e_k), or None,
    on the integer table of `check_associative` by nonempty rows and
    columns: one map of d^2 (lhs - rhs) keyed by (i, k, n), summed over
    nonempty cells only, so a pair with no term is zero on both sides; over
    F_p the sums are compared mod p."""
    diff = defaultdict(int)  # (i, k, n) -> d^2 (lhs - rhs)_n
    for i, cell in cols[g]:
        for l, a in cell:
            for k, lcell in rows[l]:
                key = (i * dim + k) * dim
                for n, b in lcell:
                    diff[key + n] += a * b
    for k, cell in rows[g]:
        for m, a in cell:
            for i, mcell in cols[m]:
                key = (i * dim + k) * dim
                for n, b in mcell:
                    diff[key + n] -= a * b
    if diff := la.residues(diff, p):
        i, k = divmod(min(diff) // dim, dim)
        return i, g, k
    return None


def _by_generators(alg, failure):
    """The least failure(a) over the basis of alg, or None if there is none.

    failure(a) is the least failing case of a law at basis element a, or
    None.  The law must be one whose passing elements form a subalgebra:
    then it holds on the whole algebra when it holds on
    `alg.generators`, and only when a generator fails is every basis
    element scanned, so that the witness is that of the full scan.
    """
    if all(failure(g) is None for g in alg.generators):
        return None
    return min(w for a in range(alg.dim) if (w := failure(a)) is not None)


def centralizer(big, elements):
    """{x in big : xs = sx for every s of `elements`}, as echelon rows.

    The kernel of x -> ([x, s])_s over the sparse vectors s: the image of
    e_j holds [e_j, s] = sum_k s_k (e_j e_k - e_k e_j), read from the
    structure table, at offset i dim for the i-th element s.  The s that
    commute with a given x form a subalgebra, so the centralizer of a
    subalgebra is that of any set that generates it: pass the images of
    the generators of an embedded algebra (`Inclusion.generators`), or the
    basis of a subspace.
    """
    table, p, d = big.table, big.p, big.dim
    images = []
    for j in range(d):
        im = {}
        for si, s in enumerate(elements):
            off = si * d
            for k, c in s.items():
                for n, v in table[j][k]:
                    t = c * v
                    o = im.get(off + n)
                    im[off + n] = t if o is None else o + t
                for n, v in table[k][j]:
                    t = c * v
                    o = im.get(off + n)
                    im[off + n] = -t if o is None else o - t
        images.append(la.residues(im, p))
    return la.kernel(images, p)


def subalgebra(big, sub, name="subalgebra"):
    """Induced Algebra on an echelon subspace closed under the product.

    Returns (algebra, inject, express): inject maps subalgebra coords into
    the ambient, express goes back (raising NotClosed off the subspace).
    A subspace that is not closed is refused with NotClosed naming the
    first basis pair (i, j) whose product leaves it, or the unit.
    """
    n = sub.dim
    rows = sub.basis

    def express(x, where="element"):
        co = sub.coords(x)
        if co is None:
            if isinstance(where, tuple):
                where = "the product of basis pair (%d, %d)" % where
            raise NotClosed("%s: %s leaves the subspace" % (name, where))
        return co

    table = [[express(big.mul(rows[i], rows[j]), (i, j)) for j in range(n)]
             for i in range(n)]
    unit = dense(express(big.unit_sparse(), "the unit"), n)
    alg = make_algebra(table, unit, p=big.p)

    def inject(x):
        return apply_map(rows, x, big.p)

    return alg, inject, express


def right_inverse(alg, x):
    """The y with x y = 1 in alg, as sparse coords; raises la.NoSolution."""
    return la.solve(alg.lmul_rows(x), alg.unit_sparse(), alg.p)


# ---------------------------------------------------------------------------
# inclusions and conditional expectations

@dataclass(frozen=True)
class Inclusion:
    small: Algebra
    big: Algebra
    embed: tuple  # sparse rows, small -> big

    def emb(self, x):
        return apply_map(self.embed, x, self.big.p)

    @cached_property
    def image(self):
        """The image of small in big, a Subspace built once."""
        return Subspace.from_vectors(self.big.dim, self.embed, self.big.p)

    @property
    def generators(self):
        """The images of the generators of small, which generate the image
        as an algebra: the embedding is multiplicative."""
        return [self.embed[g] for g in self.small.generators]


@dataclass(frozen=True)
class CondExpectation:
    incl: Inclusion
    rows: tuple  # sparse rows, big -> small coords

    def E_small(self, x):
        return apply_map(self.rows, x, self.incl.big.p)

    @cached_property
    def products(self):
        """products[i][j] = E(e_i e_j), a sparse dict in small coordinates
        per basis pair of big; read-only (see the module docstring)."""
        p = self.incl.big.p
        return tuple(tuple(apply_map(self.rows, dict(cell), p) if cell else {}
                           for cell in row) for row in self.incl.big.table)

    def _E_mx(self, m, x):
        """E(e_m x) = sum_k x_k E(e_m e_k), read from `products`."""
        return apply_map(self.products[m], x, self.incl.big.p)

    def _E_xm(self, x, m):
        """E(x e_m) = sum_k x_k E(e_k e_m), read from `products`."""
        table, p = self.products, self.incl.big.p
        out = {}
        for k, c in x.items():
            if v := table[k][m]:
                sadd_into(out, v, c, p)
        return out


@dataclass(frozen=True)
class DualBases:
    xs: tuple  # sparse big elements
    ys: tuple
    lambda_inv: object  # scalar when strongly separable, else None


def make_inclusion(small, big, embed):
    """The inclusion of small in big by the rows `embed`, verified unital,
    multiplicative and injective.

    Multiplicativity emb(e_i e_j) = emb(e_i) emb(e_j) is decided for the
    generators i of small and every j (`_by_generators`): both algebras are
    associative, so the a with emb(a b) = emb(a) emb(b) for all b form a
    subalgebra, and it holds on every basis pair when it holds there.  A
    failure names the first failing pair (i, j) of the full scan.
    """
    embed = map_rows(embed, big.p)
    incl = Inclusion(small, big, embed)
    if incl.emb(small.unit_sparse()) != big.unit_sparse():
        raise ValueError("inclusion does not preserve the unit")

    def failure(i):
        for j, cell in enumerate(small.table[i]):
            if (incl.emb(dict(cell)) if cell else {}) != big.mul(embed[i],
                                                                 embed[j]):
                return i, j
        return None

    if ij := _by_generators(small, failure):
        raise ValueError("embedding not multiplicative at (%d, %d)" % ij)
    if incl.image.dim != small.dim:
        raise ValueError("embedding not injective")
    return incl


def make_cond_expectation(incl, rows):
    """E: big -> small, verified to fix N and to be an N-bimodule map.

    Bimodularity E(a x b) = a E(x) b is decided on basis pairs: left
    linearity E(a x) = a E(x) and right linearity E(x a) = E(x) a for every
    basis a of N and x of M, 2 dim N dim M cases instead of dim N^2 dim M
    triples.  The two forms agree: by associativity the pair laws give
    E(a x b) = a E(x b) = a E(x) b, and b = 1 or a = 1 in the triple law
    gives the pair laws back (make_inclusion checks that 1_N embeds as 1_M).
    Each basis a of N is one sum over every x: (2 x + side) dim N + n holds
    E(a e_x) - a E(x) for the left side and E(e_x a) - E(x) a for the
    right, so its least nonzero key names the first failing (x, side) of a,
    and the least (x, a, side) over the failing a is the witness.  The a
    for which both laws hold form a subalgebra, since M and N are
    associative and the embedding multiplicative (E(a a' x) = a E(a' x) =
    a a' E(x), and on the right alike), so the sums run for the generators
    of N (`_by_generators`), and for every a only when one of them fails.
    E(a e_x) and E(e_x a) are read from row k and column k of `E.products`
    for each coordinate k of a in M; that table is built here, once per E,
    and kept for every later law on E.  a E(x) and E(x) a are read from
    row a and column a of the structure table of N.
    """
    rows = map_rows(rows, incl.big.p)
    E = CondExpectation(incl, rows)
    small, emb, p = incl.small, incl.embed, incl.big.p
    for a in range(small.dim):
        if E.E_small(emb[a]) != {a: 1}:
            raise ValueError("E o embed != id at basis %d" % a)
    n, table, prods = small.dim, small.table, E.products

    def failure(a):
        diff = {}
        for k, c in emb[a].items():
            for x, prow in enumerate(prods):
                for side, v in ((0, prods[k][x]), (1, prow[k])):
                    off = (2 * x + side) * n
                    for i, w in v.items():
                        t = c * w
                        o = diff.get(off + i)
                        diff[off + i] = t if o is None else o + t
        for x, Ex in enumerate(rows):
            for j, c in Ex.items():
                for side, cell in ((0, table[a][j]), (1, table[j][a])):
                    off = (2 * x + side) * n
                    for i, w in cell:
                        t = c * w
                        o = diff.get(off + i)
                        diff[off + i] = -t if o is None else o - t
        if diff := la.residues(diff, p):
            x2 = min(diff) // n
            return x2 // 2, a, x2 % 2
        return None

    if xas := _by_generators(small, failure):
        x, a, side = xas
        if side:
            raise ValueError("E not right N-linear at (%d, %d)" % (x, a))
        raise ValueError("E not left N-linear at (%d, %d)" % (a, x))
    return E


def cell_sum(cells, x, p):
    """sum_k x_k cells[k] over structure-table cells: e_a x when cells is
    row a of the table, x e_a when it is column a."""
    out = {}
    for k, c in x.items():
        for n, v in cells[k]:
            t = c * v
            o = out.get(n)
            out[n] = t if o is None else o + t
    return la.residues(out, p)


# ---------------------------------------------------------------------------
# dual bases, separability, symmetry

def find_dual_bases(E, within=None):
    """Solve E(m x_i) y_i = m = x_i E(y_i m) for a dual-bases tensor.

    The tensor lives in span(cands) (x) span(cands) where cands is the
    basis of `within` inside big, or the full basis of big.  The tensor is
    only unique modulo the balancing relations, so the solver first looks
    for a representative that also satisfies the symmetric product identity
    x_i y_i = y_i x_i in k1 (linear once the scalar is adjoined as an
    unknown), falling back to the plain system.  Raises NoDualBases when
    even that is infeasible.  The system is that of `_dual_bases_system`;
    the plain system is the same images with the symmetric-product
    coordinates dropped.  Callers decide the bases by `verify_dual_bases`.
    """
    big = E.incl.big
    p = big.p
    d = big.dim
    cands, images, lam, rhs = _dual_bases_system(E, within)
    n = len(cands)
    t = None
    try:
        sol = la.solve(images + [lam], rhs, p)
        if sol.pop(n * n, 0) != 0:
            t = sol
    except la.NoSolution:
        pass
    if t is None:
        # the plain system: the same images without the symmetric product
        sym = 2 * d * d
        for im in images:
            for k in [k for k in im if k >= sym]:
                del im[k]
        try:
            t = la.solve(images, rhs, p)
        except la.NoSolution:
            raise NoDualBases("dual-bases system infeasible")
    xs, ys = [], []
    for a in range(n):
        y = {}
        for b in range(n):
            sadd_into(y, cands[b], t.get(a * n + b, 0), p)
        if y:
            xs.append(cands[a])
            ys.append(y)
    s = {}
    for x, y in zip(xs, ys):
        sadd_into(s, big.mul(x, y), 1, p)
    return DualBases(tuple(xs), tuple(ys), big.scalar_of(s))


def _dual_bases_system(E, within):
    """(cands, images, lam, rhs): the dual-bases system of
    `find_dual_bases`.

    Unknown ab = a n + b is the coefficient t_ab of c_a (x) c_b; its image
    holds the e_k coordinate of E(e_m c_a) c_b at 2 (m d + k) and that of
    c_a E(c_b e_m) at 2 (m d + k) + 1, and both sums are asked to be e_m.
    E takes values in the small algebra, so with E(e_m c_a) read from
    `E.products` in small coordinates, E(e_m c_a) c_b is the combination
    of the products emb(e_z) c_b weighted by its coordinates, and
    c_a E(c_b e_m) that of the c_a emb(e_z): each product is formed once
    per (z, candidate), and every equation of the system is still written
    out.  The symmetric product x_i y_i = lam 1 = y_i x_i takes the e_k
    coordinates at 2 (d d + k) and 2 (d d + k) + 1, with each c_a c_b
    formed once for both; `lam` is the image of the scalar lam, adjoined
    as unknown n n.
    """
    big = E.incl.big
    p = big.p
    if within is None:
        cands = [{i: 1} for i in range(big.dim)]
        prods = [[dict(cell) for cell in row] for row in big.table]
    else:
        cands = within.basis
        prods = [[big.mul(x, y) for y in cands] for x in cands]
    d = big.dim
    n = len(cands)
    emb = E.incl.embed
    zc = [[big.mul(ez, c) for ez in emb] for c in cands]  # [b][z]
    cz = [[big.mul(c, ez) for ez in emb] for c in cands]  # [a][z]
    images = [{} for _ in range(n * n)]
    rhs = {}
    for m in range(d):
        off = 2 * m * d
        rhs[off + 2 * m] = rhs[off + 2 * m + 1] = 1
        for a, c in enumerate(cands):
            if e_mc := E._E_mx(m, c):
                for b in range(n):
                    im = images[a * n + b]
                    for k, v in apply_map(zc[b], e_mc, p).items():
                        im[off + 2 * k] = v
        for b, c in enumerate(cands):
            if e_cm := E._E_xm(c, m):
                for a in range(n):
                    im = images[a * n + b]
                    for k, v in apply_map(cz[a], e_cm, p).items():
                        im[off + 2 * k + 1] = v
    sym = 2 * d * d
    for a in range(n):
        for b in range(n):
            im = images[a * n + b]
            for k, v in prods[a][b].items():
                im[sym + 2 * k] = v
            for k, v in prods[b][a].items():
                im[sym + 2 * k + 1] = v
    lam = {}
    for k, u in enumerate(big.unit):
        if u != 0:
            lam[sym + 2 * k] = lam[sym + 2 * k + 1] = -u
    return cands, images, lam, rhs


def verify_dual_bases(E, db):
    """Decide E(e_m x_i) y_i = e_m = x_i E(y_i e_m) for every basis m of big.

    E(e_m x_i) and E(y_i e_m) are read in small coordinates from row m and
    column m of `E.products`, and the products emb(e_z) y_i and
    x_i emb(e_z) are formed once per (z, i): each side for e_m is one
    `apply_map` over them, on the index i dim N + z.  Raises NoDualBases at
    the first failing m.
    """
    big, p = E.incl.big, E.incl.big.p
    emb, n, prods = E.incl.embed, E.incl.small.dim, E.products
    cols = tuple(zip(*prods))
    zy = [big.mul(ez, y) for y in db.ys for ez in emb]  # at i n + z
    xz = [big.mul(x, ez) for x in db.xs for ez in emb]
    for m in range(big.dim):
        em = {m: 1}
        for vs, cells, formed in ((db.xs, prods[m], zy), (db.ys, cols[m], xz)):
            co = {}
            for i, v in enumerate(vs):
                for k, c in v.items():
                    for z, w in cells[k].items():
                        t = c * w
                        o = co.get(i * n + z)
                        co[i * n + z] = t if o is None else o + t
            if apply_map(formed, co, p) != em:
                raise NoDualBases("dual bases fail re-verification at basis "
                                  "%d" % m)
    return True


def separability_element(A, symmetric=False, require_unique=False):
    """Solve for a separability element f in A (x) A.

    Casimir (a (x) 1) f = f (1 (x) a), mu(f) = 1, optionally flip-symmetric.
    The unknown f_ab, the coefficient of e_a (x) e_b, sits at the flat
    index a dim + b, and its image is read from the structure table.
    Returns the sparse tensor on those indices.  Raises NotKanzaki when
    infeasible, or when `require_unique` and the solution space is
    positive-dimensional after normalization.
    """
    n, p, table = A.dim, A.p, A.table
    nn = n * n
    # the image of f_ab: the Casimir law for e_c at (c, k, l) -> c n^2 +
    # k n + l, where f_ab adds (e_c e_a)_k at (c, k, b) and subtracts
    # (e_b e_c)_l at (c, a, l); the flip law f_ab = f_ba for a < b at
    # n^3 + tindex(a, b); the k-th coordinate of mu(f) at n^3 + n^2 + k
    sym, mu = n * nn, n * nn + nn
    images = []
    for a in range(n):
        for b in range(n):
            im = {}
            for c in range(n):
                off = c * nn
                for k, v in table[c][a]:
                    o = im.get(off + k * n + b)
                    im[off + k * n + b] = v if o is None else o + v
                for l, v in table[b][c]:
                    o = im.get(off + a * n + l)
                    im[off + a * n + l] = -v if o is None else o - v
            if symmetric and a != b:
                im[sym + tindex(min(a, b), max(a, b), n)] = 1 if a < b else -1
            for k, v in table[a][b]:
                im[mu + k] = v
            images.append(la.residues(im, p))
    rhs = {mu + k: u for k, u in enumerate(A.unit) if u != 0}
    try:
        t = la.solve(images, rhs, p)
    except la.NoSolution:
        raise NotKanzaki("no %sseparability element" %
                         ("symmetric " if symmetric else ""))
    if require_unique:
        ker_dim = nn - la.rank(images, mu + n, p)
        if ker_dim != 0:
            raise NotKanzaki("separability element not unique "
                             "(solution space dim %d)" % ker_dim)
    return t


def kanzaki_element(A):
    """The unique symmetric separability element of A, or NotKanzaki."""
    return separability_element(A, symmetric=True, require_unique=True)


def trace_dual_bases(A, trace):
    """Dual bases (a_i, b_i) of a trace functional: u = a_i t(b_i u).

    Returns None when the trace form is degenerate.
    """
    n = A.dim
    # b_i is column i of the inverse Gram matrix t(e_i e_j): row i of the
    # inverse of its transpose
    try:
        b_s = la.inverse(la.transpose(trace_form(A, trace), n), n, A.p)
    except la.NoSolution:
        return None
    a_s = tuple({i: 1} for i in range(n))
    return a_s, b_s


def trace_form(A, trace):
    """The Gram matrix of a functional on A as sparse rows: row i holds
    t(e_i e_j) at j, read off the nonempty cells of A's table."""
    return [la.residues({j: la.scalar_sum(c * trace[k] for k, c in cell)
                         for j, cell in enumerate(row) if cell}, A.p)
            for row in A.table]


def trace_of(trace, x, p=None):
    return la.as_scalar(la.scalar_sum(c * trace[i] for i, c in x.items()), p)


# ---------------------------------------------------------------------------
# Markov certification

@dataclass(frozen=True)
class MarkovCertificate:
    """The verdicts of `certify_markov` and the objects it built.

    `U_alg` is the centralizer C_M(N) as an algebra on the basis `U.basis`
    and `kanzaki` its symmetric separability element; on the first tower
    level they are the subalgebra V = C_M1(M) and its Kanzaki element,
    which the derivation's duality pairing reads.
    """

    E: CondExpectation
    dual_bases: DualBases
    trace: tuple  # functional on small
    lambda_inv: object
    U: Subspace  # centralizer of the embedded small algebra
    U_alg: Algebra | None  # U as an algebra on the basis U.basis
    kanzaki: dict | None  # separability element of U_alg, flat tensor
    trace_duals: tuple | None  # dual bases of T0 restricted to U
    t0: tuple  # T0 = T o E as a functional on big
    checks: CheckList

    @property
    def incl(self):
        return self.E.incl


def certify_markov(incl, E, db, trace):
    """Verify every defining identity of a symmetric Markov extension.

    Every verdict is a named check of the certificate's CheckList, decided
    on a full basis and recorded with a witness on failure.  The laws
    on E of a basis product read `E.products`: the dual bases, the trace
    property T0(e_i e_j) = T(E(e_i e_j)) (each value once, compared with
    its transpose, at the pairs where either is nonzero) and symmetry on
    C_M(N), the kernel of the commutators with the images of the generators
    of N (`Inclusion.generators`).  Non-degeneracy follows from the
    dual bases, which are verified first (NoDualBases otherwise): every x
    is E(x x_i) y_i, so E(xM) = 0 gives x = 0 [KN].  C_M(N) is kept as an
    algebra (`U_alg`) with its Kanzaki element for the next level's
    derivation.
    """
    small, big = incl.small, incl.big
    trace = tuple(la.as_scalar(c, big.p) for c in trace)
    cl = CheckList()
    verify_dual_bases(E, db)
    cl.add("dual_bases", "E(m x_i) y_i = m = x_i E(y_i m)", True)

    one_small = small.unit_sparse()
    cl.add("E_unital", "E(1) = 1", E.E_small(big.unit_sparse()) == one_small)

    xy = {}
    yx = {}
    for x, y in zip(db.xs, db.ys):
        sadd_into(xy, big.mul(x, y), 1, big.p)
        sadd_into(yx, big.mul(y, x), 1, big.p)
    lam_inv = big.scalar_of(xy)
    strongly = lam_inv is not None and lam_inv != 0
    cl.add("strongly_separable", "x_i y_i = lambda^-1 1",
           strongly, witness=format_vector(xy))
    sym_prod = strongly and big.scalar_of(yx) == lam_inv
    cl.add("symmetric_product", "y_i x_i = lambda^-1 1 = x_i y_i",
           sym_prod, witness=format_vector(yx))

    cl.add("trace_normalized", "T(1) = 1",
           trace_of(trace, one_small, big.p) == 1)

    t0 = tuple(trace_of(trace, r, big.p) for r in E.rows)
    # T0(e_i e_j) = T(E(e_i e_j)), each once, at the nonzero cells of
    # E.products; a pair (i, j) with both values zero holds as 0 = 0, so the
    # pairs visited, in order, are those where either side is nonzero
    t0_pairs = {}
    for i, row in enumerate(E.products):
        for j, v in enumerate(row):
            if v and (t := trace_of(trace, v, big.p)):
                t0_pairs[i, j] = t
    with cl.holds("T0_trace", "T0(ab) = T0(ba), T0 = T o E") as law:
        for i, j in law.over(sorted({*t0_pairs,
                                     *(ij[::-1] for ij in t0_pairs)})):
            law.check((i, j), t0_pairs.get((i, j), 0),
                      t0_pairs.get((j, i), 0))

    # x = E(x x_i) y_i for every x, by the dual bases verified above
    cl.add("E_nondegenerate", "E(xM) = 0 => x = 0", True)

    U = centralizer(big, incl.generators)
    with cl.holds("symmetric", "E(ux) = E(xu) for u in C_M(N)") as law:
        for ui, u in law.over(enumerate(U.basis)):
            for j in law.over(range(big.dim)):
                law.check((ui, j), E._E_xm(u, j), E._E_mx(j, u))

    kanz = None
    try:
        U_alg, _, _ = subalgebra(big, U, "centralizer")
        kanz = kanzaki_element(U_alg)
        cl.add("U_kanzaki", "C_M(N) has a symmetric separability element", True)
    except (NotKanzaki, NotClosed) as exc:
        cl.add("U_kanzaki", "C_M(N) has a symmetric separability element",
               False, witness=str(exc))
        U_alg = None

    tdu = None
    if U_alg is not None:
        t0U = tuple(trace_of(t0, r, big.p) for r in U.basis)
        tdu = trace_dual_bases(U_alg, t0U)
        cl.add("T0_U_nondegenerate", "T0 restricted to C_M(N) non-degenerate",
               tdu is not None)
    else:
        cl.add("T0_U_nondegenerate", "T0 restricted to C_M(N) non-degenerate",
               False, witness="centralizer algebra unavailable")

    return MarkovCertificate(
        E=E, dual_bases=db, trace=trace, lambda_inv=lam_inv, U=U,
        U_alg=U_alg, kanzaki=kanz, trace_duals=tdu, t0=t0, checks=cl)


def pimsner_popa(cl, k, E, e, lam_inv):
    """Add the Pimsner-Popa identities of e = e_k in big to cl, decided on
    every basis x with no product formed per x.

    The right identity x e = lambda^-1 E(x e) e reads x e from row x of the
    table and E(x e) from row x of `E.products`, in small coordinates, and
    combines lambda^-1 emb(e_z) e, formed once per basis z of small; the
    left identity e x = lambda^-1 e E(e x) reads the columns and combines
    lambda^-1 e emb(e_z).
    """
    big, p, prods = E.incl.big, E.incl.big.p, E.products
    tab = big.table
    for right in (True, False):
        ze = [la.sscale(big.mul(ez, e) if right else big.mul(e, ez), lam_inv,
                        p) for ez in E.incl.embed]
        with cl.holds(
                "pimsner_popa_%s_e%d" % ("right" if right else "left", k),
                ("x e%d = lambda^-1 E(x e%d) e%d" if right else
                 "e%d x = lambda^-1 e%d E(e%d x)") % (k, k, k)) as law:
            for x in law.over(range(big.dim)):
                # row x (column x) of the table and of E.products, read at
                # the support of e
                cells = {j: tab[x][j] if right else tab[j][x] for j in e}
                down = {j: prods[x][j] if right else prods[j][x] for j in e}
                law.check((x,), cell_sum(cells, e, p), apply_map(
                    ze, apply_map(down, e, p), p))


def relative_tensor_square(cert):
    """M (x)_N M as a canonical Quotient of M (x) M.

    Uses the projection a (x) b -> a E(b x_i) (x) y_i, whose kernel is
    exactly the N-balancing relations.  The tensor
    t_b = E(e_b x_i) (x) y_i, with E(e_b x_i) read from `E.products` and
    embedded in M, is summed once per b and shared by every a; the image of
    e_a (x) e_b is then (e_a (x) 1) t_b, summed straight from row a of the
    structure table into the flat index and finished once."""
    big = cert.incl.big
    n, p = big.dim, big.p
    E = cert.E
    xs, ys = cert.dual_bases.xs, cert.dual_bases.ys
    # t_b by the rows {k: {j: coeff}} of its legs e_k (x) e_j
    t = [la.tslices(la.termsum(((k * n + j, u * w) for x, y in zip(xs, ys)
                                for k, u in E.incl.emb(E._E_mx(b, x)).items()
                                for j, w in y.items()), p), n)[0].items()
         for b in range(n)]

    def pi_col(c):
        a, b = divmod(c, n)
        cells = big.table[a]
        out = {}
        for k, row in t[b]:
            for l, v in cells[k]:
                base = l * n
                for j, w in row.items():
                    u = v * w
                    o = out.get(base + j)
                    out[base + j] = u if o is None else o + u
        return la.residues(out, p)

    return la.quotient_from_projection(n * n, pi_col, p)
