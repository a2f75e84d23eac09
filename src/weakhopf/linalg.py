"""Exact linear algebra substrate.

Sparse vectors and rows, one exact eliminator, canonical echelon
subspaces, quotient spaces and tensor bookkeeping over an exact field: the
rationals by default, or a prime field F_p.  Everything is deterministic
(leftmost-nonzero pivoting, canonical reduced echelon bases) and exact;
there is no floating point anywhere.

Both fields share one eliminator: `Echelon` turns sparse vectors into
sparse integer rows (rationals scaled by their common denominator,
residues mod p as they are), keeps them keyed by pivot column and reduces
them with the kernel in `_backend`, fraction-free over Q and in leading-1
form over F_p; elimination touches only the nonzeros.  This module is the
kernel's one caller.  Columns past the pivot zone ride along as an
augmented zone that carries combinations: `solve` puts the right-hand side
there, `inverse` the identity, and `quotient_from_projection` a 1 in a
column of its own per kept vector, so that a dependent insert reduces to
its expression over the kept ones.
Sparse vectors are plain dicts {index: scalar} with no stored zeros, and
that is the one form of every vector, coordinate vector and linear-map row
in the package, stored or passed: a `Subspace` basis, the coordinates
`Subspace.coords` reads off it, a `Quotient`'s relations and projections,
and the rows `inverse` returns.  Stored dicts are shared, never mutated;
code that accumulates into a vector copies it first.  The one exception is
`algebra.Algebra`, whose structure table keeps sorted (index, coeff) pair
tuples (built by `svec`) and whose unit stays dense: the product kernel
walks the table cells, and tuples walk faster there.
A linear map is given by the images of its unknowns, row j the sparse
image of e_j (the form `algebra.apply_map` reads), and so is a linear
system: `solve` and `kernel` take the images of the unknowns, `rank` the
vectors it measures, `inverse` the rows of a square matrix.  `transpose`
is the package's one transposition; `solve` and `kernel` use it once, to
turn the images into the equation rows they eliminate.  A `Subspace`
decides membership by reading coordinates off its RREF basis, with no
elimination at all.
A flat tensor is a sparse dict on the indices i*n + j of e_i (x) e_j, n
the dimension of the second factor: `tindex` encodes the index, and
`legsum` (the Sweedler sum of a term over the legs) and `tslices` (the row
and column slices) decode it, so that the callers that sum over legs never
see the index format.

Scalars over Q: an integral value is a plain `int` and any other value a
`Rational`, the Fraction subclass whose + - * with an int or a Rational
run on its integer numerator and denominator and give an int when the
result is integral.  So the arithmetic that decides the identities never
goes through stdlib Fraction's operators; values, equality, hashing and
text are Fraction's either way.  Scalars over F_p: a plain `int` in
[0, p).  The field is not carried by the scalar but by the object that
holds it (`Algebra.p`, `WeakHopf.p`, `Subspace.p`, `Quotient.p`,
`Echelon.p`), and the kernels that combine scalars (`sadd_into`, `sscale`,
`legsum`, `termsum`, `tensor_sparse` here, `Algebra.mul`, `apply_map` and
their kind in `algebra`, `action` and `tower`) take that p.  Each
accumulates plain sums, seeding every entry with its first term
(`scalar_sum` does the same for a scalar), and ends with `residues`, the
one finisher of a computed sparse vector: it drops the zeros in both
fields and over F_p reduces mod p.  `sadd_into`, which updates a vector in
place, drops its zeros as it goes; a computed scalar goes through
`residue`.  This module is the one place that reduces by the modulus.
`as_scalar` and `parse_scalar` bring values into the stored form (floats
are refused, and over F_p any p-integral rational maps to its residue),
and every constructor of a stored object passes its scalars through
`as_scalar`; this module and `corpus` are the only ones that make a stdlib
Fraction.  `scalar_one` is a Fraction in both fields: it is the public
constructor that callers divide.  Divide scalars with `div(a, b, p)`,
never with `/`, which turns two ints into a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from weakhopf._backend import insert_row

Q1 = Fraction(1)


class NoSolution(Exception):
    """Raised by solve() when the system is certified inconsistent."""


# ---------------------------------------------------------------------------
# scalars

class Rational(Fraction):
    """A non-integral Q scalar, always with denominator > 1.

    Its + - * with an int or a Rational run on the integer numerator and
    denominator, reduced as Fraction reduces them, and give an int when the
    result is integral; any other operand goes to Fraction's own operator.
    str, repr, hash and == are Fraction's.
    """

    __slots__ = ()

    def __repr__(a):
        return "Fraction(%s, %s)" % (a._numerator, a._denominator)

    def __neg__(a):
        return _reduced(-a._numerator, a._denominator)

    def __add__(a, b):
        if type(b) is int:
            return _reduced(a._numerator + b * a._denominator, a._denominator)
        if type(b) is Rational:
            return _sum(a._numerator, a._denominator,
                        b._numerator, b._denominator)
        return Fraction.__add__(a, b)

    def __sub__(a, b):
        if type(b) is int:
            return _reduced(a._numerator - b * a._denominator, a._denominator)
        if type(b) is Rational:
            return _sum(a._numerator, a._denominator,
                        -b._numerator, b._denominator)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return _reduced(b * a._denominator - a._numerator, a._denominator)
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        na, da = a._numerator, a._denominator
        if type(b) is int:
            g = gcd(b, da)
            return _reduced(na * (b // g), da // g)
        if type(b) is Rational:
            nb, db = b._numerator, b._denominator
            g1, g2 = gcd(na, db), gcd(nb, da)
            return _reduced((na // g1) * (nb // g2), (da // g2) * (db // g1))
        return Fraction.__mul__(a, b)

    __radd__, __rmul__ = __add__, __mul__  # commutative


_new = object.__new__


def _reduced(n, d):
    """n/d, in lowest terms with d > 0, as a Q scalar."""
    if d == 1:
        return n
    r = _new(Rational)
    r._numerator = n
    r._denominator = d
    return r


def _sum(na, da, nb, db):
    """na/da + nb/db, each in lowest terms with a positive denominator, as a
    Q scalar, reduced as Fraction adds."""
    g = gcd(da, db)
    if g == 1:
        return _reduced(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    return _reduced(t // g2, s * (db // g2))


def _ratio(n, d):
    """n/d of two ints as a Q scalar; ZeroDivisionError when d is 0."""
    if not d:
        raise ZeroDivisionError("Fraction(%s, 0)" % n)
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return _reduced(n // g, d // g)


def scalar_zero(p=None):
    """Zero: the int 0 in both fields."""
    return 0


def scalar_one(p=None):
    """The unit as a Fraction in both fields, so that callers may divide
    it; `as_scalar` turns it and its quotients into stored scalars."""
    return Q1


_STORED = (int, Rational)


def as_scalar(x, p=None):
    """An exact value in the stored form of its field (floats are refused).

    Over F_p any p-integral rational maps to its residue; a denominator
    divisible by p raises ValueError.
    """
    if p is None and type(x) in _STORED:
        return x
    if isinstance(x, float):
        raise TypeError("inexact scalar %r: write it as an integer or a "
                        "Fraction" % x)
    if p is not None and isinstance(x, int):
        return x % p
    x = Fraction(x)
    if p is None:
        return _reduced(x.numerator, x.denominator)
    if x.denominator % p == 0:
        raise ValueError("denominator of %s not invertible mod %d" % (x, p))
    return x.numerator * pow(x.denominator, -1, p) % p


def residue(x, p):
    """The result of integer arithmetic on F_p scalars reduced mod p; over
    Q (p None) x itself."""
    return x if p is None else x % p


def residues(d, p):
    """A computed sparse vector finished: zeros dropped and, over F_p, its
    integer sums reduced mod p.  Over Q, d itself when it holds no zero."""
    if p is None:
        return d if all(d.values()) else {i: x for i, x in d.items() if x}
    return {i: r for i, x in d.items() if (r := x % p)}


def parse_scalar(text, p=None):
    """Parse an exact scalar written as an integer or 'a/b'."""
    text = str(text).strip()
    if "/" in text:
        num, den = text.split("/")
        return as_scalar(Fraction(int(num), int(den)), p)
    return as_scalar(int(text), p)


def div(a, b, p=None):
    """The exact quotient a / b of two scalars of the field."""
    if p is None:
        return _ratio(a.numerator * b.denominator, a.denominator * b.numerator)
    try:
        return a * pow(b, -1, p) % p
    except ValueError:  # b is 0 mod p
        raise ZeroDivisionError("division by zero in F_%d" % p) from None


def scalar_sum(terms):
    """The sum of scalar terms seeded with the first (the int 0 when there
    is none), so that no term is added to the int 0."""
    terms = iter(terms)
    return sum(terms, next(terms, 0))


def format_vector(d):
    """A sparse vector as text, "{0: 1, 3: -1/2}"."""
    return "{%s}" % ", ".join("%d: %s" % (i, c) for i, c in sorted(d.items()))


# ---------------------------------------------------------------------------
# sparse vector helpers (dict {index: scalar}, zero-free)

def sparse(vec):
    """Dense sequence -> sparse dict."""
    return {i: c for i, c in enumerate(vec) if c != 0}


def dense(d, n):
    out = [0] * n
    for i, c in d.items():
        out[i] = c
    return tuple(out)


def sadd_into(acc, d, c=1, p=None):
    """acc += c*d, dropping zeros; over F_p each touched entry is reduced.

    Over Q an entry new to acc is seeded with its term c*x, not added to
    the int 0, and c = 1 forms no product: ``0 + x`` or ``1 * x`` on a
    Rational x is a reflected Python call that builds a new Rational.  acc
    stays zero-free even where d holds a zero.
    """
    if c == 0:
        return acc
    if p is None:
        one = c == 1
        for i, x in d.items():
            t = x if one else c * x
            o = acc.get(i)
            v = t if o is None else o + t
            if v:
                acc[i] = v
            else:
                acc.pop(i, None)
        return acc
    for i, x in d.items():
        v = (acc.get(i, 0) + c * x) % p
        if v == 0:
            acc.pop(i, None)
        else:
            acc[i] = v
    return acc


def sscale(d, c, p=None):
    c = residue(c, p)
    if c == 0:
        return {}
    return residues({i: c * x for i, x in d.items()}, p)


def svec(d):
    """A sparse dict as a sorted (index, coeff) tuple: the form of a cell of
    an algebra's structure table, and of nothing else."""
    return tuple(sorted(d.items()))


def tindex(i, j, dim2):
    """The flat index of e_i (x) e_j, dim2 the dimension of the second
    factor; `legsum` and `tslices` read it back."""
    return i * dim2 + j


def legsum(t, n, term, p=None):
    """The Sweedler sum of c * term(i, j) over the entries c e_i (x) e_j of
    a flat tensor t, n the dimension of the second factor.

    term returns a sparse vector; a one-key {k: 0}, a leg's zero scalar
    factor, adds nothing.  Each entry of the sum is seeded with its first
    term, as in every sparse kernel, and `residues` finishes the sum once,
    at the end.
    """
    acc = {}
    for ij, c in t.items():
        i, j = divmod(ij, n)
        for k, x in term(i, j).items():
            v = c * x
            o = acc.get(k)
            acc[k] = v if o is None else o + v
    return residues(acc, p)


def termsum(terms, p=None):
    """Sum (index, scalar) terms into a sparse vector, as legsum does."""
    acc = {}
    for k, t in terms:
        o = acc.get(k)
        acc[k] = t if o is None else o + t
    return residues(acc, p)


def tslices(t, n):
    """The slices of a flat tensor t, n the dimension of the second factor:
    (rows, cols) with rows[i] = {j: c} and cols[j] = {i: c} over its
    entries c e_i (x) e_j, each keyed in the order t first meets the
    index."""
    rows, cols = {}, {}
    for ij, c in t.items():
        i, j = divmod(ij, n)
        rows.setdefault(i, {})[j] = c
        cols.setdefault(j, {})[i] = c
    return rows, cols


def tensor_sparse(a, b, dim2, p=None):
    """Kronecker product of sparse vectors: index (i, j) -> i*dim2 + j."""
    out = {}
    for i, x in a.items():
        base = i * dim2
        for j, y in b.items():
            out[base + j] = x * y
    return residues(out, p)


# ---------------------------------------------------------------------------
# echelon forms (integer-kernel backed, over Q or F_p)

def _int_row(vec, p=None):
    """A sparse vector -> its kernel row.

    Over Q the row is den * vec, den the lcm of the denominators; over F_p
    it holds the residues.
    """
    if p is not None:
        return residues(vec, p)
    den = lcm(*[c.denominator for c in vec.values()])
    return {i: c.numerator * (den // c.denominator) for i, c in vec.items()}


def _quot(a, b, p):
    """The scalar a/b of two integers, in Q or in F_p."""
    if p is None:
        return _ratio(a, b)
    return a * pow(b, -1, p) % p


class Echelon:
    """Incremental reduced echelon basis over Q (p=None) or F_p.

    `rows` maps each pivot column to its kernel row.  Pivots lie among the
    first `ncols` columns; entries at columns from `ncols` on ride along
    (augmented right-hand sides or combinations).
    """

    def __init__(self, ncols, p=None):
        self.ncols = ncols
        self.p = p
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    @property
    def pivots(self):
        return sorted(self.rows)

    def insert(self, vec):
        """Insert a sparse vector. True if rank grew."""
        if not vec:
            return False
        return insert_row(self.rows, _int_row(vec, self.p), self.ncols,
                          self.p) >= 0

    def insert_reduced(self, vec):
        """Insert; on dependence the returned reduced row keeps its
        augmented entries."""
        row = _int_row(vec, self.p)
        return insert_row(self.rows, row, self.ncols, self.p), row

    def frac_rows(self):
        """Canonical RREF rows (leading coefficient 1) as sparse dicts, in
        pivot order."""
        return [{i: _quot(r[i], r[c], self.p) for i in sorted(r)}
                for c, r in sorted(self.rows.items())]


# ---------------------------------------------------------------------------
# linear maps and systems

def transpose(rows, n):
    """The transpose of the matrix with sparse rows `rows` and n columns:
    row k of the result holds rows[j][k] at j.  The package's one
    transposition."""
    out = [{} for _ in range(n)]
    for j, r in enumerate(rows):
        for k, c in r.items():
            out[k][j] = c
    return out


def _height(vecs):
    """The number of coordinates the sparse vectors reach: one past their
    largest index."""
    return 1 + max((max(v) for v in vecs if v), default=-1)


def rank(vecs, ncols, p=None):
    """Rank of sparse vectors in ncols coordinates.

    Stops drawing vectors once the rank is ncols: every pivot lies among
    the ncols columns, so no later vector can raise it, and a lazy
    iterator of products forms none past that point."""
    ech = Echelon(ncols, p)
    for v in vecs:
        ech.insert(v)
        if ech.rank == ncols:
            break
    return ech.rank


def solve(images, rhs, p=None):
    """The canonical x with sum_j x_j images[j] = rhs.

    images[j] is the sparse image of the j-th unknown, the form of every
    stored map, and rhs a sparse vector.  Returns the solution as a sparse
    dict, zero at non-pivot coordinates.  Raises NoSolution when rhs is not
    in the span of the images.
    """
    ncols = len(images)
    ech = Echelon(ncols, p)
    for k, row in enumerate(transpose(images, _height([*images, rhs]))):
        if k in rhs:
            row[ncols] = rhs[k]
        if row:
            pos, red = ech.insert_reduced(row)
            if pos < 0 and ncols in red:
                raise NoSolution("inconsistent system")
    rows = ech.rows
    return {c: _quot(rows[c][ncols], rows[c][c], p)
            for c in ech.pivots if ncols in rows[c]}


def kernel(images, p=None):
    """The null space {x : sum_j x_j images[j] = 0} of the linear map with
    the given sparse images of the unknowns, as a canonical Subspace.

    Images that are all zero leave every unknown free: the full space.
    """
    ncols = len(images)
    ech = Echelon(ncols, p)
    for row in transpose(images, _height(images)):
        if row:
            ech.insert(row)
    pivots = ech.pivots
    frac = ech.frac_rows()
    vecs = []
    for f in range(ncols):
        if f in ech.rows:
            continue
        v = {f: 1}
        for r, c in zip(frac, pivots):
            x = r.get(f)
            if x:
                v[c] = -x  # reduced by from_vectors below
        vecs.append(v)
    return Subspace.from_vectors(ncols, vecs, p)


def inverse(rows, n, p=None):
    """Inverse of the n x n matrix with the given sparse rows, as sparse
    rows (the form `algebra.apply_map` reads).

    Raises NoSolution when the matrix is singular.
    """
    ech = Echelon(n, p)
    for i, r in enumerate(rows):
        if not ech.insert({**r, n + i: 1}):
            raise NoSolution("singular matrix")
    inv = [None] * n
    for c, r in ech.rows.items():
        # full rank: r is zero at every other data column
        inv[c] = {j - n: _quot(r[j], r[c], p) for j in sorted(r) if j != c}
    return tuple(inv)


# ---------------------------------------------------------------------------
# subspaces

@dataclass(frozen=True)
class Subspace:
    """Row space in canonical reduced echelon form.

    `basis` holds the RREF rows as sparse dicts with leading coefficient 1;
    equality of subspaces is literal equality of the data.
    """

    ambient_dim: int
    pivots: tuple
    basis: tuple
    p: int | None = None

    @staticmethod
    def from_vectors(ambient_dim, vecs, p=None):
        ech = Echelon(ambient_dim, p)
        for v in vecs:
            ech.insert(v)
        return Subspace(ambient_dim, tuple(ech.pivots),
                        tuple(ech.frac_rows()), p)

    @staticmethod
    def full(ambient_dim, p=None):
        return Subspace(ambient_dim, tuple(range(ambient_dim)),
                        tuple({i: 1} for i in range(ambient_dim)), p)

    @property
    def dim(self):
        return len(self.pivots)

    def contains(self, vec):
        return self.coords(vec) is not None

    def contains_subspace(self, other):
        return all(self.coords(r) is not None for r in other.basis)

    def coords(self, vec):
        """Sparse coordinates of vec in the RREF basis, or None if not a
        member."""
        cs, rest = self.split(vec)
        return None if rest else cs

    def split(self, vec):
        """(cs, rest): the coordinates cs of vec, a direct read-off at the
        pivot columns by RREF, and rest = vec - sum cs_k basis_k, which is
        {} iff vec is a member."""
        cs = {k: c for k, piv in enumerate(self.pivots)
              if (c := vec.get(piv, 0))}
        rest = dict(vec)
        for k, c in cs.items():
            sadd_into(rest, self.basis[k], -c, self.p)
        return cs, rest

    def intersect(self, other):
        """Subspace intersection, read off the kernel of the map
        (x, y) -> sum x_i u_i - sum y_j v_j on the two bases u and v."""
        n1 = self.dim
        ker = kernel([*self.basis, *(sscale(r, -1, self.p)
                                     for r in other.basis)], self.p)
        vecs = []
        for kr in ker.basis:
            v = {}
            for k, c in kr.items():
                if k < n1:
                    sadd_into(v, self.basis[k], c, self.p)
            vecs.append(v)
        return Subspace.from_vectors(self.ambient_dim, vecs, self.p)


# ---------------------------------------------------------------------------
# quotient spaces

@dataclass(frozen=True)
class Quotient:
    """Ambient space modulo a relations subspace, with the canonical section.

    The representative basis sits at the non-pivot coordinates of the
    echelonized relations; project() reads the canonical coset
    representative off those coordinates.
    """

    ambient_dim: int
    relations: Subspace
    section_cols: tuple
    proj_cols: tuple  # per ambient coordinate: sparse quotient coords
    p: int | None = None

    @property
    def dim(self):
        return len(self.section_cols)

    def project(self, vec):
        out = {}
        for c, x in vec.items():
            sadd_into(out, self.proj_cols[c], x, self.p)
        return out

    def section(self, coords):
        return {self.section_cols[i]: x for i, x in coords.items()}

    def project_legs(self, legs, dim2):
        """The class of the sum of a (x) b over the pairs (a, b) of `legs`,
        dim2 the dimension of the second factor: sum a_i b_j
        proj_cols[i dim2 + j], with no Kronecker vector formed and no
        product by a coefficient 1."""
        cols, out = self.proj_cols, {}
        for a, b in legs:
            for i, x in a.items():
                base = i * dim2
                for j, y in b.items():
                    c = x * y
                    one = c == 1
                    for k, v in cols[base + j].items():
                        t = v if one else c * v
                        o = out.get(k)
                        out[k] = t if o is None else o + t
        return residues(out, self.p)


def quotient(relations):
    """Quotient of k^n by an echelonized relations subspace of k^n."""
    n, p = relations.ambient_dim, relations.p
    piv = set(relations.pivots)
    section = tuple(c for c in range(n) if c not in piv)
    index = {c: i for i, c in enumerate(section)}
    proj = [None] * n
    for c in section:
        proj[c] = {index[c]: 1}
    for pc, row in zip(relations.pivots, relations.basis):
        # RREF row: e_p + sum over non-pivot columns; the class of e_p is
        # minus that tail
        proj[pc] = {index[j]: residue(-x, p) for j, x in row.items()
                    if j != pc}
    return Quotient(n, relations, section, tuple(proj), p)


def quotient_from_projection(ambient_dim, pi_col, p=None):
    """Quotient of k^n by the kernel of an idempotent projection.

    `pi_col(c)` must return the sparse image of the c-th coordinate vector
    under a linear map whose kernel is the intended relations subspace.
    Produces exactly the canonical Quotient of `quotient()` without
    echelonizing the relations: a column c is a pivot of the relations
    precisely when its image depends on the images of later columns, so the
    canonical section is found by a right-to-left independence scan.  A
    zero image makes e_c a relation with no insert.  Any other image goes
    into an `Echelon` with a 1 in the augmented column of the next kept
    vector; when it depends on the kept images, those columns of its
    reduced row hold its expression over them, which is the RREF relation
    row of c.  The relation rows go to `quotient`.
    """
    ech = Echelon(ambient_dim, p)
    kept = []  # columns, in right-to-left discovery order
    rows = {}  # pivot column -> RREF relation row
    for c in range(ambient_dim - 1, -1, -1):
        image = pi_col(c)
        if not image:
            rows[c] = {c: 1}
            continue
        aux = ambient_dim + len(kept)
        pos, red = ech.insert_reduced({**image, aux: 1})
        if pos >= 0:
            kept.append(c)
            continue
        # dependent: s pi(e_c) + sum_k red[n + k] pi(e_kept[k]) = 0, with
        # s = red[aux] and n = ambient_dim
        s = red.pop(aux)
        rows[c] = {c: 1, **{kept[k - ambient_dim]: _quot(x, s, p)
                            for k, x in sorted(red.items())}}
    pivots = sorted(rows)
    return quotient(Subspace(ambient_dim, tuple(pivots),
                             tuple(rows[c] for c in pivots), p))
