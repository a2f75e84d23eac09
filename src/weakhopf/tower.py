"""Jones towers over symmetric Markov extensions and the depth-2 engine.

basic_construction realizes the next tower level on the relative tensor
square, which build_tower computes first so that it can refuse a level
over the appendix's dimension budget before building it, with its
E-multiplication; it then re-verifies the characterizing
properties (span, E(e) = lambda 1, the e x e contraction), certifies the
new extension as a symmetric Markov extension, and checks the canonical
anti-isomorphism between the first two relative commutants.  Each level's
basis is s [e_a (x) e_b] over the section representatives, s the lcm of
the denominators of the table's classes: its coordinates are the
quotient's section coordinates divided by s, so over Q its structure
constants are integers and E's denominators do not compound up the tower;
over F_p, s = 1.

The depth-2 machinery keeps its elements in the coordinates of the top
level M2, where all six centralizers live.  A trace T(x y) is read as x
against the covector T(e_m y) of y, built once per y from the trace form
of M2, and <a a', b> as the Gram rows at A's table cell of a a', so no
product is formed for either.  The two measuring laws through E_M1 are
decided in M1, whose embedding in M2 is verified multiplicative and
injective, as one keyed sum per map (`action.measuring_failure`) over the
E_M1 tables they build, with no product formed per case.  The derived weak
Hopf structure on B is solved from the duality pairing and every identity
of the derivation chain is re-verified on full bases.  Each shared object
is built once and read by every later stage: the context holds the
embeddings of N, M and M1 (each inclusion its image, `incl.image`) and the
covectors of B's basis; the pairing reads the subalgebra V = C_M1(M) and
its Kanzaki element from the level-1 certificate, which built them; the
derived structure holds A inside M1, read back from M2 through the
verified E onto M1 (E o embed = id); B keeps the inverse of its antipode
(`WeakHopf.s_inv`) for the derivation and the smash product alike.  The
structure of B* is read off B's transposed matrices and carried to A, so
the axiom engine runs on B and A and on no B*.  One routine, `_smash_iso`,
verifies both smash isomorphisms M1 # B -> M2 and M # A -> M1, and reads
the inclusion x -> x # 1 from the smash product.

`derive` runs the stages of the main theorem in report order: the
centralizer lattice, depth 2, E_A and E_B, the pairing, `DerivedWeakHopf`
(B's structure, B's identities, the E_M1-valued laws, the counital formulas
and integrals, A through the Gram matrix), the action of B on M1, psi, the
action of A on M and phi.  Every stage appends its laws to the one CheckList
that `derive` passes it and returns only its own objects.

The derivation is written in Sweedler notation, e.g.
E_M1(e2 w y x b) = lambda^-1 E_M1(e2 w y b2) w^-1 E_M1(e2 w x b1); each such
sum runs over the legs of a stored Delta row through `linalg.legsum`; a
constant factor such as lambda^-1 rides on the legs (lambda^-1 Delta(b),
scaled once), and a leg whose scalar factor is zero forms no product.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import lcm

from weakhopf import action as ac
from weakhopf import algebra as ag
from weakhopf import linalg as la
from weakhopf import wha
from weakhopf.checks import CheckList
from weakhopf.composite import DIM_BUDGET
from weakhopf.linalg import sadd_into, tensor_sparse


@dataclass(frozen=True)
class TowerLevel:
    """One level M_k over M_{k-1}.  The algebra, the embedding of the
    previous level and E down to it are those of the certificate:
    cert.incl.big, cert.incl.embed and cert.E.rows."""

    quotient: la.Quotient
    s: int  # M_k coordinates are the quotient's section coordinates / s
    e: dict  # Jones idempotent, own coords
    phi: tuple  # sparse rows: prev centralizer coords -> this level
    cert: ag.MarkovCertificate  # certification of this/previous
    checks: CheckList


@dataclass
class Tower:
    base: ag.MarkovCertificate
    levels: list
    checks: CheckList

    def alg(self, k):
        """M_k as an Algebra; k = 0 is the base big algebra."""
        return (self.base if k == 0 else self.levels[k - 1].cert).incl.big

    def trace(self, k):
        """The normalized trace functional on M_k (T_k = T_{k-1} o E)."""
        return self.base.t0 if k == 0 else self.levels[k - 1].cert.t0

    def embed(self, k, to, x):
        """Lift a sparse element of M_k into M_to coordinates."""
        for lvl in self.levels[k:to]:
            incl = lvl.cert.incl
            x = ag.apply_map(incl.embed, x, incl.big.p)
        return x

    def jones(self, k, to=None):
        """e_k, optionally lifted into M_to coordinates."""
        e = self.levels[k - 1].e
        return e if to is None else self.embed(k, to, e)


def basic_construction(cert, q):
    """One step of the tower: M1 = M (x)_N M with the E-multiplication.

    `q` is the relative tensor square `ag.relative_tensor_square(cert)`,
    whose dimension is that of M1, so a caller can refuse a level before
    building it.  The class of a sum of a (x) b is read off the quotient's
    projections of the coordinate pairs (`Quotient.project_legs`), with no
    Kronecker vector formed.  Each cell of the table on the section
    representatives is decided, and each e_a E(e_b e_c) is read from row a
    of M's table once per (a, b, c), only where E(e_b e_c) is nonzero; a
    cell whose factor e_a E(e_b e_c) is zero is the empty cell, with no
    class formed and not visited again.  M1's basis is s [e_a (x) e_b], s
    the lcm of the denominators of those classes (1 over F_p), read from
    the nonempty cells: the table is the classes times s, so integral over
    Q, and only the nonempty cells are rescaled; every other element (the
    unit, e1, the embedding rows, the dual bases, phi) is its class
    divided by s; and E(s e_a (x) e_b) = lambda s e_a e_b.
    Verifies the characterizing properties, certifies M1/M as a symmetric
    Markov extension with the composed trace, and checks the product
    anti-isomorphism between C_M(N) and C_{M1}(M).  M1's associativity,
    the multiplicativity of M in M1, E's N-linearity and C_{M1}(M) are
    decided on generators (`Algebra.generators`), few on a monomial table
    such as every corpus tower level's; the span law's `la.rank` stops
    forming products once the rank is dim M1.
    """
    M = cert.incl.big
    m = M.dim
    p = M.p
    lam_inv = cert.lambda_inv
    lam = la.div(1, lam_inv, p)
    E = cert.E
    xs, ys = cert.dual_bases.xs, cert.dual_bases.ys
    n1 = q.dim

    # section representatives are single coordinate pairs (a, b)
    reps = [divmod(c, m) for c in q.section_cols]

    # (a (x) b)(c (x) d) = a E(b c) (x) d, with E(e_b e_c) embedded in M;
    # only the columns (c, d) where a E(e_b e_c) is nonzero are visited
    mids = [[E.incl.emb(v) for v in row] for row in E.products]
    at = {}  # c -> the (column, d) of each representative (c, d)
    for col, (c, d) in enumerate(reps):
        at.setdefault(c, []).append((col, d))
    table, filled = [], []  # filled: the (row, column) of nonempty cells
    for r, (a, b) in enumerate(reps):
        row = [{}] * n1
        for c, cols in at.items():
            if mids[b][c] and (left := ag.cell_sum(M.table[a], mids[b][c],
                                                   p)):
                for col, d in cols:
                    if cell := q.project_legs(((left, {d: 1}),), m):
                        row[col] = cell
                        filled.append((r, col))
        table.append(row)
    # on the basis s [e_a (x) e_b] the cells are the classes times s, ints
    s = lcm(*(x.denominator for r, col in filled
              for x in table[r][col].values()))
    if s > 1:
        for r, col in filled:
            table[r][col] = {k: x.numerator * (s // x.denominator)
                             for k, x in table[r][col].items()}

    def cls(*legs):
        return {k: la.div(x, s, p)
                for k, x in q.project_legs(legs, m).items()}

    alg1 = ag.make_algebra(table, la.dense(cls(*zip(xs, ys)), n1), p=p)

    e1 = cls((M.unit_sparse(), M.unit_sparse()))
    embed_rows = ag.map_rows([cls(*((ag.cell_sum(M.table[a], x, p), y)
                                    for x, y in zip(xs, ys)))
                              for a in range(m)], p)
    lam_s = la.div(s, lam_inv, p)
    E_down = ag.map_rows(
        [la.sscale(dict(M.table[a][b]), lam_s, p) for (a, b) in reps], p)
    xs1 = tuple(cls((la.sscale(x, lam_inv, p), M.unit_sparse())) for x in xs)
    ys1 = tuple(cls((M.unit_sparse(), y)) for y in ys)
    db1 = ag.DualBases(xs1, ys1, lam_inv)

    cl = CheckList()

    lefts = [alg1.mul(embed_rows[a], e1) for a in range(m)]
    cl.add("span", "M1 = M e1 M", la.rank(
        (alg1.mul(left, embed_rows[b]) for left in lefts
         for b in range(m)), n1, p) == n1)

    cl.add("jones_idempotent", "e1^2 = e1", alg1.mul(e1, e1) == e1)
    cl.add("expectation_of_jones", "E_M(e1) = lambda 1",
           ag.apply_map(E_down, e1, p) == la.sscale(M.unit_sparse(), lam, p))

    with cl.holds("jones_contraction", "e1 x e1 = e1 E(x) = E(x) e1") as law:
        for x in law.over(range(m)):
            ex = embed_rows[x]
            exE = ag.apply_map(embed_rows, E.incl.emb(E.rows[x]), p)
            lhs = alg1.mulm(e1, ex, e1)
            if law.check((x,), lhs, alg1.mul(e1, exE)):
                law.check((x,), lhs, alg1.mul(exE, e1))

    incl1 = ag.make_inclusion(M, alg1, embed_rows)
    E1 = ag.make_cond_expectation(incl1, E_down)
    t0 = cert.t0
    cert1 = ag.certify_markov(incl1, E1, db1, t0)
    # the product form y_i x_i = lambda^-1 1 does not survive iteration with
    # the canonical dual bases; its stated equivalent, the trace identity
    # T1 o phi = T0 below, is what the certificate must carry instead
    hard = [c.name for c in cert1.checks.failures()
            if c.name != "symmetric_product"]
    cl.add("markov_certified", "M1/M is a symmetric Markov extension "
           "with trace T0", not hard, witness="; ".join(hard))

    # phi: C_M(N) -> C_M1(M), u -> x_i u e1 y_i, an anti-isomorphism
    U = cert.U
    V = cert1.U
    phi = ag.map_rows([cls(*((M.mul(x, u), y) for x, y in zip(xs, ys)))
                       for u in U.basis], p)
    with cl.holds("phi_into_V", "phi(U) lies in C_M1(M)") as law:
        for i, rw in law.over(enumerate(phi)):
            law.check((i,), V.contains(rw), True)
    cl.add("phi_bijective", "phi: U -> V bijective",
           la.rank(phi, n1, p) == U.dim == V.dim)

    with cl.holds("phi_antimultiplicative",
                  "phi(u u') = phi(u') phi(u)") as law:
        for i in law.over(range(U.dim)):
            for j in law.over(range(U.dim)):
                co = U.coords(M.mul(U.basis[i], U.basis[j]))
                lhs = ag.apply_map(phi, co, p)
                rhs = alg1.mul(phi[j], phi[i])
                law.check((i, j), lhs, rhs)

    with cl.holds("phi_inverse", "lambda^-1 E_M(phi(u) e1) = u") as law:
        for i in law.over(range(U.dim)):
            back = la.sscale(ag.apply_map(E_down, alg1.mul(phi[i], e1), p),
                             lam_inv, p)
            law.check((i,), back, U.basis[i])

    with cl.holds("E_of_ve1", "E_M(v e1) = E_M(e1 v) for v in V") as law:
        for i, v in law.over(enumerate(V.basis)):
            law.check((i,), ag.apply_map(E_down, alg1.mul(v, e1), p),
                      ag.apply_map(E_down, alg1.mul(e1, v), p))

    t1 = cert1.t0
    with cl.holds("trace_compatibility", "T1 o phi = T0 on U") as law:
        for i in law.over(range(U.dim)):
            law.check((i,), ag.trace_of(t1, phi[i], p),
                      ag.trace_of(t0, U.basis[i], p))

    return TowerLevel(q, s, e1, phi, cert1, cl)


def build_tower(cert, depth, extra=0):
    """Iterate the basic construction and verify the cross-level relations.

    Builds `depth` levels, then up to `extra` more for the composite
    idempotents, each only within their dimension budget: the top level
    built so far must be within it, and so must the relative tensor square
    of that level, which has the dimension of the next one.  A level whose
    square is over the budget is refused before its E-multiplication and
    certification are built; dimensions grow up the tower, so every level
    past it would be over the budget too.
    With at least two levels, checks the braid-like relations and the
    Pimsner-Popa identities of every level on full bases
    (`ag.pimsner_popa`), and that the restricted trace of the top level is
    normalized.
    """
    cl = CheckList()
    levels = []
    cur = cert
    for k in range(depth + extra):
        if k >= depth and cur.incl.big.dim > DIM_BUDGET:
            break
        q = ag.relative_tensor_square(cur)
        if k >= depth and q.dim > DIM_BUDGET:
            break
        lvl = basic_construction(cur, q)
        cl.add("level_%d" % (k + 1),
               "basic construction verified at level %d" % (k + 1),
               lvl.checks.ok,
               witness="; ".join(c.name for c in lvl.checks.failures()))
        levels.append(lvl)
        cur = lvl.cert
    depth = len(levels)
    t = Tower(cert, levels, cl)
    p = cert.incl.big.p
    lam = la.div(1, cert.lambda_inv, p)

    for k in range(1, depth):
        # e_k and e_{k+1} inside M_{k+1}
        top = t.alg(k + 1)
        ek = t.jones(k, k + 1)
        ek1 = t.jones(k + 1)
        cl.add("braid_%d_%d_%d" % (k, k + 1, k),
               "e%d e%d e%d = lambda e%d" % (k, k + 1, k, k),
               top.mulm(ek, ek1, ek) == la.sscale(ek, lam, p))
        cl.add("braid_%d_%d_%d" % (k + 1, k, k + 1),
               "e%d e%d e%d = lambda e%d" % (k + 1, k, k + 1, k + 1),
               top.mulm(ek1, ek, ek1) == la.sscale(ek1, lam, p))

    for k, lvl in enumerate(levels, 1):
        ag.pimsner_popa(cl, k, lvl.cert.E, lvl.e, cert.lambda_inv)

    if depth >= 2:
        t2 = t.trace(2)
        cl.add("restricted_trace_normalized", "T(1) = 1 on C",
               ag.trace_of(t2, t.alg(2).unit_sparse(), p) == 1)
    return t


# ---------------------------------------------------------------------------
# the depth-2 context: everything in M2 coordinates

@dataclass(frozen=True)
class Depth2Data:
    zs: tuple  # first legs of the dual bases of E_M inside A (M1 coords)
    us: tuple  # dual bases of E_M1 inside B (M2 coords)
    vs: tuple


class Depth2Failure(Exception):
    def __init__(self, half, reason):
        super().__init__("depth-2 fails for %s: %s" % (half, reason))


class DepthTwoContext:
    """Shared coordinates for the whole section-3/4 pipeline."""

    def __init__(self, tower):
        if len(tower.levels) < 2:
            raise ValueError("need the tower built at least to M2")
        self.t = tower
        base = tower.base
        self.p = base.incl.big.p
        self.lam_inv = base.lambda_inv
        self.lam = la.div(1, self.lam_inv, self.p)
        self.M = base.incl.big
        self.M1 = tower.alg(1)
        self.M2 = tower.alg(2)
        self.lv1 = tower.levels[0]
        self.lv2 = tower.levels[1]
        self.e1 = tower.jones(1, 2)
        self.e2 = tower.jones(2)
        self.T2 = tower.trace(2)

        m2 = self.M2.dim
        self.M_in_M1 = self.lv1.cert.incl.embed
        self.M_in_M2 = [tower.embed(1, 2, x) for x in self.M_in_M1]
        self.M1_in_M2 = self.lv2.cert.incl.embed

        # each centralizer is that of the images of the generators of N or
        # of M, which generate the embedded algebra (`ag.centralizer`)
        N_gens = base.incl.generators
        self.U = la.Subspace.from_vectors(
            m2, [tower.embed(0, 2, r) for r in base.U.basis], self.p)
        self.A1 = ag.centralizer(self.M1,
                                 [tower.embed(0, 1, x) for x in N_gens])
        self.A = la.Subspace.from_vectors(
            m2, [tower.embed(1, 2, r) for r in self.A1.basis], self.p)
        self.V1 = self.lv1.cert.U  # C_M1(M), M1 coords
        self.V = la.Subspace.from_vectors(
            m2, [tower.embed(1, 2, r) for r in self.V1.basis], self.p)
        self.W = self.lv2.cert.U  # C_M2(M1)
        self.B = ag.centralizer(self.M2, [self.M_in_M2[g]
                                          for g in self.M.generators])
        self.C = ag.centralizer(self.M2, [tower.embed(0, 2, x)
                                          for x in N_gens])

    # conditional expectations as M2-endomorphisms (landing in embedded images)
    def E_M1(self, x):
        return self.t.embed(1, 2, ag.apply_map(self.lv2.cert.E.rows, x,
                                               self.p))

    def T(self, x, tau=None):
        """T(x); T(x y) when tau is the covector cov(y)."""
        return ag.trace_of(self.T2 if tau is None else tau, x, self.p)

    @cached_property
    def trace_form(self):
        """Row k holds T(e_m e_k) at m, read once off M2's nonempty cells."""
        return la.transpose(ag.trace_form(self.M2, self.T2), self.M2.dim)

    def cov(self, y):
        """The covector tau[m] = T(e_m y) of y, dense over M2: T(x y) is then
        read as T(x, tau), with no product formed in M2."""
        return la.dense(ag.apply_map(self.trace_form, y, self.p), self.M2.dim)

    @cached_property
    def cov_B(self):
        """The covector of each basis element of B."""
        return [self.cov(b) for b in self.B.basis]

    def mul(self, *xs):
        return self.M2.mulm(*xs)


def _lattice(cl, ctx):
    """The six-centralizer lattice, with every inclusion verified in M2."""
    cl.add("U_in_A", "C_M(N) contained in A", ctx.A.contains_subspace(ctx.U))
    cl.add("V_in_A", "V contained in A", ctx.A.contains_subspace(ctx.V))
    cl.add("V_in_B", "V contained in B", ctx.B.contains_subspace(ctx.V))
    cl.add("W_in_B", "W contained in B", ctx.B.contains_subspace(ctx.W))
    cl.add("A_in_C", "A contained in C", ctx.C.contains_subspace(ctx.A))
    cl.add("B_in_C", "B contained in C", ctx.C.contains_subspace(ctx.B))
    cl.add("V_is_A_cap_B", "V = A intersect B",
           ctx.A.intersect(ctx.B) == ctx.V)
    # U anti-isomorphic to V through phi (verified at construction time)
    cl.add("phi_anti_iso", "U anti-isomorphic to V via x_i u e1 y_i",
           ctx.lv1.checks.get("phi_antimultiplicative").passed
           and ctx.lv1.checks.get("phi_bijective").passed)


def depth2_check(ctx):
    """Dual bases of E_M inside A and of E_M1 inside B, or Depth2Failure."""
    E_M = ctx.lv1.cert.E  # conditional expectation M1 -> M
    try:
        dbA = ag.find_dual_bases(E_M, within=ctx.A1)
        ag.verify_dual_bases(E_M, dbA)
    except ag.NoDualBases as exc:
        raise Depth2Failure("E_M within A", str(exc))
    E_M1_cond = ctx.lv2.cert.E
    try:
        dbB = ag.find_dual_bases(E_M1_cond, within=ctx.B)
        ag.verify_dual_bases(E_M1_cond, dbB)
    except ag.NoDualBases as exc:
        raise Depth2Failure("E_M1 within B", str(exc))
    return Depth2Data(dbA.xs, dbB.xs, dbB.ys)


# ---------------------------------------------------------------------------
# section-2 machinery: the two conditional expectations onto A and B

@dataclass(frozen=True)
class ExpectationPair:
    """E_A = E_M1 restricted to C, and the trace-built E_B: C -> B."""

    C: la.Subspace
    E_B_rows: tuple  # C coords -> M2 sparse

    def E_B(self, x):
        """E_B of an M2 element of C; outside C, NotClosed names the first
        M2 basis element left in x after reducing it by C's basis."""
        co, rest = self.C.split(x)
        if rest:
            raise ag.NotClosed("E_B applied outside C: M2 basis %d is left "
                               "after reducing by C" % min(rest))
        return ag.apply_map(self.E_B_rows, co, self.C.p)


def conditional_expectations(cl, ctx, d2):
    """Build E_A, E_B and verify the whole depth-2 identity suite."""
    M2 = ctx.M2
    p = ctx.p
    lam, lam_inv = ctx.lam, ctx.lam_inv
    T = ctx.T
    us, vs = d2.us, d2.vs

    # trace dual bases of U (in U-basis coordinates), pushed through phi
    # into V; phi rows are indexed by the same U basis
    phi = ctx.lv1.phi

    def phi_of(uco):
        return ctx.t.embed(1, 2, ag.apply_map(phi, uco, p))

    c_i = [phi_of(a) for a in ctx.t.base.trace_duals[0]]
    d_i = [phi_of(b) for b in ctx.t.base.trace_duals[1]]

    with cl.holds("V_trace_duals", "c_i T(d_i v) = v on V") as law:
        for k, v in law.over(enumerate(ctx.V.basis)):
            tv = ctx.cov(v)
            acc = {}
            for ci, di in zip(c_i, d_i):
                sadd_into(acc, ci, T(di, tv), p)
            law.check((k,), acc, v)

    # E_B(c) = T(c u_j c_i) d_i v_j on the C basis; u_j c_i and d_i v_j are
    # formed once per (j, i), for this formula and the second one below
    uc = [ctx.mul(uj, ci) for uj in us for ci in c_i]
    dv = [ctx.mul(di, vj) for vj in vs for di in d_i]
    cov_uc = [ctx.cov(x) for x in uc]
    C = ctx.C
    ebays = []
    for c in C.basis:
        out = {}
        for tau, x in zip(cov_uc, dv):
            coef = T(c, tau)
            if coef != 0:
                sadd_into(out, x, coef, p)
        ebays.append(out)
    ep = ExpectationPair(C, ag.map_rows(ebays, p))
    E_B, E_A = ep.E_B, ctx.E_M1
    # E_B(c_i) for the basis c_i of C is the stored row i
    EBc = ep.E_B_rows

    Ab, Bb, Cb = ctx.A.basis, ctx.B.basis, C.basis
    with cl.holds("E_B_restricts_to_id", "E_B(b) = b on B") as law:
        for i, b in law.over(enumerate(Bb)):
            law.check((i,), E_B(b), b)

    with cl.holds("E_B_into_B", "E_B(C) lies in B") as law:
        for i, ebc in law.over(enumerate(EBc)):
            law.check((i,), ctx.B.contains(ebc), True)

    with cl.holds("E_B_bimodular", "E_B(b c b') = b E_B(c) b'") as law:
        for bi, b in law.over(enumerate(Bb)):
            for ci, c in law.over(enumerate(Cb)):
                if law.check(("left", bi, ci), E_B(ctx.mul(b, c)),
                             ctx.mul(b, EBc[ci])):
                    law.check(("right", bi, ci), E_B(ctx.mul(c, b)),
                              ctx.mul(EBc[ci], b))

    cl.add("E_B_of_e1", "E_B(e1) = lambda 1",
           E_B(ctx.e1) == la.sscale(M2.unit_sparse(), lam, p))

    cov_B, cov_C = ctx.cov_B, [ctx.cov(c) for c in Cb]
    with cl.holds("E_B_trace_compatible", "T(E_B(c) b) = T(b c)") as law:
        for ci, c in law.over(enumerate(Cb)):
            for bi, b in law.over(enumerate(Bb)):
                law.check((ci, bi), T(EBc[ci], cov_B[bi]), T(b, cov_C[ci]))

    with cl.holds("E_B_preserves_T", "T o E_B = T on C") as law:
        for i, c in law.over(enumerate(Cb)):
            law.check((i,), T(EBc[i]), T(c))

    cov_ci = [ctx.cov(ci) for ci in c_i]
    with cl.holds("commuting_square",
                  "E_A E_B = E_B E_A = T(c c_i) d_i") as law:
        for i, c in law.over(enumerate(Cb)):
            lhs = E_A(EBc[i])
            rhs = E_B(E_A(c))
            direct = {}
            for tau, di in zip(cov_ci, d_i):
                sadd_into(direct, di, T(c, tau), p)
            if law.check((i,), lhs, rhs):
                law.check((i,), lhs, direct)

    # symmetric square: AB = BA = C, and A (x)_V B = C as vector spaces
    ab = [ctx.mul(a, b) for a in Ab for b in Bb]
    spanAB = la.Subspace.from_vectors(M2.dim, ab, p)
    spanBA = la.Subspace.from_vectors(
        M2.dim, [ctx.mul(b, a) for a in Ab for b in Bb], p)
    cl.add("symmetric_square_spans", "AB = BA = C",
           spanAB == C and spanBA == C,
           witness="dim AB %d, BA %d, C %d" % (spanAB.dim, spanBA.dim, C.dim))

    nA, nB = ctx.A.dim, ctx.B.dim
    rel = []  # (a v) (x) b - a (x) (v b) in A (x) B coordinates
    for v in ctx.V.basis:
        vb_co = [ctx.B.coords(ctx.mul(v, b)) for b in Bb]
        for i, a in enumerate(Ab):
            av_co = ctx.A.coords(ctx.mul(a, v))
            for j in range(nB):
                vec = tensor_sparse(av_co, {j: 1}, nB, p)
                sadd_into(vec, tensor_sparse({i: 1}, vb_co[j], nB, p), -1, p)
                if vec:
                    rel.append(vec)
    qAB = la.quotient(la.Subspace.from_vectors(nA * nB, rel, p))
    rk = la.rank([ab[c] for c in qAB.section_cols], M2.dim, p)
    cl.add("relative_tensor_AB", "A (x)_V B = C as vector spaces",
           qAB.dim == C.dim and rk == C.dim,
           witness="dim %d vs %d, rank %d" % (qAB.dim, C.dim, rk))

    # c e2, e2 c, c e1 and e1 c, formed once for the Pimsner-Popa identities
    # (mul(e, x) = e x on the left, x e on the right) and the spans below
    e1, e2 = ctx.e1, ctx.e2
    ce2, e2c = [ctx.mul(c, e2) for c in Cb], [ctx.mul(e2, c) for c in Cb]
    ce1, e1c = [ctx.mul(c, e1) for c in Cb], [ctx.mul(e1, c) for c in Cb]

    def flip(x, y):
        return ctx.mul(y, x)

    for name, text, e, E, mul, ecs in (
            ("pp_e2_left", "lambda^-1 e2 E_A(e2 c) = e2 c", e2, E_A, ctx.mul, e2c),
            ("pp_e2_right", "lambda^-1 E_A(c e2) e2 = c e2", e2, E_A, flip, ce2),
            ("pp_e1_left", "lambda^-1 e1 E_B(e1 c) = e1 c", e1, E_B, ctx.mul, e1c),
            ("pp_e1_right", "lambda^-1 E_B(c e1) e1 = c e1", e1, E_B, flip, ce1)):
        with cl.holds(name, text) as law:
            for i, ec in law.over(enumerate(ecs)):
                law.check((i,), la.sscale(mul(e, E(ec)), lam_inv, p), ec)

    # span consequences
    def span_eq(name, text, vecs1, vecs2):
        s1 = la.Subspace.from_vectors(M2.dim, vecs1, p)
        s2 = la.Subspace.from_vectors(M2.dim, vecs2, p)
        cl.add(name, text, s1 == s2, witness="dim %d vs %d" % (s1.dim, s2.dim))

    ae2, be1 = [ctx.mul(a, e2) for a in Ab], [ctx.mul(b, e1) for b in Bb]
    span_eq("Ce2_eq_Ae2", "C e2 = A e2", ce2, ae2)
    span_eq("e2C_eq_e2A", "e2 C = e2 A", e2c, [ctx.mul(e2, a) for a in Ab])
    span_eq("Ce1_eq_Be1", "C e1 = B e1", ce1, be1)
    span_eq("e1C_eq_e1B", "e1 C = e1 B", e1c, [ctx.mul(e1, b) for b in Bb])

    for name, text, X, xes in (("C_is_Ae2A", "C = A e2 A", Ab, ae2),
                               ("C_is_Be1B", "C = B e1 B", Bb, be1)):
        rk = la.rank((ctx.mul(xe, x2) for xe in xes for x2 in X), M2.dim, p)
        cl.add(name, text, rk == C.dim,
               witness="rank %d vs dim C %d" % (rk, C.dim))

    # the second trace formula for E_B
    with cl.holds("E_B_alternative", "E_B(c) = u_j c_i T(d_i v_j c)") as law:
        for i, c in law.over(enumerate(Cb)):
            alt = {}
            for x, y in zip(dv, uc):
                coef = T(x, cov_C[i])
                if coef != 0:
                    sadd_into(alt, y, coef, p)
            law.check((i,), alt, EBc[i])

    return ep


# ---------------------------------------------------------------------------
# section-3: the duality pairing and the derived weak Hopf structure on B

class SingularGram(Exception):
    """The duality pairing degenerated: broken preconditions upstream."""


@dataclass(frozen=True)
class PairingData:
    f: dict  # symmetric separability element of V, flat V-basis tensor
    vhat: tuple  # the basis of V: the level-1 certificate's U, M2 sparse
    w: dict  # M2 sparse, the trace-normalizing unit of Z(V)
    w_inv: dict
    # Gram matrices as sparse rows; <a_i, b_j> = lambda^-2 T(a_i e2 e1 w b_j)
    gram: tuple  # row i holds <a_i, b_j> at j
    gram_t: tuple  # its transpose: row j holds <a_i, b_j> at i
    gram2: tuple  # row j holds the second pairing lambda^-2 T(b_j e1 e2 w a_i)
    e2e1w: dict  # M2 sparse, the product e2 e1 w of the first pairing


def pairing(cl, ctx):
    """The separability element of V, the unit w, and both Gram matrices."""
    M2 = ctx.M2
    p = ctx.p
    T = ctx.T
    # V = C_M1(M) is the centralizer the level-1 certificate induced as an
    # algebra and whose Kanzaki element it solved; M1 embeds in M2
    # multiplicatively, so both carry over on the embedded basis
    cert1 = ctx.lv1.cert
    V_alg, f = cert1.U_alg, cert1.kanzaki
    nV = V_alg.dim
    vhat = [ctx.t.embed(1, 2, r) for r in cert1.U.basis]

    def injV(x):
        return ag.apply_map(vhat, x, p)

    s_co = la.legsum(f, nV, lambda i, j: {i: T(vhat[j])}, p)
    s = injV(s_co)
    try:
        w_co = ag.right_inverse(V_alg, s_co)
    except la.NoSolution:
        raise SingularGram("f^(1) T(f^(2)) is not invertible in V")
    w = injV(w_co)
    cl.add("w_inverts", "w [f1 T(f2)] = 1 = [f1 T(f2)] w",
           ctx.mul(w, s) == M2.unit_sparse() and
           ctx.mul(s, w) == M2.unit_sparse())
    with cl.holds("w_central", "w lies in Z(V)") as law:
        for i, vh in law.over(enumerate(vhat)):
            law.check((i,), M2.commutator(w, vh), {})

    cov_wv = [ctx.cov(ctx.mul(w, vh)) for vh in vhat]
    with cl.holds("w_duality", "f1 T(v w f2) = v on V") as law:
        for k, v in law.over(enumerate(ctx.V.basis)):
            acc = injV(la.legsum(f, nV, lambda i, j: {i: T(v, cov_wv[j])}, p))
            law.check((k,), acc, v)

    lam2 = ctx.lam_inv * ctx.lam_inv
    Ab, Bb = ctx.A.basis, ctx.B.basis
    mid = ctx.mul(ctx.e2, ctx.e1, w)
    mid2 = ctx.mul(ctx.e1, ctx.e2, w)
    gram = [la.residues({j: lam2 * T(amid, tau)
                         for j, tau in enumerate(ctx.cov_B)}, p)
            for amid in (ctx.mul(a, mid) for a in Ab)]
    cov_A = [ctx.cov(a) for a in Ab]
    gram2 = [la.residues({i: lam2 * T(bmid, tau)
                          for i, tau in enumerate(cov_A)}, p)
             for bmid in (ctx.mul(b, mid2) for b in Bb)]
    nd = la.rank(gram, len(Bb), p) == ctx.A.dim == ctx.B.dim
    cl.add("pairing_nondegenerate",
           "<a, b> = lambda^-2 T(a e2 e1 w b) is non-degenerate", nd)
    nd2 = la.rank(gram2, len(Ab), p) == ctx.A.dim
    cl.add("second_pairing_nondegenerate",
           "<a, b>' = lambda^-2 T(b e1 e2 w a) is non-degenerate", nd2)
    if not (nd and nd2):
        raise SingularGram("duality pairing degenerate")
    w_inv = injV(ag.right_inverse(V_alg, w_co))
    gram_t = la.transpose(gram, len(Bb))
    return PairingData(f, tuple(vhat), w, w_inv, *(
        ag.map_rows(g, p) for g in (gram, gram_t, gram2)), mid)


class DerivedWeakHopf:
    """The weak Hopf structures carried by B and (through the pairing) A,
    built by five stages that append their laws to `cl` in report order."""

    def __init__(self, cl, ctx, ep, pd):
        self.ctx = ctx
        self.pd = pd
        A_alg, pairs = self._structure_of_B(cl)
        VB, WB, e2w, ea_w = self._identities_of_B(cl, ep)
        w_inv_M1 = self._E_M1_laws(cl, ep, e2w, ea_w)
        self._counitals_and_integrals(cl, VB, WB, e2w, w_inv_M1)
        self._A_through_gram(cl, A_alg, pairs)

    def _structure_of_B(self, cl):
        """B solved from the pairing; returns A's algebra and <a_i a_k, ->."""
        ctx, pd, p = self.ctx, self.pd, self.ctx.p
        nB, nA = ctx.B.dim, ctx.A.dim
        B_alg, injB, expB = ag.subalgebra(ctx.M2, ctx.B, "B")
        A_alg, injA, expA = ag.subalgebra(ctx.M2, ctx.A, "A")
        self.injB, self.expB = injB, expB
        self.injA, self.expA = injA, expA
        self.bhat = [injB({j: 1}) for j in range(nB)]
        self.ahat = [injA({i: 1}) for i in range(nA)]

        G = pd.gram
        Ginv = self.gram_inv = la.inverse(G, nA, p)

        # <a_i a_k, b_j> = sum_l (a_i a_k)_l <a_l, b_j>, the row of G at
        # each cell of A's table (row i nA + k); eps(b_j) = <1, b_j>
        pairs = [ag.apply_map(G, dict(cell), p) for row in A_alg.table
                 for cell in row]
        eps_vec = la.dense(ag.apply_map(G, A_alg.unit_sparse(), p), nB)
        # Delta_B(b_j) = (G^-1 (x) G^-1) applied to <a_i a_k, b_j>, read
        # through G^-T = (G^T)^-1, the transpose of G^-1
        Ginv_t = la.transpose(Ginv, nB)
        delta_rows = [ag.apply_tensor(Ginv_t, Ginv_t, R, nA, nB, p)
                      for R in la.transpose(pairs, nB)]
        # S(b_j) = G2^-1 G e_j: column j of G through the second inverse
        s_rows = ag.compose_maps(pd.gram_t, la.inverse(pd.gram2, nA, p), p)
        self.B = wha.make_weakhopf(B_alg, delta_rows, eps_vec, s_rows)
        cl.items.extend(replace(c, name="B_axiom_" + c.name)
                        for c in wha.verify_axioms(self.B).items)
        return A_alg, pairs

    def _identities_of_B(self, cl, ep):
        """eps_formula ... s_e2; returns V and W inside B, e2 w and the
        factors E_A(e2 w b_k) w^-1."""
        ctx, pd, B, p, nB = self.ctx, self.pd, self.B, self.ctx.p, self.B.dim
        B_alg, injB, expB, bhat = B.alg, self.injB, self.expB, self.bhat
        w, w_inv, e1, e2, lam_inv = pd.w, pd.w_inv, ctx.e1, ctx.e2, ctx.lam_inv
        E_A, E_B, S = ctx.E_M1, ep.E_B, B.S

        def S_inv(x_co):
            return ag.apply_map(B.s_inv, x_co, p)

        # eps(b) = lambda^-1 T(e2 w b)
        e2w = ctx.mul(e2, w)
        with cl.holds("eps_formula", "eps(b) = lambda^-1 T(e2 w b)") as law:
            for j in law.over(range(nB)):
                law.check((j,), B.eps[j],
                          la.residue(lam_inv * ctx.T(e2w, ctx.cov_B[j]), p))

        with cl.holds("eps_S_invariant", "eps(S(b)) = eps(b)") as law:
            for j in law.over(range(nB)):
                law.check((j,), B.e(B.s[j]), B.eps[j])

        # Delta(1) = S^-1(f1) (x) f2 = S(f1) (x) f2, legs in B coordinates
        nV = len(pd.vhat)
        vB = [expB(v) for v in pd.vhat]

        def first_leg_through(F):
            return la.legsum(pd.f, nV, lambda i, j: tensor_sparse(
                F(vB[i]), vB[j], nB, p), p)

        d1 = B.delta_one
        cl.add("delta_one_formula", "Delta(1) = S^-1(f1) (x) f2",
               d1 == first_leg_through(S_inv))
        cl.add("delta_one_symmetric", "Delta(1) = S(f1) (x) f2",
               d1 == first_leg_through(S))

        # Lemma: S^-1(b) = lambda^-3 w^-1 E_B(e1 e2 E_A(b e1 e2)) w
        lam3 = lam_inv * lam_inv * lam_inv

        with cl.holds("s_inverse_formula",
                      "S^-1(b) = lambda^-3 w^-1 E_B(e1 e2 E_A(b e1 e2)) w"
                      ) as law:
            for j in law.over(range(nB)):
                inner = E_A(ctx.mul(bhat[j], e1, e2))
                val = ctx.mul(w_inv, E_B(ctx.mul(e1, e2, inner)), w)
                law.check((j,), expB(la.sscale(val, lam3, p)), B.s_inv[j])

        VB = la.Subspace.from_vectors(nB, vB, p)
        WB = la.Subspace.from_vectors(
            nB, [expB(r) for r in ctx.W.basis], p)
        s_of_V = la.Subspace.from_vectors(nB, [S(v) for v in vB], p)
        cl.add("S_V_is_W", "S(V) = W", s_of_V == WB)

        with cl.holds("double_twist",
                      "b = w S^-1(w S^-1(b) w^-1) w^-1") as law:
            for j in law.over(range(nB)):
                val = expB(ctx.mul(w, injB(S_inv(expB(
                    ctx.mul(w, injB(B.s_inv[j]), w_inv)))), w_inv))
                law.check((j,), val, {j: 1})

        g = ctx.mul(injB(S(expB(w_inv))), w)
        g_inv = injB(ag.right_inverse(B_alg, expB(g)))
        with cl.holds("s_squared_conjugation",
                      "S^2(b) = g b g^-1, g = S(w^-1) w") as law:
            for j in law.over(range(nB)):
                law.check((j,), S(B.s[j]),
                          expB(ctx.mul(g, bhat[j], g_inv)))

        with cl.holds("s_squared_counital", "S^2 = id on V and on W") as law:
            for i, v in law.over(enumerate(vB)):
                law.check(("V", i), S(S(v)), v)
            for i, r in law.over(enumerate(ctx.W.basis)):
                wb = expB(r)
                law.check(("W", i), S(S(wb)), wb)

        one_B = B_alg.unit_sparse()
        with cl.holds("delta_right_V", "Delta(b v) = Delta(b)(v (x) 1)") as law:
            for j in law.over(range(nB)):
                for i, v in law.over(enumerate(vB)):
                    bv = B_alg.mul({j: 1}, v)
                    law.check((j, i), ag.apply_map(B.delta, bv, p),
                              ag.tensor_mul(B_alg, B_alg, B.delta[j],
                                            la.tensor_sparse(v, one_B, nB, p)))

        right_legs, left_legs = la.tslices(d1, nB)
        with cl.holds("delta_one_legs", "Delta(1) lies in W (x) V") as law:
            for l, v in law.over(left_legs.items()):
                law.check(("left", l), WB.contains(v), True)
            for k, v in law.over(right_legs.items()):
                law.check(("right", k), VB.contains(v), True)

        s_inv_e2 = S_inv(expB(e2))
        w_e2_w = expB(ctx.mul(w_inv, e2, w))  # for s_e2 too
        cl.add("s_inv_e2", "S^-1(e2) = w^-1 e2 w", s_inv_e2 == w_e2_w)
        with cl.holds("v_e2", "v e2 = S(v) e2 for v in V") as law:
            for i, v in law.over(enumerate(vB)):
                law.check((i,), ctx.mul(injB(v), e2), ctx.mul(injB(S(v)), e2))

        em = B.eps_products  # eps(b_j b_k)
        # E_A(e2 w b_k) w^-1 per k, here and in sweedler_recovery
        ea_w = [ctx.mul(E_A(ctx.mul(e2w, b)), w_inv) for b in bhat]
        with cl.holds("lemma_c",
                      "lambda^-1 E_A(e2 w b) w^-1 = eps(b 1(1)) 1(2)") as law:
            for j in law.over(range(nB)):
                lhs = la.sscale(ea_w[j], lam_inv, p)
                rhs = injB(la.legsum(d1, nB, lambda k, l: {l: em[j][k]}, p))
                law.check((j,), lhs, rhs)

        with cl.holds("lemma_d",
                      "Delta(b)(1 (x) v) = Delta(b)(S(v) (x) 1)") as law:
            for j in law.over(range(nB)):
                dj = B.delta[j]
                for i, v in law.over(enumerate(vB)):
                    law.check((j, i),
                              ag.tensor_mul(B_alg, B_alg, dj,
                                            la.tensor_sparse(one_B, v, nB, p)),
                              ag.tensor_mul(B_alg, B_alg, dj,
                                            la.tensor_sparse(S(v), one_B, nB,
                                                             p)))

        with cl.holds("lemma_e", "Delta(b) Delta(1) = Delta(b)") as law:
            for j in law.over(range(nB)):
                dj = B.delta[j]
                law.check((j,), ag.tensor_mul(B_alg, B_alg, dj, d1), dj)

        cl.add("s_e2", "S(e2) = w^-1 e2 w", S(expB(e2)) == w_e2_w)
        return VB, WB, e2w, ea_w

    def _E_M1_laws(self, cl, ep, e2w, ea_w):
        """pairing_slice ... expectation_measuring; returns w^-1 in M1."""
        ctx, B, G, bhat = self.ctx, self.B, self.pd.gram, self.bhat
        p, nB, w, w_inv = ctx.p, B.dim, self.pd.w, self.pd.w_inv
        e1, e2, lam_inv, E_A = ctx.e1, ctx.e2, ctx.lam_inv, ctx.E_M1

        # Prop: lambda^-1 E_B(e1 w b a) = <a, b1> w b2 and the recovery identity
        e1w = ctx.mul(e1, w)
        with cl.holds("pairing_slice",
                      "lambda^-1 E_B(e1 w b a) = <a, b1> w b2") as law:
            for j in law.over(range(nB)):
                e1wb = ctx.mul(e1w, bhat[j])
                for i, a in law.over(enumerate(self.ahat)):
                    lhs = la.sscale(ep.E_B(ctx.mul(e1wb, a)), lam_inv, p)
                    rhs = ctx.mul(w, self.injB(la.legsum(
                        B.delta[j], nB, lambda k, l: {l: G[i].get(k, 0)}, p)))
                    law.check((j, i), lhs, rhs)

        # lambda^-1 Delta(b_j): the legs of the sums that carry lambda^-1
        lam_delta = [la.sscale(r, lam_inv, p) for r in B.delta]
        with cl.holds("sweedler_recovery",
                      "lambda^-1 b2 E_A(e2 w b1) w^-1 = b") as law:
            for j in law.over(range(nB)):
                acc = la.legsum(lam_delta[j], nB, lambda k, l: ctx.mul(
                    bhat[l], ea_w[k]), p)
                law.check((j,), acc, bhat[j])

        # per-index factors of the two slices below, so that each leg costs
        # one product: b_l w^-1, E_A(e2 e1 w b_k), w^-1 x and E_M1(e2 x b_k)
        bw = [ctx.mul(b, w_inv) for b in bhat]
        ea_e1 = [E_A(ctx.mul(self.pd.e2e1w, b)) for b in bhat]
        w_e1_w = ctx.mul(w_inv, e1, w)
        with cl.holds("heart",
                      "w^-1 e1 w b = lambda^-1 b2 w^-1 E_A(e2 e1 w b1)") as law:
            for j in law.over(range(nB)):
                lhs = ctx.mul(w_e1_w, bhat[j])
                rhs = la.legsum(lam_delta[j], nB, lambda k, l: ctx.mul(
                    bw[l], ea_e1[k]), p)
                law.check((j,), lhs, rhs)

        M1b = ctx.M1_in_M2
        nM1 = len(M1b)
        wx = [ctx.mul(w_inv, x) for x in M1b]
        em1 = [[ctx.E_M1(ctx.mul(e2x, b)) for b in bhat]
               for e2x in (ctx.mul(e2, x) for x in M1b)]
        with cl.holds("m1_slice",
                      "w^-1 x b = lambda^-1 b2 w^-1 E_M1(e2 x b1)") as law:
            for j in law.over(range(nB)):
                for i in law.over(range(nM1)):
                    lhs = ctx.mul(wx[i], bhat[j])
                    rhs = la.legsum(lam_delta[j], nB, lambda k, l: ctx.mul(
                        bw[l], em1[i][k]), p)
                    law.check((j, i), lhs, rhs)

        # E_M1(e2 w y x b) = lambda^-1 E_M1(e2 w y b2) w^-1 E_M1(e2 w x b1)
        # in M1: q[k][x] = E_M1(e2 w x b_k), read at the cell of y x
        M1 = ctx.M1
        unemb2 = ctx.lv2.cert.E.E_small  # E_M1, the identity on M1 in M2
        w_inv_M1 = unemb2(w_inv)
        e2wx = [ctx.mul(e2w, x) for x in M1b]
        q = [[unemb2(ctx.mul(v, b)) for v in e2wx] for b in bhat]
        qw = [[M1.mul(v, w_inv_M1) for v in row] for row in q]
        with cl.holds("expectation_measuring",
                      "E_M1(e2 w y x b) = lambda^-1 E_M1(e2 w y b2) w^-1 "
                      "E_M1(e2 w x b1)") as law:
            # per b_j, f = q[j] on pairs (y, x): the least (y, x, j) fails
            law.fails_at(min((yx + (j,) for j, dj in enumerate(lam_delta) if (
                yx := ac.measuring_failure(M1, q[j], la.tslices(dj, nB)[1],
                                           qw, q))), default=None))
        return w_inv_M1

    def _counitals_and_integrals(self, cl, VB, WB, e2w, w_inv_M1):
        """counital_target_formula ... dims_match; keeps A inside M1."""
        ctx, B, p, nB = self.ctx, self.B, self.ctx.p, self.B.dim
        B_alg, injB, expB, bhat = B.alg, self.injB, self.expB, self.bhat
        S = B.S
        w, e2, d1, em = self.pd.w, ctx.e2, B.delta_one, B.eps_products
        est, ess = B.eps_rows

        for target, name, text in (
                (True, "counital_target_formula", "b1 S(b2) = eps(1(1) b) 1(2)"),
                (False, "counital_source_formula",
                 "S(b1) b2 = 1(1) eps(b 1(2))")):
            with cl.holds(name, text) as law:
                for j in law.over(range(nB)):
                    if target:
                        acc = la.legsum(B.delta[j], nB, lambda k, l: B_alg.mul(
                            {k: 1}, B.s[l]), p)
                        rhs = la.legsum(d1, nB, lambda k, l: {l: em[k][j]}, p)
                    else:
                        acc = la.legsum(B.delta[j], nB, lambda k, l: B_alg.mul(
                            B.s[k], {l: 1}), p)
                        rhs = la.legsum(d1, nB, lambda k, l: {k: em[j][l]}, p)
                    law.check((j,), acc, rhs)

        with cl.holds("eps_t_formula", "eps_t(b) = lambda^-1 E_A(b e2)") as law:
            for j in law.over(range(nB)):
                lhs = est[j]
                rhs = expB(la.sscale(ctx.E_M1(ctx.mul(bhat[j], e2)),
                                     ctx.lam_inv, p))
                law.check((j,), lhs, rhs)

        # integrals: e2 is a normalized left integral, l = e2 w is Haar
        e2B = expB(e2)
        with cl.holds("e2_left_integral", "b e2 = eps_t(b) e2") as law:
            for j in law.over(range(nB)):
                law.check((j,), B_alg.mul({j: 1}, e2B),
                          B_alg.mul(est[j], e2B))
        cl.add("e2_normalized", "eps_t(e2) = 1",
               ag.apply_map(est, e2B, p) == B_alg.unit_sparse())

        # Haar integral from its defining expression l = e2 S^-1(e2); this
        # equals E_M(w^-1) e2 w exactly (the contraction through E_M picks
        # up that factor), so it coincides with e2 w only when E_M(w) = 1.
        haar = ctx.mul(e2, injB(ag.apply_map(B.s_inv, expB(e2), p)))
        hB = expB(haar)
        # A inside M1, for the later stages too
        unemb2 = ctx.lv2.cert.E.E_small  # E_M1, the identity on M1 in M2
        self.a_in_M1 = [unemb2(a) for a in self.ahat]
        w_M1 = unemb2(w)
        E_M = ctx.lv1.cert.E.rows
        EMw_inv = ctx.t.embed(0, 2, ag.apply_map(E_M, w_inv_M1, p))
        EMw = ctx.t.embed(0, 2, ag.apply_map(E_M, w_M1, p))
        cl.add("haar_form", "e2 S^-1(e2) = e2 w^-1 e2 w = E_M(w^-1) e2 w",
               haar == ctx.mul(EMw_inv, e2, w))
        e2wB = expB(e2w)

        with cl.holds("haar_two_sided", "l = e2 S^-1(e2) and e2 w are "
                      "two-sided integrals") as law:
            for j in law.over(range(nB)):
                for i, cand in law.over(enumerate((hB, e2wB))):
                    if law.check(("left", j, i), B_alg.mul({j: 1}, cand),
                                 B_alg.mul(est[j], cand)):
                        law.check(("right", j, i), B_alg.mul(cand, {j: 1}),
                                  B_alg.mul(cand, ess[j]))
        cl.add("haar_s_invariant", "S(l) = l and S(e2 w) = e2 w",
               S(hB) == hB and S(e2wB) == e2wB)
        cl.add("haar_normalized", "eps_t(l) = 1 and eps_s(l) = 1",
               ag.apply_map(est, hB, p) == B_alg.unit_sparse()
               and ag.apply_map(ess, hB, p) == B_alg.unit_sparse())
        cl.add("e2w_counit_value", "eps_t(e2 w) = E_M(w)",
               ag.apply_map(est, e2wB, p) == expB(EMw))

        cl.add("Ht_is_V", "the target counital subalgebra of B is V",
               B.counital.Ht == VB)
        cl.add("Hs_is_W", "the source counital subalgebra of B is W",
               B.counital.Hs == WB)
        cl.add("dims_match", "dim A = dim B", ctx.A.dim == nB)

    def _A_through_gram(self, cl, A_alg, pairs):
        """A as B* through the Gram matrix, put through the axiom engine."""
        ctx, B, G, Ginv = self.ctx, self.B, self.pd.gram, self.gram_inv
        p, nB, nA = ctx.p, ctx.B.dim, ctx.A.dim

        with cl.holds("gram_algebra_iso",
                      "<a a', b> = <a, b1><a', b2> identifies A with B*") as law:
            for i in law.over(range(nA)):
                for k in law.over(range(nA)):
                    lhs = pairs[i * nA + k]
                    # <a_i, b1><a_k, b2> = <a_i (x) a_k, Delta(b)>
                    gik = tensor_sparse(G[i], G[k], nB, p)
                    rhs = la.residues({j: la.scalar_sum(
                        c * gik[uv] for uv, c in dj.items() if uv in gik)
                        for j, dj in enumerate(B.delta)}, p)
                    law.check((i, k), lhs, rhs)

        # kappa: A coords -> B* coords is a -> a G, its inverse a -> a G^-1.
        # Delta, eps and S of B* are read off B's transposed matrices; no B*
        # is built: the dual of a weak Hopf algebra is one [BNS],
        # gram_algebra_iso decides that kappa is multiplicative, and A, which
        # carries the transported structure, passes the axiom engine below
        _, delta_d, eps_d, s_d = wha.transpose(B)
        deltaA = [ag.apply_tensor(Ginv, Ginv, ag.apply_map(delta_d, G[i], p),
                                  nB, nA, p) for i in range(nA)]
        epsA = [ag.trace_of(eps_d, G[i], p) for i in range(nA)]
        sA = [ag.apply_map(Ginv, ag.apply_map(s_d, G[i], p), p)
              for i in range(nA)]
        self.A = A = wha.make_weakhopf(A_alg, deltaA, epsA, sA)
        cl.items.extend(replace(c, name="A_axiom_" + c.name)
                        for c in wha.verify_axioms(A).items)

        # open-question check: the right legs of Delta_A(1) lie in C_M(N)
        right = la.tslices(A.delta_one, nA)[0]
        with cl.holds("delta_one_A_legs",
                      "Delta_A(1) lies in A (x) C_M(N)") as law:
            for k, v in law.over(right.items()):
                law.check((k,), ctx.U.contains(self.injA(v)), True)


# ---------------------------------------------------------------------------
# section-4: actions and the two smash-product isomorphisms

def action_B_on_M1(cl, ctx, dw):
    """The action b . x = lambda^-1 E_M1(b x e2) of B on M1.

    Verified as a module algebra; the pairing characterization on M A, the
    conjugation formula b . x = b1 x S(b2), the measuring identity, and
    invariants = M are each checked exhaustively.
    """
    B = dw.B
    nB = B.dim
    p = ctx.p
    bhat = dw.bhat
    M1 = ctx.M1

    # b_k x, formed once for r_tab[j][x] = E_M1(b_j x e2) (M1 coords) and
    # for the conjugation form
    E_M1 = ctx.lv2.cert.E.rows
    bx = [[ctx.mul(b, x) for x in ctx.M1_in_M2] for b in bhat]
    r_tab = [[ag.apply_map(E_M1, ctx.mul(v, ctx.e2), p) for v in row]
             for row in bx]
    act = [[la.sscale(r, ctx.lam_inv, p) for r in row] for row in r_tab]
    MB = ac.make_module_algebra(B, M1, act)
    cl.extend(MB.checks)

    # characterization b . (m a) = m <a2, b> a1 on M x A basis pairs
    A = dw.A
    nA = A.dim
    Gt = dw.pd.gram_t
    a_in_M1, m_in_M1 = dw.a_in_M1, ctx.M_in_M1

    with cl.holds("standard_action_form", "b . (m a) = m <a2, b> a1") as law:
        for mi in law.over(range(ctx.M.dim)):
            ma = [M1.mul(m_in_M1[mi], a) for a in a_in_M1]  # rows a -> m a
            for ai in law.over(range(nA)):
                for j in law.over(range(nB)):
                    lhs = ag.apply_map(MB.act[j], ma[ai], p)
                    a1 = la.legsum(A.delta[ai], nA,
                                   lambda k, l: {k: Gt[j].get(l, 0)}, p)
                    law.check((mi, ai, j), lhs, ag.apply_map(ma, a1, p))

    s_hat = [dw.injB(r) for r in B.s]  # S(e_l) in M2
    with cl.holds("conjugation_form", "b . x = b1 x S(b2)") as law:
        for j in law.over(range(nB)):
            for x in law.over(range(M1.dim)):
                lhs = ctx.t.embed(1, 2, MB.act[j][x])
                rhs = la.legsum(B.delta[j], nB, lambda k, l: ctx.mul(
                    bx[k][x], s_hat[l]), p)
                law.check((j, x), lhs, rhs)

    # per b_j, f = r_tab[j] against lambda^-1 E_M1(b1 x e2) = b1 . x
    with cl.holds("expectation_measuring_form",
                  "E_M1(b x y e2) = lambda^-1 E_M1(b1 x e2) E_M1(b2 y e2)"
                  ) as law:
        for j in law.over(range(nB)):
            xy = ac.measuring_failure(M1, r_tab[j], B.legs[j], MB.act, r_tab)
            law.fails_at(xy and (j,) + xy)

    inv = ac.invariants(MB)
    cl.add("invariants_are_M", "M1^B = M", inv == ctx.lv1.cert.incl.image)
    return MB


def _smash_iso(cl, sm, target, left, right, laws, inverse=None):
    """Verify x # h -> left[x] right[h] as an isomorphism sm.alg -> target.

    `left` and `right` are the two legs embedded in `target`; `laws` holds
    the texts of the dimension, bijective, unital, multiplicative and
    tower_compatible laws.  `inverse`, when given, is (text, fn) with fn
    mapping a target basis index to the smash coordinates of its preimage,
    checked before tower_compatible.  Returns the sparse rows of the map.
    """
    p = target.p
    q = sm.quotient
    nR = len(right)
    rows = []
    for i in range(q.dim):
        out = {}
        for xh, c in q.section({i: 1}).items():
            x, h = divmod(xh, nR)
            sadd_into(out, target.mul(left[x], right[h]), c, p)
        rows.append(out)
    iso = ag.map_rows(rows, p)
    dim_text, bij_text, unit_text, mult_text, tower_text = laws
    cl.add("dimension", dim_text, sm.alg.dim == target.dim,
           witness="%d vs %d" % (sm.alg.dim, target.dim))
    cl.add("bijective", bij_text,
           la.rank(iso, target.dim, p) == target.dim)
    cl.add("unital", unit_text,
           ag.apply_map(iso, sm.alg.unit_sparse(), p) == target.unit_sparse())
    with cl.holds("multiplicative", mult_text) as law:
        for i in law.over(range(sm.alg.dim)):
            for j in law.over(range(sm.alg.dim)):
                lhs = ag.apply_map(iso, dict(sm.alg.table[i][j]), p)
                rhs = target.mul(iso[i], iso[j])
                law.check((i, j), lhs, rhs)
    if inverse is not None:
        with cl.holds("inverse_formula", inverse[0]) as law:
            for x in law.over(range(target.dim)):
                law.check((x,), ag.apply_map(iso, inverse[1](x), p), {x: 1})
    with cl.holds("tower_compatible", tower_text) as law:
        for x, leg in law.over(enumerate(left)):
            law.check((x,), ag.apply_map(iso, sm.include_A[x], p), leg)
    return iso


def psi_iso(cl, ctx, dw, MB, d2):
    """psi: M1 # B -> M2, x # b -> x b, verified as an algebra isomorphism."""
    sm = ac.smash(MB)
    cl.extend(sm.checks)
    M2 = ctx.M2
    nB = dw.B.dim
    q = sm.quotient

    # inverse x -> E_M1(x u_j) (x) v_j
    vsB = [dw.expB(v) for v in d2.vs]
    E_M1 = ctx.lv2.cert.E.rows

    def preimage(x):
        ems = [ag.apply_map(E_M1, ctx.mul({x: 1}, u), ctx.p) for u in d2.us]
        return q.project_legs(zip(ems, vsB), nB)

    psi = _smash_iso(
        cl, sm, M2, ctx.M1_in_M2, dw.bhat,
        ("dim(M1 # B) = dim M2", "psi is a linear isomorphism",
         "psi(1 # 1) = 1", "psi((x#b)(y#b')) = psi(x#b) psi(y#b')",
         "psi(x # 1) = x recovers the inclusion M1 into M2"),
        inverse=("x -> E_M1(x u_j) # v_j inverts psi", preimage))
    return sm, psi


def action_A_on_M(cl, ctx, dw, MB):
    """The action a . m = a1 m S(a2) of A on M, with N as invariants."""
    A = dw.A
    nA = A.dim
    p = ctx.p
    M = ctx.M
    M1 = ctx.M1
    unemb1 = ctx.lv1.cert.E.E_small  # E_M, the identity on M inside M1
    a_in_M1, m_in_M1 = dw.a_in_M1, ctx.M_in_M1
    M_img = ctx.lv1.cert.incl.image

    sA = A.s
    s_in_M1 = [ag.apply_map(a_in_M1, r, p) for r in sA]  # S(a_l) in M1
    act = []
    # every row is built, so the law's loops do not stop at a failure
    with cl.holds("lands_in_M", "a1 m S(a2) lies in M") as law:
        for i in range(nA):
            rows = []
            for mi in range(M.dim):
                out = la.legsum(A.delta[i], nA, lambda k, l: M1.mulm(
                    a_in_M1[k], m_in_M1[mi], s_in_M1[l]), p)
                inside = M_img.contains(out)
                law.check((i, mi), inside, True)
                rows.append(unemb1(out) if inside else {})
            act.append(rows)
    MA = ac.make_module_algebra(A, M, act)
    cl.extend(MA.checks)

    # eps_t is a module map from the regular to the adjoint action
    est = A.eps_rows[0]

    with cl.holds("eps_t_module_map",
                  "a1 eps_t(a') S(a2) = eps_t(a a')") as law:
        for i in law.over(range(nA)):
            for i2 in law.over(range(nA)):
                eta = est[i2]
                lhs = la.legsum(A.delta[i], nA, lambda k, l: A.alg.mulm(
                    {k: 1}, eta, sA[l]), p)
                rhs = ag.apply_map(est, dict(A.alg.table[i][i2]), p)
                law.check((i, i2), lhs, rhs)

    inv = ac.invariants(MA)
    cl.add("invariants_are_N", "M^A = N", inv == ctx.t.base.incl.image)

    # the coaction of the B-action restricted to A is the comultiplication
    Ginv = dw.gram_inv
    nB = dw.B.dim

    with cl.holds("coaction_is_delta",
                  "the coaction restricted to A is Delta_A") as law:
        for ai in law.over(range(nA)):
            rho = {}
            for k in law.over(range(nB)):
                img = ctx.t.embed(1, 2, ag.apply_map(MB.act[k], a_in_M1[ai],
                                                     p))
                try:
                    co = dw.expA(img)
                except ag.NotClosed:  # b . a must lie in A
                    law.check((ai, k), False, True)
                    continue
                sadd_into(rho, tensor_sparse(co, Ginv[k], nA, p), 1, p)
            law.check((ai,), rho, A.delta[ai])
    return MA


def phi_iso(cl, ctx, dw, MA):
    """phi: M # A -> M1, m # a -> m a, verified as an algebra isomorphism."""
    sm = ac.smash(MA)
    cl.extend(sm.checks)
    phi = _smash_iso(
        cl, sm, ctx.M1, ctx.M_in_M1, dw.a_in_M1,
        ("dim(M # A) = dim M1", "phi is a linear isomorphism",
         "phi(1 # 1) = 1", "phi((m#a)(m'#a')) = phi(m#a) phi(m'#a')",
         "phi(m # 1) = m recovers the inclusion M into M1"))
    HtA = la.Subspace.from_vectors(
        ctx.M1.dim, [ctx.lv2.cert.E.E_small(dw.injA(r))
                     for r in dw.A.counital.Ht.basis],
        ctx.p)
    U_in_M1 = la.Subspace.from_vectors(
        ctx.M1.dim, [ctx.t.embed(0, 1, r)
                     for r in ctx.t.base.U.basis], ctx.p)
    cl.add("Ht_A_is_U", "the target counital subalgebra of A is C_M(N)",
           HtA == U_in_M1)
    return sm, phi


def derive(tower):
    """Run the whole depth-2 pipeline on a tower built to M2.

    Returns (ctx, results dict, CheckList).  The CheckList, the one every
    stage appends to, holds the derivation's own checks, from the
    centralizer lattice on; the tower's checks stay on `tower.checks`."""
    ctx = DepthTwoContext(tower)
    cl = CheckList()
    _lattice(cl, ctx)
    d2 = depth2_check(ctx)
    ep = conditional_expectations(cl, ctx, d2)
    pd = pairing(cl, ctx)
    dw = DerivedWeakHopf(cl, ctx, ep, pd)
    MB = action_B_on_M1(cl, ctx, dw)
    smB, psi = psi_iso(cl, ctx, dw, MB, d2)
    MA = action_A_on_M(cl, ctx, dw, MB)
    smA, phi = phi_iso(cl, ctx, dw, MA)
    results = {"depth2": d2, "expectations": ep, "pairing": pd,
               "derived": dw, "action_B": MB, "smash_B": smB, "psi": psi,
               "action_A": MA, "smash_A": smA, "phi": phi}
    return ctx, results, cl
