"""Module algebras, their invariants, smash products.

Actions are stored as act[h] = sparse rows of the operator "e_h . (-)" on
the module algebra.  Every constructed action is pushed through the module
algebra axioms on full basis tuples, and the ModuleAlgebra keeps their
verdicts, which a smash product reads beside the premises of its
well-definedness.  Sums over the legs of Delta(e_h), as in
h . a = h1 a S(h2), go through `linalg.legsum` or read slices from
`linalg.tslices`; the smash product's kernel keeps its own decoded legs of
Delta.  A measuring law f(ab) = f1(a) f2(b) is one keyed sum per map f
(`measuring_failure`), read off the stored rows and the product table.
"""

from __future__ import annotations

from dataclasses import dataclass

from weakhopf import algebra as ag
from weakhopf import linalg as la
from weakhopf import wha
from weakhopf.checks import CheckList
from weakhopf.linalg import sadd_into


@dataclass(frozen=True)
class ModuleAlgebra:
    H: wha.WeakHopf
    A: ag.Algebra
    act: tuple  # act[h]: sparse rows A -> A
    checks: CheckList | None = None  # the module-algebra verdicts

    def apply(self, h, a):
        out = {}
        for hi, hc in h.items():
            rows = self.act[hi]
            for ai, ac in a.items():
                row = rows[ai]
                if row:
                    c = hc * ac
                    for k, v in row.items():
                        t = c * v
                        o = out.get(k)
                        out[k] = t if o is None else o + t
        return la.residues(out, self.A.p)


def make_module_algebra(H, A, act):
    """Bundle and fully verify a module-algebra structure.

    act[h][a] is the image of e_a under e_h, as a sparse dict.  Returns the
    ModuleAlgebra; its `checks` hold the verdicts.
    """
    act = tuple(ag.map_rows(rows, A.p) for rows in act)
    cl = verify_module_algebra(ModuleAlgebra(H, A, act))
    return ModuleAlgebra(H, A, act, cl)


def verify_module_algebra(M):
    """Check the module-algebra laws on every basis tuple.

    Basis inputs read the action table: e_h . e_a is the row M.act[h][a].
    """
    H, A = M.H, M.A
    p = A.p
    cl = CheckList()
    dH, dA = H.dim, A.dim
    acts = M.act

    one_h = H.alg.unit_sparse()
    with cl.holds("module_unit", "1 . a = a") as law:
        for a in law.over(range(dA)):
            law.check((a,), M.apply(one_h, {a: 1}), {a: 1})

    with cl.holds("module_associative", "(hg) . a = h . (g . a)") as law:
        for h in law.over(range(dH)):
            for g in law.over(range(dH)):
                hg = H.alg.table[h][g]
                for a in law.over(range(dA)):
                    lhs = {}
                    for k, c in hg:
                        sadd_into(lhs, acts[k][a], c, p)
                    rhs = ag.apply_map(M.act[h], acts[g][a], p)
                    law.check((h, g, a), lhs, rhs)

    with cl.holds("measuring", "h . (ab) = (h1 . a)(h2 . b)") as law:
        for h in law.over(range(dH)):
            ab = measuring_failure(A, acts[h], H.legs[h], acts, acts)
            law.fails_at(ab and (h,) + ab)

    one_a = A.unit_sparse()
    est = H.eps_rows[0]
    with cl.holds("unit_axiom", "h . 1 = eps_t(h) . 1") as law:
        for h in law.over(range(dH)):
            lhs = ag.apply_map(acts[h], one_a, p)
            rhs = M.apply(est[h], one_a)
            law.check((h,), lhs, rhs)
    return cl


def measuring_failure(alg, f, legs, left, right):
    """The first basis pair (a, b) where f(e_a e_b) differs from the sum of
    c left[u][a] right[v][b] over legs = {u: {v: c}}, or None; f, left[u]
    and right[v] are sparse rows on alg.  One sum keyed (a dim + b) dim + n
    reads f at the cells and joins left[u][a] to sum_v c right[v][b] at the
    cells of their entries, so its least key names the first pair.
    """
    table, d, p = alg.table, alg.dim, alg.p
    acc = {}
    for a, row in enumerate(table):
        for b, cell in enumerate(row):
            off = (a * d + b) * d
            for k, c in cell:
                for n, w in f[k].items():
                    t = w if c == 1 else c * w
                    o = acc.get(off + n)
                    acc[off + n] = t if o is None else o + t
    for u, vs in legs.items():
        ru = [{} for _ in range(d)]  # minus r_u
        for v, c in vs.items():
            for b, vb in enumerate(right[v]):
                sadd_into(ru[b], vb, -c, p)
        for a, ua in enumerate(left[u]):
            for b, rb in (enumerate(ru) if ua else ()):
                off = (a * d + b) * d
                for m, x in (ua.items() if rb else ()):
                    row = table[m]
                    for l, y in rb.items():
                        t = x * y
                        for n, w in row[l]:
                            tw = t if w == 1 else t * w
                            o = acc.get(off + n)
                            acc[off + n] = tw if o is None else o + tw
    key = min(la.residues(acc, p), default=None)
    return None if key is None else (key // d // d, key // d % d)


def invariants(M):
    """{a : h . a = eps_t(h) . a}, verified to be a unital subalgebra."""
    H, A = M.H, M.A
    d = A.dim
    # the image of e_a holds h . e_a - eps_t(h) . e_a at offset h d
    images = [{} for _ in range(d)]
    for h, eth in enumerate(H.eps_rows[0]):
        for a, im in enumerate(images):
            diff = dict(M.act[h][a])
            sadd_into(diff, M.apply(eth, {a: 1}), -1, A.p)
            im.update((h * d + k, c) for k, c in diff.items())
    sub = la.kernel(images, A.p)
    ag.subalgebra(A, sub, "invariants")  # NotClosed names a pair or the unit
    return sub


# ---------------------------------------------------------------------------
# canonical actions

def trivial_action(H):
    """H acting on its target counital subalgebra by h . z = eps_t(hz)."""
    Ht_alg, inject, express = ag.subalgebra(H.alg, H.counital.Ht, "Ht")
    act = []
    for h in range(H.dim):
        rows = []
        for z in range(Ht_alg.dim):
            img = H.et(H.alg.mul({h: 1}, inject({z: 1})))
            rows.append(express(img))
        act.append(rows)
    return make_module_algebra(H, Ht_alg, act)


def standard_action(H):
    """H* acting on H by phi . h = h1 <phi, h2>."""
    # phi_k . h = sum c_uv u over the legs c_uv u (x) e_k of Delta(h): the
    # slice of Delta(h) at second leg k
    cols = [la.tslices(dh, H.dim)[1] for dh in H.delta]
    act = [[col.get(k, {}) for col in cols] for k in range(H.dim)]
    return make_module_algebra(wha.dual(H), H.alg, act)


def adjoint_action(H):
    """H acting on the centralizer of Hs by h . a = h1 a S(h2)."""
    cen = ag.centralizer(H.alg, H.counital.Hs.basis)
    A_alg, inject, express = ag.subalgebra(H.alg, cen, "C_H(Hs)")
    d = H.dim
    act = []
    for h in range(d):
        rows = []
        for a in range(A_alg.dim):
            aa = inject({a: 1})
            out = la.legsum(H.delta[h], d, lambda u, v: H.alg.mulm(
                {u: 1}, aa, H.s[v]), H.p)
            rows.append(express(out))
        act.append(rows)
    return make_module_algebra(H, A_alg, act)


# ---------------------------------------------------------------------------
# smash products

@dataclass(frozen=True)
class Smash:
    quotient: la.Quotient
    alg: ag.Algebra
    include_A: tuple  # sparse rows A -> smash coords
    checks: CheckList


def smash(M):
    """The smash product A # H on A (x)_{Ht} H.

    The relations r = (a . z) (x) h - a (x) (z h), a . z = a (z . 1) and z
    in the basis of Ht, span R; (a # h)(b # g) = a (h1 . b) # h2 g on
    representatives is well defined on the quotient, R R included, when
    r y = 0 and y r lies in R for y = b (x) g.  Both follow from premises
    decided here on full bases, (i) Delta(z h) = (z (x) 1) Delta(h),
    (i') Delta(h z) = Delta(h)(z (x) 1), (ii) z . c = (z . 1) c and
    (iv) eps_t(h1) h2 = h, from the laws (iii) h . 1 = eps_t(h) . 1
    (unit_axiom), module_associative and measuring of M.checks, and from
    coassociativity, which make_weakhopf requires [BNS; Nikshych 2000].
    Left: r y = a (z.1)(h1 . b) (x) h2 g - a ((zh)1 . b) (x) (zh)2 g = 0,
    as (i), module_associative and (ii) give a (z . (h1 . b)) (x) h2 g and
    then the first term for the second.
    Right: y r = b (g1 . (a (z.1))) (x) g2 h - b (g1 . a) (x) g2 z h.  By
    measuring, module_associative and (iii) the first term is
    b (g1 . a)(eps_t(g2 z) . 1) (x) g3 h = b (g1 . a) (x) eps_t(g2 z) g3 h
    modulo R, eps_t(g2 z) lying in Ht; (i') and coassociativity give
    g1 (x) (g2 z)1 (x) (g2 z)2 = g1 (x) g2 z (x) g3, so by (iv) it is the
    second term.  A failure fails `well_defined`, its witness the premise
    and tuple, "(ii, 2, 5)" for z 2 and c 5, or the law and its witness;
    the table, read off Delta, M.act and the tables of A and H, is built
    all the same, for make_algebra to decide.
    """
    H, A = M.H, M.A
    p = A.p
    dH, dA = H.dim, A.dim
    amb = dA * dH
    cl = CheckList()

    one_a = A.unit_sparse()
    zt_acts = [(z, M.apply(z, one_a)) for z in H.counital.Ht.basis]

    # the stated right action a . z = a (z . 1) agrees with S^-1(z) . a
    with cl.holds("right_Ht_action", "a . z = a (z . 1) = S^-1(z) . a") as law:
        for zi, (z, z1) in law.over(enumerate(zt_acts)):
            for a in law.over(range(dA)):
                lhs = A.mul({a: 1}, z1)
                rhs = M.apply(ag.apply_map(H.s_inv, z, p), {a: 1})
                law.check((zi, a), lhs, rhs)

    rel_vecs = []
    for z, z1 in zt_acts:
        zh = [H.alg.mul(z, {h: 1}) for h in range(dH)]
        for a in range(dA):
            az = A.mul({a: 1}, z1)
            rel_vecs.extend(filter(None, (sadd_into(
                la.tensor_sparse(az, {h: 1}, dH, p), la.tensor_sparse(
                    {a: 1}, zh[h], dH, p), -1, p) for h in range(dH))))
    q = la.quotient(la.Subspace.from_vectors(amb, rel_vecs, p))

    # (a # h)(b # g) = sum c_uv e_a (e_u . e_b) # e_v e_g over the legs
    # (u, v, c_uv) of Delta(e_h); e_a w is read off row a of A's table
    legs = [[divmod(uv, dH) + (c,) for uv, c in row.items()]
            for row in H.delta]
    acts = M.act
    atab, htab = A.table, H.alg.table

    def mul_amb(x, y):
        out = {}
        for ah, c in x.items():
            a, h = divmod(ah, dH)
            ta = atab[a]
            for bg, e in y.items():
                b, g = divmod(bg, dH)
                ce = c * e
                for u, v, cuv in legs[h]:
                    right = htab[v][g]
                    if not right:
                        continue
                    cc = ce * cuv
                    for m, l in ag.cell_sum(ta, acts[u][b], p).items():
                        base, lc = m * dH, cc * l
                        for n, r in right:
                            t = lc * r
                            o = out.get(base + n)
                            out[base + n] = t if o is None else o + t
        return la.residues(out, p)

    cl.add("well_defined", "(a#h)(b#g) respects the Ht-balancing",
           (wd := _balancing_failure(M)) is None, wd)

    n = q.dim
    table = []
    for i in range(n):
        si = q.section({i: 1})
        row = []
        for j in range(n):
            sj = q.section({j: 1})
            row.append(q.project(mul_amb(si, sj)))
        table.append(row)
    one_h = H.alg.unit_sparse()
    unit = q.project_legs([(one_a, one_h)], dH)
    alg = ag.make_algebra(table, la.dense(unit, n), p=p)
    cl.add("associative_unital", "A#H is associative with unit 1#1", True)

    inc_a = tuple(q.project_legs([({a: 1}, one_h)], dH) for a in range(dA))
    return Smash(q, alg, inc_a, cl)


def _balancing_failure(M):
    """The first failing case of a premise of `smash`, as the witness
    "(premise, index, ...)", or the first failing law of M, or None."""
    H, A, p = M.H, M.A, M.A.p
    Ha, dH, est = H.alg, H.dim, H.eps_rows[0]

    def cases():  # (where, lhs, rhs), in the order of the witness
        for zi, z in enumerate(H.counital.Ht.basis):
            # the legs c e_u (x) e_v of Delta(h) times z: zh[u] (x) c e_v
            for name, zh in (("i", [Ha.mul(z, {h: 1}) for h in range(dH)]),
                             ("i'", [Ha.mul({h: 1}, z) for h in range(dH)])):
                for h, legs in enumerate(H.legs):
                    yield (name, zi, h), H.d(zh[h]), la.termsum(((
                        k * dH + v, x * c) for u, vs in legs.items()
                        for k, x in zh[u].items() for v, c in vs.items()), p)
            z1 = M.apply(z, A.unit_sparse())
            for c in range(A.dim):
                yield ("ii", zi, c), M.apply(z, {c: 1}), A.mul(z1, {c: 1})
        for h, dh in enumerate(H.delta):
            yield ("iv", h), la.legsum(dh, dH, lambda u, v: Ha.mul(
                est[u], {v: 1}), p), {h: 1}

    for where, lhs, rhs in cases():
        if lhs != rhs:
            return "(%s)" % ", ".join(map(str, where))
    if M.checks is None:
        return "the module-algebra laws are not decided"
    return next(("%s %s" % (c.name, c.witness) for c in M.checks.items
                 if c.name in ("module_associative", "measuring", "unit_axiom")
                 and not c.passed), None)


def smash_dual_action(M, sm):
    """H* acting on A # H by phi . (a # h) = a # (phi -> h)."""
    H = M.H
    dH, p = H.dim, H.p
    q = sm.quotient
    # phi_k -> e_h is the slice of Delta(h) at second leg k
    cols = [la.tslices(dh, dH)[1] for dh in H.delta]
    act = []
    for k in range(dH):
        act.append([q.project(la.legsum(
            q.section({i: 1}), dH,
            lambda a, h: la.tensor_sparse({a: 1}, cols[h].get(k, {}), dH, p),
            p)) for i in range(q.dim)])
    return make_module_algebra(wha.dual(H), sm.alg, act)


def duality_dimension_check(M):
    """dim((A#H)#H*) versus dim(End(A#H)_A), plus both center dimensions.

    The endomorphism algebra is computed concretely as the commutant of
    right A-multiplication inside the full matrix algebra on A#H: the
    centralizer of the matrices R_a of right multiplication by a, each with
    entry (i, k), the coordinate of e_k in e_i a, at index i n + k.  The
    canonical map between the two sides is out of scope, only numerically
    checkable consequences are compared.
    """
    from weakhopf.corpus import matrix_algebra
    cl = CheckList()
    sm = smash(M)
    dual_act = smash_dual_action(M, sm)
    cl.extend(dual_act.checks)
    sm2 = smash(dual_act)
    n, p = sm.alg.dim, M.A.p

    mat_alg = matrix_algebra(n, p)
    rmuls = [{i * n + k: c for i, r in enumerate(sm.alg.rmul_rows(x))
              for k, c in r.items()} for x in sm.include_A]
    commutant = ag.centralizer(mat_alg, rmuls)
    end_dim = commutant.dim
    cl.add("duality_dimension", "dim((A#H)#H*) = dim(End(A#H)_A)",
           sm2.alg.dim == end_dim,
           witness="%d vs %d" % (sm2.alg.dim, end_dim))

    comm_alg, _, _ = ag.subalgebra(mat_alg, commutant, "End(A#H)_A")
    z_end, z_smash = (ag.centralizer(alg, [{g: 1} for g in alg.generators]
                                     ).dim for alg in (comm_alg, sm2.alg))
    cl.add("duality_centers", "dim Z((A#H)#H*) = dim Z(End(A#H)_A)",
           z_smash == z_end, witness="%d vs %d" % (z_smash, z_end))
    return cl, sm, sm2
