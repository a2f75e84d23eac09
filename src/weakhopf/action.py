"""Module algebras, their invariants, smash products.

Actions are stored as act[h] = sparse rows of the operator "e_h . (-)" on
the module algebra.  Every constructed action is pushed through the module
algebra axioms on full basis tuples; smash products verify well-definedness
of the representative-level product against a spanning set of relation
witnesses before trusting it.  Sums over the legs of Delta(e_h), as in
h . a = h1 a S(h2), go through `linalg.legsum`, and a pairing with one leg
reads a slice from `linalg.tslices`; the smash product's kernel keeps its
own decoded legs of Delta, built once per smash product, and the measuring
law keeps, per (h, a), the legs of Delta(e_h) whose first leg acts nonzero
on e_a, so that no b sums a leg that is zero by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from weakhopf import algebra as ag
from weakhopf import linalg as la
from weakhopf import wha
from weakhopf.checks import CheckList
from weakhopf.linalg import sadd_into


class WellDefinednessFailure(ValueError):
    """The smash product does not respect the balancing relations."""


@dataclass(frozen=True)
class ModuleAlgebra:
    H: wha.WeakHopf
    A: ag.Algebra
    act: tuple  # act[h]: sparse rows A -> A

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

    act[h][a] is the image of e_a under e_h, as a sparse dict.  Returns
    (ModuleAlgebra, CheckList).
    """
    act = tuple(ag.map_rows(rows, A.p) for rows in act)
    M = ModuleAlgebra(H, A, act)
    cl = verify_module_algebra(M)
    return M, cl


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
            firsts = la.tslices(H.delta[h], dH)[0]  # u -> {v: c_uv}
            for a in law.over(range(dA)):
                # the legs c_uv e_u (x) e_v of Delta(e_h) with e_u . e_a
                # nonzero: only they add to (h1 . a)(h2 . b) for any b
                live = [(acts[u][a], c, acts[v]) for u, vs in firsts.items()
                        if acts[u][a] for v, c in vs.items()]
                for b in law.over(range(dA)):
                    lhs = ag.apply_map(M.act[h], dict(A.table[a][b]), p)
                    rhs = {}
                    for ua, c, av in live:
                        if av[b]:
                            sadd_into(rhs, A.mul(ua, av[b]), c, p)
                    law.check((h, a, b), lhs, rhs)

    one_a = A.unit_sparse()
    est = H.eps_rows[0]
    with cl.holds("unit_axiom", "h . 1 = eps_t(h) . 1") as law:
        for h in law.over(range(dH)):
            lhs = ag.apply_map(acts[h], one_a, p)
            rhs = M.apply(est[h], one_a)
            law.check((h,), lhs, rhs)
    return cl


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
    cen = ag.centralizer(H.alg, H.counital.Hs)
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
    module: ModuleAlgebra
    quotient: la.Quotient
    alg: ag.Algebra
    include_A: tuple  # sparse rows A -> smash coords
    checks: CheckList


def smash(M):
    """The smash product A # H on A (x)_{Ht} H.

    Balancing relations: (a . z) (x) h - a (x) (z h) with a . z = a (z . 1);
    the product (a # h)(b # g) = a (h1 . b) # h2 g is computed on
    representatives and verified well-defined on a spanning set of relation
    witnesses, then associativity and the unit law are re-verified on the
    quotient basis by construction of the quotient algebra.

    The product reads tables built once per call: the legs of Delta(e_h)
    from H.delta, e_u . e_b from M.act, and e_a w and e_v e_g from the
    product tables of A and H.  Every relation witness is still multiplied
    with every section column on both sides, and every pair of section
    columns is multiplied for the table.
    """
    H, A = M.H, M.A
    p = A.p
    dH, dA = H.dim, A.dim
    amb = dA * dH
    cl = CheckList()

    one_a = A.unit_sparse()
    zt_acts = []
    for z in H.counital.Ht.basis:
        z_dot_one = M.apply(z, one_a)
        zt_acts.append((z, z_dot_one))

    # the stated right action a . z = a (z . 1) agrees with S^-1(z) . a
    with cl.holds("right_Ht_action", "a . z = a (z . 1) = S^-1(z) . a") as law:
        for zi, (z, z1) in law.over(enumerate(zt_acts)):
            for a in law.over(range(dA)):
                lhs = A.mul({a: 1}, z1)
                rhs = M.apply(ag.apply_map(H.s_inv, z, p), {a: 1})
                law.check((zi, a), lhs, rhs)

    rel_vecs = []
    for z, z1 in zt_acts:
        for a in range(dA):
            az = A.mul({a: 1}, z1)
            for h in range(dH):
                vec = la.tensor_sparse(az, {h: 1}, dH, p)
                zh = H.alg.mul(z, {h: 1})
                sadd_into(vec, la.tensor_sparse({a: 1}, zh, dH, p), -1, p)
                if vec:
                    rel_vecs.append(vec)
    relations = la.Subspace.from_vectors(amb, rel_vecs, p)
    q = la.quotient(amb, relations)

    # (a # h)(b # g) = sum c_uv e_a (e_u . e_b) # e_v e_g over the legs
    # (u, v, c_uv) of Delta(e_h); lmul[a], the table row of e_a as sparse
    # rows, is the map w -> e_a w
    legs = [[divmod(uv, dH) + (c,) for uv, c in row.items()]
            for row in H.delta]
    acts = M.act
    lmul = [[dict(cell) for cell in row] for row in A.table]
    htab = H.alg.table

    def mul_amb(x, y):
        out = {}
        for ah, c in x.items():
            a, h = divmod(ah, dH)
            ta = lmul[a]
            for bg, e in y.items():
                b, g = divmod(bg, dH)
                ce = c * e
                for u, v, cuv in legs[h]:
                    right = htab[v][g]
                    if not right:
                        continue
                    cc = ce * cuv
                    for m, l in ag.apply_map(ta, acts[u][b], p).items():
                        base, lc = m * dH, cc * l
                        for n, r in right:
                            t = lc * r
                            o = out.get(base + n)
                            out[base + n] = t if o is None else o + t
        return la.residues(out, p)

    # well-definedness against the relation witnesses
    for r in relations.basis:
        for c in q.section_cols:
            if q.project(mul_amb(r, {c: 1})):
                raise WellDefinednessFailure(
                    "left product of a relation witness is nonzero")
            if q.project(mul_amb({c: 1}, r)):
                raise WellDefinednessFailure(
                    "right product of a relation witness is nonzero")
    cl.add("well_defined", "(a#h)(b#g) respects the Ht-balancing", True)

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
    return Smash(M, q, alg, inc_a, cl)


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
    dual_act, dual_cl = smash_dual_action(M, sm)
    cl.extend(dual_cl)
    sm2 = smash(dual_act)
    n, p = sm.alg.dim, M.A.p

    mat_alg = matrix_algebra(n, p)
    rmuls = la.Subspace.from_vectors(n * n, [
        {i * n + k: c for i, r in enumerate(sm.alg.rmul_rows(x))
         for k, c in r.items()} for x in sm.include_A], p)
    commutant = ag.centralizer(mat_alg, rmuls)
    end_dim = commutant.dim
    cl.add("duality_dimension", "dim((A#H)#H*) = dim(End(A#H)_A)",
           sm2.alg.dim == end_dim,
           witness="%d vs %d" % (sm2.alg.dim, end_dim))

    comm_alg, _, _ = ag.subalgebra(mat_alg, commutant, "End(A#H)_A")
    z_end = ag.centralizer(comm_alg, la.Subspace.full(comm_alg.dim, p)).dim
    z_smash = ag.centralizer(sm2.alg, la.Subspace.full(sm2.alg.dim, p)).dim
    cl.add("duality_centers", "dim Z((A#H)#H*) = dim Z(End(A#H)_A)",
           z_smash == z_end, witness="%d vs %d" % (z_smash, z_end))
    return cl, sm, sm2
