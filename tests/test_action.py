import copy
import hashlib
import itertools
from fractions import Fraction as F

import pytest

from weakhopf import action as ac
from weakhopf import algebra as ag
from weakhopf import corpus
from weakhopf import groupoid as gp
from weakhopf import linalg as la
from weakhopf import specfile as sf
from weakhopf import tower as tw
from weakhopf import wha


def z2():
    return gp.groupoid_algebra(gp.cyclic(2))


def pair2():
    return gp.groupoid_algebra(gp.pair(2))


def scalar_module(H):
    """The ground field as an H-module algebra (Hopf case only)."""
    one = corpus.field_algebra()
    act = [[{0: H.e({h: 1})}] for h in range(H.dim)]
    return ac.make_module_algebra(H, one, act)


def test_canonical_actions_pass():
    for H in (z2(), pair2()):
        for build in (ac.trivial_action, ac.standard_action,
                      ac.adjoint_action):
            M, cl = build(H)
            assert cl.ok, (build.__name__, [c.name for c in cl.failures()])


def test_standard_action_invariants_are_scalars():
    M, _ = ac.standard_action(z2())
    inv = ac.invariants(M)
    assert inv.dim == 1
    assert inv.contains(M.A.unit_sparse())


def test_adjoint_invariants_commutative_case():
    # kZ2 is commutative: the adjoint action is trivial and fixes everything
    M, _ = ac.adjoint_action(z2())
    assert ac.invariants(M).dim == M.A.dim


def test_invariants_name_the_unit_or_the_pair_that_leaves_them():
    # kZ2 (basis e, g) acting with e as the identity; eps_t(h) = eps(h) 1,
    # so the invariants are the vectors that g fixes
    H = z2()

    def module(A, g_rows):
        ident = tuple({a: 1} for a in range(A.dim))
        return ac.ModuleAlgebra(H, A, (ident, g_rows))

    # on k^2, g fixing e0 and killing e1 leaves k e0, without the unit
    k2 = ag.make_algebra([[{0: 1}, {}], [{}, {1: 1}]], [1, 1])
    with pytest.raises(ag.NotClosed) as exc:
        ac.invariants(module(k2, ({0: 1}, {})))
    assert str(exc.value) == "invariants: the unit leaves the subspace"
    # on k^3, g = id + phi(-) e0 with phi(x) = x0 - 2 x1 + x2 fixes the
    # span of (1, 0, -1) and (0, 1, 2), which holds the unit (1, 1, 1) but
    # not (1, 0, -1)^2 = (1, 0, 1)
    k3 = ag.make_algebra([[{0: 1}, {}, {}], [{}, {1: 1}, {}],
                          [{}, {}, {2: 1}]], [1, 1, 1])
    with pytest.raises(ag.NotClosed) as exc:
        ac.invariants(module(k3, ({0: 2}, {0: -2, 1: 1}, {0: 1, 2: 1})))
    assert str(exc.value) == ("invariants: the product of basis pair "
                              "(0, 0) leaves the subspace")


def test_smash_with_scalars_is_H():
    H = z2()
    M, cl = scalar_module(H)
    assert cl.ok
    sm = ac.smash(M)
    assert sm.alg.dim == H.dim


def test_smash_no_collapse_in_hopf_case():
    # Ht = k1 for a Hopf algebra: dim(A # H) = dim A * dim H
    H = z2()
    Ma, _ = ac.adjoint_action(H)  # A = kZ2 itself
    sm = ac.smash(Ma)
    assert sm.alg.dim == Ma.A.dim * H.dim


def test_smash_collapse_over_Ht():
    M, _ = ac.trivial_action(pair2())
    sm = ac.smash(M)
    # A = Ht (dim 2), H dim 4, balancing over Ht (dim 2) leaves dim 4
    assert sm.alg.dim == 4
    assert sm.checks.ok


def test_smash_unit_law():
    M, _ = ac.trivial_action(pair2())
    sm = ac.smash(M)
    one = sm.alg.unit_sparse()
    for i in range(sm.alg.dim):
        b = {i: 1}
        assert sm.alg.mul(one, b) == b == sm.alg.mul(b, one)


def test_smash_dual_action_passes():
    H = z2()
    M, _ = scalar_module(H)
    sm = ac.smash(M)
    MD, cl = ac.smash_dual_action(M, sm)
    assert cl.ok


def test_duality_dimensions_scalar_z2():
    M, _ = scalar_module(z2())
    cl, sm1, sm2 = ac.duality_dimension_check(M)
    assert cl.ok, [(c.name, c.witness) for c in cl.failures()]
    assert sm2.alg.dim == 4  # End of a 2-dim space


def test_duality_dimensions_trivial_pair2():
    M, _ = ac.trivial_action(pair2())
    cl, _, _ = ac.duality_dimension_check(M)
    assert cl.ok, [(c.name, c.witness) for c in cl.failures()]


def test_bad_action_rejected():
    # mangle the standard action so the measuring axiom breaks
    H = z2()
    M, cl = ac.standard_action(H)
    rows = [list(map(dict, r)) for r in M.act]
    rows[1][0] = {0: F(1), 1: F(1)}
    M2 = ac.ModuleAlgebra(H, M.A, tuple(ag.map_rows(r) for r in rows))
    assert not ac.verify_module_algebra(M2).ok


def bumped(build, h, a, k):
    """The pair2 action of `build` with coordinate k of e_h . e_a raised by
    one, bundled without the module-algebra checks."""
    M, _ = build(pair2())
    rows = [list(map(dict, r)) for r in M.act]
    rows[h][a][k] = rows[h][a].get(k, 0) + 1
    return ac.ModuleAlgebra(M.H, M.A, tuple(ag.map_rows(r) for r in rows))


# well_defined on broken actions bundled without the module-algebra
# verdicts: premise (ii) fails on one, and on the other, where every
# premise holds, the verdicts it reads are missing; the table is built
# all the same
@pytest.mark.parametrize("build, entry, witness", [
    (ac.standard_action, (0, 2, 2), "(ii, 0, 2)"),
    (ac.trivial_action, (1, 0, 1), "the module-algebra laws are not decided")],
    ids=["premise", "no_verdicts"])
def test_smash_rejects_a_broken_action(build, entry, witness):
    wd = ac.smash(bumped(build, *entry)).checks.get("well_defined")
    assert (wd.passed, wd.witness) == (False, witness)


def test_smash_reads_the_failed_module_algebra_laws():
    # the second case above with its verdicts: every premise holds and the
    # relation loop finds the product balanced, but module_associative and
    # the unit axiom (iii) fail; the first in M.checks is the witness
    M = bumped(ac.trivial_action, 1, 0, 1)
    M, cl = ac.make_module_algebra(M.H, M.A, M.act)
    assert M.checks is cl
    assert [c.name for c in cl.failures()] == ["module_associative",
                                               "unit_axiom"]
    assert ac.smash(M).checks.get("well_defined").witness == \
        "module_associative (0, 1, 0)"


def test_an_unbalanced_product_reaches_make_algebra():
    # the trivial action bumped at (0, 0, 0), which the relation loop
    # refused on its right side: every premise (i)-(iv) holds but its
    # module-algebra laws fail, and the table, built all the same, has no
    # unit, so make_algebra refuses it (tower --derive reports that)
    M = bumped(ac.trivial_action, 0, 0, 0)
    M, _ = ac.make_module_algebra(M.H, M.A, M.act)
    assert ac._balancing_failure(M) == "module_associative (0, 0, 0)"
    with pytest.raises(ag.BadUnit):
        ac.smash(M)


def test_smash_of_a_broken_action_is_pinned():
    sm = ac.smash(bumped(ac.trivial_action, 1, 0, 1))
    assert sm.alg.dim == 4
    assert hashlib.sha256(repr(sm.alg.table).encode()).hexdigest() == \
        "239558381d956baaf16b227f3b3357feea44c706b9142293c3aeec8a22b5ce7e"


def stored_rows(H):
    """{name: stored data} of a weak Hopf algebra: its tables and rows and
    the structure cached on it."""
    cd = H.counital
    return {"table": (H.alg.table, H.alg.unit), "delta": H.delta,
            "eps": H.eps, "s": H.s, "delta_one": H.delta_one,
            "eps_rows": H.eps_rows, "eps_products": H.eps_products,
            "counital": (cd.Ht.basis, cd.Hs.basis, cd.e_t, cd.e_s)}


@pytest.mark.parametrize("p", [None, 13])
def test_readers_mutate_no_stored_row(p):
    # the laws and builders read stored rows and table cells as they are:
    # one that accumulated into a row would change it under every later
    # reader.  The objects are built (and their caches filled) first; the
    # readers then run on them again, builders included
    G = gp.pair(3)
    H = gp.groupoid_algebra(G, p)
    Hd = gp.groupoid_dual(G, H)
    M, _ = ac.adjoint_action(H)
    rows = {"kG": stored_rows(H), "(kG)*": stored_rows(Hd),
            "action": (M.act, M.A.table)}
    before = copy.deepcopy(rows)
    for X in (H, Hd):
        assert wha.verify_axioms(X).ok
        assert wha.counital(X).checks.ok
        wha.integrals(X)
        wha.dual(X)
        wha.is_hopf(X)
    gp.groupoid_integrals(G, H, gp.groupoid_dual(G, H))
    M2, _ = ac.adjoint_action(H)
    assert ac.smash(M).checks.ok
    assert M2.act == M.act
    assert [name for name in before if before[name] != rows[name]] == []


# ---------------------------------------------------------------------------
# references: the former per-case loops of the smash product's balancing
# and of the measuring law, deciding the same laws another way

def balancing_quotient(M):
    """A (x) H modulo the relations (a . z) (x) h - a (x) (z h) of `smash`,
    a . z = a (z . 1), built here from their definition."""
    H, A, p = M.H, M.A, M.A.p
    d = H.dim
    rels = []
    for z in H.counital.Ht.basis:
        z1 = M.apply(z, A.unit_sparse())
        for a, h in itertools.product(range(A.dim), range(d)):
            r = la.tensor_sparse(A.mul({a: 1}, z1), {h: 1}, d, p)
            rels.append(la.sadd_into(r, la.tensor_sparse(
                {a: 1}, H.alg.mul(z, {h: 1}), d, p), -1, p))
    return la.quotient(A.dim * d, la.Subspace.from_vectors(A.dim * d, rels,
                                                           p))


def relation_loop(M, q):
    """The former well-definedness loop of `smash`, with R R added: each
    RREF relation r times each section column on both sides, then r times
    each relation, projected to q.  The first nonzero class as (side, r,
    column or relation), or None.  (a # h)(b # g) = a (h1 . b) # h2 g is
    summed over the legs of Delta(e_h), once per basis pair."""
    H, A, p = M.H, M.A, M.A.p
    d = H.dim
    cache = {}

    def basis(i, j):
        if (i, j) not in cache:
            (a, h), (b, g) = divmod(i, d), divmod(j, d)
            cache[i, j] = la.legsum(H.delta[h], d, lambda u, v: (
                la.tensor_sparse(A.mul({a: 1}, M.act[u][b]),
                                 H.alg.mul({v: 1}, {g: 1}), d, p)), p)
        return cache[i, j]

    def mul(x, y):
        out = {}
        for (i, c), (j, e) in itertools.product(x.items(), y.items()):
            la.sadd_into(out, basis(i, j), c * e, p)
        return out

    rels = q.relations.basis
    for i, r in enumerate(rels):
        for c in q.section_cols:
            if q.project(mul(r, {c: 1})):
                return "left", i, c
            if q.project(mul({c: 1}, r)):
                return "right", i, c
    for (i, r), (j, r2) in itertools.product(enumerate(rels), repeat=2):
        if q.project(mul(r, r2)):
            return "both", i, j
    return None


def measuring_by_cases(M):
    """The former per-case loop of `measuring`: the witness text of its
    first failing (h, a, b), or None."""
    H, A, p, acts = M.H, M.A, M.A.p, M.act
    for h in range(H.dim):
        firsts = la.tslices(H.delta[h], H.dim)[0]
        for a in range(A.dim):
            live = [(acts[u][a], c, acts[v]) for u, vs in firsts.items()
                    if acts[u][a] for v, c in vs.items()]
            for b in range(A.dim):
                lhs = ag.apply_map(acts[h], dict(A.table[a][b]), p)
                rhs = {}
                for ua, c, av in live:
                    if av[b]:
                        la.sadd_into(rhs, A.mul(ua, av[b]), c, p)
                if lhs != rhs:
                    return "(%d, %d, %d)" % (h, a, b)
    return None


def over_field(cert, p):
    """The certified extension of `cert` rebuilt from its spec over F_p."""
    spec = sf.specfile_for((cert.incl, cert.E, cert.trace), "ext")
    incl, E, trace = sf.build(sf.SpecFile(spec.kind, spec.name, p,
                                          spec.payload))
    return ag.certify_markov(incl, E, ag.find_dual_bases(E), trace)


def z2_in_z4():
    return corpus.group_extension([0, 1, 2, 3], lambda a, b: (a + b) % 4,
                                  0, [0, 2], 13)


def a3_in_s3():
    s3 = sorted(itertools.permutations(range(3)))
    a3 = [g for g in s3 if sum(g[i] > g[j] for i, j in
                               itertools.combinations(range(3), 2)) % 2 == 0]
    return corpus.group_extension(s3, lambda g, h: tuple(g[i] for i in h),
                                  (0, 1, 2), a3, 13)


DERIVATIONS = {"q_in_q2": corpus.ext_q_q2, "q_in_m2": corpus.ext_q_m2,
               "q2_in_m2": corpus.ext_q2_m2,
               "trivial_m2": corpus.ext_trivial_m2, "z2_in_z4": z2_in_z4,
               "a3_in_s3": a3_in_s3}


def derivation_modules(cert, monkeypatch, cop=False):
    """The module algebras of the derivation's two smash products, M1 # B
    and M # A; with cop, B's Delta is replaced by Delta^cop."""
    made, smash, make = [], ac.smash, wha.make_weakhopf

    def bundle(alg, delta, eps, s):
        if not made:  # the first weak Hopf algebra of a derivation is B
            n = alg.dim
            delta = [{ij % n * n + ij // n: c for ij, c in r.items()}
                     for r in delta]
        made.append(None)
        return make(alg, delta, eps, s)

    modules = []
    monkeypatch.setattr(ac, "smash", lambda M: modules.append(M) or smash(M))
    if cop:
        monkeypatch.setattr(wha, "make_weakhopf", bundle)
    tw.derive(tw.build_tower(cert, 2))
    monkeypatch.undo()
    return modules


@pytest.mark.parametrize("name", DERIVATIONS)
def test_the_premises_hold_where_the_relation_loop_does(name, monkeypatch):
    # both smash products of the derivation, over Q for the corpus and
    # F_13 for the groups: the premises and the relation loop, R R
    # included, pass, and each measuring witness equals the per-case one
    for M in derivation_modules(DERIVATIONS[name](), monkeypatch):
        assert ac.smash(M).checks.get("well_defined").passed
        assert relation_loop(M, balancing_quotient(M)) is None
        assert measuring_by_cases(M) is None


def test_the_premises_are_stricter_than_the_relation_loop(monkeypatch):
    # one action coordinate raised by one, in each action of the pair
    # groupoid and of the q_in_q2 derivation (176 mutants): each one the
    # relation loop refuses (118), the premises and verdicts refuse too,
    # and they refuse more (all 176, 140 by a premise (i)-(iv)); the
    # measuring witness is the per-case one, (0, 0, 0) or not
    bases = [build(pair2())[0] for build in
             (ac.trivial_action, ac.standard_action, ac.adjoint_action)]
    bases += derivation_modules(corpus.ext_q_q2(), monkeypatch)
    refused = {"premises": 0, "loop": 0}
    witnesses = set()
    for M0 in bases:
        for h, a, k in itertools.product(range(M0.H.dim), range(M0.A.dim),
                                         range(M0.A.dim)):
            rows = [list(map(dict, r)) for r in M0.act]
            rows[h][a][k] = rows[h][a].get(k, 0) + 1
            M, cl = ac.make_module_algebra(M0.H, M0.A, rows)
            witness = cl.get("measuring").witness
            assert witness == measuring_by_cases(M)
            witnesses.add(witness)
            loop = relation_loop(M, balancing_quotient(M))
            if ac._balancing_failure(M) is None:
                assert loop is None, (h, a, k)
            else:
                refused["premises"] += 1
            refused["loop"] += loop is not None
    assert 0 < refused["loop"] < refused["premises"]
    assert len(witnesses - {None, "(0, 0, 0)"}) > 1


def test_the_premises_refuse_delta_cop_where_the_loop_is_vacuous(
        monkeypatch):
    # B's Delta replaced by Delta^cop on q_in_m2 over F_13: M1 # B has a
    # quotient of dimension 0, so every relation loop passes, while premise
    # (ii) fails; M # A passes both
    MB, MA = derivation_modules(over_field(corpus.ext_q_m2(), 13),
                                monkeypatch, cop=True)
    q = balancing_quotient(MB)
    assert q.dim == 0 and relation_loop(MB, q) is None
    assert ac._balancing_failure(MB) == "(ii, 0, 2)"
    assert measuring_by_cases(MB) == MB.checks.get("measuring").witness \
        == "(0, 0, 0)"
    assert ac._balancing_failure(MA) is None
    assert relation_loop(MA, balancing_quotient(MA)) is None
