import copy
import hashlib
from fractions import Fraction as F

import pytest

from weakhopf import action as ac
from weakhopf import algebra as ag
from weakhopf import corpus
from weakhopf import groupoid as gp
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


# smash outcomes on broken actions, recorded before the smash product read
# its basis tables: one failure in each relation-witness branch, and a
# product that still balances (sha256 of the repr of its table)
@pytest.mark.parametrize("build, entry, side", [
    (ac.trivial_action, (0, 0, 0), "right"),
    (ac.standard_action, (0, 2, 2), "left")])
def test_smash_rejects_a_broken_action(build, entry, side):
    with pytest.raises(ac.WellDefinednessFailure) as exc:
        ac.smash(bumped(build, *entry))
    assert str(exc.value) == \
        "%s product of a relation witness is nonzero" % side


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
