import dataclasses
from fractions import Fraction as F

import pytest

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


def test_axioms_pass_on_corpus():
    for name, G in gp.corpus().items():
        rep = wha.verify_axioms(gp.groupoid_algebra(G))
        assert rep.ok, (name, [c.name for c in rep.failures()])


def test_hopf_case_delta_one():
    H = z2()
    one2 = la.tensor_sparse(H.alg.unit_sparse(), H.alg.unit_sparse(), H.dim)
    assert dict(H.delta_one) == one2
    assert wha.is_hopf(H)


def test_pair_groupoid_not_hopf():
    assert not wha.is_hopf(pair2())


def test_counital_maps_of_pair_groupoid():
    # eps_t(g) = identity at the target object
    H = pair2()
    cd = wha.counital(H)
    assert cd.checks.ok
    assert cd.Ht.dim == 2 and cd.Hs.dim == 2
    # g01: X1 -> X0 projects to id_X0 under eps_t (basis order g00 g01 g10 g11)
    assert H.et({1: F(1)}) == {0: F(1)}
    assert ag.apply_map(H.eps_rows[1], {1: F(1)}) == {3: F(1)}


def test_counital_idempotent_matrices():
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        cd = wha.counital(H)
        assert ag.compose_maps(cd.eps_t, cd.eps_t) == cd.eps_t, name
        assert ag.compose_maps(cd.eps_s, cd.eps_s) == cd.eps_s, name


def _mutate_antipode_id(H):
    ident = [{h: F(1)} for h in range(H.dim)]
    return wha.WeakHopf(H.alg, H.delta, H.eps, ag.map_rows(ident))


def _mutate_antipode_soft(H):
    # S'(g01) = g10 + g01 satisfies both counital antipode axioms but not
    # the sandwich axiom (basis order g00 g01 g10 g11)
    rows = [dict(r) for r in H.s]
    rows[1][1] = rows[1].get(1, F(0)) + F(1)
    return wha.WeakHopf(H.alg, H.delta, H.eps, ag.map_rows(rows))


def test_identity_antipode_fails_sandwich():
    rep = wha.verify_axioms(_mutate_antipode_id(pair2()))
    assert not rep.get("antipode_sandwich").passed
    # everything not involving the antipode still passes
    for name in ("coassociativity", "counit_left", "counit_right",
                 "delta_multiplicative", "eps_weak_multiplicative",
                 "delta_one"):
        assert rep.get(name).passed, name


def test_soft_mutation_fails_exactly_the_sandwich_axiom():
    rep = wha.verify_axioms(_mutate_antipode_soft(pair2()))
    for name in ("coassociativity", "counit_left", "counit_right",
                 "delta_multiplicative", "eps_weak_multiplicative",
                 "delta_one", "antipode_target", "antipode_source"):
        assert rep.get(name).passed, name
    assert not rep.get("antipode_sandwich").passed


def test_delta_one_rejects_a_bad_unit_coproduct():
    # k^2 (orthogonal idempotents e0, e1, unit e0 + e1) with the coalgebra
    # of k[x]/x^2: Delta(e0) = e0 (x) e0, Delta(e1) = e0 (x) e1 + e1 (x) e0
    one = F(1)
    alg = ag.make_algebra([[{0: 1}, {}], [{}, {1: 1}]], [1, 1])
    H = wha.make_weakhopf(alg, [{0: one}, {1: one, 2: one}], [1, 0],
                          [{0: one}, {1: one}])
    # by hand, (Delta (x) id)Delta(1) = e000 + e001 + e010 + e100, while
    # (Delta(1) (x) 1)(1 (x) Delta(1)) also carries e101
    assert ag.apply_tensor(H.delta, None, dict(H.delta_one), 2, 2) == {
        0: one, 1: one, 2: one, 4: one}
    rep = wha.verify_axioms(H)
    for name in ("coassociativity", "counit_left", "counit_right"):
        assert rep.get(name).passed, name
    assert not rep.get("delta_one").passed
    assert rep.get("delta_one").witness == "(1, 0, 1)"  # e101, as (u, m, y)


def test_dual_of_z2_is_z2_shaped():
    H = z2()
    Hd = wha.dual(H)
    # functions on Z2 with pointwise product; change of basis to the
    # character basis gives back the group algebra structure constants
    assert Hd.alg.mul({0: F(1)}, {0: F(1)}) == {0: F(1)}
    assert Hd.alg.mul({0: F(1)}, {1: F(1)}) == {}
    # explicit comparison: kZ2 in the character basis {1, chi}
    p0, p1 = {0: F(1)}, {1: F(1)}
    e = la.sadd_into(dict(p0), p1, F(1))
    chi = la.sadd_into(dict(p0), p1, F(-1))
    prod = Hd.alg.mul(chi, chi)
    assert prod == e


def test_dual_is_involution_on_corpus():
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        for X in (H, gp.groupoid_dual(G, H)):
            Xdd = wha.dual(wha.dual(X))
            assert (Xdd.alg.table, Xdd.delta, Xdd.eps, Xdd.s) == \
                (X.alg.table, X.delta, X.eps, X.s), name


def test_involution_witness_names_the_first_differing_matrix():
    H = pair2()
    Hd = wha.dual(H)
    assert wha.involution_witness(H, Hd) is None

    def bump(row, k):
        return {**row, k: row.get(k, 0) + 1}

    # an entry of the dual's Delta at e_0 (x) e_1 is one of the product
    # e_0* e_1* of its transpose, an entry of a product cell one of the
    # transposed Delta, the dual's unit is the transposed counit and the
    # dual's counit is H's unit
    table = [list(row) for row in Hd.alg.table]
    table[0][0] = la.svec(bump(dict(table[0][0]), 3))
    unit = list(Hd.alg.unit)
    unit[1] += 1
    eps = list(Hd.eps)
    eps[2] += 1
    faults = {
        "table basis (0, 1)": dataclasses.replace(
            Hd, delta=(bump(Hd.delta[0], 1),) + Hd.delta[1:]),
        "delta basis 3": dataclasses.replace(Hd, alg=dataclasses.replace(
            Hd.alg, table=tuple(map(tuple, table)))),
        "eps basis 1": dataclasses.replace(Hd, alg=dataclasses.replace(
            Hd.alg, unit=tuple(unit))),
        "unit basis 2": dataclasses.replace(Hd, eps=tuple(eps)),
    }
    for witness, X in faults.items():
        assert wha.involution_witness(H, X) == witness


def test_integrals_are_ideals():
    # with the function-order product the left-integral space is an ideal
    # on the right and the right-integral space on the left (the mirror of
    # the opposite composition order)
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        ints = wha.integrals(H)
        assert wha.maschke_consistent(H, ints), name
        for r in ints.left.basis:
            for h in range(H.dim):
                img = H.alg.mul(dict(r), {h: 1})
                assert ints.left.contains(img), name
        for r in ints.right.basis:
            for h in range(H.dim):
                img = H.alg.mul({h: 1}, dict(r))
                assert ints.right.contains(img), name


def test_normalized_integral_exists_on_corpus():
    for name, G in gp.corpus().items():
        ints = wha.integrals(gp.groupoid_algebra(G))
        assert ints.normalized_left is not None, name


def test_is_hopf_equivalences_never_disagree():
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        wha.is_hopf(H)  # raises EquivalenceViolation on disagreement
        wha.is_hopf(gp.groupoid_dual(G, H))


def test_verify_axioms_over_prime_field():
    H = gp.groupoid_algebra(gp.pair(2), p=3)
    assert wha.verify_axioms(H).ok
    assert wha.counital(H).checks.ok
    # eps(2 g00 + 2 g11) = 4, returned as the residue 1 of F_3
    assert H.e({0: 2, 3: 2}) == 1



@pytest.mark.parametrize("p", [None, 13])
def test_s_inv_inverts_the_antipode(p):
    # a groupoid algebra, where S^-1 = S, and the derived B of q_in_q2 read
    # back over the field, where S^2(b) = g b g^-1
    derived = tw.derive(tw.build_tower(corpus.ext_q_q2(), 2))[2]["derived"]
    spec = sf.specfile_for(derived.B, "B")
    for H in (gp.groupoid_algebra(gp.pair(2), p),
              sf.build(sf.SpecFile(spec.kind, "B", p, spec.payload))):
        ident = tuple({i: 1} for i in range(H.dim))
        assert ag.compose_maps(H.s, H.s_inv, p) == ident
        assert ag.compose_maps(H.s_inv, H.s, p) == ident
        assert H.s_inv is H.s_inv


@pytest.mark.parametrize("p", [None, 13, 65521])
def test_eps_products_match_direct_products(p):
    # kG and (kG)* of every corpus groupoid, and the derived A and B of
    # q_in_q2 read back over the field, whose counits carry quarters: over
    # F_65521 they are residues near p, so a missed reduction would show
    Hs = {}
    for name, G in gp.corpus().items():
        Hs[name] = gp.groupoid_algebra(G, p)
        Hs[name + "*"] = gp.groupoid_dual(G, Hs[name])
    derived = tw.derive(tw.build_tower(corpus.ext_q_q2(), 2))[2]["derived"]
    for name in ("A", "B"):
        spec = sf.specfile_for(getattr(derived, name), name)
        Hs[name] = sf.build(sf.SpecFile(spec.kind, name, p, spec.payload))
    for name, H in Hs.items():
        assert H.p == p
        want = [[H.e(H.alg.mul({i: 1}, {j: 1})) for j in range(H.dim)]
                for i in range(H.dim)]
        assert [list(row) for row in H.eps_products] == want, name
