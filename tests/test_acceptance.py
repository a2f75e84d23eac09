"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line (run pytest with -s to see them);
time budgets are asserted alongside the exact identities.
"""

import itertools
import time
from fractions import Fraction as F

import pytest

from weakhopf import action as ac
from weakhopf import algebra as ag
from weakhopf import composite as cp
from weakhopf import corpus
from weakhopf import groupoid as gp
from weakhopf import linalg as la
from weakhopf import tower as tw
from weakhopf import wha


def _line(name, ok, extra=""):
    print("ACCEPT %s: %s%s" % ("PASS" if ok else "FAIL", name,
                               " (%s)" % extra if extra else ""))
    assert ok, name


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for name, cert in corpus.standing_extensions().items():
        t = tw.build_tower(cert, 2)
        out[name] = (t,) + tw.derive(t)
    return out


def test_axiom_suite_groupoid_corpus():
    worst = 0.0
    for name, G in gp.corpus().items():
        t0 = time.time()
        H = gp.groupoid_algebra(G)
        assert wha.verify_axioms(H).ok, name
        assert wha.counital(H).checks.ok, name
        Hd = gp.groupoid_dual(G, H)  # asserts formula dual == transpose dual
        assert wha.verify_axioms(Hd).ok, name
        assert wha.counital(Hd).checks.ok, name
        gp.groupoid_integrals(G, H, Hd)  # asserts the integral-space equalities
        worst = max(worst, time.time() - t0)
        assert time.time() - t0 < 1.0, (name, "over one second")
    _line("axiom suite on kG and (kG)* for the whole groupoid corpus", True,
          "worst case %.2fs" % worst)


def test_dual_involution():
    ok = True
    for name, G in gp.corpus().items():
        kG = gp.groupoid_algebra(G)
        for H in (kG, gp.groupoid_dual(G, kG)):
            Hdd = wha.dual(wha.dual(H))
            ok = ok and (Hdd.alg.table, Hdd.delta, Hdd.eps, Hdd.s) == \
                (H.alg.table, H.delta, H.eps, H.s)
    _line("dual(dual(H)) = H as matrices across the corpus", ok)


def test_tower_suite():
    expected_lambda = {"q_in_q2": 2, "q_in_m2": 4, "q2_in_m2": 2}
    for name, cert in corpus.standing_extensions().items():
        t0 = time.time()
        assert cert.lambda_inv == expected_lambda[name], name
        t = tw.build_tower(cert, 2)
        assert t.checks.ok, (name, [c.name for c in t.checks.failures()])
        for lvl in t.levels:
            assert lvl.cert.incl.big.mul(lvl.e, lvl.e) == lvl.e, name
            for law in ("span", "expectation_of_jones", "jones_contraction",
                        "phi_into_V", "phi_bijective",
                        "phi_antimultiplicative", "phi_inverse",
                        "trace_compatibility"):
                assert lvl.checks.get(law).passed, (name, law)
        for law in ("braid_1_2_1", "braid_2_1_2",
                    "pimsner_popa_right_e1", "pimsner_popa_left_e1",
                    "pimsner_popa_right_e2", "pimsner_popa_left_e2"):
            assert t.checks.get(law).passed, (name, law)
        took = time.time() - t0
        assert took < 10.0, (name, took)
    _line("tower suite for the three extensions "
          "(idempotents, braid, Pimsner-Popa, characterization, "
          "anti-isomorphism, trace compatibility)", True)


def test_depth2_derivation(pipelines):
    for name, (t, ctx, lat, res, full) in pipelines.items():
        t0 = time.time()
        dw = res["derived"]
        for c in dw.checks.items:
            assert c.passed, (name, c.name, c.witness)
        assert dw.checks.get("Ht_is_V").passed, name
        assert dw.checks.get("Hs_is_W").passed, name
        assert lat.A.dim == lat.B.dim, name
        assert wha.verify_axioms(dw.B).ok, name
        assert time.time() - t0 < 60.0
    _line("derived (B, Delta, eps, S) passes the axiom engine and every "
          "derivation identity on all towers where depth-2 holds", True)


def test_section4_theorems(pipelines):
    for name, (t, ctx, lat, res, full) in pipelines.items():
        for stage, law in (("action-B", "invariants_are_M"),
                           ("action-A", "invariants_are_N")):
            found = [c for c in full.items if c.name == law]
            assert found and all(c.passed for c in found), (name, law)
        for law in ("dimension", "bijective", "unital", "multiplicative"):
            hits = [c for c in full.items if c.name == law]
            assert len(hits) >= 2 and all(c.passed for c in hits), \
                (name, law)
    _line("invariants of the two actions are M and N, and psi: M1#B -> M2, "
          "phi: M#A -> M1 are unit-preserving bijective algebra "
          "isomorphisms (exhaustive pairs)", True)


def test_group_extensions_have_depth_2_iff_the_subgroup_is_normal():
    # kH in kG over F_13, E(g) = g on H and 0 off it: the normal Z2 in Z4
    # and A3 in S3 derive with every check passing, while Z2 in S3 is
    # certified and builds its tower but has no dual bases of E_M inside A
    s3 = sorted(itertools.permutations(range(3)))

    def perm(g, h):
        return tuple(g[i] for i in h)

    cases = (("Z2 in Z4", [0, 1, 2, 3], lambda a, b: (a + b) % 4, 0, [0, 2],
              True),
             ("A3 in S3", s3, perm, (0, 1, 2),
              [(0, 1, 2), (1, 2, 0), (2, 0, 1)], True),
             ("Z2 in S3", s3, perm, (0, 1, 2), [(0, 1, 2), (1, 0, 2)],
              False))
    for name, elements, compose, unit, sub, normal in cases:
        cert = corpus.group_extension(elements, compose, unit, sub, 13)
        t = tw.build_tower(cert, 2)
        assert cert.checks.ok and t.checks.ok, name
        if normal:
            ok = tw.derive(t)[3].ok
        else:
            with pytest.raises(tw.Depth2Failure, match="E_M within A"):
                tw.derive(t)
            ok = True
        _line("%s over F_13 %s depth 2" % (name, "has" if normal else
                                           "fails"), ok)


def test_degeneration_hopf_case():
    cert = corpus.ext_trivial_m2()
    assert cert.U.dim == 1
    t = tw.build_tower(cert, 2)
    ctx, lat, res, full = tw.derive(t)
    assert full.ok, [c.name for c in full.failures()]
    ok = wha.is_hopf(res["derived"].B)
    _line("trivial-centralizer input degenerates to an ordinary Hopf "
          "algebra (is_hopf true)", ok)


def test_appendix_composite_idempotents():
    t0 = time.time()
    t = tw.build_tower(corpus.ext_q_q2(), 5)
    assert t.alg(5).dim == 64
    lam = F(1, 2)
    for n in range(3):
        data = cp.composite_idempotent(t, n)
        assert data.checks.ok, (n, [c.name for c in data.checks.failures()])
        F_Mn = cp.composite_expectation_down(t, 2 * n + 1, n)
        got = ag.apply_map(F_Mn, data.f_n)
        want = la.sscale(t.alg(n).unit_sparse(), lam ** (n + 1))
        assert got == want, n
    took = time.time() - t0
    assert took < 60.0, took
    _line("f_0, f_1, f_2 on the tower to M5: idempotency, characterizing "
          "identities, span, and F(f_n) = 1/2, 1/4, 1/8", True,
          "%.1fs" % took)


def test_negative_controls():
    with pytest.raises(ag.NotKanzaki):
        ag.kanzaki_element(corpus.matrix_algebra(2, p=2))

    H = gp.groupoid_algebra(gp.pair(2))
    rows = [dict(r) for r in H.s]
    rows[1][1] = rows[1].get(1, F(0)) + F(1)
    mutated = wha.WeakHopf(H.alg, H.delta, H.eps, ag.map_rows(rows))
    rep = wha.verify_axioms(mutated)
    assert not rep.get("antipode_sandwich").passed
    for upstream in ("coassociativity", "counit_left", "counit_right",
                     "delta_multiplicative", "eps_weak_multiplicative",
                     "delta_one", "antipode_target", "antipode_source"):
        assert rep.get(upstream).passed, upstream

    incl, E = corpus.skewed_expectation()
    U = ag.centralizer(incl.big, incl.image)
    sym, witness = ag.is_symmetric(E, U)
    assert not sym and witness is not None
    _line("negative controls: M2(F2) rejected by kanzaki_element; the "
          "mutated antipode fails exactly the sandwich axiom; the skewed "
          "expectation fails symmetry with a witness", True)


def test_duality_dimension_checks(pipelines):
    H = gp.groupoid_algebra(gp.cyclic(2))
    one = corpus.field_algebra()
    act = [[{0: H.e({h: 1})}] for h in range(H.dim)]
    Mk, _ = ac.make_module_algebra(H, one, act)
    cl1, _, sm2 = ac.duality_dimension_check(Mk)
    assert cl1.ok and sm2.alg.dim == 4

    Mt, _ = ac.trivial_action(gp.groupoid_algebra(gp.pair(2)))
    cl2, _, _ = ac.duality_dimension_check(Mt)
    assert cl2.ok

    (t, ctx, lat, res, full) = pipelines["q_in_q2"]
    cl3, _, _ = ac.duality_dimension_check(res["action_B"])
    assert cl3.ok, [(c.name, c.witness) for c in cl3.failures()]
    _line("dim((A#H)#H*) = dim(End(A#H)_A) for three corpus module "
          "algebras including the tower case M1#B", True)
