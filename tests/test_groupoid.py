from fractions import Fraction as F

import pytest

from weakhopf import groupoid as gp
from weakhopf import wha


def test_corpus_shapes():
    c = gp.corpus()
    assert len(c["trivial"].morphisms) == 1
    assert len(c["z2"].morphisms) == 2
    assert len(c["z3"].morphisms) == 3
    assert len(c["pair2"].morphisms) == 4
    assert len(c["pair3"].morphisms) == 9
    assert len(c["z2_plus_pair2"].morphisms) == 6
    assert len(c["z2_plus_pair2"].objects) == 3


def test_category_axioms_enforced():
    # a broken composition table is rejected
    with pytest.raises(ValueError):
        gp.Groupoid(["*"], ["e", "g"], {"e": "*", "g": "*"},
                    {"e": "*", "g": "*"},
                    {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                     ("g", "g"): "g"})  # g lacks an inverse


def test_trivial_gives_ground_field():
    H = gp.groupoid_algebra(gp.trivial())
    assert H.dim == 1
    assert wha.is_hopf(H)


def test_z2_is_ordinary_hopf():
    H = gp.groupoid_algebra(gp.cyclic(2))
    assert wha.is_hopf(H)
    assert wha.verify_axioms(H).ok


def test_pair2_weak_hopf_dims():
    G = gp.pair(2)
    H = gp.groupoid_algebra(G)
    assert H.dim == 4
    cd = wha.counital(H)
    assert cd.Ht.dim == 2


def test_dual_matches_formula_corpus():
    for name, G in gp.corpus().items():
        # raises if formula and transpose differ
        Hd = gp.groupoid_dual(G, gp.groupoid_algebra(G))
        assert wha.verify_axioms(Hd).ok, name


def test_dual_disagreeing_with_the_transpose_names_the_basis():
    G = gp.pair(2)
    H = gp.groupoid_algebra(G)
    # the explicit dual's S now sends p_g01 to itself, so the transpose of
    # its S differs from kG's S in row 1 (g01 -> g10) and the dual is
    # refused before its axioms are run
    G.inverse["g01"] = "g01"
    with pytest.raises(AssertionError, match="transpose dual at s basis 1$"):
        gp.groupoid_dual(G, H)


def test_dual_idempotent_basis():
    Hd = gp.groupoid_dual(gp.pair(2), gp.groupoid_algebra(gp.pair(2)))
    for g in range(4):
        assert Hd.alg.mul({g: F(1)}, {g: F(1)}) == {g: F(1)}
        for h in range(4):
            if h != g:
                assert Hd.alg.mul({g: F(1)}, {h: F(1)}) == {}


def integral_spans(G):
    H = gp.groupoid_algebra(G)
    return gp.groupoid_integrals(G, H, gp.groupoid_dual(G, H))


def test_integral_spans_corpus():
    for name, G in gp.corpus().items():
        ls, rs = integral_spans(G)
        assert len(ls) == len(G.objects) == len(rs), name


def test_z2_integral_is_group_sum():
    ls, rs = integral_spans(gp.cyclic(2))
    assert ls == [{0: F(1), 1: F(1)}]
    assert rs == [{0: F(1), 1: F(1)}]


def test_pair2_integrals_sum_two_morphisms():
    ls, rs = integral_spans(gp.pair(2))
    assert all(len(l) == 2 for l in ls)
    assert all(len(r) == 2 for r in rs)


def test_integral_dimension_counts_objects():
    for name, G in gp.corpus().items():
        ints = wha.integrals(gp.groupoid_algebra(G))
        assert ints.left.dim == len(G.objects), name
        assert ints.right.dim == len(G.objects), name
