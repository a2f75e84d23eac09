"""Every kernel that computes a sparse sum returns it finished: the value of
a dense reference written out here, with no stored zero and, over F_p,
every scalar a residue in [0, p).  The inputs are built to cancel (y is a
difference z - z' of vectors that share keys), so that many coordinates of
the sums vanish."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import action as ac
from weakhopf import algebra as ag
from weakhopf import corpus
from weakhopf import groupoid as gp
from weakhopf import linalg as la
from weakhopf import tower as tw

FIELDS = [None, 13]
Q_SCALARS = [1, -1, 2, -2, F(1, 2), F(-3, 2)]


# M1 of the index-4 extension Q in M2: a tower table of dimension 16 whose
# 64 nonempty cells of 256 each hold one entry 1/2
M1 = tw.build_tower(corpus.ext_q_m2(), 1).levels[0].cert.incl.big


def reduced(alg, p):
    """A rational algebra with p-integral structure constants, mod p."""
    table = [[{k: la.as_scalar(c, p) for k, c in cell} for cell in row]
             for row in alg.table]
    return ag.make_algebra(table, [la.as_scalar(c, p) for c in alg.unit],
                           p=p)


def algebras(p):
    """{name: (algebra, a ModuleAlgebra over kG's dual acting on it or
    None)} for M2, kG of pair(2) and M1 (over F_p, its reduction mod p)."""
    kG = gp.groupoid_algebra(gp.pair(2), p)
    module, _ = ac.standard_action(kG)
    return {"M2": (corpus.matrix_algebra(2, p), None), "kG": (kG.alg, module),
            "M1": (M1 if p is None else reduced(M1, p), None)}


BUILT = {p: algebras(p) for p in FIELDS}


def vectors(n, p):
    """Zero-free sparse vectors on n coordinates, in the stored form."""
    scalars = st.sampled_from(Q_SCALARS) if p is None else \
        st.integers(1, p - 1)
    return st.dictionaries(st.integers(0, n - 1), scalars, max_size=n)


def cancelling(n, p):
    """z - z' for z, z' drawn on the same few coordinates: a zero-free
    vector, often empty."""
    return st.tuples(vectors(n, p), vectors(n, p)).map(
        lambda zz: la.sadd_into(dict(zz[0]), zz[1], -1, p))


def finished(dense, p):
    """The dense reference as a sparse vector: reduced, zeros dropped."""
    if p is not None:
        dense = [c % p for c in dense]
    return {i: c for i, c in enumerate(dense) if c != 0}


def assert_finished(got, want, p):
    assert got == want
    assert 0 not in got.values()
    if p is not None:
        assert all(type(c) is int and 0 <= c < p for c in got.values())


def dense_mul(alg, x, y):
    out = [0] * alg.dim
    for i, a in x.items():
        for j, b in y.items():
            for k, v in alg.table[i][j]:
                out[k] += a * b * v
    return out


def dense_map(rows, x, m):
    out = [0] * m
    for i, c in x.items():
        for j, v in rows[i].items():
            out[j] += c * v
    return out


SETTINGS = settings(max_examples=40, deadline=None)
CASES = [(p, name) for p in FIELDS for name in ("M2", "kG", "M1")]


@pytest.mark.parametrize("p, name", CASES)
@SETTINGS
@given(data=st.data())
def test_products_are_finished(p, name, data):
    alg = BUILT[p][name][0]
    x = data.draw(cancelling(alg.dim, p))
    y = data.draw(cancelling(alg.dim, p))
    assert_finished(alg.mul(x, y), finished(dense_mul(alg, x, y), p), p)
    xy, yx = dense_mul(alg, x, y), dense_mul(alg, y, x)
    assert_finished(alg.commutator(x, y),
                    finished([a - b for a, b in zip(xy, yx)], p), p)
    assert alg.commutator(x, x) == {}


@pytest.mark.parametrize("p, name", CASES)
@SETTINGS
@given(data=st.data())
def test_maps_are_finished(p, name, data):
    alg = BUILT[p][name][0]
    n = alg.dim
    rows = tuple(data.draw(st.lists(cancelling(n, p), min_size=n,
                                    max_size=n)))
    x = data.draw(cancelling(n, p))
    assert_finished(ag.apply_map(rows, x, p), finished(dense_map(rows, x, n),
                                                       p), p)
    # rows[0] and rows[1] cancel on x = e_0 + e_1
    rows = (rows[0], la.sscale(rows[0], -1, p)) + rows[2:]
    assert ag.apply_map(rows, {0: 1, 1: 1}, p) == {}


@pytest.mark.parametrize("p, name", CASES)
@SETTINGS
@given(data=st.data())
def test_tensor_sums_are_finished(p, name, data):
    alg = BUILT[p][name][0]
    n = alg.dim
    nn = n * n
    s = data.draw(cancelling(nn, p))
    t = data.draw(cancelling(nn, p))
    a = data.draw(cancelling(n, p))
    b = data.draw(cancelling(n, p))
    f = tuple(data.draw(st.lists(cancelling(n, p), min_size=n, max_size=n)))

    want = [0] * nn
    for i, x in a.items():
        for j, y in b.items():
            want[i * n + j] += x * y
    assert_finished(la.tensor_sparse(a, b, n, p), finished(want, p), p)

    # (f (x) f), (f (x) id) and (id (x) f) on t
    for g, h in ((f, f), (f, None), (None, f)):
        want = [0] * nn
        for ij, c in t.items():
            i, j = divmod(ij, n)
            for k, u in (g[i] if g else {i: 1}).items():
                for l, v in (h[j] if h else {j: 1}).items():
                    want[k * n + l] += c * u * v
        assert_finished(ag.apply_tensor(g, h, t, n, n, p), finished(want, p),
                        p)

    want = [0] * nn
    for ij, c in s.items():
        i, j = divmod(ij, n)
        for kl, e in t.items():
            k, l = divmod(kl, n)
            for m, u in alg.table[i][k]:
                for m2, v in alg.table[j][l]:
                    want[m * n + m2] += c * e * u * v
    assert_finished(ag.tensor_mul(alg, alg, s, t), finished(want, p), p)

    # the multiplication t -> t1 t2 as a Sweedler sum
    want = [0] * n
    for ij, c in t.items():
        i, j = divmod(ij, n)
        for k, v in alg.table[i][j]:
            want[k] += c * v
    assert_finished(la.legsum(t, n, lambda i, j: dict(alg.table[i][j]), p),
                    finished(want, p), p)


@pytest.mark.parametrize("p", FIELDS)
@SETTINGS
@given(data=st.data())
def test_module_action_is_finished(p, data):
    module = BUILT[p]["kG"][1]
    h = data.draw(cancelling(module.H.dim, p))
    a = data.draw(cancelling(module.A.dim, p))
    want = [0] * module.A.dim
    for hi, hc in h.items():
        for ai, c in a.items():
            for k, v in module.act[hi][ai].items():
                want[k] += hc * c * v
    assert_finished(module.apply(h, a), finished(want, p), p)


def test_residues_drops_zeros_in_both_fields():
    assert la.residues({0: 0, 1: 2}, None) == {1: 2}
    assert la.residues({0: 13, 1: 15, 2: -1}, 13) == {1: 2, 2: 12}
    zero_free = {0: F(1, 2), 3: -1}
    assert la.residues(zero_free, None) is zero_free
