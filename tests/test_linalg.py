from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakhopf
from weakhopf import linalg as la

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))

# every property test runs over Q and over F_13 (denominators 1..4 are units)
FIELDS = (None, 13)


def in_field(x, p):
    """A rational test scalar read in Q (p=None) or in F_p."""
    return la.parse_scalar(str(x), p)


def field_rows(rows, p):
    return [[in_field(x, p) for x in r] for r in rows]


def mat(rows):
    return la.Mat.from_rows([[F(x) for x in r] for r in rows])


def test_solve_identity():
    a = la.Mat.identity(3)
    b = (F(1), F(2), F(3))
    assert la.solve(a, b) == b


def test_solve_scalar_inverse():
    assert la.solve(mat([[2]]), (F(1),)) == (F(1, 2),)


def test_solve_inconsistent():
    a = mat([[1, 1], [1, 1]])
    with pytest.raises(la.NoSolution):
        la.solve(a, (F(0), F(1)))


def test_solve_dimension_mismatch():
    with pytest.raises(la.DimensionMismatch):
        la.solve(la.Mat.identity(2), (F(1),))


def test_solve_underdetermined_canonical():
    # free variables are pinned to zero
    a = mat([[1, 1, 0]])
    assert la.solve(a, (F(5),)) == (F(5), F(0), F(0))


def test_kernel_zero_matrix_full():
    assert la.kernel(mat([[0, 0], [0, 0]])).dim == 2


def test_kernel_identity_trivial():
    assert la.kernel(la.Mat.identity(4)).dim == 0


def test_quotient_trivial_relations():
    q = la.quotient(3, la.Subspace.zero(3))
    assert q.dim == 3
    assert q.project({1: F(2)}) == {1: F(2)}


def test_quotient_plane_by_line():
    rel = la.Subspace.from_vectors(2, [{0: F(1), 1: F(-1)}])
    q = la.quotient(2, rel)
    assert q.dim == 1
    # the two coordinates agree in the quotient
    assert q.project({0: F(1)}) == q.project({1: F(1)})
    # project o section = id
    assert q.project(q.section({0: F(7)})) == {0: F(7)}


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.lists(rationals, min_size=3, max_size=3))
def test_solve_reapplication(rows, x):
    for p in FIELDS:
        a = la.Mat.from_rows(field_rows(rows, p), p)
        b = a.apply(tuple(in_field(c, p) for c in x))
        got = la.solve(a, b)
        assert a.apply(got) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_matches_solve_per_column(rows):
    for p in FIELDS:
        a = la.Mat.from_rows(field_rows(rows, p), p)
        if a.rank() < 3:
            with pytest.raises(la.NoSolution):
                a.inverse()
            continue
        one, zero = la.scalar_one(p), la.scalar_zero(p)
        cols = [la.solve(a, tuple(one if j == i else zero for j in range(3)))
                for i in range(3)]
        assert a.inverse() == la.Mat.from_rows(list(zip(*cols)), p)
        assert a.mul(a.inverse()) == la.Mat.identity(3, p)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_kernel_annihilates(rows):
    for p in FIELDS:
        a = la.Mat.from_rows(field_rows(rows, p), p)
        ker = la.kernel(a)
        zero = tuple(la.scalar_zero(p) for _ in range(a.rows))
        for v in ker.dense_basis():
            assert a.apply(v) == zero
        assert ker.dim + a.rank() == a.cols


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=0, max_size=3))
def test_quotient_properties(rel_rows):
    for p in FIELDS:
        one = la.scalar_one(p)
        rel = la.Subspace.from_vectors(
            4, [la.sparse(r) for r in field_rows(rel_rows, p)], p)
        q = la.quotient(4, rel)
        assert q.dim == 4 - rel.dim
        # project annihilates exactly the relations
        for r in rel.basis:
            assert q.project(dict(r)) == {}
        # project o section = id on quotient coordinates
        for i in range(q.dim):
            assert q.project(q.section({i: one})) == {i: one}
        assert q.project_matrix().rank() == q.dim


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=0, max_size=4))
def test_echelon_deterministic_and_canonical(rows):
    for p in FIELDS:
        vecs = [la.sparse(r) for r in field_rows(rows, p)]
        s1 = la.Subspace.from_vectors(4, vecs, p)
        s2 = la.Subspace.from_vectors(4, vecs, p)
        assert s1 == s2
        # scaled spanning set gives the identical canonical basis
        s3 = la.Subspace.from_vectors(
            4, [la.sscale(v, in_field(3, p)) for v in vecs], p)
        assert s1 == s3


@pytest.mark.parametrize("p", FIELDS, ids=["Q", "F13"])
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=12, max_size=12),
       st.integers(0, 4))
def test_quotient_from_projection_matches_quotient(p, entries, rank):
    n = 4
    one, zero = la.scalar_one(p), la.scalar_zero(p)
    # T = L U with unit triangular factors is invertible over every field
    it = iter(entries)
    lower = [[one if i == j else in_field(next(it), p) if j < i else zero
              for j in range(n)] for i in range(n)]
    upper = [[one if i == j else in_field(next(it), p) if j > i else zero
              for j in range(n)] for i in range(n)]
    t = la.Mat.from_rows(lower, p).mul(la.Mat.from_rows(upper, p))
    unit = la.Mat.identity(n, p).entries
    t_inv = la.Mat.from_rows([la.solve(t, e) for e in unit], p).transpose()
    d = la.Mat.from_rows([[one if i == j < rank else zero for j in range(n)]
                          for i in range(n)], p)
    proj = t.mul(d).mul(t_inv)
    assert proj.mul(proj) == proj
    cols = proj.transpose().entries
    got = la.quotient_from_projection(n, lambda c: la.sparse(cols[c]), p)
    assert got == la.quotient(n, la.kernel(proj))
    assert got.dim == rank


def test_backend_is_reported():
    assert weakhopf.BACKEND == "python"


def test_prime_field_arithmetic():
    x = la.Fp(3, 5)
    assert x + x == la.Fp(1, 5)
    assert x / la.Fp(2, 5) == la.Fp(4, 5)
    with pytest.raises(ZeroDivisionError):
        x / la.Fp(0, 5)


def test_prime_field_solve():
    a = la.Mat.from_rows([[1, 1], [0, 1]], p=2)
    got = la.solve(a, (la.Fp(1, 2), la.Fp(1, 2)))
    assert got == (la.Fp(0, 2), la.Fp(1, 2))


def test_subspace_ops():
    s1 = la.Subspace.from_vectors(3, [{0: F(1)}, {1: F(1)}])
    s2 = la.Subspace.from_vectors(3, [{1: F(1)}, {2: F(1)}])
    inter = s1.intersect(s2)
    assert inter.dim == 1 and inter.contains({1: F(5)})
    assert s1.sum_with(s2) == la.Subspace.full(3)
    assert s1.coords({0: F(2), 1: F(-1)}) == (F(2), F(-1))
    assert s1.coords({2: F(1)}) is None


@pytest.mark.parametrize("p", FIELDS)
def test_as_scalar_refuses_floats(p):
    with pytest.raises(TypeError):
        la.as_scalar(0.1, p)
    with pytest.raises(TypeError):
        la.as_scalar(2.0, p)


def test_integral_rationals_are_ints():
    for x in (la.as_scalar(F(6, 3)), la.as_scalar(3), la.parse_scalar("6/2"),
              la.parse_scalar("-4"), la.div(6, 3), la.div(F(1, 2), F(1, 4)),
              la.scalar_zero()):
        assert type(x) is int
    for x in (la.as_scalar(F(1, 2)), la.parse_scalar("2/4"), la.div(1, 2)):
        assert x == F(1, 2) and type(x) is F


def test_div_is_exact_in_both_fields():
    assert la.div(1, 3) == F(1, 3)
    assert la.div(la.Fp(1, 13), 2) == la.div(1, la.Fp(2, 13)) == la.Fp(7, 13)
    with pytest.raises(ZeroDivisionError):
        la.div(1, 0)


def test_format_vector_ignores_the_scalar_type():
    assert la.format_vector({0: 1}) == la.format_vector({0: F(1)}) == "{0: 1}"
    assert la.format_vector({3: F(-1, 2), 0: 2}) == "{0: 2, 3: -1/2}"
    assert la.format_vector({1: la.Fp(12, 13)}) == "{1: 12}"
