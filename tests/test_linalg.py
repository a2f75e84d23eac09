import ast
import pathlib
from fractions import Fraction as F
from math import gcd

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


def sparse_rows(rows, p=None):
    """Dense test rows of rationals as sparse rows over Q or F_p."""
    return [la.sparse(r) for r in field_rows(rows, p)]


def unit_rows(n, p=None):
    return [{i: la.as_scalar(1, p)} for i in range(n)]


# dense reference arithmetic that the sparse API is compared against

def dense_apply(rows, x, p=None):
    """A x for dense rows A and a dense vector x."""
    return tuple(la.residue(sum(r[j] * x[j] for j in range(len(x))), p)
                 for r in rows)


def dense_matmul(a, b, p=None):
    return [list(dense_apply(list(zip(*b)), r, p)) for r in a]


def to_dense(rows, n, p=None):
    """Sparse rows as dense rows of width n."""
    return [list(la.dense(r, n)) for r in rows]


def test_solve_identity():
    b = {0: F(1), 1: F(2), 2: F(3)}
    assert la.solve(la.transpose(unit_rows(3), 3), b) == b


def test_solve_scalar_inverse():
    assert la.solve(la.transpose([{0: 2}], 1), {0: 1}) == {0: F(1, 2)}


def test_solve_inconsistent():
    # the second system has an empty row and a nonzero right-hand side
    for rows, rhs in (([{0: 1, 1: 1}, {0: 1, 1: 1}], {1: 1}),
                      ([{}], {0: 1})):
        with pytest.raises(la.NoSolution, match="inconsistent system"):
            la.solve(la.transpose(rows, 2), rhs)


def test_solve_underdetermined_canonical():
    # free variables are pinned to zero
    assert la.solve(la.transpose([{0: 1, 1: 1}], 3), {0: 5}) == {0: 5}


def test_kernel_zero_matrix_full():
    assert la.kernel(la.transpose([{}, {}], 2)) == la.Subspace.full(2)
    # no equations at all leave every unknown free
    for p in FIELDS:
        assert la.kernel(la.transpose([], 3), p) == la.Subspace.full(3, p)


def test_kernel_identity_trivial():
    assert la.kernel(la.transpose(unit_rows(4), 4)).dim == 0


def test_solve_rhs_beyond_the_images():
    # coordinate 2 of the right-hand side is reached by no image
    for p in FIELDS:
        with pytest.raises(la.NoSolution, match="inconsistent system"):
            la.solve(unit_rows(2, p), {0: 1, 2: 1}, p)


def test_kernel_of_zero_images_is_full():
    for p in FIELDS:
        assert la.kernel([{}, {}, {}], p) == la.Subspace.full(3, p)
        assert la.kernel([], p) == la.Subspace.full(0, p)


def test_quotient_trivial_relations():
    q = la.quotient(la.Subspace.from_vectors(3, []))
    assert q.dim == 3
    assert q.project({1: F(2)}) == {1: F(2)}


def test_quotient_plane_by_line():
    rel = la.Subspace.from_vectors(2, [{0: F(1), 1: F(-1)}])
    q = la.quotient(rel)
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
        a = field_rows(rows, p)
        b = dense_apply(a, tuple(in_field(c, p) for c in x), p)
        got = la.solve(la.transpose(sparse_rows(rows, p), 3), la.sparse(b), p)
        assert dense_apply(a, la.dense(got, 3), p) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_inverse_matches_solve_per_column(rows):
    for p in FIELDS:
        a = sparse_rows(rows, p)
        if la.rank(a, 3, p) < 3:
            with pytest.raises(la.NoSolution, match="singular matrix"):
                la.inverse(a, 3, p)
            continue
        inv = la.inverse(a, 3, p)
        one = la.as_scalar(1, p)
        # column i of the inverse solves a x = e_i
        for i in range(3):
            col = la.solve(la.transpose(a, 3), {i: one}, p)
            assert col == {k: r[i] for k, r in enumerate(inv) if i in r}
        assert dense_matmul(field_rows(rows, p), to_dense(inv, 3, p), p) == \
            to_dense(unit_rows(3, p), 3, p)
        # inverse rows are sparse dicts with sorted keys
        assert all(list(r) == sorted(r) for r in inv)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=1, max_size=4))
def test_kernel_annihilates(rows):
    for p in FIELDS:
        a = field_rows(rows, p)
        ker = la.kernel(la.transpose(sparse_rows(rows, p), 4), p)
        zero = tuple(la.scalar_zero(p) for _ in a)
        for v in to_dense(ker.basis, 4, p):
            assert dense_apply(a, v, p) == zero
        assert ker.dim + la.rank(sparse_rows(rows, p), 4, p) == 4


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=0, max_size=3))
def test_quotient_properties(rel_rows):
    for p in FIELDS:
        one = la.as_scalar(1, p)
        rel = la.Subspace.from_vectors(
            4, [la.sparse(r) for r in field_rows(rel_rows, p)], p)
        q = la.quotient(rel)
        assert q.dim == 4 - rel.dim
        # project annihilates exactly the relations
        for r in rel.basis:
            assert q.project(r) == {}
        # project o section = id on quotient coordinates
        for i in range(q.dim):
            assert q.project(q.section({i: one})) == {i: one}
        # project is onto
        assert la.rank([q.project({c: one}) for c in range(4)], q.dim,
                       p) == q.dim


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
            4, [la.sscale(v, in_field(3, p), p) for v in vecs], p)
        assert s1 == s3


@pytest.mark.parametrize("p", FIELDS, ids=["Q", "F13"])
@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=12, max_size=12),
       st.integers(0, 4), st.lists(st.integers(0, 4), max_size=3))
def test_quotient_from_projection_matches_quotient(p, entries, rank, gaps):
    n = 4
    one, zero = la.as_scalar(1, p), la.scalar_zero(p)
    # T = L U with unit triangular factors is invertible over every field
    it = iter(entries)
    lower = [[one if i == j else in_field(next(it), p) if j < i else zero
              for j in range(n)] for i in range(n)]
    upper = [[one if i == j else in_field(next(it), p) if j > i else zero
              for j in range(n)] for i in range(n)]
    t = dense_matmul(lower, upper, p)
    t_inv = to_dense(la.inverse([la.sparse(r) for r in t], n, p), n, p)
    d = [[one if i == j < rank else zero for j in range(n)] for i in range(n)]
    proj = dense_matmul(dense_matmul(t, d, p), t_inv, p)
    assert dense_matmul(proj, proj, p) == proj
    cols = list(zip(*proj))
    got = la.quotient_from_projection(n, lambda c: la.sparse(cols[c]), p)
    assert got == la.quotient(la.kernel(
        la.transpose([la.sparse(r) for r in proj], n), p))
    assert got.dim == rank

    # the same projection with a zero column inserted before coordinate g
    # for each g in gaps (before none when g is n): zero images among
    # nonzero ones
    live, m = [], 0  # the coordinate of each coordinate of proj
    for g in range(n + 1):
        m += gaps.count(g)
        if g < n:
            live.append(m)
            m += 1
    padded = [{} for _ in range(m)]
    for c, col in enumerate(cols):
        padded[live[c]] = {live[i]: x for i, x in la.sparse(col).items()}
    got = la.quotient_from_projection(m, padded.__getitem__, p)
    assert got == la.quotient(la.kernel(padded, p))
    assert got.dim == rank


# wide sparse systems: rows 24-64 wide with 1-3 nonzeros each, so that
# elimination fills rows in and expression tracking runs to high aux columns

def gauss_jordan(rows, n, p=None):
    """Dense reference Gauss-Jordan elimination of sparse rows of width n,
    one row at a time: (pivots, the RREF rows with leading coefficient 1 as
    sparse dicts, whether each row grew the rank)."""
    red = {}  # pivot -> dense row, leading 1, zero at every other pivot
    grew = []
    for row in rows:
        v = list(la.dense(row, n))
        for c, r in red.items():
            f = v[c]
            if f != 0:
                v = [la.residue(x - f * y, p) for x, y in zip(v, r)]
        c = next((j for j, x in enumerate(v) if x != 0), None)
        grew.append(c is not None)
        if c is None:
            continue
        inv = la.div(1, v[c], p)
        v = [la.residue(x * inv, p) for x in v]
        for k, r in red.items():
            f = r[c]
            if f != 0:
                red[k] = [la.residue(x - f * y, p) for x, y in zip(r, v)]
        red[c] = v
    pivots = sorted(red)
    return pivots, [la.sparse(red[c]) for c in pivots], grew


def combination(vecs, coeffs, p=None):
    """sum(coeffs[k] * vecs[k]) as a sparse vector."""
    acc = {}
    for k, c in coeffs.items():
        la.sadd_into(acc, vecs[k], c, p)
    return acc


nonzero = st.builds(F, st.integers(1, 6), st.integers(1, 4)) | st.builds(
    F, st.integers(-6, -1), st.integers(1, 4))


@st.composite
def wide_sparse_rows(draw):
    """(width, rows): up to 40 rows of width 24-64 with 1-3 nonzeros."""
    n = draw(st.integers(24, 64))
    k = draw(st.integers(1, 40))
    rows = draw(st.lists(st.dictionaries(st.integers(0, n - 1), nonzero,
                                         min_size=1, max_size=3),
                         min_size=k, max_size=k))
    return n, rows


def field_sparse(rows, p):
    return [{i: in_field(x, p) for i, x in r.items()} for r in rows]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.dictionaries(st.integers(0, n - 1), nonzero, max_size=n),
    max_size=6))))
def test_transpose_is_an_involution(data):
    n, rows = data
    t = la.transpose(rows, n)
    assert len(t) == n and all(0 not in r.values() for r in t)
    assert la.transpose(t, len(rows)) == rows


@pytest.mark.parametrize("p", FIELDS, ids=["Q", "F13"])
@settings(max_examples=40, deadline=None)
@given(wide_sparse_rows(), st.lists(rationals, min_size=40, max_size=40),
       st.booleans())
def test_wide_sparse_rows_match_dense_gauss_jordan(p, shape, rhs, consistent):
    n, rows = shape
    vecs = field_sparse(rows, p)
    pivots, ref, grew = gauss_jordan(vecs, n, p)
    sub = la.Subspace.from_vectors(n, vecs, p)
    assert list(sub.pivots) == pivots and list(sub.basis) == ref

    # the kernel rows store no zero: primitive with a positive leading
    # entry over Q, residues with a leading 1 over F_p
    ech = la.Echelon(n, p)
    for v in vecs:
        ech.insert(v)
    assert ech.pivots == pivots and ech.frac_rows() == ref
    for c, r in ech.rows.items():
        assert 0 not in r.values() and min(r) == c
        if p is None:
            assert r[c] > 0 and gcd(*r.values()) == 1
        else:
            assert r[c] == 1 and all(0 < x < p for x in r.values())

    # a dependent vector is rebuilt from its solution over the kept ones
    kept = []
    for v, g in zip(vecs, grew):
        if g:
            kept.append(v)
        else:
            assert combination(kept, la.solve(kept, v, p), p) == v

    # solve fails exactly when the reference system is inconsistent
    if consistent:
        x0 = {i: in_field(c, p) for i, c in enumerate(rhs) if i < n and c}
        b = [la.residue(sum(c * x0.get(i, 0) for i, c in v.items()), p)
             for v in vecs]
    else:
        b = [in_field(c, p) for c in rhs[:len(vecs)]]
    aug = [{**v, n: c} if c != 0 else v
           for v, c in zip(vecs, b)]
    if n in gauss_jordan(aug, n + 1, p)[0]:
        assert not consistent
        with pytest.raises(la.NoSolution, match="inconsistent system"):
            la.solve(la.transpose(vecs, n), la.sparse(b), p)
    else:
        x = la.solve(la.transpose(vecs, n), la.sparse(b), p)
        assert [la.residue(sum(c * x.get(i, 0) for i, c in v.items()), p)
                for v in vecs] == b


@pytest.mark.parametrize("p", FIELDS, ids=["Q", "F13"])
@settings(max_examples=30, deadline=None)
@given(st.integers(24, 64).flatmap(lambda n: st.tuples(
    st.permutations(range(n)), st.permutations(range(n)),
    st.lists(nonzero, min_size=n, max_size=n),
    st.lists(st.dictionaries(st.integers(1, n - 1), nonzero, max_size=2),
             min_size=n, max_size=n))))
def test_inverse_of_a_permuted_sparse_matrix(p, data):
    rowperm, colperm, diag, above = data
    n = len(diag)
    # a triangular matrix with a nonzero diagonal and at most two entries
    # above it per row, its rows and columns permuted
    tri = [{i: diag[i], **{i + j: x for j, x in above[i].items() if i + j < n}}
           for i in range(n)]
    a = [None] * n
    for i, r in enumerate(field_sparse(tri, p)):
        a[rowperm[i]] = {colperm[j]: x for j, x in r.items()}
    inv = la.inverse(a, n, p)
    one = la.as_scalar(1, p)
    assert [combination(a, r, p) for r in inv] == \
        [{i: one} for i in range(n)]


def test_backend_is_reported():
    assert weakhopf.BACKEND == "python"


def test_prime_field_arithmetic():
    x = 3
    assert la.residue(x + x, 5) == 1
    assert la.div(x, 2, 5) == 4
    with pytest.raises(ZeroDivisionError):
        la.div(x, 0, 5)
    with pytest.raises(ZeroDivisionError):
        la.div(x, 5, 5)  # a residue of zero, written unreduced
    assert la.residues({0: x + x, 1: 5, 2: -x}, 5) == {0: 1, 2: 2}


def test_prime_field_solve():
    got = la.solve(la.transpose([{0: 1, 1: 1}, {1: 1}], 2), {0: 1, 1: 1}, 2)
    assert got == {1: 1}


def test_as_scalar_maps_rationals_to_residues():
    assert la.as_scalar(F(1, 2), 13) == 7
    assert la.as_scalar(-1, 13) == 12 and la.as_scalar(F(26, 2), 13) == 0
    assert la.parse_scalar("1/2", 13) == la.parse_scalar("-6", 13) == 7
    with pytest.raises(ValueError):
        la.as_scalar(F(1, 13), 13)
    with pytest.raises(ValueError):
        la.parse_scalar("1/26", 13)


def test_subspace_ops():
    s1 = la.Subspace.from_vectors(3, [{0: F(1)}, {1: F(1)}])
    s2 = la.Subspace.from_vectors(3, [{1: F(1)}, {2: F(1)}])
    inter = s1.intersect(s2)
    assert inter.dim == 1 and inter.contains({1: F(5)})
    assert la.Subspace.from_vectors(3, s1.basis + s2.basis) == \
        la.Subspace.full(3)
    assert s1.contains_subspace(inter) and not s1.contains_subspace(s2)
    zero = la.Subspace.from_vectors(3, [])
    assert s1.intersect(zero) == zero
    assert s1.coords({0: F(2), 1: F(-1)}) == {0: F(2), 1: F(-1)}
    assert s1.coords({1: F(3)}) == {1: F(3)}
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
        assert x == F(1, 2) and type(x) is la.Rational
    half = la.as_scalar(F(1, 2))
    for x, want in ((half + -half, 0), (half - half, 0), (half * 2, 1)):
        assert type(x) is int and x == want


# operands of each kind: a stored int, a stored Rational, a stdlib Fraction
OPERANDS = {
    "int": st.integers(-40, 40),
    "Rational": st.builds(F, st.integers(-40, 40), st.integers(2, 12))
    .filter(lambda x: x.denominator > 1).map(la.as_scalar),
    "Fraction": st.builds(F, st.integers(-40, 40), st.integers(1, 12)),
}


def assert_is_fraction(x, value):
    """x is value, with Fraction's ==, hash, str and repr; a stored result
    is an int when integral and otherwise a Rational in lowest terms."""
    assert x == value and hash(x) == hash(value)
    if type(x) is la.Rational:
        assert x.denominator > 1 and gcd(x.numerator, x.denominator) == 1
        assert str(x) == str(value) and repr(x) == repr(value)
    elif type(x) is not F:
        assert type(x) is int and value.denominator == 1


@settings(max_examples=40, deadline=None)
@pytest.mark.parametrize("left", OPERANDS)
@pytest.mark.parametrize("right", OPERANDS)
@given(data=st.data())
def test_rational_arithmetic_is_fractions(left, right, data):
    a, b = data.draw(OPERANDS[left]), data.draw(OPERANDS[right])
    stored = F not in (type(a), type(b))
    for got, want in ((a + b, F(a) + F(b)), (a - b, F(a) - F(b)),
                      (a * b, F(a) * F(b)), (-a, -F(a))):
        assert_is_fraction(got, want)
        assert type(got) is not F or not stored


def test_div_is_exact_in_both_fields():
    assert la.div(1, 3) == F(1, 3)
    assert repr(la.div(3, -6)) == repr(la.div(F(-1, 3), F(2, 3))) == \
        "Fraction(-1, 2)"
    assert la.div(1, 2, 13) == la.div(14, 2, 13) == la.div(1, 15, 13) == 7
    with pytest.raises(ZeroDivisionError):
        la.div(1, 0)
    with pytest.raises(ZeroDivisionError):
        la.div(1, 0, 13)


def test_format_vector_ignores_the_scalar_type():
    assert la.format_vector({0: 1}) == la.format_vector({0: F(1)}) == "{0: 1}"
    assert la.format_vector({3: F(-1, 2), 0: 2}) == "{0: 2, 3: -1/2}"
    assert la.format_vector({1: la.as_scalar(-1, 13)}) == "{1: 12}"


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=0, max_size=3),
       st.lists(rationals, min_size=4, max_size=4))
def test_membership_matches_the_rank_criterion(rows, v):
    for p in FIELDS:
        sub = la.Subspace.from_vectors(4, sparse_rows(rows, p), p)
        vec = la.sparse(tuple(in_field(c, p) for c in v))
        inside = la.rank(sub.basis + (vec,), 4, p) == sub.dim
        assert sub.contains(vec) == inside
        co = sub.coords(vec)
        assert (co is not None) == inside
        if inside:
            acc = {}
            for k, c in co.items():
                la.sadd_into(acc, sub.basis[k], c, p)
            assert acc == vec
        assert sub.contains_subspace(
            la.Subspace.from_vectors(4, [vec], p)) == inside
        # every combination of the basis is a member, with its coefficients
        # as coordinates
        coeffs = {k: in_field(k + 2, p) for k in range(sub.dim)}
        combo = {}
        for k, c in coeffs.items():
            la.sadd_into(combo, sub.basis[k], c, p)
        assert sub.contains(combo) and sub.coords(combo) == coeffs


def test_membership_builds_no_echelon(monkeypatch):
    sub = la.Subspace.from_vectors(3, [{0: 1, 1: 2}, {2: 1}])
    zero = la.Subspace.from_vectors(3, [])
    built = []

    class Counting(la.Echelon):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(la, "Echelon", Counting)
    assert sub.contains({0: 2, 1: 4, 2: F(1, 2)})
    assert not sub.contains({1: 1})
    assert sub.contains_subspace(zero)
    assert not sub.contains_subspace(la.Subspace.full(3))
    assert built == []


# ---------------------------------------------------------------------------
# one sparse form: dicts everywhere, pair tuples only in the structure table

def svec_uses(tree):
    """(enclosing function, line) of each read of svec, bare or as an
    attribute, called or passed on; None outside any function."""
    found = []

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(getattr(child, "ctx", None), ast.Load) and \
                    "svec" in (getattr(child, "id", None),
                               getattr(child, "attr", None)):
                found.append((fn, child.lineno))
            walk(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    walk(tree, None)
    return sorted(found, key=lambda c: c[1])


def test_scan_flags_svec_uses():
    tree = ast.parse("from weakhopf.linalg import svec\n"
                     "def f(d):\n"
                     "    return svec(d)\n"
                     "x = la.svec({})\n"
                     "def g(ds):\n"
                     "    return tuple(map(svec, ds))\n"
                     "def h(d):\n"
                     "    return tuple(sorted(d.items()))\n")
    assert svec_uses(tree) == [("f", 3), (None, 4), ("g", 6)]


def test_only_srow_builds_pair_tuples():
    """The pair-tuple form is the structure table's: `algebra._srow`,
    which builds its cells, is the one user of svec."""
    src = pathlib.Path(weakhopf.__file__).parent
    found = [(path.name, fn, line) for path in sorted(src.glob("*.py"))
             for fn, line in svec_uses(ast.parse(path.read_text()))]
    assert found and all(c[:2] == ("algebra.py", "_srow")
                         for c in found), found


# ---------------------------------------------------------------------------
# Sweedler sums: legsum and tslices read the flat tensor index

def test_legsum_cancels_to_the_empty_vector():
    # (1/2) e_0 (x) e_1 + (1/2) e_1 (x) e_0 on 2 x 2 indices
    t = {la.tindex(0, 1, 2): F(1, 2), la.tindex(1, 0, 2): F(1, 2)}
    got = la.legsum(t, 2, lambda i, j: {3: 1, 4: F(2, 3)} if i == 0
                    else {3: -1, 4: F(-2, 3)})
    assert got == {}
    legs = []
    assert la.legsum(t, 2, lambda i, j: legs.append((i, j)) or {j: i}) == \
        {0: F(1, 2)}
    assert legs == [(0, 1), (1, 0)]


def test_legsum_reduces_over_f13():
    # 5 e_0 (x) e_0 + 8 e_1 (x) e_1: the e_2 sums 5 + 8 = 13 vanish
    t = {la.tindex(0, 0, 2): 5, la.tindex(1, 1, 2): 8}
    got = la.legsum(t, 2, lambda i, j: {i: 7, 2: 1}, 13)
    assert got == {0: 35 % 13, 1: 56 % 13}
    assert all(type(c) is int and 0 <= c < 13 for c in got.values())


def test_legsum_and_tslices_of_the_empty_tensor():
    def term(i, j):
        raise AssertionError("no leg to call the term on")

    assert la.legsum({}, 3, term) == {}
    assert la.legsum({}, 3, term, 13) == {}
    assert la.tslices({}, 3) == ({}, {})


@pytest.mark.parametrize("p", FIELDS)
def test_legsum_with_tensor_valued_terms(p):
    # the flip e_i (x) e_j -> e_j (x) e_i, and a nested sum over both tensors
    n = 3
    t = {la.tindex(i, j, n): in_field(F(i - 2 * j + 1, j + 1), p)
         for i in range(n) for j in range(n) if i != j + 1}
    t = {k: c for k, c in t.items() if c}
    flip = la.legsum(t, n, lambda i, j: {la.tindex(j, i, n): 1}, p)
    assert flip == {la.tindex(k % n, k // n, n): c for k, c in t.items()}
    nested = la.legsum(t, n, lambda i, j: la.legsum(
        t, n, lambda k, l: la.tensor_sparse({i: 1}, {l: 1}, n, p), p), p)
    direct = {}
    for ij, a in t.items():
        for kl, b in t.items():
            la.sadd_into(direct, {la.tindex(ij // n, kl % n, n): 1}, a * b, p)
    assert nested == direct


def test_tslices_keep_the_order_of_the_tensor():
    # keys 5, 1, 3 on 2 x 2 indices are (2, 1), (0, 1), (1, 1)
    rows, cols = la.tslices({5: 1, 1: 2, 3: 3}, 2)
    assert list(rows.items()) == [(2, {1: 1}), (0, {1: 2}), (1, {1: 3})]
    assert list(cols.items()) == [(1, {2: 1, 0: 2, 1: 3})]
    assert list(cols[1]) == [2, 0, 1]


def divmod_calls(tree):
    """{enclosing function: number of divmod calls}, innermost function,
    "<module>" outside any."""
    found = {}

    def walk(node, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Name) and \
                    child.func.id == "divmod":
                found[fn] = found.get(fn, 0) + 1
            walk(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)

    walk(tree, "<module>")
    return found


def test_scan_counts_divmod_per_function():
    tree = ast.parse("def f(t):\n"
                     "    return divmod(t, 3)\n"
                     "def g():\n"
                     "    def h(x):\n"
                     "        return [divmod(k, 2) for k in x], divmod(x, 4)\n"
                     "    return h\n"
                     "q = divmod(7, 2)\n"
                     "r = la.divmod(7, 2)\n")
    assert divmod_calls(tree) == {"f": 1, "h": 2, "<module>": 1}


# A Sweedler sum over a flat tensor goes through legsum or tslices; the
# flat index is decoded inline only by the product kernels (the smash
# product's precomputed legs and mul_amb) and by the code that reads back a
# section column (basic_construction's reps, _smash_iso) or names a
# witness (verify_axioms' delta_one law).  Each allowance is the exact
# count in the code, so one that outlives its divmod fails too.
DIVMOD_ALLOWED = {
    "action.py": {"smash": 1, "mul_amb": 2},
    "tower.py": {"basic_construction": 1, "_smash_iso": 1},
    "wha.py": {"verify_axioms": 2},
}


def test_sweedler_sums_read_the_flat_index_through_legsum():
    src = pathlib.Path(weakhopf.__file__).parent
    found = {name: divmod_calls(ast.parse((src / name).read_text()))
             for name in DIVMOD_ALLOWED}
    assert found == DIVMOD_ALLOWED
