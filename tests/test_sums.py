"""Every kernel that computes a sparse sum returns it finished: the value of
a dense reference written out here, with no stored zero and, over F_p,
every scalar a residue in [0, p).  The inputs are built to cancel (y is a
difference z - z' of vectors that share keys), so that many coordinates of
the sums vanish.  The kernels seed each entry with its first term; an
entry that cancels to zero and then takes another term, a term that is
zero, and an empty input each stay finished."""

import ast
import pathlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakhopf
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
    module = ac.standard_action(kG)
    return {"M2": (corpus.matrix_algebra(2, p), None), "kG": (kG.alg, module),
            "M1": (M1 if p is None else reduced(M1, p), None)}


BUILT = {p: algebras(p) for p in FIELDS}


def vectors(n, p):
    """Zero-free sparse vectors on n coordinates, in the stored form."""
    scalars = st.sampled_from(Q_SCALARS) if p is None else \
        st.integers(1, p - 1)
    return st.dictionaries(st.integers(0, n - 1), scalars, max_size=n)


def scalars(p):
    """Scalars in the stored form, zero among them over F_p."""
    return st.sampled_from(Q_SCALARS) if p is None else st.integers(0, p - 1)


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


@pytest.mark.parametrize("p, name", CASES)
@SETTINGS
@given(data=st.data())
def test_cell_sums_and_traces_are_finished(p, name, data):
    alg = BUILT[p][name][0]
    n = alg.dim
    x = data.draw(cancelling(n, p))
    a = data.draw(st.integers(0, n - 1))
    trace = data.draw(st.lists(scalars(p), min_size=n, max_size=n))
    cols = tuple(zip(*alg.table))
    assert_finished(ag.cell_sum(alg.table[a], x, p),
                    finished(dense_mul(alg, {a: 1}, x), p), p)
    assert_finished(ag.cell_sum(cols[a], x, p),
                    finished(dense_mul(alg, x, {a: 1}), p), p)
    want = sum(c * trace[i] for i, c in x.items())
    got = ag.trace_of(trace, x, p)
    assert got == la.as_scalar(want, p)
    assert type(got) is int or got.denominator != 1


@pytest.mark.parametrize("p", FIELDS)
@SETTINGS
@given(data=st.data())
def test_sadd_into_is_finished(p, data):
    acc = data.draw(cancelling(6, p))
    # d may hold a zero; acc must stay zero-free all the same
    d = data.draw(st.dictionaries(st.integers(0, 5), scalars(p)))
    c = data.draw(st.sampled_from([1, -1, F(1, 2), F(-3, 2), 2]) if p is None
                  else st.integers(0, p - 1))
    want = [acc.get(i, 0) + c * d.get(i, 0) for i in range(6)]
    assert_finished(la.sadd_into(dict(acc), d, c, p), finished(want, p), p)


@pytest.mark.parametrize("p", FIELDS)
def test_a_cancelled_entry_comes_back(p):
    # the entry at 5 is 1, then 0, then 2 as the terms arrive
    one, minus, two = (la.as_scalar(c, p) for c in (1, -1, 2))
    t = {0: one, 1: one, 2: one}
    legs = {0: {5: one, 6: one}, 1: {5: minus}, 2: {5: two}}
    assert la.legsum(t, 3, lambda i, j: legs[j], p) == {5: two, 6: one}
    rows = (legs[0], legs[1], legs[2])
    assert ag.apply_map(rows, t, p) == {5: two, 6: one}
    acc = {5: one}
    la.sadd_into(acc, {5: minus}, 1, p)
    assert acc == {}
    assert la.sadd_into(acc, {5: one}, two, p) == {5: two}


@pytest.mark.parametrize("p", FIELDS)
def test_zero_terms_and_empty_inputs_form_nothing(p):
    one = la.as_scalar(1, p)
    # a leg whose scalar factor is zero: a one-key {k: 0}
    assert la.legsum({0: one, 1: one}, 2,
                     lambda i, j: {3: 0} if j else {4: one}, p) == {4: one}
    assert la.sadd_into({}, {3: 0}, 1, p) == {}
    assert la.sadd_into({1: one}, {3: 0, 1: 0}, F(1, 2) if p is None else 7,
                        p) == {1: one}
    for alg, _ in BUILT[p].values():
        x = {0: one}
        for got in (alg.mul({}, x), alg.mul(x, {}), alg.mulm(x, {}, x),
                    ag.apply_map(alg.lmul_rows(x), {}, p),
                    ag.cell_sum(alg.table[0], {}, p)):
            assert got == {}
        # an empty product is a new dict, never an input passed through
        empty = {}
        assert alg.mulm(empty, x) is not empty
        assert alg.mul(empty, x) is not empty


def zero_seeded_sums(tree):
    """{enclosing function: number of scalar sums seeded with the int 0},
    innermost function: `<dict>.get(<key>, 0) +` (or -),
    `defaultdict(int)`, a name set to 0 and then summed into (`acc += t`,
    `acc = acc + t`), and `sum(...)` of products with no start."""
    found = {}

    def zero(node):
        return isinstance(node, ast.Constant) and node.value == 0 and \
            type(node.value) is int

    def summed_into(fn):
        """Names a function sums into: acc += t, acc -= t, acc = acc + t."""
        names = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.AugAssign) and \
                    isinstance(node.op, (ast.Add, ast.Sub)) and \
                    isinstance(node.target, ast.Name):
                names.add(node.target.id)
            elif isinstance(node, ast.Assign) and \
                    isinstance(node.value, ast.BinOp) and \
                    isinstance(node.value.op, (ast.Add, ast.Sub)) and \
                    isinstance(node.value.left, ast.Name) and \
                    any(isinstance(t, ast.Name) and t.id == node.value.left.id
                        for t in node.targets):
                names.add(node.value.left.id)
        return names

    def seeded(node, acc):
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.Add, ast.Sub)):
            get = node.left
            return isinstance(get, ast.Call) and \
                isinstance(get.func, ast.Attribute) and \
                get.func.attr == "get" and len(get.args) == 2 and \
                zero(get.args[1])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "defaultdict":
                return len(node.args) == 1 and \
                    isinstance(node.args[0], ast.Name) and \
                    node.args[0].id == "int"
            if node.func.id == "sum":
                gen = node.args[0] if node.args else None
                return (len(node.args) == 1 or zero(node.args[1])) and \
                    isinstance(gen, (ast.GeneratorExp, ast.ListComp)) and \
                    isinstance(gen.elt, ast.BinOp) and \
                    isinstance(gen.elt.op, ast.Mult)
        if isinstance(node, ast.Assign) and zero(node.value):
            return sum(isinstance(t, ast.Name) and t.id in acc
                       for t in node.targets)
        return 0

    def walk(node, fn, acc):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name, summed_into(child))
                continue
            n = int(seeded(child, acc))
            if n:
                found[fn] = found.get(fn, 0) + n
            walk(child, fn, acc)

    walk(tree, "<module>", summed_into(tree))
    return found


def test_scan_counts_zero_seeded_sums_per_function():
    tree = ast.parse("def f(d, t):\n"
                     "    d[0] = d.get(0, 0) + t\n"
                     "    d[1] = d.get(1, 0) - t\n"
                     "    d[2] = d.get(2, 1) + t\n"
                     "    e = defaultdict(int)\n"
                     "    f = defaultdict(list)\n"
                     "    return d.get(3, 0)\n"
                     "def g(xs):\n"
                     "    acc = r = 0\n"
                     "    n = 0\n"
                     "    for x in xs:\n"
                     "        acc += x\n"
                     "        r = r + x\n"
                     "        n = len(xs)\n"
                     "    return sum(a * b for a, b in xs), "
                     "sum(1 for x in xs)\n"
                     "def h(xs):\n"
                     "    return sum([a * b for a, b in xs], 0), "
                     "sum((a * b for a, b in xs), xs[0])\n")
    assert zero_seeded_sums(tree) == {"f": 3, "g": 3, "h": 1}


# A sum is seeded with its first term (see `la.sadd_into`); a sum seeded
# with the int 0 is allowed only where every scalar is an int: the
# eliminator's integer rows (`_backend._combine`), the F_p branch of
# `sadd_into`, and `_middle_failure`, the sum of `check_associative` on
# the table scaled to integers.
# Each allowance is the exact count in the code, so one that outlives its
# site fails too.
ZERO_SEEDED_ALLOWED = {
    "_backend.py": {"_combine": 1},
    "algebra.py": {"_middle_failure": 1},
    "linalg.py": {"sadd_into": 1},
}


def test_sums_are_seeded_with_their_first_term():
    src = pathlib.Path(weakhopf.__file__).parent
    found = {}
    for path in sorted(src.glob("*.py")):
        sites = zero_seeded_sums(ast.parse(path.read_text()))
        if sites:
            found[path.name] = sites
    assert found == ZERO_SEEDED_ALLOWED
