"""The scalar rules: over Q integral values are stored as int, over F_p
every value is an int in [0, p); only linalg divides scalars (``/`` on two
ints would give a float), and only linalg and the row-reduction kernel
reduce by the modulus."""

import ast
import pathlib
from fractions import Fraction

import pytest

import weakhopf
from weakhopf import algebra as ag
from weakhopf import corpus
from weakhopf import groupoid as gp
from weakhopf import linalg as la
from weakhopf import specfile as sf
from weakhopf import tower as tw

SRC = pathlib.Path(weakhopf.__file__).parent


def divisions(tree):
    """Line numbers of every true division, ``a / b`` or ``a /= b``."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, (ast.BinOp, ast.AugAssign))
                  and isinstance(n.op, ast.Div))


def test_scan_flags_true_division_only():
    tree = ast.parse("a = b / c\nd //= 2\ne = f // g\nh /= 3\ni = '1/2'\n")
    assert divisions(tree) == [1, 4]


def test_only_linalg_divides():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = divisions(ast.parse(path.read_text()))
        if lines and path.name != "linalg.py":
            found[path.name] = lines
    assert not found, found


def reductions(tree):
    """Line numbers of every reduction by a modulus named p: ``x % p``,
    ``x % obj.p``, ``x %= p`` and ``pow(x, k, p)``; ``"..." % p`` formats
    text and is not one."""
    def is_p(node):
        return (isinstance(node, ast.Name) and node.id == "p") or \
            (isinstance(node, ast.Attribute) and node.attr == "p")

    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod) and \
                is_p(n.right) and not (isinstance(n.left, ast.Constant) and
                                       isinstance(n.left.value, str)):
            found.add(n.lineno)
        elif isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mod) \
                and is_p(n.value):
            found.add(n.lineno)
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and \
                n.func.id == "pow" and len(n.args) == 3 and is_p(n.args[2]):
            found.add(n.lineno)
    return sorted(found)


def test_scan_flags_reduction_by_the_modulus():
    tree = ast.parse("a = b % p\nc = d % self.p\ne %= p\n"
                     "f = pow(g, -1, p)\nh = pow(i, 2)\nj = k % q\n"
                     "m = 'F_%d' % p\nn = pow(o, 2, H.p)\nr = s // p\n")
    assert reductions(tree) == [1, 2, 3, 4, 8]


def test_only_linalg_reduces_by_the_modulus():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = reductions(ast.parse(path.read_text()))
        if lines and path.name not in ("linalg.py", "_backend.py"):
            found[path.name] = lines
    assert not found, found


def fraction_sources(tree):
    """Line numbers of every ``fractions`` import and every call of a name
    or attribute ``Fraction``: the places a stdlib Fraction is made."""
    found = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Import) and any(
                a.name.split(".")[0] == "fractions" for a in n.names):
            found.add(n.lineno)
        elif isinstance(n, ast.ImportFrom) and n.module == "fractions":
            found.add(n.lineno)
        elif isinstance(n, ast.Call) and (
                (isinstance(n.func, ast.Name) and n.func.id == "Fraction") or
                (isinstance(n.func, ast.Attribute) and
                 n.func.attr == "Fraction")):
            found.add(n.lineno)
    return sorted(found)


def test_scan_flags_fraction_construction_and_import():
    tree = ast.parse("from fractions import Fraction\nimport fractions\n"
                     "a = Fraction(1, 2)\nb = fractions.Fraction(3)\n"
                     "c = la.Fraction(1)\nd = 'Fraction(1, 2)'\n"
                     "e = isinstance(f, la.Rational)\ng = h.denominator\n"
                     "import fractions as fr, math\n")
    assert fraction_sources(tree) == [1, 2, 3, 4, 5, 9]


def test_only_linalg_and_corpus_make_fractions():
    # the kernels meet only int and la.Rational; corpus inputs pass
    # through la.as_scalar
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = fraction_sources(ast.parse(path.read_text()))
        if lines and path.name not in ("linalg.py", "corpus.py"):
            found[path.name] = lines
    assert not found, found


def stored_form(x):
    return type(x) is int or (type(x) is la.Rational and x.denominator > 1)


def residue_form(p):
    return lambda x: type(x) is int and 0 <= x < p


def row_scalars(rows):
    return [c for r in rows for c in r.values()]


def algebra_scalars(alg):
    return [c for row in alg.table for cell in row for _, c in cell] + \
        list(alg.unit)


def weakhopf_scalars(H):
    return (algebra_scalars(H.alg) + row_scalars(H.delta) + list(H.eps) +
            row_scalars(H.s))


def over(cert, p):
    """A certified Markov extension read over F_p (None: as it is)."""
    if p is None:
        return cert
    spec = sf.specfile_for((cert.incl, cert.E, cert.trace), "ext")
    incl, E, trace = sf.build(sf.SpecFile(spec.kind, spec.name, p,
                                          spec.payload))
    return ag.certify_markov(incl, E, ag.find_dual_bases(E), trace)


def stored_scalars(p):
    """{object: its stored scalars} for kG and (kG)* of pair(3), M1 of
    q2_in_m2, the traces of the q_in_q2 tower (the T0 of each Markov
    certificate), the dual bases, Jones idempotent, embedding and phi of
    each of its levels, and the derived A and B of q_in_q2 with the
    eps(e_i e_j) table of B, built over Q or F_p."""
    G = gp.pair(3)
    kG = gp.groupoid_algebra(G, p)
    dual = gp.groupoid_dual(G, kG)
    level = tw.build_tower(over(corpus.ext_q2_m2(), p), 1).levels[0]
    E = level.cert.E
    tower = tw.build_tower(over(corpus.ext_q_q2(), p), 2)
    _, _, res, _ = tw.derive(tower)
    B = res["derived"].B
    assert E.incl.big.p == B.p == dual.p == p
    return {
        "kG": weakhopf_scalars(kG),
        "(kG)*": weakhopf_scalars(dual),
        "M1 of q2_in_m2": (algebra_scalars(E.incl.big) +
                           row_scalars(E.incl.embed) + row_scalars(E.rows) +
                           list(level.cert.t0)),
        "traces of q_in_q2": [x for k in range(3) for x in tower.trace(k)],
        "levels of q_in_q2": [x for lvl in tower.levels for r in (
            *lvl.cert.dual_bases.xs, *lvl.cert.dual_bases.ys, lvl.e,
            *lvl.cert.incl.embed, *lvl.phi) for x in r.values()],
        "derived A": weakhopf_scalars(res["derived"].A),
        "derived B": weakhopf_scalars(B),
        "eps_products of derived B": [x for row in B.eps_products
                                      for x in row],
    }


def test_stored_rationals_are_ints_or_proper_fractions():
    # over F_13 every stored scalar is a residue, an int in [0, 13)
    for p, ok in ((None, stored_form), (13, residue_form(13))):
        scalars = stored_scalars(p)
        bad = {name: [x for x in xs if not ok(x)][:3]
               for name, xs in scalars.items()}
        assert not any(bad.values()), (p, bad)
        assert all(scalars.values())


@pytest.mark.parametrize("p", [None, 13])
@pytest.mark.parametrize("ext", [corpus.ext_q2_m2, corpus.ext_q_q3])
def test_covector_reads_the_trace_of_the_product(ext, p):
    # T(x y) read as x against the covector of y forms no product in M2;
    # it must equal T(M2.mul(x, y)) on every basis pair of M2 and on sparse
    # non-basis vectors, in the stored scalar form
    ctx = tw.DepthTwoContext(tw.build_tower(over(ext(), p), 2))
    M2, n = ctx.M2, ctx.M2.dim
    vecs = [{i: 1} for i in range(n)] + [
        M2.unit_sparse(), ctx.e1, ctx.e2,
        {0: la.as_scalar(-2, p), n - 1: la.as_scalar(Fraction(1, 2), p)},
        {1: la.as_scalar(3, p), n // 2: la.as_scalar(Fraction(-5, 3), p)}]
    form = stored_form if p is None else residue_form(p)
    for y in vecs:
        tau = ctx.cov(y)
        for x in vecs:
            got = ctx.T(x, tau)
            assert got == ctx.T(M2.mul(x, y)) and form(got), (x, y)


def test_scalar_one_divides_exactly():
    one = la.scalar_one()
    assert type(one) is Fraction
    assert one / (one + one) == Fraction(1, 2)


def pops_to_none(tree):
    """Line numbers of every ``<expr>.pop(<key>, None)``: the mark of a sum
    that drops its zeros by hand instead of through `la.residues`."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and isinstance(n.func, ast.Attribute)
                  and n.func.attr == "pop" and len(n.args) == 2
                  and isinstance(n.args[1], ast.Constant)
                  and n.args[1].value is None)


def test_scan_flags_pop_to_none_only():
    tree = ast.parse("a.pop(k, None)\nb.c.pop(i + 1, None)\nd.pop(k)\n"
                     "e.pop(n * n, 0)\nf.pop()\npop(g, None)\n"
                     "h[0].pop(k, None)\n")
    assert pops_to_none(tree) == [1, 2, 7]


def test_only_linalg_drops_zeros_by_hand():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        lines = pops_to_none(ast.parse(path.read_text()))
        if lines and path.name != "linalg.py":
            found[path.name] = lines
    assert not found, found
