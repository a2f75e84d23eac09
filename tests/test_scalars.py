"""The Q scalar rule: integral values are stored as int, and only linalg
divides scalars (``/`` on two ints would give a float)."""

import ast
import pathlib
from fractions import Fraction

import weakhopf
from weakhopf import corpus
from weakhopf import groupoid as gp
from weakhopf import linalg as la
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


def stored_form(x):
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def row_scalars(rows):
    return [c for r in rows for _, c in r]


def algebra_scalars(alg):
    return [c for row in alg.table for cell in row for _, c in cell] + \
        list(alg.unit)


def weakhopf_scalars(H):
    return (algebra_scalars(H.alg) + row_scalars(H.delta) + list(H.eps) +
            row_scalars(H.s))


def test_stored_rationals_are_ints_or_proper_fractions():
    G = gp.pair(3)
    kG = gp.groupoid_algebra(G)
    dual = gp.groupoid_dual(G, kG)
    level = tw.build_tower(corpus.ext_q2_m2(), 1).levels[0]
    E = level.cert.E
    _, _, res, _ = tw.derive(tw.build_tower(corpus.ext_q_q2(), 2))
    scalars = {
        "kG": weakhopf_scalars(kG),
        "(kG)*": weakhopf_scalars(dual),
        "M1 of q2_in_m2": (algebra_scalars(E.incl.big) +
                           row_scalars(E.incl.embed) + row_scalars(E.rows)),
        "derived A": weakhopf_scalars(res["derived"].A),
        "derived B": weakhopf_scalars(res["derived"].B),
    }
    bad = {name: [x for x in xs if not stored_form(x)][:3]
           for name, xs in scalars.items()}
    assert not any(bad.values()), bad
    assert all(scalars.values())


def test_scalar_one_divides_exactly():
    one = la.scalar_one()
    assert type(one) is Fraction
    assert one / (one + one) == Fraction(1, 2)
