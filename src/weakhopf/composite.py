"""Composite basic constructions: the idempotents f_n and the shift map.

f_n is the product of Jones idempotents implementing the basic construction
of the composite expectation F_n: M_n -> N inside M_{2n+1}; its
characterizing identities are verified exactly on full bases.  The shift
tau^2 rewrites words in the Jones idempotents e_i to e_{i+2} and is
evaluated in the tower.  Tower levels grow geometrically, so n is capped by
an ambient dimension budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from weakhopf import algebra as ag
from weakhopf import linalg as la
from weakhopf.checks import CheckList
from weakhopf.linalg import sadd_into


class NotInTLSubalgebra(ValueError):
    """The element is not a combination of words in the Jones idempotents."""


class DimensionBudget(ValueError):
    pass


DIM_BUDGET = 64  # largest ambient dimension f_n is verified in


@dataclass(frozen=True)
class CompositeData:
    f_n: dict  # element of M_{2n+1}, top-level coords
    checks: CheckList


def composite_expectation_down(tower, hi, lo):
    """Rows of E_{M_lo} o ... o E_{M_{hi-1}}: M_hi -> M_lo coordinates.

    Level 0 is the base big algebra; lo = -1 composes all the way down to N.
    Requires hi > lo.  The first factor's rows are the stored rows of E.
    """
    Es = [tower.levels[k - 1].cert.E.rows for k in range(hi, max(lo, 0), -1)]
    if lo == -1:
        Es.append(tower.base.E.rows)
    rows = Es[0]
    for E in Es[1:]:
        rows = ag.compose_maps(rows, E, tower.alg(hi).p)
    return rows


def jones_word(tower, word, level):
    """Evaluate a product of Jones idempotents (by index) in M_level."""
    out = tower.alg(level).unit_sparse()
    for i in word:
        out = tower.alg(level).mul(out, tower.jones(i, level))
    return out


def composite_idempotent(tower, n, prev=None):
    """f_n with its characterizing identities, verified on a full basis.

    Requires the tower built to level 2n+1 of ambient dimension within
    DIM_BUDGET (the identities themselves are dimension independent).  `prev`
    is the CompositeData of f_{n-1}, built here when not given.
    """
    top = 2 * n + 1
    if len(tower.levels) < top:
        raise DimensionBudget("tower not built to level %d" % top)
    if tower.alg(top).dim > DIM_BUDGET:
        raise DimensionBudget("ambient dimension %d exceeds the budget %d"
                              % (tower.alg(top).dim, DIM_BUDGET))
    cl = CheckList()
    M_top = tower.alg(top)
    p = M_top.p
    lam_inv = tower.base.lambda_inv

    word = []
    for r in range(n + 1):
        word.extend(range(n + 1 + r, r, -1))
    f = la.sscale(jones_word(tower, word, top),
                  lam_inv ** (n * (n + 1) // 2), p)

    cl.add("idempotent", "f_n^2 = f_n", M_top.mul(f, f) == f)

    M_n = tower.alg(n)
    F_n = composite_expectation_down(tower, n, -1)
    F_Mn = composite_expectation_down(tower, top, n)

    # the basis of M_n lifted to the top: row x of the embedding into
    # M_{n+1}, carried up from there
    M_n_top = [tower.embed(n + 1, top, r)
               for r in tower.levels[n].cert.incl.embed]

    def lift_N(x_small):
        return tower.embed(0, top, tower.base.incl.emb(x_small))

    with cl.holds("contraction",
                  "f_n x f_n = f_n F_n(x) = F_n(x) f_n on M_n") as law:
        for x in law.over(range(M_n.dim)):
            xe = M_n_top[x]
            Fx = lift_N(F_n[x])
            lhs = M_top.mulm(f, xe, f)
            if law.check((x,), lhs, M_top.mul(f, Fx)):
                law.check((x,), lhs, M_top.mul(Fx, f))

    xfs = [M_top.mul(xe, f) for xe in M_n_top]
    cl.add("span", "M_n f_n M_n = M_{2n+1}", la.rank(
        (M_top.mul(xf, ye) for xf in xfs for ye in M_n_top),
        M_top.dim, p) == M_top.dim)

    cl.add("composite_expectation", "F_{M_n}(f_n) = lambda^{n+1} 1",
           ag.apply_map(F_Mn, f, p)
           == la.sscale(M_n.unit_sparse(),
                        la.div(1, lam_inv ** (n + 1), p), p))

    if n >= 1:
        prev = prev or composite_idempotent(tower, n - 1)
        prev_f_top = tower.embed(2 * n - 1, top, prev.f_n)
        shifted = shift_tau2(tower, prev_f_top, 2 * n - 1, level=top)
        head = jones_word(tower, list(range(n + 1, 0, -1)), top)
        tail = jones_word(tower, list(range(2, n + 2)), top)
        recursive = la.sscale(M_top.mulm(head, shifted, tail), lam_inv ** n,
                              p)
        cl.add("recursive_form",
               "f_n = lambda^-n (e_{n+1}..e_1) tau^2(f_{n-1}) "
               "(e_2..e_{n+1})", recursive == f)
        cl.add("previous_level", "f_{n-1} checks", prev.checks.ok,
               witness="; ".join(c.name for c in prev.checks.failures()))
    return CompositeData(f, cl)


def _word_basis(tower, gens, level):
    """Deterministic word basis of the algebra generated by 1 and the e_i.

    Breadth-first over words in the given generators, keeping a word when
    its evaluation grows the span, which an `Echelon` decides.  Returns the
    kept words and their values; the values are independent, so an element
    of their span has one expression over them (`shift_tau2` solves for
    it).
    """
    alg = tower.alg(level)
    ech = la.Echelon(alg.dim, alg.p)
    words, vals = [()], [alg.unit_sparse()]
    ech.insert(vals[0])
    frontier = [0]  # the words kept in the last round, by index
    while frontier:
        new_frontier = []
        for k in frontier:
            for i in gens:
                val = alg.mul(vals[k], tower.jones(i, level))
                if ech.insert(val):
                    new_frontier.append(len(words))
                    words.append(words[k] + (i,))
                    vals.append(val)
        frontier = new_frontier
    return words, vals


def shift_tau2(tower, element, n, level=None):
    """The shift e_i -> e_{i+2} on the subalgebra generated by e_1..e_n.

    The element (given in M_level coordinates, default the top level) is
    expressed in a deterministic word basis (membership checked), each word
    is rewritten and re-evaluated in the tower, and the shifted generators
    are verified to satisfy the same defining relations.
    """
    if level is None:
        level = len(tower.levels)
    alg = tower.alg(level)
    p = alg.p
    lam = la.div(1, tower.base.lambda_inv, p)
    if n + 2 > level:
        raise DimensionBudget("tower too short for the shift target e_%d"
                              % (n + 2))
    gens = list(range(1, n + 1))
    words, vals = _word_basis(tower, gens, level)
    try:
        data = la.solve(vals, element, p)
    except la.NoSolution:
        raise NotInTLSubalgebra(
            "element is independent of the e-word span") from None
    # shifted generators satisfy the same relations
    for i in range(3, n + 3):
        ei = tower.jones(i, level)
        if alg.mul(ei, ei) != ei:
            raise AssertionError("shifted e_%d not idempotent" % i)
        if i + 1 <= n + 2:
            ej = tower.jones(i + 1, level)
            if alg.mulm(ei, ej, ei) != la.sscale(ei, lam, p) or \
                    alg.mulm(ej, ei, ej) != la.sscale(ej, lam, p):
                raise AssertionError("braid relation fails after the shift")
        for j in range(3, i - 1):
            ej = tower.jones(j, level)
            if alg.mul(ei, ej) != alg.mul(ej, ei):
                raise AssertionError("distant idempotents fail to commute")
    out = {}
    for k, c in data.items():
        shifted_word = tuple(i + 2 for i in words[k])
        sadd_into(out, jones_word(tower, shifted_word, level), c, p)
    return out
