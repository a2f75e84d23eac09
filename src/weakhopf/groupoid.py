"""Finite groupoids and their weak Hopf algebras.

Groupoids are explicit composition tables: the product g*h is defined when
source(g) = target(h) (right-to-left composition) and is zero in the
groupoid algebra otherwise.  kG carries Delta(g) = g (x) g, eps(g) = 1,
S(g) = g^-1; the dual algebra of functions is built directly from its own
formulas and checked against the transpose construction.
"""

from __future__ import annotations

from weakhopf import algebra as ag
from weakhopf import linalg as la
from weakhopf import wha


class Groupoid:
    def __init__(self, objects, morphisms, source, target, compose):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.source = dict(source)
        self.target = dict(target)
        self.compose = dict(compose)
        self.index = {g: i for i, g in enumerate(self.morphisms)}
        self.identity = {}
        self.inverse = {}
        self._validate()

    def _validate(self):
        ms = self.morphisms
        comp = self.compose
        for g in ms:
            if self.source[g] not in self.objects or self.target[g] not in self.objects:
                raise ValueError("morphism %s has unknown endpoints" % g)
        for (g, h), gh in comp.items():
            if self.source[g] != self.target[h]:
                raise ValueError("composite %s*%s not composable" % (g, h))
            if self.source[gh] != self.source[h] or self.target[gh] != self.target[g]:
                raise ValueError("composite %s*%s has wrong endpoints" % (g, h))
        for g in ms:
            for h in ms:
                if (self.source[g] == self.target[h]) != ((g, h) in comp):
                    raise ValueError("composition table incomplete at (%s, %s)"
                                     % (g, h))
        # identities: the unique neutral endomorphism per object
        for x in self.objects:
            cands = [e for e in ms if self.source[e] == self.target[e] == x
                     and all(comp[(e, h)] == h for h in ms if self.target[h] == x)
                     and all(comp[(g, e)] == g for g in ms if self.source[g] == x)]
            if len(cands) != 1:
                raise ValueError("object %s lacks a unique identity" % x)
            self.identity[x] = cands[0]
        for g in ms:
            inv = [h for h in ms
                   if self.source[h] == self.target[g]
                   and self.target[h] == self.source[g]
                   and comp[(g, h)] == self.identity[self.target[g]]
                   and comp[(h, g)] == self.identity[self.source[g]]]
            if len(inv) != 1:
                raise ValueError("morphism %s lacks a unique inverse" % g)
            self.inverse[g] = inv[0]
        for g in ms:
            for h in ms:
                if (g, h) not in comp:
                    continue
                for f in ms:
                    if (h, f) not in comp:
                        continue
                    if comp[(comp[(g, h)], f)] != comp[(g, comp[(h, f)])]:
                        raise ValueError("composition not associative at "
                                         "(%s, %s, %s)" % (g, h, f))

    @property
    def units(self):
        return tuple(self.identity[x] for x in self.objects)


def trivial():
    return Groupoid(["*"], ["e"], {"e": "*"}, {"e": "*"}, {("e", "e"): "e"})


def cyclic(n):
    """Z_n as a one-object groupoid."""
    ms = ["g%d" % k for k in range(n)]
    comp = {(ms[a], ms[b]): ms[(a + b) % n] for a in range(n) for b in range(n)}
    return Groupoid(["*"], ms, {m: "*" for m in ms}, {m: "*" for m in ms}, comp)


def pair(n):
    """The pair groupoid on n objects: one morphism j -> i per pair (i, j)."""
    objs = ["X%d" % i for i in range(n)]
    ms = []
    src, tgt = {}, {}
    for i in range(n):
        for j in range(n):
            m = "g%d%d" % (i, j)
            ms.append(m)
            tgt[m] = objs[i]
            src[m] = objs[j]
    comp = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comp[("g%d%d" % (i, j), "g%d%d" % (j, k))] = "g%d%d" % (i, k)
    return Groupoid(objs, ms, src, tgt, comp)


def disjoint_union(a, b):
    objs = ["a:" + x for x in a.objects] + ["b:" + x for x in b.objects]
    ms = ["a:" + m for m in a.morphisms] + ["b:" + m for m in b.morphisms]
    src = {"a:" + m: "a:" + a.source[m] for m in a.morphisms}
    src.update({"b:" + m: "b:" + b.source[m] for m in b.morphisms})
    tgt = {"a:" + m: "a:" + a.target[m] for m in a.morphisms}
    tgt.update({"b:" + m: "b:" + b.target[m] for m in b.morphisms})
    comp = {("a:" + g, "a:" + h): "a:" + gh for (g, h), gh in a.compose.items()}
    comp.update({("b:" + g, "b:" + h): "b:" + gh
                 for (g, h), gh in b.compose.items()})
    return Groupoid(objs, ms, src, tgt, comp)


def corpus():
    """The groupoid test corpus: one-object, multi-object and mixed cases."""
    return {
        "trivial": trivial(),
        "z2": cyclic(2),
        "z3": cyclic(3),
        "pair2": pair(2),
        "pair3": pair(3),
        "z2_plus_pair2": disjoint_union(cyclic(2), pair(2)),
    }


# ---------------------------------------------------------------------------

def groupoid_algebra(G, p=None):
    """kG as a weak Hopf algebra on the morphism basis."""
    n = len(G.morphisms)
    table = [[{} for _ in range(n)] for _ in range(n)]
    for (g, h), gh in G.compose.items():
        table[G.index[g]][G.index[h]] = {G.index[gh]: 1}
    unit = [0] * n
    for e in G.units:
        unit[G.index[e]] = 1
    alg = ag.make_algebra(table, unit, labels=G.morphisms, p=p)
    delta = [{G.index[g] * n + G.index[g]: 1} for g in G.morphisms]
    eps = [1] * n
    s = [{G.index[G.inverse[g]]: 1} for g in G.morphisms]
    return wha.make_weakhopf(alg, delta, eps, s)


def groupoid_dual(G, H):
    """(kG)* built directly from its own formulas, on the p_g basis.

    H is kG, groupoid_algebra(G, p).  The result is decided to coincide,
    matrix for matrix, with the transpose dual of H by
    `wha.involution_witness` (an AssertionError names the first differing
    basis index), and then passes the axiom engine (a VerificationError
    names the failed laws).
    """
    p = H.p
    n = len(G.morphisms)
    table = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        table[i][i] = {i: 1}
    unit = [1] * n
    delta = []
    for g in G.morphisms:
        row = {}
        for (u, v), uv in G.compose.items():
            if uv == g:
                row[G.index[u] * n + G.index[v]] = 1
        delta.append(row)
    units = set(G.units)
    eps = [1 if g in units else 0 for g in G.morphisms]
    s = [{G.index[G.inverse[g]]: 1} for g in G.morphisms]
    alg = ag.make_algebra(table, unit, labels=tuple("p_" + g for g in G.morphisms),
                          p=p)
    Hd = wha.make_weakhopf(alg, delta, eps, s)
    witness = wha.involution_witness(H, Hd)
    if witness is not None:
        raise AssertionError("explicit dual disagrees with the transpose "
                             "dual at %s" % witness)
    wha.verify_axioms(Hd).require()
    return Hd


def groupoid_integrals(G, H, H_dual):
    """Unit-indexed spanning sets of the integral spaces of kG.

    With the function-order product used here (g h defined when
    source(g) = target(h)), the left integrals are spanned by the
    source-grouped sums l_e = sum_{g^-1 g = e} g and the right integrals
    by the target-grouped sums r_e = sum_{g g^-1 = e} g; reading the
    product in the opposite order exchanges the two families.

    Returns (left_spans, right_spans) and asserts they span the computed
    integral spaces of kG; for (kG)*, asserts both spaces equal span{p_e}.
    H and H_dual are kG and groupoid_dual(G, H).
    """
    p = H.p
    n = len(G.morphisms)
    left_spans, right_spans = [], []
    for e in G.units:
        left_spans.append({G.index[g]: 1 for g in G.morphisms
                           if G.compose[(G.inverse[g], g)] == e})
        right_spans.append({G.index[g]: 1 for g in G.morphisms
                            if G.compose[(g, G.inverse[g])] == e})

    ints = wha.integrals(H)
    if la.Subspace.from_vectors(n, left_spans, p) != ints.left:
        raise AssertionError("left integral spans disagree with the solver")
    if la.Subspace.from_vectors(n, right_spans, p) != ints.right:
        raise AssertionError("right integral spans disagree with the solver")

    ints_d = wha.integrals(H_dual)
    p_units = la.Subspace.from_vectors(
        n, [{G.index[e]: 1} for e in G.units], p)
    if ints_d.left != p_units or ints_d.right != p_units:
        raise AssertionError("dual integrals differ from span{p_e}")
    return left_spans, right_spans
