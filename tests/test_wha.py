import dataclasses
import io
import json
from contextlib import redirect_stdout
from fractions import Fraction as F

import pytest

from weakhopf import algebra as ag
from weakhopf import cli
from weakhopf import corpus
from weakhopf import groupoid as gp
from weakhopf import linalg as la
from weakhopf import specfile as sf
from weakhopf import tower as tw
from weakhopf import wha
from weakhopf.checks import CheckList


def z2():
    return gp.groupoid_algebra(gp.cyclic(2))


def pair2():
    return gp.groupoid_algebra(gp.pair(2))


def test_axioms_pass_on_corpus():
    for name, G in gp.corpus().items():
        rep = wha.verify_axioms(gp.groupoid_algebra(G))
        assert rep.ok, (name, [c.name for c in rep.failures()])


def test_hopf_case_delta_one():
    H = z2()
    one2 = la.tensor_sparse(H.alg.unit_sparse(), H.alg.unit_sparse(), H.dim)
    assert dict(H.delta_one) == one2
    assert wha.is_hopf(H)


def test_pair_groupoid_not_hopf():
    assert not wha.is_hopf(pair2())


def test_counital_maps_of_pair_groupoid():
    # eps_t(g) = identity at the target object
    H = pair2()
    cd = wha.counital(H)
    assert cd.checks.ok
    assert cd.Ht.dim == 2 and cd.Hs.dim == 2
    # g01: X1 -> X0 projects to id_X0 under eps_t (basis order g00 g01 g10 g11)
    assert H.et({1: F(1)}) == {0: F(1)}
    assert ag.apply_map(H.eps_rows[1], {1: F(1)}) == {3: F(1)}


def test_counital_idempotent_matrices():
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        cd = wha.counital(H)
        assert ag.compose_maps(cd.eps_t, cd.eps_t) == cd.eps_t, name
        assert ag.compose_maps(cd.eps_s, cd.eps_s) == cd.eps_s, name


def _mutate_antipode_id(H):
    ident = [{h: F(1)} for h in range(H.dim)]
    return wha.WeakHopf(H.alg, H.delta, H.eps, ag.map_rows(ident))


def _mutate_antipode_soft(H):
    # S'(g01) = g10 + g01 satisfies both counital antipode axioms but not
    # the sandwich axiom (basis order g00 g01 g10 g11)
    rows = [dict(r) for r in H.s]
    rows[1][1] = rows[1].get(1, F(0)) + F(1)
    return wha.WeakHopf(H.alg, H.delta, H.eps, ag.map_rows(rows))


def test_identity_antipode_fails_sandwich():
    rep = wha.verify_axioms(_mutate_antipode_id(pair2()))
    assert not rep.get("antipode_sandwich").passed
    # everything not involving the antipode still passes
    for name in ("coassociativity", "counit_left", "counit_right",
                 "delta_multiplicative", "eps_weak_multiplicative",
                 "delta_one"):
        assert rep.get(name).passed, name


def test_soft_mutation_fails_exactly_the_sandwich_axiom():
    rep = wha.verify_axioms(_mutate_antipode_soft(pair2()))
    for name in ("coassociativity", "counit_left", "counit_right",
                 "delta_multiplicative", "eps_weak_multiplicative",
                 "delta_one", "antipode_target", "antipode_source"):
        assert rep.get(name).passed, name
    assert not rep.get("antipode_sandwich").passed


def test_delta_one_rejects_a_bad_unit_coproduct():
    # k^2 (orthogonal idempotents e0, e1, unit e0 + e1) with the coalgebra
    # of k[x]/x^2: Delta(e0) = e0 (x) e0, Delta(e1) = e0 (x) e1 + e1 (x) e0
    one = F(1)
    alg = ag.make_algebra([[{0: 1}, {}], [{}, {1: 1}]], [1, 1])
    H = wha.make_weakhopf(alg, [{0: one}, {1: one, 2: one}], [1, 0],
                          [{0: one}, {1: one}])
    # by hand, (Delta (x) id)Delta(1) = e000 + e001 + e010 + e100, while
    # (Delta(1) (x) 1)(1 (x) Delta(1)) also carries e101
    assert ag.apply_tensor(H.delta, None, dict(H.delta_one), 2, 2) == {
        0: one, 1: one, 2: one, 4: one}
    rep = wha.verify_axioms(H)
    for name in ("coassociativity", "counit_left", "counit_right"):
        assert rep.get(name).passed, name
    assert not rep.get("delta_one").passed
    assert rep.get("delta_one").witness == "(1, 0, 1)"  # e101, as (u, m, y)


def test_dual_of_z2_is_z2_shaped():
    H = z2()
    Hd = wha.dual(H)
    # functions on Z2 with pointwise product; change of basis to the
    # character basis gives back the group algebra structure constants
    assert Hd.alg.mul({0: F(1)}, {0: F(1)}) == {0: F(1)}
    assert Hd.alg.mul({0: F(1)}, {1: F(1)}) == {}
    # explicit comparison: kZ2 in the character basis {1, chi}
    p0, p1 = {0: F(1)}, {1: F(1)}
    e = la.sadd_into(dict(p0), p1, F(1))
    chi = la.sadd_into(dict(p0), p1, F(-1))
    prod = Hd.alg.mul(chi, chi)
    assert prod == e


def test_dual_is_involution_on_corpus():
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        for X in (H, gp.groupoid_dual(G, H)):
            Xdd = wha.dual(wha.dual(X))
            assert (Xdd.alg.table, Xdd.delta, Xdd.eps, Xdd.s) == \
                (X.alg.table, X.delta, X.eps, X.s), name


def test_involution_witness_names_the_first_differing_matrix():
    H = pair2()
    Hd = wha.dual(H)
    assert wha.involution_witness(H, Hd) is None

    def bump(row, k):
        return {**row, k: row.get(k, 0) + 1}

    # an entry of the dual's Delta at e_0 (x) e_1 is one of the product
    # e_0* e_1* of its transpose, an entry of a product cell one of the
    # transposed Delta, the dual's unit is the transposed counit and the
    # dual's counit is H's unit
    table = [list(row) for row in Hd.alg.table]
    table[0][0] = la.svec(bump(dict(table[0][0]), 3))
    unit = list(Hd.alg.unit)
    unit[1] += 1
    eps = list(Hd.eps)
    eps[2] += 1
    faults = {
        "table basis (0, 1)": dataclasses.replace(
            Hd, delta=(bump(Hd.delta[0], 1),) + Hd.delta[1:]),
        "delta basis 3": dataclasses.replace(Hd, alg=dataclasses.replace(
            Hd.alg, table=tuple(map(tuple, table)))),
        "eps basis 1": dataclasses.replace(Hd, alg=dataclasses.replace(
            Hd.alg, unit=tuple(unit))),
        "unit basis 2": dataclasses.replace(Hd, eps=tuple(eps)),
    }
    for witness, X in faults.items():
        assert wha.involution_witness(H, X) == witness


def test_integrals_are_ideals():
    # with the function-order product the left-integral space is an ideal
    # on the right and the right-integral space on the left (the mirror of
    # the opposite composition order)
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        ints = wha.integrals(H)
        assert wha.maschke_consistent(H, ints), name
        for r in ints.left.basis:
            for h in range(H.dim):
                img = H.alg.mul(dict(r), {h: 1})
                assert ints.left.contains(img), name
        for r in ints.right.basis:
            for h in range(H.dim):
                img = H.alg.mul({h: 1}, dict(r))
                assert ints.right.contains(img), name


def test_normalized_integral_exists_on_corpus():
    for name, G in gp.corpus().items():
        ints = wha.integrals(gp.groupoid_algebra(G))
        assert ints.normalized_left is not None, name


def test_is_hopf_equivalences_never_disagree():
    for name, G in gp.corpus().items():
        H = gp.groupoid_algebra(G)
        wha.is_hopf(H)  # raises EquivalenceViolation on disagreement
        wha.is_hopf(gp.groupoid_dual(G, H))


def test_verify_axioms_over_prime_field():
    H = gp.groupoid_algebra(gp.pair(2), p=3)
    assert wha.verify_axioms(H).ok
    assert wha.counital(H).checks.ok
    # eps(2 g00 + 2 g11) = 4, returned as the residue 1 of F_3
    assert H.e({0: 2, 3: 2}) == 1



@pytest.mark.parametrize("p", [None, 13])
def test_s_inv_inverts_the_antipode(p):
    # a groupoid algebra, where S^-1 = S, and the derived B of q_in_q2 read
    # back over the field, where S^2(b) = g b g^-1
    derived = tw.derive(tw.build_tower(corpus.ext_q_q2(), 2))[2]["derived"]
    spec = sf.specfile_for(derived.B, "B")
    for H in (gp.groupoid_algebra(gp.pair(2), p),
              sf.build(sf.SpecFile(spec.kind, "B", p, spec.payload))):
        ident = tuple({i: 1} for i in range(H.dim))
        assert ag.compose_maps(H.s, H.s_inv, p) == ident
        assert ag.compose_maps(H.s_inv, H.s, p) == ident
        assert H.s_inv is H.s_inv


@pytest.mark.parametrize("p", [None, 13, 65521])
def test_eps_products_match_direct_products(p):
    # kG and (kG)* of every corpus groupoid, and the derived A and B of
    # q_in_q2 read back over the field, whose counits carry quarters: over
    # F_65521 they are residues near p, so a missed reduction would show
    Hs = {}
    for name, G in gp.corpus().items():
        Hs[name] = gp.groupoid_algebra(G, p)
        Hs[name + "*"] = gp.groupoid_dual(G, Hs[name])
    derived = tw.derive(tw.build_tower(corpus.ext_q_q2(), 2))[2]["derived"]
    for name in ("A", "B"):
        spec = sf.specfile_for(getattr(derived, name), name)
        Hs[name] = sf.build(sf.SpecFile(spec.kind, name, p, spec.payload))
    for name, H in Hs.items():
        assert H.p == p
        want = [[H.e(H.alg.mul({i: 1}, {j: 1})) for j in range(H.dim)]
                for i in range(H.dim)]
        assert [list(row) for row in H.eps_products] == want, name


# verify_axioms decides delta_multiplicative, eps_weak_multiplicative,
# s_anti_multiplicative and antipode_unique in one sum per row over nonzero
# terms, and the Delta(1) products of delta_one in one pass over their
# cells, and builds eps_rows in one pass over the legs of Delta(1).  The
# per-pair formulations they replaced are kept here as references.  Every
# other law reads the same stored data and eps_rows, so equal eps_rows and
# equal entries for these laws mean equal reports.
REWRITTEN = ("delta_multiplicative", "eps_weak_multiplicative", "delta_one",
             "s_anti_multiplicative", "antipode_unique")


def convolve(H, f_rows, g_rows):
    """Convolution product of two endomorphisms: h -> f(h1) g(h2)."""
    return tuple(la.legsum(dh, H.dim,
                           lambda i, j: H.alg.mul(f_rows[i], g_rows[j]), H.p)
                 for dh in H.delta)


def reference_checks(H):
    cl = CheckList()
    alg, d, p = H.alg, H.dim, H.p
    with cl.holds("delta_multiplicative",
                  "Delta(hg) = Delta(h)Delta(g)") as law:
        for i in law.over(range(d)):
            for j in law.over(range(d)):
                law.check((i, j), H.d(dict(alg.table[i][j])),
                          ag.tensor_mul(alg, alg, H.delta[i], H.delta[j]))
    em = H.eps_products
    P = [{h: em[h][u] for h in range(d) if em[h][u]} for u in range(d)]
    x1s = [la.tslices(ag.apply_tensor(P, None, dg, d, d, p), d)[0]
           for dg in H.delta]
    x2s = [la.tslices(ag.apply_tensor(None, P, dg, d, d, p), d)[1]
           for dg in H.delta]
    em_rows = [la.sparse(row) for row in em]
    with cl.holds("eps_weak_multiplicative",
                  "eps(hgf) = eps(h g1)eps(g2 f) = eps(h g2)eps(g1 f)") as law:
        for h in law.over(range(d)):
            for g in law.over(range(d)):
                lhs = ag.apply_map(em_rows, dict(alg.table[h][g]), p)
                r1 = ag.apply_map(em_rows, x1s[g].get(h, {}), p)
                r2 = ag.apply_map(em_rows, x2s[g].get(h, {}), p)
                if lhs == r1 == r2:
                    continue
                for f in law.over(range(d)):
                    if law.check((h, g, f), lhs.get(f), r1.get(f)):
                        law.check((h, g, f), lhs.get(f), r2.get(f))
    d1 = H.delta_one
    t_left = ag.apply_tensor(H.delta, None, d1, d, d, p)
    prod1 = la.legsum(d1, d, lambda u, v: la.legsum(
        d1, d, lambda x, y: {(u * d + m) * d + y: w
                             for m, w in alg.table[v][x]}, p), p)
    prod2 = la.legsum(d1, d, lambda u, v: la.legsum(
        d1, d, lambda x, y: {(u * d + m) * d + y: w
                             for m, w in alg.table[x][v]}, p), p)
    with cl.holds("delta_one",
                  "(Delta (x) id)Delta(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) "
                  "= (1 (x) Delta(1))(Delta(1) (x) 1)") as law:
        for key in law.over(sorted(t_left.keys() | prod1.keys() |
                                   prod2.keys())):
            um, y = divmod(key, d)
            where = divmod(um, d) + (y,)
            if law.check(where, t_left.get(key), prod1.get(key)):
                law.check(where, t_left.get(key), prod2.get(key))
    with cl.holds("s_anti_multiplicative", "S(hg) = S(g)S(h)") as law:
        for i in law.over(range(d)):
            for j in law.over(range(d)):
                law.check((i, j), H.S(dict(alg.table[i][j])),
                          alg.mul(H.s[j], H.s[i]))
    est, ess = H.eps_rows
    left, right = convolve(H, ess, H.s), convolve(H, H.s, est)
    with cl.holds("antipode_unique", "eps_s * S = S = S * eps_t in the "
                  "convolution algebra") as law:
        for h in law.over(range(d)):
            law.check((h,), (left[h], right[h]), (H.s[h], H.s[h]))
    return cl


def reference_eps_rows(H):
    d, p = H.dim, H.p
    em, d1 = H.eps_products, H.delta_one
    return (tuple(la.legsum(d1, d, lambda u, v: {v: em[u][h]}, p)
                  for h in range(d)),
            tuple(la.legsum(d1, d, lambda u, v: {u: em[h][v]}, p)
                  for h in range(d)))


def rewritten_entries(H):
    return [c for c in wha.verify_axioms(H).items if c.name in REWRITTEN]


def corpus_inputs():
    """kG and (kG)* of every corpus groupoid, over Q and over F_13."""
    out = {}
    for p in (None, 13):
        for name, G in gp.corpus().items():
            H = gp.groupoid_algebra(G, p)
            out[name, p] = H
            out[name + "*", p] = gp.groupoid_dual(G, H)
    return out


def mutants(H):
    """One entry of S, eps or Delta changed at each basis element k."""
    d, p = H.dim, H.p

    def bumped(rows, k, key):
        rows = [dict(r) for r in rows]
        rows[k][key] = rows[k].get(key, 0) + 1
        return ag.map_rows(rows, p)

    for k in range(d):
        yield "s", k, dataclasses.replace(H, s=bumped(H.s, k, (k + 1) % d))
        yield "s0", k, dataclasses.replace(
            H, s=H.s[:k] + ({},) + H.s[k + 1:])
        eps = list(H.eps)
        eps[k] = la.as_scalar(eps[k] + 1, p)
        yield "eps", k, dataclasses.replace(H, eps=tuple(eps))
        yield "delta", k, dataclasses.replace(
            H, delta=bumped(H.delta, k, k * d + (k + 1) % d))


def test_one_pass_laws_match_the_per_pair_references():
    failed = set()
    for key, H in corpus_inputs().items():
        assert rewritten_entries(H) == reference_checks(H).items, key
        assert all(c.passed for c in rewritten_entries(H)), key
        assert H.eps_rows == reference_eps_rows(H), key
        for kind, k, X in mutants(H):
            ref = reference_checks(X).items
            assert rewritten_entries(X) == ref, (key, kind, k)
            assert X.eps_rows == reference_eps_rows(X), (key, kind, k)
            failed.update(c.name for c in ref if not c.passed)
    # the sweep has teeth: each rewritten law fails on some mutant
    assert failed == set(REWRITTEN)


@pytest.mark.parametrize("p", [None, 13])
def test_group_table_with_the_dual_coalgebra_fails_delta_multiplicative(p):
    # kG's product with the Delta, eps and S of (kG)*: a coalgebra, but
    # Delta is not multiplicative
    for name in ("z3", "pair3"):
        G = gp.corpus()[name]
        H = gp.groupoid_algebra(G, p)
        Hd = gp.groupoid_dual(G, H)
        X = wha.WeakHopf(H.alg, Hd.delta, Hd.eps, Hd.s)
        rep = wha.verify_axioms(X)
        for law in ("coassociativity", "counit_left", "counit_right"):
            assert rep.get(law).passed, (name, law)
        assert not rep.get("delta_multiplicative").passed, name
        assert rewritten_entries(X) == reference_checks(X).items, name
        assert X.eps_rows == reference_eps_rows(X), name


def test_product_laws_form_no_per_pair_product(monkeypatch):
    # on every passing corpus input, (k pair3)* among them: no
    # Delta(h)Delta(g) through tensor_mul, no legsum inside a legsum (the
    # old Delta(1) products) and no convolution through Algebra.mul.  On
    # every mutant a failing law takes its witness from its sum, with no
    # Delta(h)Delta(g) formed for it
    calls = {"tensor_mul": 0, "nested legsum": 0, "mul": 0}
    depth = [0]
    tensor_mul, legsum = ag.tensor_mul, la.legsum
    mul = ag.Algebra.mul

    def counted_tensor_mul(*args):
        calls["tensor_mul"] += 1
        return tensor_mul(*args)

    def counted_legsum(*args):
        calls["nested legsum"] += depth[0] > 0
        depth[0] += 1
        try:
            return legsum(*args)
        finally:
            depth[0] -= 1

    def counted_mul(*args):
        calls["mul"] += 1
        return mul(*args)

    inputs = corpus_inputs()
    assert ("pair3*", None) in inputs
    monkeypatch.setattr(ag, "tensor_mul", counted_tensor_mul)
    monkeypatch.setattr(la, "legsum", counted_legsum)
    monkeypatch.setattr(ag.Algebra, "mul", counted_mul)
    for key, H in inputs.items():
        # a fresh object, so that eps_rows is built inside verify_axioms
        assert wha.verify_axioms(dataclasses.replace(H)).ok, key
        # antipode_target, antipode_source and antipode_sandwich multiply
        # once per leg of Delta(e_h); the two convolutions of
        # antipode_unique would add two more per leg
        legs = sum(map(len, H.delta))
        assert calls == {"tensor_mul": 0, "nested legsum": 0,
                         "mul": 3 * legs}, key
        for kind, k, X in mutants(H):
            wha.verify_axioms(X)
            assert calls["tensor_mul"] == 0, (key, kind, k)
        calls["mul"] = 0


def counted_solve(monkeypatch):
    """The algebras `ag.separability_element` is called on from now on."""
    calls = []
    solve = ag.separability_element

    def counted(A, *args, **kwargs):
        calls.append(A)
        return solve(A, *args, **kwargs)

    monkeypatch.setattr(ag, "separability_element", counted)
    return calls


def solve_separable(A):
    try:
        ag.separability_element(A)
    except ag.NotKanzaki:
        return False
    return True


def test_maschke_reads_the_normalized_integral(monkeypatch):
    # kG and (kG)* over Q and over F_13 are separable, and the candidate
    # l1 (x) S(l2) of their normalized left integral l says so, with the
    # verdict of the solve and without running it
    inputs = corpus_inputs()
    separable = {key: solve_separable(H.alg) for key, H in inputs.items()}
    calls = counted_solve(monkeypatch)
    for key, H in inputs.items():
        ints = wha.integrals(H)
        assert ints.normalized_left is not None and separable[key], key
        assert wha.maschke_consistent(H, ints), key
    assert calls == []


@pytest.mark.parametrize("n", [2, 3])
def test_maschke_solves_without_a_normalized_integral(monkeypatch, n):
    # kZn over F_n is not separable and has no normalized left integral
    H = gp.groupoid_algebra(gp.cyclic(n), p=n)
    ints = wha.integrals(H)
    assert ints.normalized_left is None and not solve_separable(H.alg)
    calls = counted_solve(monkeypatch)
    assert wha.maschke_consistent(H, ints)
    assert calls == [H.alg]


@pytest.mark.parametrize("p, verdict", [(None, True), (3, False)])
def test_maschke_solves_when_the_candidate_fails(monkeypatch, p, verdict):
    # the unit of kZ3 is no left integral, and its candidate 1 (x) 1 fails
    # the Casimir law; the solve then decides: kZ3 is separable over Q and
    # not over F_3, where a normalized integral would contradict Maschke
    H = gp.groupoid_algebra(gp.cyclic(3), p)
    ints = wha.integrals(H)
    one = H.alg.unit_sparse()
    assert not ints.left.contains(one)
    calls = counted_solve(monkeypatch)
    fake = dataclasses.replace(ints, normalized_left=one)
    assert wha.maschke_consistent(H, fake) == verdict
    assert calls == [H.alg]


def corpus_spec_files(tmp_path):
    """Spec files of every corpus kG and (kG)*, over Q and over F_13."""
    paths = []
    for (name, p), H in corpus_inputs().items():
        spec = sf.specfile_for(H, name)
        path = tmp_path / ("%s-%s.json" % (name, p))
        sf.dump(sf.SpecFile(spec.kind, name, p, spec.payload), path)
        paths.append(str(path))
    return paths


def test_verify_wha_on_the_corpus_runs_no_separability_solve(monkeypatch,
                                                            tmp_path):
    paths = corpus_spec_files(tmp_path)
    calls = counted_solve(monkeypatch)
    for path in paths:
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(["--format", "machine", "verify-wha", path]) == 0
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert {"name": "maschke", "passed": True} in [
            {k: r.get(k) for k in ("name", "passed")} for r in records], path
    assert calls == []


# integrals, the coalgebra laws and _separates read the stored tables in one
# sum; the per-pair formulations they replaced are kept here as references
def reference_integrals(H):
    d, p, alg = H.dim, H.p, H.alg
    est, ess = H.eps_rows
    images_l = [{} for _ in range(d)]
    images_r = [{} for _ in range(d)]
    for h in range(d):
        for j in range(d):
            diff_l = dict(alg.table[h][j])
            la.sadd_into(diff_l, alg.mul(est[h], {j: 1}), -1, p)
            diff_r = dict(alg.table[j][h])
            la.sadd_into(diff_r, alg.mul({j: 1}, ess[h]), -1, p)
            images_l[j].update((h * d + k, c) for k, c in diff_l.items())
            images_r[j].update((h * d + k, c) for k, c in diff_r.items())
    left = la.kernel(images_l, p)
    normalized = None
    if left.dim:
        try:
            normalized = ag.apply_map(left.basis, la.solve(
                [H.et(b) for b in left.basis], alg.unit_sparse(), p), p)
        except la.NoSolution:
            pass
    return wha.IntegralSpaces(left, la.kernel(images_r, p), normalized)


def reference_coalgebra_checks(H):
    cl = CheckList()
    d, p = H.dim, H.p
    with cl.holds("coassociativity",
                  "(Delta (x) id)Delta = (id (x) Delta)Delta") as law:
        for h in law.over(range(d)):
            dh = H.delta[h]
            law.check((h,), ag.apply_tensor(H.delta, None, dh, d, d, p),
                      ag.apply_tensor(None, H.delta, dh, d, d * d, p))
    for name, text, term in (
            ("counit_left", "(eps (x) id)Delta = id",
             lambda i, j: {j: H.eps[i]}),
            ("counit_right", "(id (x) eps)Delta = id",
             lambda i, j: {i: H.eps[j]})):
        with cl.holds(name, text) as law:
            for h in law.over(range(d)):
                law.check((h,), la.legsum(H.delta[h], d, term, p), {h: 1})
    return cl


def reference_separates(H, e, sub):
    d, p, alg = H.dim, H.p, H.alg
    rows, cols = la.tslices(e, d)
    if not all(sub.contains(v) for v in [*cols.values(), *rows.values()]):
        return False
    one = alg.unit_sparse()
    if la.legsum(e, d, lambda i, j: dict(alg.table[i][j]), p) != one:
        return False
    return all(ag.tensor_mul(alg, alg, la.tensor_sparse(z, one, d, p), e)
               == ag.tensor_mul(alg, alg, e, la.tensor_sparse(one, z, d, p))
               for z in sub.basis)


def coalgebra_mutants(H):
    """Delta(e_k) replaced by its flip or by Delta(e_k+1), and eps changed
    at k: zeroed (or set to 1 where it is 0), or swapped with eps[k+1]."""
    d, p = H.dim, H.p
    for k in range(d):
        row = ({(ij % d) * d + ij // d: c for ij, c in H.delta[k].items()},
               H.delta[(k + 1) % d])
        for kind, r in zip(("delta_flip", "delta_row"), row):
            yield kind, k, dataclasses.replace(
                H, delta=H.delta[:k] + (r,) + H.delta[k + 1:])
        eps = list(H.eps)
        eps[k] = 0 if eps[k] else 1
        yield "eps_zero", k, dataclasses.replace(H, eps=tuple(eps))
        eps = list(H.eps)
        eps[k], eps[(k + 1) % d] = eps[(k + 1) % d], eps[k]
        yield "eps_swap", k, dataclasses.replace(H, eps=tuple(eps))


def test_coalgebra_laws_and_integrals_match_the_per_pair_references():
    failed = set()
    for key, H in corpus_inputs().items():
        assert wha.coalgebra_checks(H).ok, key
        assert wha.integrals(H) == reference_integrals(H), key
        for kind, k, X in [*mutants(H), *coalgebra_mutants(H)]:
            ref = reference_coalgebra_checks(X).items
            # the same verdicts and the same first witness, "basis h"
            assert wha.coalgebra_checks(X).items == ref, (key, kind, k)
            assert wha.integrals(X) == reference_integrals(X), (key, kind, k)
            failed.update(c.name for c in ref if not c.passed)
    assert failed == {"coassociativity", "counit_left", "counit_right"}


def test_separates_matches_the_tensor_mul_casimir_loop():
    for key, H in corpus_inputs().items():
        d, p = H.dim, H.p
        cd, full = H.counital, la.Subspace.full(d, p)
        l = wha.integrals(H).normalized_left
        f = la.legsum(H.d(l), d, lambda i, j: la.tensor_sparse(
            {i: 1}, H.s[j], d, p), p)
        # e_t with its first leg doubled: mu(e_t) = 1 no longer holds
        first = min(cd.e_t)
        bad = {**cd.e_t, first: la.as_scalar(2 * cd.e_t[first], p)}
        one = la.tensor_sparse(H.alg.unit_sparse(), H.alg.unit_sparse(),
                               d, p)
        cases = [(cd.e_t, cd.Ht, True), (cd.e_s, cd.Hs, True),
                 (f, full, True), (bad, cd.Ht, False),
                 # 1 (x) 1 fails the Casimir law (e_c (x) 1 != 1 (x) e_c)
                 (one, full, d == 1)]
        for n, (e, sub, verdict) in enumerate(cases):
            assert (wha._separates(H, e, sub) is None) == verdict, (key, n)
            assert reference_separates(H, e, sub) == verdict, (key, n)


@pytest.mark.parametrize("p", [None, 13])
def test_separates_names_the_first_condition_that_fails(p):
    # kG of the pair groupoid on two objects: Ht is spanned by e_0 and e_3
    # and e_t = e_0 (x) e_0 + e_3 (x) e_3 (flat keys 0 and 15)
    H = gp.groupoid_algebra(gp.pair(2), p)
    cd = H.counital
    d, one = H.dim, H.alg.unit_sparse()
    assert cd.Ht.basis == ({0: 1}, {3: 1}) and cd.e_t == {0: 1, 15: 1}
    assert wha._separates(H, cd.e_t, cd.Ht) is None
    for e, witness in (
            # 2 e_t: its legs lie in Ht, but mu(2 e_t) = 2
            (la.sscale(cd.e_t, 2, p), "mu(e) != 1"),
            # + e_0 (x) e_1: the second leg beside e_0 leaves Ht
            ({**cd.e_t, 1: 1}, "row 0 of e lies outside the subalgebra"),
            # + e_1 (x) e_0: only the first leg beside e_0 leaves Ht
            ({**cd.e_t, 4: 1}, "column 0 of e lies outside the subalgebra"),
            # 1 (x) 1: mu = 1, and e_0 (x) 1 != 1 (x) e_0
            (la.tensor_sparse(one, one, d, p),
             "(z (x) 1)e != e(1 (x) z) at z = basis 0")):
        assert wha._separates(H, e, cd.Ht) == witness
        assert not reference_separates(H, e, cd.Ht)
    # the counital laws record it: kZ2 with S(e_0) = e_0 + e_1 moves the
    # first leg of e_t beside e_0 out of Ht, and the second of e_s out of Hs
    _, _, X = next(mutants(gp.groupoid_algebra(gp.cyclic(2), p)))
    checks = wha.counital(X).checks
    assert [checks.get(name).witness for name in (
        "e_t_separates_Ht", "e_s_separates_Hs")] == [
        "column 0 of e lies outside the subalgebra",
        "row 0 of e lies outside the subalgebra"]


def test_verify_wha_forms_no_product_in_integrals_or_separates(monkeypatch,
                                                              tmp_path):
    # the integral equations read the cells and the Casimir law joins the
    # legs of e to the cells: inside wha.integrals and wha._separates no
    # Algebra.mul and no ag.tensor_mul runs.  The coalgebra laws of a
    # passing input are decided by their one sum, with no per-h rescan
    # through apply_tensor or legsum
    paths = corpus_spec_files(tmp_path)
    entered = {"integrals": 0, "_separates": 0, "coalgebra_checks": 0}
    inside = []
    products = {}

    def stage(name, fn):
        def wrapper(*args):
            entered[name] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    def product(name, fn):
        def wrapper(*args):
            if inside:
                key = (inside[-1], name)
                products[key] = products.get(key, 0) + 1
            return fn(*args)
        return wrapper

    for name in entered:
        monkeypatch.setattr(wha, name, stage(name, getattr(wha, name)))
    monkeypatch.setattr(ag.Algebra, "mul", product("mul", ag.Algebra.mul))
    for owner, name in ((ag, "tensor_mul"), (ag, "apply_tensor"),
                        (la, "legsum")):
        monkeypatch.setattr(owner, name, product(name, getattr(owner, name)))
    for path in paths:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["--format", "machine", "verify-wha", path]) == 0
    # every stage ran on every input (H and its dual; e_t, e_s and the
    # Maschke candidate), and formed no product
    assert entered["integrals"] >= len(paths)
    assert entered["_separates"] >= 3 * len(paths)
    assert entered["coalgebra_checks"] >= 2 * len(paths)
    assert products == {}
