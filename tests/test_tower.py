import dataclasses
import io
from contextlib import redirect_stdout
from fractions import Fraction as F
from math import lcm

import pytest

from weakhopf import algebra as ag
from weakhopf import cli
from weakhopf import corpus
from weakhopf import linalg as la
from weakhopf import specfile as sf
from weakhopf import tower as tw
from weakhopf import wha


@pytest.fixture(scope="module")
def towers():
    return {name: tw.build_tower(cert, 2)
            for name, cert in corpus.standing_extensions().items()}


@pytest.fixture(scope="module")
def pipelines(towers):
    return {name: tw.derive(t) for name, t in towers.items()}


def test_basic_construction_dims():
    for ext, dim in ((corpus.ext_q_q2, 4), (corpus.ext_q_m2, 16),
                     (corpus.ext_q2_m2, 8)):
        cert = ext()
        lvl = tw.basic_construction(cert, ag.relative_tensor_square(cert))
        assert lvl.cert.incl.big.dim == dim


def test_basic_construction_forms_each_left_factor_once(monkeypatch):
    # M2 = M1 (x)_M M1 for Q in M2 (dimension 64): 1,901 Algebra.mul calls
    # with e_a E(e_b e_c) formed once per (a, b, c); 5,485 when it was
    # formed again for every d of the row (a (x) b)(c (x) d)
    cert = tw.build_tower(corpus.ext_q_m2(), 1).levels[0].cert
    q = ag.relative_tensor_square(cert)
    mul = ag.Algebra.mul
    calls = []

    def counting(alg, x, y):
        calls.append(alg)
        return mul(alg, x, y)

    monkeypatch.setattr(ag.Algebra, "mul", counting)
    lvl = tw.basic_construction(cert, q)
    assert lvl.cert.incl.big.dim == 64 and lvl.checks.ok
    assert len(calls) <= 1901


def test_tower_forms_nothing_on_a_known_zero(monkeypatch):
    # building the tower of Q in M2 to level 2: 1,634 Algebra.mul and 3,411
    # apply_map calls with no product, E value or class formed of an empty
    # cell or zero vector; 3,698 and 7,867 when each was formed anyway
    cert = corpus.ext_q_m2()
    mul, apply_map = ag.Algebra.mul, ag.apply_map
    calls = {"mul": 0, "apply_map": 0}

    def counting_mul(alg, x, y):
        calls["mul"] += 1
        return mul(alg, x, y)

    def counting_map(rows, x, p=None):
        calls["apply_map"] += 1
        return apply_map(rows, x, p)

    monkeypatch.setattr(ag.Algebra, "mul", counting_mul)
    monkeypatch.setattr(ag, "apply_map", counting_map)
    t = tw.build_tower(cert, 2)
    assert t.checks.ok
    assert calls["mul"] <= 1634 and calls["apply_map"] <= 3411

    # E.products applies E once per nonempty cell of M2: 512 of 4,096
    E = t.levels[1].cert.E
    fresh = ag.CondExpectation(E.incl, E.rows)
    calls["apply_map"] = 0
    assert fresh.products == E.products
    nonempty = sum(1 for row in E.incl.big.table for cell in row if cell)
    assert calls["apply_map"] == nonempty == 512


def test_derivation_reads_traces_and_measuring_laws_from_tables(monkeypatch):
    # deriving the diagonal plane in M2: 1,607 Algebra.mul calls on M2, each
    # T(x y) read against a covector of y and the measuring laws decided in
    # M1; 2,776 when each was formed as a product in M2
    t = tw.build_tower(corpus.ext_q2_m2(), 2)
    M2 = t.alg(2)
    mul = ag.Algebra.mul
    calls = []

    def counting(alg, x, y):
        calls.append(alg is M2)
        return mul(alg, x, y)

    monkeypatch.setattr(ag.Algebra, "mul", counting)
    assert tw.derive(t)[3].ok
    assert sum(calls) <= 1607


def test_basic_construction_checks(towers):
    for name, t in towers.items():
        for lvl in t.levels:
            assert lvl.checks.ok, (name, [c.name for c in
                                          lvl.checks.failures()])


def test_jones_idempotent_on_q2():
    cert = corpus.ext_q_q2()
    lvl = tw.basic_construction(cert, ag.relative_tensor_square(cert))
    e1 = lvl.e
    assert lvl.cert.incl.big.mul(e1, e1) == e1
    # E_M(e1) = lambda 1 with lambda = 1/2
    down = ag.apply_map(lvl.cert.E.rows, e1)
    assert down == {0: F(1, 2), 1: F(1, 2)}


def test_tower_dims(towers):
    dims = {name: [t.alg(k).dim for k in range(3)]
            for name, t in towers.items()}
    assert dims["q_in_q2"] == [2, 4, 8]
    assert dims["q2_in_m2"] == [4, 8, 16]
    assert dims["q_in_m2"] == [4, 16, 64]


def test_tower_depth3_doubling():
    t = tw.build_tower(corpus.ext_q_q2(), 3)
    assert [t.alg(k).dim for k in range(4)] == [2, 4, 8, 16]
    assert t.checks.ok


def test_tower_relations(towers):
    for name, t in towers.items():
        assert t.checks.ok, (name, [c.name for c in t.checks.failures()])
        for law in ("braid_1_2_1", "braid_2_1_2", "pimsner_popa_right_e1",
                    "pimsner_popa_left_e1", "pimsner_popa_right_e2",
                    "pimsner_popa_left_e2", "restricted_trace_normalized"):
            assert t.checks.get(law).passed, (name, law)


def over_field(cert, p):
    """The certified extension of `cert` rebuilt from its spec over F_p."""
    if p is None:
        return cert
    spec = sf.specfile_for((cert.incl, cert.E, cert.trace), "ext")
    incl, E, trace = sf.build(sf.SpecFile(spec.kind, spec.name, p,
                                          spec.payload))
    return ag.certify_markov(incl, E, ag.find_dual_bases(E), trace)


def pimsner_popa_by_products(t):
    """The former per-x loop of `build_tower`, products in M_k for every
    basis x: {identity: witness of its first failing x, or None}."""
    out = {}
    lam_inv = t.base.lambda_inv
    for k, lvl in enumerate(t.levels, 1):
        incl, ek = lvl.cert.incl, lvl.e
        top, p = incl.big, incl.big.p
        for name, mul in (("pimsner_popa_right_e%d" % k, top.mul),
                          ("pimsner_popa_left_e%d" % k,
                           lambda x, e: top.mul(e, x))):
            out[name] = None
            for x in range(top.dim):
                xe = mul({x: 1}, ek)
                down = ag.apply_map(incl.embed, ag.apply_map(
                    lvl.cert.E.rows, xe, p), p)
                if mul(la.sscale(down, lam_inv, p), ek) != xe:
                    out[name] = "basis %d" % x
                    break
    return out


def pimsner_popa_verdicts(t):
    return {c.name: c.witness for c in t.checks.items
            if c.name.startswith("pimsner_popa")}


PP_TOWERS = (("q_in_q2", corpus.ext_q_q2, 3), ("q2_in_m2", corpus.ext_q2_m2, 2),
             ("s3_z2", corpus.ext_s3_z2, 2))


@pytest.mark.parametrize("p", [None, 13])
def test_pimsner_popa_sums_match_the_product_loop(p, monkeypatch):
    # every identity holds on the corpus towers; with each Jones idempotent
    # doubled, x (2e) = 2 x e but lambda^-1 E(x 2e) 2e = 4 x e, so both
    # sides of every level fail, at the first x of the per-x loop
    for name, ext, depth in PP_TOWERS:
        t = tw.build_tower(over_field(ext(), p), depth)
        want = pimsner_popa_by_products(t)
        assert len(want) == 2 * depth
        assert pimsner_popa_verdicts(t) == want == dict.fromkeys(want), name
    build = tw.basic_construction

    def doubled(cert, q):
        lvl = build(cert, q)
        return dataclasses.replace(lvl, e=la.sscale(lvl.e, 2, cert.incl.big.p))

    monkeypatch.setattr(tw, "basic_construction", doubled)
    for name, ext, depth in PP_TOWERS:
        t = tw.build_tower(over_field(ext(), p), depth)
        want = pimsner_popa_by_products(t)
        assert None not in want.values(), name
        assert pimsner_popa_verdicts(t) == want, name


def denominator(scalars):
    return lcm(*(c.denominator for c in scalars))


@pytest.mark.parametrize("p", [None, 13])
def test_every_level_keeps_an_integral_table(p):
    # M_k is on the basis s [e_a (x) e_b], s the lcm of the denominators of
    # the table's classes: over Q every cell holds ints (on the classes
    # themselves, q_in_q2 had denominators 2, 4, 32, 1024 and 2^21 from M1
    # to M5), and over F_p s = 1, so the table is that of the classes
    for name, ext, depth in (("q_in_q2", corpus.ext_q_q2, 5),
                             ("q2_in_m2", corpus.ext_q2_m2, 2),
                             ("s3_z2", corpus.ext_s3_z2, 2)):
        t = tw.build_tower(over_field(ext(), p), depth)
        assert t.checks.ok, name
        for k, lvl in enumerate(t.levels, 1):
            cells = [c for row in t.alg(k).table for cell in row
                     for _, c in cell]
            assert all(type(c) is int for c in cells), (name, k)
            assert p is None or lvl.s == 1, (name, k)
        if p is None and name == "q_in_q2":
            assert [lvl.s for lvl in t.levels] == [2, 1, 2, 1, 2]
            # the rows of E down from M2 ... M5 keep denominator 2 (4, 8,
            # 64 and 2048 on the classes)
            assert [denominator(c for r in lvl.cert.E.rows
                                for c in r.values())
                    for lvl in t.levels[1:]] == [2, 1, 2, 1]


def test_level_coordinates_are_the_class_coordinates_over_s():
    # e_k = [1 (x) 1] / s and row a of the embedding is [e_a x_i (x) y_i] / s
    # in the section coordinates of the quotient
    t = tw.build_tower(corpus.ext_q_q2(), 3)
    for k, lvl in enumerate(t.levels, 1):
        M, cert = t.alg(k - 1), (t.base if k == 1 else t.levels[k - 2].cert)
        one = M.unit_sparse()
        q, s, m = lvl.quotient, lvl.s, M.dim
        assert la.sscale(lvl.e, s) == q.project_legs([(one, one)], m), k
        for a, row in enumerate(lvl.cert.incl.embed):
            legs = [(M.mul({a: 1}, x), y) for x, y in
                    zip(cert.dual_bases.xs, cert.dual_bases.ys)]
            assert la.sscale(row, s) == q.project_legs(legs, m), (k, a)


def test_passing_tower_forms_no_kronecker_vector_or_per_basis_product(
        tmp_path, monkeypatch):
    # `tower q_in_m2 --depth 2`: the classes of the basic construction and
    # the projection of the relative tensor square are read off the
    # quotient and the table with no tensor_sparse (858 Kronecker vectors
    # when each class projected one); N-linearity reads E's table with no
    # Algebra.mul; the Pimsner-Popa sums form emb(e_z) e and e emb(e_z)
    # once per basis z of M_{k-1}, 2 (4 + 16) products, and none per basis
    # x of M_k (two per x and side when each case was formed, 320 in all)
    cert = corpus.ext_q_m2()
    path = tmp_path / "q_in_m2.json"
    sf.dump(sf.specfile_for((cert.incl, cert.E, cert.trace), "q_in_m2"), path)
    stages = ((tw, "basic_construction"), (ag, "relative_tensor_square"),
              (ag, "make_cond_expectation"), (ag, "pimsner_popa"))
    entered = {name: 0 for _, name in stages}
    inside, calls = [], {}

    def stage(name, fn):
        def wrapper(*args):
            entered[name] += 1
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return wrapper

    def counted(name, fn):
        def wrapper(*args):
            if inside:
                calls[inside[-1], name] = calls.get((inside[-1], name), 0) + 1
            return fn(*args)
        return wrapper

    for owner, name in stages:
        monkeypatch.setattr(owner, name, stage(name, getattr(owner, name)))
    kron = counted("tensor_sparse", la.tensor_sparse)
    monkeypatch.setattr(la, "tensor_sparse", kron)
    monkeypatch.setattr(tw, "tensor_sparse", kron)
    monkeypatch.setattr(ag.Algebra, "mul", counted("mul", ag.Algebra.mul))
    with redirect_stdout(io.StringIO()):
        assert cli.main(["tower", str(path), "--depth", "2"]) == 0
    assert entered == {"basic_construction": 2, "relative_tensor_square": 2,
                       "make_cond_expectation": 3, "pimsner_popa": 2}
    for name in ("basic_construction", "relative_tensor_square"):
        assert (name, "tensor_sparse") not in calls
    assert ("make_cond_expectation", "mul") not in calls
    assert calls[("pimsner_popa", "mul")] == 2 * (4 + 16)


def test_lattice_dims(pipelines):
    expected = {
        "q_in_q2": (2, 2, 2, 4, 4, 8),
        "q2_in_m2": (2, 2, 2, 4, 4, 8),
        "q_in_m2": (4, 4, 4, 16, 16, 64),
    }
    for name, (ctx, lat, res, full) in pipelines.items():
        dims = tuple(s.dim for s in (lat.U, lat.V, lat.W, lat.A, lat.B,
                                     lat.C))
        assert dims == expected[name], name
        assert lat.checks.ok, name


def test_depth2_succeeds(pipelines):
    for name, (ctx, lat, res, full) in pipelines.items():
        d2 = res["depth2"]
        assert len(d2.zs) >= 1 and len(d2.us) >= 1, name


def test_explicit_dual_bases_of_E_M1_lie_in_V(pipelines):
    # Q in M2 has Z(U) = Z(N), so the dual bases (x_i, y_i) of E give dual
    # bases of E_M1 inside V = C_M1(M): x'_i = x_j x_i e1 y_j and
    # y'_i = x_j y_i e1 y_j
    ctx = pipelines["q_in_m2"][0]
    t = ctx.t
    M, db = t.base.incl.big, t.base.dual_bases
    e1 = t.levels[0].e

    def primed(v):
        out = {}
        for x, y in zip(db.xs, db.ys):
            la.sadd_into(out, ctx.M1.mulm(t.embed(0, 1, M.mul(x, v)), e1,
                                          t.embed(0, 1, y)), 1, ctx.p)
        return out

    xs1 = tuple(primed(x) for x in db.xs)
    ys1 = tuple(primed(y) for y in db.ys)
    assert all(ctx.V1.contains(v) for v in xs1 + ys1)
    assert ag.verify_dual_bases(t.levels[0].cert.E,
                                ag.DualBases(xs1, ys1, None))


def test_depth2_fails_when_constrained_wrongly():
    cert = corpus.ext_q_m2()
    t = tw.build_tower(cert, 2)
    ctx = tw.DepthTwoContext(t)
    # force the solver into a strict subspace of A where no dual bases fit
    ones = la.Subspace.from_vectors(
        ctx.M1.dim, [ctx.M1.unit_sparse()])
    with pytest.raises(ag.NoDualBases):
        ag.find_dual_bases(ctx.lv1.cert.E, within=ones)


def test_expectation_suite(pipelines):
    for name, (ctx, lat, res, full) in pipelines.items():
        ep = res["expectations"]
        assert ep.checks.ok, (name, [c.name for c in ep.checks.failures()])


def test_E_B_of_e1_value():
    cert = corpus.ext_q_q2()
    t = tw.build_tower(cert, 2)
    ctx = tw.DepthTwoContext(t)
    d2 = tw.depth2_check(ctx)
    ep = tw.conditional_expectations(ctx, d2)
    val = ag.apply_map(ep.E_B_rows, ctx.C.coords(ctx.e1))
    assert val == la.sscale(ctx.M2.unit_sparse(), F(1, 2))


def test_E_B_outside_C_names_the_basis_element_left(pipelines):
    # q2 in M2: C is spanned by the M2 basis elements 0 2 4 6 9 11 13 15;
    # M2's basis is 2 [e_a (x) e_b] (s = 2), so the images of M are
    # e_0 + e_6, e_1 + e_7, e_8 + e_14 and e_9 + e_15
    ctx, _, res, _ = pipelines["q2_in_m2"]
    ep = res["expectations"]
    assert ctx.lv2.s == 2
    assert ctx.M_in_M2[0] == {0: 1, 6: 1}
    assert ep.E_B(ctx.M_in_M2[0]) == ag.apply_map(ep.E_B_rows, {0: 1, 3: 1})
    for x, left in ((ctx.M_in_M2[1], 1), (ctx.M1_in_M2[3], 7),
                    ({0: 1, 5: 3, 9: 1}, 5)):
        with pytest.raises(ag.NotClosed, match=r"^E_B applied outside C: "
                           r"M2 basis %d is left after reducing by C$" % left):
            ep.E_B(x)


def test_pairing_rank(pipelines):
    for name, (ctx, lat, res, full) in pipelines.items():
        pd = res["pairing"]
        nA, nB = lat.A.dim, lat.B.dim
        assert la.rank(pd.gram, nB, ctx.p) == nA == nB, name
        assert la.rank(pd.gram2, nA, ctx.p) == nA, name
        # gram_t is the transpose of gram, entry for entry
        assert {(j, i, c) for i, r in enumerate(pd.gram)
                for j, c in r.items()} == \
            {(j, i, c) for j, r in enumerate(pd.gram_t)
             for i, c in r.items()}, name


def test_derived_axioms_and_counitals(pipelines):
    for name, (ctx, lat, res, full) in pipelines.items():
        dw = res["derived"]
        for c in dw.checks.items:
            assert c.passed, (name, c.name, c.witness)
        assert wha.verify_axioms(dw.B).ok, name
        assert wha.verify_axioms(dw.A).ok, name


def test_actions_and_isos(pipelines):
    for name, (ctx, lat, res, full) in pipelines.items():
        assert full.ok, (name, [c.name for c in full.failures()])
        assert res["smash_B"].alg.dim == ctx.M2.dim, name
        assert res["smash_A"].alg.dim == ctx.M1.dim, name


def test_derived_B_not_hopf_when_V_is_big(pipelines):
    for name, (ctx, lat, res, full) in pipelines.items():
        assert not wha.is_hopf(res["derived"].B), name


def test_degeneration_is_hopf():
    cert = corpus.ext_trivial_m2()
    assert cert.U.dim == 1
    t = tw.build_tower(cert, 2)
    ctx, lat, res, full = tw.derive(t)
    assert full.ok, [c.name for c in full.failures()]
    assert wha.is_hopf(res["derived"].B)


def test_non_depth2_counterexample():
    # a fully certified Markov extension whose tower is not depth 2: the
    # group pair with a non-normal subgroup of index 3
    cert = corpus.ext_s3_z2()
    assert cert.checks.ok and cert.lambda_inv == 3
    t = tw.build_tower(cert, 2)
    assert t.checks.ok
    ctx = tw.DepthTwoContext(t)
    with pytest.raises(tw.Depth2Failure):
        tw.depth2_check(ctx)


# ---------------------------------------------------------------------------
# references: the former per-case loops of the two measuring laws through
# E_M1, each side formed with M1.mul and legsum

def expectation_measuring_by_cases(ctx, dw):
    """The first (y, x, j) where E_M1(e2 w y x b_j) differs from
    lambda^-1 E_M1(e2 w y b_j2) w^-1 E_M1(e2 w x b_j1), in M1, or None."""
    p, M1, nB = ctx.p, ctx.M1, dw.B.dim
    unemb2 = ctx.lv2.cert.E.E_small
    e2w = ctx.mul(ctx.e2, dw.pd.w)
    w_inv_M1 = unemb2(dw.pd.w_inv)
    q = [[unemb2(ctx.mul(e2w, x, b)) for x in ctx.M1_in_M2]
         for b in dw.bhat]
    qw = [[M1.mul(v, w_inv_M1) for v in row] for row in q]
    lam_delta = [la.sscale(r, ctx.lam_inv, p) for r in dw.B.delta]
    for y in range(M1.dim):
        for x in range(M1.dim):
            yx = dict(M1.table[y][x])
            for j in range(nB):
                lhs = ag.apply_map(q[j], yx, p)
                rhs = la.legsum(lam_delta[j], nB, lambda k, l: (
                    M1.mul(qw[l][y], q[k][x])), p)
                if lhs != rhs:
                    return y, x, j
    return None


def expectation_measuring_form_by_cases(ctx, dw):
    """The first (j, x, y) where E_M1(b_j x y e2) differs from
    lambda^-1 E_M1(b_j1 x e2) E_M1(b_j2 y e2), in M1, or None."""
    p, M1, nB = ctx.p, ctx.M1, dw.B.dim
    E_M1 = ctx.lv2.cert.E.rows
    r_tab = [[ag.apply_map(E_M1, ctx.mul(b, x, ctx.e2), p)
              for x in ctx.M1_in_M2] for b in dw.bhat]
    lam_delta = [la.sscale(r, ctx.lam_inv, p) for r in dw.B.delta]
    for j in range(nB):
        for x in range(M1.dim):
            for y in range(M1.dim):
                lhs = ag.apply_map(r_tab[j], dict(M1.table[x][y]), p)
                rhs = la.legsum(lam_delta[j], nB, lambda k, l: M1.mul(
                    r_tab[k][x], r_tab[l][y]), p)
                if lhs != rhs:
                    return j, x, y
    return None


def derive_with_b_delta(monkeypatch, cert, mutate):
    """tw.derive on the tower of cert, with the rows of B's Delta passed
    through mutate(rows, dim B); B, the first weak Hopf algebra of a
    derivation, is bundled without its coalgebra checks."""
    make, made = wha.make_weakhopf, []

    def bundle(alg, delta, eps, s):
        if made:
            return make(alg, delta, eps, s)
        made.append(alg)
        return wha.WeakHopf(alg, ag.map_rows(mutate(delta, alg.dim), alg.p),
                            tuple(la.as_scalar(c, alg.p) for c in eps),
                            ag.map_rows(s, alg.p))

    monkeypatch.setattr(wha, "make_weakhopf", bundle)
    out = tw.derive(tw.build_tower(cert, 2))
    monkeypatch.undo()
    return out


B_DELTA_MUTANTS = {
    "delta_cop": lambda rows, n: [{ij % n * n + ij // n: c
                                   for ij, c in r.items()} for r in rows],
    "row_3_doubled": lambda rows, n: [{k: 2 * c for k, c in r.items()}
                                      if j == 3 else r
                                      for j, r in enumerate(rows)]}


def test_expectation_measuring_laws_match_their_per_case_loops(
        pipelines, monkeypatch):
    # the corpus derivations, and q_in_m2 over F_13 with B's Delta
    # replaced by Delta^cop or with its row 3 doubled: each law names the
    # first tuple that its per-case loop finds, (0, 0, 0) or later
    runs = dict(pipelines)
    cert = corpus.ext_q_m2()
    spec = sf.specfile_for((cert.incl, cert.E, cert.trace), "q_in_m2")
    incl, E, trace = sf.build(sf.SpecFile(spec.kind, spec.name, 13,
                                          spec.payload))
    cert = ag.certify_markov(incl, E, ag.find_dual_bases(E), trace)
    for name, mutate in B_DELTA_MUTANTS.items():
        runs[name] = derive_with_b_delta(monkeypatch, cert, mutate)
    found = {}
    for name, (ctx, _, res, full) in runs.items():
        dw = res["derived"]
        refs = (expectation_measuring_by_cases(ctx, dw),
                expectation_measuring_form_by_cases(ctx, dw))
        found[name] = tuple(full.get(law).witness for law in (
            "expectation_measuring", "expectation_measuring_form"))
        assert found[name] == tuple(
            None if w is None else "(%d, %d, %d)" % w for w in refs), name
    assert found == {"q_in_q2": (None, None), "q_in_m2": (None, None),
                     "q2_in_m2": (None, None),
                     "delta_cop": ("(0, 0, 0)", "(0, 0, 0)"),
                     "row_3_doubled": ("(0, 0, 3)", "(3, 4, 2)")}
