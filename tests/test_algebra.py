import ast
import copy
import pathlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakhopf import algebra as ag
from weakhopf import corpus
from weakhopf import linalg as la
from weakhopf import specfile as sf
from weakhopf import tower as tw


def test_field_algebra_valid():
    assert corpus.field_algebra().dim == 1


def test_diagonal_product():
    q2 = corpus.diagonal_algebra(2)
    assert q2.mul({0: F(1)}, {1: F(1)}) == {}
    assert q2.mul({0: F(2)}, {0: F(3)}) == {0: F(6)}


def test_rejects_non_associative(monkeypatch):
    # basis 1, a, b with a*a = b, a*b = 0, b*a = a: (aa)a = a but a(aa) = 0
    bad = [[{0: F(1)}, {1: F(1)}, {2: F(1)}],
           [{1: F(1)}, {2: F(1)}, {}],
           [{2: F(1)}, {1: F(1)}, {}]]
    products = []
    mul = ag.Algebra.mul

    def counted_mul(*args):
        products.append(args)
        return mul(*args)

    monkeypatch.setattr(ag.Algebra, "mul", counted_mul)
    with pytest.raises(ag.NotAssociative) as exc:
        ag.make_algebra(bad, (F(1), F(0), F(0)))
    assert exc.value.witness == (1, 1, 1, {1: 1}, {})
    # the least key of the failing row's sum names (1, 1, 1): only its two
    # sides are multiplied, for the witness
    assert len(products) == 2


def unital(products, dim, p=None):
    """make_algebra on e_0 = 1 and the given products of e_1.. e_{dim-1},
    written as {(i, j): {n: "a/b"}}; missing products are zero."""
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        table[0][i] = table[i][0] = {i: 1}
    for (i, j), cell in products.items():
        table[i][j] = {n: la.parse_scalar(c, p) for n, c in cell.items()}
    return ag.make_algebra(table, [1] + [0] * (dim - 1), p=p)


def test_rejects_a_triple_with_a_structurally_empty_side():
    # a a = b, a b = c, all else zero: only (a a) a = 0 != c = a (a a),
    # and no term of (a a) a exists at all (b a is an empty cell)
    with pytest.raises(ag.NotAssociative) as exc:
        unital({(1, 1): {2: "1"}, (1, 2): {3: "1"}}, 4)
    assert exc.value.witness == (1, 1, 1, {}, {3: 1})


def fractional_diagonal(c, p=None):
    """Q^3 in the basis 1, f1/2 + f2/3, f2 when c = -1/18: then
    e1 e1 = e1/2 + c e2 and (e1 e1) e2 = (1/6 + c) e2 = e2/9 = e1 (e1 e2)
    only through exact cancellation of 1/6 against 1/18."""
    return unital({(1, 1): {1: "1/2", 2: c}, (1, 2): {2: "1/3"},
                   (2, 1): {2: "1/3"}, (2, 2): {2: "1"}}, 3, p)


def test_fractional_terms_cancel_exactly():
    assert fractional_diagonal("-1/18").dim == 3
    off = "-%d/%d" % (10 ** 12 + 18, 18 * 10 ** 12)  # -1/18 - 10^-12
    with pytest.raises(ag.NotAssociative) as exc:
        fractional_diagonal(off)
    assert exc.value.witness[:3] == (1, 1, 2)


def test_associative_mod_13_only():
    # -1/18 + 13 is -1/18 in F_13 and not in Q
    assert fractional_diagonal("233/18", 13).dim == 3
    with pytest.raises(ag.NotAssociative) as exc:
        fractional_diagonal("233/18")
    assert exc.value.witness == (1, 1, 2, {2: F(118, 9)}, {2: F(1, 9)})


def test_rejects_bad_unit():
    table = [[{0: F(1)}, {}], [{}, {1: F(1)}]]
    with pytest.raises(ag.BadUnit):
        ag.make_algebra(table, (F(1), F(0)))


def test_center_of_matrix_algebra():
    m2 = corpus.matrix_algebra(2)
    cen = ag.centralizer(m2, la.Subspace.full(4))
    assert cen.dim == 1
    assert cen.contains({0: F(1), 3: F(1)})


def test_centralizer_of_scalars_is_everything():
    m2 = corpus.matrix_algebra(2)
    ones = la.Subspace.from_vectors(4, [{0: F(1), 3: F(1)}])
    assert ag.centralizer(m2, ones) == la.Subspace.full(4)


def test_centralizer_of_diagonal():
    m2 = corpus.matrix_algebra(2)
    diag = la.Subspace.from_vectors(4, [{0: F(1)}, {3: F(1)}])
    assert ag.centralizer(m2, diag) == diag


@pytest.mark.parametrize("p", [None, 13], ids=["Q", "F13"])
def test_right_inverse(p):
    m2 = corpus.matrix_algebra(2, p)
    x = {i: la.as_scalar(c, p) for i, c in enumerate((1, 2, 3, 4))}
    assert m2.mul(x, ag.right_inverse(m2, x)) == m2.unit_sparse()
    with pytest.raises(la.NoSolution):
        ag.right_inverse(m2, {0: 1})


def test_dual_bases_q2():
    cert = corpus.ext_q_q2()
    assert cert.lambda_inv == 2
    # the dual-bases tensor is e1 (x) e1 + e2 (x) e2 scaled by 2
    tensor = {}
    for x, y in zip(cert.dual_bases.xs, cert.dual_bases.ys):
        for i, ci in x.items():
            for j, cj in y.items():
                tensor[(i, j)] = tensor.get((i, j), 0) + ci * cj
    assert tensor == {(0, 0): F(2), (1, 1): F(2)}


def test_dual_bases_m2_trace():
    cert = corpus.ext_q_m2()
    assert cert.lambda_inv == 4
    tensor = {}
    for x, y in zip(cert.dual_bases.xs, cert.dual_bases.ys):
        for i, ci in x.items():
            for j, cj in y.items():
                tensor[(i, j)] = tensor.get((i, j), 0) + ci * cj
    # 2 e_ab (x) e_ba summed over matrix units
    assert tensor == {(0, 0): F(2), (1, 2): F(2), (2, 1): F(2), (3, 3): F(2)}


def test_dual_bases_infeasible_within():
    cert = corpus.ext_q_m2()
    # constrain to the scalars: no dual bases fit in a 1-dim space
    ones = la.Subspace.from_vectors(4, [{0: F(1), 3: F(1)}])
    with pytest.raises(ag.NoDualBases):
        ag.find_dual_bases(cert.E, within=ones)


def test_is_symmetric_diag_projection():
    cert = corpus.ext_q2_m2()
    ok, witness = ag.is_symmetric(cert.E, cert.U)
    assert ok and witness is None


def test_markov_witness_text_ignores_the_scalar_type():
    # the same dual bases with int and with Fraction(n, 1) coefficients
    incl, E = corpus.skewed_expectation()
    db = ag.find_dual_bases(E)
    frac = [tuple({i: F(c) for i, c in r.items()} for r in rows)
            for rows in (db.xs, db.ys)]
    witnesses = [ag.certify_markov(incl, E, d, (F(1),)).checks.get(
        "symmetric_product").witness
        for d in (db, ag.DualBases(frac[0], frac[1], db.lambda_inv))]
    assert witnesses == ["{0: 6, 3: 3}"] * 2


def test_inclusion_image_is_the_span_of_the_embedding():
    certs = dict(corpus.standing_extensions(), s3_z2=corpus.ext_s3_z2())
    for name, cert in certs.items():
        incl = cert.incl
        assert incl.image == la.Subspace.from_vectors(
            incl.big.dim, incl.embed, incl.big.p), name
        assert incl.image is incl.image


def test_skewed_expectation_not_symmetric():
    incl, E = corpus.skewed_expectation()
    U = ag.centralizer(incl.big, incl.image)
    ok, witness = ag.is_symmetric(E, U)
    assert not ok
    assert witness is not None


def test_kanzaki_q2():
    f = ag.kanzaki_element(corpus.diagonal_algebra(2))
    assert f == {0: F(1), 3: F(1)}


def test_kanzaki_m2():
    f = ag.kanzaki_element(corpus.matrix_algebra(2))
    assert f == {0: F(1, 2), 6: F(1, 2), 9: F(1, 2), 15: F(1, 2)}


def test_kanzaki_rejects_m2_f2():
    with pytest.raises(ag.NotKanzaki):
        ag.kanzaki_element(corpus.matrix_algebra(2, p=2))


def test_separability_without_symmetry_still_exists_m2_f2():
    # M_p over F_p is separable, just not Kanzaki separable
    f = ag.separability_element(corpus.matrix_algebra(2, p=2))
    assert f


def test_certificates_all_flags():
    for name, cert in corpus.standing_extensions().items():
        assert cert.checks.ok, (name, cert.checks.failures())
        for check in ("symmetric", "strongly_separable",
                      "symmetric_product", "U_kanzaki", "T0_U_nondegenerate"):
            assert cert.checks.get(check).passed, (name, check)


def test_expected_lambdas():
    assert corpus.ext_q_q2().lambda_inv == 2
    assert corpus.ext_q_m2().lambda_inv == 4
    assert corpus.ext_q2_m2().lambda_inv == 2


def test_nondegenerate_trace_implies_symmetric():
    # the Markov traces of the standing corpus are non-degenerate on N,
    # so symmetry must come out true
    for name, cert in corpus.standing_extensions().items():
        small = cert.incl.small
        tdu = ag.trace_dual_bases(small, cert.trace)
        if tdu is not None:
            assert cert.checks.get("symmetric").passed, name


def test_relative_tensor_square_dims():
    assert ag.relative_tensor_square(corpus.ext_q_q2()).dim == 4
    assert ag.relative_tensor_square(corpus.ext_q2_m2()).dim == 8
    assert ag.relative_tensor_square(corpus.ext_q_m2()).dim == 16


def test_subalgebra_requires_closure():
    m2 = corpus.matrix_algebra(2)
    not_closed = la.Subspace.from_vectors(4, [{1: F(1)}, {2: F(1)}])
    with pytest.raises(ag.NotClosed):
        ag.subalgebra(m2, not_closed)


def test_not_closed_names_the_basis_pair_or_the_unit():
    # span(e01, e10): e01 e01 = 0 stays, e01 e10 = e00 leaves; span(e00) is
    # closed under the product but misses the unit e00 + e11
    m2 = corpus.matrix_algebra(2)
    with pytest.raises(ag.NotClosed, match=r"^V: the product of basis pair "
                       r"\(0, 1\) leaves the subspace$"):
        ag.subalgebra(m2, la.Subspace.from_vectors(4, [{1: 1}, {2: 1}]), "V")
    with pytest.raises(ag.NotClosed, match="^e00: the unit leaves the "
                       "subspace$"):
        ag.subalgebra(m2, la.Subspace.from_vectors(4, [{0: 1}]), "e00")


# ---------------------------------------------------------------------------
# the conditional-expectation laws: pair form against the triple form


def diagonal_in_m2():
    """Q^2 inside M2(Q) as the diagonal (matrix units e11, e12, e21, e22)."""
    return ag.make_inclusion(corpus.diagonal_algebra(2),
                             corpus.matrix_algebra(2), [{0: F(1)}, {3: F(1)}])


def test_expectation_not_right_linear_is_rejected():
    # fixes the diagonal, sends e12 to e11: E(e12 e11) = 0 != E(e12) e11
    rows = [{0: F(1)}, {0: F(1)}, {}, {1: F(1)}]
    with pytest.raises(ValueError, match=r"not right N-linear at \(1, 0\)"):
        ag.make_cond_expectation(diagonal_in_m2(), rows)


def test_expectation_not_left_linear_is_rejected():
    # the mirror: e21 to e11, so E(e11 e21) = 0 != e11 E(e21)
    rows = [{0: F(1)}, {}, {0: F(1)}, {1: F(1)}]
    with pytest.raises(ValueError, match=r"not left N-linear at \(0, 2\)"):
        ag.make_cond_expectation(diagonal_in_m2(), rows)


def fixes_small(incl, rows):
    E = ag.CondExpectation(incl, ag.map_rows(rows))
    return all(E.E_small(incl.emb({i: 1}))
               == {i: 1} for i in range(incl.small.dim))


def accepted_by_triples(incl, rows):
    """The former check: E fixes N and E(a x b) = a E(x) b on every triple."""
    if not fixes_small(incl, rows):
        return False
    E = ag.CondExpectation(incl, ag.map_rows(rows))
    small, big = incl.small, incl.big
    for a in range(small.dim):
        ea = incl.emb({a: 1})
        for x in range(big.dim):
            ex = {x: 1}
            for b in range(small.dim):
                eb = incl.emb({b: 1})
                lhs = E.E_small(big.mulm(ea, ex, eb))
                rhs = small.mulm({a: 1}, E.E_small(ex), {b: 1})
                if lhs != rhs:
                    return False
    return True


def accepted_by_pairs(incl, rows):
    try:
        ag.make_cond_expectation(incl, rows)
    except ValueError:
        return False
    return True


def corpus_expectations():
    """(name, inclusion, E rows) of the corpus and of their first towers."""
    out = []
    certs = dict(corpus.standing_extensions(), s3_z2=corpus.ext_s3_z2(),
                 trivial_m2=corpus.ext_trivial_m2())
    for name, cert in certs.items():
        out.append((name, cert.incl, cert.E.rows))
    for name, cert in corpus.standing_extensions().items():
        lvl = tw.basic_construction(cert, ag.relative_tensor_square(cert))
        out.append((name + ":M1", lvl.cert.incl, lvl.cert.E.rows))
    incl, E = corpus.skewed_expectation()
    out.append(("skewed", incl, E.rows))
    return out


def perturbed(rows, small_dim, rng):
    """E rows with one or two entries shifted by a small nonzero integer."""
    rows = [dict(r) for r in rows]
    for _ in range(rng.choice((1, 2))):
        r = rows[rng.randrange(len(rows))]
        k = rng.randrange(small_dim)
        r[k] = r.get(k, F(0)) + rng.choice((-2, -1, 1, 2))
        if r[k] == 0:
            del r[k]
    return rows


def test_pair_form_agrees_with_triple_form():
    rng = random.Random(5)
    verdicts = set()
    for name, incl, rows in corpus_expectations():
        assert accepted_by_pairs(incl, rows) and \
            accepted_by_triples(incl, rows), name
        for trial in range(6):
            bad = perturbed(rows, incl.small.dim, rng)
            want = accepted_by_triples(incl, bad)
            assert accepted_by_pairs(incl, bad) == want, (name, trial)
            verdicts.add((fixes_small(incl, bad), want))
    # some perturbations fix N and still fail bimodularity, some pass
    assert {(True, True), (True, False)} <= verdicts


def bimodularity_by_pairs(incl, rows):
    """The former per-pair loop of `make_cond_expectation`: the text of its
    first failure, in the order (x, a, left then right), or None."""
    E = ag.CondExpectation(incl, ag.map_rows(rows, incl.big.p))
    small, emb, p = incl.small, incl.embed, incl.big.p
    table = small.table
    cols = tuple(zip(*table))
    for a in range(small.dim):
        if E.E_small(emb[a]) != {a: 1}:
            return "E o embed != id at basis %d" % a
    for x in range(incl.big.dim):
        Ex = E.rows[x]
        for a in range(small.dim):
            if E._E_xm(emb[a], x) != ag.cell_sum(table[a], Ex, p):
                return "E not left N-linear at (%d, %d)" % (a, x)
            if E._E_mx(x, emb[a]) != ag.cell_sum(cols[a], Ex, p):
                return "E not right N-linear at (%d, %d)" % (x, a)
    return None


def refusal(incl, rows):
    try:
        ag.make_cond_expectation(incl, rows)
    except ValueError as exc:
        return str(exc)
    return None


def tower_certs(p):
    """{name: certificate} of the corpus extensions and of the levels of
    the q_in_q2, q2_in_m2 and s3_z2 towers, over Q or F_p."""
    certs = dict(corpus.standing_extensions(), s3_z2=corpus.ext_s3_z2(),
                 trivial_m2=corpus.ext_trivial_m2(), q_in_q3=corpus.ext_q_q3())
    if p is not None:
        certs = {name: over_field(cert, p) for name, cert in certs.items()}
    for name, depth in (("q_in_q2", 3), ("q2_in_m2", 2), ("s3_z2", 2)):
        for k, lvl in enumerate(tw.build_tower(certs[name], depth).levels, 1):
            certs["%s:M%d" % (name, k)] = lvl.cert
    return certs


@pytest.mark.parametrize("p", [None, 13])
def test_bimodularity_names_the_first_pair_of_the_pair_loop(p):
    # E rows with one or two entries shifted: the same refusal text, so the
    # same first (x, a, side), as the per-pair loop
    rng = random.Random(11)
    texts = set()
    for name, cert in tower_certs(p).items():
        incl, rows = cert.incl, cert.E.rows
        assert refusal(incl, rows) is None
        assert bimodularity_by_pairs(incl, rows) is None, name
        for trial in range(8):
            bad = [{k: la.as_scalar(c, p) for k, c in r.items()}
                   for r in perturbed(rows, incl.small.dim, rng)]
            want = bimodularity_by_pairs(incl, bad)
            assert refusal(incl, bad) == want, (name, trial)
            texts.add(want and want.split(" at ")[0])
    assert {"E not left N-linear", "E not right N-linear"} <= texts


def dual_bases_by_products(E, db):
    """The former loop of `verify_dual_bases`, two products in big per
    (m, i): the first failing basis m, or None."""
    big, p = E.incl.big, E.incl.big.p
    for m in range(big.dim):
        acc1, acc2 = {}, {}
        for x, y in zip(db.xs, db.ys):
            if ex := E._E_mx(m, x):
                la.sadd_into(acc1, big.mul(E.incl.emb(ex), y), 1, p)
            if ey := E._E_xm(y, m):
                la.sadd_into(acc2, big.mul(x, E.incl.emb(ey)), 1, p)
        if acc1 != {m: 1} or acc2 != {m: 1}:
            return m
    return None


def dual_bases_failure(E, db):
    try:
        ag.verify_dual_bases(E, db)
    except ag.NoDualBases as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("p", [None, 13])
def test_dual_bases_fail_at_the_basis_of_the_product_loop(p):
    # each y_i rescaled by 2 in turn: NoDualBases at the same basis m
    failing = 0
    for name, cert in tower_certs(p).items():
        E, db = cert.E, cert.dual_bases
        assert dual_bases_by_products(E, db) is None
        assert dual_bases_failure(E, db) is None, name
        two = la.as_scalar(2, p)
        for i in range(len(db.ys)):
            ys = list(db.ys)
            ys[i] = la.sscale(ys[i], two, p)
            bad = ag.DualBases(db.xs, tuple(ys), None)
            m = dual_bases_by_products(E, bad)
            assert dual_bases_failure(E, bad) == (
                None if m is None else
                "dual bases fail re-verification at basis %d" % m), (name, i)
            failing += m is not None
    assert failing


def unit_law_by_products(alg):
    """The former unit law of `make_algebra`, two products per basis
    element: the first failing (i, side), or None."""
    ud = alg.unit_sparse()
    for i in range(alg.dim):
        ei = {i: 1}
        if alg.mul(ud, ei) != ei:
            return i, "left"
        if alg.mul(ei, ud) != ei:
            return i, "right"
    return None


def test_unit_law_fails_at_the_element_of_the_product_loop():
    # each unit coordinate shifted by 1 in turn: the same BadUnit witness
    sides = set()
    for name, alg in corpus_algebras():
        structure = [[dict(cell) for cell in row] for row in alg.table]
        assert unit_law_by_products(alg) is None, name
        for k in range(alg.dim):
            unit = list(alg.unit)
            unit[k] = la.residue(unit[k] + 1, alg.p)
            want = unit_law_by_products(
                ag.Algebra(alg.dim, alg.table, tuple(unit), None, alg.p))
            with pytest.raises(ag.BadUnit) as info:
                ag.make_algebra(structure, unit, p=alg.p)
            assert info.value.witness == want, (name, k)
            assert str(info.value) == "unit fails on e%d (%s)" % want
            sides.add(want[1])
    assert sides == {"left", "right"}


def nondegeneracy_rank_dense(E):
    """The former check: rank of the dense dim M x (dim M dim N) matrix."""
    small, big = E.incl.small, E.incl.big
    rows = []
    for x in range(big.dim):
        row = []
        for j in range(big.dim):
            v = E.E_small(big.mul({x: 1}, {j: 1}))
            row.extend(la.dense(v, small.dim))
        rows.append(la.sparse(row))
    return la.rank(rows, big.dim * small.dim, big.p)


def test_verified_dual_bases_make_E_nondegenerate():
    # certify_markov reads E_nondegenerate off the dual bases it verifies:
    # x = E(x x_i) y_i.  The dense rank is full on every corpus certificate
    certs = dict(corpus.standing_extensions(), s3_z2=corpus.ext_s3_z2(),
                 trivial_m2=corpus.ext_trivial_m2(), q_in_q3=corpus.ext_q_q3())
    for name, cert in corpus.standing_extensions().items():
        certs[name + ":M1"] = tw.basic_construction(
            cert, ag.relative_tensor_square(cert)).cert
    for name, cert in certs.items():
        assert cert.checks.get("E_nondegenerate").passed, name
        assert nondegeneracy_rank_dense(cert.E) == cert.incl.big.dim, name
    # a degenerate E on Q in Q^2, E(e1 M) = 0, has no dual bases: it is
    # refused before certify_markov
    incl = ag.make_inclusion(corpus.field_algebra(),
                             corpus.diagonal_algebra(2), [{0: F(1), 1: F(1)}])
    E = ag.CondExpectation(incl, ag.map_rows([{0: F(1)}, {}]))
    assert nondegeneracy_rank_dense(E) == 1
    with pytest.raises(ag.NoDualBases):
        ag.find_dual_bases(E)


def over_field(cert, p):
    """The certified extension of `cert` rebuilt from its spec over F_p."""
    spec = sf.specfile_for((cert.incl, cert.E, cert.trace), "ext")
    incl, E, trace = sf.build(sf.SpecFile(spec.kind, spec.name, p,
                                          spec.payload))
    return ag.certify_markov(incl, E, ag.find_dual_bases(E), trace)


@pytest.mark.parametrize("p", [None, 13, 65521])
def test_expectation_products_match_direct_products(p):
    # the base extension and every tower level up to depth 3 of each
    # corpus extension; over F_65521 the halves are residues near p, so
    # a missed reduction mod p would show.  M3 of q_in_m2 and of s3_z2
    # (dimension 256 and 162) takes seconds to build, so over F_p those
    # two stop at depth 2
    certs = dict(corpus.standing_extensions(), s3_z2=corpus.ext_s3_z2(),
                 trivial_m2=corpus.ext_trivial_m2())
    for name, cert in certs.items():
        depth = 3
        if p is not None:
            cert = over_field(cert, p)
            depth = 2 if name in ("q_in_m2", "s3_z2") else 3
        levels = tw.build_tower(cert, depth).levels
        for k, E in enumerate([cert.E] + [lvl.cert.E for lvl in levels]):
            big = E.incl.big
            assert big.p == p
            want = [[E.E_small(big.mul({i: 1}, {j: 1}))
                     for j in range(big.dim)] for i in range(big.dim)]
            assert [list(row) for row in E.products] == want, (name, k)


def dual_bases_system_by_products(E, within):
    """The former construction of `ag._dual_bases_system`: two products in
    big per (m, a, b), E(e_m c_a) c_b and c_a E(c_b e_m), with E embedded
    in big first."""
    big = E.incl.big
    p = big.p
    if within is None:
        cands = [{i: 1} for i in range(big.dim)]
        prods = [[dict(cell) for cell in row] for row in big.table]
    else:
        cands = within.basis
        prods = [[big.mul(x, y) for y in cands] for x in cands]
    d, n = big.dim, len(cands)
    images = [{} for _ in range(n * n)]
    rhs = {}
    for m in range(d):
        e_mc = [E.incl.emb(E._E_mx(m, c)) for c in cands]
        e_cm = [E.incl.emb(E._E_xm(c, m)) for c in cands]
        off = 2 * m * d
        rhs[off + 2 * m] = rhs[off + 2 * m + 1] = 1
        for a in range(n):
            for b in range(n):
                im = images[a * n + b]
                for k, v in big.mul(e_mc[a], cands[b]).items():
                    im[off + 2 * k] = v
                for k, v in big.mul(cands[a], e_cm[b]).items():
                    im[off + 2 * k + 1] = v
    sym = 2 * d * d
    for a in range(n):
        for b in range(n):
            im = images[a * n + b]
            for k, v in prods[a][b].items():
                im[sym + 2 * k] = v
            for k, v in prods[b][a].items():
                im[sym + 2 * k + 1] = v
    lam = {}
    for k, u in enumerate(big.unit):
        if u != 0:
            lam[sym + 2 * k] = lam[sym + 2 * k + 1] = -u
    return cands, images, lam, rhs


@pytest.mark.parametrize("p", [None, 13])
def test_dual_bases_system_matches_the_product_construction(p, monkeypatch):
    # E within None (the base), A1 (E_M) and B (E_M1) of every corpus
    # extension: the same images, and the same dual bases and lambda^-1 or
    # the same NoDualBases from find_dual_bases under either construction
    certs = dict(corpus.standing_extensions(), s3_z2=corpus.ext_s3_z2(),
                 trivial_m2=corpus.ext_trivial_m2(), q_in_q3=corpus.ext_q_q3())
    systems = (ag._dual_bases_system, dual_bases_system_by_products)
    infeasible = []
    for name, cert in certs.items():
        if p is not None:
            cert = over_field(cert, p)
        ctx = tw.DepthTwoContext(tw.build_tower(cert, 2))
        for half, E, within in (("None", cert.E, None),
                                ("A1", ctx.lv1.cert.E, ctx.A1),
                                ("B", ctx.lv2.cert.E, ctx.B)):
            assert systems[0](E, within) == systems[1](E, within), (name, half)
            found = []
            for system in systems:
                monkeypatch.setattr(ag, "_dual_bases_system", system)
                try:
                    db = ag.find_dual_bases(E, within)
                    found.append((db.xs, db.ys, db.lambda_inv))
                except ag.NoDualBases:
                    found.append(None)
            assert found[0] == found[1], (name, half)
            if found[0] is None:
                infeasible.append((name, half))
    # s3_z2 is not depth 2: its A1 system is infeasible
    assert ("s3_z2", "A1") in infeasible


def stored_rows(t):
    """{name: stored data} of a tower: structure tables, map rows, Subspace
    bases, dual bases and the other sparse vectors its objects keep."""
    out = {}
    certs = [t.base] + [lvl.cert for lvl in t.levels]
    for k, cert in enumerate(certs):
        out.update({
            "M%d tables" % k: (cert.incl.small.table, cert.incl.big.table),
            "M%d embed" % k: cert.incl.embed,
            "M%d E" % k: (cert.E.rows, cert.E.products),
            "M%d dual bases" % k: (cert.dual_bases.xs, cert.dual_bases.ys),
            "M%d U" % k: cert.U.basis,
            "M%d trace duals" % k: (cert.trace_duals, cert.kanzaki)})
    for k, lvl in enumerate(t.levels, 1):
        out.update({
            "M%d e, phi" % k: (lvl.e, lvl.phi),
            "M%d quotient" % k: (lvl.quotient.relations.basis,
                                 lvl.quotient.proj_cols)})
    return out


@pytest.mark.parametrize("p", [None, 13])
def test_derivation_mutates_no_stored_row(p):
    # stored rows are shared dicts: a reader that accumulated into one
    # would change the tower under every later reader
    t = tw.build_tower(over_field(corpus.ext_q2_m2(), p), 2)
    before = copy.deepcopy(stored_rows(t))
    assert tw.derive(t)[3].ok
    after = stored_rows(t)
    assert [name for name in before if before[name] != after[name]] == []


def associativity_by_triples(alg):
    """The former check: the first failing (i, j, k, lhs, rhs), or None."""
    dim = alg.dim
    prods = [[dict(alg.table[i][j]) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = {}
                for l, c in prods[i][j].items():
                    la.sadd_into(lhs, prods[l][k], c, alg.p)
                rhs = {}
                for m, c in prods[j][k].items():
                    la.sadd_into(rhs, prods[i][m], c, alg.p)
                if lhs != rhs:
                    return i, j, k, lhs, rhs
    return None


def associativity_witness(alg):
    try:
        ag.check_associative(alg)
    except ag.NotAssociative as exc:
        return exc.witness
    return None


def mod_p(c, p):
    """A p-integral rational as a residue mod p, an int in [0, p)."""
    r = la.as_scalar(c, p)
    assert type(r) is int and 0 <= r < p
    return r


def reduced(alg, p):
    """A rational algebra with p-integral structure constants, mod p."""
    table = [[{n: mod_p(c, p) for n, c in cell} for cell in row]
             for row in alg.table]
    return ag.make_algebra(table, [mod_p(c, p) for c in alg.unit], p=p)


def corpus_algebras():
    """(name, algebra) of the corpus and of the M1, M2 of every standing
    extension and of s3_z2, over Q and F_13."""
    out = []
    for p in (None, 13):
        m2, k2 = corpus.matrix_algebra(2, p), corpus.diagonal_algebra(2, p)
        out += [("k", corpus.field_algebra(p)), ("m2", m2),
                ("m3", corpus.matrix_algebra(3, p)),
                ("m2(x)k2", corpus.tensor_algebra(m2, k2))]
    certs = dict(corpus.standing_extensions(), s3_z2=corpus.ext_s3_z2())
    for name, cert in certs.items():
        algs = [cert.incl.big] + [lvl.cert.incl.big for lvl in
                                  tw.build_tower(cert, 2).levels]
        for k, alg in enumerate(algs):
            out.append(("%s:M%d" % (name, k), alg))
            out.append(("%s:M%d mod 13" % (name, k), reduced(alg, 13)))
    return out


def perturbed_table(alg, rng):
    """alg with one structure constant shifted, unchecked."""
    dim, p = alg.dim, alg.p
    table = [list(row) for row in alg.table]
    i, j, n = (rng.randrange(dim) for _ in range(3))
    cell = dict(table[i][j])
    shift = la.div(la.as_scalar(rng.choice((-2, -1, 1, 2)), p),
                   la.as_scalar(rng.choice((1, 2, 3)), p), p)
    cell[n] = la.residue(cell.get(n, 0) + shift, p)
    if cell[n] == 0:
        del cell[n]
    table[i][j] = la.svec(cell)
    return ag.Algebra(dim, tuple(map(tuple, table)), alg.unit, None, p)


def test_sparse_associativity_agrees_with_triple_loop():
    rng = random.Random(9)
    failed = 0
    for name, alg in corpus_algebras():
        assert associativity_by_triples(alg) is None, name
        for trial in range(3):
            bad = perturbed_table(alg, rng)
            want = associativity_by_triples(bad)
            assert associativity_witness(bad) == want, (name, trial)
            failed += want is not None
    assert failed > 0


ENTRIES = [0] * 6 + [1, -1, 2, F(2), F(1, 2), F(-1, 3)]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4), st.sampled_from([None, 13]), st.data())
def test_sparse_associativity_on_random_unital_tables(dim, p, data):
    def scalar(c):  # over Q the raw mixed int / Fraction entry
        return c if p is None else mod_p(c, p)
    one = scalar(F(1))
    table = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        table[0][i] = table[i][0] = ((i, one),)
    for i in range(1, dim):
        for j in range(1, dim):
            vec = data.draw(st.lists(st.sampled_from(ENTRIES),
                                     min_size=dim, max_size=dim))
            table[i][j] = tuple((n, scalar(c))
                                for n, c in enumerate(vec) if c != 0)
    unit = (one,) + (scalar(0),) * (dim - 1)
    alg = ag.Algebra(dim, tuple(map(tuple, table)), unit, None, p)
    want = associativity_by_triples(alg)
    assert associativity_witness(alg) == want
    try:
        ag.make_algebra([[dict(c) for c in row] for row in table], unit, p=p)
        assert want is None
    except ag.NotAssociative as exc:
        assert exc.witness == want


# ---------------------------------------------------------------------------
# a basis element is its index: its product, image and action are stored

def one_hot(node):
    """A dict literal {k: 1}: a basis element rebuilt as a vector."""
    return isinstance(node, ast.Dict) and len(node.keys) == 1 and \
        node.keys[0] is not None and \
        isinstance(node.values[0], ast.Constant) and node.values[0].value == 1


def rebuilt_basis_uses(tree):
    """(line, kind) of each place that rebuilds a basis element instead of
    reading its stored cell or row: a product of two one-hot literals, a
    stored map or action applied to one (``apply_map(rows, {k: 1})``,
    ``.apply({h: 1}, {a: 1})``), and any use of the name basis_vec."""
    found = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Call):
            name = getattr(n.func, "attr", getattr(n.func, "id", None))
            args = n.args
            if name == "mul" and len(args) == 2 and all(map(one_hot, args)):
                found.append((n.lineno, "mul"))
            elif name == "apply_map" and len(args) >= 2 and one_hot(args[1]):
                found.append((n.lineno, "apply_map"))
            elif name == "apply" and len(args) == 2 and \
                    all(map(one_hot, args)):
                found.append((n.lineno, "apply"))
        if "basis_vec" in (getattr(n, "id", None), getattr(n, "attr", None),
                           getattr(n, "name", None)):
            found.append((n.lineno, "basis_vec"))
    return sorted(found)


def test_scan_flags_rebuilt_basis_elements():
    tree = ast.parse("a = alg.mul({i: 1}, {j: 1})\n"
                     "b = ag.apply_map(H.s, {h: 1}, p)\n"
                     "c = M.apply({h: 1}, {a: 1})\n"
                     "d = alg.basis_vec(i)\n"
                     "def basis_vec(self, i):\n"
                     "    return {i: 1}\n"
                     "e = apply_map(rows, {k: 1})\n"
                     "f = alg.mul({i: 1}, x)\n"
                     "g = M.apply(x, {a: 1})\n"
                     "h = apply_map(rows, x, p)\n"
                     "i = alg.mul({i: 2}, {j: 1})\n"
                     "j = dict(alg.table[i][j])\n")
    assert rebuilt_basis_uses(tree) == [
        (1, "mul"), (2, "apply_map"), (3, "apply"), (4, "basis_vec"),
        (5, "basis_vec"), (7, "apply_map")]


def test_basis_elements_are_read_not_rebuilt():
    """Products of basis elements are table cells, their images under a
    stored map are its rows, and e_h . e_a is a row of the action."""
    src = pathlib.Path(ag.__file__).parent
    found = [(path.name,) + use for path in sorted(src.glob("*.py"))
             for use in rebuilt_basis_uses(ast.parse(path.read_text()))]
    assert found == []
