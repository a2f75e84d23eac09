import random
from fractions import Fraction as F

import pytest

from weakhopf import algebra as ag
from weakhopf import corpus
from weakhopf import linalg as la
from weakhopf import tower as tw


def test_field_algebra_valid():
    assert corpus.field_algebra().dim == 1


def test_diagonal_product():
    q2 = corpus.diagonal_algebra(2)
    assert q2.mul({0: F(1)}, {1: F(1)}) == {}
    assert q2.mul({0: F(2)}, {0: F(3)}) == {0: F(6)}


def test_rejects_non_associative():
    # basis 1, a, b with a*a = b, a*b = 0, b*a = a: (aa)a = a but a(aa) = 0
    bad = [[{0: F(1)}, {1: F(1)}, {2: F(1)}],
           [{1: F(1)}, {2: F(1)}, {}],
           [{2: F(1)}, {1: F(1)}, {}]]
    with pytest.raises(ag.NotAssociative):
        ag.make_algebra(bad, (F(1), F(0), F(0)))


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
        ag.right_inverse(m2, m2.basis_vec(0))


def test_dual_bases_q2():
    cert = corpus.ext_q_q2()
    assert cert.lambda_inv == 2
    # the dual-bases tensor is e1 (x) e1 + e2 (x) e2 scaled by 2
    tensor = {}
    for x, y in zip(cert.dual_bases.xs, cert.dual_bases.ys):
        for i, ci in x:
            for j, cj in y:
                tensor[(i, j)] = tensor.get((i, j), 0) + ci * cj
    assert tensor == {(0, 0): F(2), (1, 1): F(2)}


def test_dual_bases_m2_trace():
    cert = corpus.ext_q_m2()
    assert cert.lambda_inv == 4
    tensor = {}
    for x, y in zip(cert.dual_bases.xs, cert.dual_bases.ys):
        for i, ci in x:
            for j, cj in y:
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
    frac = [tuple(tuple((i, F(c)) for i, c in r) for r in rows)
            for rows in (db.xs, db.ys)]
    witnesses = [ag.certify_markov(incl, E, d, (F(1),)).checks.get(
        "symmetric_product").witness
        for d in (db, ag.DualBases(frac[0], frac[1], db.lambda_inv))]
    assert witnesses == ["{0: 6, 3: 3}"] * 2


def test_skewed_expectation_not_symmetric():
    incl, E = corpus.skewed_expectation()
    U = ag.centralizer(incl.big, ag.embedded_image(incl))
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
        assert cert.symmetric and cert.strongly_separable
        assert cert.symmetric_product and cert.weakly_irreducible


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
            assert cert.symmetric, name


def test_casimir_shift():
    for name, cert in corpus.standing_extensions().items():
        assert ag.casimir_shift_check(cert), name


def test_relative_tensor_square_dims():
    assert ag.relative_tensor_square(corpus.ext_q_q2()).dim == 4
    assert ag.relative_tensor_square(corpus.ext_q2_m2()).dim == 8
    assert ag.relative_tensor_square(corpus.ext_q_m2()).dim == 16


def test_subalgebra_requires_closure():
    m2 = corpus.matrix_algebra(2)
    not_closed = la.Subspace.from_vectors(4, [{1: F(1)}, {2: F(1)}])
    with pytest.raises(ag.NotClosed):
        ag.subalgebra(m2, not_closed)


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
    return all(E.E_small(incl.emb(incl.small.basis_vec(i)))
               == incl.small.basis_vec(i) for i in range(incl.small.dim))


def accepted_by_triples(incl, rows):
    """The former check: E fixes N and E(a x b) = a E(x) b on every triple."""
    if not fixes_small(incl, rows):
        return False
    E = ag.CondExpectation(incl, ag.map_rows(rows))
    small, big = incl.small, incl.big
    for a in range(small.dim):
        ea = incl.emb(small.basis_vec(a))
        for x in range(big.dim):
            ex = big.basis_vec(x)
            for b in range(small.dim):
                eb = incl.emb(small.basis_vec(b))
                lhs = E.E_small(big.mulm(ea, ex, eb))
                rhs = small.mulm(small.basis_vec(a), E.E_small(ex),
                                 small.basis_vec(b))
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
        lvl = tw.basic_construction(cert)
        out.append((name + ":M1", lvl.cert.incl, lvl.E_down))
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


def nondegeneracy_rank_dense(E):
    """The former check: rank of the dense dim M x (dim M dim N) matrix."""
    small, big = E.incl.small, E.incl.big
    rows = []
    for x in range(big.dim):
        row = []
        for j in range(big.dim):
            v = E.E_small(big.mul(big.basis_vec(x), big.basis_vec(j)))
            row.extend(la.dense(v, small.dim, big.p))
        rows.append(row)
    return la.rank(rows, big.dim * small.dim, big.p)


def test_nondegeneracy_rank_matches_dense_rank():
    ranks = []
    for name, incl, rows in corpus_expectations():
        E = ag.CondExpectation(incl, ag.map_rows(rows))
        ranks.append(ag.nondegeneracy_rank(E))
        assert ranks[-1] == nondegeneracy_rank_dense(E), name
        assert ranks[-1] == incl.big.dim, name
    # a degenerate E on Q in Q^2: E(e1 M) = 0
    incl = ag.make_inclusion(corpus.field_algebra(),
                             corpus.diagonal_algebra(2), [{0: F(1), 1: F(1)}])
    E = ag.CondExpectation(incl, ag.map_rows([{0: F(1)}, {}]))
    assert ag.nondegeneracy_rank(E) == nondegeneracy_rank_dense(E) == 1
