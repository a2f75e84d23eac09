"""Built-in example algebras, extensions and negative controls.

These feed the test suite, the CLI round-trip checks and the README
examples.  The three certified extensions of `standing_extensions` are the
standing tower inputs: the ground field inside the diagonal plane (index
2), the ground field inside the 2x2 matrix algebra (index 4), and the
diagonal plane inside the 2x2 matrix algebra (index 2); `ext_q_q3` adds
the ground field inside the diagonal 3-space (index 3).
"""

from fractions import Fraction

from weakhopf import algebra as ag


def field_algebra(p=None):
    return ag.make_algebra([[{0: 1}]], (1,), p=p)


def diagonal_algebra(n, p=None):
    table = [[{i: 1} if i == j else {} for j in range(n)] for i in range(n)]
    return ag.make_algebra(table, (1,) * n, p=p,
                           labels=tuple("d%d" % i for i in range(n)))


def matrix_algebra(n, p=None):
    """M_n on the matrix-unit basis e_ab at flat index a*n + b."""
    dim = n * n
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    if b == c:
                        table[a * n + b][c * n + d] = {a * n + d: 1}
    unit = [0] * dim
    for a in range(n):
        unit[a * n + a] = 1
    labels = tuple("e%d%d" % (a, b) for a in range(n) for b in range(n))
    return ag.make_algebra(table, unit, labels=labels, p=p)


def tensor_algebra(A, B):
    """A (x) B on the pair basis (i, j) at flat index i*dimB + j."""
    if A.p != B.p:
        raise ValueError("mixed ground fields")
    nb = B.dim
    dim = A.dim * nb
    table = [[{} for _ in range(dim)] for _ in range(dim)]
    for i in range(A.dim):
        for j in range(nb):
            for k in range(A.dim):
                for l in range(nb):
                    prod = {}
                    for x, cx in A.table[i][k]:
                        for y, cy in B.table[j][l]:
                            prod[x * nb + y] = cx * cy
                    table[i * nb + j][k * nb + l] = prod
    unit = [0] * dim
    for i, ci in enumerate(A.unit):
        if ci == 0:
            continue
        for j, cj in enumerate(B.unit):
            if cj != 0:
                unit[i * nb + j] = ci * cj
    return ag.make_algebra(table, unit, p=A.p)


# ---------------------------------------------------------------------------
# the three standing Markov extensions

def ext_q_q2():
    """Ground field inside the diagonal plane; E(a, b) = (a+b)/2, index 2."""
    F = Fraction
    small = field_algebra()
    big = diagonal_algebra(2)
    incl = ag.make_inclusion(small, big, [{0: F(1), 1: F(1)}])
    E = ag.make_cond_expectation(incl, [{0: F(1, 2)}, {0: F(1, 2)}])
    trace = (F(1),)
    db = ag.find_dual_bases(E)
    return ag.certify_markov(incl, E, db, trace)


def ext_q_q3():
    """Ground field inside the diagonal 3-space; E = mean, index 3."""
    F = Fraction
    incl = ag.make_inclusion(field_algebra(), diagonal_algebra(3),
                             [{0: F(1), 1: F(1), 2: F(1)}])
    E = ag.make_cond_expectation(incl, [{0: F(1, 3)}] * 3)
    return ag.certify_markov(incl, E, ag.find_dual_bases(E), (F(1),))


def ext_q_m2():
    """Ground field inside M2; E = tr/2, index 4."""
    F = Fraction
    small = field_algebra()
    big = matrix_algebra(2)
    incl = ag.make_inclusion(small, big, [{0: F(1), 3: F(1)}])
    E = ag.make_cond_expectation(incl, [{0: F(1, 2)}, {}, {}, {0: F(1, 2)}])
    trace = (F(1),)
    db = ag.find_dual_bases(E)
    return ag.certify_markov(incl, E, db, trace)


def ext_q2_m2():
    """Diagonal plane inside M2; E = diagonal projection, index 2."""
    F = Fraction
    small = diagonal_algebra(2)
    big = matrix_algebra(2)
    incl = ag.make_inclusion(small, big, [{0: F(1)}, {3: F(1)}])
    E = ag.make_cond_expectation(incl, [{0: F(1)}, {}, {}, {1: F(1)}])
    trace = (F(1, 2), F(1, 2))
    db = ag.find_dual_bases(E)
    return ag.certify_markov(incl, E, db, trace)


def ext_trivial_m2():
    """Identity extension of M2: the trivial-centralizer degeneration.

    C_M(N) = Z(M2) = k1; over the rationals this is the only way a split
    semisimple pair gets a trivial relative commutant (the commutant of an
    irreducible matrix subalgebra is scalar only when it is everything), so
    it is the honest ordinary-Hopf degeneration input.
    """
    F = Fraction
    big = matrix_algebra(2)
    incl = ag.make_inclusion(big, big, [{i: F(1)} for i in range(4)])
    E = ag.make_cond_expectation(incl, [{i: F(1)} for i in range(4)])
    trace = (F(1, 2), F(0), F(0), F(1, 2))
    db = ag.find_dual_bases(E)
    return ag.certify_markov(incl, E, db, trace)


def group_algebra(elements, compose, unit_element, p=None):
    """Group algebra on an explicit element list with a composition map."""
    idx = {g: i for i, g in enumerate(elements)}
    table = [[{idx[compose(g, h)]: 1} for h in elements] for g in elements]
    unit = [0] * len(elements)
    unit[idx[unit_element]] = 1
    return ag.make_algebra(table, unit,
                           labels=tuple(str(g) for g in elements), p=p)


def group_extension(elements, compose, unit, sub, p=None):
    """kH inside kG, H the subgroup `sub` of the group on `elements`:
    E(g) = g on H and 0 off it, and the trace delta_e on kH, certified as
    a symmetric Markov extension of index |G : H|."""
    big = group_algebra(elements, compose, unit, p)
    small = group_algebra(sub, compose, unit, p)
    incl = ag.make_inclusion(small, big, [{elements.index(h): 1}
                                          for h in sub])
    E = ag.make_cond_expectation(incl, [{sub.index(g): 1} if g in sub
                                        else {} for g in elements])
    trace = [int(h == unit) for h in sub]
    return ag.certify_markov(incl, E, ag.find_dual_bases(E), trace)


def ext_s3_z2():
    """Q[Z2] inside Q[S3]: a certified symmetric Markov extension of index 3
    whose tower is NOT depth 2 (the subgroup is not normal).

    Serves as the constructed counterexample: certification and the tower
    relations all pass, depth2_check fails.
    """
    from itertools import permutations
    return group_extension(sorted(permutations((0, 1, 2))),
                           lambda g, h: tuple(g[i] for i in h), (0, 1, 2),
                           [(0, 1, 2), (1, 0, 2)])


def standing_extensions():
    return {"q_in_q2": ext_q_q2(), "q_in_m2": ext_q_m2(),
            "q2_in_m2": ext_q2_m2()}


def skewed_expectation():
    """Negative control: E'(x) = tr(d x)/tr(d), d = diag(1, 2), on Q in M2.

    A perfectly good Frobenius conditional expectation (the twisted trace
    form is non-degenerate), but tr(d u x) != tr(d x u) for u = e01,
    x = e10, so the symmetry identity fails with a witness.
    """
    F = Fraction
    small = field_algebra()
    big = matrix_algebra(2)
    incl = ag.make_inclusion(small, big, [{0: F(1), 3: F(1)}])
    E = ag.make_cond_expectation(
        incl, [{0: F(1, 3)}, {}, {}, {0: F(2, 3)}])
    return incl, E
