from fractions import Fraction as F

import pytest

from weakhopf import algebra as ag
from weakhopf import composite as cp
from weakhopf import corpus
from weakhopf import linalg as la
from weakhopf import tower as tw


@pytest.fixture(scope="module")
def deep_tower():
    return tw.build_tower(corpus.ext_q_q2(), 5)


def test_deep_tower_dims(deep_tower):
    assert [deep_tower.alg(k).dim for k in range(6)] == [2, 4, 8, 16, 32, 64]
    assert deep_tower.checks.ok


def test_f0_is_e1(deep_tower):
    data = cp.composite_idempotent(deep_tower, 0)
    assert data.checks.ok
    assert data.f_n == deep_tower.jones(1)


def test_f1(deep_tower):
    data = cp.composite_idempotent(deep_tower, 1)
    assert data.checks.ok, [c.name for c in data.checks.failures()]


def test_f2(deep_tower):
    data = cp.composite_idempotent(deep_tower, 2)
    assert data.checks.ok, [c.name for c in data.checks.failures()]


def test_composite_expectation_values(deep_tower):
    lam = F(1, 2)
    for n in range(3):
        data = cp.composite_idempotent(deep_tower, n)
        F_Mn = cp.composite_expectation_down(deep_tower, 2 * n + 1, n)
        got = ag.apply_map(F_Mn, data.f_n)
        unit = deep_tower.alg(n).unit_sparse()
        assert got == la.sscale(unit, lam ** (n + 1)), n


def test_budget_guard(deep_tower, monkeypatch):
    monkeypatch.setattr(cp, "DIM_BUDGET", 32)
    with pytest.raises(cp.DimensionBudget):
        cp.composite_idempotent(deep_tower, 2)
    monkeypatch.undo()
    with pytest.raises(cp.DimensionBudget):
        cp.composite_idempotent(deep_tower, 3)


def test_shift_of_generator(deep_tower):
    assert cp.shift_tau2(deep_tower, deep_tower.jones(1, 5), 1) == \
        deep_tower.jones(3, 5)


def test_shift_of_f0_is_e3(deep_tower):
    f0 = cp.composite_idempotent(deep_tower, 0)
    lifted = deep_tower.embed(1, 5, f0.f_n)
    assert cp.shift_tau2(deep_tower, lifted, 1) == deep_tower.jones(3, 5)


def test_shift_reduces_braid_words(deep_tower):
    top = deep_tower.alg(5)
    word = top.mulm(deep_tower.jones(1, 5), deep_tower.jones(2, 5),
                    deep_tower.jones(1, 5))
    img = cp.shift_tau2(deep_tower, word, 2)
    assert img == la.sscale(deep_tower.jones(3, 5), F(1, 2))


def test_shift_rejects_non_members(deep_tower):
    outsider = deep_tower.embed(0, 5, {0: F(1)})
    with pytest.raises(cp.NotInTLSubalgebra):
        cp.shift_tau2(deep_tower, outsider, 1)
