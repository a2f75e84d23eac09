import pytest

from weakhopf.checks import CheckList


def test_holds_passes_when_every_case_agrees():
    cl = CheckList()
    with cl.holds("id", "x = x") as law:
        for i in law.over(range(4)):
            law.check((i,), i, i)
    c = cl.get("id")
    assert c.passed and c.witness is None


def test_first_mismatch_is_the_witness():
    cl = CheckList()
    with cl.holds("one", "i < 3") as law:
        for i in law.over(range(6)):
            law.check((i,), i < 3, True)
    assert cl.get("one").witness == "basis 3"
    with cl.holds("three", "i j < 2 or k > 0") as law:
        for i in law.over(range(3)):
            for j in law.over(range(3)):
                for k in law.over(range(3)):
                    law.check((i, j, k), i * j < 2 or k > 0, True)
    assert cl.get("three").witness == "(1, 2, 0)"
    assert [c.name for c in cl.failures()] == ["one", "three"]


def test_cases_after_the_first_mismatch_are_never_drawn():
    def cases():
        yield 0
        yield 1
        raise AssertionError("advanced past the first mismatch")

    cl = CheckList()
    with cl.holds("lazy", "stops early") as law:
        for i in law.over(range(2)):
            for j in law.over(cases()):
                law.check((i, j), j, 0)
        for k in law.over(cases()):  # a later loop draws nothing either
            law.check((k,), k, k)
    assert cl.get("lazy").witness == "(0, 1)"


def test_an_exception_in_the_block_records_nothing():
    cl = CheckList()
    with pytest.raises(ZeroDivisionError):
        with cl.holds("boom", "1 / 0") as law:
            law.check((0,), 1 / 0, 0)
    assert cl.items == []


def test_a_tuple_decided_elsewhere_is_the_witness():
    # the least key of a keyed sum names the failing tuple; None passes,
    # and a failure stops the loop like a mismatch does
    cl = CheckList()
    drawn = []
    with cl.holds("sum", "lhs - rhs = 0") as law:
        for h in law.over(range(5)):
            drawn.append(h)
            law.fails_at((h, 4, 1) if h == 2 else None)
    with cl.holds("single", "lhs - rhs = 0") as law:
        law.fails_at((7,))
    with cl.holds("none", "lhs - rhs = 0") as law:
        law.fails_at(None)
    assert drawn == [0, 1, 2]
    assert [(c.name, c.passed, c.witness) for c in cl.items] == [
        ("sum", False, "(2, 4, 1)"), ("single", False, "basis 7"),
        ("none", True, None)]
