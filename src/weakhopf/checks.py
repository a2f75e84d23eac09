"""Uniform pass/fail bookkeeping for verification passes.

Every verification stage appends Check records (name, defining law, result,
witness on failure) to a CheckList; the CLI renders these directly and exit
status is derived from them.  Failures are report entries, never silent.

A law checked on basis tuples goes through CheckList.holds: it stops at
the first tuple where the two sides differ, or takes it from the least key
of a keyed sum (``law.fails_at``), and records that tuple as the witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Check:
    name: str
    law: str
    passed: bool
    witness: str | None = None


class VerificationError(AssertionError):
    """An identity that is a hard precondition for later stages failed."""

    def __init__(self, checks):
        self.checks = checks
        bad = [c for c in checks if not c.passed]
        lines = ["%s: %s [%s]" % (c.name, c.witness or "failed", c.law) for c in bad]
        super().__init__("verification failed:\n" + "\n".join(lines))


@dataclass
class CheckList:
    items: list = field(default_factory=list)

    def add(self, name, law, passed, witness=None):
        self.items.append(Check(name, law, bool(passed),
                                None if passed else witness))
        return bool(passed)

    def holds(self, name, law):
        """Check `law` on basis tuples: ``with cl.holds(name, law) as law:``.

        Inside the block, loop over ``law.over(...)`` and end each case with
        ``law.check(where, lhs, rhs)``, `where` being the tuple of basis
        indices (or side labels) of the case.  The first case with
        lhs != rhs fails the law with `where` as its witness, "basis 3" for
        a single index and "(1, 2, 0)" for a longer tuple; every
        ``law.over`` loop then stops without drawing another item, so
        nothing past the first mismatch is computed.  The Check is recorded
        when the block ends; an exception inside it records nothing.
        """
        return _Law(self, name, law)

    def extend(self, other):
        self.items.extend(other.items)

    @property
    def ok(self):
        return all(c.passed for c in self.items)

    def failures(self):
        return [c for c in self.items if not c.passed]

    def get(self, name):
        for c in self.items:
            if c.name == name:
                return c
        raise KeyError(name)

    def require(self):
        """Raise if anything failed; later stages depend on these laws."""
        if not self.ok:
            raise VerificationError(self.items)
        return self


class _Law:
    """One law being checked on basis tuples; see CheckList.holds."""

    def __init__(self, checks, name, law):
        self.checks, self.name, self.law = checks, name, law
        self.witness = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.checks.add(self.name, self.law, self.witness is None,
                            self.witness)

    def over(self, items):
        """The items, until a case fails; the next one is then not drawn."""
        if self.witness is None:
            for item in items:
                yield item
                if self.witness is not None:
                    return

    def fails_at(self, where):
        """The first failing tuple of a case decided elsewhere, or None."""
        return where is None or self.check(where, True, False)

    def check(self, where, lhs, rhs):
        """One case; the first with lhs != rhs fails the law at `where`."""
        if self.witness is None and lhs != rhs:
            if len(where) == 1:
                self.witness = "basis %s" % where
            else:
                self.witness = "(%s)" % ", ".join(map(str, where))
        return self.witness is None
