"""Exact row-reduction kernel for the rationals and the prime fields.

A row is a zero-free dict {column: int}, and a reduced row collection is a
dict {pivot column: row} in which each pivot column is zero in every other
row.  Over Q (``p=None``) the rows are fraction-free: each is primitive
(gcd of the entries 1) with a positive leading entry, and stays primitive
after every step.  Scaling a row by a positive rational does not change
the span, so the fraction-free form converts to the usual leading-1
echelon form only at API boundaries.  Over F_p (a prime ``p``) the entries
are residues and every row has leading entry 1: the usual RREF.

RREF makes the work sparse: a row to reduce meets only the pivot columns
among its own keys, a step leaves it zero at every other pivot column, and
a step walks only the pivot row's nonzeros.

Pivots lie in the columns below ``npiv``; columns from ``npiv`` on ride
along as an augmented zone (right-hand sides, coordinate bookkeeping for
expression tracking).
"""

from math import gcd

# the one implementation; benchmark records carry this name
BACKEND = "python"

__all__ = ["BACKEND", "normalize_row", "reduce_row", "insert_row"]


def _primitive(v, sign=1):
    """Divide the row v in place by sign times the gcd of its entries."""
    g = sign * gcd(*v.values())
    if g != 1:
        for j, x in v.items():
            v[j] = x // g


def _combine(v, a, c, row, p):
    """v = a v - c row in place, zeros dropped.  Over Q v is then made
    primitive; over F_p a is a leading 1 and the entries are reduced."""
    if a != 1:
        for j, x in v.items():
            v[j] = a * x
    for j, x in row.items():
        y = v.get(j, 0) - c * x
        if p is not None:
            y %= p
        if y:
            v[j] = y
        else:
            del v[j]
    if p is None:
        _primitive(v)


def normalize_row(v, npiv, p=None):
    """Normalize v in place; return its pivot column or -1 if zero there.

    Over Q, v is made primitive with its leading entry positive.  Over
    F_p, v is scaled so that its leading entry is 1.
    """
    if not v:
        return -1
    lead = min(v)
    x = v[lead]
    if x != 1:
        if p is None:
            _primitive(v, -1 if x < 0 else 1)
        else:
            inv = pow(x, -1, p)
            for j, y in v.items():
                v[j] = y * inv % p
    return lead if lead < npiv else -1


def reduce_row(rows, v, npiv, p=None):
    """Fully reduce v in place against a reduced row collection.

    After the call, v is zero at every pivot column and normalized.
    Returns the leading column of v inside the pivot zone, or -1 when the
    pivot zone of v is zero.
    """
    for c in [c for c in v if c in rows]:
        row = rows[c]
        _combine(v, row[c], v[c], row, p)
    return normalize_row(v, npiv, p)


def insert_row(rows, v, npiv, p=None):
    """Reduce v and insert it if independent, keeping reduced echelon form.

    Returns the pivot column of v, or -1 when v reduced to zero across the
    pivot zone (v itself keeps its reduced augmented zone so callers can
    read dependency coefficients).
    """
    lead = reduce_row(rows, v, npiv, p)
    if lead < 0:
        return -1
    for row in rows.values():
        rc = row.get(lead)
        if rc is not None:
            # v is zero at the pivot of row, whose entry stays positive
            _combine(row, v[lead], rc, v, p)
    rows[lead] = v
    return lead
