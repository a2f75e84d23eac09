"""Exact row-reduction kernel for the rationals and the prime fields.

Rows are plain Python lists of ints.  Over Q (``p=None``) a row collection
in "integer RREF" keeps every row primitive (gcd of the entries is 1,
leading entry in the pivot zone positive), pivot columns strictly
increasing, and each pivot column zero in every other row.  Scaling a row
by a positive rational does not change the span, so the fraction-free form
converts to the usual leading-1 echelon form only at API boundaries.

Over F_p (a prime ``p``) the entries are residues in [0, p) and every row
is scaled to leading entry 1, so the collection is the usual RREF.  A
pivot step then touches only the columns from the pivot on (the row is
zero to its left), reduces each of them mod p, and needs no rescaling:
`reduce_row` normalises once at the end, and `insert_row` leaves the
other rows' leading 1 in place.  Over Q every step keeps the row
primitive with `normalize_row`.

``npiv`` restricts pivot search to the leftmost ``npiv`` columns; columns to
the right ride along as an augmented zone (right-hand sides, coordinate
bookkeeping for expression tracking).
"""

from math import gcd

# the one implementation; benchmark records carry this name
BACKEND = "python"

__all__ = ["BACKEND", "normalize_row", "reduce_row", "insert_row"]


def normalize_row(v, npiv, p=None):
    """Normalize v in place; return its pivot column or -1 if zero there.

    Over Q, v is made primitive with the leading entry of the pivot zone
    (or, failing that, of the augmented zone) positive.  Over F_p, v is
    reduced mod p and scaled so that its leading entry is 1.
    """
    n = len(v)
    if p is not None:
        v[:] = [x % p for x in v]
    lead = -1
    for j in range(n):
        if v[j] != 0:
            lead = j
            break
    if lead < 0:
        return -1
    if p is not None:
        x = v[lead]
        if x != 1:
            inv = pow(x, -1, p)
            for j in range(lead, n):
                v[j] = v[j] * inv % p
        return lead if lead < npiv else -1
    g = 0
    for j in range(lead, n):
        x = v[j]
        if x:
            g = gcd(g, x if x > 0 else -x)
            if g == 1:
                break
    if v[lead] < 0:
        g = -g
    if g != 1:
        for j in range(lead, n):
            v[j] //= g
    return lead if lead < npiv else -1


def reduce_row(rows, pivots, v, npiv, p=None):
    """Fully reduce v in place against a reduced row collection.

    After the call, v has zero entries at every pivot column and is
    normalized.  Returns the leading column of v inside the pivot zone, or
    -1 when the pivot zone of v is zero.
    """
    width = len(v)
    nrows = len(pivots)
    for r in range(nrows):
        c = pivots[r]
        vc = v[c]
        if vc == 0:
            continue
        row = rows[r]
        if p is not None:
            for j in range(c, width):
                v[j] = (v[j] - vc * row[j]) % p
            continue
        rc = row[c]
        for j in range(c, width):
            v[j] = rc * v[j] - vc * row[j]
        # entries left of c scale by rc
        if rc != 1:
            for j in range(c):
                v[j] = rc * v[j]
        normalize_row(v, npiv)
    return normalize_row(v, npiv, p)


def insert_row(rows, pivots, v, npiv, p=None):
    """Reduce v and insert it if independent, keeping reduced echelon form.

    Returns the insertion position, or -1 when v reduced to zero across the
    pivot zone (v itself keeps its reduced augmented zone so callers can
    read dependency coefficients).
    """
    lead = reduce_row(rows, pivots, v, npiv, p)
    if lead < 0:
        return -1
    lo, hi = 0, len(pivots)
    while lo < hi:
        mid = (lo + hi) // 2
        if pivots[mid] < lead:
            lo = mid + 1
        else:
            hi = mid
    rows.insert(lo, v)
    pivots.insert(lo, lead)
    width = len(v)
    vc = v[lead]
    nrows = len(rows)
    for r in range(nrows):
        if r == lo:
            continue
        row = rows[r]
        rc = row[lead]
        if rc == 0:
            continue
        if p is not None:
            for j in range(lead, width):
                row[j] = (row[j] - rc * v[j]) % p
            continue
        for j in range(width):
            row[j] = vc * row[j] - rc * v[j]
        normalize_row(row, npiv)
    return lo
