"""Exact sparse linear algebra over the integers.

Vectors are dicts from a sortable key to a coefficient.  A module
keeps each column of its maps as a flat int column instead, one tuple
(den, k0, n0, k1, n1, ...) of the entries n / den, whose (key, n)
pairs `entries` reads after the den.  `add_scaled` takes such pairs, a
dict's items or a flat column's entries, so it is the one sparse update
(out += c * vec, zeros dropped) for both.  `eliminate` is the one row
reduction, which module construction, ranks, kernels and the
filtration's powers of two or more vectors share (a power that is one
line needs none).  It is fraction-free (Bareiss, Math. Comp. 22, 1968)
on int rows, with pivots at the least key: `sparse_echelon` takes int
rows as they are, as the filtration makes them, while `rank_of_sparse`
and `sparse_nullspace` rescale rational rows to int ones, which have
the same rank and kernel.  Beside each row runs an
integer tail, the combination of inputs the row stands for, so a
kernel vector is the tail of a column that reduces to zero.  No step
divides out the content of row and tail, so `eliminate` fixes its
output only up to a positive factor, and a caller makes primitive, once,
each row it keeps: `sparse_echelon` its pivot rows, `sparse_nullspace`
each pivot and kernel vector jointly with its tail.  So kernel bases
are primitive integer vectors, one per dependent column in the given
order, deterministic and reproducible.
"""

from __future__ import annotations

from math import gcd, lcm


def entries(column: tuple):
    """The (key, n) pairs of a flat column (den, k0, n0, k1, n1, ...),
    read two at a time after the den, in order."""
    it = iter(column)
    next(it)
    return zip(it, it)


def add_scaled(out: dict, pairs, c=1) -> dict:
    """out += c * vec in place, vec given by its (key, value) pairs
    (`dict.items()` or `entries`), dropping every key whose coefficient
    becomes zero; returns out."""
    for k, v in pairs:
        nv = out.get(k, 0) + c * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def eliminate(row: dict, tail: dict, pivots: dict) -> tuple:
    """Reduce the int row against pivots {p: (R, T)}, R an int row with
    least key p, until no key of the row is a pivot; returns the
    reduced (row, tail), updated in place.  Pivots go least key first,
    each found in one pass over the row; a step row <- r row - c R, with
    r, c = R[p], row[p] over their gcd, does the same to the tail with
    T.  No step divides out the content of row and tail, so the result
    is a positive multiple of the one that a division after every step
    would give, and a caller that keeps a row makes it primitive once.
    If row = sum tail[k] u_k and each R = sum T[k] u_k on entry, the
    same holds on return: the reduced row is a multiple of the input
    row minus the combination of pivots the tail records."""
    while pivots:
        p = None
        for k in row:
            if k in pivots and (p is None or k < p):
                p = k
        if p is None:
            break
        prow, ptail = pivots[p]
        g = gcd(prow[p], row[p])
        r, c = prow[p] // g, row[p] // g
        if r != 1:
            for k in row:
                row[k] *= r
            for k in tail:
                tail[k] *= r
        add_scaled(row, prow.items(), -c)
        if ptail:
            add_scaled(tail, ptail.items(), -c)
    return row, tail


def _primitive(vec: dict) -> dict:
    """vec over the positive gcd of its int entries, sign kept; vec
    itself when that gcd is 1."""
    g = gcd(*vec.values())
    return {k: v // g for k, v in vec.items()} if g > 1 else vec


def _sparse_row_to_int(row: dict) -> dict:
    """The primitive int row with row's support and direction."""
    ratios = {k: v.as_integer_ratio() for k, v in row.items()}
    den = lcm(*(d for _, d in ratios.values()))
    return _primitive({k: n * (den // d) for k, (n, d) in ratios.items() if n})


def sparse_echelon(rows) -> dict:
    """Echelon basis of the span of sparse int rows, read as they are
    with no rescaling pass and reduced in place: {pivot key: (R, {})},
    R a primitive int row with least key the pivot and no earlier pivot
    key."""
    pivots: dict = {}
    for row in rows:
        row, tail = eliminate(row, {}, pivots)
        if row:
            pivots[min(row)] = (_primitive(row), tail)
    return pivots


def rank_of_sparse(vecs) -> int:
    """Rank of a family of sparse vectors (dicts key -> rational
    coefficient)."""
    return len(sparse_echelon(map(_sparse_row_to_int, vecs)))


def sparse_nullspace(rows, columns) -> list[dict]:
    """Kernel basis for sparse constraint rows over the given column
    keys: one primitive int vector per column that depends on the
    columns before it, in the given order, with a positive coefficient
    on that column and none on later ones.  Each column leaves
    `eliminate` as (vec, tail) and is divided by their joint gcd once,
    before it is kept as a pivot or its tail is returned."""
    cols: dict = {col: {} for col in columns}
    for n, raw in enumerate(rows):
        for col, v in _sparse_row_to_int(raw).items():
            cols[col][n] = v
    pivots: dict = {}
    basis = []
    for col, vec in cols.items():
        vec, tail = eliminate(vec, {col: 1}, pivots)
        g = gcd(*vec.values(), *tail.values())
        if g > 1:
            vec = {k: v // g for k, v in vec.items()}
            tail = {k: v // g for k, v in tail.items()}
        if vec:
            pivots[min(vec)] = (vec, tail)
        else:
            basis.append(tail if tail[col] > 0 else {k: -v for k, v in tail.items()})
    return basis
