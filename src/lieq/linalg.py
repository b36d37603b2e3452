"""Exact sparse linear algebra over the rationals.

Vectors are dicts from a sortable key to a coefficient, and
`add_scaled` is the one sparse update (out += c * vec, zeros dropped)
that the algebra and module actions share.  Row reduction
is done on integer-rescaled rows (rescaling a row changes neither rank
nor kernel), with gcd normalization to keep entries small, and pivots
taken at the least key.  Kernel bases come out of a reduced echelon form
in a fixed column order, so "the first nullspace vector" is well defined
and reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def add_scaled(out: dict, vec: dict, c=1) -> dict:
    """out += c * vec in place, dropping every key whose coefficient
    becomes zero; returns out."""
    for k, v in vec.items():
        nv = out.get(k, 0) + c * v
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def _sparse_row_to_int(row: dict) -> dict:
    den = 1
    for v in row.values():
        if isinstance(v, Fraction):
            den = lcm(den, v.denominator)
    out = {}
    g = 0
    for k, v in row.items():
        iv = int(v * den) if isinstance(v, Fraction) else int(v) * den
        if iv:
            out[k] = iv
            g = gcd(g, iv)
    if g > 1:
        out = {k: v // g for k, v in out.items()}
    return out


def sparse_echelon(rows) -> dict:
    """Echelon form of sparse integer-scaled rows; returns a map from
    pivot key to its gcd-reduced row."""
    pivots: dict = {}
    for raw in rows:
        row = _sparse_row_to_int(raw)
        while row:
            p = min(row)
            prow = pivots.get(p)
            if prow is None:
                pivots[p] = row
                break
            a, b = prow[p], row[p]
            new = {}
            g = 0
            for k in row.keys() | prow.keys():
                v = a * row.get(k, 0) - b * prow.get(k, 0)
                if v:
                    new[k] = v
                    g = gcd(g, v)
            if g > 1:
                new = {k: v // g for k, v in new.items()}
            row = new
    return pivots


def rank_of_sparse(vecs) -> int:
    """Rank of a family of sparse vectors (dicts key -> coefficient)."""
    return len(sparse_echelon(vecs))


def sparse_nullspace(rows, columns) -> list[dict]:
    """Kernel basis for sparse constraint rows over the given column
    keys (which must be sorted in their natural order), one vector per
    free column in ascending order, each normalized with coefficient 1
    on its free column."""
    pivots = sparse_echelon(rows)
    # back-substitute so every pivot row touches no other pivot column
    reduced: dict = {}
    for p in sorted(pivots, reverse=True):
        row = {k: Fraction(v) for k, v in pivots[p].items()}
        for k in [k for k in row if k != p and k in reduced]:
            c = row.pop(k)
            add_scaled(row, reduced[k], -c)
        lead = row[p]
        reduced[p] = {k: v / lead for k, v in row.items() if k != p}
    basis = []
    for free in columns:
        if free in reduced:
            continue
        vec = {free: Fraction(1)}
        for p, rest in reduced.items():
            if free in rest:
                vec[p] = -rest[free]
        basis.append(vec)
    return basis
