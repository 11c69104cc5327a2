"""Exact linear algebra: reduced row echelon form over Fraction, and nullspaces
by fraction-free (integer-preserving) Gauss-Jordan elimination."""

from __future__ import annotations

import math
from fractions import Fraction


def rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [c * inv for c in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _fraction_free(mat: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in place
    (Bareiss, Math. Comp. 22 (1968)).  Returns (pivot columns, d): afterwards
    the first len(pivots) rows are d times the rows of the reduced row echelon
    form and the others are zero.  Every intermediate entry is a minor of the
    input, so each division is exact."""
    nrows = len(mat)
    pivots: list[int] = []
    d = 1
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot_row = next((i for i in range(r, nrows) if mat[i][col]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        prow = mat[r]
        lead = prow[col]
        for i in range(nrows):
            row = mat[i]
            f = row[col]
            if i == r or (not f and lead == d):
                continue
            mat[i] = [(lead * a - f * b) // d for a, b in zip(row, prow)]
        d = lead
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots, d


def int_nullspace(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Integer nullspace basis of rows . v = 0, one primitive vector per free
    column: the rref basis vector of that column (see `nullspace`) times the
    lcm of its denominators."""
    mat = [list(row) for row in rows]
    pivots, d = _fraction_free(mat)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = d
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[fc]
        g = math.gcd(*vec) if d > 0 else -math.gcd(*vec)
        basis.append([a // g for a in vec])
    return basis


def rref_basis(vectors: list[list[int]]) -> list[list[Fraction]]:
    """The rref parametrization of a primitive basis from `int_nullspace`:
    each vector divided by its entry at its free column, its last nonzero one."""
    out = []
    for vec in vectors:
        lead = next(a for a in reversed(vec) if a)
        out.append([Fraction(a, lead) for a in vec])
    return out


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the solution space of rows . v = 0, one vector per free column.

    The basis is in the standard rref parametrization: basis vector j has a 1
    in the j-th free column and zeros in the other free columns, so instantiating
    with parameter values assigns those values to the free coordinates directly.
    """
    integer_rows = []
    for row in rows:
        row = [Fraction(a) for a in row]
        scale = math.lcm(*(a.denominator for a in row))
        integer_rows.append([int(a * scale) for a in row])
    return rref_basis(int_nullspace(integer_rows, ncols))
