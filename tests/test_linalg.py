import math
import random
from fractions import Fraction

from vogeluniq._linalg import int_nullspace, nullspace, rref


def _rref_nullspace(rows, ncols):
    """The nullspace basis read off the Fraction rref: one vector per free
    column, 1 there, 0 at the other free columns."""
    mat, pivots = rref(rows) if rows else ([], [])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def _random_matrix(rng):
    nrows, ncols = rng.randint(0, 7), rng.randint(1, 8)
    rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 3, 5)) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 2 and rng.random() < 0.5:  # force a dependent row
        rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
    return rows, ncols


def test_int_nullspace_is_the_lcm_scaled_rref_basis():
    rng = random.Random(2024)
    for _ in range(500):
        rows, ncols = _random_matrix(rng)
        expected = []
        for vec in _rref_nullspace(rows, ncols):
            scale = math.lcm(*(q.denominator for q in vec))
            expected.append([int(q * scale) for q in vec])
        assert int_nullspace(rows, ncols) == expected, rows


def test_nullspace_is_the_rref_basis_for_rational_rows():
    rng = random.Random(7)
    for _ in range(300):
        rows, ncols = _random_matrix(rng)
        rows = [[Fraction(a, rng.randint(1, 6)) for a in row] for row in rows]
        assert nullspace(rows, ncols) == _rref_nullspace(rows, ncols), rows
