"""Dense univariate polynomials over Fraction, as ascending coefficient tuples.

Just enough arithmetic for reducing ratios of products of linear forms along
one-parameter families.  The zero polynomial is the empty tuple.
"""

from __future__ import annotations

from fractions import Fraction

Poly = tuple  # tuple[Fraction, ...], ascending degree

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def trim(coeffs) -> Poly:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def const(q) -> Poly:
    return trim((Fraction(q),))


def add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return trim(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return trim(out)


def scale(a: Poly, q) -> Poly:
    if q == 0:
        return ZERO
    return tuple(c * q for c in a)


def divmod_exact(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Euclidean division over the rationals."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quo = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    while len(rem) >= len(b) and any(c != 0 for c in rem):
        shift = len(rem) - len(b)
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(b):
            rem[shift + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return trim(quo), trim(rem)


def gcd(a: Poly, b: Poly) -> Poly:
    while b:
        _, r = divmod_exact(a, b)
        a, b = b, r
    if not a:
        return ZERO
    return scale(a, 1 / a[-1])  # monic


def reduce_ratio(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Cancel the gcd and normalize the denominator's leading coefficient to 1."""
    if not den:
        raise ZeroDivisionError("zero denominator polynomial")
    if not num:
        return ZERO, ONE
    g = gcd(num, den)
    num, _ = divmod_exact(num, g)
    den, _ = divmod_exact(den, g)
    lead = den[-1]
    return scale(num, 1 / lead), scale(den, 1 / lead)
