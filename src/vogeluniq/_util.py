"""Shared helpers: seeded RNG, random rationals, JSON encoding of rationals."""

from __future__ import annotations

import random
from fractions import Fraction

DEFAULT_SEED = 20210


def make_rng(seed: int | None = None) -> random.Random:
    """RNG for witness sampling; seed None takes the built-in default."""
    return random.Random(DEFAULT_SEED if seed is None else seed)


def rand_rational(rng: random.Random, bound: int = 1000, nonzero: bool = False) -> Fraction:
    """Random rational with |numerator| and denominator at most `bound`."""
    while True:
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        q = Fraction(num, den)
        if nonzero and q == 0:
            continue
        return q


def rat_to_json(q: Fraction) -> list[str]:
    """Rational as a ["num", "den"] pair of digit strings (no precision loss)."""
    return [str(q.numerator), str(q.denominator)]


def rat_from_json(pair) -> Fraction:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [num, den] pair, got {pair!r}")
    return Fraction(int(pair[0]), int(pair[1]))


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from CLI text like '-2' or '5/3'."""
    return Fraction(text.strip().replace("−", "-"))
