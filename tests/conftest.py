import random
from fractions import Fraction

import pytest


@pytest.fixture
def rng():
    return random.Random(987123)


def rand_rational(rng: random.Random, bound: int = 1000, nonzero: bool = False) -> Fraction:
    """Random rational with |numerator| and denominator at most `bound`."""
    while True:
        num = rng.randint(-bound, bound)
        den = rng.randint(1, bound)
        q = Fraction(num, den)
        if nonzero and q == 0:
            continue
        return q
