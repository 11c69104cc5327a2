"""Shared helpers: exact JSON and command-line encodings of rationals.

Nothing in the package draws random numbers; `--seed` and
`enumerate_families(seed=)` are still accepted and change nothing.
"""

from __future__ import annotations

from fractions import Fraction


def rat_to_json(q: Fraction) -> list[str]:
    """Rational as a ["num", "den"] pair of digit strings (no precision loss)."""
    return [str(q.numerator), str(q.denominator)]


def rat_from_json(pair) -> Fraction:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [num, den] pair, got {pair!r}")
    num, den = int(pair[0]), int(pair[1])
    if den == 0:
        raise ValueError(f"zero denominator in {pair!r}")
    return Fraction(num, den)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from CLI text like '-2' or '5/3'."""
    try:
        return Fraction(text.strip().replace("−", "-"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
