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
    """Inverse of rat_to_json; each entry may also be a plain integer."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"expected [num, den] pair, got {pair!r}")
    num, den = map(_int_from_json, pair)
    if den == 0:
        raise ValueError(f"zero denominator in {pair!r}")
    return Fraction(num, den)


def _int_from_json(entry) -> int:
    """An integer, not a bool, or a string of an optional '-' and digits."""
    if isinstance(entry, int) and not isinstance(entry, bool):
        return entry
    digits = entry.removeprefix("-") if isinstance(entry, str) else ""
    if digits.isascii() and digits.isdigit():
        return int(entry)
    raise ValueError(f"expected an integer or a string of digits, got {entry!r}")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational from CLI text like '-2' or '5/3'."""
    try:
        return Fraction(text.strip().replace("−", "-"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
