"""Exact projective plane with universal coordinates (alpha : beta : gamma).

Points and lines live in one of two bases.  The unprimed basis carries the
raw universal parameters; the primed basis is the coordinate change

    a' = a + b,   b' = 2a + b,   c' = c - 2(a + b)

under which the three basic distinguished lines become the coordinate lines
a' = 0, b' = 0, c' = 0.  Points transform by the forward matrix, linear
forms by its contragredient, so incidence is basis independent.

Everything is an immutable value over Fraction; all operations are pure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from ._util import rat_from_json, rat_to_json

Rat = Union[int, Fraction, str]


class Basis(enum.Enum):
    UNPRIMED = "unprimed"
    PRIMED = "primed"


class BasisMismatchError(ValueError):
    """Raised when an operation gets an object in the wrong basis."""


class DegenerateInputError(ValueError):
    """Raised for coincident points, proportional lines and similar input."""


# Point coordinates transform primed = M . unprimed; forms by row . M^-1.
_M = (
    (Fraction(1), Fraction(1), Fraction(0)),
    (Fraction(2), Fraction(1), Fraction(0)),
    (Fraction(-2), Fraction(-2), Fraction(1)),
)
_M_INV = (
    (Fraction(-1), Fraction(1), Fraction(0)),
    (Fraction(2), Fraction(-1), Fraction(0)),
    (Fraction(2), Fraction(0), Fraction(1)),
)

Triple = tuple[Fraction, Fraction, Fraction]


def _triple(values: Iterable[Rat]) -> Triple:
    out = tuple(Fraction(v) for v in values)
    if len(out) != 3:
        raise ValueError(f"expected 3 coordinates, got {len(out)}")
    return out


def _canonical(t: Triple) -> Triple:
    """Scale so the first nonzero coordinate is +1 (unique projective rep)."""
    for c in t:
        if c != 0:
            return tuple(x / c for x in t)
    raise DegenerateInputError("zero triple has no projective class")


def _mat_vec(m, v: Triple) -> Triple:
    return tuple(sum(m[i][j] * v[j] for j in range(3)) for i in range(3))


def _vec_mat(v: Triple, m) -> Triple:
    return tuple(sum(v[i] * m[i][j] for i in range(3)) for j in range(3))


@dataclass(frozen=True, eq=False)
class ProjPoint:
    """Projective point.  Equality and hashing are up to a nonzero scalar,
    but the stored representative is preserved (quantum evaluation needs it)."""

    coords: Triple
    basis: Basis = Basis.UNPRIMED

    def __init__(self, coords: Iterable[Rat], basis: Basis = Basis.UNPRIMED):
        t = _triple(coords)
        if all(c == 0 for c in t):
            raise DegenerateInputError("projective point cannot be (0, 0, 0)")
        object.__setattr__(self, "coords", t)
        object.__setattr__(self, "basis", basis)

    def canonical(self) -> Triple:
        return _canonical(self.coords)

    def scaled(self, factor: Rat) -> "ProjPoint":
        f = Fraction(factor)
        if f == 0:
            raise DegenerateInputError("scale factor must be nonzero")
        return ProjPoint(tuple(c * f for c in self.coords), self.basis)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProjPoint):
            return NotImplemented
        return self.basis is other.basis and self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash((self.basis, self.canonical()))

    def __str__(self) -> str:
        mark = "'" if self.basis is Basis.PRIMED else ""
        return "(" + " : ".join(str(c) for c in self.coords) + ")" + mark

    def to_json(self) -> dict:
        return {"coeffs": [rat_to_json(c) for c in self.coords], "basis": self.basis.value}

    @classmethod
    def from_json(cls, obj: dict) -> "ProjPoint":
        return cls(*_coords_from_json(obj, "a point"))


@dataclass(frozen=True)
class LinearForm:
    """Linear form n*a + x*b + y*c.  Equality is exact on coefficients because
    forms occur as factors where the scalar matters; use same_line() for the
    projective comparison of the underlying lines."""

    coeffs: Triple
    basis: Basis = Basis.UNPRIMED

    def __init__(self, coeffs: Iterable[Rat], basis: Basis = Basis.UNPRIMED):
        t = _triple(coeffs)
        if all(c == 0 for c in t):
            raise DegenerateInputError("the zero triple is not a linear form")
        object.__setattr__(self, "coeffs", t)
        object.__setattr__(self, "basis", basis)

    def __call__(self, point: ProjPoint) -> Fraction:
        if point.basis is not self.basis:
            raise BasisMismatchError(f"form is {self.basis.value}, point is {point.basis.value}")
        return sum(c * v for c, v in zip(self.coeffs, point.coords))

    def canonical(self) -> Triple:
        return _canonical(self.coeffs)

    def same_line(self, other: "LinearForm") -> bool:
        return self.basis is other.basis and self.canonical() == other.canonical()

    def scaled(self, factor: Rat) -> "LinearForm":
        f = Fraction(factor)
        if f == 0:
            raise DegenerateInputError("scale factor must be nonzero")
        return LinearForm(tuple(c * f for c in self.coeffs), self.basis)

    def __neg__(self) -> "LinearForm":
        return self.scaled(-1)

    def __str__(self) -> str:
        names = ("a", "b", "c")
        mark = "'" if self.basis is Basis.PRIMED else ""
        parts = []
        for c, name in zip(self.coeffs, names):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            mag = abs(c)
            coef = "" if mag == 1 else str(mag) + "*"
            parts.append(f"{sign}{coef}{name}{mark}")
        return "".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"coeffs": [rat_to_json(c) for c in self.coeffs], "basis": self.basis.value}

    @classmethod
    def from_json(cls, obj: dict) -> "LinearForm":
        return cls(*_coords_from_json(obj, "a linear form"))


def _coords_from_json(obj, what: str) -> tuple[list[Fraction], Basis]:
    """The coordinates and basis of what `to_json` wrote: an object with a
    "coeffs" list of three rationals and a "basis".  Anything else raises
    ValueError with a message that starts with `what`."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object with the keys coeffs, basis, got {obj!r}")
    for key in ("coeffs", "basis"):
        if key not in obj:
            raise ValueError(f'{what} has no "{key}" key')
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list) or len(coeffs) != 3:
        raise ValueError(f"{what} needs coeffs as a list of three rationals, got {coeffs!r}")
    return [rat_from_json(q) for q in coeffs], Basis(obj["basis"])


def to_primed(obj):
    """Map a point or form from the unprimed to the primed basis."""
    if obj.basis is not Basis.UNPRIMED:
        raise BasisMismatchError("input is already primed")
    return convert(obj, Basis.PRIMED)


def to_unprimed(obj):
    """Inverse of to_primed."""
    if obj.basis is not Basis.PRIMED:
        raise BasisMismatchError("input is already unprimed")
    return convert(obj, Basis.UNPRIMED)


def convert(obj, basis: Basis):
    """The point or form in `basis`: points by the forward matrix, forms by
    its inverse on the right, or the other way round toward unprimed."""
    if obj.basis is basis:
        return obj
    points, forms = (_M, _M_INV) if basis is Basis.PRIMED else (_M_INV, _M)
    if isinstance(obj, ProjPoint):
        return ProjPoint(_mat_vec(points, obj.coords), basis)
    if isinstance(obj, LinearForm):
        return LinearForm(_vec_mat(obj.coeffs, forms), basis)
    raise TypeError(f"cannot change basis of {type(obj).__name__}")


@dataclass(frozen=True)
class Perm3:
    """Permutation of the three universal coordinates; images[i] = sigma(i)."""

    images: tuple[int, int, int]

    def __post_init__(self):
        if sorted(self.images) != [0, 1, 2]:
            raise ValueError(f"not a permutation of (0, 1, 2): {self.images}")

    def inverse(self) -> "Perm3":
        inv = [0, 0, 0]
        for i, img in enumerate(self.images):
            inv[img] = i
        return Perm3(tuple(inv))

    def compose(self, other: "Perm3") -> "Perm3":
        """self after other: (self * other)(i) = self(other(i))."""
        return Perm3(tuple(self.images[other.images[i]] for i in range(3)))

    def is_identity(self) -> bool:
        return self.images == (0, 1, 2)


IDENTITY = Perm3((0, 1, 2))
SWAP_AB = Perm3((1, 0, 2))
SWAP_BG = Perm3((0, 2, 1))
ALL_PERM3 = tuple(
    Perm3(images)
    for images in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0))
)


def act(perm: Perm3, obj):
    """Coordinate permutation, defined in the unprimed basis.

    Primed inputs are converted, permuted, converted back.  Point coordinates
    and form coefficients transform by the same index rule, which keeps
    incidence invariant.
    """
    if obj.basis is Basis.PRIMED:
        return to_primed(act(perm, to_unprimed(obj)))
    inv = perm.inverse().images
    if isinstance(obj, ProjPoint):
        return ProjPoint(tuple(obj.coords[inv[j]] for j in range(3)), obj.basis)
    if isinstance(obj, LinearForm):
        return LinearForm(tuple(obj.coeffs[inv[j]] for j in range(3)), obj.basis)
    raise TypeError(f"cannot act on {type(obj).__name__}")


# Vogel's table of the simple Lie algebra families: each family's point is
# base + param * step in (a, b, c), its t is a + b + c, and its line follows.
_FAMILY_POINTS = {
    "sl": ((-2, 2, 0), (0, 0, 1)),  # (-2, 2, N)
    "so": ((-2, 4, -4), (0, 0, 1)),  # (-2, 4, N - 4)
    "sp": ((-2, 1, 2), (0, 0, 1)),  # (-2, 1, N + 2)
    "exc": ((-2, 4, 4), (0, 1, 2)),  # (-2, n + 4, 2n + 4)
}
FAMILIES = tuple(_FAMILY_POINTS)

_FAMILY_LINES_UNPRIMED = {
    "sl": (1, 1, 0),  # a + b
    "so": (2, 1, 0),  # 2a + b
    "sp": (1, 2, 0),  # a + 2b
    "exc": (-2, -2, 1),  # c - 2(a + b)
}


@dataclass(frozen=True)
class AlgebraPoint:
    """A point of a simple-Lie-algebra family on its distinguished line.

    Any rational parameter is accepted so whole lines can be swept; whether
    the parameter is an integer is recorded as metadata only.
    """

    family: str
    param: Fraction
    point: ProjPoint
    t: Fraction

    @property
    def integer_param(self) -> bool:
        return self.param.denominator == 1


def vogel_point(family: str, param: Rat) -> AlgebraPoint:
    """Universal coordinates of a family member: sl(N), so(N), sp(2N), exc(n).

    The parameter is N for sl and so, N for sp(2N), and n for the exceptional
    line.  Exceptional coordinates are (-2, n + 4, 2n + 4), which places the
    point on the line c = 2(a + b); t = a + b + c always.
    """
    q = Fraction(param)
    if family not in _FAMILY_POINTS:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    base, step = _FAMILY_POINTS[family]
    coords = tuple(b + q * d for b, d in zip(base, step))
    return AlgebraPoint(family, q, ProjPoint(coords), sum(coords))


def family_line(family: str, basis: Basis = Basis.UNPRIMED) -> LinearForm:
    """The distinguished line carrying a family (sl, so, sp or exc)."""
    if family not in _FAMILY_LINES_UNPRIMED:
        raise ValueError(f"unknown family {family!r}")
    return convert(LinearForm(_FAMILY_LINES_UNPRIMED[family]), basis)


def distinguished_lines(basis: Basis = Basis.UNPRIMED) -> tuple[LinearForm, ...]:
    """The 12 distinguished lines: sl, so, sp, exc and their coordinate-permuted
    images.  The set is closed under every coordinate permutation."""
    unprimed = [
        *_FAMILY_LINES_UNPRIMED.values(),
        (1, 0, 1),
        (0, 1, 1),
        (1, 0, 2),
        (0, 1, 2),
        (2, 0, 1),
        (0, 2, 1),
        (-2, 1, -2),
        (1, -2, -2),
    ]
    return tuple(convert(LinearForm(c), basis) for c in unprimed)


def incident(point: ProjPoint, form: LinearForm) -> bool:
    """Whether the point lies on the line (bases must match)."""
    return form(point) == 0


def _cross(u: Triple, v: Triple) -> Triple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def line_through(p: ProjPoint, q: ProjPoint) -> LinearForm:
    """The unique line through two distinct points."""
    if p.basis is not q.basis:
        raise BasisMismatchError("points are in different bases")
    if p == q:
        raise DegenerateInputError("coincident points do not span a line")
    return LinearForm(_cross(p.coords, q.coords), p.basis)


def meet(f: LinearForm, g: LinearForm) -> ProjPoint:
    """The intersection point of two non-proportional lines."""
    if f.basis is not g.basis:
        raise BasisMismatchError("forms are in different bases")
    if f.same_line(g):
        raise DegenerateInputError("proportional forms define the same line")
    return ProjPoint(_cross(f.coeffs, g.coeffs), f.basis)


def span_points(form: LinearForm) -> tuple[ProjPoint, ProjPoint]:
    """Two distinct points spanning a line, chosen deterministically."""
    basis_triples = (
        (Fraction(0), Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(0)),
        (Fraction(1), Fraction(0), Fraction(0)),
    )
    found: list[ProjPoint] = []
    for e in basis_triples:
        c = _cross(form.coeffs, e)
        if all(v == 0 for v in c):
            continue
        pt = ProjPoint(_canonical(c), form.basis)
        if not any(pt == other for other in found):
            found.append(pt)
        if len(found) == 2:
            return found[0], found[1]
    raise DegenerateInputError(f"could not span line {form}")
