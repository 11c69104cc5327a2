"""Universal (quantum) dimension formulas as ratios of products of linear forms.

A FactorProduct holds k numerator forms and k denominator forms.  Classically
its value at a point is sign * scalar * prod(num) / prod(den); the quantum
value replaces every linear factor L by sinh(x * L(point)) and is therefore
sensitive to the affine representative of the point.  Coefficients divided by
four are stored inside the forms, so a single representation covers both the
adjoint formula and the Cartan-power family.  `pair_factors` is the one rule
for cancelling factors: on the plane (`cancel`), on a line of the plane, and
along the family lines of Vogel's table (`classical_on_family`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from ._util import rat_from_json, rat_to_json
from .plane import (
    Basis,
    BasisMismatchError,
    LinearForm,
    ProjPoint,
    Perm3,
    act,
    convert,
    vogel_point,
)


class SingularPointError(ValueError):
    """Quantum evaluation at a zero of some factor."""


@dataclass(frozen=True)
class EvalResult:
    """Classical evaluation outcome: finite value, zero, pole, or the
    indeterminate 0/0 case where numerator and denominator both vanish."""

    kind: str  # "finite" | "zero" | "pole" | "indeterminate"
    value: Fraction | None = None

    def __post_init__(self):
        if (self.kind == "finite") != (self.value is not None):
            raise ValueError("finite results carry a value, singular ones do not")

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"


@dataclass(frozen=True)
class FactorProduct:
    num: tuple[LinearForm, ...]
    den: tuple[LinearForm, ...]
    quantum: bool = False
    sign: int = 1
    scalar: Fraction = Fraction(1)
    basis: Basis = Basis.UNPRIMED

    def __post_init__(self):
        if len(self.num) != len(self.den):
            raise ValueError("numerator and denominator need the same number of factors")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.scalar <= 0:
            raise ValueError("scalar must be a positive rational (signs live in `sign`)")
        if self.quantum and self.scalar != 1:
            raise ValueError("quantum formulas admit no scalar beyond the sign")
        for form in self.num + self.den:
            if form.basis is not self.basis:
                raise BasisMismatchError("all factors must share the product's basis")

    @property
    def k(self) -> int:
        return len(self.num)

    def __str__(self) -> str:
        head = "sinh-product" if self.quantum else "product"
        lead = ("-" if self.sign < 0 else "") + (
            "" if self.scalar == 1 else f"{self.scalar}*"
        )
        num = " * ".join(f"({f})" for f in self.num) or "1"
        den = " * ".join(f"({f})" for f in self.den) or "1"
        return f"{lead}{head}[{num} / {den}]"

    def to_json(self) -> dict:
        return {
            "quantum": self.quantum,
            "sign": self.sign,
            "scalar": rat_to_json(self.scalar),
            "basis": self.basis.value,
            "num": [f.to_json() for f in self.num],
            "den": [f.to_json() for f in self.den],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "FactorProduct":
        """Inverse of to_json: `obj` must be an object with every key that
        to_json writes, `quantum` a bool, `sign` an int, and `num` and `den`
        lists of `LinearForm.to_json` objects; a malformed factor is named
        by its side and index."""
        keys = ("quantum", "sign", "scalar", "basis", "num", "den")
        if not isinstance(obj, dict):
            raise ValueError(f"formula JSON must be an object with the keys {', '.join(keys)}")
        missing = [key for key in keys if key not in obj]
        if missing:
            raise ValueError(f'formula JSON has no "{missing[0]}" key')
        if not isinstance(obj["quantum"], bool):
            raise ValueError(f"quantum must be true or false, got {obj['quantum']!r}")
        if type(obj["sign"]) is not int:
            raise ValueError(f"sign must be the integer 1 or -1, got {obj['sign']!r}")
        return cls(
            num=_forms_from_json(obj, "num"),
            den=_forms_from_json(obj, "den"),
            quantum=obj["quantum"],
            sign=obj["sign"],
            scalar=rat_from_json(obj["scalar"]),
            basis=Basis(obj["basis"]),
        )


def _forms_from_json(obj: dict, side: str) -> tuple[LinearForm, ...]:
    """The factors of one side of a formula JSON object, each read by
    `LinearForm.from_json`; an error names the side and the factor."""
    factors = obj[side]
    if not isinstance(factors, list):
        raise ValueError(f"{side} must be a list of linear forms, got {factors!r}")
    forms = []
    for i, factor in enumerate(factors):
        try:
            forms.append(LinearForm.from_json(factor))
        except ValueError as err:
            raise ValueError(f"{side}[{i}]: {err}") from None
    return tuple(forms)


def empty_product(quantum: bool = False, basis: Basis = Basis.UNPRIMED) -> FactorProduct:
    return FactorProduct((), (), quantum=quantum, basis=basis)


def _map_factors(F: FactorProduct, fn, **changes) -> FactorProduct:
    """F with `fn` applied to every factor and the other fields in `changes`."""
    return replace(F, num=tuple(map(fn, F.num)), den=tuple(map(fn, F.den)), **changes)


def convert_product(F: FactorProduct, basis: Basis) -> FactorProduct:
    if F.basis is basis:
        return F
    return _map_factors(F, lambda f: convert(f, basis), basis=basis)


def act_product(perm: Perm3, F: FactorProduct) -> FactorProduct:
    """Coordinate permutation applied to every factor."""
    return _map_factors(F, lambda f: act(perm, f))


def eval_classical(F: FactorProduct, point: ProjPoint) -> EvalResult:
    """Exact value at a point; singular patterns are values, not errors.

    Scale invariant in the point because numerator and denominator carry the
    same number of factors.
    """
    point = convert(point, F.basis)
    num_vals = [f(point) for f in F.num]
    den_vals = [f(point) for f in F.den]
    num_zero = any(v == 0 for v in num_vals)
    den_zero = any(v == 0 for v in den_vals)
    if num_zero and den_zero:
        return EvalResult("indeterminate")
    if num_zero:
        return EvalResult("zero")
    if den_zero:
        return EvalResult("pole")
    value = Fraction(F.sign) * F.scalar
    for v in num_vals:
        value *= v
    for v in den_vals:
        value /= v
    return EvalResult("finite", value)


def eval_quantum(F: FactorProduct, point: ProjPoint, x: float) -> float:
    """sign * prod sinh(x * num_i(p)) / prod sinh(x * den_i(p)).

    Not projectively scale invariant: the caller's affine representative of
    the point is used as is.  Factors are consumed as num/den pairs so the
    intermediate magnitudes stay tame; a non-finite x, or a value beyond
    the float range, raises ValueError.
    """
    if not F.quantum:
        raise ValueError("eval_quantum needs a quantum formula")
    if not math.isfinite(x):
        raise ValueError(f"x must be a finite number, got {x}")
    if x == 0:
        raise ValueError("x must be nonzero (the x -> 0 limit is eval_classical)")
    point = convert(point, F.basis)
    num_vals = [f(point) for f in F.num]
    den_vals = [f(point) for f in F.den]
    for side, vals in (("numerator", num_vals), ("denominator", den_vals)):
        for i, v in enumerate(vals):
            if v == 0:
                forms = F.num if side == "numerator" else F.den
                raise SingularPointError(
                    f"{side} factor {i} ({forms[i]}) vanishes at {point}"
                )
    result = float(F.sign)
    try:
        for nv, dv in zip(num_vals, den_vals):
            result *= _sinh_ratio(x * float(nv), x * float(dv))
    except OverflowError:
        result = math.inf
    if not math.isfinite(result):
        raise ValueError(f"the value at x = {x} is out of floating-point range")
    return result


def _sinh_ratio(u: float, v: float) -> float:
    """sinh(u)/sinh(v), stable for large |u|, |v|."""
    if abs(u) < 700 and abs(v) < 700:
        return math.sinh(u) / math.sinh(v)
    sign = 1.0
    if u < 0:
        sign, u = -sign, -u
    if v < 0:
        sign, v = -sign, -v
    log_num = u + math.log1p(-math.exp(-2 * u)) if u > 0 else -math.inf
    log_den = v + math.log1p(-math.exp(-2 * v)) if v > 0 else -math.inf
    return sign * math.exp(log_num - log_den)


def multiply(F: FactorProduct, G: FactorProduct) -> FactorProduct:
    if F.quantum != G.quantum:
        raise ValueError("cannot multiply classical and quantum products")
    if F.basis is not G.basis:
        raise BasisMismatchError("products are in different bases")
    return FactorProduct(
        F.num + G.num,
        F.den + G.den,
        quantum=F.quantum,
        sign=F.sign * G.sign,
        scalar=F.scalar * G.scalar,
        basis=F.basis,
    )


def ratio(F: FactorProduct, G: FactorProduct) -> FactorProduct:
    """F / G as a factor product (the shape every non-uniqueness factor has)."""
    return multiply(F, replace(G, num=G.den, den=G.num, scalar=1 / G.scalar))


def classical_limit(F: FactorProduct) -> FactorProduct:
    """The x -> 0 limit of a quantum product, as a classical factor product.

    Since numerator and denominator have the same number of factors, the limit
    keeps the factor lists and sign; proportional pairs then cancel to their
    coefficient ratio under the classical cancel().
    """
    return replace(F, quantum=False)


def factor_class(coeffs: tuple, up_to_sign: bool) -> tuple:
    """The key of a factor's class under `pair_factors`: its coefficients
    divided by the first nonzero one, or only negated when that one is
    negative if `up_to_sign` is set."""
    lead = 0
    for lead in coeffs:
        if lead:
            break
    if up_to_sign:
        return coeffs if lead >= 0 else tuple(-c for c in coeffs)
    return tuple(c / lead if c else c for c in coeffs)


def pair_factors(
    num: list[tuple], den: list[tuple], up_to_sign: bool
) -> tuple[list[int | None], Fraction]:
    """Pair each denominator factor, in order, with the first unused
    numerator factor of its `factor_class`; factors are rational coefficient
    tuples.  Returns the pairing (the numerator index per denominator factor,
    None where none is left) and the product of the pair multipliers q,
    where numerator = q * denominator (q = +-1 when `up_to_sign`).

    This is the one rule for "cancels to a constant".  Nonzero linear forms
    are irreducible in a unique factorization domain, so two products of
    them differ by a constant exactly when their factors pair up
    proportionally; that decides classical products.  A quantum factor
    sinh(x L) vanishes on the lines L = i pi m / x for every integer m, so
    c L has the same zeros as L only for c = +-1, and the sides of a quantum
    product differ by a constant exactly when their factors pair up to
    sign.  Both relations are equivalences, so greedy pairing leaves a
    factor unpaired only when its class has more members on its side.
    """
    unused: dict[tuple, list[int]] = {}
    for i, coeffs in enumerate(num):
        unused.setdefault(factor_class(coeffs, up_to_sign), []).append(i)
    pairing: list[int | None] = []
    total = Fraction(1)
    for coeffs in den:
        free = unused.get(factor_class(coeffs, up_to_sign))
        if not free:
            pairing.append(None)
            continue
        i = free.pop(0)
        pairing.append(i)
        total *= next(a / b for a, b in zip(num[i], coeffs) if b)
    return pairing, total


def cancel(F: FactorProduct) -> FactorProduct:
    """Remove the numerator/denominator pairs of `pair_factors`, proportional
    for classical products and equal up to sign for quantum ones, keeping
    the other factors in order and folding the multipliers into the sign
    and scalar."""
    pairing, total = pair_factors(
        [f.coeffs for f in F.num], [f.coeffs for f in F.den], up_to_sign=F.quantum
    )
    paired = set(pairing)
    value = F.sign * F.scalar * total
    return FactorProduct(
        tuple(f for i, f in enumerate(F.num) if i not in paired),
        tuple(f for f, i in zip(F.den, pairing) if i is None),
        quantum=F.quantum,
        sign=1 if value > 0 else -1,
        scalar=abs(value),
        basis=F.basis,
    )


def is_identically_one(F: FactorProduct) -> bool:
    """Whether the product reduces to the constant 1 on the whole plane."""
    reduced = cancel(F)
    return (
        reduced.k == 0 and reduced.sign == 1 and (reduced.quantum or reduced.scalar == 1)
    )


def _quarter(n, x, y) -> LinearForm:
    return LinearForm((Fraction(n, 4), Fraction(x, 4), Fraction(y, 4)), Basis.UNPRIMED)


def adjoint_formula() -> FactorProduct:
    """Quantum dimension of the adjoint representation.

    Three sinh factors over three: -(2a+2b+c)(2a+b+2c)(a+2b+2c) / (a*b*c),
    every linear form carrying the conventional quarter.
    """
    num = (_quarter(2, 2, 1), _quarter(2, 1, 2), _quarter(1, 2, 2))
    den = (_quarter(1, 0, 0), _quarter(0, 1, 0), _quarter(0, 0, 1))
    return FactorProduct(num, den, quantum=True, sign=-1)


def x2k_adn_formula(k: int, n: int) -> FactorProduct:
    """Quantum dimension of the Cartan product of the k-th power of the
    two-form representation X2 (from wedge^2 ad = ad + X2) with the n-th
    power of the adjoint.  Assembled factor by factor; no cancellation is
    performed, so evaluation at family points generally needs cancel() first.
    """
    if k < 0 or n < 0:
        raise ValueError("k and n must be non-negative")
    num: list[LinearForm] = []
    den: list[LinearForm] = []

    def nf(a, b, c):
        num.append(_quarter(a, b, c))

    def df(a, b, c):
        den.append(_quarter(a, b, c))

    def block(j):
        nf(j - 2, -2, 0)
        nf(j - 2, 0, -2)
        nf(-(j - 2), 1, 1)
        df(j + 1, 0, 0)
        df(-(j - 1), 1, 0)
        df(-(j - 1), 0, 1)

    for i in range(k):
        block(i)
        block(i)
    for j in range(k, k + n + 1):
        block(j)
    for i in range(1, 2 * k + n + 1):
        nf(i - 3, -1, -2)
        nf(i - 3, -2, -1)
        nf(i - 5, -2, -2)
        df(i - 2, -2, 0)
        df(i - 2, 0, -2)
        df(-(i - 2), 1, 1)
    nf(1, 1, 0)
    nf(1, 0, 1)
    nf(n + 1, 0, 0)
    df(2, 2, 0)
    df(2, 0, 2)
    df(2, 1, 1)
    nf(3 * k + n - 4, -2, -2)
    nf(3 * k + 2 * n - 3, -2, -2)
    df(3, 2, 2)
    df(4, 2, 2)
    return FactorProduct(tuple(num), tuple(den), quantum=True, sign=1)


def classical_on_family(F: FactorProduct, family: str) -> tuple[tuple, tuple]:
    """Exact value of the product along a family line of `vogel_point`
    ("sl", "so", "sp" or "exc"), as a reduced ratio of polynomials in the
    family parameter q: two ascending tuples of Fraction coefficients, the
    denominator monic and the sign and scalar folded into the numerator.
    A numerator factor vanishing on the line gives ((), (1,)); a denominator
    factor vanishing on it raises ZeroDivisionError, also when both do.

    Every factor restricts to the binary form u + v*q, u its value at the
    family's parameter-0 point and v its change from there to parameter 1.
    Such a form is a unit or linear, so irreducible in Q[q]; `pair_factors`
    cancels the proportional pairs, and the factors it leaves unpaired share
    no linear factor across the sides, so their quotient is the reduced ratio.
    """
    at0, at1 = (convert(vogel_point(family, q).point, F.basis) for q in (0, 1))
    num, den = (
        [(f(at0), f(at1) - f(at0)) for f in forms] for forms in (F.num, F.den)
    )
    if (0, 0) in den:
        raise ZeroDivisionError(f"the {family} line lies inside a denominator factor")
    if (0, 0) in num:
        return (), (Fraction(1),)
    pairing, total = pair_factors(num, den, up_to_sign=False)
    paired = set(pairing)
    top = _expand(
        F.sign * F.scalar * total, [form for i, form in enumerate(num) if i not in paired]
    )
    bottom = _expand(Fraction(1), [form for form, i in zip(den, pairing) if i is None])
    lead = bottom[-1]
    return tuple(c / lead for c in top), tuple(c / lead for c in bottom)


def _expand(constant: Fraction, forms: list[tuple]) -> list[Fraction]:
    """Ascending coefficients of constant * prod(u + v*q) over the forms."""
    poly = [constant]
    for u, v in forms:
        if v:
            poly = [u * a + v * b for a, b in zip(poly + [0], [0] + poly)]
        else:
            poly = [u * c for c in poly]
    return poly
