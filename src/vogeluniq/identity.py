"""Decide whether a factor product is identically constant on a line.

Restricting every factor to a parametrized line s*p0 + t*p1 turns it into a
binary linear form in (s, t).  One rule decides both kinds of product: the
product is constant on the line exactly when the restricted denominator
forms pair up with the numerator forms, proportionally for a classical
product and up to sign for a quantum one (`formula.pair_factors` proves
it).  The constant is the overall sign and scalar times the pairing's
multipliers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._util import rat_to_json
from .formula import (
    FactorProduct,
    SingularPointError,
    act_product,
    convert,
    eval_classical,
    eval_quantum,
    is_identically_one,
    pair_factors,
    ratio,
)
from .plane import (
    SWAP_AB,
    SWAP_BG,
    DegenerateInputError,
    LinearForm,
    ProjPoint,
    incident,
    span_points,
)

BinaryForm = tuple[Fraction, Fraction]  # u*s + v*t


class InternalConsistencyError(RuntimeError):
    """Symbolic verdict and numeric sampling disagree, or an exact
    construction fails the equations it satisfies by design: a bug, never
    a verdict."""


class VanishingFactorError(ValueError):
    def __init__(self, indices: list[tuple[str, int]]):
        self.indices = indices
        names = ", ".join(f"{side}[{i}]" for side, i in indices)
        super().__init__(f"factors identically zero on the line: {names}")


@dataclass(frozen=True)
class LineParam:
    """A line with two distinct spanning points; the map (s, t) -> s*p0 + t*p1."""

    line: LinearForm
    p0: ProjPoint
    p1: ProjPoint

    def __post_init__(self):
        if not (incident(self.p0, self.line) and incident(self.p1, self.line)):
            raise DegenerateInputError("spanning points must lie on the line")
        if self.p0 == self.p1:
            raise DegenerateInputError("spanning points must be distinct")

    @classmethod
    def from_line(cls, line: LinearForm) -> "LineParam":
        p0, p1 = span_points(line)
        return cls(line, p0, p1)

    def point_at(self, s: Fraction, t: Fraction) -> ProjPoint:
        coords = tuple(
            s * a + t * b for a, b in zip(self.p0.coords, self.p1.coords)
        )
        return ProjPoint(coords, self.line.basis)


@dataclass(frozen=True)
class IdentityReport:
    """Per-line verdict with witness data.

    verdict: "identically_one" | "identically_constant" | "not_constant"
             | "vanishing_factor"
    constant: value for identically_constant
    witness: exact on-line point with value != 1 for not_constant
    matching: denominator-to-numerator factor pairing for identically_one
    vanishing: (side, index) list for vanishing_factor
    """

    line: LinearForm
    verdict: str
    constant: Fraction | None = None
    witness: ProjPoint | None = None
    matching: tuple[int, ...] | None = None
    vanishing: tuple[tuple[str, int], ...] = ()

    @property
    def identically_one(self) -> bool:
        return self.verdict == "identically_one"

    def to_json(self) -> dict:
        out: dict = {"line": self.line.to_json(), "verdict": self.verdict}
        if self.constant is not None:
            out["constant"] = rat_to_json(self.constant)
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.matching is not None:
            out["matching"] = list(self.matching)
        if self.vanishing:
            out["vanishing"] = [list(v) for v in self.vanishing]
        return out


def _align(lp: LineParam, basis) -> LineParam:
    """The same parametrized line expressed in another basis; the spanning
    points transform exactly, so the (s, t) chart is preserved."""
    if lp.line.basis is basis:
        return lp
    return LineParam(convert(lp.line, basis), convert(lp.p0, basis), convert(lp.p1, basis))


def restrict(F: FactorProduct, lp: LineParam) -> tuple[list[BinaryForm], list[BinaryForm]]:
    """Binary forms (value at p0) * s + (value at p1) * t for every factor."""
    param = _align(lp, F.basis)
    p0, p1 = param.p0, param.p1
    dead: list[tuple[str, int]] = []
    num = []
    den = []
    for side, forms, out in (("num", F.num, num), ("den", F.den, den)):
        for i, f in enumerate(forms):
            bf = (f(p0), f(p1))
            if bf[0] == 0 and bf[1] == 0:
                dead.append((side, i))
            out.append(bf)
    if dead:
        raise VanishingFactorError(dead)
    return num, den


def _line_points():
    """A fixed, lazy, endless sequence of pairwise distinct parameters (s, t):
    (1, n) for n = -6..6, then (0, 1), (1, 7), (1, -7), (1, 8), (1, -8), ..."""
    for n in range(-6, 7):
        yield Fraction(1), Fraction(n)
    yield Fraction(0), Fraction(1)
    for n in itertools.count(7):
        yield Fraction(1), Fraction(n)
        yield Fraction(1), Fraction(-n)


def _witness_bound(k: int, quantum: bool) -> int:
    """How many of `_line_points` hold a witness; see `_witness_on_line`."""
    return 2 ** (k + 1) + 2 * k + 1 if quantum else 2 * k + 1


def _values(F: FactorProduct, lp: LineParam, xs, limit: int):
    """Yield (point, values) at the points among the first `limit` of
    `_line_points` where the product has a value: the quantum values at
    each x in `xs`, skipping points where some factor is zero, or the exact
    classical value as a one-item list, skipping denominator zeros (a
    numerator zero gives the value 0)."""
    lp = _align(lp, F.basis)
    # zip with range, not islice: the quantum bound can exceed sys.maxsize
    for _, (s, t) in zip(range(limit), _line_points()):
        pt = lp.point_at(s, t)
        if F.quantum:
            try:
                values = [eval_quantum(F, pt, x) for x in xs]
            except SingularPointError:
                continue
        else:
            res = eval_classical(F, pt)
            if res.kind not in ("finite", "zero"):
                continue
            values = [res.value if res.is_finite else Fraction(0)]
        yield pt, values


def _witness_on_line(F: FactorProduct, lp: LineParam) -> ProjPoint:
    """An exact rational point on the line where the value differs from 1:
    the first one among the first `_witness_bound` points of `_line_points`.

    That many points hold a witness whenever the product is not constant
    on the line and no factor vanishes on it.  Write N and D for the
    restricted numerator (with its sign and scalar) and denominator.

    Classical: a point is a witness when D and N - D are nonzero there.
    Both are nonzero binary forms of degree k in (s, t), so each has at
    most k zeros on the projective line, and any 2k + 1 pairwise distinct
    points contain a witness.

    Quantum: along (s, t) = (1, n) every factor is sinh(x (u + v n)), so N
    and D are sums of 2^k real exponentials in n each, and N - D one of at
    most 2^(k+1).  Unless it vanishes identically, it has at most
    2^(k+1) - 1 real zeros (Polya & Szego, Problems and Theorems in
    Analysis II, Part V), and each of the 2k factors is zero at one n at
    most.  The first 2^(k+1) + 2k + 1 points hold at least 2^(k+1) + 2k
    points (1, n), so one of them is a witness.  This is exact only up to
    the float comparison: a deviation below 1e-6 at all three x values
    reads as 1, and so does an N - D that vanishes identically at all
    three, which takes factors constant along the line whose values
    happen to agree there.

    Raises InternalConsistencyError when the walk ends without a witness:
    the symbolic verdict was wrong.
    """
    tol = 1e-6 if F.quantum else 0
    for pt, values in _values(F, lp, (0.37, 0.83, 1.29), _witness_bound(F.k, F.quantum)):
        if any(abs(v - 1) > tol for v in values):
            return pt
    raise InternalConsistencyError(
        f"symbolic check says not constant on {lp.line}, but no point "
        "has a value other than 1"
    )


def is_one_on_line(F: FactorProduct, line: LinearForm) -> IdentityReport:
    """Exact decision whether F is identically one (or another constant) on
    the line: the restricted factors are nonzero binary linear forms, and F
    is constant there exactly when `pair_factors` pairs them all up,
    proportionally for a classical product and up to sign for a quantum
    one.  The constant is sign * scalar times the pairing's multipliers."""
    lp = LineParam.from_line(convert(line, F.basis))
    try:
        num, den = restrict(F, lp)
    except VanishingFactorError as err:
        return IdentityReport(line, "vanishing_factor", vanishing=tuple(err.indices))
    pairing, total = pair_factors(num, den, up_to_sign=F.quantum)
    if None in pairing:
        witness = _witness_on_line(F, lp)
        return IdentityReport(line, "not_constant", witness=witness)
    constant = F.sign * F.scalar * total
    if constant == 1:
        return IdentityReport(line, "identically_one", matching=tuple(pairing))
    return IdentityReport(line, "identically_constant", constant=constant)


def check_on_lines(F: FactorProduct, lines) -> list[IdentityReport]:
    return [is_one_on_line(F, line) for line in lines]


_REL_TOL = 1e-9


def numeric_crosscheck(F: FactorProduct, line: LinearForm, samples: int = 8) -> bool:
    """Confirm the symbolic verdict at the first `samples` points of
    `_line_points` where the product has a value (plus several x values for
    quantum products): no factor is zero there, except numerator factors
    of a classical product, which give the value 0.  A factor that does
    not vanish on the line is zero at one of them at most, so the first
    samples + 2k points hold that many.  A not_constant verdict also needs
    a sample that deviates from 1; the walk goes on past `samples` until
    one does, up to `_witness_bound` points, which hold one.  Quantum
    values are floats and agree within the relative tolerance `_REL_TOL`.
    A disagreement raises InternalConsistencyError; agreement returns
    True."""
    report = is_one_on_line(F, line)
    lp = LineParam.from_line(convert(line, F.basis))
    if report.verdict == "vanishing_factor":
        return True  # nothing numeric to confirm: some factor is zero on the line
    not_constant = report.verdict == "not_constant"
    limit = samples + 2 * F.k
    if not_constant:
        limit = max(limit, _witness_bound(F.k, F.quantum))
    tol = _REL_TOL if F.quantum else 0  # classical values are exact
    checked = 0
    saw_deviation = False
    for pt, values in _values(F, lp, (1e-2, 0.11, 0.57, 1.3, 2.7), limit):
        deviates = any(abs(v - 1) > tol for v in values)
        checked += 1
        saw_deviation = saw_deviation or deviates
        if report.verdict == "identically_one" and deviates:
            raise InternalConsistencyError(
                f"symbolic identically_one but sampled {values} at {pt}"
            )
        if report.verdict == "identically_constant":
            target = float(report.constant)
            if any(abs(v - target) > _REL_TOL * max(1.0, abs(target)) for v in values):
                raise InternalConsistencyError(
                    f"symbolic constant {report.constant} but sampled {values}"
                )
        if checked >= samples and (saw_deviation or not not_constant):
            break
    if checked < samples:
        raise InternalConsistencyError(f"fewer than {samples} usable points on {line}")
    if not_constant and not saw_deviation:
        raise InternalConsistencyError(
            f"symbolic not_constant on {line} but every sample equals 1"
        )
    return True


def check_symmetric(F: FactorProduct) -> bool:
    """Whether the product is invariant under the full coordinate-permutation
    group, tested on its two generating transpositions.  Invariance means the
    permuted product equals the original as a function: their ratio is
    identically one on the plane."""
    return all(
        is_identically_one(ratio(act_product(gen, F), F)) for gen in (SWAP_AB, SWAP_BG)
    )
