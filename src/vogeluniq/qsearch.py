"""Constraint systems for non-uniqueness factors and searches over them.

A non-uniqueness factor equal to 1 on the three primed coordinate lines is
a product of factors (n_i*a + x_i*b + y_i*c) / (m_i*a + x_i*b + y_i*c) whose
parameters satisfy permutation-indexed linear relations

    x_i = c_i x_{p(i)},   y_i = k_i y_{s(i)},   k_i n_{s(i)} = c_i n_{p(i)}

with multiplier products equal to one; requiring 1 on the fourth line
3a - b = 0 adds a third permutation v with multipliers r:

    y_i = r_i y_{v(i)},   c_i n_{p(i)} + 3 x_i = r_i (n_{v(i)} + 3 x_{v(i)}).

In the quantum case every multiplier is +-1, which turns the search into a
finite enumeration over permutation tuples and sign vectors.  All its
coefficients are then integers in {0, +-1, +-3}: each case is solved by
fraction-free integer elimination and decided by exact tests (degeneracy,
and nontriviality by pairing the factors' linear maps up to sign), so the
search draws no random numbers and its result does not depend on a seed;
Fraction vectors are built only for the families it returns.  The classical
multipliers form a continuum; they are verified rather than searched, except
for the dedicated k = 3 survey which decides nontriviality stratum by
stratum with generic rational sampling.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from ._linalg import int_nullspace, rref_basis
from ._util import make_rng, rand_rational
from .formula import FactorProduct, cancel, ratio
from .plane import Basis, LinearForm

PRIMED_LINES = {
    "three": (
        LinearForm((1, 0, 0), Basis.PRIMED),
        LinearForm((0, 1, 0), Basis.PRIMED),
        LinearForm((0, 0, 1), Basis.PRIMED),
    ),
    "four": (
        LinearForm((1, 0, 0), Basis.PRIMED),
        LinearForm((0, 1, 0), Basis.PRIMED),
        LinearForm((0, 0, 1), Basis.PRIMED),
        LinearForm((3, -1, 0), Basis.PRIMED),
    ),
}


class InvalidMultiplierError(ValueError):
    """Multiplier vector violates a product-one constraint."""


Perm = tuple[int, ...]


def _check_perm(perm: Perm, k: int, name: str) -> None:
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{name} is not a permutation of 0..{k - 1}: {perm}")


def perm_inverse(perm: Perm) -> Perm:
    inv = [0] * len(perm)
    for i, img in enumerate(perm):
        inv[img] = i
    return tuple(inv)


@dataclass(frozen=True)
class PermTriple:
    """Cancellation patterns: s pairs factors on b = 0, p on c = 0 and,
    for four-line systems, v on 3a - b = 0.  The pairing on a = 0 is
    normalized to the identity by renumbering denominator factors."""

    s: Perm
    p: Perm
    v: Perm | None = None

    def __post_init__(self):
        k = len(self.s)
        _check_perm(self.s, k, "s")
        _check_perm(self.p, k, "p")
        if self.v is not None:
            _check_perm(self.v, k, "v")


@dataclass(frozen=True)
class MultiplierAssignment:
    """Per-factor multipliers; classical entries are nonzero rationals,
    quantum entries are +-1.  Each vector multiplies to one."""

    c: tuple[Fraction, ...]
    kmul: tuple[Fraction, ...]
    r: tuple[Fraction, ...] | None = None
    quantum: bool = False

    def __post_init__(self):
        for attr in ("c", "kmul", "r"):
            vec = getattr(self, attr)
            if vec is not None:
                object.__setattr__(self, attr, tuple(Fraction(q) for q in vec))
        for name, vec in (("c", self.c), ("k", self.kmul), ("r", self.r)):
            if vec is None:
                continue
            prod = Fraction(1)
            for entry in vec:
                if entry == 0:
                    raise InvalidMultiplierError(f"{name} contains a zero multiplier")
                if self.quantum and entry not in (1, -1):
                    raise InvalidMultiplierError(f"quantum {name} entries must be +-1")
                prod *= entry
            if prod != 1:
                raise InvalidMultiplierError(f"product of {name} multipliers is {prod}, not 1")


@dataclass(frozen=True)
class ConstraintSystem:
    """A fully instantiated equation set over the unknowns n_i, x_i, y_i.

    Unknown layout: n_i at index i, x_i at k + i, y_i at 2k + i.
    """

    k: int
    lines: str  # "three" | "four"
    perms: PermTriple
    mult: MultiplierAssignment

    def line_forms(self) -> tuple[LinearForm, ...]:
        return PRIMED_LINES[self.lines]

    def equations(self) -> list[tuple[str, dict[int, Fraction]]]:
        """Labelled sparse rows {unknown: coefficient}, for verify_solution."""
        k, perms, mult = self.k, self.perms, self.mult
        labels = [t.format(i=i) for i in range(k) for t in _THREE_LINE_LABELS]
        if self.lines == "four":
            labels += [t.format(i=i) for i in range(k) for t in _FOURTH_LINE_LABELS]
        terms = _relation_terms(k, perms.s, perms.p, mult.c, mult.kmul, perms.v, mult.r)
        eqs: list[tuple[str, dict[int, Fraction]]] = []
        for label, row_terms in zip(labels, terms):
            row: dict[int, Fraction] = {}
            for idx, coef in row_terms:
                row[idx] = row.get(idx, Fraction(0)) + coef
            eqs.append((label, {i: q for i, q in row.items() if q != 0}))
        return eqs


_THREE_LINE_LABELS = (
    "x[{i}] = c[{i}]*x[p({i})]",
    "y[{i}] = k[{i}]*y[s({i})]",
    "k[{i}]*n[s({i})] = c[{i}]*n[p({i})]",
)
_FOURTH_LINE_LABELS = (
    "y[{i}] = r[{i}]*y[v({i})]",
    "c[{i}]*n[p({i})] + 3x[{i}] = r[{i}]*(n[v({i})] + 3x[v({i})])",
)


def _relation_terms(k: int, s, p, c, km, v=None, r=None, base: bool = True) -> list[tuple]:
    """The relations of a system as (unknown, coefficient) terms, one tuple
    per equation, with the coefficients of a repeated unknown to be summed:
    for each i the three-line relations (left out with base=False), then,
    given v and r, the fourth-line relations for each i.  This is the order
    of the label templates above.  Coefficients are integers for integer
    (+-1) multipliers."""
    rows = []
    if base:
        for i in range(k):
            rows.append(((k + i, 1), (k + p[i], -c[i])))
            rows.append(((2 * k + i, 1), (2 * k + s[i], -km[i])))
            rows.append(((s[i], km[i]), (p[i], -c[i])))
    if v is not None:
        for i in range(k):
            rows.append(((2 * k + i, 1), (2 * k + v[i], -r[i])))
            rows.append(((p[i], c[i]), (k + i, 3), (v[i], -r[i]), (k + v[i], -3 * r[i])))
    return rows


def _dense_rows(k: int, terms: list[tuple]) -> list[list]:
    rows = []
    for row_terms in terms:
        row = [0] * (3 * k)
        for idx, coef in row_terms:
            row[idx] += coef
        rows.append(row)
    return rows


def build_system(
    k: int, lines: str, perms: PermTriple, mult: MultiplierAssignment
) -> ConstraintSystem:
    """Validate and assemble the equation set for the given pairings."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if lines not in ("three", "four"):
        raise ValueError("lines must be 'three' or 'four'")
    if len(perms.s) != k or len(perms.p) != k:
        raise ValueError("permutation length differs from k")
    if (lines == "four") != (perms.v is not None):
        raise ValueError("four-line systems need v, three-line systems must not have it")
    if (lines == "four") != (mult.r is not None):
        raise ValueError("four-line systems need r multipliers, three-line systems must not")
    if len(mult.c) != k or len(mult.kmul) != k or (mult.r is not None and len(mult.r) != k):
        raise ValueError("multiplier length differs from k")
    return ConstraintSystem(k, lines, perms, mult)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    failures: tuple[str, ...] = ()


def verify_solution(
    system: ConstraintSystem,
    n: tuple[Fraction, ...],
    x: tuple[Fraction, ...],
    y: tuple[Fraction, ...],
) -> VerifyReport:
    """Substitute a concrete assignment into every equation; exact per-equation
    pass/fail with the failing equations named."""
    k = system.k
    vec = tuple(Fraction(q) for q in (*n, *x, *y))
    if len(vec) != 3 * k:
        raise ValueError("assignment length differs from 3k")
    failures = []
    for label, row in system.equations():
        total = sum(coef * vec[idx] for idx, coef in row.items())
        if total != 0:
            failures.append(label)
    return VerifyReport(not failures, tuple(failures))


@dataclass(frozen=True)
class SolutionFamily:
    """Nullspace parametrization of a system: every unknown is a linear
    expression in the free parameters (rref convention, so parameter j is the
    value of the j-th free unknown)."""

    system: ConstraintSystem
    vectors: tuple[tuple[Fraction, ...], ...]  # one 3k-vector per free parameter

    @property
    def free_parameters(self) -> int:
        return len(self.vectors)

    def instantiate(
        self, params: tuple[Fraction, ...]
    ) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...], tuple[Fraction, ...]]:
        if len(params) != len(self.vectors):
            raise ValueError(f"expected {len(self.vectors)} parameters")
        k = self.system.k
        full = [Fraction(0)] * (3 * k)
        for t, vec in zip(params, self.vectors):
            if t == 0:
                continue
            for idx, component in enumerate(vec):
                full[idx] += t * component
        return tuple(full[:k]), tuple(full[k : 2 * k]), tuple(full[2 * k :])

    def factor_product(self, params: tuple[Fraction, ...], quantum: bool | None = None) -> FactorProduct:
        n, x, y = self.instantiate(params)
        if quantum is None:
            quantum = self.system.mult.quantum
        return product_from_assignment(self.system, n, x, y, quantum)


def product_from_assignment(
    system: ConstraintSystem,
    n: tuple[Fraction, ...],
    x: tuple[Fraction, ...],
    y: tuple[Fraction, ...],
    quantum: bool = False,
) -> FactorProduct:
    """The factor product encoded by an assignment, in the primed basis.
    Denominator alpha-coefficients are m_i = k_i * n_{s(i)}."""
    k = system.k
    s, km = system.perms.s, system.mult.kmul
    num = tuple(LinearForm((n[i], x[i], y[i]), Basis.PRIMED) for i in range(k))
    den = tuple(LinearForm((km[i] * n[s[i]], x[i], y[i]), Basis.PRIMED) for i in range(k))
    return FactorProduct(num, den, quantum=quantum, basis=Basis.PRIMED)


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "nontrivial" | "trivial" | "infeasible"
    family: SolutionFamily | None = None
    reason: str = ""


def _columns(k: int, vectors) -> list[tuple]:
    """Each unknown's values across the basis vectors: its linear map of the
    family parameters."""
    return [tuple(vec[u] for vec in vectors) for u in range(3 * k)]


def _factor_maps(k: int, s, km, cols) -> tuple[list, list]:
    """The (alpha, beta, gamma) coefficient maps of the numerator and of the
    denominator factors, given each unknown's map in `cols`.  Denominator
    alpha-coefficients are m_i = k_i * n_{s(i)}."""
    num = [(cols[i], cols[k + i], cols[2 * k + i]) for i in range(k)]
    den = [
        (
            cols[s[i]] if km[i] == 1 else tuple(km[i] * a for a in cols[s[i]]),
            cols[k + i],
            cols[2 * k + i],
        )
        for i in range(k)
    ]
    return num, den


def _degeneracy(maps: tuple[list, list], four: bool) -> str | None:
    """The first factor, numerator factors before denominator factors, that
    is zero or restricts to zero on a system line for every parameter value;
    a restriction vanishes when both coefficients it keeps are zero maps."""
    for side, factors in zip(("num", "den"), maps):
        for i, (n, x, y) in enumerate(factors):
            n_zero, x_zero, y_zero = not any(n), not any(x), not any(y)
            if n_zero and x_zero and y_zero:
                return f"{side}[{i}] is identically zero"
            vanishing = [x_zero and y_zero, n_zero and y_zero, n_zero and x_zero]
            if four:  # 3a' - b' = 0 keeps n + 3x and y
                vanishing.append(y_zero and not any(a + 3 * b for a, b in zip(n, x)))
            if any(vanishing):
                return f"{side}[{i}] vanishes identically on system line {vanishing.index(True)}"
    return None


def _up_to_sign(flat: tuple) -> tuple:
    lead = next((a for a in flat if a), 0)
    return flat if lead > 0 else tuple(-a for a in flat)


def _keeps_a_factor(maps: tuple[list, list]) -> bool:
    """Whether the factor maps fail to pair up one-to-one, numerator with
    denominator, equal up to sign.  Equality up to sign is an equivalence,
    so they pair up exactly when each class is as common on both sides."""
    num, den = maps
    key = lambda factors: Counter(_up_to_sign(n + x + y) for n, x, y in factors)
    return key(num) != key(den)


def family_degeneracy(family: SolutionFamily) -> str | None:
    """Why every instantiation of the family fails to be a valid factor
    product equal to one on its lines: a factor forced to zero, or a factor
    whose restriction to a system line vanishes identically."""
    system = family.system
    k = system.k
    maps = _factor_maps(k, system.perms.s, system.mult.kmul, _columns(k, family.vectors))
    return _degeneracy(maps, system.lines == "four")


def is_nontrivial(family: SolutionFamily) -> bool:
    """Semantic nontriviality of a quantum family: a generic instantiation
    keeps a nonempty product after quantum cancellation.

    Every factor is linear in the family parameters, and quantum
    cancellation drops only pairs of factors equal up to sign, so a generic
    instantiation cancels completely exactly when the numerator and
    denominator factor maps pair up one-to-one, equal up to sign as linear
    maps.  The test is exact and draws no random numbers; it does not depend
    on the basis chosen for the family.
    """
    if family.free_parameters < 1:
        raise ValueError("family has no free parameters")
    system = family.system
    if not system.mult.quantum:
        raise ValueError("is_nontrivial decides quantum cancellation; the family is classical")
    k = system.k
    return _keeps_a_factor(
        _factor_maps(k, system.perms.s, system.mult.kmul, _columns(k, family.vectors))
    )


def _instantiation_restriction_vanishes(system: ConstraintSystem, product: FactorProduct) -> bool:
    k = system.k
    for forms in (product.num, product.den):
        for f in forms:
            n_c, x_c, y_c = f.coeffs
            checks = [(x_c, y_c), (n_c, y_c), (n_c, x_c)]
            if system.lines == "four":
                checks.append((n_c + 3 * x_c, y_c))
            if any(a == 0 and b == 0 for a, b in checks):
                return True
    return False


def solve_quantum(system: ConstraintSystem) -> SolveOutcome:
    """Solve the system exactly for +-1 multipliers.

    The equations are linear with integer coefficients; they are solved by
    fraction-free elimination, and the returned family is the nullspace in
    rref parametrization.  Families whose every instantiation has a zero
    factor or a factor vanishing identically on a system line are reported
    infeasible; the rest are split by the exact triviality test of
    `is_nontrivial`.  Nothing is sampled, so the outcome is deterministic.
    """
    if not system.mult.quantum:
        raise ValueError("solve_quantum needs +-1 multipliers (quantum assignment)")
    k, perms, mult = system.k, system.perms, system.mult
    c, km = _ints(mult.c), _ints(mult.kmul)
    r = None if mult.r is None else _ints(mult.r)
    vectors = int_nullspace(
        _dense_rows(k, _relation_terms(k, perms.s, perms.p, c, km, perms.v, r)), 3 * k
    )
    if not vectors:
        return SolveOutcome("infeasible", reason="only the zero solution")
    family = SolutionFamily(system, tuple(map(tuple, rref_basis(vectors))))
    maps = _factor_maps(k, perms.s, km, _columns(k, vectors))
    reason = _degeneracy(maps, system.lines == "four")
    if reason is not None:
        return SolveOutcome("infeasible", family=family, reason=reason)
    if _keeps_a_factor(maps):
        return SolveOutcome("nontrivial", family=family)
    return SolveOutcome("trivial", family=family)


def _ints(signs: tuple[Fraction, ...]) -> tuple[int, ...]:
    return tuple(int(q) for q in signs)


def sign_vectors(k: int) -> list[tuple[int, ...]]:
    """All +-1 vectors of length k with product +1, in a fixed order."""
    out = []
    for bits in itertools.product((1, -1), repeat=k - 1):
        tail = 1
        for b in bits:
            tail *= b
        out.append(bits + (tail,))
    return out


# --- exhaustive quantum enumeration -----------------------------------------


@dataclass(frozen=True)
class FoundFamily:
    case_index: int
    system: ConstraintSystem
    family: SolutionFamily


@dataclass(frozen=True)
class EnumerationResult:
    families: tuple[FoundFamily, ...]
    complete: bool
    cases_examined: int


def _conj_perm(tau: Perm, sigma: Perm) -> Perm:
    inv = perm_inverse(tau)
    return tuple(tau[sigma[inv[j]]] for j in range(len(tau)))


def _conj_vec(tau: Perm, vec: tuple) -> tuple:
    inv = perm_inverse(tau)
    return tuple(vec[inv[j]] for j in range(len(tau)))


@dataclass(frozen=True)
class _Relabelings:
    """Index tables of the simultaneous relabelings tau of the k factors.
    Relabeling factor i as tau(i) maps a pairing sigma to tau sigma tau^-1
    and a sign vector to the one holding vec[i] at tau(i).  `perms` is in
    lexicographic order, so perm indices compare like the tuples; `signs` is
    in sign_vectors order, and `sign_rank` ranks it in tuple order."""

    perms: list[Perm]
    signs: list[tuple[int, ...]]
    perm_index: dict[Perm, int]
    perm_image: list[list[int]]  # [t][i]: index of the image of perms[i] under perms[t]
    sign_image: list[list[int]]  # [t][j]: index of the image of signs[j] under perms[t]
    sign_rank: list[int]


def _relabelings(k: int) -> _Relabelings:
    perms = list(itertools.permutations(range(k)))
    signs = sign_vectors(k)
    perm_index = {perm: i for i, perm in enumerate(perms)}
    sign_index = {vec: j for j, vec in enumerate(signs)}
    perm_image = [[perm_index[_conj_perm(tau, sigma)] for sigma in perms] for tau in perms]
    sign_image = [[sign_index[_conj_vec(tau, vec)] for vec in signs] for tau in perms]
    sign_rank = [0] * len(signs)
    for rank, j in enumerate(sorted(range(len(signs)), key=signs.__getitem__)):
        sign_rank[j] = rank
    return _Relabelings(perms, signs, perm_index, perm_image, sign_image, sign_rank)


def _stage1_classes(k: int, dedup: bool = True) -> list[tuple]:
    """Three-line classes as (flat index, s, p, c, kmul, stabilizer), in flat
    order, where the flat index numbers the tuples (s, p, c, kmul) of
    permutations x permutations x sign vectors x sign vectors.

    With dedup, each orbit under simultaneous relabeling is swept once and
    gives one class: its minimum in tuple order, with the relabelings that
    fix it, in lexicographic order.  Without dedup every tuple is a class
    with an empty stabilizer."""
    rel = _relabelings(k)
    perms, signs = rel.perms, rel.signs
    if not dedup:
        return [
            (flat, s, p, c, km, ())
            for flat, (s, p, c, km) in enumerate(itertools.product(perms, perms, signs, signs))
        ]
    n_p, n_s, rank = len(perms), len(signs), rel.sign_rank
    tables = list(zip(perms, rel.perm_image, rel.sign_image))

    def flat_index(i_s, i_p, j_c, j_k):
        return ((i_s * n_p + i_p) * n_s + j_c) * n_s + j_k

    seen = bytearray(n_p * n_p * n_s * n_s)
    classes = []
    for flat in range(len(seen)):
        if seen[flat]:
            continue
        rest, j_k = divmod(flat, n_s)
        rest, j_c = divmod(rest, n_s)
        i_s, i_p = divmod(rest, n_p)
        orbit = [(pi[i_s], pi[i_p], si[j_c], si[j_k]) for _, pi, si in tables]
        for image in orbit:
            seen[flat_index(*image)] = 1
        rep = min(orbit, key=lambda t: (t[0], t[1], rank[t[2]], rank[t[3]]))
        i_s, i_p, j_c, j_k = rep
        stab = tuple(
            tau for tau, pi, si in tables if (pi[i_s], pi[i_p], si[j_c], si[j_k]) == rep
        )
        classes.append((flat_index(*rep), perms[i_s], perms[i_p], signs[j_c], signs[j_k], stab))
    classes.sort(key=lambda cls: cls[0])
    return classes


def enumerate_families(
    k: int,
    lines: str,
    quantum: bool = True,
    budget: int | None = None,
    threads: int = 1,
    seed: int | None = None,
    dedup: bool = True,
) -> EnumerationResult:
    """Exhaustive quantum search over permutation tuples and sign vectors.

    With dedup on, permutation tuples are reduced to class representatives
    under simultaneous factor relabeling, and within a surviving three-line
    class the fourth-line choices are deduplicated by the class stabilizer;
    dedup off iterates every raw tuple.  Every case is decided exactly by
    integer elimination and the exact tests of `family_degeneracy` and
    `is_nontrivial`; nothing is sampled, so `seed` is accepted but changes
    nothing.  Iteration order, and therefore the output, is deterministic.
    `budget` caps the number of examined cases and flags the result
    incomplete when exceeded (budgeted runs are serial).
    """
    if not quantum:
        raise ValueError(
            "exhaustive search needs quantum (+-1) multipliers; classical "
            "assignments are only verified via verify_solution"
        )
    if lines not in ("three", "four"):
        raise ValueError("lines must be 'three' or 'four'")
    stage1 = _stage1_classes(k, dedup)
    if threads > 1 and budget is None:
        chunks = [stage1[i::threads] for i in range(threads)]
        args = [(k, lines, chunk, None) for chunk in chunks if chunk]
        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            parts = list(pool.map(_enumerate_chunk, args))
        found = [item for part in parts for item in part[0]]
        cases = sum(part[1] for part in parts)
        complete = all(part[2] for part in parts)
    else:
        found, cases, complete = _enumerate_chunk((k, lines, stage1, budget))
    found.sort(key=lambda item: item[0])
    families = tuple(FoundFamily(idx, system, family) for idx, system, family in found)
    return EnumerationResult(families, complete, cases)


def _enumerate_chunk(args):
    """Worker: process three-line classes; returns (found, cases, complete)
    where found holds (global_case_index, system, family) triples."""
    k, lines, entries, budget = args
    found = []
    cases = 0
    if lines == "three":
        for flat, s, p, c, km, _ in entries:
            if budget is not None and cases >= budget:
                return found, cases, False
            cases += 1
            mult = MultiplierAssignment(c, km, quantum=True)
            system = build_system(k, "three", PermTriple(s, p), mult)
            outcome = solve_quantum(system)
            if outcome.status == "nontrivial":
                found.append((flat, system, outcome.family))
        return found, cases, True
    rel = _relabelings(k)
    per_class = len(rel.perms) * len(rel.signs)
    for flat, s, p, c, km, stab in entries:
        base = int_nullspace(_dense_rows(k, _relation_terms(k, s, p, c, km)), 3 * k)
        if base:
            choices = _fourth_line_choices(k, s, p, c, km, base)
        for local_index, (v, r) in enumerate(_stage2_cases(rel, stab)):
            if budget is not None and cases >= budget:
                return found, cases, False
            cases += 1
            if not base:
                continue
            rows = [row for i in range(k) for row in choices[v[i], r[i]][i]]
            if _extends(k, s, km, base, rows):
                mult = MultiplierAssignment(c, km, r, quantum=True)
                system = build_system(k, "four", PermTriple(s, p, v), mult)
                found.append((flat * per_class + local_index, system, solve_quantum(system).family))
    return found, cases, True


def _fourth_line_choices(k, s, p, c, km, base) -> dict:
    """The fourth-line relations of each factor i, applied to the integer
    three-line basis `base`: choices[j, sign][i] holds factor i's two rows
    for v(i) = j and r_i = sign, as coefficients over the basis vectors."""
    cols = _columns(k, base)
    choices = {}
    for j in range(k):
        for sign in (1, -1):
            terms = _relation_terms(k, s, p, c, km, (j,) * k, (sign,) * k, base=False)
            rows = []
            for (idx, coef), *rest in terms:
                row = [coef * a for a in cols[idx]]
                for idx, coef in rest:
                    row = [b + coef * a for b, a in zip(row, cols[idx])]
                rows.append(row)
            choices[j, sign] = [rows[2 * i : 2 * i + 2] for i in range(k)]
    return choices


def _stage2_cases(rel: _Relabelings, stab) -> list[tuple[Perm, tuple]]:
    """Fourth-line choices (v, r) in lex order, minus stabilizer duplicates:
    a choice is dropped when a relabeling in the stabilizer maps it below
    itself in tuple order."""
    taus = [rel.perm_index[tau] for tau in stab] if len(stab) > 1 else []
    rank = rel.sign_rank
    cases = []
    for i_v, v in enumerate(rel.perms):
        for j_r, r in enumerate(rel.signs):
            me = (i_v, rank[j_r])
            if any((rel.perm_image[t][i_v], rank[rel.sign_image[t][j_r]]) < me for t in taus):
                continue
            cases.append((v, r))
    return cases


def _extends(k, s, km, base, reduced) -> bool:
    """Whether the fourth-line relations, given as rows `reduced` over the
    integer three-line basis `base`, cut its space down to a nonempty,
    nondegenerate and nontrivial family.  The tests run on the integer
    basis of the cut-down space lifted from `base`, as neither depends on
    the basis."""
    lifted = []
    for vec in int_nullspace(reduced, len(base)):
        out = None
        for t, b in zip(vec, base):
            if t:
                out = [t * a for a in b] if out is None else [o + t * a for o, a in zip(out, b)]
        lifted.append(out)
    if not lifted:
        return False
    cols = list(zip(*lifted))
    maps = _factor_maps(k, s, km, cols)
    return _degeneracy(maps, True) is None and _keeps_a_factor(maps)


# --- built-in closed-form factors --------------------------------------------


def builtin_q33(c1, c2, x, y, quantum: bool = False) -> FactorProduct:
    """Three-factor non-uniqueness product equal to 1 on the lines a' = 0,
    b' = 0, c' = 0 (primed basis), with free parameters c1, c2, x, y.
    Collapses to the trivial product when c1 or c2 is 1."""
    c1, c2, x, y = (Fraction(q) for q in (c1, c2, x, y))
    if c1 == 0 or c2 == 0:
        raise ValueError("c1 and c2 must be nonzero")
    num = (
        LinearForm((1, x, y), Basis.PRIMED),
        LinearForm((c1 * c2, c2 * x, y), Basis.PRIMED),
        LinearForm((c1, c1 * c2 * x, y), Basis.PRIMED),
    )
    den = (
        LinearForm((c1, x, y), Basis.PRIMED),
        LinearForm((1, c2 * x, y), Basis.PRIMED),
        LinearForm((c1 * c2, c1 * c2 * x, y), Basis.PRIMED),
    )
    return FactorProduct(num, den, quantum=quantum, basis=Basis.PRIMED)


def builtin_q_prop4(n, x, xp, y, quantum: bool = False) -> FactorProduct:
    """Four-factor non-uniqueness product equal to 1 on a' = 0, b' = 0,
    c' = 0 and 3a' - b' = 0, with free parameters n, x, x' and y.  The
    denominator repeats the numerator with n swapped against
    n' = -(n + 3x + 3x')."""
    n, x, xp, y = (Fraction(q) for q in (n, x, xp, y))
    n2 = -(n + 3 * x + 3 * xp)
    num = (
        LinearForm((n, x, -y), Basis.PRIMED),
        LinearForm((n2, xp, -y), Basis.PRIMED),
        LinearForm((n, xp, y), Basis.PRIMED),
        LinearForm((n2, x, y), Basis.PRIMED),
    )
    den = (
        LinearForm((n2, x, -y), Basis.PRIMED),
        LinearForm((n, xp, -y), Basis.PRIMED),
        LinearForm((n2, xp, y), Basis.PRIMED),
        LinearForm((n, x, y), Basis.PRIMED),
    )
    return FactorProduct(num, den, quantum=quantum, basis=Basis.PRIMED)


FOUR_LINE_PERMS = PermTriple(s=(1, 0, 3, 2), p=(3, 2, 1, 0), v=(2, 3, 0, 1))


def reference_four_line_assignment(
    k1, k3, c2, n1, x1, x2, y3, minus_branch: bool = True
) -> tuple[ConstraintSystem, tuple, tuple, tuple]:
    """The hand-solved parameter assignment of the four-line system with the
    pairings of FOUR_LINE_PERMS, expressed in the free variables
    k1, k3, c2, n1, x1, x2, y3.  The minus branch (r1 = -c2*k1) carries the
    nontrivial solution; the plus branch forces a trivial product."""
    k1, k3, c2, n1, x1, x2, y3 = (Fraction(q) for q in (k1, k3, c2, n1, x1, x2, y3))
    if 0 in (k1, k3, c2):
        raise InvalidMultiplierError("multiplier draws must be nonzero")
    r1 = -c2 * k1 if minus_branch else c2 * k1
    if minus_branch:
        n2 = -(n1 + 3 * x1 + 3 * k1 * x2) / k1
    else:
        n2 = n1 / k1
        x2 = x1 / k1
    c = (c2 * k1 * k3, c2, 1 / c2, 1 / (c2 * k1 * k3))
    km = (k1, 1 / k1, k3, 1 / k3)
    r = (r1, r1 * k3 / k1, 1 / r1, k1 / (r1 * k3))
    mult = MultiplierAssignment(c, km, r, quantum=False)
    system = build_system(4, "four", FOUR_LINE_PERMS, mult)
    n3 = n1 / (k1 * c2)
    n4 = n2 / (c2 * k3)
    x3 = x2 / c2
    x4 = x1 / (c2 * k1 * k3)
    y1 = r1 * y3
    y2 = y1 / k1
    y4 = y3 / k3
    return system, (n1, n2, n3, n4), (x1, x2, x3, x4), (y1, y2, y3, y4)


def matches_builtin_four_line(family: SolutionFamily, rng: random.Random | None = None) -> bool:
    """Whether some instantiation of the family equals builtin_q_prop4 for
    some parameters, under quantum (+-) factor matching."""
    rng = rng or make_rng()
    for _ in range(20):
        params = tuple(rand_rational(rng, 20, nonzero=True) for _ in range(family.free_parameters))
        try:
            F = family.factor_product(params, quantum=True)
        except ValueError:
            continue
        if _instantiation_restriction_vanishes(family.system, F):
            continue
        beta_coeffs = {f.coeffs[1] for f in F.num} | {f.coeffs[1] for f in F.den}
        for anchor in F.num:
            n0, x0, yneg = anchor.coeffs
            y0 = -yneg
            if y0 == 0:
                continue
            for xp in beta_coeffs:
                if xp == x0:
                    continue
                try:
                    candidate = builtin_q_prop4(n0, x0, xp, y0, quantum=True)
                except ValueError:
                    continue
                quotient = cancel(ratio(F, candidate))
                if quotient.k == 0 and quotient.sign == 1:
                    return True
        return False
    return False


# --- classical k = 3 survey ---------------------------------------------------


def _cycles(perm: Perm) -> list[tuple[int, ...]]:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        out.append(tuple(cyc))
    return out


@dataclass(frozen=True)
class SurveyEntry:
    s: Perm
    p: Perm
    nontrivial: bool
    witness: FactorProduct | None = None
    witness_data: dict = field(default_factory=dict)


def survey_k3_classical(samples: int = 4, seed: int | None = None) -> list[SurveyEntry]:
    """Existence survey of nontrivial classical three-line factors at k = 3.

    For each pairing (s, p) the solution set splits into finitely many strata
    by the zero patterns of n, x and y (unions of cycles of the relevant
    permutations, with numerator factors normalized to alpha-coefficient one
    off the zero set).  On each stratum the admissible multipliers form a
    subtorus times a sign lattice; generic rational samples decide whether
    the stratum contains a non-cancelling product.  A sampled witness is an
    exact certificate of nontriviality; absence across all strata and samples
    certifies triviality up to the genericity of the draws.
    """
    rng = make_rng(seed)
    perms = list(itertools.permutations(range(3)))
    entries = []
    for s in perms:
        for p in perms:
            witness, data = _survey_pair(s, p, samples, rng)
            entries.append(
                SurveyEntry(s, p, witness is not None, witness, data)
            )
    return entries


def _survey_pair(s: Perm, p: Perm, samples: int, rng: random.Random):
    k = 3
    p_inv = perm_inverse(p)
    u = tuple(s[p_inv[j]] for j in range(k))
    u_cycles, p_cycles, s_cycles = _cycles(u), _cycles(p), _cycles(s)
    strata = []
    for zn_pick in _subsets(u_cycles):
        for zx_pick in _subsets(p_cycles):
            for zy_pick in _subsets(s_cycles):
                zn = frozenset(i for cyc in zn_pick for i in cyc)
                zx = frozenset(i for cyc in zx_pick for i in cyc)
                zy = frozenset(i for cyc in zy_pick for i in cyc)
                strata.append((len(zn) + len(zx) + len(zy), zn, zx, zy))
    strata.sort(key=lambda item: (item[0], sorted(item[1]), sorted(item[2]), sorted(item[3])))
    for _, zn, zx, zy in strata:
        if not _stratum_admissible(s, zn, zx, zy):
            continue
        witness = _sample_stratum(s, p, zn, zx, zy, p_cycles, s_cycles, samples, rng)
        if witness is not None:
            return witness[0], witness[1]
    return None, {}


def _subsets(cycles):
    out = []
    for mask in range(1 << len(cycles)):
        out.append([cyc for b, cyc in enumerate(cycles) if mask >> b & 1])
    return out


def _stratum_admissible(s: Perm, zn, zx, zy) -> bool:
    for i in range(len(s)):
        n_zero = i in zn
        m_zero = s[i] in zn
        x_zero = i in zx
        y_zero = i in zy
        if x_zero and y_zero:
            return False  # restriction to a' = 0 vanishes
        if n_zero and (y_zero or x_zero):
            return False  # numerator restriction to b' = 0 or c' = 0 vanishes
        if m_zero and (y_zero or x_zero):
            return False  # denominator restriction vanishes
    return True


def _sample_stratum(s, p, zn, zx, zy, p_cycles, s_cycles, samples, rng):
    k = 3
    # Multiplicative constraints on (c0, c1, c2, k0, k1, k2) as exponent rows.
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    for i in range(k):
        if s[i] not in zn:
            row = [0] * 6
            row[i] = 1
            row[3 + i] = -1
            rows.append(row)
    for cyc in p_cycles:
        if not set(cyc) <= zx:
            row = [0] * 6
            for i in cyc:
                row[i] += 1
            rows.append(row)
    for cyc in s_cycles:
        if not set(cyc) <= zy:
            row = [0] * 6
            for i in cyc:
                row[3 + i] += 1
            rows.append(row)
    gens = int_nullspace(rows, 6)
    sign_patterns = [
        signs
        for signs in itertools.product((1, -1), repeat=6)
        if all(
            _sign_product(signs, row) == 1
            for row in rows
        )
    ]
    for signs in sign_patterns:
        for _ in range(samples):
            mags = [_generic_rational(rng) for _ in gens]
            logs = [Fraction(1)] * 6
            for mag, gen in zip(mags, gens):
                for j in range(6):
                    if gen[j]:
                        logs[j] *= mag ** gen[j]
            c = tuple(signs[j] * logs[j] for j in range(3))
            km = tuple(signs[3 + j] * logs[3 + j] for j in range(3))
            witness = _build_stratum_product(s, p, zn, zx, zy, p_cycles, s_cycles, c, km, rng)
            if witness is not None:
                return witness
    return None


def _sign_product(signs, row) -> int:
    prod = 1
    for j, e in enumerate(row):
        if e % 2:
            prod *= signs[j]
    return prod


def _generic_rational(rng: random.Random) -> Fraction:
    while True:
        q = Fraction(rng.randint(2, 9), rng.randint(2, 9))
        if q != 1:
            return q if rng.random() < 0.5 else 1 / q


def _build_stratum_product(s, p, zn, zx, zy, p_cycles, s_cycles, c, km, rng):
    k = 3
    n = [Fraction(0) if i in zn else Fraction(1) for i in range(k)]
    x = [Fraction(0)] * k
    y = [Fraction(0)] * k
    for cyc in p_cycles:
        if set(cyc) <= zx:
            continue
        x[cyc[0]] = rand_rational(rng, 9, nonzero=True)
        i = cyc[0]
        for _ in range(len(cyc) - 1):
            x[p[i]] = x[i] / c[i]
            i = p[i]
    for cyc in s_cycles:
        if set(cyc) <= zy:
            continue
        y[cyc[0]] = rand_rational(rng, 9, nonzero=True)
        i = cyc[0]
        for _ in range(len(cyc) - 1):
            y[s[i]] = y[i] / km[i]
            i = s[i]
    mult = MultiplierAssignment(tuple(c), tuple(km), quantum=False)
    system = build_system(k, "three", PermTriple(tuple(s), tuple(p)), mult)
    report = verify_solution(system, tuple(n), tuple(x), tuple(y))
    if not report.ok:
        return None  # incompatible multipliers for this stratum draw
    try:
        product = product_from_assignment(system, tuple(n), tuple(x), tuple(y))
    except ValueError:
        return None
    if cancel(product).k == 0:
        return None
    data = {"zn": sorted(zn), "zx": sorted(zx), "zy": sorted(zy), "c": c, "k": km,
            "n": tuple(n), "x": tuple(x), "y": tuple(y)}
    return product, data


def matches_builtin_q33(entry: SurveyEntry) -> bool:
    """Whether a survey witness is the closed-form three-line family, after
    the index relabeling that aligns its pairings with builtin_q33's."""
    if not entry.nontrivial or entry.witness is None:
        return False
    data = entry.witness_data
    if data.get("zn") or data.get("zx") or data.get("zy"):
        return False
    c, x, y = data["c"], data["x"], data["y"]
    if entry.s == (1, 2, 0) and entry.p == (2, 0, 1):
        candidate = builtin_q33(c[0], c[1], x[0], y[0])
    elif entry.s == (2, 0, 1) and entry.p == (1, 2, 0):
        candidate = builtin_q33(c[1], c[0], x[1], y[1])
    else:
        return False
    quotient = cancel(ratio(entry.witness, candidate))
    return quotient.k == 0 and quotient.sign == 1 and quotient.scalar == 1
