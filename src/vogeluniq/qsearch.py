"""Constraint systems for non-uniqueness factors and searches over them.

A non-uniqueness factor equal to 1 on the three primed coordinate lines is
a product of factors (n_i*a + x_i*b + y_i*c) / (m_i*a + x_i*b + y_i*c) whose
parameters satisfy permutation-indexed linear relations

    x_i = c_i x_{p(i)},   y_i = k_i y_{s(i)},   k_i n_{s(i)} = c_i n_{p(i)}

with multiplier products equal to one; requiring 1 on the fourth line
3a - b = 0 adds a third permutation v with multipliers r:

    y_i = r_i y_{v(i)},   c_i n_{p(i)} + 3 x_i = r_i (n_{v(i)} + 3 x_{v(i)}).

In the quantum case every multiplier is +-1, which turns the search into a
finite enumeration over permutation tuples and sign vectors.  A quantum
`MultiplierAssignment` holds its signs as the ints +-1, and all the
relations' coefficients are then integers in {0, +-1, +-3}; the relations
of a whole system are eliminated in one place, `_relation_basis`.  Each
three-line relation, and y_i = r_i y_{v(i)}, has two +-1 terms, a signed
edge between two unknowns, so those spaces are read off the components of
signed graphs with no elimination: the n and x graphs are the cycles
of p s^-1 and of p (`_nx_part`), the y graph the orbits of <s, v>, built
once per (s, v) for every km and r (`_y_orbits`).  The y relations never mix
with the (n, x) relations, so on both line sets a case's space is the
direct sum of a y part, zero (and the case trivial) unless a sign check on
the orbits of <s, v> passes, and an (n, x) part.  On three lines that is
every balanced n and x cycle, one parameter each, so a three-line case
needs no elimination at all; on four lines it is the nullspace of the mixed
fourth-line rows over them, by fraction-free integer elimination, done once
per pairing for each set of mixed rows (`_case_columns`).  Every unknown of
a case is +-1 times one parameter of its part or zero, and it is held as
one int, its code: 0, or +-(j + 1) for +-1 times parameter j, the (n, x)
components and the y orbits each numbered within their part.  Only the
cases with a nonzero y part are decided, and of those only the ones whose
forced zeros alone make no factor vanish on a system line
(`_pattern_degenerate`).  On three lines that screen is the whole
degeneracy test, and a kept case is decided on its 3k codes without
building a column (`_codes_keep_a_factor`); a four-line case builds the
maps of its family, the (n, x) maps over its nullspace and each y map as
its one code, with no padding between the parts (`_case_columns`), and
runs both tests on them (`_survives`).  Each case is decided by exact tests
(degeneracy, and nontriviality by pairing the factors' linear maps up to
sign), so the search draws no random numbers and its result does not depend
on a seed.  A found case leaves the search as a record of plain integers
with its family's integer basis: on three lines the signed unit vectors of
its codes, already in rref (`_code_basis`), on four lines `_relation_basis`.
Only the process that returns the result turns each record into a
`FoundFamily` (`_found_family`), whose multipliers stay the record's ints
and whose vectors are Fractions, so a process pool pickles no Fraction.
Relabelings are the index tables of `_relabelings`, for the search and the
survey alike.  The classical multipliers form a continuum; they are
verified rather than searched, except for the dedicated k = 3 survey which
decides nontriviality on each pairing's all-nonzero stratum, the only one
that can be nontrivial, exactly, at one point with distinct prime
coordinates.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from ._linalg import int_nullspace, rref_basis
from .formula import FactorProduct, factor_class, is_identically_one, pair_factors, ratio
from .identity import InternalConsistencyError
from .plane import Basis, LinearForm, family_line

# The lines of sl, so and exc are a' = 0, b' = 0 and c' = 0; sp's is 3a' - b' = 0.
_FOUR_LINES = tuple(family_line(f, Basis.PRIMED) for f in ("sl", "so", "exc", "sp"))
PRIMED_LINES = {"three": _FOUR_LINES[:3], "four": _FOUR_LINES}


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


def _cycles(perm: Perm) -> list[tuple[int, ...]]:
    """The cycles of perm, each from its least index, in order of that index."""
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
    """Per-factor multipliers; classical entries are nonzero rationals, held
    as Fractions, and quantum entries are the ints +-1, so the search's
    integer relations take them as they are.  Each vector multiplies to
    one."""

    c: tuple[Fraction | int, ...]
    kmul: tuple[Fraction | int, ...]
    r: tuple[Fraction | int, ...] | None = None
    quantum: bool = False

    def __post_init__(self):
        for attr, name in (("c", "c"), ("kmul", "k"), ("r", "r")):
            vec = getattr(self, attr)
            if vec is None:
                continue
            vec = tuple(vec) if self.quantum else tuple(map(Fraction, vec))
            if 0 in vec:
                raise InvalidMultiplierError(f"{name} contains a zero multiplier")
            if self.quantum:
                if not all(entry in (1, -1) for entry in vec):
                    raise InvalidMultiplierError(f"quantum {name} entries must be +-1")
                vec = tuple(map(int, vec))
            prod = math.prod(vec)
            if prod != 1:
                raise InvalidMultiplierError(f"product of {name} multipliers is {prod}, not 1")
            object.__setattr__(self, attr, vec)


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


_THREE_LINE_LABELS = (
    "x[{i}] = c[{i}]*x[p({i})]",
    "y[{i}] = k[{i}]*y[s({i})]",
    "k[{i}]*n[s({i})] = c[{i}]*n[p({i})]",
)
_FOURTH_LINE_LABELS = (
    "y[{i}] = r[{i}]*y[v({i})]",
    "c[{i}]*n[p({i})] + 3x[{i}] = r[{i}]*(n[v({i})] + 3x[v({i})])",
)


def _label(k: int, e: int) -> str:
    """The label of equation e, in the order of `_relation_terms`."""
    if e < 3 * k:
        return _THREE_LINE_LABELS[e % 3].format(i=e // 3)
    return _FOURTH_LINE_LABELS[(e - 3 * k) % 2].format(i=(e - 3 * k) // 2)


def _relation_terms(k: int, s, p, c, km, v=None, r=None) -> list[tuple]:
    """The relations of a system as (unknown, coefficient) terms, one tuple
    per equation, with the coefficients of a repeated unknown to be summed:
    for each i the three-line relations, then, given v and r, the
    fourth-line relations for each i.  This is the order of the label
    templates above.  Coefficients are integers for integer (+-1)
    multipliers."""
    rows = []
    for i in range(k):
        rows.append(((k + i, 1), (k + p[i], -c[i])))
        rows.append(((2 * k + i, 1), (2 * k + s[i], -km[i])))
        rows.append(((s[i], km[i]), (p[i], -c[i])))
    if v is not None:
        for i in range(k):
            rows.append(((2 * k + i, 1), (2 * k + v[i], -r[i])))
            rows.append(_mixed_terms(k, p, c, i, v[i], r[i]))
    return rows


def _mixed_terms(k: int, p, c, i: int, j: int, sign) -> tuple:
    """The terms of factor i's mixed relation
    c_i n_{p(i)} + 3 x_i = r_i (n_{v(i)} + 3 x_{v(i)}) for v(i) = j and
    r_i = sign."""
    return (p[i], c[i]), (k + i, 3), (j, -sign), (k + j, -3 * sign)


def _relation_basis(k: int, s, p, c, km, v=None, r=None) -> list[list[int]]:
    """The primitive integer basis, by `int_nullspace`, of the solutions of
    the relations of `_relation_terms` for +-1 multipliers: the one place
    where a system's 3k unknowns are eliminated together."""
    rows = []
    for row_terms in _relation_terms(k, s, p, c, km, v, r):
        row = [0] * (3 * k)
        for idx, coef in row_terms:
            row[idx] += coef
        rows.append(row)
    return int_nullspace(rows, 3 * k)


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
    pass/fail with the failing equations named.  Only a failing equation's
    label is formatted."""
    k, perms, mult = system.k, system.perms, system.mult
    vec = tuple(Fraction(q) for q in (*n, *x, *y))
    if len(vec) != 3 * k:
        raise ValueError("assignment length differs from 3k")
    terms = _relation_terms(k, perms.s, perms.p, mult.c, mult.kmul, perms.v, mult.r)
    failures = tuple(
        _label(k, e)
        for e, row_terms in enumerate(terms)
        if sum(coef * vec[idx] for idx, coef in row_terms) != 0
    )
    return VerifyReport(not failures, failures)


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

    def factor_product(self, params: tuple[Fraction, ...]) -> FactorProduct:
        n, x, y = self.instantiate(params)
        return product_from_assignment(self.system, n, x, y)

    def first_primes(self) -> tuple[Fraction, ...]:
        """The parameters of the family's sample instantiation: the first
        `free_parameters` of `_PRIMES`.  There are too few when the family
        has more parameters than `_PRIMES` has primes, and `instantiate`
        then raises ValueError."""
        return tuple(map(Fraction, _PRIMES[: self.free_parameters]))


def product_from_assignment(
    system: ConstraintSystem,
    n: tuple[Fraction, ...],
    x: tuple[Fraction, ...],
    y: tuple[Fraction, ...],
) -> FactorProduct:
    """The factor product encoded by an assignment, in the primed basis,
    quantum when the system's multipliers are.  Denominator
    alpha-coefficients are m_i = k_i * n_{s(i)}."""
    k = system.k
    s, km = system.perms.s, system.mult.kmul
    num = tuple(LinearForm((n[i], x[i], y[i]), Basis.PRIMED) for i in range(k))
    den = tuple(LinearForm((km[i] * n[s[i]], x[i], y[i]), Basis.PRIMED) for i in range(k))
    return FactorProduct(num, den, quantum=system.mult.quantum, basis=Basis.PRIMED)


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "nontrivial" | "trivial" | "infeasible"
    family: SolutionFamily | None = None
    reason: str = ""


def _columns(k: int, vectors) -> list[tuple]:
    """Each unknown's values across the basis vectors: its linear map of the
    family parameters."""
    return list(zip(*vectors)) if vectors else [()] * (3 * k)


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


def _system_maps(system: ConstraintSystem, vectors) -> tuple[list, list]:
    """`_factor_maps` of the system's factors on the span of `vectors`."""
    k = system.k
    return _factor_maps(k, system.perms.s, system.mult.kmul, _columns(k, vectors))


def _degeneracy(maps: tuple[list, list], four: bool) -> str | None:
    """The first factor, numerator factors before denominator factors, that
    is zero or restricts to zero on a system line for every parameter value;
    a restriction vanishes when both coefficients it keeps are zero maps.
    This is the one test of vanishing restrictions in the module: a single
    product, or a zero pattern, is passed as one-column maps."""
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


def _keeps_a_factor(maps: tuple[list, list]) -> bool:
    """Whether the factor maps fail to pair up one-to-one, numerator with
    denominator, equal up to sign: by `formula.pair_factors`, they pair up
    exactly when each class is as common on both sides."""
    num, den = maps
    key = lambda factors: Counter(
        factor_class(n + x + y, up_to_sign=True) for n, x, y in factors
    )
    return key(num) != key(den)


def family_degeneracy(family: SolutionFamily) -> str | None:
    """Why every instantiation of the family fails to be a valid factor
    product equal to one on its lines: a factor forced to zero, or a factor
    whose restriction to a system line vanishes identically."""
    maps = _system_maps(family.system, family.vectors)
    return _degeneracy(maps, family.system.lines == "four")


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
    return _keeps_a_factor(_system_maps(system, family.vectors))


def solve_quantum(system: ConstraintSystem) -> SolveOutcome:
    """Solve the system exactly for +-1 multipliers.

    The equations are linear with integer coefficients; they are solved by
    fraction-free elimination, and the returned family is the nullspace in
    rref parametrization.  Families whose every instantiation has a zero
    factor or a factor vanishing identically on a system line are reported
    infeasible; the rest are split by the exact triviality test of
    `is_nontrivial`.  Nothing is sampled, so the outcome is deterministic.

    `reproduce P4` solves its extracted system here, and the tests use it as
    the oracle of the search's verdicts and families; the search itself
    decides its cases without it and builds its families in
    `_found_family`.
    """
    if not system.mult.quantum:
        raise ValueError("solve_quantum needs +-1 multipliers (quantum assignment)")
    perms, mult = system.perms, system.mult
    vectors = _relation_basis(system.k, perms.s, perms.p, mult.c, mult.kmul, perms.v, mult.r)
    if not vectors:
        return SolveOutcome("infeasible", reason="only the zero solution")
    family = SolutionFamily(system, tuple(map(tuple, rref_basis(vectors))))
    maps = _system_maps(system, vectors)
    reason = _degeneracy(maps, system.lines == "four")
    if reason is not None:
        return SolveOutcome("infeasible", family=family, reason=reason)
    if _keeps_a_factor(maps):
        return SolveOutcome("nontrivial", family=family)
    return SolveOutcome("trivial", family=family)


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
    family: SolutionFamily

    @property
    def system(self) -> ConstraintSystem:
        return self.family.system


@dataclass(frozen=True)
class EnumerationResult:
    families: tuple[FoundFamily, ...]
    complete: bool
    cases_examined: int


@dataclass(frozen=True)
class _Relabelings:
    """Index tables of the simultaneous relabelings tau of the k factors.
    Relabeling factor i as tau(i) maps a pairing sigma to tau sigma tau^-1
    and a sign vector to the one holding vec[i] at tau(i).  `perms` is in
    lexicographic order, so perm indices compare like the tuples; `signs` is
    in sign_vectors order, `negatives` holds each one's bit mask of its
    negative entries, and `by_rank` lists its indices in tuple order."""

    perms: list[Perm]
    signs: list[tuple[int, ...]]
    perm_image: list[list[int]]  # [t][i]: index of the image of perms[i] under perms[t]
    sign_image: list[list[int]]  # [t][j]: index of the image of signs[j] under perms[t]
    negatives: list[int]
    by_rank: list[int]


def _relabelings(k: int) -> _Relabelings:
    perms = list(itertools.permutations(range(k)))
    signs = sign_vectors(k)
    perm_index = {perm: i for i, perm in enumerate(perms)}
    sign_index = {vec: j for j, vec in enumerate(signs)}
    perm_image, sign_image = [], []
    for tau in perms:  # tau sigma tau^-1 maps j to tau[sigma[tau^-1[j]]]
        inv = perm_inverse(tau)
        perm_image.append([perm_index[tuple(tau[sigma[i]] for i in inv)] for sigma in perms])
        sign_image.append([sign_index[tuple(vec[i] for i in inv)] for vec in signs])
    negatives = [_negative_mask(vec) for vec in signs]
    by_rank = sorted(range(len(signs)), key=signs.__getitem__)
    return _Relabelings(perms, signs, perm_image, sign_image, negatives, by_rank)


def _negative_mask(vec, shift: int = 0) -> int:
    """The bit mask of the negative entries of vec, entry i at bit shift + i."""
    return sum(1 << (shift + i) for i, sign in enumerate(vec) if sign < 0)


def _orbit_minima(items, images):
    """Yield each orbit's first member in `items`, with the positions where
    `images(item)`, its images under the group's elements, fix it."""
    seen = set()
    for item in items:
        if item not in seen:
            row = images(item)
            seen.update(row)
            yield item, [g for g, image in enumerate(row) if image == item]


def _stage1_classes(k: int, dedup: bool = True, rel: _Relabelings | None = None):
    """Yield the three-line classes as (flat index, s, p, c, kmul,
    stabilizer), in flat order, where the flat index numbers the tuples
    (s, p, c, kmul) of permutations x permutations x sign vectors x sign
    vectors.  `rel` is `_relabelings(k)`, built here when not given.  The
    classes of one pair orbit are built when the first of them is asked
    for, so a caller that stops early builds only the orbits it reached.

    With dedup, each orbit under simultaneous relabeling gives one class:
    its minimum in tuple order, with the relabelings that fix it as
    increasing indices into `rel.perms`.  Its pairings (s, p) are the least
    of their conjugation orbit, and its signs (c, kmul) the least of their
    orbit under the stabilizer of (s, p), so each sweep takes only that
    group.  Without dedup the group is empty: every tuple is a class."""
    rel = rel or _relabelings(k)
    perms, signs = rel.perms, rel.signs
    n_p, n_s = len(perms), len(signs)
    sign_pairs = [j_c * n_s + j_k for j_c in rel.by_rank for j_k in rel.by_rank]
    perm_images = rel.perm_image if dedup else []
    pair_images = lambda pair: [pi[pair // n_p] * n_p + pi[pair % n_p] for pi in perm_images]
    for pair, group in _orbit_minima(range(n_p * n_p), pair_images):
        tables = [rel.sign_image[t] for t in group]
        sign_images = lambda sp: [si[sp // n_s] * n_s + si[sp % n_s] for si in tables]
        yield from sorted(
            (pair * n_s * n_s + sp, perms[pair // n_p], perms[pair % n_p], signs[sp // n_s],
             signs[sp % n_s], tuple(group[h] for h in stab))
            for sp, stab in _orbit_minima(sign_pairs, sign_images)
        )


def enumerate_families(
    k: int,
    lines: str,
    budget: int | None = None,
    threads: int = 1,
    seed: int | None = None,
    dedup: bool = True,
) -> EnumerationResult:
    """Exhaustive quantum search over permutation tuples and sign vectors.

    With dedup on, permutation tuples are reduced to class representatives
    under simultaneous factor relabeling (`_stage1_classes`), and within a
    surviving three-line class the fourth-line choices are deduplicated by
    the class stabilizer; dedup off iterates every raw tuple.  Every case
    is decided exactly, as `_enumerate_chunk` describes, and each found
    family is built here from its worker's integer record (`_found_family`),
    equal to `solve_quantum`'s.  Nothing is sampled, so `seed` is accepted
    but changes nothing.  Iteration order, and therefore the output, is
    deterministic.  `budget` caps the number of examined cases, counted in
    index order whether screened or solved, and flags the result incomplete
    when exceeded.  Budgeted runs are serial and build only the stage-1
    classes they reach.  Unbudgeted runs with threads > 1 deal the classes
    into min(threads, `os.cpu_count()`) chunks, in flat order within each,
    and run them on a process pool of one worker per chunk; the found cases
    are merged by `case_index`, so the result is the serial one whatever the
    number of chunks.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if k > 5:  # k = 6 has 755,284 classes with up to 23,040 stage-2 cases each
        raise ValueError(f"k must be at most 5, got {k}")
    if lines not in ("three", "four"):
        raise ValueError("lines must be 'three' or 'four'")
    if budget is not None and budget < 0:
        raise ValueError(f"budget must be at least 0, got {budget}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    rel = _relabelings(k)
    stage1 = _stage1_classes(k, dedup, rel)
    if threads > 1 and budget is None:
        stage1 = list(stage1)
        # The pool starts all its workers at once, so it gets no more than
        # the cores, and no more chunks than workers: each chunk pickles rel.
        workers = min(threads, os.cpu_count() or 1)
        chunks = [stage1[i::workers] for i in range(workers)]
        args = [(k, lines, chunk, None, rel) for chunk in chunks if chunk]
        # Imported here: it pulls in multiprocessing, which a serial run
        # never needs.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            parts = list(pool.map(_enumerate_chunk, args))
    else:
        parts = [_enumerate_chunk((k, lines, stage1, budget, rel))]
    found = sorted((item for part in parts for item in part[0]), key=lambda item: item[0])
    return EnumerationResult(
        tuple(_found_family(k, lines, *item) for item in found),
        complete=all(part[2] for part in parts),
        cases_examined=sum(part[1] for part in parts),
    )


def _enumerate_chunk(args):
    """Worker: process three-line classes with the relabeling tables `rel`;
    returns (found, cases, complete), where found holds one record
    (case_index, s, p, c, km, v, r, basis) of plain integers per found case:
    its global index, its pairings and sign vectors, and its family's
    integer basis, `_code_basis` on three lines and `_relation_basis` on
    four (the basis `solve_quantum` eliminates; found four-line cases are
    rare, 23 at k = 4).  A three-line class is one case, with
    v = r = None; a four-line class has one case per fourth-line choice
    (v, r).  Cases are counted in index order, up to `budget`, but only
    those with a nonzero y part (`_y_codes`) are decided: every other
    case is trivial.  A case whose zero pattern is degenerate
    (`_pattern_degenerate`, memoised per pattern) is rejected; any other is
    decided on its codes (`_codes_keep_a_factor`) on three lines, and on
    `_case_columns` on four.

    Work shared between cases is done once and kept only while it can be
    reused.  Each stabilizer's stage-2 list comes with the first local
    index of each v in it, so a class builds the y entries of a v, for all
    r at once, only when some choice of that v is below its `todo`; they
    are kept per (km, v), from `_y_orbits` kept per v, both until s
    changes.  The pairing's cycles and the nullspaces of `_case_columns`
    are kept until (s, p) changes.  Classes come in flat order, s and then
    p outermost, in a dealt chunk too, so each is built once per chunk;
    given classes in any other order the search only rebuilds more."""
    k, lines, entries, budget, rel = args
    four = lines == "four"
    per_class = len(rel.perms) * len(rel.signs) if four else 1
    found = []
    cases = 0
    stage2_of = {}  # trivial stabilizers are all one tuple, so they share an entry
    degenerate = {}  # (s, n and x pattern, y pattern) -> `_pattern_degenerate`
    pair = None
    for flat, s, p, c, km, stab in entries:
        if stab not in stage2_of:
            stage2 = _stage2_cases(rel, stab) if four else [(None, None)]
            firsts = {}
            for local, (v, _) in enumerate(stage2):
                firsts.setdefault(v, local)
            local_of = {choice: local for local, choice in enumerate(stage2)}
            stage2_of[stab] = stage2, local_of, list(firsts.items())
        stage2, local_of, firsts = stage2_of[stab]
        todo = len(stage2) if budget is None else min(len(stage2), budget - cases)
        if pair is None or pair[0] != s:
            y_orbits_of = {}  # v -> `_y_orbits(k, s, v)`
            y_codes_of = {}  # (km, v) -> `_y_codes`
        if pair != (s, p):
            pair = s, p
            cycles = _pair_cycles(s, p)
            nullspaces = {}  # the mixed-row nullspaces of `_case_columns`
        nonzero_y = []
        for v, first in firsts:
            if first >= todo:
                break
            if (km, v) not in y_codes_of:
                if v not in y_orbits_of:
                    y_orbits_of[v] = _y_orbits(k, s, v)
                y_codes_of[km, v] = _y_codes(k, y_orbits_of[v], km, rel if four else None)
            for r in y_codes_of[km, v]:
                local = local_of.get((v, r))
                if local is not None and local < todo:
                    nonzero_y.append(local)
        if nonzero_y:
            nx = _nx_part(k, p, c, km, cycles, four)
            nx_nonzero = tuple(map(bool, nx[1]))
        for local_index in sorted(nonzero_y):
            v, r = stage2[local_index]
            y_nonzero, y = y_codes_of[km, v][r]
            key = s, nx_nonzero, y_nonzero
            rejected = degenerate.get(key)
            if rejected is None:
                rejected = degenerate[key] = _pattern_degenerate(k, s, nx_nonzero + y_nonzero)
            if rejected:
                continue
            if four:
                cols = _case_columns(k, nx, y, v, r, nullspaces)
                survives = cols is not None and _survives(k, s, km, cols)
            else:
                codes = nx[1] + y
                survives = _codes_keep_a_factor(k, s, km, codes)
            if survives:
                if four:
                    basis = tuple(map(tuple, _relation_basis(k, s, p, c, km, v, r)))
                else:
                    basis = _code_basis(k, codes)
                found.append((flat * per_class + local_index, s, p, c, km, v, r, basis))
        cases += todo
        if todo < len(stage2):
            return found, cases, False
    return found, cases, True


def _found_family(k, lines, case_index, s, p, c, km, v, r, basis) -> FoundFamily:
    """The `FoundFamily` of a record of `_enumerate_chunk`: its system, and
    the rref parametrization of its integer `basis`, which is what
    `solve_quantum` returns for that system."""
    mult = MultiplierAssignment(c, km, r, quantum=True)
    system = build_system(k, lines, PermTriple(s, p, v), mult)
    vectors = tuple(map(tuple, rref_basis(basis)))
    return FoundFamily(case_index, SolutionFamily(system, vectors))


def _pattern_degenerate(k, s, nonzero) -> bool:
    """Whether a case fails `_degeneracy` by its zero pattern alone, on
    either line set: `nonzero` holds, for each of the 3k unknowns, False if
    it is forced to zero (an n or x unknown whose `_nx_part` code is 0, or a
    y unknown whose `_y_codes` code is 0) and True otherwise.

    A degenerate pattern rejects the case soundly.  Every False of the
    pattern is a zero map of the case's family, whatever its (n, x) part
    turns out to be, so the family's zero maps include the pattern's.  Each
    rule of `_degeneracy` asks only that some maps of one factor be zero,
    so a rule that the pattern meets the family meets too: the family is
    degenerate, and the case holds no surviving family.  If its (n, x)
    part is empty the case is rejected anyway.  On one-column 0/1 maps
    n + 3x is zero only when n and x both are, so the rule of 3a' - b' = 0
    meets a pattern only where that of c' = 0 does, and the three-line
    rules decide both line sets.  The maps take km = all ones, since a sign
    does not change whether a value is zero.  A class with no balanced n or x component,
    m = 0 in `_nx_part`, makes every factor vanish on c' = 0, so all its
    cases are rejected here."""
    cols = [(bit,) for bit in nonzero]
    return _degeneracy(_factor_maps(k, s, (1,) * k, cols), False) is not None


def _signed_components(n, edges) -> tuple[list, dict]:
    """The components of a signed graph on the vertices 0..n-1, whose edge
    (i, j, parity, mask) says value_j = value_i times (-1)^parity times the
    product of the signs with bit l set in mask, sign variables that the
    caller numbers (`_y_orbits`: r_l at bit l, km_l at bit k + l).  It
    serves the y part, whose components are the orbits of <s, v>, not the
    cycles of one permutation; the n and x graphs are cycles (`_nx_part`).

    Returns (label, conditions).  label[i] = (root, parity, mask) gives the
    sign of value_i relative to its component's least vertex, the root, as
    the XOR of the edges on a spanning-tree path.  conditions maps each
    root, in increasing order, to the set of (mask, parity) conditions its
    edges impose: an edge is consistent with the labels exactly when its
    condition holds, that is when the number of negative signs with their
    bit set in mask has that parity, and a tree edge's condition is (0, 0).  A
    component carries a nonzero solution exactly when all its conditions
    hold; with no masks that is when (0, 1), a cycle of odd sign, is not
    among them (Harary's balance).  A self-loop of sign -1 gives (0, 1), so
    it forces its component to zero, and one of sign +1 gives (0, 0)."""
    adjacent = [[] for _ in range(n)]
    for i, j, parity, mask in edges:
        adjacent[i].append((j, parity, mask))
        adjacent[j].append((i, parity, mask))
    label = [None] * n
    conditions = {}
    for root in range(n):
        if label[root] is not None:
            continue
        label[root] = (root, 0, 0)
        conditions[root] = set()
        stack = [root]
        while stack:
            i = stack.pop()
            _, parity_i, mask_i = label[i]
            for j, parity, mask in adjacent[i]:
                if label[j] is None:
                    label[j] = (root, parity_i ^ parity, mask_i ^ mask)
                    stack.append(j)
    for i, j, parity, mask in edges:
        root, parity_i, mask_i = label[i]
        _, parity_j, mask_j = label[j]
        conditions[root].add((mask_i ^ mask_j ^ mask, parity_i ^ parity_j ^ parity))
    return label, conditions


def _y_orbits(k, s, v) -> tuple[list, dict]:
    """(label, orbits) of the y block of (s, v), for every km and r at once:
    `_signed_components` of the edges y_i = km_i y_{s(i)}, mask bit k + i,
    and, given v, y_i = r_i y_{v(i)}, mask bit i, all of parity 0.  orbits
    maps each root, in increasing order, to the masks of the conditions
    other than (0, 0) of its orbit of <s, v>, every parity being 0.  A
    choice (km, r) is decided by popcount parities of its one 2k-bit
    negative mask, the bits of r's negative entries and, above them, those
    of km's (`_y_codes`).

    This is the y block of each (km, r) with the sign of km folded into
    the masks.  Built for one km, the s-edge i would have parity 1 exactly
    when km_i < 0 and mask 0; here it has parity 0 and mask bit k + i, and
    that bit counts towards the parity of a negative mask exactly when
    km_i < 0: the s-edge parity was exactly km_i's bit.  Parities and
    masks enter `_signed_components` only through XOR along paths and
    cycles, and its spanning trees follow the edges alone, so for every
    (km, r) the roots are the same, and each label and each condition
    holds the same sign, parity XOR the parity of the negative mask on its
    mask, as in the per-km construction.  So the y part of every (km, r)
    comes out as it would if built for that km alone, and `_signed_components`
    runs once per (s, v) in place of once per (s, km, v)."""
    edges = [(i, s[i], 0, 1 << (k + i)) for i in range(k)]
    if v is not None:
        edges += [(i, v[i], 0, 1 << i) for i in range(k)]
    label, conditions = _signed_components(k, edges)
    return label, {root: sorted(m for m, _ in conds if m) for root, conds in conditions.items()}


def _y_codes(k, y_orbits, km, rel: _Relabelings | None) -> dict:
    """r -> (nonzero, codes) for each fourth-line sign vector r of `rel`
    with a nonzero y block, given `_y_orbits(k, s, v)`: the k codes of the
    y unknowns, and their zero pattern, which keys the search's degeneracy
    memo.  Without `rel` the one sign vector is r = None, with no negative
    entry: the three-line case, given the orbits of v = None.

    The y block is y_i = km_i y_{s(i)}, plus y_i = r_i y_{v(i)} given v.
    `_y_orbits` gives each y unknown its sign relative to the root of its
    orbit of <s, v>, and an orbit carries a nonzero solution exactly when
    the signs around each of its cycles multiply to one: when (km, r) meets
    each of its condition masks, that is when the bits of the mask among
    the negative entries of r and km have even parity (a popcount, as in
    `_SIGN_PATTERNS`).  The nonzero orbits, by increasing root, are the
    parameters of the y part, and y_i is its sign times its orbit's
    parameter, code +-(j + 1) for orbit j, or 0 if the orbit is zero.

    An empty y block decides a case without elimination.  If every y map
    of a family is zero, the relations x_i = c_i x_{p(i)} and
    km_i n_{s(i)} = c_i n_{p(i)} make den_i = c_i num_{p(i)}, so the factors
    pair up to sign and `_keeps_a_factor` is False.  Conversely the
    relations never mix y with (n, x), so a nonzero y solution with
    n = x = 0 always solves the system: a case the screen keeps has a
    nonempty solution space.

    The dicts of all v are empty exactly when no s-orbit is balanced.  A
    balanced s-orbit stays balanced for v = identity and r = all +1, and an
    unbalanced cycle stays in whatever component v merges it into."""
    label, orbits = y_orbits
    km_neg = _negative_mask(km, k)
    out = {}
    for r, r_neg in zip(rel.signs, rel.negatives) if rel else [(None, 0)]:
        neg = km_neg | r_neg
        odd = lambda mask: (neg & mask).bit_count() & 1
        roots = [root for root, masks in orbits.items() if not any(map(odd, masks))]
        if roots:
            number = {root: j + 1 for j, root in enumerate(roots)}
            codes = tuple((-1) ** odd(mask) * number.get(root, 0) for root, _, mask in label)
            out[r] = tuple(map(bool, codes)), codes
    return out


def _pair_cycles(s: Perm, p: Perm) -> tuple[Perm, list, list]:
    """(s^-1, the cycles of p s^-1, the cycles of p): what `_nx_part` needs
    of a pairing, the same for all its sign classes."""
    s_inv = perm_inverse(s)
    return s_inv, _cycles(tuple(p[i] for i in s_inv)), _cycles(p)


def _nx_part(k, p, c, km, pair_cycles, four: bool) -> tuple[int, tuple, dict]:
    """(m, codes, rows) over the m balanced cycles of the signed
    permutations that the x and n relations of `_relation_terms` make on the
    2k unknowns n and x, given `_pair_cycles(s, p)`: codes[u] is +-(j + 1)
    when unknown u is +-1 times the parameter of component j, and 0 when u
    is zero, and rows[i, j, sign] is `_mixed_terms(k, p, c, i, j, sign)` as
    a row over the m parameters.  Three lines have no mixed relation, so
    there rows is empty.

    The x relations say x_{p(i)} = c_i x_i, so the x graph is the cycles of
    p, vertex i carrying the sign c_i.  The n relations say
    n_{p(i)} = c_i km_i n_{s(i)}, so the n graph is the cycles of
    sigma = p s^-1, vertex j carrying the sign c km at s^-1(j).  A cycle
    carries a nonzero solution exactly when its signs multiply to +1
    (Harary's balance); its unknowns are then their sign relative to its
    least vertex times one parameter, and otherwise all zero.  Components
    are numbered by least vertex, n before x."""
    s_inv, sigma_cycles, p_cycles = pair_cycles
    codes = [0] * (2 * k)
    m = 0
    n_signs = [c[i] * km[i] for i in s_inv]
    for base, cycles, signs in ((0, sigma_cycles, n_signs), (k, p_cycles, c)):
        for cycle in cycles:
            value, values = 1, []
            for j in cycle:
                values.append(value)
                value *= signs[j]
            if value > 0:
                m += 1
                for j, sign in zip(cycle, values):
                    codes[base + j] = sign * m

    def row(*terms):
        out = [0] * m
        for u, coef in terms:
            code = codes[u]
            if code:
                out[abs(code) - 1] += coef if code > 0 else -coef
        return tuple(out)

    if not four:
        return m, tuple(codes), {}
    rows = {
        (i, j, sign): row(*_mixed_terms(k, p, c, i, j, sign))
        for i, j, sign in itertools.product(range(k), range(k), (1, -1))
    }
    return m, tuple(codes), rows


def _case_columns(k, nx, y, v, r, nullspaces) -> list[tuple] | None:
    """The maps of a four-line case's 3k unknowns, given `nx` of `_nx_part`
    and the y codes `y` of `_y_codes`: each n and x map over the
    nullspace of the case's mixed rows over the (n, x) parameters, and each
    y map as the one-entry tuple (code,).  None when the (n, x) part is
    zero: with n = x = 0 every factor vanishes on c' = 0.  The k mixed rows
    of the choice, rows[i, v(i), r_i] of `_nx_part`, are eliminated as
    written, unless `nullspaces` holds their nullspace already.

    The family is the direct sum of the (n, x) nullspace and the y part,
    and these maps are its columns with two changes, neither of which
    changes a verdict of `_survives`: the coordinates that are zero in
    every map of a part are dropped, the y ones from the n and x maps and
    the (n, x) ones from the y maps, and a y column +-e_j becomes
    (+-(j + 1),).  `_degeneracy` reads each factor's n, x and y maps apart,
    and n + 3x pairs coordinates that n and x share; `_keeps_a_factor` keys
    the concatenation n + x + y up to sign.  Dropping coordinates that are
    zero in every map keeps whether a map is zero, whether two maps are
    equal up to a common sign, and the sign of a map's first nonzero
    entry; so does replacing +-e_j by (+-(j + 1),), and different j stay
    different.  So each zero test gives the same answer, and each factor's
    key changes by one injective map, the same for all factors, so the
    `Counter`s of the numerators and of the denominators are equal exactly
    when they were.

    `nullspaces` maps (m, the sorted mixed rows) to `int_nullspace` of
    those rows over m parameters, and a miss is stored in it.  The key is
    sound because the primitive basis depends only on the row space: the
    rref of the rows, and so its pivot and free columns, is the same for
    every matrix with that row space, and `int_nullspace` returns for each
    free column the rref basis vector scaled to the primitive integer
    vector that is positive there, which is unique.  Rows that differ only
    in order span the same space, so any case with the same key, of any
    sign class of the pairing, has the same nullspace."""
    m, codes, rows = nx
    mixed = [rows[i, v[i], r[i]] for i in range(k)]
    key = m, tuple(sorted(mixed))
    null = nullspaces.get(key)
    if null is None:
        null = nullspaces[key] = int_nullspace(mixed, m)
    if not null:
        return None
    maps, zero = list(zip(*null)), (0,) * len(null)  # maps[j]: the map of code j + 1
    cols = [
        maps[code - 1] if code > 0 else tuple(-a for a in maps[-code - 1]) if code else zero
        for code in codes
    ]
    return cols + [(code,) for code in y]


def _stage2_cases(rel: _Relabelings, stab) -> list[tuple[Perm, tuple]]:
    """Fourth-line choices (v, r) in flat order, one per orbit of the
    stabilizer `stab` (indices into `rel.perms`): its minimum in tuple
    order."""
    n_s = len(rel.signs)
    tables = [(rel.perm_image[t], rel.sign_image[t]) for t in stab]
    choices = [i_v * n_s + j_r for i_v in range(len(rel.perms)) for j_r in rel.by_rank]
    images = lambda vr: [pi[vr // n_s] * n_s + si[vr % n_s] for pi, si in tables]
    minima = sorted(vr for vr, _ in _orbit_minima(choices, images))
    return [(rel.perms[vr // n_s], rel.signs[vr % n_s]) for vr in minima]


def _survives(k, s, km, cols) -> bool:
    """Whether the family of a four-line case's `_case_columns` `cols`
    passes `_degeneracy` and `_keeps_a_factor`, neither of which depends on
    the family's basis.  The mixed rows can force more maps to zero than
    the case's zero pattern holds, and the rule of 3a' - b' = 0 reads
    n + 3x, so `_degeneracy` runs even on a case that
    `_pattern_degenerate` keeps."""
    maps = _factor_maps(k, s, km, cols)
    return _degeneracy(maps, True) is None and _keeps_a_factor(maps)


def _codes_keep_a_factor(k, s, km, codes) -> bool:
    """Whether a three-line case that `_pattern_degenerate` keeps holds a
    surviving family, decided on its 3k codes: the n and x codes of
    `_nx_part`, then the y codes of `_y_codes`.  No column is built.

    A three-line case has no mixed rows, so its family is every balanced
    (n, x) component and every nonzero y orbit, one parameter each, and
    the n, x and y parameters are all different.  Each unknown's map is
    then its code: 0, or +-(j + 1) for +-1 times parameter j of its part.
    A factor map (n, x, y) is its triple of codes, with n and x codes from
    one part and y codes from the other, so two factor maps are equal up to
    sign exactly when their triples are, that is when they agree after each
    is flipped by the sign of its first nonzero code.  Denominator factor
    i, (km_i n_{s(i)}, x_i, y_i), takes the n code of s(i) times km_i.  So,
    by `formula.pair_factors`, `_keeps_a_factor` on the family's maps is
    True exactly when the sorted flipped triples of the numerators and of
    the denominators differ, and that is what is returned; it does not
    depend on the family's basis.

    `_degeneracy` need not run.  A map here is zero exactly where the zero
    pattern says (km_i n_{s(i)} exactly when n_{s(i)} is), and
    `_degeneracy(maps, False)` reads only which maps are zero, so it gives
    the verdict it gives on the pattern, which `_pattern_degenerate` has
    already found None."""

    def key(a, b, g):  # the (alpha, beta, gamma) codes flipped by the first nonzero one
        return (a, b, g) if (a or b or g) > 0 else (-a, -b, -g)

    num = sorted(key(codes[i], codes[k + i], codes[2 * k + i]) for i in range(k))
    den = sorted(key(km[i] * codes[s[i]], codes[k + i], codes[2 * k + i]) for i in range(k))
    return num != den


def _code_basis(k, codes) -> tuple[tuple[int, ...], ...]:
    """The integer basis of a three-line case's family, from its 3k codes
    as `_codes_keep_a_factor` takes them: one vector per balanced n or x
    component and per nonzero y orbit, holding its unknowns' signs, each
    times the sign of its last nonzero entry so that entry is +1, in order
    of that entry's coordinate.

    This is the unique rref basis, the one `solve_quantum` returns.  A
    three-line case has no mixed rows, so the family is spanned by these
    vectors, and their supports are disjoint: every unknown belongs to at
    most one component or orbit.  Let l_j be the last coordinate of vector
    b_j; the l_j are distinct.  A nonzero sum of t_j b_j has its last
    nonzero entry at the largest l_j with t_j nonzero, so the coordinates
    at which some family vector has its last nonzero entry are exactly the
    l_j.  Those are the free columns of the rref of the system's rows: a
    column is a pivot exactly when no solution has its last nonzero entry
    there.  The rref basis vector of free column l_j is the solution that
    is 1 at l_j and 0 at the other free columns; b_j is 1 at l_j and, its
    support being disjoint from the others', 0 at every other l_i, and a
    solution is fixed by its values at the free columns.  So it is b_j, and
    the rref basis lists these in order of l_j.  `rref_basis` divides each
    vector by its last nonzero entry, here 1, so it leaves them as they
    are."""
    vectors = {}  # (in the y part, abs(code)) of a parameter -> its vector
    for u, code in enumerate(codes):
        if code:
            vectors.setdefault((u >= 2 * k, abs(code)), [0] * (3 * k))[u] = 1 if code > 0 else -1
    last = [max(u for u, a in enumerate(vec) if a) for vec in vectors.values()]
    return tuple(
        tuple(a * vec[u] for a in vec) for u, vec in sorted(zip(last, vectors.values()))
    )


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


def matches_builtin_four_line(family: SolutionFamily) -> bool:
    """Whether the family's instantiation at the first primes equals
    builtin_q_prop4 for some parameters, matching factors as the family's
    multipliers do: up to sign for a quantum family.
    A match there certifies that the family contains the closed form.
    Raises ValueError, naming the factor, when that instantiation has a
    zero factor or one vanishing on a system line."""
    system = family.system
    n, x, y = family.instantiate(family.first_primes())
    reason = _degeneracy(_system_maps(system, [(*n, *x, *y)]), system.lines == "four")
    if reason is not None:
        raise ValueError(f"the instantiation at the first primes is degenerate: {reason}")
    F = product_from_assignment(system, n, x, y)
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
                candidate = builtin_q_prop4(n0, x0, xp, y0, quantum=F.quantum)
            except ValueError:
                continue
            if is_identically_one(ratio(F, candidate)):
                return True
    return False


# --- classical k = 3 survey ---------------------------------------------------


@dataclass(frozen=True)
class SurveyEntry:
    s: Perm
    p: Perm
    nontrivial: bool
    witness: FactorProduct | None = None
    witness_data: dict = field(default_factory=dict)


@dataclass
class SurveyStats:
    """What one `survey_k3_classical` call did: `pairings_surveyed` counts
    the pairings whose all-nonzero stratum was decided, and `sign_patterns`
    the admissible sign patterns instantiated and verified.  A full survey
    counts 12 / 18.
    """

    pairings_surveyed: int = 0
    sign_patterns: int = 0


# Distinct primes for the survey's variables: the torus generators, then the
# free x value of each p-cycle, then the free y value of each s-cycle.
# `SolutionFamily.first_primes` instantiates families at the same primes.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The 64 sign patterns of the multipliers (c0, c1, c2, k0, k1, k2), in
# itertools.product order, each with the bit mask of its negative entries.
_SIGN_PATTERNS = tuple(
    (signs, _negative_mask(signs)) for signs in itertools.product((1, -1), repeat=6)
)


def survey_k3_classical(stats: SurveyStats | None = None) -> list[SurveyEntry]:
    """Existence survey of nontrivial classical three-line factors at k = 3;
    `stats`, when given, is filled in.

    For each pairing (s, p) the solution set splits into finitely many strata
    by the zero patterns of n, x and y (unions of cycles of p s^-1, p and s,
    with numerator factors normalized to alpha-coefficient one off the zero
    set).  On each stratum the admissible multipliers form a subtorus times
    a sign lattice, and every coefficient of every factor is zero or a
    signed monomial in the torus parameters and the free x and y values.
    Each sign pattern is instantiated once, with a distinct prime for each
    variable: by unique factorization two factors are proportional there
    exactly when they are proportional for every parameter value, so
    cancellation at that one point decides the stratum.  A witness is an
    exact certificate of nontriviality, and its absence proves triviality.

    Only a pairing's all-nonzero stratum is decided (`_survey_pair`), by a
    lemma: at k = 3 every stratum with a zero in n, x or y is degenerate (a
    factor vanishes on a system line) or trivial at every sign pattern.
    Where a whole part is zero it is structural, since then each
    denominator factor is a nonzero multiple of a distinct numerator factor:
    den_i = num_i if n = 0, c_i num_{p(i)} if y = 0 and k_i num_{s(i)} if
    x = 0.  The rest of the proof is by exhaustion.  The test oracle
    `_oracle_stratum` in tests/test_qsearch.py takes the torus from sympy,
    checks each of the 64 sign patterns against the constraints directly,
    and decides all 2,448 strata of the 36 pairings without dedup: 1,938
    are degenerate, and so have a zero; the other 474 with a zero are
    trivial; of the 36 all-nonzero strata, 34 are trivial and 2 nontrivial.
    `test_survey_pairs_match_an_oracle_that_decides_every_stratum` pins
    these counts.

    Relabeling the factors by tau maps a solution (n, x, y) of (s, p, c, k)
    to the solution (n, x, y) o tau^-1 of (tau s tau^-1, tau p tau^-1,
    c o tau^-1, k o tau^-1) and only reorders the product's factors, so
    nontriviality is constant on each orbit of `_relabelings(3).perm_image`:
    11 orbits, by Burnside (36 + 3 * 2^2 + 2 * 3^2) / 6.  Pairings are
    walked in lex order, so an orbit's minimum comes first and is surveyed;
    a later member of a trivial orbit is trivial without a survey, and a
    member of a nontrivial one is surveyed for its own witness.  The one
    nontrivial orbit holds the two fixed-point-free pairings with s != p:
    12 surveys, which verify 18 sign patterns.
    """
    rel = _relabelings(3)
    entries = []
    orbit_nontrivial = {}
    for i_s, s in enumerate(rel.perms):
        for i_p, p in enumerate(rel.perms):
            least = min((image[i_s], image[i_p]) for image in rel.perm_image)
            if least == (i_s, i_p) or orbit_nontrivial[least]:
                witness, data = _survey_pair(s, p, stats)
                orbit_nontrivial.setdefault(least, witness is not None)
            else:
                witness, data = None, {}
            entries.append(SurveyEntry(s, p, witness is not None, witness, data))
    return entries


def _survey_pair(s: Perm, p: Perm, stats: SurveyStats | None = None):
    """(witness, witness_data) of the all-nonzero stratum of (s, p), the one
    stratum that can be nontrivial (see `survey_k3_classical`), or
    (None, {}).  The witness is the product at the prime point of the first
    sign pattern that keeps a factor after `formula.pair_factors`.  With n
    all ones, k_i n_{s(i)} = c_i n_{p(i)} says k = c; a sign pattern is
    admissible when every multiplicative constraint has an even number of
    negative signs at its odd exponents."""
    k = 3
    stats = SurveyStats() if stats is None else stats
    stats.pairings_surveyed += 1
    p_cycles, s_cycles = _cycles(p), _cycles(s)
    # Multiplicative constraints on (c0, c1, c2, k0, k1, k2) as exponent rows.
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    rows += [[int(j == i) - int(j == 3 + i) for j in range(6)] for i in range(k)]
    rows += [[int(j in cyc) for j in range(3)] + [0] * 3 for cyc in p_cycles]
    rows += [[0] * 3 + [int(j in cyc) for j in range(3)] for cyc in s_cycles]
    torus = [Fraction(1)] * 6
    for prime, gen in zip(_PRIMES, int_nullspace(rows, 6)):
        for j in range(6):
            torus[j] *= Fraction(prime) ** gen[j]
    n = (Fraction(1),) * k
    odd = [sum(1 << j for j, e in enumerate(row) if e % 2) for row in rows]
    for signs, negatives in _SIGN_PATTERNS:
        if any((negatives & mask).bit_count() & 1 for mask in odd):
            continue
        stats.sign_patterns += 1
        c = tuple(signs[j] * torus[j] for j in range(3))
        km = tuple(signs[3 + j] * torus[3 + j] for j in range(3))
        x = _cycle_values(p, p_cycles, c, _PRIMES[6:9])
        y = _cycle_values(s, s_cycles, km, _PRIMES[9:12])
        system = build_system(k, "three", PermTriple(s, p), MultiplierAssignment(c, km))
        report = verify_solution(system, n, x, y)
        if not report.ok:
            raise InternalConsistencyError(
                f"stratum assignment of s={s}, p={p} fails {list(report.failures)}"
            )
        num = [(n[i], x[i], y[i]) for i in range(k)]
        den = [(km[i] * n[s[i]], x[i], y[i]) for i in range(k)]
        if None in pair_factors(num, den, up_to_sign=False)[0]:
            data = {"c": c, "k": km, "n": n, "x": x, "y": y}
            return product_from_assignment(system, n, x, y), data
    return None, {}


def _cycle_values(perm, cycles, mult, primes) -> tuple[Fraction, ...]:
    """Values on the cycles of perm: the cycle's prime at its first index,
    then value[perm(i)] = value[i] / mult[i] along the cycle."""
    values = [Fraction(0)] * len(perm)
    for cyc, prime in zip(cycles, primes):
        i = cyc[0]
        values[i] = Fraction(prime)
        for _ in range(len(cyc) - 1):
            values[perm[i]] = values[i] / mult[i]
            i = perm[i]
    return tuple(values)


def matches_builtin_q33(entry: SurveyEntry) -> bool:
    """Whether a survey witness is the closed-form three-line family, after
    the index relabeling that aligns its pairings with builtin_q33's."""
    if not entry.nontrivial or entry.witness is None:
        return False
    data = entry.witness_data
    c, x, y = data["c"], data["x"], data["y"]
    if entry.s == (1, 2, 0) and entry.p == (2, 0, 1):
        candidate = builtin_q33(c[0], c[1], x[0], y[0])
    elif entry.s == (2, 0, 1) and entry.p == (1, 2, 0):
        candidate = builtin_q33(c[1], c[0], x[1], y[1])
    else:
        return False
    return is_identically_one(ratio(entry.witness, candidate))
