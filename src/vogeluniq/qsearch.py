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
coefficients are then integers in {0, +-1, +-3}.  Each three-line relation,
and y_i = r_i y_{v(i)}, has two +-1 terms, a signed edge between two
unknowns, so those spaces are read off the components of signed graphs
(n, x and y) with no elimination.  The y relations never mix with the
(n, x) relations, so on both line sets a case's space is the direct sum of
a y part, zero (and the case trivial) unless a sign check on the orbits of
<s, v> passes, and an (n, x) part: the nullspace of the mixed fourth-line
rows over the balanced n and x components, by fraction-free integer
elimination, or all of them on three lines.  Only the cases with a nonzero
y part reach the elimination, and with z = n + 3x the mixed rows are signed
edges along the cycles of v p^-1, so one row per balanced cycle is implied
by the others and left out (`_case_columns`).  Each case is decided by
exact tests (degeneracy, and nontriviality by pairing the factors' linear
maps up to sign), so the search draws no random numbers and its result
does not depend on a seed; Fraction vectors are built only for the
families it returns.  The classical multipliers form a continuum; they are verified
rather than searched, except for the dedicated k = 3 survey which decides
nontriviality stratum by stratum, exactly, at one point with distinct prime
coordinates.
"""

from __future__ import annotations

import itertools
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

from ._linalg import int_nullspace, rref_basis
from .formula import FactorProduct, factor_class, is_identically_one, pair_factors, ratio
from .identity import InternalConsistencyError
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


@dataclass(frozen=True)
class _Relabelings:
    """Index tables of the simultaneous relabelings tau of the k factors.
    Relabeling factor i as tau(i) maps a pairing sigma to tau sigma tau^-1
    and a sign vector to the one holding vec[i] at tau(i).  `perms` is in
    lexicographic order, so perm indices compare like the tuples; `signs` is
    in sign_vectors order, and `by_rank` lists its indices in tuple order."""

    perms: list[Perm]
    signs: list[tuple[int, ...]]
    perm_image: list[list[int]]  # [t][i]: index of the image of perms[i] under perms[t]
    sign_image: list[list[int]]  # [t][j]: index of the image of signs[j] under perms[t]
    by_rank: list[int]


def _relabelings(k: int) -> _Relabelings:
    perms = list(itertools.permutations(range(k)))
    signs = sign_vectors(k)
    perm_index = {perm: i for i, perm in enumerate(perms)}
    sign_index = {vec: j for j, vec in enumerate(signs)}
    perm_image = [[perm_index[_conj_perm(tau, sigma)] for sigma in perms] for tau in perms]
    sign_image = [
        [sign_index[tuple(vec[i] for i in perm_inverse(tau))] for vec in signs] for tau in perms
    ]
    by_rank = sorted(range(len(signs)), key=signs.__getitem__)
    return _Relabelings(perms, signs, perm_image, sign_image, by_rank)


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
    its minimum in tuple order, with the relabelings that fix it, in
    lexicographic order.  Its pairings (s, p) are the least of their
    conjugation orbit, and its signs (c, kmul) the least of their orbit
    under the stabilizer of (s, p), so each sweep takes only that group.
    Without dedup the group is empty: every tuple is a class."""
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
             signs[sp % n_s], tuple(perms[group[h]] for h in stab))
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
    is decided exactly, as `_enumerate_chunk` describes, and a found family
    is built by `solve_quantum`.  Nothing is sampled, so `seed` is accepted
    but changes nothing.  Iteration order, and therefore the output, is
    deterministic.  `budget` caps the number of examined cases, counted in
    index order whether screened or solved, and flags the result incomplete
    when exceeded.  Budgeted runs are serial and build only the stage-1
    classes they reach.  Unbudgeted runs with threads > 1 deal the classes
    into `threads` chunks and run them on a process pool of at most
    `os.cpu_count()` workers.
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
        chunks = [stage1[i::threads] for i in range(threads)]
        args = [(k, lines, chunk, None, rel) for chunk in chunks if chunk]
        # The pool starts all its workers at once: no more than the cores.
        with ProcessPoolExecutor(max_workers=min(len(args), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_enumerate_chunk, args))
        found = [item for part in parts for item in part[0]]
        cases = sum(part[1] for part in parts)
        complete = all(part[2] for part in parts)
    else:
        found, cases, complete = _enumerate_chunk((k, lines, stage1, budget, rel))
    found.sort(key=lambda item: item[0])
    families = tuple(FoundFamily(idx, system, family) for idx, system, family in found)
    return EnumerationResult(families, complete, cases)


def _enumerate_chunk(args):
    """Worker: process three-line classes with the relabeling tables `rel`;
    returns (found, cases, complete) where found holds (global_case_index,
    system, family) triples.  A three-line class is one case, with
    v = r = None; a four-line class has one case per fourth-line choice
    (v, r).  Cases are counted in index order, up to `budget`, but only
    those whose choice is a key of the class's `_y_columns` are decided,
    on `_case_columns`: every other case has a zero y part and is trivial."""
    k, lines, entries, budget, rel = args
    four = lines == "four"
    per_class = len(rel.perms) * len(rel.signs) if four else 1
    found = []
    cases = 0
    stage2_of = {}  # trivial stabilizers are all one tuple, so they share an entry
    y_columns_of = {}  # the y block involves only s, km, v and r
    for flat, s, p, c, km, stab in entries:
        if stab not in stage2_of:
            stage2 = _stage2_cases(rel, stab) if four else [(None, None)]
            stage2_of[stab] = stage2, {choice: local for local, choice in enumerate(stage2)}
        stage2, local_of = stage2_of[stab]
        todo = len(stage2) if budget is None else min(len(stage2), budget - cases)
        if (s, km) not in y_columns_of:
            y_columns_of[s, km] = _y_columns(k, s, km, rel if four else None)
        y_columns = y_columns_of[s, km]
        nonzero_y = sorted(i for i in map(local_of.get, y_columns) if i is not None and i < todo)
        if nonzero_y:
            nx = _nx_part(k, s, p, c, km, four)
        for local_index in nonzero_y:
            v, r = stage2[local_index]
            cols = _case_columns(k, nx, y_columns[v, r], v, r)
            if cols and _survives(k, s, km, cols, four):
                mult = MultiplierAssignment(c, km, r, quantum=True)
                system = build_system(k, lines, PermTriple(s, p, v), mult)
                found.append((flat * per_class + local_index, system, solve_quantum(system).family))
        cases += todo
        if todo < len(stage2):
            return found, cases, False
    return found, cases, True


def _signed_components(n, edges) -> tuple[list, dict]:
    """The components of a signed graph on the vertices 0..n-1, whose edge
    (i, j, parity, mask) says value_j = value_i times (-1)^parity times the
    product of the r_l with bit l set in mask.

    Returns (label, conditions).  label[i] = (root, parity, mask) gives the
    sign of value_i relative to its component's least vertex, the root, as
    the XOR of the edges on a spanning-tree path.  conditions maps each
    root, in increasing order, to the set of (mask, parity) conditions its
    edges impose: an edge is consistent with the labels exactly when its
    condition holds, that is when the number of negative r_l with bit l set
    in mask has that parity, and a tree edge's condition is (0, 0).  A
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


def _y_orbits(k, s, km, v=None) -> tuple[list, dict]:
    """(label, orbits): the `_signed_components` labels of the y unknowns,
    and the orbits of <s, v> on which the y block can be nonzero, each root
    mapped to its sorted sign conditions on the fourth-line multipliers r.

    The y block is y_i = km_i y_{s(i)}, plus y_i = r_i y_{v(i)} given v.  On
    an orbit every y value is +-y at the orbit's first index, so the orbit
    carries a nonzero solution exactly when the signs around each of its
    cycles multiply to one.  A condition (mask, parity) holds when the
    number of negative r_i with bit i set in mask has that parity; the y
    block has a nonzero solution exactly when every condition of some
    listed orbit holds.  Without v the conditions are empty, and there are
    no orbits exactly when no s-cycle has sign product one.

    An empty y block decides a case without elimination.  If every y map
    of a family is zero, the relations x_i = c_i x_{p(i)} and
    km_i n_{s(i)} = c_i n_{p(i)} make den_i = c_i num_{p(i)}, so the factors
    pair up to sign and `_keeps_a_factor` is False.  Conversely the
    relations never mix y with (n, x), so a nonzero y solution with
    n = x = 0 always solves the system: a case the screen keeps has a
    nonempty solution space."""
    edges = [(i, s[i], int(km[i] < 0), 0) for i in range(k)]
    if v is not None:
        edges += [(i, v[i], 0, 1 << i) for i in range(k)]
    label, conditions = _signed_components(k, edges)
    return label, {
        root: sorted(conds - {(0, 0)}) for root, conds in conditions.items() if (0, 1) not in conds
    }


def _y_columns(k, s, km, rel: _Relabelings | None) -> dict:
    """The y columns of each fourth-line choice (v, r) of `rel` with a
    nonzero y block, from one `_y_orbits` call per v: y_i is +-1 (its sign
    relative to its orbit's root) times its orbit's parameter, or 0 if the
    orbit is zero.  Without `rel` the one choice is (None, None), the
    three-line case, whose masks are all 0.  A condition (mask, parity)
    holds for r when the bits of mask among r's negative entries have that
    parity, a popcount as in `_SIGN_PATTERNS`.

    The dict is empty exactly when no s-orbit is balanced.  A balanced
    s-orbit stays balanced for v = identity and r = all +1, and an
    unbalanced cycle stays in whatever component v merges it into."""
    out = {}
    negatives = [
        (r, sum(1 << i for i, sign in enumerate(r) if sign < 0)) for r in rel.signs
    ] if rel else [(None, 0)]
    for v in rel.perms if rel else [None]:
        label, orbits = _y_orbits(k, s, km, v)
        for r, neg in negatives:
            odd = lambda mask: (neg & mask).bit_count() & 1
            roots = [root for root, conds in orbits.items() if all(odd(m) == q for m, q in conds)]
            if roots:
                out[v, r] = [
                    tuple((-1) ** (parity ^ odd(mask)) * (root == other) for other in roots)
                    for root, parity, mask in label
                ]
    return out


def _nx_part(k, s, p, c, km, four: bool) -> tuple[int, list, dict, Perm | None, tuple]:
    """(m, units, rows, p_inv, c) over the m balanced components of the
    signed graph that the x and n relations of `_relation_terms` make on the
    2k unknowns n and x (a relation ca u_a + cb u_b = 0 is the edge
    u_b = -(ca cb) u_a): units[u] is the (component, sign) carrying unknown
    u, or None if u is zero, and on four lines rows[i, j, sign] is factor
    i's mixed row c_i n_{p(i)} + 3 x_i - r_i (n_{v(i)} + 3 x_{v(i)}) for
    v(i) = j and r_i = sign.  p_inv (None on three lines) and c are for
    `_mixed_rows`."""
    terms = _relation_terms(k, s, p, c, km)
    del terms[1::3]  # the y relations
    label, conditions = _signed_components(
        2 * k, [(a, b, int(ca * cb > 0), 0) for (a, ca), (b, cb) in terms]
    )
    free = [root for root, conds in conditions.items() if (0, 1) not in conds]
    units = [
        (free.index(root), (-1) ** parity) if root in free else None for root, parity, _ in label
    ]

    def row(*terms):
        out = [0] * len(free)
        for u, coef in terms:
            if units[u]:
                out[units[u][0]] += coef * units[u][1]
        return out

    if not four:
        return len(free), units, {}, None, c
    rows = {
        (i, j, sign): row((p[i], c[i]), (k + i, 3), (j, -sign), (k + j, -3 * sign))
        for i, j, sign in itertools.product(range(k), range(k), (1, -1))
    }
    return len(free), units, rows, perm_inverse(p), c


def _mixed_rows(k, nx, v, r) -> list[list[int]]:
    """The mixed rows of choice (v, r) that `_case_columns` eliminates: all
    k of them but one per balanced cycle of sigma = v p^-1."""
    _, _, rows, p_inv, c = nx
    kept = []
    seen = [False] * k
    for start in range(k):
        i, sign, cycle = start, 1, []
        while not seen[i]:
            seen[i] = True
            cycle.append(rows[i, v[i], r[i]])
            sign *= c[i] * r[i]
            i = p_inv[v[i]]
        kept += cycle[:-1] if sign > 0 else cycle
    return kept


def _case_columns(k, nx, y, v, r) -> list[tuple] | None:
    """`_columns` of a case with the nonzero y columns `y` from
    `_y_columns`: the direct sum of its (n, x) part, the nullspace of its
    mixed rows (none on three lines) over `_nx_part`, and its y part.  None
    when the (n, x) part is zero: with n = x = 0 every factor vanishes on
    c' = 0.

    Only `_mixed_rows` are eliminated.  Over `_nx_part` the relation
    x_i = c_i x_{p(i)} holds as linear forms, so with z_j = n_j + 3 x_j
    mixed row i is c_i z_{p(i)} - r_i z_{v(i)}: a signed edge from p(i) to
    v(i), and the k rows run along the cycles of sigma = v p^-1.  On a
    cycle j_0 -> j_1 -> ... -> j_{L-1} -> j_0 let row t be the row of the
    factor i with p(i) = j_t, and e_t = c_i r_i its sign, so r_i times
    row t is e_t z_{j_t} - z_{j_{t+1}}.  With weights w_0 = 1 and
    w_t = e_1 e_2 ... e_t, the sum of w_t r_i row t cancels z_{j_t} for
    t >= 1 and leaves e_0 (1 - e_0 e_1 ... e_{L-1}) z_{j_0}.

    On a balanced cycle, product +1 (Harary's balance), the rows therefore
    satisfy a relation whose coefficients are all +-1: each is implied by
    the others, and dropping one leaves the row space, and so the reduced
    row echelon form and the primitive basis of `int_nullspace`,
    unchanged.  On an unbalanced cycle, product -1, the L rows as forms in
    the L values z_j have determinant +-(1 - product) = +-2, so no one of
    them is implied by the others and together they say z_j = 0 at every
    j on the cycle.  Putting the L rows z_j = 0 in their place leaves the
    row space unchanged too, but measured no faster, so they are kept."""
    m, units = nx[0], nx[1]
    null = int_nullspace(_mixed_rows(k, nx, v, r) if v else [], m)
    if not null:
        return None
    zero, pad = (0,) * len(null), (0,) * len(y[0])
    cols = [zero if unit is None else tuple(unit[1] * t[unit[0]] for t in null) for unit in units]
    return [col + pad for col in cols] + [zero + col for col in y]


def _stage2_cases(rel: _Relabelings, stab) -> list[tuple[Perm, tuple]]:
    """Fourth-line choices (v, r) in flat order, one per orbit of the
    stabilizer `stab`: its minimum in tuple order."""
    n_s = len(rel.signs)
    tables = [(rel.perm_image[t], rel.sign_image[t]) for t in map(rel.perms.index, stab)]
    choices = [i_v * n_s + j_r for i_v in range(len(rel.perms)) for j_r in rel.by_rank]
    images = lambda vr: [pi[vr // n_s] * n_s + si[vr % n_s] for pi, si in tables]
    minima = sorted(vr for vr, _ in _orbit_minima(choices, images))
    return [(rel.perms[vr // n_s], rel.signs[vr % n_s]) for vr in minima]


def _survives(k, s, km, cols, four: bool) -> bool:
    """Whether the family of `_columns` `cols` passes `_degeneracy` and
    `_keeps_a_factor`, neither of which depends on the family's basis."""
    maps = _factor_maps(k, s, km, cols)
    return _degeneracy(maps, four) is None and _keeps_a_factor(maps)


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
    builtin_q_prop4 for some parameters, under quantum (+-) factor matching.
    A match there certifies that the family contains the closed form.
    Raises ValueError, naming the factor, when that instantiation has a
    zero factor or one vanishing on a system line."""
    system = family.system
    n, x, y = family.instantiate(tuple(map(Fraction, _PRIMES[: family.free_parameters])))
    cols = [(value,) for value in (*n, *x, *y)]
    reason = _degeneracy(
        _factor_maps(system.k, system.perms.s, system.mult.kmul, cols), system.lines == "four"
    )
    if reason is not None:
        raise ValueError(f"the instantiation at the first primes is degenerate: {reason}")
    F = product_from_assignment(system, n, x, y, quantum=True)
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
            if is_identically_one(ratio(F, candidate)):
                return True
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


@dataclass
class SurveyStats:
    """What one `survey_k3_classical` call did.

    `pairings_surveyed` counts the pairings whose strata were walked,
    `strata_screened` the strata given the degeneracy screen, `strata_decided`
    those that passed it and were decided sign pattern by sign pattern, and
    `sign_patterns` the admissible sign patterns instantiated and verified.
    """

    pairings_surveyed: int = 0
    strata_screened: int = 0
    strata_decided: int = 0
    sign_patterns: int = 0


# Distinct primes for the stratum variables: the torus generators, then the
# free x value of each p-cycle, then the free y value of each s-cycle.  The
# `search --json` line check instantiates families at the same primes.
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The 64 sign patterns of the multipliers (c0, c1, c2, k0, k1, k2), in
# itertools.product order, each with the bit mask of its negative entries.
_SIGN_PATTERNS = tuple(
    (signs, sum(1 << j for j, sign in enumerate(signs) if sign < 0))
    for signs in itertools.product((1, -1), repeat=6)
)


def survey_k3_classical(stats: SurveyStats | None = None) -> list[SurveyEntry]:
    """Existence survey of nontrivial classical three-line factors at k = 3;
    `stats`, when given, is filled in.

    For each pairing (s, p) the solution set splits into finitely many strata
    by the zero patterns of n, x and y (unions of cycles of the relevant
    permutations, with numerator factors normalized to alpha-coefficient one
    off the zero set).  On each stratum the admissible multipliers form a
    subtorus times a sign lattice, and every coefficient of every factor is
    zero or a signed monomial in the torus parameters and the free x and y
    values.  Each sign pattern is instantiated once, with a distinct prime
    for each variable: by unique factorization two factors are proportional
    there exactly when they are proportional for every parameter value, so
    cancellation at that one point decides the stratum.  A witness is an
    exact certificate of nontriviality, and its absence proves triviality.

    Relabeling the factors by tau maps a solution (n, x, y) of (s, p, c, k)
    to the solution (n, x, y) o tau^-1 of (tau s tau^-1, tau p tau^-1,
    c o tau^-1, k o tau^-1) and only reorders the product's factors, so
    nontriviality is constant on each orbit of `_conj_perm`: 11 orbits, by
    Burnside (36 + 3 * 2^2 + 2 * 3^2) / 6.  Pairings are walked in lex
    order, so an orbit's minimum comes first and is surveyed; a later member
    of a trivial orbit is trivial without a survey, and a member of a
    nontrivial one is surveyed for its own witness.  The one nontrivial
    orbit holds the two fixed-point-free pairings with s != p: 12 surveys.
    Inside a pairing the same argument, for the tau that fix s and p,
    decides one stratum per orbit (see `_survey_pair`): the 12 surveys
    screen 554 strata for degeneracy, decide 127 of them and verify 262
    sign patterns, where a walk over every stratum would take 1,090, 195
    and 358.
    """
    perms = list(itertools.permutations(range(3)))
    entries = []
    orbit_nontrivial = {}
    for s in perms:
        for p in perms:
            least = min((_conj_perm(tau, s), _conj_perm(tau, p)) for tau in perms)
            if least == (s, p) or orbit_nontrivial[least]:
                witness, data = _survey_pair(s, p, stats)
                orbit_nontrivial.setdefault(least, witness is not None)
            else:
                witness, data = None, {}
            entries.append(SurveyEntry(s, p, witness is not None, witness, data))
    return entries


def _survey_pair(s: Perm, p: Perm, stats: SurveyStats | None = None):
    """(witness, witness_data) of the first nontrivial stratum of (s, p), in
    order of zero count and then of the sorted zero sets, or (None, {}).

    A tau in Stab(s, p), the relabelings with tau s tau^-1 = s and
    tau p tau^-1 = p, maps a solution on stratum (zn, zx, zy) with
    multipliers (c, k) to one on (tau zn, tau zx, tau zy) with
    (c o tau^-1, k o tau^-1), and only reorders the factors.  So whether a
    stratum is degenerate, and whether it is nontrivial, is constant on its
    orbit, and only the first stratum of each orbit (`_orbit_minima`) is
    screened and decided.  The walk still returns the same stratum: the
    first nontrivial stratum in order is the first of its orbit, since an
    earlier member would be nontrivial too, and a stratum skipped before it
    has an earlier orbit member that was degenerate or trivial.  That
    stratum is decided as before, so its witness and data are unchanged.
    """
    k = 3
    stats = SurveyStats() if stats is None else stats
    stats.pairings_surveyed += 1
    p_inv = perm_inverse(p)
    u = tuple(s[p_inv[j]] for j in range(k))
    u_cycles, p_cycles, s_cycles = _cycles(u), _cycles(p), _cycles(s)
    unions = lambda cycles: [
        frozenset(i for cyc in pick for i in cyc)
        for size in range(len(cycles) + 1)
        for pick in itertools.combinations(cycles, size)
    ]
    strata = sorted(
        itertools.product(unions(u_cycles), unions(p_cycles), unions(s_cycles)),
        key=lambda zeros: (sum(map(len, zeros)), *map(sorted, zeros)),
    )
    stab = [
        tau for tau in itertools.permutations(range(k))
        if _conj_perm(tau, s) == s and _conj_perm(tau, p) == p
    ]
    images = lambda zeros: [tuple(frozenset(tau[i] for i in z) for z in zeros) for tau in stab]
    for (zn, zx, zy), _ in _orbit_minima(strata, images):
        stats.strata_screened += 1
        cols = [(int(i not in zeros),) for zeros in (zn, zx, zy) for i in range(k)]
        if _degeneracy(_factor_maps(k, s, (1, 1, 1), cols), False) is not None:
            continue
        stats.strata_decided += 1
        witness = _stratum_witness(s, p, zn, zx, zy, p_cycles, s_cycles, stats)
        if witness is not None:
            return witness
    return None, {}


def _stratum_witness(s, p, zn, zx, zy, p_cycles, s_cycles, stats: SurveyStats):
    """(product, data) for the first sign pattern of the stratum whose
    product at the prime point keeps a factor after `formula.pair_factors`,
    or None.  A sign pattern is admissible when every multiplicative
    constraint has an even number of negative signs at its odd exponents."""
    k = 3
    # Multiplicative constraints on (c0, c1, c2, k0, k1, k2) as exponent rows.
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    rows += [[int(j == i) - int(j == 3 + i) for j in range(6)] for i in range(k) if s[i] not in zn]
    rows += [[int(j in cyc) for j in range(3)] + [0] * 3 for cyc in p_cycles if not set(cyc) <= zx]
    rows += [[0] * 3 + [int(j in cyc) for j in range(3)] for cyc in s_cycles if not set(cyc) <= zy]
    torus = [Fraction(1)] * 6
    for prime, gen in zip(_PRIMES, int_nullspace(rows, 6)):
        for j in range(6):
            torus[j] *= Fraction(prime) ** gen[j]
    n = tuple(Fraction(0) if i in zn else Fraction(1) for i in range(k))
    odd = [sum(1 << j for j, e in enumerate(row) if e % 2) for row in rows]
    for signs, negatives in _SIGN_PATTERNS:
        if any((negatives & mask).bit_count() & 1 for mask in odd):
            continue
        stats.sign_patterns += 1
        c = tuple(signs[j] * torus[j] for j in range(3))
        km = tuple(signs[3 + j] * torus[3 + j] for j in range(3))
        x = _cycle_values(p, p_cycles, zx, c, _PRIMES[6:9])
        y = _cycle_values(s, s_cycles, zy, km, _PRIMES[9:12])
        system = build_system(k, "three", PermTriple(s, p), MultiplierAssignment(c, km))
        report = verify_solution(system, n, x, y)
        if not report.ok:
            raise InternalConsistencyError(
                f"stratum assignment of s={s}, p={p} fails {list(report.failures)}"
            )
        num = [(n[i], x[i], y[i]) for i in range(k)]
        den = [(km[i] * n[s[i]], x[i], y[i]) for i in range(k)]
        if None in pair_factors(num, den, up_to_sign=False)[0]:
            data = {"zn": sorted(zn), "zx": sorted(zx), "zy": sorted(zy), "c": c, "k": km,
                    "n": n, "x": x, "y": y}
            return product_from_assignment(system, n, x, y), data
    return None


def _cycle_values(perm, cycles, zeros, mult, primes) -> tuple[Fraction, ...]:
    """Values on the cycles of perm outside `zeros`: the cycle's prime at its
    first index, then value[perm(i)] = value[i] / mult[i] along the cycle."""
    values = [Fraction(0)] * len(perm)
    for cyc, prime in zip(cycles, primes):
        if set(cyc) <= zeros:
            continue
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
    if data.get("zn") or data.get("zx") or data.get("zy"):
        return False
    c, x, y = data["c"], data["x"], data["y"]
    if entry.s == (1, 2, 0) and entry.p == (2, 0, 1):
        candidate = builtin_q33(c[0], c[1], x[0], y[0])
    elif entry.s == (2, 0, 1) and entry.p == (1, 2, 0):
        candidate = builtin_q33(c[1], c[0], x[1], y[1])
    else:
        return False
    return is_identically_one(ratio(entry.witness, candidate))
