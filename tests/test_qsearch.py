import hashlib
import itertools
import json
import math
import os
from collections import Counter
from fractions import Fraction

import pytest

from vogeluniq.formula import cancel, eval_classical, ratio
from vogeluniq.identity import InternalConsistencyError, check_on_lines
from vogeluniq.plane import Basis, ProjPoint
from vogeluniq import qsearch
from vogeluniq.qsearch import (
    FOUR_LINE_PERMS,
    PRIMED_LINES,
    ConstraintSystem,
    InvalidMultiplierError,
    MultiplierAssignment,
    PermTriple,
    SolutionFamily,
    VerifyReport,
    build_system,
    builtin_q33,
    builtin_q_prop4,
    enumerate_families,
    is_nontrivial,
    matches_builtin_four_line,
    matches_builtin_q33,
    product_from_assignment,
    reference_four_line_assignment,
    sign_vectors,
    solve_quantum,
    survey_k3_classical,
    verify_solution,
    _relation_terms,
    _stage1_classes,
)
from vogeluniq._linalg import int_nullspace
from conftest import rand_rational

ONES = (Fraction(1),) * 4
NEGS = (Fraction(-1),) * 4
K3_PERMS = PermTriple((1, 2, 0), (2, 0, 1))  # s(i) = i+1, p(i) = i+2 mod 3


def k3_system(c=(2, 3), quantum=False):
    c1, c2 = Fraction(c[0]), Fraction(c[1])
    cvec = (c1, c2, 1 / (c1 * c2))
    return build_system(
        3, "three", K3_PERMS, MultiplierAssignment(cvec, cvec, quantum=quantum)
    )


# --- system construction ----------------------------------------------------------


def test_build_system_validates_products():
    bad = (Fraction(2), Fraction(1), Fraction(1))
    with pytest.raises(InvalidMultiplierError):
        MultiplierAssignment(bad, bad)


def test_build_system_rejects_zero_multipliers():
    with pytest.raises(InvalidMultiplierError):
        MultiplierAssignment((Fraction(0), Fraction(1), Fraction(1)), (Fraction(1),) * 3)


def test_quantum_assignment_requires_unit_entries():
    with pytest.raises(InvalidMultiplierError):
        MultiplierAssignment(
            (Fraction(2), Fraction(1, 2), Fraction(1)), (Fraction(1),) * 3, quantum=True
        )


def test_three_line_system_equation_count():
    system = k3_system()
    perms, mult = system.perms, system.mult
    assert len(_relation_terms(3, perms.s, perms.p, mult.c, mult.kmul)) == 9
    assert len(system.line_forms()) == 3


def test_four_line_system_needs_v_and_r():
    with pytest.raises(ValueError):
        build_system(4, "four", PermTriple((0, 1, 2, 3), (0, 1, 2, 3)),
                     MultiplierAssignment(ONES, ONES, quantum=True))


def test_k1_system_admits_only_trivial_families():
    system = build_system(
        1, "three", PermTriple((0,), (0,)),
        MultiplierAssignment((Fraction(1),), (Fraction(1),), quantum=True),
    )
    outcome = solve_quantum(system)
    assert outcome.status in ("trivial", "infeasible")


# --- verify_solution ---------------------------------------------------------------


def test_eq21_parametrization_satisfies_the_k3_system(rng):
    for _ in range(10):
        c1 = rand_rational(rng, 9, nonzero=True)
        c2 = rand_rational(rng, 9, nonzero=True)
        x = rand_rational(rng, 9, nonzero=True)
        y = rand_rational(rng, 9, nonzero=True)
        c3 = 1 / (c1 * c2)
        system = k3_system((c1, c2))
        n = (Fraction(1), Fraction(1), Fraction(1))
        xs = (x, c2 * x, c2 * c3 * x)
        ys = (y, c2 * c3 * y, c3 * y)
        assert verify_solution(system, n, xs, ys).ok


def test_verify_solution_names_failing_equation():
    system = k3_system((2, 3))
    n = (Fraction(1),) * 3
    x = (Fraction(1), Fraction(3), Fraction(1))  # broken chain
    y = (Fraction(1), Fraction(1), Fraction(1))
    report = verify_solution(system, n, x, y)
    assert not report.ok
    assert any("x[" in label for label in report.failures)


def test_verify_solution_names_the_failing_equations_in_order():
    # One broken unknown per case: each failing equation is named once, in
    # equation order (three-line relations by factor, then fourth-line ones).
    system = k3_system((2, 3))
    ones = (Fraction(1),) * 3
    report = verify_solution(system, ones, (Fraction(1), Fraction(3), Fraction(1)), ones)
    assert report == VerifyReport(False, (
        "x[0] = c[0]*x[p(0)]",
        "y[0] = k[0]*y[s(0)]",
        "y[1] = k[1]*y[s(1)]",
        "x[2] = c[2]*x[p(2)]",
        "y[2] = k[2]*y[s(2)]",
    ))
    system, n, x, y = reference_four_line_assignment(2, 3, 5, 7, 1, 2, 3)
    assert verify_solution(system, n, x, y) == VerifyReport(True)
    bad_n = n[:2] + (n[2] + 1, n[3])
    assert verify_solution(system, bad_n, x, y).failures == (
        "k[1]*n[s(1)] = c[1]*n[p(1)]",
        "k[3]*n[s(3)] = c[3]*n[p(3)]",
        "c[0]*n[p(0)] + 3x[0] = r[0]*(n[v(0)] + 3x[v(0)])",
        "c[1]*n[p(1)] + 3x[1] = r[1]*(n[v(1)] + 3x[v(1)])",
    )
    bad_y = (y[0] + 1,) + y[1:]
    assert verify_solution(system, n, x, bad_y).failures == (
        "y[0] = k[0]*y[s(0)]",
        "y[1] = k[1]*y[s(1)]",
        "y[0] = r[0]*y[v(0)]",
        "y[2] = r[2]*y[v(2)]",
    )


def test_reference_four_line_minus_branch(rng):
    for _ in range(10):
        draws = [rand_rational(rng, 9, nonzero=True) for _ in range(7)]
        system, n, x, y = reference_four_line_assignment(*draws)
        assert verify_solution(system, n, x, y).ok
        product = product_from_assignment(system, n, x, y)
        assert cancel(product).k == 4


def test_reference_four_line_plus_branch_is_trivial(rng):
    for _ in range(5):
        draws = [rand_rational(rng, 9, nonzero=True) for _ in range(7)]
        system, n, x, y = reference_four_line_assignment(*draws, minus_branch=False)
        assert verify_solution(system, n, x, y).ok
        product = product_from_assignment(system, n, x, y)
        assert cancel(product).k == 0


def test_perturbed_reference_assignment_fails():
    system, n, x, y = reference_four_line_assignment(2, 3, 5, 7, 1, 2, 3)
    bad_y = (y[0] + 1,) + y[1:]
    report = verify_solution(system, n, x, bad_y)
    assert not report.ok and report.failures


# --- solve_quantum ------------------------------------------------------------------


def test_known_four_line_signature_solves_to_the_closed_form():
    mult = MultiplierAssignment(ONES, ONES, NEGS, quantum=True)
    system = build_system(4, "four", FOUR_LINE_PERMS, mult)
    outcome = solve_quantum(system)
    assert outcome.status == "nontrivial"
    assert outcome.family.free_parameters == 4
    assert matches_builtin_four_line(outcome.family)


def test_four_line_match_refuses_a_degenerate_prime_point():
    mult = MultiplierAssignment(ONES, ONES, NEGS, quantum=True)
    system = build_system(4, "four", FOUR_LINE_PERMS, mult)
    only_n0 = SolutionFamily(system, ((Fraction(1),) + (Fraction(0),) * 11,))
    with pytest.raises(ValueError, match="first primes is degenerate"):
        matches_builtin_four_line(only_n0)


def test_four_line_plus_sign_branch_is_trivial():
    mult = MultiplierAssignment(ONES, ONES, ONES, quantum=True)
    system = build_system(4, "four", FOUR_LINE_PERMS, mult)
    outcome = solve_quantum(system)
    assert outcome.status == "trivial"


def test_solved_families_verify_for_random_instantiations(rng):
    mult = MultiplierAssignment(ONES, ONES, NEGS, quantum=True)
    system = build_system(4, "four", FOUR_LINE_PERMS, mult)
    family = solve_quantum(system).family
    for _ in range(10):
        params = tuple(rand_rational(rng, 20, nonzero=True) for _ in range(4))
        n, x, y = family.instantiate(params)
        assert verify_solution(system, n, x, y).ok


def test_solve_quantum_rejects_classical_multipliers():
    system = k3_system((2, 3))
    with pytest.raises(ValueError):
        solve_quantum(system)


def test_is_nontrivial_on_forced_equal_family():
    # num and den coincide whenever all multipliers are +1 and perms are id
    ident = PermTriple((0, 1, 2), (0, 1, 2))
    mult = MultiplierAssignment((Fraction(1),) * 3, (Fraction(1),) * 3, quantum=True)
    system = build_system(3, "three", ident, mult)
    outcome = solve_quantum(system)
    assert outcome.status == "trivial"
    assert not is_nontrivial(outcome.family)


# --- enumeration ---------------------------------------------------------------------


def test_sign_vectors_have_unit_product():
    vecs = sign_vectors(4)
    assert len(vecs) == 8
    for vec in vecs:
        prod = 1
        for v in vec:
            prod *= v
        assert prod == 1


@pytest.mark.parametrize("k,raw_cases", [(1, 1), (2, 16), (3, 576)])
def test_quantum_three_line_enumeration_is_empty(k, raw_cases):
    result = enumerate_families(k, "three", dedup=False)
    assert result.complete
    assert result.cases_examined == raw_cases
    assert not result.families


def test_deduped_enumeration_matches_raw_outcome():
    raw = enumerate_families(3, "three", dedup=False)
    deduped = enumerate_families(3, "three", dedup=True)
    assert raw.complete and deduped.complete
    assert len(raw.families) == len(deduped.families) == 0
    assert deduped.cases_examined < raw.cases_examined


def test_enumeration_budget_flags_partial_results():
    result = enumerate_families(3, "three", budget=10, dedup=False)
    assert not result.complete
    assert result.cases_examined == 10


def test_enumeration_is_deterministic():
    a = enumerate_families(2, "three", dedup=False)
    b = enumerate_families(2, "three", dedup=False)
    assert a == b


def test_enumeration_rejects_out_of_range_arguments():
    with pytest.raises(ValueError, match="k must be at least 1"):
        enumerate_families(0, "three")
    with pytest.raises(ValueError, match="budget must be at least 0"):
        enumerate_families(2, "three", budget=-1)
    with pytest.raises(ValueError, match="threads must be at least 1"):
        enumerate_families(2, "three", threads=0)


def test_budgeted_search_builds_only_the_stage1_classes_it_reaches(monkeypatch):
    pulled = []
    stage1 = qsearch._stage1_classes

    def counting(*args):
        for cls in stage1(*args):
            pulled.append(cls)
            yield cls

    monkeypatch.setattr(qsearch, "_stage1_classes", counting)
    result = enumerate_families(5, "four", budget=1000)
    assert not result.complete and result.cases_examined == 1000
    # the classes pulled are the first ones, and the last is the one the budget ends in
    assert pulled == list(itertools.islice(stage1(5), len(pulled)))
    rel = qsearch._relabelings(5)
    sizes = [len(qsearch._stage2_cases(rel, cls[5])) for cls in pulled]
    assert sum(sizes[:-1]) <= 1000 < sum(sizes)
    assert len(pulled) < 31757


@pytest.mark.parametrize("lines,budgets", [
    ("three", (0, 1, 7, 1000, 4321)),  # 0, 0, 0, 12 and all 53 families
    ("four", (0, 1, 1000, 220000, 230000)),  # 0, 0, 0, 4 and 11 of the 23
])
def test_budgeted_family_lists_are_prefixes_of_each_other(lines, budgets):
    total = enumerate_families(4, lines)
    previous = ()
    for budget in budgets:
        result = enumerate_families(4, lines, budget=budget)
        assert result.cases_examined == min(budget, total.cases_examined)
        assert result.complete == (budget >= total.cases_examined)
        assert result.families[: len(previous)] == previous
        previous = result.families
    assert total.families[: len(previous)] == previous


# --- built-ins ------------------------------------------------------------------------


def test_builtin_q33_trivial_when_multiplier_is_one():
    assert cancel(builtin_q33(1, 1, 2, 3)).k == 0
    assert cancel(builtin_q33(1, 5, 2, 3)).k == 0


def test_builtin_q33_value_example():
    q = builtin_q33(2, 3, 1, 1)
    assert eval_classical(q, ProjPoint((1, 1, 1), Basis.PRIMED)).value == Fraction(27, 26)


def test_builtin_q33_rejects_zero_multipliers():
    with pytest.raises(ValueError):
        builtin_q33(0, 1, 1, 1)


def test_builtin_four_line_denominator_swaps_alpha_coefficients():
    n, x, xp, y = Fraction(2), Fraction(3), Fraction(-1), Fraction(7)
    F = builtin_q_prop4(n, x, xp, y)
    n2 = -(n + 3 * x + 3 * xp)
    swap = {n: n2, n2: n}
    for num, den in zip(F.num, F.den):
        assert den.coeffs[0] == swap[num.coeffs[0]]
        assert den.coeffs[1:] == num.coeffs[1:]


def test_builtins_hold_on_their_lines_for_random_parameters(rng):
    three, four = PRIMED_LINES["three"], PRIMED_LINES["four"]
    for _ in range(20):
        c1, c2 = (rand_rational(rng, 9, nonzero=True) for _ in range(2))
        if c1 == 1 or c2 == 1:
            continue
        x, y = (rand_rational(rng, 9, nonzero=True) for _ in range(2))
        q = builtin_q33(c1, c2, x, y)
        assert all(r.identically_one for r in check_on_lines(q, three))
    for _ in range(20):
        n, x, xp, y = (rand_rational(rng, 9, nonzero=True) for _ in range(4))
        if x == xp or 2 * n + 3 * x + 3 * xp == 0:
            continue
        p4 = builtin_q_prop4(n, x, xp, y)
        assert all(r.identically_one for r in check_on_lines(p4, four))


def test_family_identities_hold_exactly_on_system_lines(rng):
    from vogeluniq.plane import distinguished_lines

    mult = MultiplierAssignment(ONES, ONES, NEGS, quantum=True)
    system = build_system(4, "four", FOUR_LINE_PERMS, mult)
    family = solve_quantum(system).family
    params = tuple(rand_rational(rng, 15, nonzero=True) for _ in range(4))
    F = family.factor_product(params)
    reports = check_on_lines(F, system.line_forms())
    assert all(r.identically_one for r in reports)
    # and on no distinguished line beyond the system's four
    system_canon = {f.canonical() for f in system.line_forms()}
    others = [
        f for f in distinguished_lines(Basis.PRIMED) if f.canonical() not in system_canon
    ]
    other_reports = check_on_lines(F, others)
    assert others and not any(r.identically_one for r in other_reports)


@pytest.mark.parametrize("k,lines", [(3, "four"), (4, "three")])
def test_threaded_enumeration_matches_serial(k, lines):
    serial = enumerate_families(k, lines, threads=1)
    threaded = enumerate_families(k, lines, threads=2)
    assert serial == threaded
    assert serial.complete and threaded.complete


@pytest.mark.parametrize("threads,cpus,workers", [(5000, 3, 3), (5000, None, 1), (2, 3, 2)])
def test_pool_starts_no_more_workers_than_cores(monkeypatch, threads, cpus, workers):
    sizes = []

    class InProcessPool:
        """Records the pool size and maps in this process: no worker starts."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(qsearch, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    result = enumerate_families(3, "three", threads=threads)
    assert sizes == [workers]
    assert result == enumerate_families(3, "three", threads=1)


# The nontrivial k = 4 three-line families, one case per stage-1 class, as
# found by an independent exact search (bench/oracle.py).
K4_THREE_LINE_CASES = [
    2566, 2567, 2606, 2607, 2622, 2623, 2631, 2638, 2663, 2670, 2678, 2687,
    10912, 10918, 10919, 10936, 10942, 10943, 11335, 11351, 11361, 11368, 11377,
    11384, 11776, 11783, 11822, 11832, 11839, 11847, 11886, 11888, 11903, 14186,
    14189, 14190, 14200, 14204, 14207, 14277, 14279, 14321, 14323, 14328, 14330,
    14853, 14894, 14904, 14911, 14983, 15021, 15027, 15032,
]


@pytest.mark.parametrize("seed", [None, 1, 6])
def test_k4_three_line_search_finds_every_family_for_every_seed(seed):
    for threads in (1, 2):
        result = enumerate_families(4, "three", threads=threads, seed=seed)
        assert result.complete and result.cases_examined == 1756
        assert [ff.case_index for ff in result.families] == K4_THREE_LINE_CASES


def _brute_force_classes(k):
    """Orbit minima of (s, p, c, kmul) under simultaneous relabeling, with
    their flat indices and stabilizers, by conjugating every tuple."""
    perms = list(itertools.permutations(range(k)))
    signs = sign_vectors(k)

    def conjugate(tau, sigma):
        out = [0] * k
        for i, img in enumerate(sigma):
            out[tau[i]] = tau[img]
        return tuple(out)

    def move(tau, vec):
        out = [0] * k
        for i, val in enumerate(vec):
            out[tau[i]] = val
        return tuple(out)

    def image(tau, item):
        s, p, c, km = item
        return conjugate(tau, s), conjugate(tau, p), move(tau, c), move(tau, km)

    tuples = list(itertools.product(perms, perms, signs, signs))
    flat_of = {item: flat for flat, item in enumerate(tuples)}
    reps = {min(image(tau, item) for tau in perms) for item in tuples}
    return sorted(
        (flat_of[rep], *rep, tuple(tau for tau in perms if image(tau, rep) == rep))
        for rep in reps
    )


@pytest.mark.parametrize("k", [3, 4])
def test_stage1_classes_are_the_orbit_minima(k):
    assert list(_stage1_classes(k)) == _brute_force_classes(k)


def test_stage1_k4_class_count_and_stabilizers():
    classes = list(_stage1_classes(4))
    assert len(classes) == 1756
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
    sizes = Counter(len(cls[5]) for cls in classes)
    assert sizes == {1: 1408, 2: 168, 3: 16, 4: 148, 8: 12, 24: 4}


@pytest.mark.parametrize("k,count", [(3, 107), (4, 1756), (5, 31757)])
def test_stage1_class_count_is_burnside_count(k, count):
    """Burnside's count of relabeling orbits, (1/k!) sum over tau of
    |C(tau)|^2 f(tau)^2 with C(tau) the centralizer of tau and f(tau) the
    number of product-one sign vectors tau fixes, equals the number of
    classes; and the orbit sizes k!/|stabilizer| cover every tuple.  This
    reaches k = 5, where the brute-force orbit test cannot go."""
    perms = list(itertools.permutations(range(k)))
    burnside = 0
    for tau in perms:
        centralizer = sum(
            all(tau[sigma[i]] == sigma[tau[i]] for i in range(k)) for sigma in perms
        )
        lengths, seen = [], set()
        for start in range(k):
            i, length = start, 0
            while i not in seen:
                seen.add(i)
                i, length = tau[i], length + 1
            if length:
                lengths.append(length)
        fixed_signs = 2 ** (len(lengths) - any(n % 2 for n in lengths))
        burnside += centralizer ** 2 * fixed_signs ** 2
    classes = list(_stage1_classes(k))
    assert burnside % len(perms) == 0 and burnside // len(perms) == len(classes) == count
    assert sum(len(perms) // len(cls[5]) for cls in classes) == len(perms) ** 2 * 4 ** (k - 1)


def _screen_cases():
    """Every case for k <= 3 on both line sets without dedup (a three-line
    case has v = r = None), and the stage-2 cases of the first 20 k = 4
    classes."""
    for k in (1, 2, 3):
        rel = qsearch._relabelings(k)
        for _, s, p, c, km, _ in _stage1_classes(k, dedup=False):
            yield k, s, p, c, km, None, None
            for v, r in itertools.product(rel.perms, rel.signs):
                yield k, s, p, c, km, v, r
    rel = qsearch._relabelings(4)
    for _, s, p, c, km, stab in list(_stage1_classes(4))[:20]:
        for v, r in qsearch._stage2_cases(rel, stab):
            yield 4, s, p, c, km, v, r


def test_y_block_screen_is_exact_and_never_drops_a_family():
    kept = dropped = 0
    for k, s, p, c, km, v, r in _screen_cases():
        neg = sum(1 << i for i, sign in enumerate(r or ()) if sign < 0)
        keeps = any(
            all((neg & mask).bit_count() & 1 == parity for mask, parity in orbit)
            for orbit in qsearch._y_orbits(k, s, km, v)[1].values()
        )
        rows = qsearch._dense_rows(k, qsearch._relation_terms(k, s, p, c, km, v, r))
        space = int_nullspace(rows, 3 * k)
        assert keeps == any(any(vec[2 * k :]) for vec in space)
        if keeps:
            assert space
            kept += 1
        else:
            assert not qsearch._survives(k, s, km, qsearch._columns(k, space), v is not None)
            dropped += 1
    assert kept and dropped


def test_mixed_row_pruning_keeps_the_nullspace():
    """Dropping one mixed row per balanced cycle of sigma = v p^-1 leaves
    `int_nullspace` unchanged, exactly; cycles of both kinds occur."""
    balanced = unbalanced = 0
    for k, s, p, c, km, v, r in _screen_cases():
        if v is None:
            continue
        nx = qsearch._nx_part(k, s, p, c, km, True)
        m, rows = nx[0], nx[2]
        full = [rows[i, v[i], r[i]] for i in range(k)]
        pruned = qsearch._mixed_rows(k, nx, v, r)
        assert int_nullspace(pruned, m) == int_nullspace(full, m)
        p_inv = qsearch.perm_inverse(p)
        sigma = tuple(v[p_inv[j]] for j in range(k))
        signs = [
            math.prod(c[p_inv[j]] * r[p_inv[j]] for j in cycle) for cycle in qsearch._cycles(sigma)
        ]
        assert len(pruned) == k - signs.count(1)
        balanced += signs.count(1)
        unbalanced += signs.count(-1)
    assert balanced and unbalanced


# The stage-1 classes of the 23 nontrivial k = 4 four-line families.
K4_FOUR_LINE_CLASSES = [
    11776, 11783, 11822, 11832, 11839, 14186, 14189, 14190, 14200, 14204, 14207,
    14277, 14279, 14321, 14323, 14328, 14330,
]


# A k = 5 four-line class that holds nontrivial families.
K5_FOUR_LINE_CLASSES = [225431]


def _oracle_entries(lines):
    """Every raw class for k <= 3; at k = 4 every three-line class, and the
    first 20 four-line classes plus the classes of the known families; at
    k = 5 every 25th three-line class, and every 12,000th four-line class
    plus one that holds families."""
    for k in (1, 2, 3):
        yield k, list(_stage1_classes(k, dedup=False))
    classes = list(_stage1_classes(4))
    if lines == "four":
        classes = classes[:20] + [cls for cls in classes if cls[0] in K4_FOUR_LINE_CLASSES]
    yield 4, classes
    classes = list(_stage1_classes(5))
    if lines == "four":
        yield 5, classes[::12000] + [cls for cls in classes if cls[0] in K5_FOUR_LINE_CLASSES]
    else:
        yield 5, classes[::25]


def test_four_line_decision_matches_full_elimination():
    """The search's verdict on each case, on both line sets, equals that of
    `solve_quantum`, an independent elimination of all 3k unknowns: the
    search finds exactly the cases that solve to a nontrivial family."""
    for lines, families in (("three", {4: 53, 5: 42}), ("four", {4: 23, 5: 13})):
        four, found = lines == "four", {}
        for k, entries in _oracle_entries(lines):
            rel = qsearch._relabelings(k)
            per_class = len(rel.perms) * len(rel.signs) if four else 1
            expected, cases = [], 0
            for flat, s, p, c, km, stab in entries:
                stage2 = qsearch._stage2_cases(rel, stab) if four else [(None, None)]
                for local, (v, r) in enumerate(stage2):
                    mult = MultiplierAssignment(c, km, r, quantum=True)
                    system = build_system(k, lines, PermTriple(s, p, v), mult)
                    if solve_quantum(system).status == "nontrivial":
                        expected.append(flat * per_class + local)
                    cases += 1
            searched, examined, complete = qsearch._enumerate_chunk((k, lines, entries, None, rel))
            assert complete and examined == cases
            assert [item[0] for item in searched] == expected, (lines, k)
            if expected:
                found[k] = len(expected)
        assert found == families, lines


@pytest.mark.slow
@pytest.mark.parametrize("lines,cases,families,digest", [
    ("four", 59062969, 2135, "2bc320eec915e4dd"),
    ("three", 31757, 1253, "92eb8d108de2e453"),
])
def test_k5_search_gate(lines, cases, families, digest):
    """The full k = 5 search on two processes: its case count, family count
    and the SHA-256 of `json.dumps` of its `case_index` list."""
    result = enumerate_families(5, lines, threads=2)
    found = [ff.case_index for ff in result.families]
    assert result.complete and result.cases_examined == cases and len(found) == families
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest().startswith(digest)


# --- the classical k = 3 survey -----------------------------------------------------


def test_survey_finds_exactly_the_two_fixed_point_free_pairs():
    entries = survey_k3_classical()
    nontrivial = {(e.s, e.p) for e in entries if e.nontrivial}
    assert nontrivial == {((1, 2, 0), (2, 0, 1)), ((2, 0, 1), (1, 2, 0))}


def test_survey_witnesses_match_the_closed_form():
    entries = survey_k3_classical()
    for entry in entries:
        if entry.nontrivial:
            assert matches_builtin_q33(entry)
            reports = check_on_lines(entry.witness, PRIMED_LINES["three"])
            assert all(r.identically_one for r in reports)


def test_survey_decides_one_pairing_per_relabeling_orbit(monkeypatch):
    direct = {}
    for s, p in itertools.product(itertools.permutations(range(3)), repeat=2):
        direct[s, p] = qsearch._survey_pair(s, p)
    calls = []
    survey_pair = qsearch._survey_pair

    def counting(s, p, stats):
        calls.append((s, p))
        return survey_pair(s, p, stats)

    monkeypatch.setattr(qsearch, "_survey_pair", counting)
    entries = survey_k3_classical()
    assert [(e.s, e.p) for e in entries] == list(direct)
    for entry in entries:
        witness, data = direct[entry.s, entry.p]
        assert (entry.nontrivial, entry.witness, entry.witness_data) == (
            witness is not None, witness, data
        )
    assert len(calls) == 12  # the minima of the 11 orbits, and the second nontrivial pairing
    assert len(set(calls)) == 12


def test_survey_witnesses_are_pinned():
    F = Fraction
    pinned = {
        ((1, 2, 0), (2, 0, 1)): ((17, 34, 102), (29, 174, 87)),
        ((2, 0, 1), (1, 2, 0)): ((17, 102, 51), (29, 58, 174)),
    }
    for entry in survey_k3_classical():
        if not entry.nontrivial:
            continue
        x, y = pinned.pop((entry.s, entry.p))
        mult = (F(1, 6), F(2), F(3))
        assert entry.witness_data == {
            "zn": [], "zx": [], "zy": [], "c": mult, "k": mult, "n": (F(1),) * 3,
            "x": tuple(map(F, x)), "y": tuple(map(F, y)),
        }
        assert all(type(q) is F for key in "cknxy" for q in entry.witness_data[key])
    assert not pinned


def _survey_summary():
    nontrivial = [e for e in survey_k3_classical() if e.nontrivial]
    strata = {
        (e.s, e.p): tuple(e.witness_data[z] for z in ("zn", "zx", "zy")) for e in nontrivial
    }
    return strata, all(matches_builtin_q33(e) for e in nontrivial)


def test_survey_verdicts_do_not_depend_on_the_primes(monkeypatch):
    expected, _ = _survey_summary()
    assert set(expected) == {((1, 2, 0), (2, 0, 1)), ((2, 0, 1), (1, 2, 0))}
    for primes in (
        (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41),
        (97, 89, 83, 79, 73, 71, 67, 61, 59, 53, 47, 43),
    ):
        monkeypatch.setattr(qsearch, "_PRIMES", primes)
        assert _survey_summary() == (expected, True)


def test_survey_raises_when_a_stratum_assignment_fails_its_equations(monkeypatch):
    monkeypatch.setattr(qsearch, "verify_solution", lambda *args: VerifyReport(False, ("eq",)))
    with pytest.raises(InternalConsistencyError):
        survey_k3_classical()


def test_survey_stats_count_the_orbit_walk(monkeypatch):
    verified = []
    verify = qsearch.verify_solution

    def counting(*args):
        verified.append(args)
        return verify(*args)

    monkeypatch.setattr(qsearch, "verify_solution", counting)
    stats = qsearch.SurveyStats()
    survey_k3_classical(stats)
    assert stats == qsearch.SurveyStats(
        pairings_surveyed=12, strata_screened=554, strata_decided=127, sign_patterns=262
    )
    assert len(verified) == stats.sign_patterns  # every instantiated pattern is verified


def test_sign_patterns_are_the_product_order_with_their_negative_masks():
    expected = list(itertools.product((1, -1), repeat=6))
    assert [signs for signs, _ in qsearch._SIGN_PATTERNS] == expected
    for signs, negatives in qsearch._SIGN_PATTERNS:
        assert [bool(negatives >> j & 1) for j in range(6)] == [sign < 0 for sign in signs]
        assert negatives < 64


def _oracle_torus(rows):
    """The multiplier magnitudes at the prime point: the rref nullspace basis
    of the exponent rows, each vector scaled to primitive integers, with the
    g-th basis vector raised to the g-th prime."""
    sympy = pytest.importorskip("sympy")
    torus = [Fraction(1)] * 6
    for prime, vec in zip(qsearch._PRIMES, sympy.Matrix(rows).nullspace()):
        scale = math.lcm(*(sympy.fraction(a)[1] for a in vec))
        for j, a in enumerate(vec):
            torus[j] *= Fraction(prime) ** int(a * scale)
    return torus


def _oracle_cycle_values(perm, zeros, mult, primes):
    """Each perm-cycle outside `zeros` starts at its least index with its prime
    (cycles in order of least index) and follows value[perm(i)] = value[i] / mult[i]."""
    values = [Fraction(0)] * 3
    starts = [i for i in range(3) if all(i <= j for j in _orbit(perm, {i}))]
    for start, prime in zip(starts, primes):
        if start in zeros:
            continue
        i, values[start] = start, Fraction(prime)
        while perm[i] != start:
            values[perm[i]] = values[i] / mult[i]
            i = perm[i]
    return values


def _orbit(perm, start):
    orbit = set(start)
    while {perm[i] for i in orbit} - orbit:
        orbit |= {perm[i] for i in orbit}
    return orbit


def _oracle_stratum(s, p, zn, zx, zy):
    """('degenerate' | 'trivial' | 'nontrivial', first witness) of one stratum,
    with every one of the 64 sign patterns checked against the constraints
    directly and every admissible one instantiated and decided."""
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    rows += [[int(j == i) - int(j == 3 + i) for j in range(6)] for i in range(3) if s[i] not in zn]
    p_cycles = {frozenset(_orbit(p, {i})) for i in range(3)}
    s_cycles = {frozenset(_orbit(s, {i})) for i in range(3)}
    rows += [[int(j in cyc) for j in range(3)] + [0] * 3 for cyc in p_cycles if not cyc <= zx]
    rows += [[0] * 3 + [int(j in cyc) for j in range(3)] for cyc in s_cycles if not cyc <= zy]
    num_zero = [(i in zn, i in zx, i in zy) for i in range(3)]
    den_zero = [(s[i] in zn, i in zx, i in zy) for i in range(3)]
    if any(sum(zero) >= 2 for zero in num_zero + den_zero):
        return "degenerate", None
    torus = _oracle_torus(rows)
    n = tuple(Fraction(int(i not in zn)) for i in range(3))
    witness = None
    for signs in itertools.product((1, -1), repeat=6):
        if any(math.prod(sign**e for sign, e in zip(signs, row)) != 1 for row in rows):
            continue
        c = tuple(signs[j] * torus[j] for j in range(3))
        km = tuple(signs[3 + j] * torus[3 + j] for j in range(3))
        x = _oracle_cycle_values(p, zx, c, qsearch._PRIMES[6:9])
        y = _oracle_cycle_values(s, zy, km, qsearch._PRIMES[9:12])
        for i in range(3):
            assert x[i] == c[i] * x[p[i]] and y[i] == km[i] * y[s[i]]
            assert km[i] * n[s[i]] == c[i] * n[p[i]]
        num = [(n[i], x[i], y[i]) for i in range(3)]
        den = [(km[i] * n[s[i]], x[i], y[i]) for i in range(3)]
        parallel = lambda a, b: all(a[i] * b[j] == a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2)))
        if witness is None and not any(
            all(parallel(num[i], den[pi[i]]) for i in range(3))
            for pi in itertools.permutations(range(3))
        ):
            system = build_system(3, "three", PermTriple(s, p), MultiplierAssignment(c, km))
            data = {"zn": sorted(zn), "zx": sorted(zx), "zy": sorted(zy), "c": c, "k": km,
                    "n": n, "x": tuple(x), "y": tuple(y)}
            witness = product_from_assignment(system, n, tuple(x), tuple(y)), data
    return ("trivial" if witness is None else "nontrivial"), witness


def test_survey_pairs_match_an_oracle_that_decides_every_stratum():
    perms = list(itertools.permutations(range(3)))
    compose = lambda a, b: tuple(a[b[i]] for i in range(3))
    stratum_key = lambda zeros: (sum(map(len, zeros)), *map(sorted, zeros))
    nontrivial = set()
    for s, p in itertools.product(perms, repeat=2):
        u = tuple(s[p.index(j)] for j in range(3))
        invariant = lambda perm: [
            frozenset(z) for size in range(4) for z in itertools.combinations(range(3), size)
            if {perm[i] for i in z} == set(z)
        ]
        strata = sorted(
            itertools.product(invariant(u), invariant(p), invariant(s)), key=stratum_key
        )
        commute = lambda t, a: compose(t, a) == compose(a, t)
        stab = [t for t in perms if commute(t, s) and commute(t, p)]
        verdicts = {zeros: _oracle_stratum(s, p, *zeros) for zeros in strata}
        for zeros, (verdict, _) in verdicts.items():
            orbit = [tuple(frozenset(t[i] for i in z) for z in zeros) for t in stab]
            assert verdicts[min(orbit, key=stratum_key)][0] == verdict, (s, p, zeros)
        first = next((w for _, w in verdicts.values() if w is not None), (None, {}))
        assert qsearch._survey_pair(s, p) == first, (s, p)
        if first[0] is not None:
            nontrivial.add((s, p))
    assert nontrivial == {((1, 2, 0), (2, 0, 1)), ((2, 0, 1), (1, 2, 0))}
