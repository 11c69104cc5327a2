import itertools
from collections import Counter
from fractions import Fraction

import pytest

from vogeluniq.formula import cancel, eval_classical, ratio
from vogeluniq.identity import check_on_lines
from vogeluniq.plane import Basis, ProjPoint
from vogeluniq.qsearch import (
    FOUR_LINE_PERMS,
    PRIMED_LINES,
    ConstraintSystem,
    InvalidMultiplierError,
    MultiplierAssignment,
    PermTriple,
    SolutionFamily,
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
    _stage1_classes,
)
from vogeluniq._util import rand_rational

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
    assert len(system.equations()) == 9
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


def test_classical_enumeration_is_refused():
    with pytest.raises(ValueError):
        enumerate_families(3, "three", quantum=False)


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


def test_stage1_classes_are_the_orbit_minima():
    assert _stage1_classes(3) == _brute_force_classes(3)


def test_stage1_k4_class_count_and_stabilizers():
    classes = _stage1_classes(4)
    assert len(classes) == 1756
    assert [cls[0] for cls in classes] == sorted(cls[0] for cls in classes)
    sizes = Counter(len(cls[5]) for cls in classes)
    assert sizes == {1: 1408, 2: 168, 3: 16, 4: 148, 8: 12, 24: 4}


# --- the classical k = 3 survey -----------------------------------------------------


def test_survey_finds_exactly_the_two_fixed_point_free_pairs():
    entries = survey_k3_classical(seed=11)
    nontrivial = {(e.s, e.p) for e in entries if e.nontrivial}
    assert nontrivial == {((1, 2, 0), (2, 0, 1)), ((2, 0, 1), (1, 2, 0))}


def test_survey_witnesses_match_the_closed_form():
    entries = survey_k3_classical(seed=11)
    for entry in entries:
        if entry.nontrivial:
            assert matches_builtin_q33(entry)
            reports = check_on_lines(entry.witness, PRIMED_LINES["three"])
            assert all(r.identically_one for r in reports)
