import concurrent.futures
import functools
import hashlib
import itertools
import json
import math
import os
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from vogeluniq.formula import cancel, eval_classical, is_identically_one, ratio
from vogeluniq.identity import InternalConsistencyError, check_on_lines
from vogeluniq.plane import Basis, ProjPoint, span_points
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


def test_product_is_quantum_exactly_when_the_system_is():
    """`product_from_assignment` takes the product's kind from the system's
    multipliers: quantum for +-1 ints, classical for the hand-solved
    reference system."""
    mult = MultiplierAssignment(ONES, ONES, NEGS, quantum=True)
    family = solve_quantum(build_system(4, "four", FOUR_LINE_PERMS, mult)).family
    product = product_from_assignment(family.system, *family.instantiate(family.first_primes()))
    assert product.quantum and product == family.factor_product(family.first_primes())
    system, n, x, y = reference_four_line_assignment(2, 3, 5, 7, 1, 2, 3)
    assert not product_from_assignment(system, n, x, y).quantum


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


def _small_systems():
    """Every quantum system with k <= 2 on both line sets, and the P4
    system (FOUR_LINE_PERMS with r = -1)."""
    for k in (1, 2):
        perms = list(itertools.permutations(range(k)))
        signs = sign_vectors(k)
        for s, p, c, km in itertools.product(perms, perms, signs, signs):
            mult = MultiplierAssignment(c, km, quantum=True)
            yield build_system(k, "three", PermTriple(s, p), mult)
            for v, r in itertools.product(perms, signs):
                mult = MultiplierAssignment(c, km, r, quantum=True)
                yield build_system(k, "four", PermTriple(s, p, v), mult)
    mult = MultiplierAssignment(ONES, ONES, NEGS, quantum=True)
    yield build_system(4, "four", FOUR_LINE_PERMS, mult)


def test_family_degeneracy_agrees_with_solve_quantum():
    """`family_degeneracy` of a solved family is the reason `solve_quantum`
    gives for calling it infeasible, and None for a trivial or nontrivial
    one; both kinds of verdict occur."""
    verdicts = Counter()
    for system in _small_systems():
        outcome = solve_quantum(system)
        if outcome.family is None:
            continue
        reason = qsearch.family_degeneracy(outcome.family)
        assert reason == (outcome.reason if outcome.status == "infeasible" else None)
        verdicts[reason is None] += 1
    assert verdicts[True] and verdicts[False]


def test_degeneracy_rule_matches_the_span_points_of_the_primed_lines():
    """`_degeneracy` hard-codes what each primed line keeps of a factor
    (3a' - b' = 0 keeps n + 3x and y).  On every one- and two-column map
    with entries in {-3, -1, 0, 1, 3} it names the zero factor, or else the
    first line of `PRIMED_LINES` whose two `span_points` zero every column
    of the factor, on both line sets; every line is named."""
    points = {
        lines: [[pt.coords for pt in span_points(form)] for form in forms]
        for lines, forms in PRIMED_LINES.items()
    }
    named = Counter()
    for width in (1, 2):
        for flat in itertools.product((-3, -1, 0, 1, 3), repeat=3 * width):
            factor = (flat[:width], flat[width : 2 * width], flat[2 * width :])
            for lines, spans in points.items():
                if not any(flat):
                    expected = "num[0] is identically zero"
                else:
                    cols = list(zip(*factor))
                    vanishing = [
                        not any(sum(map(Fraction.__mul__, pt, col)) for pt in pair for col in cols)
                        for pair in spans
                    ]
                    expected = (
                        f"num[0] vanishes identically on system line {vanishing.index(True)}"
                        if any(vanishing)
                        else None
                    )
                assert qsearch._degeneracy(([factor], []), lines == "four") == expected
                named[lines, expected] += 1
    for lines, spans in points.items():
        for line in range(len(spans)):
            assert named[lines, f"num[0] vanishes identically on system line {line}"]
        assert named[lines, None]


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


def test_raw_search_finds_the_relabeling_orbits_of_the_deduplicated_families():
    """The dedup lemma of `enumerate_families` on an answer that is not
    empty: the raw k = 4 three-line search finds exactly the relabeling
    images of the 53 deduplicated families' systems, 768 of them.  The
    action is written out here rather than read from `_relabelings`."""
    key = lambda ff: (ff.system.perms.s, ff.system.perms.p, ff.system.mult.c, ff.system.mult.kmul)
    raw = [key(ff) for ff in enumerate_families(4, "three", dedup=False).families]
    deduped = [key(ff) for ff in enumerate_families(4, "three").families]
    orbits = set()
    for tau in itertools.permutations(range(4)):
        inv = qsearch.perm_inverse(tau)
        conj = lambda sigma: tuple(tau[sigma[inv[j]]] for j in range(4))
        relabel = lambda vec: tuple(vec[inv[j]] for j in range(4))
        orbits.update((conj(s), conj(p), relabel(c), relabel(km)) for s, p, c, km in deduped)
    assert len(deduped) == 53 and len(raw) == len(set(raw)) == 768
    assert set(raw) == orbits


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


@pytest.fixture
def in_process_pool(monkeypatch):
    """Replaces `ProcessPoolExecutor` by a pool that maps in this process,
    so no worker starts, and returns the record of each pool's size and of
    the items mapped."""
    record = {"sizes": [], "items": []}

    class InProcessPool:
        def __init__(self, max_workers):
            record["sizes"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            record["items"] += items
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return record


@pytest.mark.parametrize("threads,cpus,workers", [(5000, 3, 3), (5000, None, 1), (2, 3, 2)])
def test_pool_starts_no_more_workers_than_cores(
    monkeypatch, in_process_pool, threads, cpus, workers
):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    result = enumerate_families(3, "three", threads=threads)
    assert in_process_pool["sizes"] == [workers]
    assert result == enumerate_families(3, "three", threads=1)


def test_threads_beyond_the_cores_deal_no_more_chunks_than_workers(in_process_pool):
    """With 64 threads asked for, the classes are dealt into no more chunks
    than `os.cpu_count()`, each sent to the pool once, and the merged result
    is the serial one."""
    result = enumerate_families(4, "three", threads=64)
    chunks = in_process_pool["items"]
    assert 1 <= len(chunks) <= (os.cpu_count() or 1)
    assert in_process_pool["sizes"] == [len(chunks)]
    assert result == enumerate_families(4, "three")


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


@pytest.fixture(scope="module")
def k4_four_line():
    """The serial k = 4 four-line search, shared: it takes about 0.5 s."""
    return enumerate_families(4, "four")


@pytest.fixture(scope="module")
def k5_three_line():
    return enumerate_families(5, "three", threads=2)


def _case_system(k, lines, case_index, rel, stabilizers):
    """The system of a search case, read off its index as `_enumerate_chunk`
    numbers it: the flat index of its class's (s, p, c, kmul) and, on four
    lines, the position of its (v, r) among the class's `_stage2_cases`;
    `stabilizers` maps a class's flat index to its stabilizer."""
    n_p, n_s = len(rel.perms), len(rel.signs)
    flat, local = divmod(case_index, n_p * n_s) if lines == "four" else (case_index, 0)
    pair, sp = divmod(flat, n_s * n_s)
    v = r = None
    if lines == "four":
        v, r = qsearch._stage2_cases(rel, stabilizers[flat])[local]
    mult = MultiplierAssignment(rel.signs[sp // n_s], rel.signs[sp % n_s], r, quantum=True)
    perms = PermTriple(rel.perms[pair // n_p], rel.perms[pair % n_p], v)
    return build_system(k, lines, perms, mult)


def _assert_families_are_the_oracles(k, lines, result, count):
    """Each found family has the system its case index names and equals
    `solve_quantum`'s family of that system, vector for vector."""
    rel = qsearch._relabelings(k)
    stabilizers = {}
    if lines == "four":
        stabilizers = {flat: stab for flat, *_, stab in _stage1_classes(k, rel=rel)}
    assert result.complete and len(result.families) == count
    for ff in result.families:
        system = _case_system(k, lines, ff.case_index, rel, stabilizers)
        assert ff.system == system and ff.family.system == system, ff.case_index
        assert ff.family == solve_quantum(system).family, ff.case_index


@pytest.mark.parametrize("lines,threads,count", [
    ("three", 1, 53), ("three", 2, 53), ("four", 1, 23), ("four", 2, 23),
])
def test_found_families_equal_the_oracles(lines, threads, count, request):
    """The search builds each family from its case's own integer basis
    (k <= 3 finds none, so k = 4 is the least that checks anything)."""
    if (lines, threads) == ("four", 1):
        result = request.getfixturevalue("k4_four_line")
    else:
        result = enumerate_families(4, lines, threads=threads)
    _assert_families_are_the_oracles(4, lines, result, count)


def test_k5_three_line_families_equal_the_oracles(k5_three_line):
    _assert_families_are_the_oracles(5, "three", k5_three_line, 1253)


def _assert_sound(result):
    """Each family, instantiated at its first primes, is identically one on
    every line of its system and is not identically one on the plane."""
    for ff in result.families:
        product = ff.family.factor_product(ff.family.first_primes())
        reports = check_on_lines(product, ff.system.line_forms())
        assert all(r.identically_one for r in reports), ff.case_index
        assert not is_identically_one(product), ff.case_index


def test_k4_found_families_are_sound(k4_four_line):
    _assert_sound(enumerate_families(4, "three"))
    _assert_sound(k4_four_line)


def test_k5_three_line_found_families_are_sound(k5_three_line):
    _assert_sound(k5_three_line)


def test_search_workers_send_only_integers():
    """A worker's result is plain integers, so the pool pickles no Fraction
    and the parent builds every family itself (`_found_family`).  A
    three-line basis is already in rref: each vector's last nonzero entry
    is 1."""
    rel = qsearch._relabelings(4)
    part = qsearch._enumerate_chunk((4, "three", list(_stage1_classes(4, rel=rel)), None, rel))
    assert len(part[0]) == 53
    assert b"fractions" not in pickle.dumps(part)
    assert all(next(filter(None, reversed(vec))) == 1 for *_, basis in part[0] for vec in basis)


def test_quantum_multipliers_are_ints(k4_four_line):
    """A quantum assignment holds its signs as the ints +-1, every found
    family's included, and still rejects any other entry; a classical one
    holds Fractions."""
    for result in (enumerate_families(4, "three"), k4_four_line):
        for ff in result.families:
            mult = ff.system.mult
            assert all(type(q) is int for vec in (mult.c, mult.kmul, mult.r or ()) for q in vec)
    assert MultiplierAssignment((Fraction(1), -1, -1), (1, 1, 1), quantum=True).c == (1, -1, -1)
    for bad in (0, Fraction(1, 2), 2):
        with pytest.raises(InvalidMultiplierError):
            MultiplierAssignment((bad, 1, 1), (1, 1, 1), quantum=True)
        with pytest.raises(InvalidMultiplierError):
            MultiplierAssignment((1, 1, 1), (1, 1, 1), (bad, 1, 1), quantum=True)
    classical = MultiplierAssignment((2, Fraction(1, 2), 1), (1, -1, -1), (3, "1/3", 1))
    assert all(
        type(q) is Fraction for vec in (classical.c, classical.kmul, classical.r) for q in vec
    )


def _brute_force_classes(k):
    """Orbit minima of (s, p, c, kmul) under simultaneous relabeling, with
    their flat indices and stabilizers, by conjugating every tuple.  A
    stabilizer lists the indices of its relabelings in lexicographic
    order."""
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
        (flat_of[rep], *rep, tuple(t for t, tau in enumerate(perms) if image(tau, rep) == rep))
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


def _burnside(k, power):
    """Burnside's count of the orbits of the relabelings on `power`
    pairings and `power` product-one sign vectors:
    (1/k!) sum over tau of |C(tau)|^power f(tau)^power, with C(tau) the
    centralizer of tau and f(tau) the number of product-one sign vectors
    tau fixes."""
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
        burnside += centralizer ** power * fixed_signs ** power
    assert burnside % len(perms) == 0
    return burnside // len(perms)


@pytest.mark.parametrize("k,count", [(3, 107), (4, 1756), (5, 31757)])
def test_stage1_class_count_is_burnside_count(k, count):
    """Burnside's count of relabeling orbits of (s, p, c, kmul), exponent 2
    in `_burnside`, equals the number of classes; and the orbit sizes
    k!/|stabilizer| cover every tuple.  This reaches k = 5, where the
    brute-force orbit test cannot go."""
    perms = list(itertools.permutations(range(k)))
    classes = list(_stage1_classes(k))
    assert _burnside(k, 2) == len(classes) == count
    assert sum(len(perms) // len(cls[5]) for cls in classes) == len(perms) ** 2 * 4 ** (k - 1)


@pytest.mark.parametrize("k,count", [(1, 1), (2, 64), (3, 2345), (4, 300232), (5, 59062969)])
def test_four_line_case_count_is_burnside_count(k, count, request):
    """The relabelings act on (s, p, c, kmul, v, r), and stage 2 takes one
    choice (v, r) per orbit of each stage-1 class's stabilizer, so the
    four-line cases are the orbits of the six-tuples: Burnside's count with
    exponent 3.  It equals `cases_examined` of the four-line search for
    k <= 4 and, at k = 5, the stage-2 case count summed over the stage-1
    classes, which is what the `slow` gate's search examines."""
    assert _burnside(k, 3) == count
    if k < 4:
        examined = enumerate_families(k, "four").cases_examined
    elif k == 4:
        examined = request.getfixturevalue("k4_four_line").cases_examined
    else:
        rel = qsearch._relabelings(k)
        stage2_sizes = {}
        examined = 0
        for *_, stab in _stage1_classes(k, rel=rel):
            if stab not in stage2_sizes:
                stage2_sizes[stab] = len(qsearch._stage2_cases(rel, stab))
            examined += stage2_sizes[stab]
        assert len(stage2_sizes) == 26
    assert examined == count


_relabelings = functools.cache(qsearch._relabelings)


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


def _survives_in_full(k, s, km, space, four):
    """Whether the family spanned by `space` passes both `_degeneracy` and
    `_keeps_a_factor`.  The three-line decision skips the first, which the
    zero-pattern screen has decided, so cases that have not passed the
    screen are judged here."""
    maps = qsearch._factor_maps(k, s, km, qsearch._columns(k, space))
    return qsearch._degeneracy(maps, four) is None and qsearch._keeps_a_factor(maps)


def _signs(rel):
    """The search's fourth-line (r, negative mask) list given `rel`, and
    the three-line one, r = None, without."""
    return list(zip(rel.signs, rel.negatives)) if rel else [(None, 0)]


@functools.cache
def _y_codes_of(k, s, km, v):
    """The search's `_y_codes` of (s, km, v), v = None on three lines."""
    rel = _relabelings(k) if v is not None else None
    return qsearch._y_codes(k, qsearch._y_orbits(k, s, v), km, _signs(rel))


def _y_entry(k, s, km, v, r):
    """The search's y entry (nonzero, codes) of one case, or None when its
    y part is zero."""
    return _y_codes_of(k, s, km, v).get(r)


def test_y_block_screen_is_exact_and_never_drops_a_family():
    kept = dropped = 0
    for k, s, p, c, km, v, r in _screen_cases():
        keeps = _y_entry(k, s, km, v, r) is not None
        space = qsearch._relation_basis(k, s, p, c, km, v, r)
        assert keeps == any(any(vec[2 * k :]) for vec in space)
        if keeps:
            assert space
            kept += 1
        else:
            assert not _survives_in_full(k, s, km, space, v is not None)
            dropped += 1
    assert kept and dropped


def _nx_codes_by_search(k, s, p, c, km):
    """The (m, codes) of `_nx_part` by a depth-first search of the signed
    graph that the x and n relations of `_relation_terms` make on the 2k
    unknowns (a relation ca u_a + cb u_b = 0 is the edge u_b = -(ca cb) u_a),
    numbering the balanced components by least vertex."""
    terms = qsearch._relation_terms(k, s, p, c, km)
    del terms[1::3]  # the y relations
    label, conditions = qsearch._signed_components(
        2 * k, [(a, b, int(ca * cb > 0), 0) for (a, ca), (b, cb) in terms]
    )
    free = [root for root, conds in conditions.items() if (0, 1) not in conds]
    codes = tuple(
        (-1) ** parity * (free.index(root) + 1) if root in free else 0
        for root, parity, _ in label
    )
    return len(free), codes


def test_nx_part_from_cycles_matches_a_graph_search():
    """`_nx_part` reads the balanced components off the cycles of p s^-1
    and of p; they equal the graph search's, numbering and signs included,
    on both line sets for every class with k <= 4 and every 5th k = 5
    class.  Unbalanced n cycles and unbalanced x cycles both occur."""
    unbalanced = Counter()
    for k, classes in [(k, _stage1_classes(k)) for k in (1, 2, 3, 4)] + [
        (5, list(_stage1_classes(5))[::5])
    ]:
        for _, s, p, c, km, _ in classes:
            expected = _nx_codes_by_search(k, s, p, c, km)
            for four in (False, True):
                m, codes = qsearch._nx_part(k, p, c, km, qsearch._pair_cycles(s, p), four)[:2]
                assert (m, codes) == expected, (k, s, p, c, km, four)
            unbalanced["n"] += 0 in codes[:k]
            unbalanced["x"] += 0 in codes[k:]
    assert unbalanced["n"] and unbalanced["x"]


def _kept_three_line_cases():
    """(k, s, p, c, km, nx, y_entry) of every three-line case of
    `_screen_cases()`, and of the k = 4 classes (k <= 3 has no nontrivial
    one), with a nonzero y part that `_pattern_degenerate` keeps: its
    `_nx_part` and y entry, as the search gives them to `_survives`."""
    cases = [case[:5] for case in _screen_cases() if case[5] is None]
    cases += [(4, s, p, c, km) for _, s, p, c, km, _ in _stage1_classes(4)]
    for k, s, p, c, km in cases:
        y_entry = _y_entry(k, s, km, None, None)
        if y_entry is None:
            continue
        nx = qsearch._nx_part(k, p, c, km, qsearch._pair_cycles(s, p), False)
        if not qsearch._pattern_degenerate(k, s, nx[2] + y_entry[0]):
            yield k, s, p, c, km, nx, y_entry


def test_three_line_shortcuts_agree_with_elimination():
    """On every case of `_kept_three_line_cases()`, `_codes_keep_a_factor`
    on its 3k codes, and the search's one decision `_survives` with
    v = r = None, give the verdict of `_keeps_a_factor` on the columns of
    the full system's `_relation_basis`, and that family passes
    `_degeneracy`, so the decision need not run it; cases of both verdicts
    occur."""
    verdicts = Counter()
    for k, s, p, c, km, nx, y_entry in _kept_three_line_cases():
        space = qsearch._relation_basis(k, s, p, c, km)
        maps = qsearch._factor_maps(k, s, km, qsearch._columns(k, space))
        assert qsearch._degeneracy(maps, False) is None
        verdict = qsearch._codes_keep_a_factor(k, s, km, nx[1] + y_entry[1])
        assert verdict == qsearch._keeps_a_factor(maps), (k, s, p, c, km)
        decision = qsearch._survives(k, s, km, nx, None, None, y_entry, None, None)
        assert decision == verdict, (k, s, p, c, km)
        verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def test_code_basis_is_the_rref_basis_of_full_elimination():
    """On every case of `_kept_three_line_cases()`, found or not,
    `_code_basis` of its codes spans the full system's solutions: its
    `rref_basis` equals that of `_relation_basis`, and it is already that
    rref basis."""
    cases = 0
    for k, s, p, c, km, nx, y_entry in _kept_three_line_cases():
        basis = qsearch._code_basis(k, nx[1] + y_entry[1])
        expected = qsearch.rref_basis(qsearch._relation_basis(k, s, p, c, km))
        assert qsearch.rref_basis(basis) == expected, (k, s, p, c, km)
        assert [list(vec) for vec in basis] == expected
        cases += 1
    assert cases


def test_zero_pattern_screen_rejects_only_cases_without_a_surviving_family():
    """A case with a nonzero y part that `_pattern_degenerate` rejects has
    no surviving family in the nullspace of its full system.  On three lines
    the (n, x) part is every balanced component, so the screen rejects
    exactly the cases whose family is degenerate.  Both outcomes occur on
    both line sets."""
    outcomes = Counter()
    for k, s, p, c, km, v, r in _screen_cases():
        four = v is not None
        y_entry = _y_entry(k, s, km, v, r)
        if y_entry is None:
            continue
        y_nonzero = y_entry[0]
        nx_codes = qsearch._nx_part(k, p, c, km, qsearch._pair_cycles(s, p), four)[1]
        nx_nonzero = tuple(map(bool, nx_codes))
        rejected = qsearch._pattern_degenerate(k, s, nx_nonzero + y_nonzero)
        outcomes[four, rejected] += 1
        if not rejected and four:
            continue
        space = qsearch._relation_basis(k, s, p, c, km, v, r)
        if rejected:
            assert not space or not _survives_in_full(k, s, km, space, four)
        if not four:
            maps = qsearch._factor_maps(k, s, km, qsearch._columns(k, space))
            assert rejected == (qsearch._degeneracy(maps, False) is not None)
    assert set(outcomes) == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("lines,budget,calls", [("four", 1000, 89), ("three", None, 905)])
def test_zero_pattern_screen_leaves_few_cases_to_eliminate(monkeypatch, lines, budget, calls):
    """The cases that pass the screen at k = 4 and reach the decision
    `_survives`; without the screen they are 359 and 1,364."""
    count = Counter()
    decide = qsearch._survives

    def counting(*args):
        count["calls"] += 1
        return decide(*args)

    monkeypatch.setattr(qsearch, "_survives", counting)
    enumerate_families(4, lines, budget=budget)
    assert count["calls"] == calls


def _y_codes_per_km(k, s, km, rel):
    """The y entries {(v, r): (nonzero, codes)} of every fourth-line
    choice of `rel` with a nonzero y block, or of (None, None) without
    `rel`, built as the search built them before km was folded into the
    masks: one `_signed_components` call per (km, v), whose s-edge i has
    parity 1 exactly when km_i < 0 and mask 0."""
    out = {}
    negatives = [
        (r, sum(1 << i for i, sign in enumerate(r) if sign < 0)) for r in rel.signs
    ] if rel else [(None, 0)]
    s_edges = [(i, s[i], int(km[i] < 0), 0) for i in range(k)]
    for v in rel.perms if rel else [None]:
        v_edges = [(i, v[i], 0, 1 << i) for i in range(k)] if v is not None else []
        label, conditions = qsearch._signed_components(k, s_edges + v_edges)
        orbits = {root: sorted(c - {(0, 0)}) for root, c in conditions.items() if (0, 1) not in c}
        for r, neg in negatives:
            odd = lambda mask: (neg & mask).bit_count() & 1
            roots = [root for root, conds in orbits.items() if all(odd(m) == q for m, q in conds)]
            if roots:
                out[v, r] = tuple(root in roots for root, _, _ in label), tuple(
                    (-1) ** (parity ^ odd(mask)) * (roots.index(root) + 1) if root in roots else 0
                    for root, parity, mask in label
                )
    return out


def test_y_entries_per_s_and_v_equal_the_per_km_construction():
    """Folding km into the masks of `_y_orbits` changes no y entry: on both
    line sets, `_y_codes` of `_y_orbits(k, s, v)` equals the per-km
    construction for every (s, km, v, r) at k <= 4, and for every s with a
    sample of km at k = 5.  Zero and nonzero y parts both occur."""
    kinds = Counter()
    for k in (1, 2, 3, 4, 5):
        rel = _relabelings(k)
        kms = rel.signs if k < 5 else [rel.signs[3], rel.signs[-1]]  # 2 and 4 negatives
        for s in rel.perms:
            y_orbits = {v: qsearch._y_orbits(k, s, v) for v in [None, *rel.perms]}
            for km in kms:
                for line_rel, vs in ((None, [None]), (rel, rel.perms)):
                    signs = _signs(line_rel)
                    got = {
                        (v, r): entry
                        for v in vs
                        for r, entry in qsearch._y_codes(k, y_orbits[v], km, signs).items()
                    }
                    assert got == _y_codes_per_km(k, s, km, line_rel), (k, s, km, line_rel)
                    kinds["nonzero"] += len(got)
                    kinds["zero"] += len(vs) * (len(rel.signs) if line_rel else 1) - len(got)
    assert kinds["nonzero"] and kinds["zero"]


@pytest.mark.parametrize("budget,calls", [(1000, 65), (None, 9377)])
def test_nullspace_reuse_within_a_pairing_is_exact(monkeypatch, budget, calls):
    """In the k = 4 four-line search, `_survives` reuses a nullspace
    reduction exactly when its `reductions` cache holds one, and then holds
    it under the case's key (m, mixed rows in decreasing order), equal to
    the `_reduction` of a fresh `int_nullspace` of the case's own rows.  The
    search eliminates `calls` times in all, 89 and 31,580 without reuse
    (the full search's count includes the 23 `_relation_basis` calls of its
    found cases), and holds at most 502 reductions at once."""
    count = Counter()
    eliminate, decide = qsearch.int_nullspace, qsearch._survives

    def counting(rows, ncols):
        count["calls"] += 1
        return eliminate(rows, ncols)

    def checking(k, s, km, nx, v, r, y_entry, reductions, degenerate):
        m, _, _, rows = nx
        own = [rows(i, v[i], r[i]) for i in range(k)]
        before, held = count["calls"], reductions.cache_info()
        survives = decide(k, s, km, nx, v, r, y_entry, reductions, degenerate)
        after = reductions.cache_info()
        hit = after.hits > held.hits
        assert (count["calls"] == before) == hit
        key = tuple(sorted(own, reverse=True))
        assert reductions(m, key) == qsearch._reduction(eliminate(own, m), m)
        assert reductions.cache_info().hits == after.hits + 1  # the key was held
        count["hits"] += hit
        count["live"] = max(count["live"], after.currsize)
        return survives

    monkeypatch.setattr(qsearch, "int_nullspace", counting)
    monkeypatch.setattr(qsearch, "_survives", checking)
    enumerate_families(4, "four", budget=budget)
    assert count["calls"] == calls and count["hits"] > 0
    assert count["live"] <= 502


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


def _four_line_decisions(k, entries, budget=None):
    """Run the four-line `_enumerate_chunk` over `entries` and return each
    call of `_survives` as (case, verdict, passes), case = (s, p,
    c, km, v, r, y_entry), where passes is the verdict of the same call
    with `_codes_keep_a_factor` taken as True, that is whether the decision
    finds the family non-degenerate; the classes (s, p, c, km) the search
    reached; and those whose y codes it built.  Each class starts with its
    `_nx_part` call, which gives its class."""
    calls, reached, built, current = [], [], set(), {}
    nx_part, decide, y_codes = qsearch._nx_part, qsearch._survives, qsearch._y_codes

    def tracking_nx_part(k, p, c, km, pair_cycles, four):
        current["class"] = qsearch.perm_inverse(pair_cycles[0]), p, c, km
        reached.append(current["class"])
        return nx_part(k, p, c, km, pair_cycles, four)

    def recording(k, s, km, nx, v, r, y_entry, reductions, degenerate):
        verdict = decide(k, s, km, nx, v, r, y_entry, reductions, degenerate)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(qsearch, "_codes_keep_a_factor", lambda *args: True)
            passes = decide(k, s, km, nx, v, r, y_entry, reductions, degenerate)
        calls.append(((*current["class"], v, r, y_entry), verdict, passes))
        return verdict

    def tracking_y_codes(*args):
        built.add(current["class"])
        return y_codes(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsearch, "_nx_part", tracking_nx_part)
        patch.setattr(qsearch, "_survives", recording)
        patch.setattr(qsearch, "_y_codes", tracking_y_codes)
        qsearch._enumerate_chunk((k, "four", entries, budget, _relabelings(k)))
    return calls, reached, built


def test_four_line_code_decision_matches_full_elimination():
    """On every case that reaches `_survives` in the budgeted k = 4
    four-line search (budget 1000) and in the classes of the known k = 4 and
    k = 5 families, the decision on codes equals `_survives_in_full` on the
    full system's `_relation_basis`, and its degeneracy part equals
    `_degeneracy` there.  The rule of 3a' - b' = 0 (`triple`) rejects some
    case that the reduced zero pattern keeps.  The class screen skips some
    class without building its y codes, and no case of a skipped class
    survives by the same oracle."""
    k4 = list(_stage1_classes(4))
    samples = [
        (4, k4, 1000),
        (4, [cls for cls in k4 if cls[0] in K4_FOUR_LINE_CLASSES], None),
        (5, [cls for cls in _stage1_classes(5) if cls[0] in K5_FOUR_LINE_CLASSES], None),
    ]
    outcomes = Counter()
    for k, entries, budget in samples:
        calls, reached, built = _four_line_decisions(k, entries, budget)
        for (s, p, c, km, v, r, (y_nonzero, _)), verdict, passes in calls:
            space = qsearch._relation_basis(k, s, p, c, km, v, r)
            maps = qsearch._factor_maps(k, s, km, qsearch._columns(k, space))
            reason = qsearch._degeneracy(maps, True)
            assert passes == (reason is None), (k, s, p, c, km, v, r)
            assert verdict == _survives_in_full(k, s, km, space, True), (k, s, p, c, km, v, r)
            outcomes[verdict] += 1
            m, codes, _, rows = qsearch._nx_part(k, p, c, km, qsearch._pair_cycles(s, p), True)
            mixed = [rows(i, v[i], r[i]) for i in range(k)]
            red = qsearch._reduction(qsearch.int_nullspace(mixed, m), m)[0]
            reduced = tuple(bool(red[code]) for code in codes)
            if not qsearch._pattern_degenerate(k, s, reduced + y_nonzero):
                outcomes["triple"] += reason is not None
        rel = _relabelings(k)
        stabilizers = {cls[1:5]: cls[5] for cls in entries}
        for s, p, c, km in reached:
            nx_nonzero = qsearch._nx_part(k, p, c, km, qsearch._pair_cycles(s, p), True)[2]
            if not qsearch._pattern_degenerate(k, s, nx_nonzero + (True,) * k):
                continue
            assert (s, p, c, km) not in built
            outcomes["skipped"] += 1
            for v, r in qsearch._stage2_cases(rel, stabilizers[s, p, c, km]):
                space = qsearch._relation_basis(k, s, p, c, km, v, r)
                assert not _survives_in_full(k, s, km, space, True), (k, s, p, c, km, v, r)
    assert outcomes[True] and outcomes[False] and outcomes["triple"] and outcomes["skipped"]


@pytest.mark.slow
@pytest.mark.parametrize("lines,cases,families,digest", [
    ("four", 59062969, 2135, "2bc320eec915e4dd"),
    ("three", 31757, 1253, "92eb8d108de2e453"),
])
def test_k5_search_gate(lines, cases, families, digest):
    """The full k = 5 search on two processes: its case count, family count
    and the SHA-256 of `json.dumps` of its `case_index` list; every family
    is sound at its first primes and equals `solve_quantum`'s."""
    result = enumerate_families(5, lines, threads=2)
    found = [ff.case_index for ff in result.families]
    assert result.complete and result.cases_examined == cases and len(found) == families
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest().startswith(digest)
    _assert_sound(result)
    _assert_families_are_the_oracles(5, lines, result, families)


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
            "c": mult, "k": mult, "n": (F(1),) * 3,
            "x": tuple(map(F, x)), "y": tuple(map(F, y)),
        }
        assert all(type(q) is F for key in "cknxy" for q in entry.witness_data[key])
    assert not pinned


def _survey_summary():
    """Each nontrivial pairing with the parts of its witness that hold a
    zero, and whether every witness is the closed form."""
    nontrivial = [e for e in survey_k3_classical() if e.nontrivial]
    strata = {
        (e.s, e.p): tuple(part for part in "nxy" if 0 in e.witness_data[part])
        for e in nontrivial
    }
    return strata, all(matches_builtin_q33(e) for e in nontrivial)


def test_survey_verdicts_do_not_depend_on_the_primes(monkeypatch):
    expected, _ = _survey_summary()
    assert expected == {((1, 2, 0), (2, 0, 1)): (), ((2, 0, 1), (1, 2, 0)): ()}
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
    assert stats == qsearch.SurveyStats(pairings_surveyed=12, sign_patterns=18)
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


def _oracle_points(s, p, zn, zx, zy):
    """(c, k, n, x, y) of one stratum at the prime point, for each of the 64
    sign patterns that meets the constraints, checked against them directly."""
    rows = [[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]]
    rows += [[int(j == i) - int(j == 3 + i) for j in range(6)] for i in range(3) if s[i] not in zn]
    p_cycles = {frozenset(_orbit(p, {i})) for i in range(3)}
    s_cycles = {frozenset(_orbit(s, {i})) for i in range(3)}
    rows += [[int(j in cyc) for j in range(3)] + [0] * 3 for cyc in p_cycles if not cyc <= zx]
    rows += [[0] * 3 + [int(j in cyc) for j in range(3)] for cyc in s_cycles if not cyc <= zy]
    torus = _oracle_torus(rows)
    n = tuple(Fraction(int(i not in zn)) for i in range(3))
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
        yield c, km, n, tuple(x), tuple(y)


def _parallel(a, b):
    return all(a[i] * b[j] == a[j] * b[i] for i, j in ((0, 1), (0, 2), (1, 2)))


def _oracle_stratum(s, p, zn, zx, zy):
    """('degenerate' | 'trivial' | 'nontrivial', first witness) of one stratum,
    with every one of the 64 sign patterns checked against the constraints
    directly and every admissible one instantiated and decided."""
    num_zero = [(i in zn, i in zx, i in zy) for i in range(3)]
    den_zero = [(s[i] in zn, i in zx, i in zy) for i in range(3)]
    if any(sum(zero) >= 2 for zero in num_zero + den_zero):
        return "degenerate", None
    witness = None
    for c, km, n, x, y in _oracle_points(s, p, zn, zx, zy):
        num = [(n[i], x[i], y[i]) for i in range(3)]
        den = [(km[i] * n[s[i]], x[i], y[i]) for i in range(3)]
        if witness is None and not any(
            all(_parallel(num[i], den[pi[i]]) for i in range(3))
            for pi in itertools.permutations(range(3))
        ):
            system = build_system(3, "three", PermTriple(s, p), MultiplierAssignment(c, km))
            data = {"c": c, "k": km, "n": n, "x": x, "y": y}
            witness = product_from_assignment(system, n, x, y), data
    return ("trivial" if witness is None else "nontrivial"), witness


def test_survey_pairs_match_an_oracle_that_decides_every_stratum():
    """The lemma `survey_k3_classical` rests on, by exhaustion: over every
    stratum of all 36 pairings, without dedup, a stratum with a zero in n, x
    or y is degenerate or trivial, so the survey decides only the
    all-nonzero one.  Its witness is the oracle's first in stratum order."""
    perms = list(itertools.permutations(range(3)))
    stratum_key = lambda zeros: (sum(map(len, zeros)), *map(sorted, zeros))
    invariant = lambda perm: [
        frozenset(z) for size in range(4) for z in itertools.combinations(range(3), size)
        if {perm[i] for i in z} == set(z)
    ]
    verdicts = Counter()
    nontrivial = set()
    for s, p in itertools.product(perms, repeat=2):
        u = tuple(s[p.index(j)] for j in range(3))
        strata = sorted(
            itertools.product(invariant(u), invariant(p), invariant(s)), key=stratum_key
        )
        decided = [_oracle_stratum(s, p, *zeros) for zeros in strata]
        verdicts.update(
            (verdict, "zero" if any(zeros) else "no zero")
            for zeros, (verdict, _) in zip(strata, decided)
        )
        first = next((w for _, w in decided if w is not None), (None, {}))
        assert qsearch._survey_pair(s, p) == first, (s, p)
        if first[0] is not None:
            nontrivial.add((s, p))
    assert verdicts == {
        ("degenerate", "zero"): 1938, ("trivial", "zero"): 474,
        ("trivial", "no zero"): 34, ("nontrivial", "no zero"): 2,
    }
    assert nontrivial == {((1, 2, 0), (2, 0, 1)), ((2, 0, 1), (1, 2, 0))}
