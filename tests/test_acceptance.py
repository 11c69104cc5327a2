"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time.  Exact checks carry zero tolerance; numeric sinh checks use
1e-9 relative tolerance; the stated per-criterion runtime bounds are asserted.
"""

import time
from fractions import Fraction

import pytest

from vogeluniq import _poly
from vogeluniq.formula import (
    FactorProduct,
    adjoint_formula,
    cancel,
    classical_limit,
    classical_on_family,
    eval_classical,
    eval_quantum,
    family_coords,
    ratio,
    x2k_adn_formula,
)
from vogeluniq.identity import (
    LineParam,
    check_on_lines,
    check_symmetric,
    is_one_on_line_classical,
    is_one_on_line_quantum,
)
from vogeluniq.plane import (
    ALL_PERM3,
    SWAP_AB,
    SWAP_BG,
    Basis,
    LinearForm,
    ProjPoint,
    act,
    distinguished_lines,
    to_primed,
    vogel_point,
)
from vogeluniq.qsearch import (
    FOUR_LINE_PERMS,
    PRIMED_LINES,
    MultiplierAssignment,
    build_system,
    builtin_q33,
    builtin_q_prop4,
    enumerate_families,
    matches_builtin_four_line,
    matches_builtin_q33,
    product_from_assignment,
    reference_four_line_assignment,
    survey_k3_classical,
    verify_solution,
)
from vogeluniq.configs import (
    enumerate_n3,
    extract_permutations,
    find_coloring,
    isomorphic,
    search_144,
    sketch_from_q,
    validate_coloring,
    validate_table,
)
from vogeluniq._util import make_rng, rand_rational


class Criterion:
    """Times a criterion and prints its PASS line when the block succeeds."""

    def __init__(self, name: str, seconds: float):
        self.name = name
        self.limit = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None:
            assert elapsed < self.limit, (
                f"{self.name}: took {elapsed:.1f}s, limit {self.limit:.0f}s"
            )
            print(f"PASS  {self.name}  ({elapsed:.2f}s)")
        else:
            print(f"FAIL  {self.name}  ({elapsed:.2f}s)")
        return False


def adjoint_oracle(point):
    """Independent exact substitution into the adjoint factor ratio."""
    a, b, c = point.coords
    return -((2 * a + 2 * b + c) * (2 * a + b + 2 * c) * (a + 2 * b + 2 * c)) / (a * b * c)


def test_criterion_1_adjoint_dimensions():
    with Criterion("1: adjoint dimensions and family polynomials", 1.0):
        adj = adjoint_formula()
        for family, param, expected in [("sl", 5, 24), ("so", 7, 21), ("sp", 3, 21), ("exc", 8, 248)]:
            point = vogel_point(family, param).point
            result = eval_classical(adj, point)
            assert result.is_finite and result.value == expected
            assert adjoint_oracle(point) == expected
        # one-parameter simplification along each family line, frozen from the
        # rational-substitution oracle (cross-checked against sympy elsewhere)
        expected_polys = {
            "sl": (Fraction(-1), Fraction(0), Fraction(1)),          # N^2 - 1
            "so": (Fraction(0), Fraction(-1, 2), Fraction(1, 2)),    # N(N-1)/2
            "sp": (Fraction(0), Fraction(1), Fraction(2)),           # N(2N+1)
        }
        for family, poly in expected_polys.items():
            num, den = classical_on_family(adj, family_coords(family))
            assert den == _poly.ONE and num == poly


def test_criterion_2_cartan_power_dimension_counts():
    with Criterion("2: wedge-square decomposition dimension counts", 1.0):
        x10 = cancel(classical_limit(x2k_adn_formula(1, 0)))
        x01 = cancel(classical_limit(x2k_adn_formula(0, 1)))
        points = [("sl", 5), ("so", 7), ("sp", 3), ("exc", 8), ("exc", 4), ("exc", 2)]
        assert len(points) == 6
        for family, param in points:
            point = vogel_point(family, param).point
            d = adjoint_oracle(point)
            assert eval_classical(x10, point).value == d * (d - 3) / 2
            assert eval_classical(x01, point).value == d


def test_criterion_3_three_line_factor():
    with Criterion("3: closed-form three-line factor", 1.0):
        rng = make_rng(31)
        three = PRIMED_LINES["three"]
        sp = PRIMED_LINES["four"][3]
        draws = 0
        while draws < 20:
            c1, c2, x, y = (rand_rational(rng, 30, nonzero=True) for _ in range(4))
            if c1 == 1 or c2 == 1 or c1 * c2 == 1:
                continue
            draws += 1
            q = builtin_q33(c1, c2, x, y)
            assert all(r.identically_one for r in check_on_lines(q, three))
            assert is_one_on_line_classical(q, sp).verdict == "not_constant"
        q = builtin_q33(2, 3, 1, 1)
        witness = eval_classical(q, ProjPoint((1, 1, 1), Basis.PRIMED))
        assert witness.value == Fraction(27, 26)  # not constant on the plane


def test_criterion_4_four_line_factor():
    with Criterion("4: closed-form four-line factor", 5.0):
        rng = make_rng(41)
        four = PRIMED_LINES["four"]
        draws = []
        while len(draws) < 20:
            n, x, xp, y = (rand_rational(rng, 30, nonzero=True) for _ in range(4))
            if x == xp or 2 * n + 3 * x + 3 * xp == 0 or n + 3 * x + 3 * xp == 0:
                continue
            draws.append((n, x, xp, y))
        for n, x, xp, y in draws:
            classical = builtin_q_prop4(n, x, xp, y)
            quantum = builtin_q_prop4(n, x, xp, y, quantum=True)
            assert all(r.identically_one for r in check_on_lines(classical, four))
            assert all(r.identically_one for r in check_on_lines(quantum, four))
            assert not check_symmetric(classical)
            assert not check_symmetric(quantum)
        # numeric confirmation at 1e-9 relative on sampled line points
        quantum = builtin_q_prop4(*draws[0], quantum=True)
        for line in four:
            lp = LineParam.from_line(line)
            confirmed = 0
            while confirmed < 3:
                s = rand_rational(rng, 50)
                t = rand_rational(rng, 50, nonzero=True)
                try:
                    pt = lp.point_at(s, t)
                    values = [eval_quantum(quantum, pt, xv) for xv in (0.05, 0.3, 0.9, 1.7, 2.6)]
                except Exception:
                    continue
                confirmed += 1
                assert all(abs(v - 1) < 1e-9 for v in values)


def test_criterion_5_quantum_nonexistence_up_to_k3():
    with Criterion("5: no nontrivial quantum factor up to k = 3", 120.0):
        for k, raw in ((1, 1), (2, 16), (3, 576)):
            result = enumerate_families(k, "three", dedup=False)
            assert result.complete
            assert result.cases_examined == raw
            assert result.families == ()


def test_criterion_6_k3_structure_theorem():
    with Criterion("6: classical k = 3 structure over 36 pairings", 60.0):
        entries = survey_k3_classical(seed=61)
        assert len(entries) == 36
        nontrivial = [e for e in entries if e.nontrivial]
        expected_pairs = {((1, 2, 0), (2, 0, 1)), ((2, 0, 1), (1, 2, 0))}
        assert {(e.s, e.p) for e in nontrivial} == expected_pairs
        for entry in nontrivial:
            fpf = all(entry.s[i] != i for i in range(3)) and all(
                entry.p[i] != i for i in range(3)
            )
            assert fpf and entry.s != entry.p
            assert matches_builtin_q33(entry)


def test_criterion_7_k4_search_finds_the_four_line_family():
    with Criterion("7: quantum k = 4 search on four lines", 600.0):
        result = enumerate_families(4, "four")
        assert result.complete
        assert result.families
        assert result.cases_examined == 300232
        assert [ff.case_index for ff in result.families] == [
            2261058, 2261063, 2262401, 2262403, 2269963, 2270002, 2270011, 2271805,
            2271811, 2273150, 2273159, 2723815, 2724389, 2724627, 2726500, 2727318,
            2727849, 2741275, 2741654, 2749762, 2750149, 2751062, 2751451,
        ]
        assert any(matches_builtin_four_line(ff.family) for ff in result.families)


def test_criterion_8_nine_configuration_chain():
    with Criterion("8: (9_3) enumeration, coloring and sketch", 120.0):
        classes = enumerate_n3(9)
        assert len(classes) == 3
        colorable = [t for t in classes if find_coloring(t) is not None]
        assert len(colorable) == 1
        sketch = sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["three"])
        assert len(sketch.points) == 9
        for black_idx in range(3):
            assert len(sketch.table.columns[black_idx]) == 3
        assert isomorphic(sketch.table, colorable[0])


def test_criterion_9_sixteen_configuration_extraction():
    with Criterion("9: (16_3 12_4) extraction", 5.0):
        sketch = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"])
        table = sketch.table
        assert validate_table(table) == []
        assert (table.p, table.l, table.gamma, table.pi) == (16, 12, 3, 4)
        assert validate_coloring(table, sketch.coloring) == []
        perms = extract_permutations(table, sketch.coloring)
        assert perms == ((1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1))


def test_criterion_10_four_line_parameter_solution():
    with Criterion("10: hand-solved four-line parameter relations", 1.0):
        rng = make_rng(101)
        for _ in range(10):
            draws = [rand_rational(rng, 20, nonzero=True) for _ in range(7)]
            system, n, x, y = reference_four_line_assignment(*draws)
            assert verify_solution(system, n, x, y).ok
            assert cancel(product_from_assignment(system, n, x, y)).k == 4
        system, n, x, y = reference_four_line_assignment(
            *[rand_rational(rng, 20, nonzero=True) for _ in range(7)], minus_branch=False
        )
        assert verify_solution(system, n, x, y).ok
        assert cancel(product_from_assignment(system, n, x, y)).k == 0  # trivial


def _sign_canonical_restriction(form, lp):
    u, v = form(lp.p0), form(lp.p1)
    lead = u if u != 0 else v
    return (-u, -v) if lead < 0 else (u, v)


def _perturb_until_mismatched(rng, num, den, lp):
    """Bump one coefficient of one denominator factor until the restricted
    multisets genuinely stop matching up to signs (checked independently)."""
    target = sorted(_sign_canonical_restriction(f, lp) for f in num)
    while True:
        idx = rng.randrange(len(den))
        bumped = list(den[idx].coeffs)
        bumped[rng.randrange(3)] += rng.choice((1, 2, -1))
        if all(c == 0 for c in bumped):
            continue
        form = LinearForm(bumped, Basis.PRIMED)
        if form(lp.p0) == 0 and form(lp.p1) == 0:
            continue
        new_den = den[:idx] + (form,) + den[idx + 1 :]
        if sorted(_sign_canonical_restriction(f, lp) for f in new_den) == target:
            continue  # the bump accidentally recreated a matched multiset
        return FactorProduct(tuple(num), new_den, quantum=True, basis=Basis.PRIMED)


def test_criterion_11_sign_matching_property_suite():
    with Criterion("11: sinh product sign-matching suite", 30.0):
        rng = make_rng(111)
        line = PRIMED_LINES["three"][0]
        lp = LineParam.from_line(line)
        matched = perturbed = 0
        while matched < 200:
            k = rng.randint(1, 6)
            num = []
            while len(num) < k:
                coords = [rand_rational(rng, 9) for _ in range(3)]
                if all(c == 0 for c in coords):
                    continue
                form = LinearForm(coords, Basis.PRIMED)
                if form(lp.p0) == 0 and form(lp.p1) == 0:
                    continue
                num.append(form)
            order = list(range(k))
            rng.shuffle(order)
            signs = [rng.choice((1, -1)) for _ in range(k)]
            if signs.count(-1) % 2:
                signs[0] = -signs[0]
            den = tuple(num[i].scaled(s) for i, s in zip(order, signs))
            F = FactorProduct(tuple(num), den, quantum=True, basis=Basis.PRIMED)
            assert is_one_on_line_quantum(F, line).identically_one
            matched += 1
            point = None
            while point is None:
                s = rand_rational(rng, 40)
                t = rand_rational(rng, 40, nonzero=True)
                try:
                    cand = lp.point_at(s, t)
                    values = [eval_quantum(F, cand, xv) for xv in (0.07, 0.4, 0.9, 1.6, 2.3)]
                    point = cand
                except Exception:
                    continue
            assert all(abs(v - 1) < 1e-9 for v in values)
            if perturbed < 200:
                G = _perturb_until_mismatched(rng, num, den, lp)
                assert is_one_on_line_quantum(G, line).verdict == "not_constant"
                perturbed += 1
        assert perturbed == 200


def test_criterion_12_permutation_and_line_set_invariants():
    with Criterion("12: coordinate-permutation and line-set invariants", 1.0):
        lines = distinguished_lines()
        canon = {f.canonical() for f in lines}
        assert len(canon) == 12
        for gen in (SWAP_AB, SWAP_BG):
            assert {act(gen, f).canonical() for f in lines} == canon
        rng = make_rng(121)
        for _ in range(25):
            coords = [rand_rational(rng, 40) for _ in range(3)]
            if all(c == 0 for c in coords):
                continue
            pt = ProjPoint(coords)
            assert act(SWAP_AB, act(SWAP_AB, pt)) == pt
            assert act(SWAP_BG, act(SWAP_BG, pt)) == pt
            image = pt
            for _ in range(3):
                image = act(SWAP_AB, act(SWAP_BG, image))
            assert image == pt
        primed = {f.canonical() for f in distinguished_lines(Basis.PRIMED)}
        assert primed == {to_primed(f).canonical() for f in lines}
        # and the full six-element group fixes the set
        for perm in ALL_PERM3:
            assert {act(perm, f).canonical() for f in lines} == canon


def test_search_144_plumbing_only():
    with Criterion("aux: bounded 12-line search plumbing", 30.0):
        empty = search_144(0)
        assert empty == search_144(0)
        assert (empty.best_depth, empty.nodes_used, empty.found) == (0, 0, False)
        assert empty.depth_candidates == ()
        report = search_144(25)
        data = report.to_json()
        assert set(data) == {"budget", "nodes_used", "best_depth", "depth_candidates", "found"}
        assert report.nodes_used <= 25
        assert search_144(25) == report
