import itertools
from collections import Counter
from fractions import Fraction

import pytest

from vogeluniq.formula import FactorProduct, adjoint_formula, eval_classical
from vogeluniq.identity import (
    InternalConsistencyError,
    LineParam,
    VanishingFactorError,
    check_on_lines,
    check_symmetric,
    is_one_on_line,
    numeric_crosscheck,
    restrict,
)
from vogeluniq.plane import (
    ALL_PERM3,
    Basis,
    LinearForm,
    ProjPoint,
    act,
    family_line,
    incident,
)
from vogeluniq.formula import act_product
from vogeluniq.qsearch import PRIMED_LINES, builtin_q33, builtin_q_prop4
from conftest import rand_rational


ALPHA = LinearForm((1, 0, 0), Basis.PRIMED)
BETA = LinearForm((0, 1, 0), Basis.PRIMED)
GAMMA = LinearForm((0, 0, 1), Basis.PRIMED)
SP = LinearForm((3, -1, 0), Basis.PRIMED)


# --- restriction -----------------------------------------------------------------


def test_restrict_factor_on_its_own_line_raises():
    F = FactorProduct((ALPHA,), (BETA,), basis=Basis.PRIMED)
    with pytest.raises(VanishingFactorError) as err:
        restrict(F, LineParam.from_line(ALPHA))
    assert ("num", 0) in err.value.indices


def test_restrict_general_factor_to_coordinate_line():
    x, y = Fraction(5), Fraction(7)
    form = LinearForm((1, x, y), Basis.PRIMED)
    F = FactorProduct((form,), (form,), basis=Basis.PRIMED)
    lp = LineParam(
        ALPHA, ProjPoint((0, 1, 0), Basis.PRIMED), ProjPoint((0, 0, 1), Basis.PRIMED)
    )
    num, den = restrict(F, lp)
    assert num == [(x, y)] and den == [(x, y)]


def test_restriction_is_parametrization_covariant(rng):
    q = builtin_q33(2, 3, 1, 1)
    lp1 = LineParam.from_line(ALPHA)
    lp2 = LineParam(
        ALPHA,
        ProjPoint((0, 1, 2), Basis.PRIMED),
        ProjPoint((0, 3, -1), Basis.PRIMED),
    )
    verdict1 = is_one_on_line(q, ALPHA)
    # same line under a different chart: the verdict must not change
    num2, den2 = restrict(q, lp2)
    poly_equal = sorted(num2) == sorted(den2)
    assert verdict1.identically_one
    # multisets of restricted forms match exactly for this factor pairing
    assert poly_equal


def test_lineparam_validation():
    with pytest.raises(Exception):
        LineParam(ALPHA, ProjPoint((1, 0, 0), Basis.PRIMED), ProjPoint((0, 0, 1), Basis.PRIMED))


# --- classical line identity -------------------------------------------------------


def test_q33_identically_one_on_three_basic_lines():
    q = builtin_q33(2, 3, 1, 1)
    for line in (ALPHA, BETA, GAMMA):
        report = is_one_on_line(q, line)
        assert report.identically_one
        assert report.matching is not None


def test_q33_generic_value_off_the_lines():
    q = builtin_q33(2, 3, 1, 1)
    value = eval_classical(q, ProjPoint((1, 1, 1), Basis.PRIMED))
    assert value.value == Fraction(27, 26)


def test_q33_not_constant_on_fourth_line_with_witness():
    q = builtin_q33(2, 3, 1, 1)
    report = is_one_on_line(q, SP)
    assert report.verdict == "not_constant"
    witness = report.witness
    assert witness is not None and incident(witness, SP)
    assert eval_classical(q, witness).value != 1


def test_adjoint_classical_view_not_constant_on_sl_line():
    from vogeluniq.formula import classical_limit

    adj = classical_limit(adjoint_formula())
    report = is_one_on_line(adj, family_line("sl"))
    assert report.verdict == "not_constant"
    assert eval_classical(adj, report.witness).value != 1


def test_identically_constant_detection():
    F = FactorProduct(
        (LinearForm((0, 1, 0), Basis.PRIMED),),
        (LinearForm((0, 3, 0), Basis.PRIMED),),
        basis=Basis.PRIMED,
    )
    report = is_one_on_line(F, ALPHA)
    assert report.verdict == "identically_constant"
    assert report.constant == Fraction(1, 3)


def test_vanishing_factor_verdict_propagates():
    F = FactorProduct((ALPHA,), (BETA,), basis=Basis.PRIMED)
    report = is_one_on_line(F, ALPHA)
    assert report.verdict == "vanishing_factor"
    assert report.vanishing == (("num", 0),)


# --- quantum line identity ----------------------------------------------------------


def test_quantum_sign_matched_pair_is_one():
    form = LinearForm((1, 2, 3), Basis.PRIMED)
    F = FactorProduct((form,), (form.scaled(-1),), quantum=True, sign=-1, basis=Basis.PRIMED)
    report = is_one_on_line(F, ALPHA)
    assert report.identically_one


def test_quantum_scaled_pair_is_not_one():
    F = FactorProduct(
        (LinearForm((0, 1, 1), Basis.PRIMED),),
        (LinearForm((0, 2, 2), Basis.PRIMED),),
        quantum=True,
        basis=Basis.PRIMED,
    )
    report = is_one_on_line(F, ALPHA)
    assert report.verdict == "not_constant"


def test_quantum_four_line_factor_is_one_on_all_four():
    F = builtin_q_prop4(1, 2, 3, 5, quantum=True)
    for line in PRIMED_LINES["four"]:
        assert is_one_on_line(F, line).identically_one


def test_quantum_q33_fails_on_the_exc_line():
    F = builtin_q33(2, 3, 1, 1, quantum=True)
    assert is_one_on_line(F, ALPHA).identically_one
    assert is_one_on_line(F, BETA).identically_one
    assert is_one_on_line(F, GAMMA).verdict == "not_constant"


def test_quantum_total_sign_minus_one_reports_constant():
    form = LinearForm((1, 2, 3), Basis.PRIMED)
    F = FactorProduct((form,), (form,), quantum=True, sign=-1, basis=Basis.PRIMED)
    report = is_one_on_line(F, ALPHA)
    assert report.verdict == "identically_constant" and report.constant == -1


# --- check_on_lines and numeric crosschecks ------------------------------------------


def test_check_on_lines_four_line_factor():
    reports = check_on_lines(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"])
    assert [r.verdict for r in reports] == ["identically_one"] * 4


def test_empty_product_is_one_on_any_line():
    from vogeluniq.formula import empty_product

    F = empty_product(basis=Basis.PRIMED)
    assert is_one_on_line(F, SP).identically_one


def test_numeric_crosscheck_agrees_with_symbolic(rng):
    q = builtin_q33(2, 3, 1, 1)
    for line in (ALPHA, BETA, GAMMA, SP):
        assert numeric_crosscheck(q, line, samples=6)
    p4 = builtin_q_prop4(1, 2, 3, 5, quantum=True)
    for line in PRIMED_LINES["four"]:
        assert numeric_crosscheck(p4, line, samples=4)


def test_numeric_crosscheck_catches_a_lie(monkeypatch):
    q = builtin_q33(2, 3, 1, 1)
    import vogeluniq.identity as identity_module

    def dishonest(F, line):
        return identity_module.IdentityReport(line, "identically_one")

    monkeypatch.setattr(identity_module, "is_one_on_line", dishonest)
    with pytest.raises(InternalConsistencyError):
        identity_module.numeric_crosscheck(q, SP, samples=4)


def test_witness_search_gives_up_with_a_named_error():
    # q33 is identically one on its black lines, so no witness exists there
    import vogeluniq.identity as identity_module

    lp = LineParam.from_line(PRIMED_LINES["three"][0])
    for quantum in (False, True):
        q = builtin_q33(2, 3, 1, 1, quantum=quantum)
        with pytest.raises(InternalConsistencyError):
            identity_module._witness_on_line(q, lp)


def test_witness_bound_is_needed_and_enough():
    # On the line c = 0 with p0 = (1, 0, 0) and p1 = (0, 1, 0), the product
    # restricts to 2s(9s + 2t) / ((6s + t)(5s + t)): at (1, n) for
    # n = -6, -5 the denominator vanishes, at n = -4, -3 the value is 1.
    import vogeluniq.identity as identity_module

    lp = LineParam(
        LinearForm((0, 0, 1)), ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))
    )
    F = FactorProduct(
        num=(LinearForm((2, 0, 0)), LinearForm((9, 2, 0))),
        den=(LinearForm((6, 1, 0)), LinearForm((5, 1, 0))),
    )
    k = F.k
    points = list(itertools.islice(identity_module._line_points(), 2 * k + 1))
    assert points == [(Fraction(1), Fraction(n)) for n in range(-6, -1)]
    for s, t in points[: 2 * k]:
        res = eval_classical(F, lp.point_at(s, t))
        assert res.kind == "pole" or res.value == 1
    witness = identity_module._witness_on_line(F, lp)
    assert witness == lp.point_at(*points[2 * k])
    assert eval_classical(F, witness).value == Fraction(5, 6)
    # two usable samples, both equal to 1: the crosscheck walks on to the witness
    assert numeric_crosscheck(F, LinearForm((0, 0, 1)), samples=2)


def test_zero_value_is_a_classical_witness():
    # On c = 0 the product restricts to (6s + t) / (s + t), which is 0 at
    # (1, -6): the first point of the walk is already a witness.
    import vogeluniq.identity as identity_module

    lp = LineParam(
        LinearForm((0, 0, 1)), ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0))
    )
    F = FactorProduct(num=(LinearForm((6, 1, 0)),), den=(LinearForm((1, 1, 0)),))
    witness = identity_module._witness_on_line(F, lp)
    assert witness == lp.point_at(Fraction(1), Fraction(-6))
    assert eval_classical(F, witness).kind == "zero"
    assert numeric_crosscheck(F, LinearForm((0, 0, 1)), samples=1)


def test_verdicts_are_equivariant_under_coordinate_permutations(rng):
    q = builtin_q33(2, 3, 1, 1)
    for perm in ALL_PERM3:
        moved = act_product(perm, q)
        for line in (ALPHA, BETA, GAMMA, SP):
            before = is_one_on_line(q, line).verdict
            after = is_one_on_line(moved, act(perm, line)).verdict
            assert before == after


# --- randomized sign-matching suite (small version) -----------------------------------


def random_forms(rng, count, avoid_line):
    forms = []
    while len(forms) < count:
        coords = [rand_rational(rng, 9) for _ in range(3)]
        if all(c == 0 for c in coords):
            continue
        form = LinearForm(coords, Basis.PRIMED)
        lp = LineParam.from_line(avoid_line)
        if form(lp.p0) == 0 and form(lp.p1) == 0:
            continue
        forms.append(form)
    return forms


def test_random_sign_matched_products_and_perturbations(rng):
    line = ALPHA
    for trial in range(25):
        k = rng.randint(1, 6)
        num = random_forms(rng, k, line)
        order = list(range(k))
        rng.shuffle(order)
        signs = [rng.choice((1, -1)) for _ in range(k)]
        if signs.count(-1) % 2:
            signs[0] = -signs[0]
        den = tuple(num[i].scaled(s) for i, s in zip(order, signs))
        F = FactorProduct(tuple(num), den, quantum=True, basis=Basis.PRIMED)
        assert is_one_on_line(F, line).identically_one
        # perturb one denominator coefficient
        coords = list(den[0].coeffs)
        coords[1] += 1
        if all(c == 0 for c in coords):
            coords[1] += 1
        perturbed = (LinearForm(coords, Basis.PRIMED),) + den[1:]
        G = FactorProduct(tuple(num), perturbed, quantum=True, basis=Basis.PRIMED)
        report = is_one_on_line(G, line)
        if report.identically_one:
            # the perturbation may accidentally recreate a matched multiset
            continue
        assert report.verdict in ("not_constant", "identically_constant", "vanishing_factor")


# --- permutation symmetry ---------------------------------------------------------------


def test_num_equals_den_is_symmetric():
    forms = (LinearForm((1, 2, 3)), LinearForm((4, 5, 6)))
    F = FactorProduct(forms, forms)
    assert check_symmetric(F)


def test_adjoint_is_symmetric_both_ways():
    assert check_symmetric(adjoint_formula())
    from vogeluniq.formula import classical_limit

    assert check_symmetric(classical_limit(adjoint_formula()))


def test_closed_form_factors_are_not_symmetric():
    assert not check_symmetric(builtin_q33(2, 3, 1, 1))
    assert not check_symmetric(builtin_q_prop4(1, 2, 3, 5))
    assert not check_symmetric(builtin_q_prop4(1, 2, 3, 5, quantum=True))


def test_report_json_shape():
    report = is_one_on_line(builtin_q33(2, 3, 1, 1), SP)
    data = report.to_json()
    assert data["verdict"] == "not_constant"
    assert "witness" in data and "line" in data


def test_symbolic_and_numeric_agree_on_fifty_mixed_pairs(rng):
    """identically_one holds symbolically iff the sampled values confirm it,
    over a mix of built-ins and random matched/unmatched products."""
    lines = [ALPHA, BETA, GAMMA, SP]
    pairs = []
    pairs += [(builtin_q33(2, 3, 1, 1), line) for line in lines]
    pairs += [(builtin_q_prop4(1, 2, 3, 5, quantum=True), line) for line in lines]
    pairs += [(builtin_q_prop4(1, 2, 3, 5), line) for line in lines]
    while len(pairs) < 50:
        line = rng.choice(lines)
        k = rng.randint(1, 4)
        num = random_forms(rng, k, line)
        if rng.random() < 0.5:  # matched product
            order = list(range(k))
            rng.shuffle(order)
            signs = [rng.choice((1, -1)) for _ in range(k)]
            if signs.count(-1) % 2:
                signs[0] = -signs[0]
            den = tuple(num[i].scaled(s) for i, s in zip(order, signs))
        else:  # generically unmatched
            den = tuple(random_forms(rng, k, line))
        pairs.append(
            (FactorProduct(tuple(num), den, quantum=True, basis=Basis.PRIMED), line)
        )
    for F, line in pairs:
        assert numeric_crosscheck(F, line, samples=4)


# --- independent oracle for the line decision ---------------------------------------


def _restricted_oracle(sympy, F, line):
    """Each factor restricted to the line as a pair (coefficient of s,
    coefficient of t), by sympy substitution rather than `restrict`."""
    s, t = sympy.symbols("s t")
    lp = LineParam.from_line(line)
    point = [
        s * sympy.Rational(a) + t * sympy.Rational(b) for a, b in zip(lp.p0.coords, lp.p1.coords)
    ]

    def on_line(form):
        expr = sympy.expand(sum(sympy.Rational(c) * x for c, x in zip(form.coeffs, point)))
        return expr.coeff(s), expr.coeff(t)

    return s, t, [on_line(f) for f in F.num], [on_line(f) for f in F.den]


def _quantum_constant(num, den, sign):
    """The constant value of a quantum product on the line, or None.  The
    sinh ratio is constant exactly when the restricted forms agree as
    multisets up to per-factor signs; the constant is the overall sign
    times the signs taken out to normalize each form."""
    flips = 1
    normal = {"num": Counter(), "den": Counter()}
    for side, forms in (("num", num), ("den", den)):
        for u, v in forms:
            flip = -1 if (u or v) < 0 else 1
            flips *= flip
            normal[side][(u * flip, v * flip)] += 1
    return sign * flips if normal["num"] == normal["den"] else None


def _small_form(rng):
    while True:
        coeffs = [rng.randint(-3, 3) for _ in range(3)]
        if any(coeffs):
            return LinearForm(coeffs, Basis.PRIMED)


def _oracle_products(rng):
    def product(num, den, **kwargs):
        return FactorProduct(
            tuple(LinearForm(r, Basis.PRIMED) for r in num),
            tuple(LinearForm(r, Basis.PRIMED) for r in den),
            basis=Basis.PRIMED,
            **kwargs,
        )

    products = [
        # (2b)(3c) / (b (6c)): constant only by regrouping scalars across pairs
        product([(0, 2, 0), (0, 0, 3)], [(0, 1, 0), (0, 0, 6)]),
        product([(0, 2, 0), (0, 0, 3)], [(0, 1, 0), (0, 0, 6)], scalar=Fraction(1, 2)),
        product([(5, 2, 1), (7, 0, 3)], [(1, 2, 1), (2, 0, 3)], scalar=Fraction(2, 3)),
        product([(0, 2, 0), (1, 0, 3)], [(0, 1, 0), (1, 0, 3)], sign=-1, scalar=Fraction(3)),
        product([(6, 1, 0)], [(1, 1, 0)]),
        product([(1, 2, 3), (4, 5, 6)], [(-1, -2, -3), (4, 5, 6)], quantum=True),
        product([(1, 2, 3), (4, 5, 6)], [(-1, -2, -3), (4, 5, 6)], quantum=True, sign=-1),
        product([(0, 1, 1)], [(0, 2, 2)], quantum=True),
        # repeated classes: 2b, b and -b pair in order
        product([(0, 2, 0), (0, 1, 0), (1, 2, 3)], [(0, 1, 0), (0, -1, 0), (2, 4, 6)]),
        product([(0, 2, 0), (0, 1, 0), (1, 2, 3)], [(0, 1, 0), (0, 3, 0), (1, 0, 0)]),
        product(
            [(1, 2, 3), (-1, -2, -3), (0, 1, 1)], [(1, 2, 3), (1, 2, 3), (0, -1, -1)],
            quantum=True,
        ),
        product([(1, 2, 3), (2, 4, 6)], [(-1, -2, -3), (1, 2, 3)], quantum=True),
        builtin_q33(2, 3, 1, 1),
        builtin_q33(2, 3, 1, 1, quantum=True),
        builtin_q_prop4(1, 2, 3, 5, quantum=True),
    ]
    for quantum in (False, True) * 30:
        k = rng.randint(1, 3)
        num = [_small_form(rng) for _ in range(k)]
        if rng.random() < 0.5:  # paired: proportional, or up to sign when quantum
            order = rng.sample(range(k), k)
            mults = (-1, 1) if quantum else (-3, -1, 1, 2, 3)
            den = [num[i].scaled(rng.choice(mults)) for i in order]
        else:
            den = [_small_form(rng) for _ in range(k)]
        scalar = Fraction(1) if quantum else Fraction(rng.randint(1, 3), rng.randint(1, 3))
        products.append(
            FactorProduct(
                tuple(num), tuple(den), quantum=quantum, sign=rng.choice((1, -1)),
                scalar=scalar, basis=Basis.PRIMED,
            )
        )
    return products


def test_line_decision_against_an_independent_oracle(rng):
    sympy = pytest.importorskip("sympy")
    lines = [ALPHA, BETA, GAMMA, SP, LinearForm((1, 1, 1), Basis.PRIMED)]
    verdicts = set()
    for F in _oracle_products(rng):
        for line in lines:
            report = is_one_on_line(F, line)
            verdicts.add(report.verdict)
            s, t, num, den = _restricted_oracle(sympy, F, line)
            if (0, 0) in num + den:
                assert report.verdict == "vanishing_factor"
                continue
            if F.quantum:
                expected = _quantum_constant(num, den, F.sign)
            else:
                value = sympy.cancel(
                    F.sign * sympy.Rational(F.scalar)
                    * sympy.Mul(*(u * s + v * t for u, v in num))
                    / sympy.Mul(*(u * s + v * t for u, v in den))
                )
                expected = None if value.free_symbols else Fraction(int(value.p), int(value.q))
            if expected is None:
                assert report.verdict == "not_constant", (F, line)
            elif expected == 1:
                assert report.verdict == "identically_one", (F, line)
            else:
                assert report.verdict == "identically_constant", (F, line)
                assert report.constant == expected
    assert verdicts == {
        "identically_one", "identically_constant", "not_constant", "vanishing_factor"
    }
