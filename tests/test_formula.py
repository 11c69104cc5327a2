import math
from collections import Counter
from fractions import Fraction

import pytest

from vogeluniq.formula import (
    FactorProduct,
    SingularPointError,
    adjoint_formula,
    cancel,
    classical_limit,
    classical_on_family,
    convert_product,
    empty_product,
    eval_classical,
    eval_quantum,
    multiply,
    pair_factors,
    ratio,
    x2k_adn_formula,
)
from vogeluniq.plane import FAMILIES, Basis, LinearForm, ProjPoint, vogel_point
from conftest import rand_rational


def adjoint_value_oracle(point):
    """Independent rational substitution into the adjoint ratio."""
    a, b, c = point.coords
    return -((2 * a + 2 * b + c) * (2 * a + b + 2 * c) * (a + 2 * b + 2 * c)) / (a * b * c)


# --- classical evaluation -----------------------------------------------------


@pytest.mark.parametrize(
    "family,param,expected",
    [("sl", 5, 24), ("so", 7, 21), ("sp", 3, 21), ("exc", 8, 248)],
)
def test_adjoint_dimensions(family, param, expected):
    point = vogel_point(family, param).point
    result = eval_classical(adjoint_formula(), point)
    assert result.is_finite and result.value == expected
    assert adjoint_value_oracle(point) == expected


def test_adjoint_at_exceptional_parameters():
    expected = {Fraction(-2, 3): 14, 0: 28, 1: 52, 2: 78, 4: 133, 8: 248}
    for n, dim in expected.items():
        point = vogel_point("exc", n).point
        assert eval_classical(adjoint_formula(), point).value == dim


def test_eval_classical_is_scale_invariant(rng):
    adj = adjoint_formula()
    for _ in range(20):
        point = vogel_point("sl", rand_rational(rng, 40, nonzero=True)).point
        scale = rand_rational(rng, 20, nonzero=True)
        r1 = eval_classical(adj, point)
        r2 = eval_classical(adj, point.scaled(scale))
        assert r1 == r2


def test_pole_zero_and_indeterminate_kinds():
    F = FactorProduct(
        (LinearForm((1, 0, 0)),), (LinearForm((0, 1, 0)),)
    )
    assert eval_classical(F, ProjPoint((1, 0, 1))).kind == "pole"
    assert eval_classical(F, ProjPoint((0, 1, 1))).kind == "zero"
    G = FactorProduct((LinearForm((1, 0, 0)),), (LinearForm((2, 0, 0)),))
    assert eval_classical(G, ProjPoint((0, 1, 1))).kind == "indeterminate"


def test_empty_product_evaluates_to_one():
    assert eval_classical(empty_product(), ProjPoint((3, 1, 4))).value == 1


# --- quantum evaluation ---------------------------------------------------------


def test_quantum_limit_matches_classical_with_richardson():
    adj = adjoint_formula()
    point = ProjPoint((-2, 2, 5))
    values = [eval_quantum(adj, point, x) for x in (1e-4, 1e-5, 1e-6)]
    for v in values:
        assert abs(v - 24) / 24 < 1e-6
    assert abs(values[2] - 24) / 24 < 1e-9  # x = 1e-6 lands within 1e-9 relative
    # quadratic convergence: error at x/10 drops about 100-fold
    errs = [abs(v - 24) for v in values]
    assert errs[1] < errs[0] / 10 and errs[2] < errs[1] / 10


def test_quantum_limit_of_four_line_factor():
    from vogeluniq.qsearch import builtin_q_prop4

    F = builtin_q_prop4(1, 2, 3, 5, quantum=True)
    point = ProjPoint((Fraction(2), Fraction(5), Fraction(-3)), Basis.PRIMED)
    exact = eval_classical(F, point).value
    for x in (1e-4, 1e-5, 1e-6):
        assert abs(eval_quantum(F, point, x) - exact) / abs(exact) < 1e-8


def test_quantum_empty_product_is_one_for_all_x():
    e = empty_product(quantum=True)
    for x in (0.1, 0.5, 2.0):
        assert eval_quantum(e, ProjPoint((1, 1, 1)), x) == 1.0


def test_quantum_matched_multisets_give_one(rng):
    forms = []
    while len(forms) < 4:
        coords = [rand_rational(rng, 9) for _ in range(3)]
        if any(c != 0 for c in coords):
            forms.append(LinearForm(coords))
    shuffled = list(forms)
    rng.shuffle(shuffled)
    signs = [rng.choice((1, -1)) for _ in shuffled]
    if signs.count(-1) % 2:
        signs[0] = -signs[0]
    den = tuple(f.scaled(s) for f, s in zip(shuffled, signs))
    F = FactorProduct(tuple(forms), den, quantum=True)
    point = ProjPoint((Fraction(5, 3), Fraction(-1, 2), Fraction(7)))
    for x in (0.2, 0.7, 1.9):
        assert abs(eval_quantum(F, point, x) - 1) < 1e-12


def test_quantum_is_not_scale_invariant():
    adj = adjoint_formula()
    p = ProjPoint((-2, 2, 5))
    v1 = eval_quantum(adj, p, 0.5)
    v2 = eval_quantum(adj, p.scaled(2), 0.5)
    assert abs(v1 - v2) > 1e-3


def test_quantum_singular_point_names_the_factor():
    adj = adjoint_formula()
    with pytest.raises(SingularPointError) as err:
        eval_quantum(adj, ProjPoint((0, 1, 1)), 0.3)
    assert "denominator factor 0" in str(err.value)


def test_quantum_requires_quantum_flag_and_nonzero_x():
    with pytest.raises(ValueError):
        eval_quantum(empty_product(quantum=False), ProjPoint((1, 1, 1)), 0.1)
    with pytest.raises(ValueError):
        eval_quantum(empty_product(quantum=True), ProjPoint((1, 1, 1)), 0.0)


def test_quantum_large_argument_stability():
    F = FactorProduct(
        (LinearForm((1, 0, 0)),), (LinearForm((1, 0, 0)),), quantum=True
    )
    assert abs(eval_quantum(F, ProjPoint((900, 1, 1)), 1.0) - 1) < 1e-9


# --- the Cartan-power family ------------------------------------------------------


def test_x2_dimension_counts_against_adjoint_oracle():
    x10 = cancel(classical_limit(x2k_adn_formula(1, 0)))
    x01 = cancel(classical_limit(x2k_adn_formula(0, 1)))
    for family, param in [("sl", 5), ("so", 7), ("sp", 3), ("exc", 8), ("exc", 4), ("exc", 2)]:
        point = vogel_point(family, param).point
        d = adjoint_value_oracle(point)
        r10 = eval_classical(x10, point)
        r01 = eval_classical(x01, point)
        assert r10.is_finite and r10.value == d * (d - 3) / 2
        assert r01.is_finite and r01.value == d


def test_x2_at_sl5_is_252():
    x10 = cancel(classical_limit(x2k_adn_formula(1, 0)))
    assert eval_classical(x10, ProjPoint((-2, 2, 5))).value == 252


def test_trivial_cartan_power_collapses_to_one():
    reduced = cancel(classical_limit(x2k_adn_formula(0, 0)))
    assert reduced.k == 0 and reduced.sign == 1 and reduced.scalar == 1


def test_x01_equals_adjoint_as_quantum_factor_list():
    # after sign-legal cancellation the ratio against the adjoint collapses
    quotient = cancel(ratio(cancel(x2k_adn_formula(0, 1)), adjoint_formula()))
    assert quotient.k == 0 and quotient.sign == 1


def test_x2k_rejects_negative_arguments():
    with pytest.raises(ValueError):
        x2k_adn_formula(-1, 0)


# --- symbolic values along family lines -------------------------------------------


def test_adjoint_polynomials_on_family_lines():
    adj = adjoint_formula()
    num, den = classical_on_family(adj, "sl")
    assert den == (Fraction(1),) and num == (Fraction(-1), Fraction(0), Fraction(1))  # N^2 - 1
    num, den = classical_on_family(adj, "so")
    assert den == (Fraction(1),) and num == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))
    num, den = classical_on_family(adj, "sp")
    assert den == (Fraction(1),) and num == (Fraction(0), Fraction(1), Fraction(2))


def test_adjoint_family_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    N = sympy.Symbol("N")
    rows = {
        "sl": (-2, 2, N),
        "so": (-2, 4, N - 4),
        "sp": (-2, 1, N + 2),
    }
    expected = {"sl": N**2 - 1, "so": N * (N - 1) / 2, "sp": N * (2 * N + 1)}
    for family, (a, b, c) in rows.items():
        expr = sympy.cancel(
            -((2 * a + 2 * b + c) * (2 * a + b + 2 * c) * (a + 2 * b + 2 * c)) / (a * b * c)
        )
        assert sympy.simplify(expr - expected[family]) == 0
        num, den = classical_on_family(adjoint_formula(), family)
        mine = sum(co * N**i for i, co in enumerate(num)) / sum(
            co * N**i for i, co in enumerate(den)
        )
        assert sympy.simplify(mine - expected[family]) == 0


def _family_oracle(sympy, F, family):
    """sympy's reduction of F along a family line, in the format of
    `classical_on_family`; None where a denominator factor vanishes there."""
    N = sympy.Symbol("N")
    point = {
        "sl": (-2, 2, N),
        "so": (-2, 4, N - 4),
        "sp": (-2, 1, N + 2),
        "exc": (-2, N + 4, 2 * N + 4),
    }[family]
    value = lambda form: sympy.expand(
        sum(sympy.Rational(q) * x for q, x in zip(form.coeffs, point))
    )
    num, den = [value(f) for f in F.num], [value(f) for f in F.den]
    if 0 in den:
        return None
    if 0 in num:
        return (), (Fraction(1),)
    top, bottom = sympy.fraction(
        sympy.cancel(F.sign * sympy.Rational(F.scalar) * sympy.Mul(*num) / sympy.Mul(*den))
    )
    top, bottom = sympy.Poly(top, N), sympy.Poly(bottom, N)
    lead = bottom.LC()
    ascending = lambda poly: tuple(Fraction(str(q / lead)) for q in reversed(poly.all_coeffs()))
    return ascending(top), ascending(bottom)


def _on_family(F, family):
    try:
        return classical_on_family(F, family)
    except ZeroDivisionError:
        return None


def test_family_reduction_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    products = [adjoint_formula()]
    for k in range(3):
        for n in range(3):
            limit = classical_limit(x2k_adn_formula(k, n))
            products += [limit, cancel(limit)]
    products += [_repeated_class_product(rng, quantum=False) for _ in range(60)]
    outcomes = Counter()
    for F in products:
        for family in FAMILIES:
            expected = _family_oracle(sympy, F, family)
            assert _on_family(F, family) == expected, (F, family)
            outcomes["pole" if expected is None else "zero" if not expected[0] else "value"] += 1
    # both vanishing cases occur, and most cases reduce to a value
    assert outcomes["pole"] and outcomes["zero"] and outcomes["value"] > 200


@pytest.mark.parametrize("family", FAMILIES)
def test_family_reduction_does_not_depend_on_the_basis(family, rng):
    products = [adjoint_formula(), cancel(classical_limit(x2k_adn_formula(1, 1)))]
    products += [_repeated_class_product(rng, quantum=False) for _ in range(20)]
    for F in products:
        assert _on_family(convert_product(F, Basis.PRIMED), family) == _on_family(F, family)


def test_family_reduction_of_factors_vanishing_on_the_line():
    sl, other = LinearForm((1, 1, 0)), LinearForm((0, 0, 1))
    for basis in Basis:
        on_line = lambda num, den: classical_on_family(
            convert_product(FactorProduct(num, den), basis), "sl"
        )
        assert on_line((sl, other), (other, other)) == ((), (Fraction(1),))
        with pytest.raises(ZeroDivisionError):
            on_line((other,), (sl,))
        with pytest.raises(ZeroDivisionError):
            on_line((sl,), (sl,))


# --- product algebra ----------------------------------------------------------------


def test_multiply_with_empty_is_identity():
    adj = adjoint_formula()
    assert multiply(adj, empty_product(quantum=True)) == adj


def test_ratio_with_self_cancels_to_one():
    adj = adjoint_formula()
    reduced = cancel(ratio(adj, adj))
    assert reduced.k == 0 and reduced.sign == 1 and reduced.scalar == 1


def test_ratio_of_product_recovers_factor():
    from vogeluniq.qsearch import builtin_q33

    q = builtin_q33(2, 3, 1, 1)
    adj = convert_product(classical_limit(adjoint_formula()), Basis.PRIMED)
    recovered = cancel(ratio(multiply(q, adj), adj))
    assert recovered.num == q.num and recovered.den == q.den
    assert recovered.sign == q.sign and recovered.scalar == q.scalar


def test_flag_and_basis_mismatches_raise():
    adj = adjoint_formula()
    with pytest.raises(ValueError):
        multiply(adj, empty_product(quantum=False))
    from vogeluniq.plane import BasisMismatchError

    with pytest.raises(BasisMismatchError):
        multiply(adj, empty_product(quantum=True, basis=Basis.PRIMED))


# --- cancellation --------------------------------------------------------------------


def test_classical_cancel_absorbs_proportional_pair():
    F = FactorProduct((LinearForm((1, 1, 0)),), (LinearForm((2, 2, 0)),))
    reduced = cancel(F)
    assert reduced.k == 0 and reduced.scalar == Fraction(1, 2) and reduced.sign == 1


def test_quantum_cancel_flips_sign_on_negated_pair():
    F = FactorProduct(
        (LinearForm((1, 1, 0)),), (LinearForm((-1, -1, 0)),), quantum=True
    )
    reduced = cancel(F)
    assert reduced.k == 0 and reduced.sign == -1


def test_quantum_cancel_keeps_scaled_pair():
    F = FactorProduct(
        (LinearForm((1, 1, 0)),), (LinearForm((2, 2, 0)),), quantum=True
    )
    assert cancel(F) == F


L1, L2, L3 = LinearForm((1, 1, 0)), LinearForm((0, 1, 2)), LinearForm((1, 0, 0))


def test_classical_cancel_pairs_in_order_and_folds_multipliers():
    # -L1 pairs with 2 L1 (q = -2), 3 L1 with L1 (q = 1/3); L2 and L3 survive
    F = FactorProduct(
        (L1.scaled(2), L1, L2), (-L1, L3, L1.scaled(3)), sign=-1, scalar=Fraction(3, 2)
    )
    assert cancel(F) == FactorProduct((L2,), (L3,))
    # the first numerator of a class is paired first, so 2 L1 survives, not L1
    F = FactorProduct((L1, L1.scaled(2), L2), (L1.scaled(3), L3, L2.scaled(-1)))
    assert cancel(F) == FactorProduct(
        (L1.scaled(2),), (L3,), sign=-1, scalar=Fraction(1, 3)
    )


def test_quantum_cancel_pairs_up_to_sign_in_order():
    F = FactorProduct((L1, -L1, L2, L1.scaled(2)), (-L1, L1, L3, L2), quantum=True, sign=-1)
    assert cancel(F) == FactorProduct((L1.scaled(2),), (L3,), quantum=True, sign=-1)
    F = FactorProduct((L1.scaled(2), -L1, L1), (L1, L3, -L1), quantum=True)
    assert cancel(F) == FactorProduct((L1.scaled(2),), (L3,), quantum=True)


def test_pair_factors_reports_the_pairing_and_multiplier():
    num = [L1.scaled(2).coeffs, L1.coeffs, L2.coeffs]
    den = [(-L1).coeffs, L3.coeffs, L1.scaled(3).coeffs]
    pairing, total = pair_factors(num, den, up_to_sign=False)
    assert pairing == [0, None, 1] and total == Fraction(-2, 3)
    pairing, total = pair_factors(num, den, up_to_sign=True)
    assert pairing == [1, None, None] and total == -1


def _repeated_class_product(rng, quantum):
    classes = []
    while len(classes) < 3:
        coeffs = [rng.randint(-2, 2) for _ in range(3)]
        if any(coeffs):
            classes.append(LinearForm(coeffs))
    mults = (1, -1) if quantum else (1, -1, 2, Fraction(-1, 2), 3)
    k = rng.randint(1, 5)
    forms = lambda: tuple(
        rng.choice(classes).scaled(rng.choice(mults)) for _ in range(k)
    )
    scalar = Fraction(1) if quantum else Fraction(rng.randint(1, 3), rng.randint(1, 3))
    return FactorProduct(
        forms(), forms(), quantum=quantum, sign=rng.choice((1, -1)), scalar=scalar
    )


def test_classical_cancel_against_sympy(rng):
    sympy = pytest.importorskip("sympy")
    abc = sympy.symbols("a b c")

    def value(F):
        expr = lambda form: sum(sympy.Rational(q) * x for q, x in zip(form.coeffs, abc))
        return (
            F.sign * sympy.Rational(F.scalar)
            * sympy.Mul(*map(expr, F.num)) / sympy.Mul(*map(expr, F.den))
        )

    for _ in range(60):
        F = _repeated_class_product(rng, quantum=False)
        reduced = cancel(F)
        assert sympy.cancel(value(F) - value(reduced)) == 0
        # nothing cancels further: the reduced numerator has full degree
        top, _ = sympy.fraction(sympy.cancel(value(F)))
        assert sympy.Poly(top, *abc).total_degree() == reduced.k


def test_quantum_cancel_against_sign_normalized_counts(rng):
    def normalized(forms):
        flips, counts = 1, Counter()
        for form in forms:
            flip = -1 if next(q for q in form.coeffs if q) < 0 else 1
            flips *= flip
            counts[form.coeffs if flip == 1 else (-form).coeffs] += 1
        return flips, counts

    for _ in range(60):
        F = _repeated_class_product(rng, quantum=True)
        reduced = cancel(F)
        num_flips, num = normalized(F.num)
        den_flips, den = normalized(F.den)
        left_num_flips, left_num = normalized(reduced.num)
        left_den_flips, left_den = normalized(reduced.den)
        assert left_num == num - den and left_den == den - num
        assert (
            reduced.sign * left_num_flips * left_den_flips
            == F.sign * num_flips * den_flips
        )


def test_cancel_is_idempotent_and_preserves_values(rng):
    for _ in range(20):
        forms = []
        while len(forms) < 6:
            coords = [rand_rational(rng, 9) for _ in range(3)]
            if any(c != 0 for c in coords):
                forms.append(LinearForm(coords))
        num = tuple(forms[:3]) + (forms[0].scaled(3),)
        den = tuple(forms[3:]) + (forms[0],)
        F = FactorProduct(num, den)
        reduced = cancel(F)
        assert cancel(reduced) == reduced
        point = ProjPoint((Fraction(3, 7), Fraction(-2, 5), Fraction(11, 4)))
        before = eval_classical(F, point)
        after = eval_classical(reduced, point)
        if before.is_finite and after.is_finite:
            assert before.value == after.value


def test_cancel_preserves_quantum_values(rng):
    forms = [LinearForm((1, 2, 3)), LinearForm((4, -1, 2)), LinearForm((0, 1, 1))]
    F = FactorProduct(
        tuple(forms) + (LinearForm((2, 4, 6)),),
        (LinearForm((-2, -4, -6)),) + tuple(forms),
        quantum=True,
    )
    reduced = cancel(F)
    point = ProjPoint((Fraction(1, 3), Fraction(5, 2), Fraction(-7, 4)))
    for x in (0.3, 1.1):
        assert math.isclose(
            eval_quantum(F, point, x), eval_quantum(reduced, point, x), rel_tol=1e-12
        )


def test_adjoint_integer_values_across_families():
    adj = adjoint_formula()
    for N in range(2, 12):
        value = eval_classical(adj, vogel_point("sl", N).point).value
        assert value == N * N - 1
    for N in range(5, 12):
        value = eval_classical(adj, vogel_point("so", N).point).value
        assert value == N * (N - 1) / 2 and value.denominator == 1
    for N in range(1, 8):
        value = eval_classical(adj, vogel_point("sp", N).point).value
        assert value == N * (2 * N + 1)


# --- serialization -------------------------------------------------------------------


def test_formula_json_round_trip_is_bit_exact():
    from vogeluniq.qsearch import builtin_q_prop4

    for F in (adjoint_formula(), builtin_q_prop4(Fraction(1, 3), 2, -5, Fraction(7, 2))):
        again = FactorProduct.from_json(F.to_json())
        assert again == F


def test_quantum_products_reject_scalars():
    with pytest.raises(ValueError):
        FactorProduct(
            (LinearForm((1, 0, 0)),),
            (LinearForm((0, 1, 0)),),
            quantum=True,
            scalar=Fraction(2),
        )
