from fractions import Fraction

import pytest

from vogeluniq.plane import (
    ALL_PERM3,
    IDENTITY,
    SWAP_AB,
    SWAP_BG,
    Basis,
    BasisMismatchError,
    DegenerateInputError,
    LinearForm,
    Perm3,
    ProjPoint,
    act,
    convert,
    distinguished_lines,
    family_line,
    incident,
    line_through,
    meet,
    span_points,
    to_primed,
    to_unprimed,
    vogel_point,
)
from conftest import rand_rational


def rand_point(rng, basis=Basis.UNPRIMED):
    while True:
        coords = [rand_rational(rng, 50) for _ in range(3)]
        if any(c != 0 for c in coords):
            return ProjPoint(coords, basis)


def rand_form(rng, basis=Basis.UNPRIMED):
    while True:
        coords = [rand_rational(rng, 50) for _ in range(3)]
        if any(c != 0 for c in coords):
            return LinearForm(coords, basis)


# --- table of family parameters -------------------------------------------------


@pytest.mark.parametrize(
    "family,param,coords,t",
    [
        ("sl", 5, (-2, 2, 5), 5),
        ("so", 7, (-2, 4, 3), 5),
        ("sp", 3, (-2, 1, 5), 4),
        ("exc", 8, (-2, 12, 20), 30),
        ("exc", Fraction(-2, 3), (-2, Fraction(10, 3), Fraction(8, 3)), 4),
    ],
)
def test_vogel_point_rows(family, param, coords, t):
    ap = vogel_point(family, param)
    assert ap.point.coords == tuple(Fraction(c) for c in coords)
    assert ap.t == t
    assert ap.t == sum(ap.point.coords)
    assert incident(ap.point, family_line(family))


def test_vogel_point_integrality_flag():
    assert vogel_point("sl", 5).integer_param
    assert not vogel_point("exc", Fraction(-2, 3)).integer_param


def test_vogel_point_rejects_unknown_family():
    with pytest.raises(ValueError):
        vogel_point("su", 3)


def test_family_points_stay_on_their_lines_for_rational_params(rng):
    for family in ("sl", "so", "sp", "exc"):
        for _ in range(10):
            ap = vogel_point(family, rand_rational(rng, 100))
            assert incident(ap.point, family_line(family))


# --- coordinate change -----------------------------------------------------------


def test_sl_point_maps_to_first_coordinate_zero():
    primed = to_primed(ProjPoint((-2, 2, 5)))
    assert primed.coords == (Fraction(0), Fraction(-2), Fraction(5))
    assert primed.basis is Basis.PRIMED


def test_family_lines_become_coordinate_lines_and_sp():
    assert to_primed(family_line("sl")).canonical() == (1, 0, 0)
    assert to_primed(family_line("so")).canonical() == (0, 1, 0)
    assert to_primed(family_line("exc")).canonical() == (0, 0, 1)
    assert to_primed(family_line("sp")).canonical() == (1, Fraction(-1, 3), 0)  # 3a' - b'


def test_inverse_of_first_primed_basis_point():
    pt = to_unprimed(ProjPoint((1, 0, 0), Basis.PRIMED))
    assert pt.coords == (Fraction(-1), Fraction(2), Fraction(2))


def test_primed_sp_form_returns_to_unprimed_sp():
    sp_primed = LinearForm((3, -1, 0), Basis.PRIMED)
    assert to_unprimed(sp_primed).same_line(family_line("sp"))


def test_round_trip_on_random_points_and_forms(rng):
    for _ in range(100):
        p = rand_point(rng)
        assert to_unprimed(to_primed(p)) == p
        f = rand_form(rng)
        back = to_unprimed(to_primed(f))
        assert back.coeffs == f.coeffs


def test_basis_mismatch_errors():
    with pytest.raises(BasisMismatchError):
        to_primed(ProjPoint((1, 0, 0), Basis.PRIMED))
    with pytest.raises(BasisMismatchError):
        to_unprimed(ProjPoint((1, 0, 0)))


def test_incidence_invariant_under_basis_change(rng):
    for _ in range(50):
        f = rand_form(rng)
        p0, p1 = span_points(f)
        assert incident(p0, f) and incident(p1, f)
        assert incident(to_primed(p0), to_primed(f))


# --- coordinate permutations ------------------------------------------------------


def test_swap_ab_takes_so_line_to_sp_line():
    image = act(SWAP_AB, family_line("so"))
    assert image.same_line(family_line("sp"))


def test_identity_action_is_trivial(rng):
    p = rand_point(rng)
    f = rand_form(rng)
    assert act(IDENTITY, p) == p
    assert act(IDENTITY, f).coeffs == f.coeffs


def test_primed_action_of_swap_ab_matches_displayed_matrix(rng):
    for _ in range(20):
        pt = rand_point(rng, Basis.PRIMED)
        a, b, c = pt.coords
        image = act(SWAP_AB, pt)
        assert image == ProjPoint((a, 3 * a - b, c), Basis.PRIMED)


def test_primed_action_of_swap_bg_matches_displayed_matrix(rng):
    for _ in range(20):
        pt = rand_point(rng, Basis.PRIMED)
        a, b, c = pt.coords
        image = act(SWAP_BG, pt)
        assert image == ProjPoint((a + b + c, 2 * b + c, -3 * b - 2 * c), Basis.PRIMED)


def test_generators_satisfy_group_relations(rng):
    for _ in range(20):
        pt = rand_point(rng)
        assert act(SWAP_AB, act(SWAP_AB, pt)) == pt
        assert act(SWAP_BG, act(SWAP_BG, pt)) == pt
        image = pt
        for _ in range(3):
            image = act(SWAP_AB, act(SWAP_BG, image))
        assert image == pt


def test_incidence_invariant_under_simultaneous_action(rng):
    for perm in ALL_PERM3:
        for _ in range(10):
            f = rand_form(rng)
            p, _ = span_points(f)
            assert incident(act(perm, p), act(perm, f))


def test_perm3_validation_and_inverse():
    with pytest.raises(ValueError):
        Perm3((0, 0, 2))
    cyc = Perm3((1, 2, 0))
    assert cyc.compose(cyc.inverse()).is_identity()


# --- distinguished lines ----------------------------------------------------------


def test_twelve_distinguished_lines_unprimed_content():
    lines = distinguished_lines()
    assert len(lines) == 12
    canon = {f.canonical() for f in lines}
    assert len(canon) == 12
    for probe in (LinearForm((1, 1, 0)), LinearForm((2, 1, 0)),
                  LinearForm((1, 2, 0)), LinearForm((-2, -2, 1))):
        assert probe.canonical() in canon


def test_twelve_distinguished_lines_primed_content():
    lines = distinguished_lines(Basis.PRIMED)
    canon = {f.canonical() for f in lines}
    assert LinearForm((3, -1, 0), Basis.PRIMED).canonical() in canon
    assert LinearForm((0, -3, -2), Basis.PRIMED).canonical() in canon
    assert LinearForm((-9, 3, -2), Basis.PRIMED).canonical() in canon
    assert LinearForm((1, 1, 1), Basis.PRIMED).canonical() in canon


def test_distinguished_set_closed_under_all_permutations():
    lines = distinguished_lines()
    canon = {f.canonical() for f in lines}
    for perm in ALL_PERM3:
        assert {act(perm, f).canonical() for f in lines} == canon


def test_primed_and_unprimed_lists_correspond():
    primed = {f.canonical() for f in distinguished_lines(Basis.PRIMED)}
    mapped = {to_primed(f).canonical() for f in distinguished_lines()}
    assert primed == mapped


# --- incidence operations ----------------------------------------------------------


def test_sl_point_is_on_sl_form():
    assert incident(ProjPoint((-2, 2, 5)), LinearForm((1, 1, 0)))


def test_meet_of_primed_coordinate_lines():
    a = LinearForm((1, 0, 0), Basis.PRIMED)
    b = LinearForm((0, 1, 0), Basis.PRIMED)
    assert meet(a, b) == ProjPoint((0, 0, 1), Basis.PRIMED)


def test_line_through_basis_points():
    line = line_through(ProjPoint((1, 0, 0)), ProjPoint((0, 1, 0)))
    assert line.same_line(LinearForm((0, 0, 1)))


def test_meet_then_incident_holds_for_random_lines(rng):
    for _ in range(50):
        f, g = rand_form(rng), rand_form(rng)
        if f.same_line(g):
            continue
        pt = meet(f, g)
        assert incident(pt, f) and incident(pt, g)


def test_degenerate_inputs_raise():
    p = ProjPoint((1, 2, 3))
    with pytest.raises(DegenerateInputError):
        line_through(p, p.scaled(5))
    f = LinearForm((1, 2, 3))
    with pytest.raises(DegenerateInputError):
        meet(f, f.scaled(-2))
    with pytest.raises(DegenerateInputError):
        ProjPoint((0, 0, 0))


def test_projective_equality_and_hashing():
    assert ProjPoint((2, 4, 6)) == ProjPoint((1, 2, 3))
    assert hash(ProjPoint((2, 4, 6))) == hash(ProjPoint((1, 2, 3)))
    assert ProjPoint((1, 2, 3)) != ProjPoint((1, 2, 3), Basis.PRIMED)
    # forms compare exactly; the projective view is explicit
    assert LinearForm((2, 4, 6)) != LinearForm((1, 2, 3))
    assert LinearForm((2, 4, 6)).same_line(LinearForm((1, 2, 3)))


def test_span_points_matches_documented_parametrization():
    p0, p1 = span_points(LinearForm((1, 0, 0), Basis.PRIMED))
    assert p0 == ProjPoint((0, 1, 0), Basis.PRIMED)
    assert p1 == ProjPoint((0, 0, 1), Basis.PRIMED)


def test_json_round_trip(rng):
    for _ in range(20):
        p = rand_point(rng)
        assert ProjPoint.from_json(p.to_json()) == p
        f = rand_form(rng)
        assert LinearForm.from_json(f.to_json()).coeffs == f.coeffs


@pytest.mark.parametrize("cls,what", [(ProjPoint, "a point"), (LinearForm, "a linear form")])
@pytest.mark.parametrize(
    "obj,message",
    [
        ([1, 2], "must be an object with the keys coeffs, basis, got [1, 2]"),
        ({"basis": "primed"}, 'has no "coeffs" key'),
        ({"coeffs": [[1, 1]] * 3}, 'has no "basis" key'),
        ({"coeffs": 5, "basis": "primed"}, "needs coeffs as a list of three rationals, got 5"),
        ({"coeffs": [[1, 1]] * 2, "basis": "primed"}, "needs coeffs as a list of three rationals"),
    ],
)
def test_from_json_names_what_is_malformed(cls, what, obj, message):
    with pytest.raises(ValueError) as err:
        cls.from_json(obj)
    assert str(err.value).startswith(f"{what} {message}")


def test_convert_is_identity_on_matching_basis(rng):
    p = rand_point(rng)
    assert convert(p, Basis.UNPRIMED) is p
