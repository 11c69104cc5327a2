import hashlib
import importlib.util
import itertools
import json
import random
import re
from pathlib import Path

import pytest

from vogeluniq import configs
from vogeluniq.configs import (
    Coloring,
    ConfigurationTable,
    MalformedColoringError,
    NotAQPictureError,
    _canonicalize,
    _complete_n3,
    _lex_minimal,
    _prefix_stabilizer,
    canonical_form,
    choose_chart,
    emit_svg,
    enumerate_n3,
    extract_permutations,
    find_coloring,
    isomorphic,
    sketch_from_q,
    validate_coloring,
    validate_table,
)
from vogeluniq.formula import FactorProduct
from vogeluniq.plane import Basis, LinearForm, incident
from vogeluniq.qsearch import PRIMED_LINES, builtin_q33, builtin_q_prop4

NINE = ConfigurationTable(
    [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9),
     (1, 5, 9), (2, 6, 7), (3, 4, 8)]
)


# --- validation -------------------------------------------------------------------


def test_nine_point_table_is_valid():
    assert validate_table(NINE) == []
    assert (NINE.p, NINE.l, NINE.gamma, NINE.pi) == (9, 9, 3, 3)


def test_duplicate_label_in_a_column_is_reported():
    table = ConfigurationTable([(1, 1, 2), (1, 2, 3)])
    assert any("repeats" in v for v in validate_table(table))


def test_shared_pair_between_columns_is_reported():
    table = ConfigurationTable([(1, 2, 3), (1, 2, 4)])
    assert any("share points" in v for v in validate_table(table))


def test_unbalanced_degrees_are_reported():
    table = ConfigurationTable([(1, 2, 3), (1, 4, 5), (2, 4, 6)])
    violations = validate_table(table)
    assert violations


# --- canonical forms and isomorphism ------------------------------------------------


def test_canonical_form_is_idempotent():
    canon = canonical_form(NINE)
    assert canonical_form(canon).columns == canon.columns


def _relabeled(table, rng):
    """The table with its point labels permuted and its columns shuffled."""
    labels = list(table.points)
    image = dict(zip(table.points, rng.sample(labels, len(labels))))
    columns = [[image[v] for v in col] for col in table.columns]
    rng.shuffle(columns)
    return ConfigurationTable(columns)


def _cayley_table(elements, mul):
    """The (k^2_3 3k_k) table of rows, columns and symbols of the Cayley
    table of a group of order k; point k*r + c is the cell (r, c)."""
    elements = list(elements)
    k = len(elements)
    rows = [[k * r + c for c in range(k)] for r in range(k)]
    cols = [[k * r + c for r in range(k)] for c in range(k)]
    index = {a: i for i, a in enumerate(elements)}
    symbols = [[] for _ in elements]
    for r, a in enumerate(elements):
        for c, b in enumerate(elements):
            symbols[index[mul(a, b)]].append(k * r + c)
    return ConfigurationTable(rows + cols + symbols)


def _cyclic_group_table(k):
    """The Cayley table of the cyclic group of order k."""
    return _cayley_table(range(k), lambda a, b: (a + b) % k)


# Groups of order 8: (x, y) in Z4 x Z2, and (r, f) in D4, the rotation r
# followed by f reflections.
Z2_CUBED = _cayley_table(range(8), lambda a, b: a ^ b)
Z4_Z2 = _cayley_table(
    itertools.product(range(4), range(2)), lambda a, b: ((a[0] + b[0]) % 4, a[1] ^ b[1])
)
D4 = _cayley_table(
    itertools.product(range(4), range(2)),
    lambda a, b: ((a[0] + (-b[0] if a[1] else b[0])) % 4, a[1] ^ b[1]),
)
# AG(2,3): the 12 lines of the affine plane of order 3, a (9_4 12_3).
AG23 = ConfigurationTable(
    [[3 * x + (m * x + c) % 3 for x in range(3)] for m in range(3) for c in range(3)]
    + [[3 * c + y for y in range(3)] for c in range(3)]
)


def test_canonical_form_is_invariant_under_relabeling():
    rng = random.Random(2021)
    p4 = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"]).table
    # the group table has 144 points on 36 lines, the size of a 12-line picture
    tables = enumerate_n3(9) + enumerate_n3(10) + [p4, _cyclic_group_table(12)]
    for table in tables:
        canon = canonical_form(table)
        for _ in range(10):
            assert canonical_form(_relabeled(table, rng)).columns == canon.columns


def test_relabeled_tables_are_isomorphic():
    rng = random.Random(42)
    labels = list(range(1, 10))
    for _ in range(5):
        rng.shuffle(labels)
        relabel = {old: labels[i] for i, old in enumerate(range(1, 10))}
        shuffled_cols = [tuple(relabel[v] for v in col) for col in NINE.columns]
        rng.shuffle(shuffled_cols)
        other = ConfigurationTable(shuffled_cols)
        assert isomorphic(NINE, other)


def test_different_classes_are_not_isomorphic():
    classes = enumerate_n3(9)
    assert not isomorphic(classes[0], classes[1])
    assert not isomorphic(classes[1], classes[2])


def _n3_pairs():
    """(a, b) pairs of (9_3) and (10_3) tables under fixed relabelings:
    each class against a relabeled copy of itself and of every later
    class with the same n."""
    rng = random.Random(1903)
    pairs = []
    for n in (9, 10):
        classes = enumerate_n3(n)
        for i, a in enumerate(classes):
            pairs += [(a, _relabeled(b, rng)) for b in classes[i:]]
    return pairs


def test_isomorphic_agrees_with_the_backtracking_oracle():
    oracle = _bench_oracle()
    rng = random.Random(1904)
    p4 = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"]).table
    fano = enumerate_n3(7)[0]
    pairs = _n3_pairs()
    pairs += [(t, _relabeled(t, rng)) for t in (p4, fano, AG23)]
    # The sketch's table is the Cayley table of Z2 x Z2.  (The oracle needs
    # minutes to tell it from Z4's, so that pair is left out.)
    pairs.append((p4, _relabeled(_cayley_table(range(4), int.__xor__), rng)))
    verdicts = [isomorphic(a, b) for a, b in pairs]
    assert verdicts == [oracle.isomorphic(a.columns, b.columns) for a, b in pairs]
    assert 0 < sum(verdicts) < len(verdicts)


def _refinements(monkeypatch, call, *args):
    """How many `_refine` calls `call(*args)` makes, and its result."""
    count = 0
    refine = configs._refine

    def counting(*refine_args):
        nonlocal count
        count += 1
        return refine(*refine_args)

    monkeypatch.setattr(configs, "_refine", counting)
    result = call(*args)
    monkeypatch.setattr(configs, "_refine", refine)
    return count, result


@pytest.mark.parametrize(
    "a,b", [(_cyclic_group_table(8), Z2_CUBED), (Z4_Z2, D4)], ids=["Z8-Z2^3", "Z4xZ2-D4"]
)
def test_isomorphic_runs_no_more_refinements_than_two_canonical_forms(monkeypatch, a, b):
    both = sum(_refinements(monkeypatch, canonical_form, t)[0] for t in (a, b))
    calls, same = _refinements(monkeypatch, isomorphic, a, b)
    assert not same
    # not isomorphic: both searches run to their end
    assert calls == both


def test_isomorphic_stops_early_on_relabeled_copies(monkeypatch):
    rng = random.Random(1905)
    pairs = [(t, _relabeled(t, rng)) for t in enumerate_n3(9) + enumerate_n3(10)]
    in_step = full = 0
    for a, b in pairs:
        calls, same = _refinements(monkeypatch, isomorphic, a, b)
        assert same
        in_step += calls
        full += sum(_refinements(monkeypatch, canonical_form, t)[0] for t in (a, b))
    assert in_step < full


def test_canonical_forms_column_orders_and_colorings_are_pinned():
    # Canonical forms, column orders and colorings of a fixed table set: a
    # change to the labeling search that moves any of them moves the digest.
    rng = random.Random(1919)
    p4 = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"]).table
    tables = [t for n in range(7, 11) for t in enumerate_n3(n)] + [p4, _cyclic_group_table(12)]
    tables += [_relabeled(t, rng) for t in tables for _ in range(2)]
    digest = hashlib.sha256()
    colored = 0
    for table in tables:
        canon, col_order = _canonicalize(table)
        coloring = find_coloring(table) if table.gamma == 3 and table.l % 3 == 0 else None
        colored += coloring is not None
        entry = [canon.columns, col_order, coloring and coloring.to_json()]
        digest.update(json.dumps(entry).encode())
    assert (len(tables), colored) == (51, 9)
    assert digest.hexdigest() == "37dab0ca974791ffe96cd505c4e58da38df69f321f2d269b8c6e8b18ee67f676"


# --- enumeration ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,count", [(3, 0), (4, 0), (5, 0), (6, 0), (7, 1), (8, 1), (9, 3), (10, 10)]
)
def test_small_n3_counts(n, count):
    assert len(enumerate_n3(n)) == count


def test_enumeration_bound():
    with pytest.raises(ValueError):
        enumerate_n3(12)


PREFIX = [(0, 1, 2), (0, 3, 4), (0, 5, 6)]


def _label_every_raw_table(n):
    """Canonical forms of all raw tables in order of first appearance: the
    enumeration without the orbit test."""
    keys = []
    for table in _complete_n3(n, PREFIX if n >= 7 else []):
        key = canonical_form(table).columns
        if key not in keys:
            keys.append(key)
    return keys


def _stabilizer_by_filtering(n):
    """Every permutation of 0..n-1 that maps the prefix lines onto themselves.
    Such a permutation fixes 0 (on all three lines) and the point set 1..6."""
    out = []
    for head in itertools.permutations(range(1, 7)):
        g = (0,) + head
        if {tuple(sorted(g[v] for v in line)) for line in PREFIX} == set(PREFIX):
            out += [g + tail for tail in itertools.permutations(range(7, n))]
    return out


def _lex_minimal_by_sorting(columns, perms):
    return all(
        sorted(tuple(sorted(g[v] for v in col)) for col in columns) >= list(columns)
        for g in perms
    )


@pytest.mark.parametrize("n", range(1, 10))
def test_enumeration_matches_labeling_every_raw_table(n):
    assert [t.columns for t in enumerate_n3(n)] == _label_every_raw_table(n)


def test_the_orbit_test_keeps_exactly_the_lex_minimal_tables():
    perms = _stabilizer_by_filtering(9)
    assert len(perms) == 96
    raw = _complete_n3(9, PREFIX)
    expected = [t for t in raw if _lex_minimal_by_sorting(t.columns, perms)]
    group = _prefix_stabilizer(9)
    assert [t for t in raw if _lex_minimal(t.columns[3:], group)] == expected
    pruned = _complete_n3(9, PREFIX, group)
    assert [t for t in pruned if _lex_minimal(t.columns[3:], group)] == expected


def _bench_oracle():
    """bench/oracle.py, the benchmark's independent reference checks."""
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    return oracle


def test_ten_three_classes_are_distinct_valid_and_come_from_orbit_minimal_tables():
    oracle = _bench_oracle()
    classes = enumerate_n3(10)
    assert len(classes) == 10
    assert all(validate_table(t) == [] for t in classes)
    for a, b in itertools.combinations(classes, 2):
        assert not oracle.isomorphic(a.columns, b.columns)
    perms = _stabilizer_by_filtering(10)
    assert len(perms) == 288
    group = _prefix_stabilizer(10)
    kept = [t for t in _complete_n3(10, PREFIX, group) if _lex_minimal(t.columns[3:], group)]
    assert all(_lex_minimal_by_sorting(t.columns, perms) for t in kept)
    assert {canonical_form(t).columns for t in kept} == {t.columns for t in classes}


def test_fano_table_shape():
    fano = enumerate_n3(7)[0]
    assert (fano.p, fano.l, fano.gamma, fano.pi) == (7, 7, 3, 3)
    assert validate_table(fano) == []


def test_exactly_one_nine_class_is_colorable():
    classes = enumerate_n3(9)
    colorable = [t for t in classes if find_coloring(t) is not None]
    assert len(colorable) == 1
    assert isomorphic(colorable[0], NINE)


# --- coloring -------------------------------------------------------------------------


def test_nine_table_coloring_is_valid_and_balanced():
    coloring = find_coloring(NINE)
    assert coloring is not None
    assert validate_coloring(NINE, coloring) == []
    assert len(coloring.black) == len(coloring.red) == len(coloring.green) == 3


def test_the_documented_example_coloring_validates():
    example = Coloring((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert validate_coloring(NINE, example) == []


def test_coloring_success_is_independent_of_column_order():
    rng = random.Random(7)
    cols = list(NINE.columns)
    for _ in range(5):
        rng.shuffle(cols)
        shuffled = ConfigurationTable(cols)
        assert find_coloring(shuffled) is not None
    # canonical tables color identically no matter the input order
    assert find_coloring(canonical_form(NINE)) == find_coloring(
        canonical_form(ConfigurationTable(list(reversed(NINE.columns))))
    )


def test_coloring_of_a_relabeled_table_is_valid():
    rng = random.Random(11)
    p4 = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"]).table
    for table in (NINE, p4):
        for _ in range(5):
            relabeled = _relabeled(table, rng)
            coloring = find_coloring(relabeled)
            assert coloring is not None
            assert validate_coloring(relabeled, coloring) == []


def test_uncolorable_classes_return_none():
    classes = enumerate_n3(9)
    uncolorable = [t for t in classes if find_coloring(t) is None]
    assert len(uncolorable) == 2


def test_fano_is_not_colorable():
    # 7 lines cannot split into three equal classes
    with pytest.raises(ValueError):
        find_coloring(enumerate_n3(7)[0])


# --- permutation extraction -------------------------------------------------------------


def test_extraction_from_documented_coloring_gives_three_cycles():
    example = Coloring((0, 1, 2), (3, 4, 5), (6, 7, 8))
    s, p = extract_permutations(NINE, example)
    assert sorted(s) == [0, 1, 2] and sorted(p) == [0, 1, 2]
    assert all(s[i] != i for i in range(3))
    assert all(p[i] != i for i in range(3))
    assert s != p


def test_extraction_is_stable_under_green_relabeling():
    example = Coloring((0, 1, 2), (3, 4, 5), (6, 7, 8))
    swapped = Coloring((0, 1, 2), (3, 4, 5), (8, 7, 6))
    assert extract_permutations(NINE, example) == extract_permutations(NINE, swapped)


def test_extraction_rejects_malformed_colorings():
    bad = Coloring((0, 1, 3), (2, 4, 5), (6, 7, 8))
    with pytest.raises(MalformedColoringError):
        extract_permutations(NINE, bad)


@pytest.mark.parametrize("columns,message", [
    # black line 0 holds two points of green line 4
    ([(1, 2), (3, 4), (1, 3), (2, 4), (1, 2), (3, 4)], "green line 4 pairs twice on black line 0"),
    # black line 0 holds one point, so its pairing misses green 1 and red 1
    ([(1,), (2, 3), (1, 3), (2,), (1, 3), (2,)], "pairing on black line 0 is not a bijection"),
])
def test_extraction_rejects_pairings_of_tables_that_fail_validation(columns, message):
    # The coloring is valid on these tables, but `validate_table` rejects them
    # and `extract_permutations` does not call it.
    table = ConfigurationTable(columns)
    coloring = Coloring((0, 1), (2, 3), (4, 5))
    assert validate_coloring(table, coloring) == [] and validate_table(table) != []
    with pytest.raises(MalformedColoringError, match=message):
        extract_permutations(table, coloring)


def test_extraction_rejects_a_coloring_without_black_lines():
    with pytest.raises(MalformedColoringError, match="no black line"):
        extract_permutations(ConfigurationTable([]), Coloring((), (), ()))


# --- sketches ---------------------------------------------------------------------------


def test_three_line_sketch_structure():
    sketch = sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["three"])
    assert len(sketch.points) == 9
    assert validate_table(sketch.table) == []
    assert (sketch.table.p, sketch.table.l) == (9, 9)
    for pt, (form, _) in (
        (pt, (form, None))
        for pt in sketch.points
        for form in sketch.line_forms
        if incident(pt, form)
    ):
        assert incident(pt, form)


def test_three_line_sketch_matches_the_colorable_class():
    sketch = sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["three"])
    assert isomorphic(sketch.table, NINE)
    s, p = extract_permutations(sketch.table, sketch.coloring)
    assert all(s[i] != i for i in range(3)) and all(p[i] != i for i in range(3)) and s != p


def test_four_line_sketch_is_a_sixteen_twelve_table():
    sketch = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"])
    assert len(sketch.points) == 16
    table = sketch.table
    assert (table.p, table.l, table.gamma, table.pi) == (16, 12, 3, 4)
    assert validate_table(table) == []
    perms = extract_permutations(table, sketch.coloring)
    assert perms == ((1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1))


def test_sketch_labels_name_the_distinguished_lines():
    sketch = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"])
    assert sketch.line_labels[:4] == ("sl", "so", "exc", "sp")


@pytest.mark.parametrize("product,lines,digest", [
    (builtin_q33(2, 3, 1, 1), "three",
     "6ca534daef9d4792907164f7a71ff9f86f2d65c3ccb0b8d5ba77074bbd6a4013"),
    (builtin_q_prop4(1, 2, 3, 5), "four",
     "6f06542e3be12af44ef318e6498bca19979bef04d657c691a9bdbd5ece2112bc"),
])
def test_sketch_svg_is_pinned(product, lines, digest):
    svg = emit_svg(sketch_from_q(product, PRIMED_LINES[lines]))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_random_product_is_not_a_picture(rng):
    from conftest import rand_rational

    while True:
        forms = []
        while len(forms) < 6:
            coords = [rand_rational(rng, 9) for _ in range(3)]
            if any(c != 0 for c in coords):
                forms.append(LinearForm(coords, Basis.PRIMED))
        try:
            F = FactorProduct(tuple(forms[:3]), tuple(forms[3:]), basis=Basis.PRIMED)
        except ValueError:
            continue
        break
    with pytest.raises(NotAQPictureError):
        sketch_from_q(F, PRIMED_LINES["three"])


def test_sketch_black_line_count_must_match_k():
    with pytest.raises(NotAQPictureError):
        sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["four"])


def test_sketch_point_representatives_are_pinned():
    # The SVG digest does not see the scale of a point; `sketch --json` does.
    # Each point is stored as the meet of its red and its green line.
    three = sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["three"])
    assert [pt.coords for pt in three.points] == [
        (0, 1, -1), (0, -5, 15), (0, 4, -24),
        (-2, 0, 2), (-3, 0, 18), (5, 0, -10),
        (-5, 5, 0), (2, -4, 0), (3, -1, 0),
    ]
    four = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"])
    assert [pt.coords for pt in four.points] == [
        (0, 85, 34), (0, -85, -51), (0, -85, 51), (0, 85, -34),
        (5, 0, 1), (-5, 0, 16), (5, 0, -1), (-5, 0, -16),
        (20, -10, 0), (30, 160, 0), (-30, 10, 0), (-20, -160, 0),
        (25, 75, 35), (25, 75, -35), (-25, -75, 50), (-25, -75, -50),
    ]
    assert all(pt.basis is Basis.PRIMED for pt in three.points + four.points)


def _primed_product(num, den):
    return FactorProduct(
        tuple(LinearForm(c, Basis.PRIMED) for c in num),
        tuple(LinearForm(c, Basis.PRIMED) for c in den),
        basis=Basis.PRIMED,
    )


# Black lines a' = 0, b' = 0, c' = 0.  Red line 0 = (1, 1, 0) meets a' = 0 at
# (0 : 0 : 1), which also lies on b' = 0; reds 1 and 2 meet a' = 0 at
# (0 : 1 : -1) and (0 : 2 : -1), where greens 1 and 2 pass.
_REDS = [(1, 1, 0), (1, 1, 1), (1, 1, 2)]
_GREENS_12 = [(2, 1, 1), (3, 1, 2)]


@pytest.mark.parametrize("num,den,message", [
    # no green line through (0 : 0 : 1)
    (_REDS, [(1, 2, 1)] + _GREENS_12, "red line 0 meets black line 0 on 0 green lines"),
    # greens (1, 1, 1) and (2, 1, 1) both pass through (0 : 1 : -1), where
    # red (3, 1, 1) meets a' = 0
    ([(3, 1, 1), (1, 2, 3), (1, 5, 7)], [(1, 1, 1), (2, 1, 1), (1, -3, 11)],
     "red line 0 meets black line 0 on 2 green lines"),
    # a green line meets a black line once, so its two triple points there
    # coincide: reds 0 and 1 both meet a' = 0 at (0 : 1 : -1)
    ([(3, 1, 1), (5, 1, 1), (1, 5, 7)], [(1, 1, 1), (1, 2, 3), (1, -3, 11)],
     "green line 0 crosses black line 0 at two triple points"),
    # green (1, 2, 0) passes through (0 : 0 : 1), which b' = 0 meets again
    (_REDS, [(1, 2, 0)] + _GREENS_12,
     "triple point of black line 1 already lies on black line 0"),
])
def test_sketch_rejects_hand_built_non_pictures(num, den, message):
    with pytest.raises(NotAQPictureError, match=re.escape(message)):
        sketch_from_q(_primed_product(num, den), PRIMED_LINES["three"])


def test_sketch_cli_exits_2_on_a_triple_point_of_two_black_lines(tmp_path, capsys):
    from vogeluniq.cli import main

    path = tmp_path / "product.json"
    path.write_text(json.dumps(_primed_product(_REDS, [(1, 2, 0)] + _GREENS_12).to_json()))
    assert main(["sketch", "--formula-json", str(path), "--black", "sl,so,exc"]) == 2
    assert capsys.readouterr().err == (
        "error: triple point of black line 1 already lies on black line 0\n"
    )


# --- svg ---------------------------------------------------------------------------------


def test_svg_is_deterministic_and_marks_all_points(tmp_path):
    sketch = sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["three"])
    out = tmp_path / "pic.svg"
    text1 = emit_svg(sketch, out)
    text2 = emit_svg(sketch)
    assert text1 == text2
    assert out.read_text() == text1
    assert text1.count("<circle") == 9
    assert text1.startswith("<?xml")


def test_chart_avoids_sketch_points():
    sketch = sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["three"])
    chart = choose_chart(sketch)
    # the triple points sit on the coordinate lines, so the default chart
    # must fall back to a line through none of them
    assert all(not incident(pt, chart) for pt in sketch.points)


def test_table_json_round_trip():
    data = NINE.to_json()
    assert ConfigurationTable.from_json(data).columns == NINE.columns
    coloring = Coloring((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert Coloring.from_json(coloring.to_json()) == coloring


def _multipliers_from_factors(F, s, p, v=None):
    """Recover the per-line cancellation multipliers of a factor product whose
    denominator shares (x, y) with the numerator factor-wise."""
    n = [f.coeffs[0] for f in F.num]
    x = [f.coeffs[1] for f in F.num]
    y = [f.coeffs[2] for f in F.num]
    m = [f.coeffs[0] for f in F.den]
    k = len(n)
    kmul = tuple(m[i] / n[s[i]] for i in range(k))
    c = tuple(m[i] / n[p[i]] for i in range(k))
    r = None
    if v is not None:
        r = tuple((m[i] + 3 * x[i]) / (n[v[i]] + 3 * x[v[i]]) for i in range(k))
    return tuple(n), tuple(x), tuple(y), c, kmul, r


def test_sketch_permutations_verify_the_generating_factors():
    from vogeluniq.qsearch import (
        MultiplierAssignment,
        PermTriple,
        build_system,
        verify_solution,
    )

    q = builtin_q33(2, 3, 1, 1)
    sketch = sketch_from_q(q, PRIMED_LINES["three"])
    s, p = extract_permutations(sketch.table, sketch.coloring)
    n, x, y, c, kmul, _ = _multipliers_from_factors(q, s, p)
    system = build_system(3, "three", PermTriple(s, p), MultiplierAssignment(c, kmul))
    assert verify_solution(system, n, x, y).ok

    p4 = builtin_q_prop4(1, 2, 3, 5)
    sketch4 = sketch_from_q(p4, PRIMED_LINES["four"])
    s, p, v = extract_permutations(sketch4.table, sketch4.coloring)
    n, x, y, c, kmul, r = _multipliers_from_factors(p4, s, p, v)
    system = build_system(
        4, "four", PermTriple(s, p, v), MultiplierAssignment(c, kmul, r)
    )
    assert verify_solution(system, n, x, y).ok
