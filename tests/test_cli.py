import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import vogeluniq
from vogeluniq import qsearch
from vogeluniq.cli import main
from vogeluniq.configs import ConfigurationTable
from vogeluniq.formula import FactorProduct
from vogeluniq.plane import FAMILIES, LinearForm, family_line, vogel_point


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run(capsys, "--json", *argv)
    return code, json.loads(out)


# --- eval ------------------------------------------------------------------------


def test_importing_the_cli_loads_no_process_pool():
    # Only a threaded search needs the pool; every process imports the CLI.
    code = (
        "import sys, vogeluniq.cli; "
        "print([m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(vogeluniq.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_eval_adjoint_at_e8(capsys):
    code, out = run(capsys, "eval", "--builtin", "adjoint", "--algebra", "exc",
                    "--param", "8", "--classical")
    assert code == 0
    assert out.strip() == "248"


def test_eval_accepts_rational_strings(capsys):
    # negative rationals need the = form so argparse does not read them as flags
    code, out = run(capsys, "eval", "--builtin", "adjoint", "--algebra", "exc",
                    "--param=-2/3", "--classical")
    assert code == 0
    assert out.strip() == "14"


def test_eval_x2k_with_limit(capsys):
    code, out = run(capsys, "eval", "--builtin", "x2k", "--k", "1", "--n", "0",
                    "--algebra", "sl", "--param", "5", "--classical", "--limit")
    assert code == 0
    assert out.strip() == "252"


def test_eval_raw_point_and_json(capsys):
    code, payload = run_json(capsys, "eval", "--builtin", "q33", "--params", "2,3,1,1",
                             "--point", "1,1,1", "--basis", "primed")
    assert code == 0
    assert payload == {"kind": "finite", "value": ["27", "26"]}


def test_eval_quantum_near_zero(capsys):
    code, out = run(capsys, "eval", "--builtin", "adjoint", "--algebra", "sl",
                    "--param", "5", "--quantum", "--x", "1e-6")
    assert code == 0
    assert abs(float(out) - 24) < 1e-6


@pytest.mark.parametrize("x,message", [
    ("nan", "x must be a finite number"),
    ("inf", "x must be a finite number"),
    ("-inf", "x must be a finite number"),
    ("200", "the value at x = 200.0 is out of floating-point range"),  # product is inf
    ("800", "the value at x = 800.0 is out of floating-point range"),  # math.exp overflows
])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_eval_quantum_rejects_an_x_without_a_finite_value(capsys, x, message, json_flag):
    code = main([*json_flag, "eval", "--builtin", "adjoint", "--algebra", "sl",
                 "--param", "5", "--quantum", f"--x={x}"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_eval_pole_is_a_negative_verdict(capsys):
    code, out = run(capsys, "eval", "--builtin", "adjoint", "--point", "0,1,1")
    assert code == 1
    assert "indeterminate" in out or "pole" in out


def test_usage_error_exit_code(capsys):
    assert main(["eval", "--builtin", "q33", "--algebra", "sl", "--param", "5"]) == 2
    assert main(["eval", "--builtin", "nonsense"]) == 2


# --- check-identity ------------------------------------------------------------------


def test_check_identity_three_lines(capsys):
    code, out = run(capsys, "check-identity", "--builtin", "q33",
                    "--params", "2,3,1,1", "--lines", "sl,so,exc")
    assert code == 0
    assert out.count("identically_one") == 3


def test_check_identity_fourth_line_fails(capsys):
    code, out = run(capsys, "check-identity", "--builtin", "q33",
                    "--params", "2,3,1,1", "--lines", "sl,so,exc,sp")
    assert code == 1
    assert "not_constant" in out


def test_check_identity_quantum_four_lines(capsys):
    code, payload = run_json(capsys, "check-identity", "--builtin", "qprop4",
                             "--params", "1,2,3,5", "--quantum",
                             "--lines", "sl,so,exc,sp")
    assert code == 0
    assert payload["all_identically_one"]
    assert len(payload["reports"]) == 4


def test_check_identity_on_the_plane(capsys):
    code, _ = run(capsys, "check-identity", "--builtin", "q33",
                  "--params", "2,3,1,1", "--plane")
    assert code == 1
    code, _ = run(capsys, "check-identity", "--builtin", "q33",
                  "--params", "1,1,1,1", "--plane")
    assert code == 0


def test_check_identity_witness_walk_is_lazy(capsys, monkeypatch):
    # x2k with k = 2, n = 2 keeps 42 factors a side, so a witness walk that
    # built its whole bounded point list first would never finish
    import vogeluniq.identity as identity_module

    pulled = []
    line_points = identity_module._line_points

    def counted():
        for point in line_points():
            pulled.append(point)
            yield point

    monkeypatch.setattr(identity_module, "_line_points", counted)
    code, payload = run_json(capsys, "check-identity", "--builtin", "x2k",
                             "--k", "2", "--n", "2", "--lines", "so,exc")
    assert code == 1
    assert [r["verdict"] for r in payload["reports"]] == ["not_constant"] * 2
    assert all("witness" in r for r in payload["reports"])
    assert 2 <= len(pulled) <= 2 * 14


def test_check_identity_witness_bound_beyond_maxsize(capsys):
    # x2k with k = 5, n = 0 keeps 68 factors a side: the quantum witness
    # bound 2^69 + 137 exceeds sys.maxsize, which is no input error
    code, payload = run_json(capsys, "check-identity", "--builtin", "x2k",
                             "--k", "5", "--n", "0", "--lines", "so")
    assert code == 1
    assert payload["reports"][0]["verdict"] == "not_constant"


def test_check_identity_custom_line_triples(capsys):
    code, out = run(capsys, "check-identity", "--builtin", "q33",
                    "--params", "2,3,1,1", "--lines", "1:0:0;0:1:0")
    assert code == 0


@pytest.mark.parametrize("argv,spec", [
    (["check-identity", "--lines", "foo"], "foo"),
    (["check-identity", "--lines", ""], ""),
    (["check-identity", "--lines", "1:0"], "1:0"),
    (["sketch", "--black", "foo"], "foo"),
])
def test_a_line_that_is_no_triple_is_named(capsys, argv, spec):
    code = main([*argv, "--builtin", "q33", "--params", "2,3,1,1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: line {spec!r} is neither a family name nor a 'a:b:c' triple\n"
    )


@pytest.mark.parametrize("argv", [
    ["eval", "--algebra", "sl", "--param", "5"],
    ["check-identity", "--lines", "sl"],
    ["sketch", "--black", "sl"],
])
def test_a_formula_must_be_given(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: one of --builtin and --formula-json is needed\n"


# --- search ---------------------------------------------------------------------------


def test_search_k2_empty(capsys):
    code, payload = run_json(capsys, "search", "--k", "2", "--lines", "three",
                             "--no-dedup")
    assert code == 1
    assert payload["cases_examined"] == 16
    assert payload["complete"] and payload["families"] == []


def test_search_budget_flag(capsys):
    code, payload = run_json(capsys, "search", "--k", "3", "--lines", "three",
                             "--budget", "5", "--no-dedup")
    assert payload["cases_examined"] == 5
    assert not payload["complete"]


@pytest.mark.parametrize("argv,name", [
    (["search", "--k", "0"], "k"),
    (["search", "--k", "3", "--budget", "-5"], "budget"),
    (["--threads", "0", "search", "--k", "3"], "threads"),
])
def test_search_rejects_out_of_range_arguments(capsys, argv, name):
    assert main(argv) == 2
    assert f"error: {name} must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["6", "7"])
def test_search_rejects_k_above_five_before_stage_one(capsys, monkeypatch, k):
    # stage 1 would allocate (k!)^2 * 4^(k-1) bytes; it must never start
    def stage1(*args):
        raise AssertionError("stage 1 started")

    monkeypatch.setattr(qsearch, "_stage1_classes", stage1)
    assert main(["search", "--k", k, "--lines", "four"]) == 2
    assert "error: k must be at most 5" in capsys.readouterr().err


def test_search_family_record_shape():
    from fractions import Fraction

    from vogeluniq.cli import _family_json
    from vogeluniq.qsearch import (
        FOUR_LINE_PERMS,
        FoundFamily,
        MultiplierAssignment,
        build_system,
        solve_quantum,
    )

    mult = MultiplierAssignment(
        (Fraction(1),) * 4, (Fraction(1),) * 4, (Fraction(-1),) * 4, quantum=True
    )
    system = build_system(4, "four", FOUR_LINE_PERMS, mult)
    family = solve_quantum(system).family
    record = _family_json(FoundFamily(0, family))
    assert record["nontrivial"] is True
    assert record["free_parameters"] == 4
    assert [r["verdict"] for r in record["line_check"]] == ["identically_one"] * 4
    assert record["s"] == [1, 0, 3, 2] and record["v"] == [2, 3, 0, 1]


# --- configuration commands --------------------------------------------------------------


def test_configs_enumerate_nine(capsys):
    code, out = run(capsys, "configs-enumerate", "--type", "9_3", "--color")
    assert code == 0
    assert "3 classes" in out and "1 colorable" in out


def test_configs_enumerate_reports_its_work(capsys):
    code, payload = run_json(capsys, "configs-enumerate", "--type", "9_3")
    assert code == 0
    stats = payload["stats"]
    assert stats["classes"] == payload["classes"] == 3
    # four of the 176 raw tables are lex-minimal under the prefix stabilizer
    assert stats["tables_kept"] == 4
    assert stats["tables_kept"] <= stats["tables_generated"] <= 176


def test_configs_enumerate_bound_is_a_usage_error(capsys):
    code, _ = run(capsys, "configs-enumerate", "--type", "12_3")
    assert code == 2


def test_configs_color_and_extract(tmp_path, capsys):
    table = ConfigurationTable(
        [(1, 2, 3), (4, 5, 6), (7, 8, 9), (1, 4, 7), (2, 5, 8), (3, 6, 9),
         (1, 5, 9), (2, 6, 7), (3, 4, 8)]
    )
    table_path = tmp_path / "table.json"
    table_path.write_text(json.dumps(table.to_json()))
    code, payload = run_json(capsys, "configs-color", "--table-json", str(table_path))
    assert code == 0 and payload["colorable"]
    coloring_path = tmp_path / "coloring.json"
    coloring_path.write_text(json.dumps(payload["coloring"]))
    code, perms = run_json(capsys, "extract-perms", "--table-json", str(table_path),
                           "--coloring-json", str(coloring_path))
    assert code == 0
    assert sorted(perms["s"]) == [0, 1, 2] and sorted(perms["p"]) == [0, 1, 2]


def test_configs_color_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["configs-color", "--table-json", str(bad)])
    assert code == 2


@pytest.mark.parametrize(
    "body", [{"cols": []}, {"columns": [1, 2]}, [[1, 2, 3]], {"columns": [[1, None]]}]
)
def test_configs_color_rejects_malformed_table(tmp_path, capsys, body):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(body))
    code = main(["configs-color", "--table-json", str(path)])
    assert code == 2
    assert '"columns"' in capsys.readouterr().err


def test_extract_perms_rejects_malformed_coloring(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"columns": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]}))
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps({"black": [0], "green": [2]}))
    code = main(["extract-perms", "--table-json", str(table), "--coloring-json", str(coloring)])
    assert code == 2
    assert '"red"' in capsys.readouterr().err


def test_extract_perms_rejects_an_empty_table(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"columns": []}))
    coloring = tmp_path / "coloring.json"
    coloring.write_text(json.dumps({"black": [], "red": [], "green": []}))
    code = main(["extract-perms", "--table-json", str(table), "--coloring-json", str(coloring)])
    assert code == 2
    assert "error: invalid table: table has no columns" in capsys.readouterr().err


def test_extract_perms_rejects_more_than_four_black_lines(tmp_path, capsys):
    # The 5 x 5 grid (25_3 15_5): black lines are its rows, red its columns
    # and green the classes of i + j mod 5, so there are four pairings.
    point = lambda i, j: 5 * i + j + 1
    rows = [[point(i, j) for j in range(5)] for i in range(5)]
    columns = [[point(i, j) for i in range(5)] for j in range(5)]
    diagonals = [[point(i, (g - i) % 5) for i in range(5)] for g in range(5)]
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"columns": rows + columns + diagonals}))
    coloring = tmp_path / "coloring.json"
    coloring.write_text(
        json.dumps({"black": [0, 1, 2, 3, 4], "red": [5, 6, 7, 8, 9],
                    "green": [10, 11, 12, 13, 14]})
    )
    code = main(["extract-perms", "--table-json", str(table), "--coloring-json", str(coloring)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: the coloring has 5 black lines")


def test_uncolorable_table_gives_negative_exit(tmp_path, capsys):
    from vogeluniq.configs import enumerate_n3, find_coloring

    classes = enumerate_n3(9)
    bad = next(t for t in classes if find_coloring(t) is None)
    path = tmp_path / "t.json"
    path.write_text(json.dumps(bad.to_json()))
    code, out = run(capsys, "configs-color", "--table-json", str(path))
    assert code == 1 and "no coloring" in out


# --- sketch --------------------------------------------------------------------------------


def test_sketch_writes_svg_and_table(tmp_path, capsys):
    out_path = tmp_path / "q33.svg"
    code, payload = run_json(capsys, "sketch", "--builtin", "q33",
                             "--params", "2,3,1,1", "--black", "sl,so,exc",
                             "--out", str(out_path))
    assert code == 0
    assert len(payload["points"]) == 9
    assert out_path.read_text().startswith("<?xml")
    table = ConfigurationTable.from_json(payload["table"])
    assert table.p == 9


# --- misc ------------------------------------------------------------------------------------


def test_vogel_table_row(capsys):
    code, payload = run_json(capsys, "vogel-table", "--family", "exc", "--param", "8")
    assert code == 0
    assert payload["point"]["coeffs"] == [["-2", "1"], ["12", "1"], ["20", "1"]]
    assert payload["t"] == ["30", "1"]


def _evaluate(expr, **values):
    """The value of a table cell such as "2n + 4" or "2(a + b)": the cells
    write products by juxtaposition, so a '*' is put in before evaluating."""
    return eval(re.sub(r"(\d)([A-Za-z(])", r"\1*\2", expr), {"__builtins__": {}}, values)


def test_vogel_table_rows_match_the_family_tables(capsys):
    """Each hand-written row of `vogel-table` agrees with `plane`: its point
    at N (or n) = 0, 1 and 5 is `vogel_point`'s, coordinate for coordinate,
    its t is `vogel_point`'s t, and its line is `family_line`, which
    vanishes on the point."""
    code, payload = run_json(capsys, "vogel-table")
    assert code == 0
    families = []
    for name, point, t, line in payload["rows"]:
        family, var = re.fullmatch(r"(\w+)\(\d*([Nn])\)", name).groups()
        families.append(family)
        lhs, rhs = line.split(" = ")
        form = lambda a, b, c: _evaluate(lhs, a=a, b=b, c=c) - _evaluate(rhs, a=a, b=b, c=c)
        coeffs = (form(1, 0, 0), form(0, 1, 0), form(0, 0, 1))
        assert LinearForm(coeffs).same_line(family_line(family)), name
        for q in map(Fraction, (0, 1, 5)):
            ap = vogel_point(family, q)
            coords = tuple(_evaluate(cell, **{var: q}) for cell in point.strip("()").split(", "))
            assert coords == ap.point.coords, (name, q)
            assert _evaluate(t.removeprefix("t = "), **{var: q}) == ap.t, (name, q)
            assert form(*coords) == 0, (name, q)
    assert families == list(FAMILIES)


def test_formula_json_round_trip_through_cli(tmp_path, capsys):
    from vogeluniq.qsearch import builtin_q_prop4

    F = builtin_q_prop4(1, 2, 3, 5)
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(F.to_json()))
    code, payload = run_json(capsys, "check-identity", "--formula-json", str(path),
                             "--lines", "sl,so,exc,sp")
    assert code == 0 and payload["all_identically_one"]
    assert FactorProduct.from_json(F.to_json()) == F


# A formula JSON object's keys with well-formed values and no factors.
_FORMULA_KEYS = {"quantum": False, "sign": 1, "scalar": [1, 1], "basis": "primed", "num": [], "den": []}


@pytest.mark.parametrize(
    "body,named",
    [
        ([1, 2], "must be an object with the keys quantum, sign, scalar, basis, num, den"),
        ({"quantum": True, "num": 5}, 'has no "sign" key'),
        ({"quantum": True, "sign": 1, "scalar": [1, 1], "basis": "primed", "num": []},
         'has no "den" key'),
        ({**_FORMULA_KEYS, "num": 5}, "num must be a list of linear forms, got 5"),
        ({**_FORMULA_KEYS, "num": [[1, 2]]},
         "num[0]: a linear form must be an object with the keys coeffs, basis, got [1, 2]"),
        ({**_FORMULA_KEYS, "num": [{"a": 1}]}, 'num[0]: a linear form has no "coeffs" key'),
    ],
    ids=["body0", "body1", "body2", "body3", "body4", "body5"],
)
def test_check_identity_rejects_malformed_formula_json(tmp_path, capsys, body, named):
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(body))
    code = main(["check-identity", "--formula-json", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: cannot read formula JSON" in err
    assert named in err


@pytest.mark.parametrize(
    "field,value",
    [
        ("quantum", "false"),
        ("quantum", 1),
        ("sign", 1.5),
        ("sign", True),
        ("sign", "1"),
        ("scalar", [1.7, 1]),
        ("scalar", [True, 1]),
        ("scalar", ["1", "2.0"]),
        ("scalar", [" 3", "1"]),
        ("scalar", ["+3", "1"]),
        ("coefficient", 1.7),
        ("coefficient", True),
        ("coefficient", "1e3"),
    ],
)
def test_formula_json_is_decoded_strictly(tmp_path, capsys, field, value):
    from vogeluniq.qsearch import builtin_q_prop4

    body = builtin_q_prop4(1, 2, 3, 5).to_json()
    if field == "coefficient":
        body["num"][0]["coeffs"][1] = [value, "1"]
    else:
        body[field] = value
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(body))
    code = main(["check-identity", "--formula-json", str(path), "--lines", "sl,so,exc,sp"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: cannot read formula JSON")


def test_formula_json_accepts_plain_integers(tmp_path, capsys):
    from vogeluniq.qsearch import builtin_q_prop4

    F = builtin_q_prop4(1, 2, 3, 5)
    body = F.to_json()
    body["scalar"] = [1, 1]
    body["num"] = [
        {"coeffs": [[int(n), int(d)] for n, d in form["coeffs"]], "basis": form["basis"]}
        for form in body["num"]
    ]
    assert FactorProduct.from_json(body) == F


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--builtin", "adjoint", "--point", "1/0,1,1"],
        ["eval", "--builtin", "q33", "--params", "1/0,2,1,1", "--point", "1,2,3"],
        ["check-identity", "--builtin", "q33", "--params", "2,3,1,1", "--lines", "1:1/0:0"],
        ["vogel-table", "--family", "sl", "--param", "1/0"],
        ["check-identity", "--formula-json", "FORMULA"],
    ],
)
def test_zero_denominators_are_usage_errors(tmp_path, capsys, argv):
    body = FactorProduct((), ()).to_json()
    body["scalar"] = ["1", "0"]
    path = tmp_path / "formula.json"
    path.write_text(json.dumps(body))
    code = main([str(path) if arg == "FORMULA" else arg for arg in argv])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("target,checks", [("P3", 4), ("P2-k3", 3)])
def test_reproduce_pipelines(capsys, target, checks):
    code, out = run(capsys, "reproduce", target)
    assert code == 0
    assert out.count("PASS") == checks + 1  # per-check lines plus the summary


def test_reproduce_json_reports_every_check(capsys):
    assert main(["--json", "reproduce", "P2-k3"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert captured.err == ""
    assert payload["target"] == "P2-k3" and payload["ok"] is True
    assert [check["ok"] for check in payload["checks"]] == [True] * 3
    assert payload["checks"][0]["name"] == (
        "quantum three-line search at k=1 is exhaustive and empty"
    )
    assert all(check["seconds"] >= 0 for check in payload["checks"])
    # The text run keeps stdout free of timing and reports it on stderr.
    assert main(["reproduce", "P2-k3"]) == 0
    captured = capsys.readouterr()
    names = [check["name"] for check in payload["checks"]]
    assert captured.out.splitlines() == [f"PASS  {name}" for name in names] + [
        "PASS  P2-k3: 3/3 checks"
    ]
    timings = [line.split(" s  ", 1) for line in captured.err.splitlines()]
    assert [name for _, name in timings] == names
    assert all(float(seconds) >= 0 for seconds, _ in timings)


def test_reproduce_p1_remark_json_reports_the_survey_stats(capsys):
    code, payload = run_json(capsys, "reproduce", "P1-remark")
    assert code == 0 and payload["ok"] is True and len(payload["checks"]) == 4
    assert payload["stats"] == {"pairings_surveyed": 12, "sign_patterns": 18}
    assert "stats" not in run_json(capsys, "reproduce", "P2-k3")[1]


def test_seed_does_not_leak_into_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("VOGEL_SEED", raising=False)
    assert main(["--seed", "7", "reproduce", "P2-k3"]) == 0
    assert "VOGEL_SEED" not in os.environ


def test_nothing_draws_random_numbers(capsys, monkeypatch):
    import random

    from vogeluniq.identity import numeric_crosscheck
    from vogeluniq.plane import Basis, LinearForm
    from vogeluniq.qsearch import PRIMED_LINES, builtin_q33, builtin_q_prop4

    def refuse(*args, **kwargs):
        raise AssertionError("random number drawn")

    monkeypatch.setattr(random, "Random", refuse)
    for name in ("random", "randint", "randrange", "choice", "choices", "shuffle",
                 "sample", "uniform", "getrandbits", "seed"):
        monkeypatch.setattr(random, name, refuse)
    for quantum in ([], ["--quantum"]):
        code, payload = run_json(capsys, "check-identity", "--builtin", "q33",
                                 "--params", "2,3,1,1", *quantum, "--lines", "3:-1:0")
        assert code == 1
        assert payload["reports"][0]["verdict"] == "not_constant"
    for quantum in (False, True):
        q = builtin_q33(2, 3, 1, 1, quantum=quantum)
        assert numeric_crosscheck(q, LinearForm((3, -1, 0), Basis.PRIMED))
    p4 = builtin_q_prop4(1, 2, 3, 5, quantum=True)
    for line in PRIMED_LINES["four"]:
        assert numeric_crosscheck(p4, line)
    assert run(capsys, "reproduce", "P4")[0] == 0
