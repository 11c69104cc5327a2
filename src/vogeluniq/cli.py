"""Command-line surface: evaluation, identity checks, searches, configuration
tools, sketches, and scripted reproduction pipelines.

Exit codes: 0 for success / positive verdicts, 1 for negative verdicts
(not constant, no coloring, nothing found), 2 for usage or input errors.
Points and parameters are exact rational strings; only the quantum
evaluation variable x is a float.  No command draws random numbers, so all
output is reproducible; --seed is still accepted and changes nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, astuple

from ._util import parse_rational, rat_to_json
from .plane import (
    FAMILIES,
    Basis,
    LinearForm,
    ProjPoint,
    family_line,
    vogel_point,
)
from .formula import (
    FactorProduct,
    adjoint_formula,
    cancel,
    classical_limit,
    eval_classical,
    eval_quantum,
    is_identically_one,
    x2k_adn_formula,
)
from .identity import check_on_lines, check_symmetric
from .qsearch import (
    FOUR_LINE_PERMS,
    PRIMED_LINES,
    MultiplierAssignment,
    SurveyStats,
    build_system,
    builtin_q33,
    builtin_q_prop4,
    enumerate_families,
    matches_builtin_four_line,
    matches_builtin_q33,
    product_from_assignment,
    reference_four_line_assignment,
    solve_quantum,
    survey_k3_classical,
    verify_solution,
)
from .configs import (
    Coloring,
    ConfigurationTable,
    N3Stats,
    emit_svg,
    enumerate_n3,
    extract_permutations,
    find_coloring,
    isomorphic,
    sketch_from_q,
    validate_table,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


def _build_formula(args) -> FactorProduct:
    quantum = getattr(args, "quantum", False)
    if getattr(args, "formula_json", None):
        try:
            with open(args.formula_json, encoding="utf-8") as handle:
                return FactorProduct.from_json(json.load(handle))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise UsageError(f"cannot read formula JSON: {err}")
    name = args.builtin
    if name is None:
        raise UsageError("one of --builtin and --formula-json is needed")
    params = [parse_rational(q) for q in args.params.split(",")] if args.params else []
    if name == "adjoint":
        return adjoint_formula()
    if name == "x2k":
        if args.k is None or args.n is None:
            raise UsageError("x2k needs --k and --n")
        return x2k_adn_formula(args.k, args.n)
    if name == "q33":
        if len(params) != 4:
            raise UsageError("q33 needs --params c1,c2,x,y")
        return builtin_q33(*params, quantum=quantum)
    if name == "qprop4":
        if len(params) != 4:
            raise UsageError("qprop4 needs --params n,x,xp,y")
        return builtin_q_prop4(*params, quantum=quantum)
    raise UsageError(f"unknown builtin {name!r}")


def _parse_point(args) -> ProjPoint:
    if args.algebra:
        if args.param is None:
            raise UsageError("--algebra needs --param")
        return vogel_point(args.algebra, parse_rational(args.param)).point
    if args.point:
        coords = [parse_rational(q) for q in args.point.split(",")]
        return ProjPoint(coords, Basis(args.basis))
    raise UsageError("give either --algebra/--param or --point")


def _line_specs(spec: str) -> list[str]:
    """The pieces of a line list, split on ';' if it has one, else on ','."""
    return [piece.strip() for piece in spec.split(";" if ";" in spec else ",")]


def _parse_lines(spec: str, basis: Basis) -> list[LinearForm]:
    lines = []
    for piece in _line_specs(spec):
        if piece in FAMILIES:
            lines.append(family_line(piece, basis))
        else:
            fields = piece.split(":")
            if len(fields) != 3:
                raise UsageError(
                    f"line {piece!r} is neither a family name nor a 'a:b:c' triple"
                )
            lines.append(LinearForm([parse_rational(q) for q in fields], basis))
    return lines


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as err:
        raise UsageError(f"cannot open {path}: {err}")
    except json.JSONDecodeError as err:
        raise UsageError(f"malformed JSON in {path} at line {err.lineno}, column {err.colno}")


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_eval(args) -> int:
    formula = _build_formula(args)
    point = _parse_point(args)
    if args.quantum:
        if args.x is None:
            raise UsageError("--quantum needs --x (float, nonzero)")
        value = eval_quantum(formula, point, args.x)
        _emit(args, {"kind": "quantum", "x": args.x, "value": value}, repr(value))
        return EXIT_OK
    target = formula
    if args.limit:
        target = cancel(classical_limit(formula) if formula.quantum else formula)
    result = eval_classical(target, point)
    payload = {"kind": result.kind}
    if result.is_finite:
        payload["value"] = rat_to_json(result.value)
        _emit(args, payload, str(result.value))
        return EXIT_OK
    _emit(args, payload, result.kind)
    return EXIT_OK if result.kind == "zero" else EXIT_NEGATIVE


def cmd_check_identity(args) -> int:
    formula = _build_formula(args)
    if args.plane:
        verdict = is_identically_one(formula)
        _emit(
            args,
            {"plane": "identically_one" if verdict else "not_constant"},
            "identically_one on the whole plane" if verdict else "not identically one on the plane",
        )
        return EXIT_OK if verdict else EXIT_NEGATIVE
    lines = _parse_lines(args.lines, formula.basis)
    reports = check_on_lines(formula, lines)
    rows = []
    all_one = True
    for name, report in zip(_line_specs(args.lines), reports):
        rows.append(f"{name:>8}: {report.verdict}")
        all_one = all_one and report.identically_one
    payload = {"reports": [r.to_json() for r in reports], "all_identically_one": all_one}
    _emit(args, payload, "\n".join(rows))
    return EXIT_OK if all_one else EXIT_NEGATIVE


def cmd_search(args) -> int:
    result = enumerate_families(
        args.k,
        args.lines,
        budget=args.budget,
        threads=args.threads,
        dedup=not args.no_dedup,
    )
    payload = {
        "cases_examined": result.cases_examined,
        "complete": result.complete,
        "families": [_family_json(ff) for ff in result.families],
    }
    text = (
        f"examined {result.cases_examined} cases"
        f" ({'complete' if result.complete else 'budget exhausted'});"
        f" nontrivial families: {len(result.families)}"
    )
    _emit(args, payload, text)
    return EXIT_OK if result.families else EXIT_NEGATIVE


def _family_json(ff) -> dict:
    """Family record: pairings, signs, parametric factors, the (semantic)
    triviality verdict, and a line check of the instantiation at the first
    primes, null when it cannot be built (a factor is zero there, or the
    family has more parameters than there are primes)."""
    family, system = ff.family, ff.system
    try:
        sample = family.factor_product(family.first_primes())
    except ValueError:
        line_check = None
    else:
        line_check = [r.to_json() for r in check_on_lines(sample, system.line_forms())]
    return {
        "case_index": ff.case_index,
        "s": list(system.perms.s),
        "p": list(system.perms.p),
        "v": list(system.perms.v) if system.perms.v else None,
        "c": [str(q) for q in system.mult.c],
        "k": [str(q) for q in system.mult.kmul],
        "r": [str(q) for q in system.mult.r] if system.mult.r else None,
        "free_parameters": family.free_parameters,
        "vectors": [[rat_to_json(q) for q in vec] for vec in family.vectors],
        "lines": [f.to_json() for f in system.line_forms()],
        "nontrivial": True,
        "line_check": line_check,
    }


def cmd_configs_enumerate(args) -> int:
    try:
        nexp, three = args.type.split("_")
        if three != "3":
            raise ValueError
        n = int(nexp)
    except ValueError:
        raise UsageError("--type must look like 9_3")
    stats = N3Stats()
    classes = enumerate_n3(n, stats)
    colorable = []
    if args.color:
        colorable = [t for t in classes if find_coloring(t) is not None]
    payload = {
        "classes": len(classes),
        "tables": [t.to_json() for t in classes],
        "stats": asdict(stats),
    }
    text = f"{len(classes)} classes"
    if args.color:
        payload["colorable"] = len(colorable)
        text += f", {len(colorable)} colorable"
    _emit(args, payload, text)
    if args.color:
        return EXIT_OK if colorable else EXIT_NEGATIVE
    return EXIT_OK if classes else EXIT_NEGATIVE


def _load_table(path: str) -> ConfigurationTable:
    table = ConfigurationTable.from_json(_load_json(path))
    violations = validate_table(table)
    if violations:
        raise UsageError("invalid table: " + "; ".join(violations))
    return table


def cmd_configs_color(args) -> int:
    table = _load_table(args.table_json)
    coloring = find_coloring(table)
    if coloring is None:
        _emit(args, {"colorable": False}, "no coloring")
        return EXIT_NEGATIVE
    _emit(
        args,
        {"colorable": True, "coloring": coloring.to_json()},
        f"black={list(coloring.black)} red={list(coloring.red)} green={list(coloring.green)}",
    )
    return EXIT_OK


def cmd_extract_perms(args) -> int:
    table = _load_table(args.table_json)
    coloring = Coloring.from_json(_load_json(args.coloring_json))
    perms = extract_permutations(table, coloring)
    if len(perms) > 3:
        raise UsageError(
            f"the coloring has {len(coloring.black)} black lines; "
            "extract-perms names the pairings s, p, v of at most four"
        )
    names = ("s", "p", "v")
    payload = {name: list(perm) for name, perm in zip(names, perms)}
    text = "  ".join(f"{name} = {perm}" for name, perm in zip(names, perms))
    _emit(args, payload, text)
    return EXIT_OK


def cmd_sketch(args) -> int:
    formula = _build_formula(args)
    blacks = _parse_lines(args.black, Basis.PRIMED)
    sketch = sketch_from_q(formula, blacks)
    payload = {
        "points": [pt.to_json() for pt in sketch.points],
        "table": sketch.table.to_json(),
        "coloring": sketch.coloring.to_json(),
        "labels": list(sketch.line_labels),
    }
    text = (
        f"{len(sketch.points)} triple points; table ({sketch.table.p}_{sketch.table.gamma}"
        f" {sketch.table.l}_{sketch.table.pi})"
    )
    if args.out:
        emit_svg(sketch, args.out)
        text += f"; wrote {args.out}"
        payload["svg"] = args.out
    _emit(args, payload, text)
    return EXIT_OK


def cmd_vogel_table(args) -> int:
    if args.family:
        if args.param is None:
            raise UsageError("--family needs --param")
        ap = vogel_point(args.family, parse_rational(args.param))
        payload = {
            "family": ap.family,
            "param": str(ap.param),
            "point": ap.point.to_json(),
            "t": rat_to_json(ap.t),
            "integer_param": ap.integer_param,
        }
        text = f"{ap.family}({ap.param}): point {ap.point}, t = {ap.t}"
        _emit(args, payload, text)
        return EXIT_OK
    rows = [
        ("sl(N)", "(-2, 2, N)", "t = N", "a + b = 0"),
        ("so(N)", "(-2, 4, N - 4)", "t = N - 2", "2a + b = 0"),
        ("sp(2N)", "(-2, 1, N + 2)", "t = N + 1", "a + 2b = 0"),
        ("exc(n)", "(-2, n + 4, 2n + 4)", "t = 3n + 6", "c = 2(a + b)"),
    ]
    text = "\n".join("  ".join(f"{cell:<18}" for cell in row) for row in rows)
    text += "\nexc line algebras: n = -2/3, 0, 1, 2, 4, 8 (g2, so8, f4, e6, e7, e8)"
    payload = {"rows": [list(r) for r in rows]}
    _emit(args, payload, text)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    """Run a target's checks.  A check's seconds run from the previous check
    (or the start) to it, so they include the work its verdict rests on;
    they go to the JSON payload, or to stderr as each check completes, so
    the text on stdout does not depend on timing.  P1-remark's JSON payload
    also holds the survey's `SurveyStats` under "stats"."""
    target = args.target
    checks: list[dict] = []
    extra: dict = {}
    last = time.perf_counter()

    def check(name: str, ok: bool) -> None:
        nonlocal last
        now = time.perf_counter()
        checks.append({"name": name, "ok": ok, "seconds": now - last})
        if not args.json:
            print(f"{now - last:8.3f} s  {name}", file=sys.stderr)
        last = now

    if target == "P1-remark":
        stats = SurveyStats()
        entries = survey_k3_classical(stats)
        extra["stats"] = asdict(stats)
        nontrivial = [e for e in entries if e.nontrivial]
        fpf = {((1, 2, 0), (2, 0, 1)), ((2, 0, 1), (1, 2, 0))}
        check("k=3 classical survey covers 36 pairings", len(entries) == 36)
        check("exactly two pairings admit nontrivial factors", len(nontrivial) == 2)
        check(
            "they are the two distinct fixed-point-free pairings",
            {(e.s, e.p) for e in nontrivial} == fpf,
        )
        check(
            "both witnesses match the closed-form three-line factor",
            all(matches_builtin_q33(e) for e in nontrivial),
        )
    elif target == "P2-k3":
        for k in (1, 2, 3):
            res = enumerate_families(k, "three", dedup=False)
            check(
                f"quantum three-line search at k={k} is exhaustive and empty",
                res.complete and not res.families,
            )
    elif target == "P3":
        classes = enumerate_n3(9)
        check("exactly three (9_3) classes", len(classes) == 3)
        colorable = [t for t in classes if find_coloring(t) is not None]
        check("exactly one class is colorable", len(colorable) == 1)
        sketch = sketch_from_q(builtin_q33(2, 3, 1, 1), PRIMED_LINES["three"])
        check("three-line sketch has 9 triple points", len(sketch.points) == 9)
        check(
            "sketch table is isomorphic to the colorable class",
            bool(colorable) and isomorphic(sketch.table, colorable[0]),
        )
    elif target == "P4":
        sketch = sketch_from_q(builtin_q_prop4(1, 2, 3, 5), PRIMED_LINES["four"])
        check("four-line sketch has 16 triple points", len(sketch.points) == 16)
        check("sketch table is a valid (16_3 12_4)", not validate_table(sketch.table))
        perms = extract_permutations(sketch.table, sketch.coloring)
        check(
            "extracted pairings are s=(12)(34) p=(14)(23) v=(13)(24)",
            perms == astuple(FOUR_LINE_PERMS),
        )
        mult = MultiplierAssignment((1,) * 4, (1,) * 4, (-1,) * 4, quantum=True)
        system = build_system(4, "four", FOUR_LINE_PERMS, mult)
        outcome = solve_quantum(system)
        check("the extracted system has a nontrivial quantum family", outcome.status == "nontrivial")
        check(
            "the family matches the closed-form four-line factor",
            outcome.family is not None
            and matches_builtin_four_line(outcome.family),
        )
        classical = builtin_q_prop4(2, 3, -1, 7)
        quantum = builtin_q_prop4(2, 3, -1, 7, quantum=True)
        four = PRIMED_LINES["four"]
        check(
            "closed-form factor is 1 on all four lines (classical)",
            all(r.identically_one for r in check_on_lines(classical, four)),
        )
        check(
            "closed-form factor is 1 on all four lines (quantum)",
            all(r.identically_one for r in check_on_lines(quantum, four)),
        )
        check("closed-form factor is not permutation symmetric", not check_symmetric(classical))
        sys_minus, n, x, y = reference_four_line_assignment(2, 3, 5, 7, 1, 2, 3)
        check("hand-solved minus branch satisfies every equation", verify_solution(sys_minus, n, x, y).ok)
        check(
            "minus branch is nontrivial",
            cancel(product_from_assignment(sys_minus, n, x, y)).k > 0,
        )
        sys_plus, n2, x2, y2 = reference_four_line_assignment(2, 3, 5, 7, 1, 2, 3, minus_branch=False)
        check("plus branch satisfies every equation", verify_solution(sys_plus, n2, x2, y2).ok)
        check(
            "plus branch collapses to the trivial factor",
            cancel(product_from_assignment(sys_plus, n2, x2, y2)).k == 0,
        )
    ok = all(c["ok"] for c in checks)
    rows = [f"{'PASS' if c['ok'] else 'FAIL'}  {c['name']}" for c in checks]
    rows.append(f"{'PASS' if ok else 'FAIL'}  {target}: {sum(c['ok'] for c in checks)}/{len(checks)} checks")
    _emit(args, {"target": target, "ok": ok, "checks": checks, **extra}, "\n".join(rows))
    return EXIT_OK if ok else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vogeluniq",
        description=(
            "Exact universal (quantum) dimension formulas on Vogel's plane: "
            "evaluation, identity checks on distinguished lines, searches for "
            "non-uniqueness factors, and configuration tools.  Black-line "
            "order is sl, so, exc, then sp; it fixes the meaning of the "
            "extracted permutations."
        ),
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    parser.add_argument("--seed", type=int, default=None, help="accepted for compatibility; no command uses it")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_formula_opts(p, with_point=False):
        p.add_argument("--builtin", choices=["adjoint", "q33", "qprop4", "x2k"])
        p.add_argument("--formula-json")
        p.add_argument("--params", help="comma separated exact rationals")
        p.add_argument("--k", type=int, help="x2k power")
        p.add_argument("--n", type=int, help="adjoint power for x2k")
        p.add_argument("--quantum", action="store_true")
        if with_point:
            p.add_argument("--algebra", choices=FAMILIES)
            p.add_argument("--param", help="family parameter (exact rational)")
            p.add_argument("--point", help="a,b,c exact rationals")
            p.add_argument("--basis", choices=["unprimed", "primed"], default="unprimed")

    p = sub.add_parser("eval", help="evaluate a formula at a point")
    add_formula_opts(p, with_point=True)
    p.add_argument("--classical", action="store_true", help="exact classical value (default)")
    p.add_argument("--x", type=float, help="quantum evaluation variable")
    p.add_argument(
        "--limit",
        action="store_true",
        help="cancel proportional factors first (classical x->0 limit)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-identity", help="decide F = 1 on given lines")
    add_formula_opts(p)
    p.add_argument("--lines", default="sl,so,exc", help="names or a:b:c triples")
    p.add_argument("--plane", action="store_true", help="check on the whole plane instead")
    p.set_defaults(func=cmd_check_identity)

    p = sub.add_parser("search", help="exhaustive quantum factor search")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lines", choices=["three", "four"], default="three")
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--no-dedup", action="store_true", help="iterate raw tuples")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("configs-enumerate", help="enumerate (n_3) tables up to isomorphism")
    p.add_argument("--type", required=True, help="for example 9_3")
    p.add_argument("--color", action="store_true", help="also count colorable classes")
    p.set_defaults(func=cmd_configs_enumerate)

    p = sub.add_parser("configs-color", help="three-color a configuration table")
    p.add_argument("--table-json", required=True)
    p.set_defaults(func=cmd_configs_color)

    p = sub.add_parser("extract-perms", help="pairing permutations of a colored table")
    p.add_argument("--table-json", required=True)
    p.add_argument("--coloring-json", required=True)
    p.set_defaults(func=cmd_extract_perms)

    p = sub.add_parser("sketch", help="exact picture of a factor product")
    add_formula_opts(p)
    p.add_argument("--black", default="sl,so,exc", help="black lines (primed names or a:b:c)")
    p.add_argument("--out", help="write an SVG here")
    p.set_defaults(func=cmd_sketch)

    p = sub.add_parser("vogel-table", help="universal parameters of the families")
    p.add_argument("--family", choices=FAMILIES)
    p.add_argument("--param")
    p.set_defaults(func=cmd_vogel_table)

    p = sub.add_parser("reproduce", help="scripted verification pipelines")
    p.add_argument("target", choices=["P1-remark", "P2-k3", "P3", "P4"])
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
