"""Reference answers for the benchmark, computed without the code under test.

Two parts, both plain standard-library Python:

* The quantum (+-1) constraint-system search, re-derived from the relations
  in the paper and ``qsearch``'s module docstring.  Its nontriviality test
  draws no random numbers: every factor of a solution family is linear in
  the family parameters, so a generic instantiation cancels completely
  exactly when the numerator and denominator factor maps can be paired
  one-to-one with each pair equal up to sign as linear maps.  Equality up to
  sign is an equivalence relation, so such a pairing exists exactly when
  every equivalence class holds as many numerator as denominator maps.
* (n_3) configuration tables: a seeded random generator, random relabeling,
  a backtracking isomorphism test and a coloring validator.

Running this file rewrites ``reference.json`` next to it:

    python3 bench/oracle.py
"""

from __future__ import annotations

import itertools
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# --- quantum constraint systems ------------------------------------------------


def _signs(k):
    """+-1 vectors of length k with product one, last entry fixed by the rest."""
    out = []
    for head in itertools.product((1, -1), repeat=k - 1):
        prod = 1
        for b in head:
            prod *= b
        out.append(head + (prod,))
    return out


def _conjugate(tau, perm):
    """The permutation tau . perm . tau^-1 (relabel factor i as tau(i))."""
    out = [0] * len(tau)
    for i, img in enumerate(perm):
        out[tau[i]] = tau[img]
    return tuple(out)


def _move(tau, vec):
    """The vector whose entry at tau(i) is vec[i]."""
    out = [0] * len(tau)
    for i, val in enumerate(vec):
        out[tau[i]] = val
    return tuple(out)


def stage1_classes(k):
    """Orbit-minimal (s, p, c, kmul) tuples under simultaneous relabeling of
    the factors, in lexicographic enumeration order, each with its flat index
    and its stabilizer."""
    perms = list(itertools.permutations(range(k)))
    signs = _signs(k)
    out = []
    for flat, (s, p, c, km) in enumerate(itertools.product(perms, perms, signs, signs)):
        me = (s, p, c, km)
        images = [
            (tau, (_conjugate(tau, s), _conjugate(tau, p), _move(tau, c), _move(tau, km)))
            for tau in perms
        ]
        if all(img >= me for _, img in images):
            out.append((flat, s, p, c, km, [tau for tau, img in images if img == me]))
    return out


def stage2_cases(k, stab):
    """Fourth-line choices (v, r) that are minimal under the stabilizer."""
    out = []
    for v in itertools.permutations(range(k)):
        for r in _signs(k):
            if all((_conjugate(tau, v), _move(tau, r)) >= (v, r) for tau in stab):
                out.append((v, r))
    return out


def equations(k, s, p, c, km, v=None, r=None):
    """Integer rows over the unknowns n (0..k-1), x (k..2k-1), y (2k..3k-1):
    x_i = c_i x_p(i), y_i = k_i y_s(i), k_i n_s(i) = c_i n_p(i) and, with a
    fourth line, y_i = r_i y_v(i), c_i n_p(i) + 3 x_i = r_i (n_v(i) + 3 x_v(i))."""
    rows = []

    def add(*terms):
        row = [0] * (3 * k)
        for idx, coef in terms:
            row[idx] += coef
        rows.append(row)

    for i in range(k):
        add((k + i, 1), (k + p[i], -c[i]))
        add((2 * k + i, 1), (2 * k + s[i], -km[i]))
        add((s[i], km[i]), (p[i], -c[i]))
        if v is not None:
            add((2 * k + i, 1), (2 * k + v[i], -r[i]))
            add((p[i], c[i]), (k + i, 3), (v[i], -r[i]), (k + v[i], -3 * r[i]))
    return rows


def solution_basis(rows, ncols):
    """A basis of {u : rows . u = 0} by Gauss-Jordan elimination over Q."""
    mat = [[Fraction(a) for a in row] for row in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][col]
        mat[r] = [a / lead for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pc in zip(mat, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


def _factor_maps(k, s, km, basis):
    """Each factor's (alpha, beta, gamma) coefficients as linear maps of the
    family parameters, one tuple of 3 * dim values per factor."""
    def coord(idx, scale=1):
        return tuple(scale * vec[idx] for vec in basis)

    num = [(coord(i), coord(k + i), coord(2 * k + i)) for i in range(k)]
    den = [(coord(s[i], km[i]), coord(k + i), coord(2 * k + i)) for i in range(k)]
    return num, den


def degenerate(k, s, km, basis, four):
    """Whether every member of the family has a factor whose restriction to
    one of the system lines a' = 0, b' = 0, c' = 0 (and 3a' - b' = 0 with
    four lines) is zero; a factor that is zero everywhere is such a factor."""
    num, den = _factor_maps(k, s, km, basis)
    for n, x, y in num + den:
        pairs = [(x, y), (n, y), (n, x)]
        if four:
            pairs.append((tuple(a + 3 * b for a, b in zip(n, x)), y))
        if any(not any(a + b) for a, b in pairs):
            return True
    return False


def _up_to_sign(flat):
    lead = next((a for a in flat if a), 0)
    return flat if lead > 0 else tuple(-a for a in flat)


def nontrivial(k, s, km, basis):
    """Whether a generic member of the family keeps a factor after quantum
    cancellation (pairs equal up to sign cancel)."""
    num, den = _factor_maps(k, s, km, basis)
    keys = lambda maps: Counter(_up_to_sign(sum(m, ())) for m in maps)
    return keys(num) != keys(den)


def _found(k, s, km, rows, four):
    basis = solution_basis(rows, 3 * k)
    return bool(basis) and not degenerate(k, s, km, basis, four) and nontrivial(k, s, km, basis)


def three_line_families(k):
    """Case indices of the nontrivial three-line families, one case per
    stage-1 class, solved in one shot."""
    return [
        flat
        for flat, s, p, c, km, _ in stage1_classes(k)
        if _found(k, s, km, equations(k, s, p, c, km), four=False)
    ]


def four_line_families(k, budget):
    """Case indices of the nontrivial four-line families among the first
    `budget` stage-2 cases, and the number of cases examined."""
    per_class = len(list(itertools.permutations(range(k)))) * len(_signs(k))
    found = []
    cases = 0
    for flat, s, p, c, km, stab in stage1_classes(k):
        base_empty = not solution_basis(equations(k, s, p, c, km), 3 * k)
        for local, (v, r) in enumerate(stage2_cases(k, stab)):
            if cases == budget:
                return found, cases
            cases += 1
            if not base_empty and _found(k, s, km, equations(k, s, p, c, km, v, r), four=True):
                found.append(flat * per_class + local)
    return found, cases


# --- (n_3) configuration tables ----------------------------------------------------


def random_n3(n, rng):
    """A random (n_3) table: n points, n lines of three points, three lines
    through every point, two lines meeting in at most one point.  Greedy
    random construction with restarts; returns the lines as point triples."""
    while True:
        degree = [0] * n
        used = set()
        lines = []
        for _ in range(n):
            open_points = [v for v in range(n) if degree[v] < 3]
            q = min(open_points, key=lambda v: (degree[v], rng.random()))
            choices = [
                (a, b)
                for a, b in itertools.combinations([v for v in open_points if v != q], 2)
                if not {frozenset((q, a)), frozenset((q, b)), frozenset((a, b))} & used
            ]
            if not choices:
                break
            line = (q, *rng.choice(choices))
            lines.append(line)
            for v in line:
                degree[v] += 1
            used.update(frozenset(pair) for pair in itertools.combinations(line, 2))
        if len(lines) == n and all(d == 3 for d in degree):
            return lines


def relabel(columns, rng):
    """The same incidence structure with shuffled point labels and column order."""
    points = sorted({v for col in columns for v in col})
    image = dict(zip(points, rng.sample(points, len(points))))
    out = [tuple(image[v] for v in col) for col in columns]
    rng.shuffle(out)
    return out


def isomorphic(cols_a, cols_b):
    """Whether a point bijection maps the lines of A onto the lines of B,
    by backtracking over points with a line-consistency check."""
    lines_a = [frozenset(c) for c in cols_a]
    lines_b = {frozenset(c) for c in cols_b}
    pts_a = sorted(set().union(*lines_a))
    pts_b = sorted(set().union(*lines_b))
    if len(lines_a) != len(lines_b) or len(pts_a) != len(pts_b):
        return False
    if sorted(map(len, lines_a)) != sorted(map(len, lines_b)):
        return False
    deg_a = Counter(v for line in lines_a for v in line)
    deg_b = Counter(v for line in lines_b for v in line)
    if sorted(deg_a.values()) != sorted(deg_b.values()):
        return False
    # Assign points so each new point shares a line with an assigned one
    # where possible; that makes the line check prune early.
    order = [pts_a[0]]
    while len(order) < len(pts_a):
        placed = set(order)
        nxt = next(
            (v for line in lines_a if line & placed for v in sorted(line) if v not in placed),
            None,
        )
        order.append(nxt if nxt is not None else min(set(pts_a) - placed))
    through = {v: [line for line in lines_a if v in line] for v in pts_a}
    image = {}

    def consistent(v):
        for line in through[v]:
            if all(u in image for u in line) and frozenset(image[u] for u in line) not in lines_b:
                return False
        return True

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        taken = set(image.values())
        for w in pts_b:
            if w in taken or deg_b[w] != deg_a[v]:
                continue
            image[v] = w
            if consistent(v) and extend(i + 1):
                return True
            del image[v]
        return False

    return extend(0)


def coloring_problems(columns, black, red, green):
    """Reasons the black/red/green line classes are not a valid coloring:
    they must partition the lines into equal parts, and every point must lie
    on exactly one line of each color."""
    classes = (black, red, green)
    if sorted(i for cls in classes for i in cls) != list(range(len(columns))):
        return ["color classes do not partition the lines"]
    problems = []
    if len({len(cls) for cls in classes}) != 1:
        problems.append("color classes have unequal sizes")
    color = {i: name for name, cls in zip("brg", classes) for i in cls}
    for v in sorted({v for col in columns for v in col}):
        if sorted(color[i] for i, col in enumerate(columns) if v in col) != ["b", "g", "r"]:
            problems.append(f"point {v} does not meet one line of each color")
    return problems


# --- reference file ---------------------------------------------------------------------

SEARCH_BUDGET = 1000


def build_reference():
    three = three_line_families(4)
    four, cases = four_line_families(4, SEARCH_BUDGET)
    return {
        "produced_by": "python3 bench/oracle.py (RNG-free oracle, no vogeluniq code)",
        "search_par": {
            "call": 'enumerate_families(4, "three")',
            "cases_examined": len(stage1_classes(4)),
            "case_index": three,
        },
        "search": {
            "call": f'enumerate_families(4, "four", budget={SEARCH_BUDGET})',
            "cases_examined": cases,
            "case_index": four,
        },
    }


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


if __name__ == "__main__":
    ref = build_reference()
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}: {len(ref['search_par']['case_index'])} three-line families, "
          f"{len(ref['search']['case_index'])} four-line families in the first "
          f"{ref['search']['cases_examined']} cases", file=sys.stderr)
