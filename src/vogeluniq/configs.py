"""Point-line configuration tables, colorability, and exact geometric sketches.

A configuration table records which points lie on which lines; validity means
every point label occurs in exactly `gamma` columns, every column holds `pi`
distinct labels, and two columns share at most one label.  A canonical form
represents a table up to relabeling of points and lines: an exact
individualization-refinement canonical labeling of the point-line incidence
(Levi) graph.  The labeling search yields each leaf's certificate as it goes,
so `isomorphic` runs the searches of two tables in step and stops at the
first certificate both reach, never doing more work than the two full
searches.

A colorable table splits its lines into black, red and green classes so that
every point lies on one line of each color: the combinatorial shadow of a
factor product that is identically one on its black lines.  Sketches go the
other way, from an explicit factor product to exact rational coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .formula import FactorProduct, convert_product
from .plane import (
    FAMILIES,
    Basis,
    DegenerateInputError,
    LinearForm,
    ProjPoint,
    family_line,
    incident,
    meet,
)


class NotAQPictureError(ValueError):
    """The factor product does not draw a valid triple-point picture."""


class MalformedColoringError(ValueError):
    """A black line's red/green pairing is not a bijection."""


@dataclass(frozen=True)
class ConfigurationTable:
    """Combinatorial (p_gamma l_pi) incidence table; columns hold point labels."""

    columns: tuple[tuple[int, ...], ...]

    def __init__(self, columns):
        cols = tuple(tuple(sorted(int(v) for v in col)) for col in columns)
        object.__setattr__(self, "columns", cols)

    @property
    def points(self) -> tuple[int, ...]:
        return tuple(sorted({v for col in self.columns for v in col}))

    @property
    def p(self) -> int:
        return len(self.points)

    @property
    def l(self) -> int:
        return len(self.columns)

    @property
    def gamma(self) -> int:
        counts = self._occurrences()
        return counts[self.points[0]] if self.points else 0

    @property
    def pi(self) -> int:
        return len(self.columns[0]) if self.columns else 0

    def _occurrences(self) -> dict[int, int]:
        counts: dict[int, int] = {}
        for col in self.columns:
            for v in col:
                counts[v] = counts.get(v, 0) + 1
        return counts

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "l": self.l,
            "gamma": self.gamma,
            "pi": self.pi,
            "columns": [list(col) for col in self.columns],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ConfigurationTable":
        columns = obj.get("columns") if isinstance(obj, dict) else None
        if not isinstance(columns, list) or not all(map(_is_int_list, columns)):
            raise ValueError(
                'table JSON must be an object whose "columns" is a list of lists '
                "of integer point labels"
            )
        return cls(columns)


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)


def validate_table(table: ConfigurationTable) -> list[str]:
    """All invariant violations, named; an empty list means the table is valid."""
    violations = []
    if not table.columns:
        return ["table has no columns"]
    pi = len(table.columns[0])
    for idx, col in enumerate(table.columns):
        if len(set(col)) != len(col):
            violations.append(f"column {idx} repeats a point label")
        if len(col) != pi:
            violations.append(f"column {idx} has {len(col)} labels, expected {pi}")
    counts = table._occurrences()
    gammas = sorted(set(counts.values()))
    if len(gammas) > 1:
        for label, count in sorted(counts.items()):
            if count != gammas[-1]:
                violations.append(
                    f"point {label} lies on {count} lines while others lie on {gammas[-1]}"
                )
    for i, j in itertools.combinations(range(len(table.columns)), 2):
        shared = set(table.columns[i]) & set(table.columns[j])
        if len(shared) > 1:
            violations.append(f"columns {i} and {j} share points {sorted(shared)}")
    return violations


# --- canonical labeling -------------------------------------------------------
#
# Individualization-refinement on the Levi graph (McKay & Piperno, "Practical
# graph isomorphism II", arXiv:1301.1493).  Vertices 0..p-1 are the points and
# p..p+l-1 the lines.  An ordered partition is held as `lab` (the vertices in
# cell order), `colour` (vertex -> index in `lab` where its cell starts) and
# `size` (cell start -> cell size); a colour is thus a position, which does
# not depend on the input labels.


def _refine(adj, lab, colour, size, active, bound=None) -> tuple | None:
    """Refine the partition in place to the coarsest equitable partition
    finer than it.

    `active` holds the starts of the cells to split against.  The active cell
    W with the smallest start is taken out and every cell with a neighbour
    of W is split by its members' neighbour counts in W, subcells in count
    order, so cell order is kept.  Subcells of an active cell become active;
    of any other split cell, all but the first largest do (the counts into it
    follow from the rest).  Returns the positions, counts and subcell sizes
    of every split: an invariant of the partition and the vertices
    individualized so far.  Returns None, leaving the partition half
    refined, as soon as that invariant falls below `bound`.
    """
    trace = []
    active = sum(1 << start for start in active)  # bit i set: the cell at i is active
    while active:
        splitter = (active & -active).bit_length() - 1
        active ^= 1 << splitter
        count = {}
        for v in lab[splitter : splitter + size[splitter]]:
            for u in adj[v]:
                count[u] = count.get(u, 0) + 1
        touched = 0  # bit i set: the cell at i has a neighbour of W
        for u in count:
            touched |= 1 << colour[u]
        while touched:
            start = (touched & -touched).bit_length() - 1
            touched ^= 1 << start
            k = size[start]
            if k == 1:
                continue
            cell = lab[start : start + k]
            keys = [count.get(v, 0) for v in cell]
            distinct = sorted(set(keys))
            if len(distinct) == 1:
                continue
            groups = {key: [] for key in distinct}
            for v, key in zip(cell, keys):
                groups[key].append(v)
            sizes = tuple(map(len, groups.values()))
            trace.append((splitter, start, tuple(distinct), sizes))
            if bound is not None:
                ref = bound[len(trace) - 1] if len(trace) <= len(bound) else None
                if ref is not None and trace[-1] < ref:
                    return None
                if ref is None or trace[-1] > ref:
                    bound = None
            keep = None if active >> start & 1 else start + sum(sizes[: sizes.index(max(sizes))])
            pos = start
            for group in groups.values():
                size[pos] = len(group)
                for v in group:
                    colour[v] = pos
                lab[pos : pos + len(group)] = group
                if pos != keep:
                    active |= 1 << pos
                pos += len(group)
    if bound is not None and len(trace) < len(bound):
        return None
    return tuple(trace)


def _canonical_labeling(columns: list[list[int]], npts: int):
    """Search the Levi graph of `columns`, whose entries are point indices
    0..npts-1, for its canonical leaf: a generator that yields the
    certificate of every leaf it visits, in visiting order, and returns the
    vertex order (points, then lines) of the canonical leaf.

    Points and lines start as two cells, points first.  A node's children
    individualize each vertex of its first largest non-singleton cell (on
    highly regular tables, such as the rows, columns and symbols of a group
    table, individualizing lines barely splits anything and the tree grows
    factorially).  The canonical leaf maximizes (the refinement invariants
    along its path, then its certificate), the certificate being the
    line-by-line point positions of the graph relabeled by the leaf.

    Pruning: a node whose path invariant falls below the best leaf's prefix
    is dropped; a child in the orbit of an explored sibling, under the
    automorphisms found so far that fix the node's individualized vertices,
    is skipped; and a leaf equivalent to the best leaf so far abandons its
    branch below the deepest node it shares with that leaf.
    """
    n = npts + len(columns)
    adj = [[] for _ in range(n)]
    for j, col in enumerate(columns):
        for pt in col:
            adj[pt].append(npts + j)
            adj[npts + j].append(pt)
    lab = list(range(n))
    colour = [0] * npts + [npts] * len(columns)
    size = [0] * n
    cells = [(start, end) for start, end in ((0, npts), (npts, n)) if start < end]
    for start, end in cells:
        size[start] = end - start
    _refine(adj, lab, colour, size, [start for start, _ in cells])
    best = None  # (path invariant, certificate, lab, path vertices) of the best leaf so far
    automorphisms: list[list[int]] = []

    def leaf(path, cert, lab, fixed) -> int:
        nonlocal best
        if best is not None and cert == best[1]:
            image = [0] * n
            for v, w in zip(best[2], lab):
                image[v] = w
            automorphisms.append(image)
            # The best leaf's branch below the deepest common node is done,
            # and this automorphism maps it onto the current branch: resume
            # at that node.
            return next(d for d, (v, w) in enumerate(zip(fixed, best[3])) if v != w)
        if best is None or (path, cert) > best[:2]:
            best = (path, cert, lab, fixed)
        return len(fixed)

    def skipped(w, explored, fixed) -> bool:
        gens = [g for g in automorphisms if all(g[v] == v for v in fixed)]
        orbit, frontier = {w}, [w]
        while frontier:
            v = frontier.pop()
            for g in gens:
                if g[v] not in orbit:
                    orbit.add(g[v])
                    frontier.append(g[v])
        return not orbit.isdisjoint(explored)

    def visit(lab, colour, size, path, fixed):
        """Search below a node, yielding its leaves' certificates; returns
        the depth the search resumes at."""
        target, start = None, 0
        while start < n:
            if 1 < size[start] and (target is None or size[start] > size[target]):
                target = start
            start += size[start]
        if target is None:
            cert = tuple(tuple(sorted([colour[u] for u in adj[v]])) for v in lab[npts:])
            yield cert
            return leaf(path, cert, lab, fixed)
        k = size[target]
        depth = len(path)
        explored = []
        for w in lab[target : target + k]:
            if explored and automorphisms and skipped(w, explored, fixed):
                continue
            explored.append(w)
            child_lab, child_colour, child_size = lab[:], colour[:], size[:]
            i = child_lab.index(w, target)
            child_lab[i] = child_lab[target]
            child_lab[target] = w
            rest = child_lab[target + 1 : target + k]
            for v in rest:
                child_colour[v] = target + 1
            child_size[target], child_size[target + 1] = 1, k - 1
            bound = None
            if best is not None and best[0][:depth] == path and len(best[0]) > depth:
                bound = best[0][depth]
            inv = _refine(adj, child_lab, child_colour, child_size, [target], bound)
            if inv is not None:
                resume = yield from visit(
                    child_lab, child_colour, child_size, path + (inv,), fixed + [w]
                )
                if resume < depth:
                    return resume
        return depth

    yield from visit(lab, colour, size, (), [])
    return best[2]


def _labeling_search(table: ConfigurationTable):
    """`_canonical_labeling` of the table, its points numbered in label
    order."""
    index = {pt: i for i, pt in enumerate(table.points)}
    return _canonical_labeling([[index[pt] for pt in col] for col in table.columns], len(index))


def _run_to_end(search):
    """Drain a generator; its return value."""
    while True:
        try:
            next(search)
        except StopIteration as stop:
            return stop.value


def canonical_form(table: ConfigurationTable) -> ConfigurationTable:
    """Canonical representative of the relabeling class; idempotent."""
    return _canonicalize(table)[0]


def _canonicalize(table: ConfigurationTable):
    """Canonical table plus the column order (canonical index -> original
    index).

    Points are numbered in the order of the canonical leaf of the table's
    Levi graph (`_canonical_labeling`); the relabeled columns are sorted.
    """
    points = table.points
    order = _run_to_end(_labeling_search(table))
    label_of = {points[v]: t for t, v in enumerate(order[: len(points)])}
    relabeled = [tuple(sorted(label_of[pt] for pt in col)) for col in table.columns]
    col_order = tuple(sorted(range(table.l), key=relabeled.__getitem__))
    return ConfigurationTable([relabeled[i] for i in col_order]), col_order


def isomorphic(t1: ConfigurationTable, t2: ConfigurationTable) -> bool:
    """Tables are identical up to relabeling points and lines.

    The two tables' labeling searches run in step, one leaf at a time, and
    the answer is True as soon as one search yields a certificate the other
    has already yielded; False once both have ended.

    * Soundness: a leaf's certificate lists, line by line in the leaf's
      order, the leaf positions of the line's points, so it is the table
      with points and lines relabeled by the leaf.  Equal certificates
      from a leaf of each search mean identical relabeled tables: the two
      leaves compose to a relabeling of t1 onto t2.
    * Completeness: each search yields every leaf it visits, its canonical
      leaf among them.  That leaf maximizes (path invariants, certificate)
      over the whole search tree, which relabeling maps onto the other
      table's tree, so isomorphic tables have equal canonical certificates
      (this is what makes `canonical_form` canonical).  Whichever search
      yields it second finds it shared, if no earlier certificate was.
    * Work bound: a search does, up to each leaf it yields, exactly the
      work of its full run up to that leaf, and is advanced no further
      than its end.  So this never runs more refinements than the two full
      searches, and exactly as many on tables of equal shape that are not
      isomorphic (no certificate is shared and both run to the end).
    """
    if (t1.p, t1.l, t1.gamma, t1.pi) != (t2.p, t2.l, t2.gamma, t2.pi):
        return False
    searches = (_labeling_search(t1), _labeling_search(t2))
    seen = (set(), set())
    live = [0, 1]
    while live:
        for side in tuple(live):
            cert = next(searches[side], None)
            if cert is None:
                live.remove(side)
            elif cert in seen[1 - side]:
                return True
            else:
                seen[side].add(cert)
    return False


# --- exhaustive (n_3) enumeration ----------------------------------------------


@dataclass
class N3Stats:
    """What one `enumerate_n3` call did.

    `tables_generated` counts the complete tables the pruned search reached,
    `tables_kept` those that are lex-minimal in their prefix-stabilizer orbit
    (the only ones labeled), and `classes` the relabeling classes found.
    """

    tables_generated: int = 0
    tables_kept: int = 0
    classes: int = 0


def enumerate_n3(n: int, stats: N3Stats | None = None) -> list[ConfigurationTable]:
    """All (n_3) configuration tables up to isomorphism, as canonical forms in
    order of first appearance.  Bounded to n <= 11; `stats`, when given, is
    filled in.

    For n >= 7 any (n_3) can be relabeled so the three lines through point 0
    are the prefix (0,1,2), (0,3,4), (0,5,6); the lex-sorted line list then
    starts with them.  They already need seven points, so smaller n have no
    tables; the plain search confirms.

    Only raw tables that are lex-minimal in their orbit under the prefix's
    stabilizer G are labeled (an orderly test, as in Betten, Brinkmann &
    Pisanski 2000).  This leaves the output unchanged:

    * `_complete_n3` without a group yields every labeled (n_3) that contains
      the prefix, once each, in lex order of line lists.
    * G maps that set onto itself, since g(T) contains g(prefix) = prefix.
    * So the G-orbit of a table lies inside its class's raw tables, and the
      first raw table of each class is lex-minimal in its orbit: it is kept.
    * The classes therefore come out in the same order, each keyed by the
      same canonical form, as when every raw table is labeled.
    """
    if n < 1 or n > 11:
        raise ValueError("enumeration is supported for 1 <= n <= 11")
    prefix = [(0, 1, 2), (0, 3, 4), (0, 5, 6)] if n >= 7 else []
    group = _prefix_stabilizer(n) if n >= 7 else []
    raw = _complete_n3(n, prefix, group)
    kept = [t for t in raw if _lex_minimal(t.columns[len(prefix) :], group)]
    classes: list[ConfigurationTable] = []
    seen: set[tuple] = set()
    for table in kept:
        key = canonical_form(table).columns
        if key not in seen:
            seen.add(key)
            classes.append(ConfigurationTable(key))
    if stats is not None:
        stats.tables_generated = len(raw)
        stats.tables_kept = len(kept)
        stats.classes = len(classes)
    return classes


def _prefix_stabilizer(n: int) -> list[list[int]]:
    """The stabilizer of the lines (0,1,2), (0,3,4), (0,5,6) in S_n, each
    element g as its point weights w[v] = 2^(n-1-g(v)).

    g fixes 0, the one point on all three lines; it permutes the pairs {1,2},
    {3,4}, {5,6}, may swap inside each, and permutes 7..n-1 freely, so
    |G| = 48 (n-7)!.  The identity comes first.
    """
    elements = []
    for pairs in itertools.permutations(((1, 2), (3, 4), (5, 6))):
        for swaps in itertools.product((False, True), repeat=3):
            head = [0]
            for (a, b), swap in zip(pairs, swaps):
                head += (b, a) if swap else (a, b)
            for tail in itertools.permutations(range(7, n)):
                elements.append([1 << (n - 1 - g) for g in head + list(tail)])
    return elements


def _lex_minimal(lines, group: list[list[int]]) -> bool:
    """No element of `group` (weight lists, identity first) maps the lex-sorted
    `lines` to a lex-smaller sorted list.

    A line's mask is the sum of its points' weights.  For 3-subsets, lex order
    is the reverse of mask order: the smallest point where two lines differ
    carries the highest differing bit.  So a lex-sorted list has descending
    masks, and sorted(g(L)) < L exactly when the descending masks of g(L)
    form the larger list.

    Callers pass only the lines after the prefix: g fixes 0, so it maps the
    prefix onto itself and the other lines (none through 0) among
    themselves, and sorted(g(T)) is the prefix followed by sorted(g(rest)).
    """
    if not group:
        return True
    own = group[0]
    masks = [own[a] | own[b] | own[c] for a, b, c in lines]
    return all(
        sorted([w[a] | w[b] | w[c] for a, b, c in lines], reverse=True) <= masks for w in group
    )


def _complete_n3(
    n: int, prefix: list[tuple[int, int, int]], group=()
) -> list[ConfigurationTable]:
    """Every labeled (n_3) table whose lex-sorted line list starts with
    `prefix`, once each, in lex order; with `group`, a stabilizer of the
    prefix, the partial tables that are not lex-minimal are cut.

    The cut tests the non-prefix lines L at every second line.  It is sound:
    for any completion T of L, the m = len(L) smallest lines of g(T) are,
    position by position, <= those of sorted(g(L)); so sorted(g(L)) < L
    gives sorted(g(T)) < T, and no completion is lex-minimal.  Testing at
    every line measured slower at n = 9 and 10 (2-core x86-64 host): the
    extra tests cut few tables.
    """
    degrees = [0] * n
    pair_used = set()
    for line in prefix:
        for v in line:
            degrees[v] += 1
        for a, b in itertools.combinations(line, 2):
            pair_used.add((a, b))
    results: list[ConfigurationTable] = []
    lines = list(prefix)
    fixed = len(prefix)

    def backtrack():
        if len(lines) == n:
            if all(d == 3 for d in degrees):
                results.append(ConfigurationTable(lines))
            return
        added = len(lines) - fixed
        if added and added % 2 == 0 and not _lex_minimal(lines[fixed:], group):
            return
        deficient = [v for v in range(n) if degrees[v] < 3]
        if not deficient:
            return
        q = deficient[0]
        # every remaining line consists of deficient points and the lex-next
        # line must contain the smallest one
        last = lines[-1] if lines else None
        for a, b in itertools.combinations([v for v in deficient if v > q], 2):
            line = (q, a, b)
            if last is not None and line <= last:
                continue
            if (q, a) in pair_used or (q, b) in pair_used or (a, b) in pair_used:
                continue
            lines.append(line)
            for v in line:
                degrees[v] += 1
            for pair in ((q, a), (q, b), (a, b)):
                pair_used.add(pair)
            backtrack()
            lines.pop()
            for v in line:
                degrees[v] -= 1
            for pair in ((q, a), (q, b), (a, b)):
                pair_used.discard(pair)

    backtrack()
    return results


# --- colorings -----------------------------------------------------------------


@dataclass(frozen=True)
class Coloring:
    """Line indices per color; black order is meaningful (it fixes which
    permutation each non-first black line contributes)."""

    black: tuple[int, ...]
    red: tuple[int, ...]
    green: tuple[int, ...]

    def to_json(self) -> dict:
        return {"black": list(self.black), "red": list(self.red), "green": list(self.green)}

    @classmethod
    def from_json(cls, obj: dict) -> "Coloring":
        keys = ("black", "red", "green")
        if not isinstance(obj, dict) or not all(_is_int_list(obj.get(key)) for key in keys):
            raise ValueError(
                'coloring JSON must be an object whose "black", "red" and "green" '
                "are lists of integer line indices"
            )
        return cls(*(tuple(obj[key]) for key in keys))


def validate_coloring(table: ConfigurationTable, coloring: Coloring) -> list[str]:
    violations = []
    classes = (coloring.black, coloring.red, coloring.green)
    assigned = [idx for cls in classes for idx in cls]
    if sorted(assigned) != list(range(table.l)):
        violations.append("color classes do not partition the line indices")
        return violations
    if not (len(coloring.black) == len(coloring.red) == len(coloring.green)):
        violations.append("color classes have unequal sizes")
    color_of = {}
    for color, cls in zip("brg", classes):
        for idx in cls:
            color_of[idx] = color
    lines_through = _lines_through(table)
    for pt in table.points:
        colors = sorted(color_of[idx] for idx in lines_through[pt])
        if colors != ["b", "g", "r"]:
            violations.append(f"point {pt} does not meet one line of each color")
    return violations


def _lines_through(table: ConfigurationTable) -> dict[int, list[int]]:
    """The column indices through each point label, in column order."""
    through: dict[int, list[int]] = {}
    for idx, col in enumerate(table.columns):
        for pt in set(col):
            through.setdefault(pt, []).append(idx)
    return through


def find_coloring(table: ConfigurationTable) -> Coloring | None:
    """First black/red/green partition in deterministic order, or None.

    The table is canonicalized first so the answer does not depend on the
    input's column order; the classes are then pulled back to the original
    column indices.
    """
    violations = validate_table(table)
    if violations:
        raise ValueError("invalid table: " + "; ".join(violations))
    if table.gamma != 3 or table.l % 3 != 0:
        raise ValueError("coloring needs gamma = 3 and a line count divisible by 3")
    canonical, col_order = _canonicalize(table)
    coloring = _color_canonical(canonical)
    if coloring is None:
        return None
    classes = {0: [], 1: [], 2: []}
    for canon_idx, color in enumerate(coloring):
        classes[color].append(col_order[canon_idx])
    return Coloring(
        tuple(sorted(classes[0])), tuple(sorted(classes[1])), tuple(sorted(classes[2]))
    )


def _color_canonical(table: ConfigurationTable) -> list[int] | None:
    """Backtracking proper 3-coloring where lines through a common point get
    distinct colors; first solution in lex order on (line index, color)."""
    l = table.l
    conflicts: list[set[int]] = [set() for _ in range(l)]
    for through in _lines_through(table).values():
        for a, b in itertools.combinations(through, 2):
            conflicts[a].add(b)
            conflicts[b].add(a)
    colors = [-1] * l
    used = [0, 0, 0]  # lines given each color so far
    quota = l // 3

    def backtrack(idx: int) -> bool:
        if idx == l:
            return True
        for color in range(3):
            if used[color] >= quota:
                continue
            if any(colors[other] == color for other in conflicts[idx]):
                continue
            colors[idx] = color
            used[color] += 1
            if backtrack(idx + 1):
                return True
            colors[idx] = -1
            used[color] -= 1
        return False

    return colors if backtrack(0) else None


# --- permutation extraction -----------------------------------------------------


def extract_permutations(table: ConfigurationTable, coloring: Coloring):
    """The red/green pairing permutations carried by the non-first black lines.

    Once the coloring is valid every point lies on one red and one green
    line; on each black line this pairing must be a bijection.  Green lines
    are relabeled so the first black line's pairing becomes the identity; the
    remaining black lines then define permutations (s, p) or (s, p, v) in the
    caller's black order, mapping a green index to its red partner.
    """
    violations = validate_coloring(table, coloring)
    if violations:
        raise MalformedColoringError("; ".join(violations))
    if not coloring.black:
        raise MalformedColoringError("coloring has no black line")
    red_pos = {idx: i for i, idx in enumerate(coloring.red)}
    green_pos = {idx: i for i, idx in enumerate(coloring.green)}
    k = len(coloring.red)
    lines_through = _lines_through(table)
    pairings = []
    for black in coloring.black:
        pairing = {}
        for pt in table.columns[black]:
            r = next(red_pos[idx] for idx in lines_through[pt] if idx in red_pos)
            g = next(green_pos[idx] for idx in lines_through[pt] if idx in green_pos)
            if g in pairing:
                raise MalformedColoringError(
                    f"green line {coloring.green[g]} pairs twice on black line {black}"
                )
            pairing[g] = r
        if sorted(pairing) != list(range(k)) or sorted(pairing.values()) != list(range(k)):
            raise MalformedColoringError(f"pairing on black line {black} is not a bijection")
        pairings.append(pairing)
    # relabel greens so the first black line pairs green r with red r
    green_of = {r: g for g, r in pairings[0].items()}
    return tuple(tuple(pairing[green_of[r]] for r in range(k)) for pairing in pairings[1:])


# --- sketches --------------------------------------------------------------------


@dataclass(frozen=True)
class IncidenceSketch:
    """Exact rational realization of a colored picture: every point is the
    meet of one black, one red and one green line, and all recorded
    incidences hold exactly."""

    points: tuple[ProjPoint, ...]
    line_forms: tuple[LinearForm, ...]
    line_colors: tuple[str, ...]
    line_labels: tuple[str, ...]
    table: ConfigurationTable
    coloring: Coloring
    basis: Basis


def sketch_from_q(F: FactorProduct, black_lines) -> IncidenceSketch:
    """Draw the picture of a factor product: numerator factors are red lines,
    denominator factors green, and each given black line must carry exactly
    k triple points, one per red and one per green line.

    Each red line i meets black line b in one point, through which exactly
    one green line j must pass; j must be new on b, and the point must lie on
    no earlier black line.  The point is stored as meet(red i, green j) and
    labeled in order of (b, i); the configuration table read off the sketch
    is attached.
    """
    blacks = list(black_lines)
    if not blacks:
        raise ValueError("at least one black line is required")
    basis = blacks[0].basis
    if any(b.basis is not basis for b in blacks):
        raise ValueError("black lines must share a basis")
    F = convert_product(F, basis)
    k = F.k
    if len(blacks) != k:
        raise NotAQPictureError(
            f"a k = {k} product needs {k} black lines, got {len(blacks)}"
        )
    reds = list(F.num)
    greens = list(F.den)
    all_lines = blacks + reds + greens
    for i, j in itertools.combinations(range(len(all_lines)), 2):
        if all_lines[i].same_line(all_lines[j]):
            raise NotAQPictureError(
                f"lines {i} and {j} of the picture are proportional"
            )
    points: list[ProjPoint] = []
    columns: list[list[int]] = [[] for _ in range(3 * k)]
    for b_idx, black in enumerate(blacks):
        for i, red in enumerate(reds):
            pt = meet(red, black)
            through = [j for j, green in enumerate(greens) if incident(pt, green)]
            if len(through) != 1:
                raise NotAQPictureError(
                    f"red line {i} meets black line {b_idx} on {len(through)} green lines"
                )
            j = through[0]
            if not set(columns[b_idx]).isdisjoint(columns[2 * k + j]):
                raise NotAQPictureError(
                    f"green line {j} crosses black line {b_idx} at two triple points"
                )
            earlier = next((c for c in range(b_idx) if incident(pt, blacks[c])), None)
            if earlier is not None:
                raise NotAQPictureError(
                    f"triple point of black line {b_idx} already lies on black line {earlier}"
                )
            for col in (b_idx, k + i, 2 * k + j):
                columns[col].append(len(points))
            points.append(meet(red, greens[j]))
    for line, col in zip(all_lines, columns):
        assert all(incident(points[label], line) for label in col)
    labels = tuple(
        [_black_label(b, idx) for idx, b in enumerate(blacks)]
        + [f"r{i + 1}" for i in range(k)]
        + [f"g{j + 1}" for j in range(k)]
    )
    return IncidenceSketch(
        points=tuple(points),
        line_forms=tuple(all_lines),
        line_colors=tuple(["black"] * k + ["red"] * k + ["green"] * k),
        line_labels=labels,
        table=ConfigurationTable(columns),
        coloring=Coloring(
            tuple(range(k)), tuple(range(k, 2 * k)), tuple(range(2 * k, 3 * k))
        ),
        basis=basis,
    )


def _black_label(form: LinearForm, idx: int) -> str:
    for name in FAMILIES:
        if form.same_line(family_line(name, form.basis)):
            return name
    return f"b{idx + 1}"


# --- SVG emission -----------------------------------------------------------------


_SVG_COLORS = {"black": "#000000", "red": "#c22a2a", "green": "#1f8a3d"}
_SVG_SIZE = 720


def _chart_candidates(basis: Basis):
    yield LinearForm((1, 0, 0), basis)
    yield LinearForm((0, 1, 0), basis)
    yield LinearForm((0, 0, 1), basis)
    for q in range(1, 40):
        yield LinearForm((1, q, q * q), basis)


def choose_chart(sketch: IncidenceSketch) -> LinearForm:
    """First chart line (sent to infinity) with no sketch point on it and not
    proportional to any sketch line."""
    for chart in _chart_candidates(sketch.basis):
        if any(incident(pt, chart) for pt in sketch.points):
            continue
        if any(chart.same_line(f) for f in sketch.line_forms):
            continue
        return chart
    raise DegenerateInputError("no usable chart line found")


def emit_svg(sketch: IncidenceSketch, path=None) -> str:
    """Render the sketch deterministically; identical inputs give
    byte-identical output.

    The chart line (`choose_chart`) goes to infinity.  With `rest` the last
    coordinate where the chart w is nonzero and i < j the other two, a point
    P lands at (P[i], P[j]) / w(P), and a line f = a*e_i + b*e_j + t*w, with
    t = f[rest] / w[rest], at a*x + b*y + t = 0.
    """
    chart = choose_chart(sketch)
    w = chart.coeffs
    rest = next(c for c in (2, 1, 0) if w[c] != 0)
    i, j = (c for c in range(3) if c != rest)
    pts_xy = []
    for pt in sketch.points:
        h = chart(pt)
        pts_xy.append((float(pt.coords[i] / h), float(pt.coords[j] / h)))
    xs = [x for x, _ in pts_xy]
    ys = [y for _, y in pts_xy]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    pad = 0.2 * span
    x0, y0 = min(xs) - pad, min(ys) - pad
    x1, y1 = max(xs) + pad, max(ys) + pad
    scale = _SVG_SIZE / max(x1 - x0, y1 - y0)

    def to_screen(x, y):
        return ((x - x0) * scale, (y1 - y) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="#ffffff"/>',
    ]
    for form, color, label in zip(sketch.line_forms, sketch.line_colors, sketch.line_labels):
        f = form.coeffs
        t = f[rest] / w[rest]
        seg = _clip_line(float(f[i] - t * w[i]), float(f[j] - t * w[j]), float(t), x0, y0, x1, y1)
        if seg is None:
            continue
        (ax, ay), (bx, by) = to_screen(*seg[0]), to_screen(*seg[1])
        stroke = _SVG_COLORS[color]
        parts.append(
            f'<line x1="{ax:.3f}" y1="{ay:.3f}" x2="{bx:.3f}" y2="{by:.3f}" '
            f'stroke="{stroke}" stroke-width="1.4"/>'
        )
        lx, ly = ax * 0.9 + bx * 0.1, ay * 0.9 + by * 0.1
        parts.append(
            f'<text x="{lx:.3f}" y="{ly:.3f}" font-size="13" fill="{stroke}" '
            f'font-family="monospace">{label}</text>'
        )
    for idx, (x, y) in enumerate(pts_xy):
        sx, sy = to_screen(x, y)
        parts.append(f'<circle cx="{sx:.3f}" cy="{sy:.3f}" r="3.2" fill="#000000"/>')
        parts.append(
            f'<text x="{sx + 5:.3f}" y="{sy - 5:.3f}" font-size="11" fill="#444444" '
            f'font-family="monospace">P{idx + 1}</text>'
        )
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text


def _clip_line(a, b, c, x0, y0, x1, y1):
    """Segment of a*x + b*y + c = 0 inside the box, or None."""
    pts = []
    if abs(b) > 1e-12:
        for x in (x0, x1):
            y = -(a * x + c) / b
            if y0 - 1e-9 <= y <= y1 + 1e-9:
                pts.append((x, y))
    if abs(a) > 1e-12:
        for y in (y0, y1):
            x = -(b * y + c) / a
            if x0 - 1e-9 <= x <= x1 + 1e-9:
                pts.append((x, y))
    dedup = []
    for pt in pts:
        if all(abs(pt[0] - q[0]) + abs(pt[1] - q[1]) > 1e-9 for q in dedup):
            dedup.append(pt)
    if len(dedup) < 2:
        return None
    dedup.sort()
    return dedup[0], dedup[-1]

