"""One benchmark workload, run in a fresh process started by run.py.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

The process imports vogeluniq from ``src/``, builds the workload's inputs
from the seed, warms up, and prints ``READY``; run.py times process start to
that line as set-up.  It then runs passes over the same inputs, one caller,
closed loop, while the next pass is expected to end within ``--seconds``,
and checks every pass's outputs against the references in oracle.py and
reference.json.  The last line of output is one JSON object for run.py.

Every pass is followed by a run of the fixed calibration computation
(`Calibration`), and the end-to-end times are scaled by it to reference
seconds; see `REFERENCE_CALIBRATION_S` for why.

Every pass uses one pass seed derived from the workload seed, so each pass
repeats the same work and the same failures.  The operations attempted and
failed are counted once per distinct call, not once per pass, so they do not
depend on how many passes fit in the time; a pass that differs from the
first makes the run incorrect.

With ``--trace 1`` untraced and traced passes (spans.py) alternate, so the
trace overhead is measured in the same process on the same machine state.
The spans are written to ``.bench_out/``.

The program's functions are always called through their module
(``qsearch.enumerate_families``), so that the traced run's wrappers see the
calls.  The checks call the originals, imported by name, and are not timed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402
from vogeluniq import cli, configs, qsearch  # noqa: E402
from vogeluniq.configs import ConfigurationTable  # noqa: E402
from vogeluniq.formula import cancel  # noqa: E402
from vogeluniq.identity import check_on_lines  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 4  # they alternate, so two untraced and two traced
SEARCH_PAR_THREADS = 2
# (n, number of random (n_3) tables).  n = 11 and 12 are left out: one check
# there costs 0.3 s to 2.3 s and varies by about 55% between tables and
# between relabelings of one table, more than a 20 s run can average out.
CANON_TABLES = ((9, 24), (10, 48))
CANON_P4_COPIES = 1
# The (16_3 12_4) table that `reproduce P4` sketches from builtin_q_prop4.
P4_TABLE = (
    (0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15),
    (0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15),
    (0, 5, 11, 14), (1, 4, 10, 15), (2, 7, 9, 12), (3, 6, 8, 13),
)
# Check lines each reproduce target prints before its summary line.
REPRODUCE_CHECKS = {"P1-remark": 4, "P2-k3": 3, "P3": 4, "P4": 12}
# The shared host's speed drifts by 20% and more from one minute to the next,
# for the program and for any fixed computation alike, so the medians of
# runs made minutes apart spread wider than a bound a change could be held
# to.  A fixed computation of the benchmark's own (`Calibration`) therefore
# runs after every pass, and the end-to-end times are scaled to a machine on
# which its median time is REFERENCE_CALIBRATION_S, its typical time on the
# 2-vCPU VM the benchmark was written on.  A change to the program moves the
# scaled times; a change of the host's speed moves both medians alike.
REFERENCE_CALIBRATION_S = 0.5
CALIBRATION_SYSTEMS = 120
CALIBRATION_TABLES = 90


@dataclass
class Verdict:
    """What one pass did: operations attempted and failed, work counts that
    must repeat exactly, reasons the pass is not the defined work, and
    timings of parts of the pass."""

    ops: int
    failed: int
    counts: dict
    broken: list = field(default_factory=list)
    times: dict = field(default_factory=dict)


# --- workloads ------------------------------------------------------------------------


class _Search:
    """Checks shared by the two search workloads: the found case indices
    against the oracle's list, and each found family for soundness."""

    reference_key = ""
    complete = True

    def __init__(self, seed):
        self.seed = seed
        self.reference = oracle.load_reference()[self.reference_key]

    def check(self, result):
        expected = self.reference["cases_examined"]
        found = [f.case_index for f in result.families]
        bad = set(found) ^ set(self.reference["case_index"])
        bad.update(f.case_index for f in result.families if not _sound(f))
        counts = {
            "qsearch.cases_examined": result.cases_examined,
            "qsearch.families_found": len(found),
            "qsearch.case_index": found,
        }
        broken = []
        if result.cases_examined != expected or result.complete != self.complete:
            broken.append(
                f"examined {result.cases_examined} cases (complete={result.complete}),"
                f" expected {expected} (complete={self.complete})"
            )
        return Verdict(expected, min(len(bad), expected), counts, broken)


def _sound(found):
    """The family is one on its system lines and keeps a factor after
    cancellation, at one fixed instantiation."""
    params = tuple(Fraction(2 * j + 3, 5 * j + 7) for j in range(found.family.free_parameters))
    try:
        product = found.family.factor_product(params)
    except ValueError:
        return False
    reports = check_on_lines(product, found.system.line_forms())
    return all(r.identically_one for r in reports) and cancel(product).k > 0


class Search(_Search):
    """Serial budgeted k = 4 four-line search; one operation is one stage-2 case."""

    reference_key = "search"
    complete = False

    def warm_up(self):
        qsearch.enumerate_families(3, "four", budget=20, seed=self.seed)

    def run(self):
        return qsearch.enumerate_families(
            4, "four", budget=self.reference["cases_examined"], seed=self.seed
        )


class SearchPar(_Search):
    """Exhaustive k = 4 three-line search on a process pool; one operation
    is one stage-1 class."""

    reference_key = "search_par"

    def warm_up(self):
        qsearch.enumerate_families(2, "three", seed=self.seed)

    def run(self, threads=SEARCH_PAR_THREADS):
        return qsearch.enumerate_families(4, "three", threads=threads, seed=self.seed)


@dataclass
class CanonItem:
    table: ConfigurationTable
    relabeled: ConfigurationTable
    color: bool


class Canon:
    """Canonical labeling of random (n_3) tables and of the P4 sketch table,
    each against a random relabeling of itself; one operation is one table."""

    def __init__(self, seed):
        rng = random.Random(seed)
        self.items = []
        for n, count in CANON_TABLES:
            for _ in range(count):
                self.items.append(self._item(oracle.random_n3(n, rng), rng))
        for _ in range(CANON_P4_COPIES):
            self.items.append(self._item(oracle.relabel(P4_TABLE, rng), rng))
        self.oracle_verdicts = {}

    @staticmethod
    def _item(columns, rng):
        table = ConfigurationTable(columns)
        # find_coloring needs a line count divisible by three.
        return CanonItem(table, ConfigurationTable(oracle.relabel(columns, rng)), table.l % 3 == 0)

    def warm_up(self):
        configs.canonical_form(self.items[0].table)

    def run(self):
        out = []
        clock = time.perf_counter
        for item in self.items:
            start = clock()
            forms = (configs.canonical_form(item.table), configs.canonical_form(item.relabeled))
            same = configs.isomorphic(item.table, item.relabeled)
            colorings = (None, None)
            if item.color:
                colorings = (configs.find_coloring(item.table), configs.find_coloring(item.relabeled))
            out.append((clock() - start, forms, same, colorings))
        return out

    def check(self, outputs):
        failed = 0
        colorable = 0
        for index, (item, (_, forms, same, colorings)) in enumerate(zip(self.items, outputs)):
            problems = forms[0].columns != forms[1].columns or not same
            problems |= not self._is_relabeling(index, item.table, forms[0])
            problems |= (colorings[0] is None) != (colorings[1] is None)
            for table, coloring in zip((item.table, item.relabeled), colorings):
                if coloring is not None:
                    problems |= bool(oracle.coloring_problems(
                        table.columns, coloring.black, coloring.red, coloring.green
                    ))
            failed += problems
            colorable += colorings[0] is not None
        counts = {"canon.tables": len(self.items), "canon.colorable": colorable}
        op_ms = [1000 * seconds for seconds, *_ in outputs]
        return Verdict(len(self.items), failed, counts, times={"op_ms": op_ms})

    def _is_relabeling(self, index, table, form):
        """Whether the canonical form is isomorphic to its table, by the
        oracle's own test (cached: every pass returns the same forms)."""
        key = (index, form.columns)
        if key not in self.oracle_verdicts:
            self.oracle_verdicts[key] = oracle.isomorphic(form.columns, table.columns)
        return self.oracle_verdicts[key]


class Reproduce:
    """All four `vogeluniq reproduce` targets through cli.main; one
    operation is one PASS/FAIL check line."""

    def __init__(self, seed):
        self.seed = seed

    def _call(self, target):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(["--seed", str(self.seed), "reproduce", target])
        return code, buffer.getvalue()

    def warm_up(self):
        self._call("P4")

    def run(self):
        out = []
        for target in REPRODUCE_CHECKS:
            start = time.perf_counter()
            code, text = self._call(target)
            out.append((target, time.perf_counter() - start, code, text))
        return out

    def check(self, outputs):
        ops = failed = 0
        counts = {}
        broken = []
        times = {}
        for target, seconds, code, text in outputs:
            *lines, summary = text.splitlines() or [""]
            passed = sum(line.startswith("PASS  ") for line in lines)
            fails = sum(line.startswith("FAIL  ") for line in lines)
            ops += len(lines)
            failed += len(lines) - passed
            counts[f"reproduce.{target}.passed"] = passed
            times[target] = seconds
            verdict = "FAIL" if fails else "PASS"
            if (
                len(lines) != REPRODUCE_CHECKS[target]
                or passed + fails != len(lines)
                or code != (1 if fails else 0)
                or summary != f"{verdict}  {target}: {passed}/{len(lines)} checks"
            ):
                broken.append(f"{target}: unexpected output (exit {code}): {text!r}")
        return Verdict(ops, failed, counts, broken, times)


WORKLOADS = {"search": Search, "search-par": SearchPar, "canon": Canon, "reproduce": Reproduce}


# --- measuring ------------------------------------------------------------------------------


class Calibration:
    """A fixed computation in oracle.py's plain Python, never the program's
    code: Gauss-Jordan elimination over Fraction of four-line systems, like
    the search workloads, and backtracking isomorphism tests of (9_3)
    tables, like canon.  Calling it returns the seconds it took."""

    def __init__(self):
        rng = random.Random(0)
        perms = list(itertools.permutations(range(4)))

        def signs():
            return tuple(rng.choice((1, -1)) for _ in range(4))

        self.systems = [
            oracle.equations(4, rng.choice(perms), rng.choice(perms), signs(), signs(),
                             rng.choice(perms), signs())
            for _ in range(CALIBRATION_SYSTEMS)
        ]
        self.tables = []
        for _ in range(CALIBRATION_TABLES):
            columns = oracle.random_n3(9, rng)
            self.tables.append((columns, oracle.relabel(columns, rng)))

    def __call__(self):
        # Collection is off so that a large heap left by the program does
        # not slow the calibration.
        gc.disable()
        try:
            began = time.perf_counter()
            for rows in self.systems:
                oracle.solution_basis(rows, 12)
            for columns, relabeled in self.tables:
                oracle.isomorphic(columns, relabeled)
            return time.perf_counter() - began
        finally:
            gc.enable()


def pass_seed(seed):
    return random.Random(seed).randrange(1 << 30)


def timed_pass(workload, tracer=None, **kwargs):
    """Run one pass, traced under a new pass id when a tracer is given;
    returns its wall time and output."""
    if tracer is not None:
        tracer.pass_id += 1
        tracer.install()
    try:
        began = time.perf_counter()
        output = workload.run(**kwargs)
        return time.perf_counter() - began, output
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure(workload, seconds, min_passes, calibrate, tracer=None):
    """Passes while the next one is expected to end within `seconds`, each
    followed by a calibration.  With a tracer every second pass is traced,
    so that untraced and traced passes see the same machine.  Returns the
    calibration times and (seconds, verdict, pass id or None) per pass."""
    calibrations = [calibrate()]
    passes = []
    start = time.perf_counter()
    while len(passes) < min_passes or (
        time.perf_counter() - start + passes[-1][0] + calibrations[-1] <= seconds
    ):
        traced = tracer if tracer is not None and len(passes) % 2 else None
        elapsed, output = timed_pass(workload, traced)
        calibrations.append(calibrate())
        passes.append((elapsed, workload.check(output), traced.pass_id if traced else None))
    return calibrations, passes


def summarize(times, verdicts):
    """End-to-end metrics of a set of passes, from the pass times given; the
    timings of parts of a pass are wall times."""
    metrics = {
        "pass_s": statistics.median(times),
        "ops_per_s": statistics.median(v.ops / t for v, t in zip(verdicts, times)),
    }
    op_ms = [t for v in verdicts for t in v.times.get("op_ms", ())]
    if op_ms:
        metrics["op_p50_ms"] = statistics.median(op_ms)
        metrics["op_p90_ms"] = statistics.quantiles(op_ms, n=10, method="inclusive")[-1]
    for target, name in (("P1-remark", "p1_remark_s"), ("P2-k3", "p2_k3_s"), ("P3", "p3_s")):
        samples = [v.times[target] for v in verdicts if target in v.times]
        if samples:
            metrics[name] = statistics.median(samples)
    return metrics


def consistency(verdicts):
    """Reasons the passes are not all the same valid work."""
    problems = sorted({reason for v in verdicts for reason in v.broken})
    first = verdicts[0]
    for v in verdicts[1:]:
        if (v.counts, v.ops, v.failed) != (first.counts, first.ops, first.failed):
            problems.append(f"pass repeated different work: {v.counts} vs {first.counts}")
            break
    return problems


def trace_metrics(workload, tracer, passes, problems, notes, verdicts, extra):
    """Per-layer metrics of a traced run.  Adds to `problems` any work count
    the wrappers saw that the outputs contradict, and to `extra` the verdict
    of the extra serial pass of search-par."""
    plain = [(elapsed, verdict) for elapsed, verdict, pid in passes if pid is None]
    traced_ids = [pid for _, _, pid in passes if pid is not None]
    traced_times = [elapsed for elapsed, _, pid in passes if pid is not None]
    plain_times = [elapsed for elapsed, _ in plain]
    # Timings of parts of a pass come from the untraced passes; they are
    # zero on workloads that have no such part.
    metrics = dict.fromkeys(("op_p50_ms", "op_p90_ms", "p1_remark_s", "p2_k3_s", "p3_s"), 0.0)
    metrics.update(summarize(plain_times, [verdict for _, verdict in plain]))
    del metrics["pass_s"], metrics["ops_per_s"]
    metrics["trace.overhead_ratio"] = statistics.median(traced_times) / statistics.median(plain_times)
    metrics["qsearch.pool.speedup"] = 0.0
    layer_ids = traced_ids
    if isinstance(workload, SearchPar):
        serial_s, serial = timed_pass(workload, tracer, threads=1)
        layer_ids = [tracer.pass_id]
        metrics["qsearch.pool.speedup"] = serial_s / statistics.median(traced_times)
        verdict = workload.check(serial)
        extra.append(verdict)
        problems += [f"threads=1 pass: {reason}" for reason in verdict.broken]
        notes.append(
            "spans made in the pool's worker processes are not collected; per-layer calls,"
            " self times and ratios come from one traced threads=1 pass, work counts from"
            f" the threads=2 passes; the threads=1 pass found {verdict.counts['qsearch.families_found']}"
            f" families, {verdict.failed} classes failed against the reference"
        )
    metrics.update(tracer.layer_stats(layer_ids))
    work = tracer.layer_stats(traced_ids)
    for key in ("qsearch.cases_examined", "qsearch.families_found", "configs.classes"):
        metrics[key] = work[key]
        seen = verdicts[0].counts.get(key)
        if seen is not None and seen != work[key]:
            problems.append(f"{key}: traced wrappers saw {work[key]}, outputs say {seen}")
    for target in REPRODUCE_CHECKS:
        key = f"reproduce.{target}.passed"
        metrics[key] = verdicts[0].counts.get(key, 0)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](pass_seed(args.seed))
    workload.warm_up()
    print("READY", flush=True)
    calibrate = Calibration()
    if args.setup_only:
        print(json.dumps({"setup_scale": REFERENCE_CALIBRATION_S / calibrate()}), flush=True)
        return 0

    tracer = Tracer() if args.trace else None
    calibrations, passes = measure(
        workload, args.seconds, MIN_TRACED_PASSES if tracer else MIN_PASSES, calibrate, tracer
    )
    times = [elapsed for elapsed, _, _ in passes]
    verdicts = [verdict for _, verdict, _ in passes]
    problems = consistency(verdicts)
    notes = []
    extra = []
    if tracer is None:
        scale = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
        metrics = summarize([elapsed * scale for elapsed in times], verdicts)
    else:
        metrics = trace_metrics(workload, tracer, passes, problems, notes, verdicts, extra)
        name = f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(ROOT / ".bench_out" / name)
        notes.append(f"spans written to .bench_out/{name}")

    # consistency() has checked that every pass repeats the first one.
    ops = sum(v.ops for v in (verdicts[0], *extra))
    failed = sum(v.failed for v in (verdicts[0], *extra))
    counts = dict(verdicts[0].counts)
    counts["fail_share"] = failed / ops
    counts["passes"] = len(passes)
    if tracer is None:
        counts["pass_wall_s"] = times
        counts["calibration_s"] = calibrations
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({
        "setup_scale": REFERENCE_CALIBRATION_S / calibrations[0],
        "ops": ops,
        "failed": failed,
        "problems": problems,
        "counts": counts,
        "metrics": metrics,
        "notes": notes,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
