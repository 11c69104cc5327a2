"""The vogeluniq benchmark: one workload per invocation, timed from outside.

    python3 bench/run.py --workload search|search-par|canon|reproduce \\
        --seed N --seconds S --trace 0|1

Run it from the root of a source tree; it imports the package from ``src/``.
Each workload runs in fresh processes of bench/workload.py.  With
``--trace 0`` this starts the workload three times up to its first timed
operation and a fourth time for the measured run; ``setup_s`` is the median
of the four times from process start to that point, each scaled to
reference seconds by the calibration the worker runs right after it (see
``REFERENCE_CALIBRATION_S`` in workload.py).  With ``--trace 1`` only the
measured run is started, with spans recorded around the public functions
(spans.py).

The last line of standard output is one JSON object:

* ``attempted`` and ``failed``: operations and failed verifications of
  one pass (every pass repeats it), plus the extra serial pass of a traced
  search-par run.  Known defects of the program count as failures here.
* ``correct``: every pass did the work the workload defines (the same
  number of cases, classes, tables or check lines, and the same work counts
  in every pass, traced or not), so the figures measure that work.
* ``metrics``: the ``end_to_end`` metrics of BENCHMARK.json with
  ``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``, each as
  ``{"value": ..., "unit": ...}``.  The end-to-end times are in reference
  seconds; the per-layer times are wall times.

The line before it holds, for reading by people, the work counts, the
share of failed operations, the untraced pass wall times, the calibration
times, the set-up wall times and any notes.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workload.py"
SETUP_PROBES = 3
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def start_worker(args, deadline):
    """Start a worker and wait for its READY line; returns the process and
    the seconds from start to READY."""
    env = {key: value for key, value in os.environ.items() if key != "VOGEL_SEED"}
    env["PYTHONHASHSEED"] = "0"
    began = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.perf_counter()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - began
        if line.strip() != "READY":
            raise BenchError(f"worker did not get ready: {line!r}")
    except BaseException:
        stop(proc)
        raise
    return proc, setup


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def finish(proc, deadline):
    """The worker's last output line, once it has exited cleanly."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "vogeluniq" / "__init__.py").is_file():
        print(f"error: no vogeluniq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    worker_args = [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                probe, setup = start_worker([*worker_args, "--setup-only"], deadline)
                setups.append((setup, json.loads(finish(probe, deadline))["setup_scale"]))
        proc, setup = start_worker(worker_args, deadline)
        result = json.loads(finish(proc, deadline))
        setups.append((setup, result["setup_scale"]))
    except (BenchError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    measured = dict(result["metrics"], setup_s=statistics.median(s * k for s, k in setups))
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"error: workload reported no {', '.join(missing)}", file=sys.stderr)
        return 1
    detail = dict(result["counts"], problems=result["problems"], notes=result["notes"])
    detail["setup_wall_s"] = [setup for setup, _ in setups]
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
