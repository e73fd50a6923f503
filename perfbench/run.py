#!/usr/bin/env python3
"""qwlab benchmark: three workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py --workload rate_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # readable tables, both modes

Run from the root of a qwlab checkout; the program is used from ``src/``
as it stands, nothing is installed.  Every child process is started here,
one at a time, with BLAS/OpenMP pools pinned to one thread:

* every child is timed from its start until ``import qwlab, qwlab.cli``
  and ``metrics.default_weights()`` are done (``setup_s``, the median over
  at least five children, topped up with set-up-only children);
* pass children each run one timed pass of the workload (``wall_s``) and
  report their peak RSS (``peak_rss_mb``).
  Passes repeat until ``--seconds`` is used up, to the nearest whole pass,
  and at least twice, because the outputs of two passes must be identical;
* a check child runs the untimed correctness checks on the first pass's
  outputs and reports provenance.

With ``--trace 1`` one untraced and one traced pass run; the traced one
wraps the program's public functions from the benchmark's own files
(``layers.py``) and reports per-layer times and counts.

Operations are CLI calls, library calls and checks; ``failed`` counts those
that raised, exited nonzero or missed their oracle, and ``correct`` is true
only if none failed.  The program's known defects (``KNOWN_DEFECTS`` in
``workloads.py``) are counted, not avoided: inputs come from the seed alone,
and a probe of a known defect that fails with the defect's signature is
counted against the defect rather than in ``failed``.  ``error_rate`` is
all failures, known ones included, over ``attempted``; it is printed, and
reported with the per-layer metrics as ``checks.error_rate``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

WORKLOADS = ("rate_sweep", "deep_walk", "limit_law")
SETUP_SAMPLES = 5
MIN_PASSES = 2
RUN_BUDGET_S = 170.0  # every run must end within 180 s

PINNED_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    """The benchmark itself could not produce a result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(role, workload, seed, out_dir, deadline, trace=False) -> tuple:
    """Run one child to completion; (seconds until ready, its JSON result)."""
    argv = [sys.executable, str(HERE / "child.py"), role, workload, str(seed), str(out_dir)]
    if trace:
        argv.append("--trace")
    start = time.perf_counter()
    # Unbuffered, so reading the ready line takes nothing from the pipe that
    # communicate() reads afterwards.
    proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, bufsize=0)
    try:
        first = b""
        while not first.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([proc.stdout], [], [], left)[0]:
                raise subprocess.TimeoutExpired(argv, RUN_BUDGET_S)
            byte = proc.stdout.read(1)
            if not byte:
                break  # the child exited before it was ready
            first += byte
        ready_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{role} child for {workload} ran past the time budget")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if first.strip() != b"ready" or proc.returncode != 0:
        raise BenchmarkError(f"{role} child for {workload} failed (exit {proc.returncode})")
    lines = rest.decode().strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{role} child for {workload} printed no result")
    return ready_s, json.loads(lines[-1])


def _same_outputs(dirs) -> tuple:
    """(ok, detail): every pass directory holds byte-identical files."""
    def snapshot(d):
        return {p.name: p.read_bytes() for p in sorted(Path(d).iterdir())}

    first = snapshot(dirs[0])
    for d in dirs[1:]:
        other = snapshot(d)
        if other != first:
            differ = sorted(k for k in set(first) | set(other) if first.get(k) != other.get(k))
            return False, f"pass outputs differ: {differ}"
    return True, ""


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """All children of one run; returns the run's result and diagnostics."""
    deadline = time.monotonic() + RUN_BUDGET_S
    TMP.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=TMP))
    try:
        setup, passes, dirs = [], [], []

        def one_pass(traced=False):
            out = tmp / f"pass{len(passes)}"
            out.mkdir()
            ready_s, result = _run_child("pass", workload, seed, out, deadline, traced)
            setup.append(ready_s)
            passes.append(result)
            dirs.append(out)
            return result

        if trace:
            one_pass()
            traced = one_pass(traced=True)
        else:
            # The pass and check children are set-up samples too.
            while len(setup) < SETUP_SAMPLES - MIN_PASSES - 1:
                setup.append(_run_child("setup", workload, seed, tmp, deadline)[0])
            walls = []
            while len(walls) < MIN_PASSES or sum(walls) + statistics.median(walls) / 2 < seconds:
                walls.append(one_pass()["wall_s"])
        ready_s, checked = _run_child("check", workload, seed, dirs[0], deadline)
        setup.append(ready_s)
        same, detail = _same_outputs(dirs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP.rmdir()  # only succeeds once no other run uses it
        except OSError:
            pass

    attempted = sum(p["attempted"] for p in passes) + checked["attempted"] + 1
    failed = sum(p["failed"] for p in passes) + checked["failed"] + (0 if same else 1)
    failures = [f for p in passes for f in p["failures"]] + checked["failures"]
    known = {
        key: [sum(r["known"][key][i] for r in passes + [checked]) for i in (0, 1)]
        for key in checked["known"]
    }
    error_rate = (failed + sum(f for f, _ in known.values())) / attempted
    if not same:
        failures.append(detail)
    if trace:
        units = traced["layer_units"]
        layers = dict(traced["layers"])
        layers["proc.trace_overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        layers["checks.error_rate"] = error_rate
        metrics = {k: {"value": layers[k], "unit": u} for k, u in units.items()}
        extra = {"trace_faults": traced["trace_faults"]}
    else:
        values = {
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        extra = {"passes": len(passes), "setup_samples": len(setup)}
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "failures": failures,
        "known": known,
        "known_failures": checked["known_failures"],
        "error_rate": error_rate,
        "provenance": dict(checked["provenance"], **_run_provenance(workload, seed, trace)),
        **extra,
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the program's source files, for checkouts without git."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted((SRC / "qwlab").glob("*.py*")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _run_provenance(workload, seed, trace) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "pinned_threads": PINNED_THREADS,
    }


def _print_table(workload: str, run: dict) -> None:
    res = run["result"]
    print(f"== {workload}: {res['failed']} of {res['attempted']} operations failed, "
          f"known defects {_known_summary(run['known'])}")
    for name, m in res["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':42s} {run['error_rate']:>16.6g} share")


def _known_summary(known) -> str:
    return ", ".join(f"({k}) {f} of {n} probes failed" for k, (f, n) in known.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A termination request unwinds through the clean-up that kills the
    # running child and removes the run's scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (SRC / "qwlab" / "__init__.py").is_file():
        print(f"error: no qwlab sources under {SRC}; run from a qwlab checkout",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            for workload in WORKLOADS:
                for trace in (False, True):
                    run = run_workload(workload, args.seed, args.seconds, trace)
                    _print_table(workload + (" (traced)" if trace else ""), run)
            return 0
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    res = run["result"]
    print("provenance " + json.dumps(run["provenance"], sort_keys=True))
    for failure in run["failures"]:
        print("failed: " + failure)
    for failure in run["known_failures"]:
        print("known defect: " + failure)
    print("known defects: " + _known_summary(run["known"]))
    if "trace_faults" in run:
        print("trace faults " + json.dumps(run["trace_faults"]))
    else:
        print(f"passes {run['passes']}, set-up samples {run['setup_samples']}, "
              f"error_rate {run['error_rate']:.6g} "
              f"({res['failed']} unexpected failures of {res['attempted']})")
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
