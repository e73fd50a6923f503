"""One benchmark child process: set up, then one timed pass or the checks.

    python3 perfbench/child.py ROLE WORKLOAD SEED OUT_DIR [--trace]

ROLE is ``setup`` (set up and exit), ``pass`` (one timed pass of WORKLOAD,
outputs to OUT_DIR; ``--trace`` records spans) or ``check`` (the untimed
checks of the pass outputs in OUT_DIR, plus provenance).  Set-up is
``import qwlab, qwlab.cli`` and ``metrics.default_weights()``; the child
prints ``ready`` when it is done, so the parent can time set-up from a
fresh interpreter.  The last line of standard output is a JSON object.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def _set_up() -> tuple:
    """Import the program and build its lazy tables; (import_s, weights_s)."""
    t0 = time.perf_counter()
    import qwlab.cli  # noqa: F401
    from qwlab import metrics

    t1 = time.perf_counter()
    metrics.default_weights()
    return t1 - t0, time.perf_counter() - t1


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cache_sizes() -> dict:
    """CPU cache sizes as the kernel reports them, by level and type."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _blas(config) -> str:
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def provenance() -> dict:
    import numpy as np
    import qwlab
    import scipy

    return {
        "kernel_backend": qwlab.KERNEL_BACKEND,
        "qwlab": qwlab.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": _blas(np.show_config(mode="dicts")),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy.show_config(mode="dicts")),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
    }


def run_pass(workload, inputs, out, trace, set_up) -> dict:
    import layers
    import spans
    import workloads

    ops = workloads.Ops()
    tracer = missing = None
    if trace:
        tracer = spans.Tracer()
        missing = layers.install(tracer)
        tracer.new_trace()
    cpu0 = _cpu_s()
    start = time.perf_counter()
    try:
        workloads.run_pass(workload, inputs, out, ops)
    finally:
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0
        if tracer is not None:
            tracer.uninstall()
    result = {
        "wall_s": wall,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "known": ops.known,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        values, fired = layers.layer_metrics(tracer.spans, wall)
        unfired = [s for s in layers.PREDICTED[workload] if s not in fired]
        values.update({
            "proc.import_s": set_up[0],
            "metrics.default_weights.s": set_up[1],
            "proc.cpu_s": cpu,
            "trace.wall_s": wall,
            "trace.faults": len(missing) + len(unfired) + tracer.counter_errors,
        })
        result["layers"] = values
        result["layer_units"] = layers.PER_LAYER
        result["trace_faults"] = {
            "missing_targets": missing,
            "predicted_spans_not_fired": unfired,
            "counter_errors": tracer.counter_errors,
        }
    return result


def run_checks(workload, inputs, out) -> dict:
    import workloads

    ops = workloads.Ops()
    workloads.run_checks(workload, inputs, out, ops)
    return {
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "known": ops.known,
        "known_failures": ops.known_failures,
        "provenance": provenance(),
    }


def main(argv) -> int:
    role, workload, seed, out = argv[:4]
    trace = "--trace" in argv[4:]
    set_up = _set_up()
    print("ready", flush=True)
    result = {}
    if role != "setup":
        import workloads

        inputs = workloads.make_inputs(workload, int(seed))
        if role == "pass":
            result = run_pass(workload, inputs, Path(out), trace, set_up)
        elif role == "check":
            result = run_checks(workload, inputs, Path(out))
        else:
            raise SystemExit(f"unknown role {role!r}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
