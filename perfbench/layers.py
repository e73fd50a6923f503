"""Which qwlab functions the traced run wraps, and the per-layer metrics.

Every probe names a span, the module and attribute path of the wrapped
callable, and optionally a counter that derives work counts from the call's
arguments, so counts repeat exactly for the same inputs.  Probes whose
target no longer exists are skipped and reported, never fatal: the
benchmark must keep running against later versions of the program.
"""

from __future__ import annotations

import importlib
import os
import sys

import numpy as np

import spans as spanlib

# One shift-coin site-step reads two complex128 amplitudes and writes two.
BYTES_PER_SITE_STEP = 4 * 16


def _size(x) -> int:
    return int(np.size(x))


def _kernel_counts(a, _result):
    steps, width = int(a["steps"]), int(a["hi"]) - int(a["lo"]) + 1
    site_steps = steps * width + steps * (steps - 1)  # window grows by 2 a step
    return {"site_steps": site_steps, "bytes_computed": BYTES_PER_SITE_STEP * site_steps}


def _char_finite_counts(a, _result):
    lams = _size(a["lam"])
    return {"lam_points": lams, "terms": lams * int(np.count_nonzero(a["dist"].probs))}


def _char_limit_counts(a, _result):
    lams = _size(a["lam"])
    return {"lam_points": lams, "terms": lams * int(a["sg"].omega.size)}


def _points(arg):
    return lambda a, _result: {"points": _size(a[arg])}


def _points_times(cells_attr, key):
    """Points evaluated, and points times the evaluator's cell (or jump) count."""

    def count(a, _result):
        cells = len(getattr(a["self"], cells_attr, ()))
        return {"points": _size(a["x"]), key: cells * _size(a["x"])}

    return count


def _cli_bytes(a, _result):
    argv = list(a["argv"] or ())
    if "--out" not in argv:
        return {"bytes_written": 0}
    path = argv[argv.index("--out") + 1]
    written = 0
    for p in (path, path + ".slopes.json"):
        if os.path.exists(p):
            written += os.path.getsize(p)
    return {"bytes_written": written}


# (span name, module, attribute path, counter)
PROBES = (
    ("kernel.evolve_steps", "qwlab.walk", "_kernel.evolve_steps", _kernel_counts),
    ("walk.distribution", "qwlab.walk", "distribution", None),
    ("walk.distribution_snapshots", "qwlab.walk", "distribution_snapshots", None),
    ("walk.rescaled_cdf", "qwlab.walk", "rescaled_cdf", None),
    ("walk.to_csv", "qwlab.walk", "PositionDistribution.to_csv", None),
    ("walk.step_cdf_eval", "qwlab.walk", "StepCDF.value_at", _points("x")),
    ("walk.step_cdf_eval", "qwlab.walk", "StepCDF.left_limit_at", _points("x")),
    ("spectral.decompose", "qwlab.spectral", "decompose",
     lambda a, _r: {"grid_points": int(a["M"])}),
    ("spectral.derivatives", "qwlab.spectral", "derivatives", None),
    ("spectral.bound_constants", "qwlab.spectral", "bound_constants", None),
    ("spectral.velocity_cdf", "qwlab.spectral", "velocity_cdf", None),
    ("spectral.velocity_cdf_eval", "qwlab.spectral", "VelocityCDF.__call__",
     _points_times("_v0", "cell_points")),
    ("spectral.char_fn_finite", "qwlab.spectral", "char_fn_finite", _char_finite_counts),
    ("spectral.char_fn_limit", "qwlab.spectral", "char_fn_limit", _char_limit_counts),
    ("spectral.evolve_momentum", "qwlab.spectral", "evolve_momentum", None),
    ("konno.limit_cdf", "qwlab.konno", "limit_cdf", None),
    ("konno.build", "qwlab.konno", "KonnoCDF.__init__", None),
    ("konno.cdf", "qwlab.konno", "KonnoCDF.cdf", _points("x")),
    ("konno.density", "qwlab.konno", "KonnoCDF.density", _points("x")),
    ("konno.table_csv", "qwlab.konno", "KonnoCDF.table_csv", None),
    ("konno.mixture_cdf", "qwlab.konno", "MixtureCDF.__call__", _points("x")),
    ("metrics.kolmogorov", "qwlab.metrics", "kolmogorov", None),
    ("metrics.levy", "qwlab.metrics", "levy", None),
    ("metrics.zolotarev_bound", "qwlab.metrics", "zolotarev_bound", None),
    ("metrics.default_weights", "qwlab.metrics", "default_weights", None),
    ("metrics.convolve", "qwlab.metrics", "convolve", None),
    ("metrics.convolved_cdf", "qwlab.metrics", "ConvolvedCDF.__call__",
     _points_times("_jumps", "point_jumps")),
    ("wavefront.approx_error_window", "qwlab.wavefront", "approx_error_window", None),
    ("wavefront.airy", "qwlab.wavefront", "airy", _points("x")),
    ("wavefront.front_mass", "qwlab.wavefront", "wavefront_mass_lower", None),
    ("wavefront.front_mass", "qwlab.wavefront", "wavefront_mass_upper", None),
    ("wavefront.oscsum", "qwlab.wavefront", "oscillatory_sum", None),
    ("wavefront.oscsum", "qwlab.wavefront", "riemann_sum_quantity", None),
    ("harness.run_rate_sweep", "qwlab.harness", "run_rate_sweep", None),
    ("harness.run_bound_battery", "qwlab.harness", "run_bound_battery", None),
    ("harness.fit_slope", "qwlab.harness", "fit_slope", None),
    ("cli", "qwlab.cli", "cli_main", _cli_bytes),
)

# Spans that each workload's pass must produce; a missing one means the
# probe table no longer matches the program.
PREDICTED = {
    "rate_sweep": (
        "cli", "harness.run_rate_sweep", "kernel.evolve_steps",
        "walk.distribution_snapshots", "walk.rescaled_cdf", "spectral.decompose",
        "spectral.derivatives", "spectral.char_fn_finite", "spectral.char_fn_limit",
        "metrics.zolotarev_bound", "konno.build", "konno.cdf", "metrics.kolmogorov",
        "metrics.levy", "wavefront.front_mass",
    ),
    "deep_walk": (
        "walk.distribution", "walk.distribution_snapshots", "kernel.evolve_steps",
        "walk.rescaled_cdf", "walk.to_csv", "konno.build", "konno.cdf",
        "metrics.kolmogorov", "metrics.levy", "cli", "wavefront.approx_error_window",
        "wavefront.airy", "wavefront.front_mass", "wavefront.oscsum",
    ),
    "limit_law": (
        "spectral.decompose", "spectral.derivatives", "spectral.velocity_cdf_eval",
        "cli", "konno.build", "konno.cdf", "konno.density", "harness.run_bound_battery",
        "spectral.bound_constants", "kernel.evolve_steps", "metrics.convolved_cdf",
        "metrics.levy",
    ),
}

# Evaluations of a CDF; levy.cdf_points counts the outermost ones under levy.
_CDF_EVALS = frozenset(
    {"konno.cdf", "konno.mixture_cdf", "walk.step_cdf_eval",
     "spectral.velocity_cdf_eval", "metrics.convolved_cdf"}
)

# Per-layer metric name -> unit; the traced run reports exactly these.
PER_LAYER = {
    "kernel.evolve_steps.s": "s",
    "kernel.evolve_steps.site_steps": "count",
    "kernel.evolve_steps.bytes_computed": "B",
    "walk.distribution_snapshots.self_s": "s",
    "walk.rescaled_cdf.self_s": "s",
    "walk.to_csv.self_s": "s",
    "spectral.char_fn_finite.s": "s",
    "spectral.char_fn_finite.terms": "count",
    "spectral.char_fn_limit.s": "s",
    "spectral.char_fn_limit.terms": "count",
    "metrics.zolotarev_bound.self_s": "s",
    "metrics.zolotarev_bound.lambda_points": "count",
    "spectral.decompose.s": "s",
    "spectral.decompose.grid_points": "count",
    "spectral.derivatives.s": "s",
    "spectral.velocity_cdf_eval.s": "s",
    "spectral.velocity_cdf_eval.cell_points": "count",
    "spectral.bound_constants.s": "s",
    "konno.build.s": "s",
    "konno.cdf.s": "s",
    "konno.cdf.calls": "count",
    "konno.cdf.points": "count",
    "konno.density.calls": "count",
    "metrics.kolmogorov.s": "s",
    "metrics.levy.self_s": "s",
    "metrics.levy.cdf_points": "count",
    "metrics.convolved_cdf.s": "s",
    "metrics.convolved_cdf.point_jumps": "count",
    "wavefront.approx_error_window.s": "s",
    "wavefront.airy.points": "count",
    "wavefront.front_mass.s": "s",
    "wavefront.oscsum.s": "s",
    "harness.run_rate_sweep.self_s": "s",
    "harness.run_bound_battery.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "proc.import_s": "s",
    "metrics.default_weights.s": "s",
    "proc.cpu_s": "s",
    "proc.trace_overhead_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_share": "share",
    "trace.faults": "count",
    "checks.error_rate": "share",
}


def _resolve(module_name: str, path: str):
    """(holder, attribute) for ``module:path``, or None if it is gone."""
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return (obj, attr) if attr in vars(obj) else None


def qwlab_modules():
    """Every loaded qwlab module: the places a function can be bound by name."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qwlab" or name.startswith("qwlab."))]


def install(tracer: spanlib.Tracer) -> list:
    """Install every probe; returns the ``module:path`` of probes not found."""
    missing = []
    search = qwlab_modules()
    for span_name, module_name, path, counter in PROBES:
        target = _resolve(module_name, path)
        if target is None:
            missing.append(f"{module_name}:{path}")
            continue
        tracer.install(*target, span_name, counter, search=search)
    return missing


def layer_metrics(spans, wall_s: float) -> tuple:
    """(per-layer values, names of spans that fired) for one traced pass."""
    selfs = spanlib.self_times(spans)
    total_s: dict = {}
    self_s: dict = {}
    calls: dict = {}
    counts: dict = {}
    levy_points = 0
    zolotarev_lams = 0
    for i, span in enumerate(spans):
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        up = [spans[j].name for j in spanlib.ancestors(spans, i)]
        if name not in up:  # inclusive time of nested same-name calls counts once
            total_s[name] = total_s.get(name, 0.0) + span.duration
        for key, value in span.counts.items():
            counts[(name, key)] = counts.get((name, key), 0) + value
        if name in _CDF_EVALS and "metrics.levy" in up:
            below_levy = up[: up.index("metrics.levy")]
            if not _CDF_EVALS.intersection(below_levy):
                levy_points += span.counts.get("points", 0)
        if name == "spectral.char_fn_finite" and "metrics.zolotarev_bound" in up:
            zolotarev_lams += span.counts.get("lam_points", 0)

    out = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = total_s.get(layer, 0.0)
        elif kind == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(layer, 0)
        else:  # a count; the proc.*, trace.* and checks.* values are filled in by the caller
            out[metric] = counts.get((layer, kind), 0)
    out["metrics.levy.cdf_points"] = levy_points
    out["metrics.zolotarev_bound.lambda_points"] = zolotarev_lams
    # Self times partition the time under top-level spans; the rest of the
    # pass is glue the trace cannot name.
    out["trace.untraced_share"] = 1.0 - sum(selfs) / wall_s if wall_s > 0 else 0.0
    return out, set(calls)
