import numpy as np

import layers
import spans
import workloads
import qwlab
from qwlab import cli, harness, konno, metrics, walk, wavefront


def _sites():
    return {
        "walk.distribution": walk.distribution,
        "cli.distribution": cli.distribution,
        "qwlab.distribution": qwlab.distribution,
        "harness.distribution_snapshots": harness.distribution_snapshots,
        "cli.distribution_snapshots": cli.distribution_snapshots,
        "harness.wavefront_mass_lower": harness.wavefront_mass_lower,
        "wavefront.wavefront_mass_lower": wavefront.wavefront_mass_lower,
        "kernel": walk._kernel.evolve_steps,
        "KonnoCDF.cdf": vars(konno.KonnoCDF)["cdf"],
        "KonnoCDF.__call__": vars(konno.KonnoCDF)["__call__"],
        "metrics.levy": metrics.levy,
    }


def test_install_patches_every_binding_site_and_uninstall_restores():
    before = _sites()
    tracer = spans.Tracer()
    assert layers.install(tracer) == []
    try:
        during = _sites()
        for name, original in before.items():
            assert during[name] is not original, name
            assert during[name].__wrapped__ is original, name
        assert during["walk.distribution"] is during["cli.distribution"]
        assert during["harness.wavefront_mass_lower"] is during["wavefront.wavefront_mass_lower"]
        assert during["KonnoCDF.cdf"] is during["KonnoCDF.__call__"]
    finally:
        tracer.uninstall()
    after = _sites()
    assert all(after[k] is before[k] for k in before)


def test_traced_outputs_match_untraced_and_predicted_spans_fire(tmp_path):
    inp = workloads.make_inputs("rate_sweep", 3)
    argv = ["rates", workloads.phi_arg(inp["phi"]), "--n-list", "16:256:x2", "--out"]
    assert cli.cli_main(argv + [str(tmp_path / "plain.csv")]) == 0
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        tracer.new_trace()
        assert cli.cli_main(argv + [str(tmp_path / "traced.csv")]) == 0
    finally:
        tracer.uninstall()
    for suffix in ("", ".slopes.json"):
        plain = (tmp_path / f"plain.csv{suffix}").read_bytes()
        assert (tmp_path / f"traced.csv{suffix}").read_bytes() == plain
    wall = tracer.spans[0].duration
    values, fired = layers.layer_metrics(tracer.spans, wall)
    assert set(layers.PREDICTED["rate_sweep"]) <= fired
    assert abs(values["trace.untraced_share"]) < 1e-9  # one root span covers the pass
    rows = 5
    assert values["metrics.zolotarev_bound.lambda_points"] == rows * (10_000 + 2_000)
    assert values["cli.bytes_written"] == sum(
        (tmp_path / f"traced.csv{s}").stat().st_size for s in ("", ".slopes.json")
    )
    assert set(values) == set(layers.PER_LAYER)


def test_kernel_counts_follow_the_light_cone():
    counts = layers._kernel_counts({"steps": 3, "lo": 10, "hi": 10}, None)
    assert counts["site_steps"] == 1 + 3 + 5
    assert counts["bytes_computed"] == 9 * layers.BYTES_PER_SITE_STEP


def test_levy_points_count_outermost_cdf_evaluations_only():
    tree = [
        spans.Span("metrics.levy", 0.0, 10.0),
        spans.Span("konno.mixture_cdf", 1.0, 3.0, parent=0, counts={"points": 7}),
        spans.Span("konno.cdf", 1.5, 2.0, parent=1, counts={"points": 7}),
        spans.Span("walk.step_cdf_eval", 4.0, 5.0, parent=0, counts={"points": 5}),
        spans.Span("konno.cdf", 11.0, 12.0, counts={"points": 100}),
    ]
    values, _ = layers.layer_metrics(tree, 12.0)
    assert values["metrics.levy.cdf_points"] == 12
    assert values["konno.cdf.points"] == 107 and values["konno.cdf.calls"] == 2
    assert np.isclose(values["metrics.levy.self_s"], 10.0 - 3.0)
