import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qwlab
from qwlab import harness, konno, metrics
from qwlab.cli import cli_main
from qwlab.harness import (
    NonPositiveValue,
    RateRow,
    RateTable,
    fit_power_law,
    fit_slope,
    run_bound_battery,
    run_rate_sweep,
)
from qwlab.walk import InitialState, hadamard_coin

E1 = np.array([1.0, 0.0], dtype=complex)


@pytest.fixture(scope="module")
def small_table():
    return run_rate_sweep(hadamard_coin(), InitialState.pure(E1), [16, 32, 64, 128, 256])


class TestFitSlope:
    def test_exact_power_law(self):
        ns = [2**k for k in range(5, 12)]
        vals = [float(n) ** (-1.0 / 3.0) for n in ns]
        fit = fit_power_law(ns, vals)
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
        assert fit.r_squared > 1 - 1e-12
        assert fit.n_range == (32, 2048)

    def test_constant_series(self):
        fit = fit_power_law([1, 2, 4, 8, 16], [3.0] * 5)
        assert fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonPositiveValue):
            fit_power_law([1, 2, 4, 8, 16], [1.0, 1.0, 0.0, 1.0, 1.0])

    def test_needs_five_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 4, 8], [1, 1, 1, 1])

    def test_table_column_fit(self, small_table):
        fit = fit_slope(small_table, "kolmogorov")
        assert fit.slope < 0
        with pytest.raises(KeyError):
            fit_slope(small_table, "nope")


class TestRateTable:
    def test_row_invariants(self, small_table):
        ns = small_table.ns()
        assert np.all(np.diff(ns) > 0)
        for col in RateTable.COLUMNS:
            vals = small_table.column(col)
            assert np.all(vals >= 0)
        assert np.all(small_table.column("kolmogorov") <= 1.0)
        assert np.all(
            small_table.column("levy") <= small_table.column("kolmogorov") + 1e-9
        )
        assert np.all(
            small_table.column("levy") <= small_table.column("zolotarev_bound")
        )

    def test_rejects_unsorted(self):
        row = RateRow(n=4, kolmogorov=0.1, levy=0.1, zolotarev_bound=1.0, left_tail_scaled=0.1)
        with pytest.raises(ValueError):
            RateTable(rows=(row, row))

    def test_csv_layout_and_reproducibility(self, small_table):
        csv = small_table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "n,kolmogorov,levy,zolotarev_bound,left_tail_scaled"
        assert len(lines) == 6
        again = run_rate_sweep(hadamard_coin(), InitialState.pure(E1), [16, 32, 64, 128, 256])
        assert again.to_csv() == csv

    def test_metric_records(self, small_table):
        recs = small_table.metric_records(hadamard_coin(), InitialState.pure(E1), 1e-9)
        assert len(recs) == 5 * 4
        assert {r["metric"] for r in recs} == set(RateTable.COLUMNS)
        assert all(len(r["coin"]) == 5 and len(r["phi"]) == 4 for r in recs)

    def test_sweep_validation(self):
        with pytest.raises(ValueError):
            run_rate_sweep(hadamard_coin(), InitialState.pure(E1), [64, 32])
        with pytest.raises(ValueError):
            run_rate_sweep(hadamard_coin(), InitialState.pure(E1), [16, 2**15])


class TestRateSweepBound:
    def test_cached_vector_keys_on_values(self):
        square = harness._cached_vector(lambda lams: lams**2)
        # same length and endpoints, different interior
        assert square(np.array([0.0, 1.0, 3.0]))[1] == 1.0
        assert square(np.array([0.0, 2.0, 3.0]))[1] == 4.0
        assert square(np.array([0.0, 1.0, 3.0]))[1] == 1.0

    def test_sweep_passes_support_radius(self, monkeypatch):
        radii = []
        bound = metrics.zolotarev_bound

        def spy(*args, radius):
            radii.append(radius)
            return bound(*args, radius=radius)

        monkeypatch.setattr(metrics, "zolotarev_bound", spy)
        init = InitialState(((8, E1, 0.5), (-8, E1, 0.5)))
        table = run_rate_sweep(hadamard_coin(), init, [16, 32])
        assert radii == [1.5, 1.25]
        assert np.all(table.column("levy") <= table.column("zolotarev_bound"))

    def test_sweep_scratch_memory_is_bounded(self):
        # the characteristic sums and the interpolant work in fixed-size
        # blocks, so the scratch memory does not grow with the lam grid
        tracemalloc.start()
        try:
            run_rate_sweep(hadamard_coin(), InitialState.pure(E1), [2**k for k in range(7, 14)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestBoundBattery:
    def test_small_battery_all_ok(self):
        lams = [-2.0, -0.5, 0.5, 2.0]
        report = run_bound_battery(
            hadamard_coin(), InitialState.pure(E1), lams, [16, 32, 64]
        )
        assert report.cells == 12
        assert report.all_ok
        doc = json.loads(report.to_json())
        assert doc["all_ok"] is True
        assert len(doc["results"]) == 12

    def test_rhs_inverse_n_scaling(self):
        report = run_bound_battery(
            hadamard_coin(), InitialState.pure(E1), [1.0], [32, 64]
        )
        assert report.rhs[1, 0] == pytest.approx(report.rhs[0, 0] / 2, rel=1e-12)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_bound_battery(hadamard_coin(), InitialState.pure(E1), [], [16])


class TestCLI:
    def test_simulate_hand_values(self, capsys):
        code = cli_main(["simulate", "--preset", "hadamard", "--phi", "1,0,0,0", "--n", "2"])
        out = capsys.readouterr().out
        assert code == 0
        rows = dict(
            (int(line.split(",")[0]), float(line.split(",")[1]))
            for line in out.strip().split("\n")[1:]
        )
        assert rows[-2] == pytest.approx(0.25, abs=1e-14)
        assert rows[0] == pytest.approx(0.5, abs=1e-14)
        assert rows[2] == pytest.approx(0.25, abs=1e-14)

    def test_unknown_flag_exits_2(self):
        assert cli_main(["simulate", "--bogus"]) == 2

    def test_unknown_command_exits_2(self):
        assert cli_main(["frobnicate"]) == 2

    def test_bad_coin_exits_2(self, capsys):
        assert cli_main(["simulate", "--coin", "1,0,0"]) == 2
        assert cli_main(["simulate", "--coin", "0.9,0,0.9,0,0"]) == 2
        capsys.readouterr()

    def test_nan_coin_exits_2(self, capsys):
        assert cli_main(["simulate", "--coin", "nan,0,nan,0,0"]) == 2
        assert capsys.readouterr().out == ""

    def test_nan_phi_exits_2(self, capsys):
        assert cli_main(["simulate", "--phi", "nan,0,0,0"]) == 2
        assert capsys.readouterr().out == ""

    def test_simulate_refuses_oversized_n(self, capsys, monkeypatch):
        from qwlab import cli

        init = InitialState.pure(E1)
        assert cli.simulate_bytes(init, 10**5) <= cli.MAX_SIMULATE_BYTES
        n = cli.MAX_SIMULATE_BYTES // 1000  # at least 1 KB a site: over the cap
        assert cli.simulate_bytes(init, n) > cli.MAX_SIMULATE_BYTES

        def never(*args):
            raise AssertionError("the size check must come before any evolution")

        monkeypatch.setattr(cli, "distribution", never)
        assert cli_main(["simulate", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap" in captured.err

    def test_wavefront_refuses_oversized_n_list(self, capsys, monkeypatch):
        from qwlab import cli
        from qwlab.walk import footprint_bytes

        init = InitialState.pure(E1)
        assert footprint_bytes(init, [256, 8192]) <= cli.MAX_SIMULATE_BYTES
        assert footprint_bytes(init, [10**9]) > cli.MAX_SIMULATE_BYTES

        def never(*args):
            raise AssertionError("the size check must come before any evolution")

        monkeypatch.setattr(cli, "distribution_snapshots", never)
        assert cli_main(["wavefront", "--n-list", "256," + str(10**9)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap" in captured.err

    def test_rates_refuses_oversized_n_list(self, capsys, monkeypatch, tmp_path):
        from qwlab import cli
        from qwlab.walk import footprint_bytes

        init = InitialState.pure(E1)
        need = footprint_bytes(init, [128, 8192])
        monkeypatch.setattr(cli, "MAX_SIMULATE_BYTES", need - 1)

        def never(*args, **kwargs):
            raise AssertionError("the size check must come before the sweep")

        monkeypatch.setattr(harness, "run_rate_sweep", never)
        out_path = tmp_path / "rates.csv"
        assert cli_main(["rates", "--n-list", "128:8192:x2", "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cap" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("count", ["0", "-4"])
    @pytest.mark.parametrize("command", ["rates", "bounds", "wavefront", "oscsum"])
    def test_nonpositive_step_count_exits_2(self, command, count, capsys, tmp_path):
        out_path = tmp_path / "out.txt"
        assert cli_main([command, "--n-list", count, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert not out_path.exists()

    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_limit_refuses_empty_grid(self, grid, capsys, tmp_path):
        out_path = tmp_path / "limit.csv"
        assert cli_main(["limit", "--grid", grid, "--out", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: --grid must be at least 1, got {grid}\n"
        assert not out_path.exists()

    def test_limit_table(self, capsys):
        code = cli_main(["limit", "--preset", "hadamard", "--phi", "1,0,0,0", "--grid", "7"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,sigma,F"
        assert len(lines) == 8

    def test_limit_json_rows_match_per_scalar_calls(self, capsys):
        code = cli_main(["limit", "--preset", "hadamard", "--phi", "0.6,0,0,0.8",
                         "--grid", "201", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        kc = konno.KonnoCDF(hadamard_coin(), np.array([0.6, 0.8j]))
        xs = np.linspace(-1.0, 1.0, 201)
        assert doc["rows"] == [[float(x), float(kc.density(x)), float(kc.cdf(x))] for x in xs]

    def test_import_loads_no_scipy_until_airy(self):
        # set-up (import and the smoothing constant) loads no scipy module;
        # the first Ai evaluation loads scipy.special and is still exact
        mpmath = pytest.importorskip("mpmath")
        src = os.path.dirname(os.path.dirname(os.path.abspath(qwlab.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = (
            "import json, sys\n"
            "import qwlab.cli\n"
            "from qwlab import metrics, wavefront\n"
            "metrics.default_weights()\n"
            "before = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
            "xs = [-20.0, -7.5, -1.0, 0.0, 2.5, 5.5]\n"
            "vals = [float(v) for v in wavefront.airy(xs)]\n"
            "print(json.dumps([before, 'scipy.special' in sys.modules, xs, vals]))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True, timeout=60)
        before, loaded, xs, vals = json.loads(out.stdout)
        assert before == []
        assert loaded
        mpmath.mp.dps = 40
        oracle = [float(mpmath.airyai(mpmath.mpf(x))) for x in xs]
        assert np.max(np.abs(np.array(vals) - oracle)) < 1e-10

    def test_rates_csv_and_slopes(self, tmp_path, capsys):
        out_path = tmp_path / "rates.csv"
        code = cli_main(
            [
                "rates",
                "--preset",
                "hadamard",
                "--phi",
                "1,0,0,0",
                "--n-list",
                "16:256:x2",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 rows
        slopes = json.loads((tmp_path / "rates.csv.slopes.json").read_text())
        assert set(slopes) == set(RateTable.COLUMNS)
        assert slopes["kolmogorov"]["slope"] < 0

    def test_rates_json_format(self, capsys):
        code = cli_main(
            [
                "rates",
                "--preset",
                "hadamard",
                "--phi",
                "1,0,0,0",
                "--n-list",
                "16,32,64,128,256",
                "--format",
                "json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert "records" in doc and "slopes" in doc
        assert len(doc["records"]) == 5 * 4

    def test_bounds_exits_zero_on_pass(self, tmp_path):
        out_path = tmp_path / "bounds.json"
        code = cli_main(
            ["bounds", "--preset", "hadamard", "--n-list", "16,32", "--out", str(out_path)]
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["all_ok"] is True
        assert doc["cells"] == 24

    def test_wavefront_dump(self, capsys):
        code = cli_main(["wavefront", "--preset", "hadamard", "--n-list", "256,512"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,quantity,value"
        assert len(lines) == 1 + 2 * 3

    def test_oscsum_dump(self, capsys):
        code = cli_main(["oscsum", "--n-list", "4096,8192"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,quantity,value"
        assert len(lines) == 5

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset=hadamard\nphi=1,0,0,0\nn=2\n")
        code = cli_main(["simulate", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("k,p\n-2,")

    def test_config_cli_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=2\n")
        code = cli_main(["simulate", "--preset", "hadamard", "--n", "1", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        rows = out.strip().split("\n")[1:]
        assert len(rows) == 3  # n=1 wins over the config

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mystery=1\n")
        assert cli_main(["simulate", "--config", str(cfg)]) == 2
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        args = ["simulate", "--preset", "hadamard", "--phi", "1,0,0,0", "--n", "40"]
        cli_main(args)
        first = capsys.readouterr().out
        cli_main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_geometric_n_list_parsing(self):
        from qwlab.cli import _parse_n_list

        assert _parse_n_list("128:8192:x2") == [128, 256, 512, 1024, 2048, 4096, 8192]
        assert _parse_n_list("5,7,9") == [5, 7, 9]
        with pytest.raises(ValueError):
            _parse_n_list("10:5:x2")
        with pytest.raises(ValueError):
            _parse_n_list("10:50:2")
