import numpy as np
import pytest

import workloads
from qwlab import cli


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1, 7, 123456])
def test_seed_gives_valid_inputs(workload, seed):
    inp = workloads.make_inputs(workload, seed)
    entries = inp["init"].entries
    assert abs(sum(w for _, _, w in entries) - 1.0) <= 1e-12
    for site, phi, w in entries:
        assert 0.0 < w <= 1.0
        assert abs(np.vdot(phi, phi).real - 1.0) <= 1e-12
        assert -workloads.MIXTURE_SITES <= site <= workloads.MIXTURE_SITES
    assert abs(np.linalg.norm(inp["phi"]) - 1.0) <= 1e-12
    if workload == "deep_walk":
        assert len(entries) == workloads.MIXTURE_ENTRIES
    else:
        assert len(entries) == 1 and entries[0][0] == 0
    for coin in inp.get("probe_coins", ()):
        assert 0.3 <= coin.abs_a**2 <= 0.7


def test_same_seed_same_inputs_and_workloads_differ():
    a = workloads.make_inputs("deep_walk", 5)
    b = workloads.make_inputs("deep_walk", 5)
    for (sa, pa, wa), (sb, pb, wb) in zip(a["init"].entries, b["init"].entries):
        assert sa == sb and wa == wb and np.array_equal(pa, pb)
    c = workloads.make_inputs("deep_walk", 6)
    assert not np.array_equal(a["phi"], c["phi"])
    assert not np.array_equal(
        workloads.make_inputs("rate_sweep", 5)["phi"],
        workloads.make_inputs("limit_law", 5)["phi"],
    )


def test_phi_argument_is_one_token(tmp_path):
    phi = np.array([-0.77 + 0.1j, 0.3 - 0.55j])
    phi = phi / np.linalg.norm(phi)
    token = workloads.phi_arg(phi)
    assert token.startswith("--phi=-0.77")
    assert [complex(*map(float, token[6:].split(",")[i:i + 2])) for i in (0, 2)] == list(phi)
    out = tmp_path / "limit.csv"
    assert cli.cli_main(["limit", token, "--grid", "3", "--out", str(out)]) == 0
    # The two-token form is taken for an unknown option: a usage error.
    value = token.split("=", 1)[1]
    assert cli.cli_main(["limit", "--phi", value, "--grid", "3", "--out", str(out)]) == 2


def test_ops_counts_failures_without_raising():
    ops = workloads.Ops()
    assert ops.check("ok", lambda: (True, ""))
    assert not ops.check("miss", lambda: (False, "outside tolerance"))
    assert not ops.check("raises", lambda: 1 / 0)
    with pytest.raises(workloads.PassAborted):
        ops.call("boom", int, "x")
    assert (ops.attempted, ops.failed) == (4, 3)
    assert ops.failures[0] == "miss: outside tolerance"


def test_known_defect_counts_only_its_own_signature():
    ops = workloads.Ops()

    def nondecreasing():
        raise ValueError("cumulative values must be nondecreasing")

    assert not ops.check("probe b", nondecreasing, defect="b")
    assert not ops.check("probe b, other error", lambda: 1 / 0, defect="b")
    assert ops.check("probe b, passes", lambda: (True, ""), defect="b")
    assert not ops.check("same error, no defect", nondecreasing)
    assert (ops.attempted, ops.failed) == (4, 2)
    assert ops.known == {"a": [0, 0], "b": [1, 3]}
    assert ops.known_failures == [
        "(b) probe b: ValueError: cumulative values must be nondecreasing"
    ]


def test_cross_term_is_that_of_lambda_c():
    H = workloads.walk.hadamard_coin()
    for phi in ([1, 0], [0, 1], [1 / np.sqrt(2), 1j / np.sqrt(2)]):
        assert not workloads.has_cross_term(H, np.array(phi, dtype=complex))
    assert workloads.has_cross_term(H, np.array([0.6, 0.8], dtype=complex))
    for seed in range(5):
        assert workloads.has_cross_term(H, workloads.make_inputs("limit_law", seed)["phi"])
