"""The benchmark's three workloads: seeded inputs, one pass each, and checks.

Every input comes from the workload seed.  The coin is always Hadamard (the
paper's coin and the CLI default); the seed draws the spinors, the mixture
sites and weights, and the generic coins of the rate_sweep defect probe.
A pass drives only ``qwlab.cli.cli_main`` and the public library API,
looking every function up on its module at call time so that the traced run
sees the same calls.  Passes write their outputs into a directory; the
checks read them back after the timed passes and are never timed.

Why these workloads (each later speed-up has one that exercises it and one
that should not move):

* rate_sweep -- the paper's experiment, ``qwlab rates`` over n = 2^7..2^13.
  Characteristic functions and the Zolotarev grid dominate, evolution is
  about a quarter: the target of a characteristic-function speed-up.
* deep_walk -- one deep n = 8192 evolution of a three-entry mixture, then
  Kolmogorov/Levy against the Konno mixture, CSV, ``wavefront``, ``oscsum``.
  Evolution dominates and no characteristic function is evaluated: the
  target of an evolution speed-up, and the "no change" case for the
  characteristic-function one.
* limit_law -- spectral decomposition at M = 2^16, the dense velocity CDF,
  the per-scalar Konno table, the bound battery and a continuous-pair Levy.
  Evolution is under 1%: the target of limit-law speed-ups, and the "no
  change" case for the evolution one.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path

import numpy as np

from qwlab import cli, konno, metrics, spectral, walk

WORKLOADS = ("rate_sweep", "deep_walk", "limit_law")

RATE_N_LIST = "128:8192:x2"
DEEP_N = 8192
MIXTURE_ENTRIES = 3
MIXTURE_SITES = 8  # sites drawn from [-8, 8]
LIMIT_GRID = 2**16
LIMIT_XS = np.linspace(-0.9, 0.9, 1000)
SMOOTH_N = 64

# Probe for the rescaled_cdf rounding defect: generic coins with
# |a|^2 in [0.3, 0.7], each evolved to every n of PROBE_NS.
PROBE_COINS = 3
PROBE_NS = (128, 1024, 8192)

# Criterion 5 of the acceptance suite allows 2e-6 between the Konno CDF and
# the momentum-space velocity CDF at M = 2^16.  The velocity CDF's error is
# second order in the grid step (measured: x4 per halving of M, 1.5e-6 at
# M = 2^12 for e1), so the tolerance at grid M is 2e-6 (2^16 / M)^2.
CHECK_GRID = 2**12
MOMENTUM_N = 32  # cross-engine check at small n, grid M = 2^7 >= 2n + 2|site| + 2
MOMENTUM_GRID = 2**7


def velocity_tolerance(M: int) -> float:
    return 2e-6 * (2**16 / M) ** 2


# -- inputs ------------------------------------------------------------------


def _spinor(rng) -> np.ndarray:
    z = rng.normal(size=4)
    phi = np.array([complex(z[0], z[1]), complex(z[2], z[3])])
    return phi / np.linalg.norm(phi)


def _generic_coin(rng) -> walk.CoinParams:
    abs_a2 = rng.uniform(0.3, 0.7)
    arg_a, arg_b, theta = rng.uniform(0.0, 2.0 * np.pi, size=3)
    return walk.CoinParams(
        a=np.sqrt(abs_a2) * np.exp(1j * arg_a),
        b=np.sqrt(1.0 - abs_a2) * np.exp(1j * arg_b),
        theta=float(theta),
    )


def make_inputs(workload: str, seed: int) -> dict:
    """The workload's inputs; the same (workload, seed) gives the same inputs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([int(seed), zlib.crc32(workload.encode())])
    inputs = {"coin": walk.hadamard_coin()}
    if workload == "deep_walk":
        sites = rng.integers(-MIXTURE_SITES, MIXTURE_SITES + 1, size=MIXTURE_ENTRIES)
        spinors = [_spinor(rng) for _ in range(MIXTURE_ENTRIES)]
        weights = rng.dirichlet(np.ones(MIXTURE_ENTRIES))
        inputs["init"] = walk.InitialState(
            tuple((int(s), phi, float(w)) for s, phi, w in zip(sites, spinors, weights))
        )
        inputs["phi"] = spinors[0]
    else:
        inputs["phi"] = _spinor(rng)
        inputs["init"] = walk.InitialState.pure(inputs["phi"])
    if workload == "rate_sweep":
        inputs["probe_coins"] = [_generic_coin(rng) for _ in range(PROBE_COINS)]
    return inputs


def phi_arg(phi) -> str:
    """``--phi=...`` in one token: argparse takes ``--phi -0.7,...`` for an option."""
    parts = (phi[0].real, phi[0].imag, phi[1].real, phi[1].imag)
    return "--phi=" + ",".join(repr(float(v)) for v in parts)


# -- operations --------------------------------------------------------------


class PassAborted(Exception):
    """An operation raised; the rest of the pass depends on its result."""


# The program's known defects, each with how the failure details of the
# checks that probe it begin.  A check passes ``defect=`` only when its inputs
# are ones the defect applies to; a failure whose detail begins with one of
# the defect's signatures is counted against the defect instead of in
# ``failed``, and any other failure of the same check is still a failure.
# Every probe runs on every seed, so a fix shows as fewer known failures and
# a lower error_rate.
KNOWN_DEFECTS = {
    # (a) konno.lambda_c is wrong for spinors with a nonzero cross term.  The
    # rates table measures the walk against konno.limit_cdf, while the
    # Zolotarev bound comes from the characteristic function of the true
    # (momentum-space) limit, so a wrong lambda_c can also break the bound.
    "a": ("sup |F_limit - F_velocity|", "above zolotarev_bound:"),
    # (b) walk.rescaled_cdf snaps an overshooting total to 1.0, below the
    # previous cumulative value, and StepCDF rejects the result.
    "b": ("ValueError: cumulative values must be nondecreasing",),
}


def has_cross_term(coin, phi) -> bool:
    """Whether lambda_c's cross term (defect a) is nonzero for this spinor."""
    cross = np.conj(coin.a) * coin.b * np.conj(phi[0]) * phi[1]
    return abs(2.0 * cross.real) > 1e-12


class Ops:
    """Counts operations (CLI calls, library calls, checks) and failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known = {key: [0, 0] for key in KNOWN_DEFECTS}  # [failed, probes]
        self.known_failures: list[str] = []

    def _fail(self, name: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {why}")

    def call(self, name: str, fn, *args, **kwargs):
        """A library call; an exception fails it and aborts the pass."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._fail(name, f"{type(exc).__name__}: {exc}")
            raise PassAborted(name) from exc

    def cli(self, argv) -> int:
        """A ``qwlab`` command; a nonzero exit code fails it."""
        self.attempted += 1
        argv = [str(a) for a in argv]
        try:
            code = cli.cli_main(argv)
        except Exception as exc:
            self._fail(f"qwlab {argv[0]}", f"{type(exc).__name__}: {exc}")
            return -1
        if code != 0:
            self._fail(f"qwlab {argv[0]}", f"exit code {code}")
        return code

    def check(self, name: str, fn, defect: str | None = None) -> bool:
        """An oracle check: ``fn()`` returns (ok, detail); raising fails it.

        ``defect`` names the known defect the check probes on these inputs.
        """
        self.attempted += 1
        if defect is not None:
            self.known[defect][1] += 1
        try:
            ok, detail = fn()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        if not ok:
            if defect is not None and detail.startswith(KNOWN_DEFECTS[defect]):
                self.known[defect][0] += 1
                self.known_failures.append(f"({defect}) {name}: {detail}")
            else:
                self._fail(name, detail)
        return bool(ok)


def _write(path: Path, text: str) -> None:
    path.write_text(text, newline="")


# -- passes ------------------------------------------------------------------


def _pass_rate_sweep(inp, out: Path, ops: Ops) -> None:
    ops.cli(["rates", "--preset", "hadamard", phi_arg(inp["phi"]),
             "--n-list", RATE_N_LIST, "--out", out / "rates.csv"])


def _pass_deep_walk(inp, out: Path, ops: Ops) -> None:
    coin, init = inp["coin"], inp["init"]
    dist = ops.call("walk.distribution", walk.distribution, coin, init, DEEP_N)
    F = ops.call("walk.rescaled_cdf", walk.rescaled_cdf, dist)
    G = ops.call("konno.limit_cdf", konno.limit_cdf, coin, init)
    kol = ops.call("metrics.kolmogorov", metrics.kolmogorov, F, G)
    lev = ops.call("metrics.levy", metrics.levy, F, G)
    _write(out / "deep.csv", ops.call("PositionDistribution.to_csv", dist.to_csv))
    _write(out / "deep_metrics.json", json.dumps({"kolmogorov": kol, "levy": lev}))
    ops.cli(["wavefront", "--preset", "hadamard", "--n-list", "2048:8192:x2",
             phi_arg(inp["phi"]), "--out", out / "wavefront.csv"])
    ops.cli(["oscsum", "--out", out / "oscsum.csv"])


def _pass_limit_law(inp, out: Path, ops: Ops) -> None:
    coin, phi, init = inp["coin"], inp["phi"], inp["init"]
    mwalk = spectral.coin_step_momentum_walk(coin)
    sg = ops.call("spectral.decompose", spectral.decompose, mwalk, LIMIT_GRID)
    sg = ops.call("spectral.derivatives", spectral.derivatives, sg)
    vcdf = ops.call("spectral.velocity_cdf", spectral.velocity_cdf, sg, init)
    values = ops.call("VelocityCDF", vcdf, LIMIT_XS)
    (out / "velocity_cdf.f64").write_bytes(np.asarray(values, dtype="<f8").tobytes())
    ops.cli(["limit", "--preset", "hadamard", "--grid", "20001", phi_arg(phi),
             "--out", out / "limit.csv"])
    ops.cli(["bounds", "--preset", "hadamard", "--n-list", "16:1024:x2", phi_arg(phi),
             "--out", out / "bounds.json"])
    dist = ops.call("walk.distribution", walk.distribution, coin, init, SMOOTH_N)
    F = ops.call("walk.rescaled_cdf", walk.rescaled_cdf, dist)
    K = ops.call("konno.KonnoCDF", konno.KonnoCDF, coin, phi)
    fam = metrics.SmoothingFamily(SMOOTH_N ** (-1.0 / 3.0))
    smooth = ops.call("metrics.convolve", metrics.convolve, F, fam)
    lev = ops.call("metrics.levy", metrics.levy, smooth, K, tol=1e-6)
    _write(out / "levy.json", json.dumps({"levy_smoothed": lev}))


_PASSES = {
    "rate_sweep": _pass_rate_sweep,
    "deep_walk": _pass_deep_walk,
    "limit_law": _pass_limit_law,
}


def run_pass(workload: str, inp: dict, out: Path, ops: Ops) -> None:
    """One pass of the workload; outputs go to ``out``."""
    try:
        _PASSES[workload](inp, Path(out), ops)
    except PassAborted:
        pass  # counted by Ops; later operations needed the failed result


# -- checks ------------------------------------------------------------------


def _probabilities_ok(dist, init):
    """Sum to 1 within 1e-11 and exact zeros on parity-forbidden sites."""
    total = float(np.sum(dist.probs))
    sites = dist.sites()
    allowed = np.zeros(len(sites), dtype=bool)
    for site, _, _ in init.entries:
        allowed |= (sites - site - dist.n) % 2 == 0
    stray = int(np.count_nonzero(dist.probs[~allowed]))
    ok = abs(total - 1.0) <= 1e-11 and stray == 0
    return ok, f"sum-1 = {total - 1.0:.3e}, {stray} nonzero parity-forbidden sites"


def _limit_against_velocity(ops, name, limit_fn, values_fn, M, coin, init):
    tol = velocity_tolerance(M)
    crossed = any(has_cross_term(coin, phi) for _, phi, _ in init.entries)

    def check():
        err = float(np.max(np.abs(np.asarray(limit_fn()(LIMIT_XS)) - values_fn())))
        return err <= tol, f"sup |F_limit - F_velocity| = {err:.3e} > {tol:.1e} (M={M})"

    ops.check(name, check, defect="a" if crossed else None)


def _velocity_values(coin, init, M):
    sg = spectral.derivatives(spectral.decompose(spectral.coin_step_momentum_walk(coin), M))
    return spectral.velocity_cdf(sg, init)(LIMIT_XS)


def _momentum_crosscheck(ops, coin, init):
    def check():
        sg = spectral.decompose(spectral.coin_step_momentum_walk(coin), MOMENTUM_GRID)
        dp = walk.distribution(coin, init, MOMENTUM_N)
        dm = spectral.evolve_momentum(sg, init, MOMENTUM_N)
        err = float(np.max(np.abs(dp.probs - dm.probs)))
        return err < 1e-12 and dp.offset == dm.offset, f"max |dp| = {err:.3e} >= 1e-12"

    ops.check(f"evolve_momentum vs distribution (n={MOMENTUM_N})", check)
    ops.check(
        f"probabilities (n={MOMENTUM_N})",
        lambda: _probabilities_ok(walk.distribution(coin, init, MOMENTUM_N), init),
    )


def _read_csv(path: Path):
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    return [dict(zip(header, line.split(","))) for line in rows[1:]]


def _checks_rate_sweep(inp, out: Path, ops: Ops) -> None:
    coin, init = inp["coin"], inp["init"]
    rows = []

    def read_rows():
        cols = ("n", "kolmogorov", "levy", "zolotarev_bound")
        rows.extend([float(r[k]) for k in cols] for r in _read_csv(out / "rates.csv"))
        return len(rows) > 0, "empty rates table"

    ops.check("rates table", read_rows)
    crossed = "a" if has_cross_term(coin, inp["phi"]) else None
    for n, kol, lev, zb in rows:
        ops.check(f"levy <= kolmogorov + 1e-9 (n={n:.0f})",
                  lambda: (lev <= kol + 1e-9, f"levy {lev!r} > kolmogorov {kol!r}"))
        ops.check(f"levy <= zolotarev_bound (n={n:.0f})",
                  lambda: (lev <= zb, f"above zolotarev_bound: levy {lev!r} > {zb!r}"),
                  defect=crossed)
    _limit_against_velocity(
        ops, "konno limit vs velocity_cdf", lambda: konno.limit_cdf(coin, init),
        lambda: _velocity_values(coin, init, CHECK_GRID), CHECK_GRID, coin, init,
    )
    _momentum_crosscheck(ops, coin, init)
    # Generic coins: rescaled_cdf must accept every exact distribution.
    for i, probe in enumerate(inp["probe_coins"]):
        snaps = {}

        def evolve(probe=probe, snaps=snaps):
            snaps.update(walk.distribution_snapshots(probe, init, PROBE_NS))
            return True, ""

        if not ops.check(f"generic coin {i}: evolve", evolve):
            continue
        for n in PROBE_NS:
            d = snaps[n]
            ops.check(f"generic coin {i}: probabilities (n={n})",
                      lambda d=d: _probabilities_ok(d, init))
            ops.check(f"generic coin {i}: rescaled_cdf (n={n})",
                      lambda d=d: (walk.rescaled_cdf(d) is not None, ""), defect="b")


def _read_distribution(path: Path, n: int):
    rows = _read_csv(path)
    sites = np.array([int(r["k"]) for r in rows])
    probs = np.array([float(r["p"]) for r in rows])
    return walk.PositionDistribution(offset=int(sites[0]), probs=probs, n=n)


def _checks_deep_walk(inp, out: Path, ops: Ops) -> None:
    coin, init = inp["coin"], inp["init"]
    ops.check("deep distribution probabilities",
              lambda: _probabilities_ok(_read_distribution(out / "deep.csv", DEEP_N), init))

    def levy_below_kolmogorov():
        doc = json.loads((out / "deep_metrics.json").read_text())
        return doc["levy"] <= doc["kolmogorov"] + 1e-9, json.dumps(doc)

    ops.check("levy <= kolmogorov + 1e-9", levy_below_kolmogorov)

    def front_masses_ordered():
        by_n = {}
        for row in _read_csv(out / "wavefront.csv"):
            by_n.setdefault(row["n"], {})[row["quantity"]] = float(row["value"])
        bad = [n for n, q in by_n.items() if q["mass_lower_scaled"] > q["mass_upper_scaled"]]
        return bool(by_n) and not bad, f"lower > upper front mass at n={bad}"

    ops.check("wavefront mass lower <= upper", front_masses_ordered)
    _limit_against_velocity(
        ops, "konno mixture vs velocity_cdf", lambda: konno.limit_cdf(coin, init),
        lambda: _velocity_values(coin, init, CHECK_GRID), CHECK_GRID, coin, init,
    )
    _momentum_crosscheck(ops, coin, init)


def _checks_limit_law(inp, out: Path, ops: Ops) -> None:
    coin, phi, init = inp["coin"], inp["phi"], inp["init"]
    _limit_against_velocity(
        ops, "konno limit vs velocity_cdf", lambda: konno.KonnoCDF(coin, phi),
        lambda: np.frombuffer((out / "velocity_cdf.f64").read_bytes(), dtype="<f8"),
        LIMIT_GRID, coin, init,
    )

    def smoothed_levy():
        # L(F*Theta, G) <= L(F*Theta, F) + L(F, G) <= eps/2 + L(F, G), plus
        # the two bisection tolerances.
        lev = json.loads((out / "levy.json").read_text())["levy_smoothed"]
        F = walk.rescaled_cdf(walk.distribution(coin, init, SMOOTH_N))
        step = metrics.levy(F, konno.KonnoCDF(coin, phi))
        bound = step + 0.5 * SMOOTH_N ** (-1.0 / 3.0) + 1e-6 + 1e-9
        return lev <= bound, f"smoothed levy {lev!r} > {bound!r}"

    ops.check("smoothed levy <= step levy + eps/2", smoothed_levy)

    def step_levy_below_kolmogorov():
        F = walk.rescaled_cdf(walk.distribution(coin, init, SMOOTH_N))
        K = konno.KonnoCDF(coin, phi)
        lev, kol = metrics.levy(F, K), metrics.kolmogorov(F, K)
        return lev <= kol + 1e-9, f"levy {lev!r} > kolmogorov {kol!r}"

    ops.check(f"levy <= kolmogorov + 1e-9 (n={SMOOTH_N})", step_levy_below_kolmogorov)
    _momentum_crosscheck(ops, coin, init)


_CHECKS = {
    "rate_sweep": _checks_rate_sweep,
    "deep_walk": _checks_deep_walk,
    "limit_law": _checks_limit_law,
}


def run_checks(workload: str, inp: dict, out: Path, ops: Ops) -> None:
    """Oracle checks of one pass's outputs in ``out``; never timed."""
    _CHECKS[workload](inp, Path(out), ops)
