import dataclasses
import importlib.util
import inspect
import os

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linear_sum_assignment

from qwlab import harness, konno, spectral
from qwlab.spectral import (
    DegenerateSpectrum,
    MomentumWalk,
    bound_constants,
    char_fn_finite,
    char_fn_limit,
    coin_step_momentum_walk,
    decompose,
    derivatives,
    evolve_momentum,
    velocity_cdf,
    VelocityCDF,
)
from qwlab.walk import (
    CoinParams,
    InitialState,
    distribution,
    hadamard_coin,
)
from test_walk import coin_strategy

E1 = np.array([1.0, 0.0], dtype=complex)
GENERIC_COIN = CoinParams(
    a=np.sqrt(0.4) * np.exp(0.7j), b=np.sqrt(0.6) * np.exp(-1.1j), theta=0.3
)
GENERIC_PHI = np.array([0.6, 0.8 * np.exp(1.3j)])


# -- eig, band tracking and differences (the oracle) ------------------------
#
# The general algorithm for d bands: eig at every grid point, the eigenpairs
# matched to the tracked bands one point at a time by a Hungarian assignment,
# windings kept in omega, and the band permutation and 2pi offsets at the
# seam.  The library takes a coin walk's bands in closed form.


def _loop_decompose(walk, M):
    """(omega, projectors, seam_perm, seam_offset), one grid point at a time.

    Band k continues past p = 2pi as band seam_perm[k] lifted by
    seam_offset[k], a multiple of 2pi.
    """
    wrap = spectral._wrap_angle
    ps = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    vals, vecs = np.linalg.eig(walk.unitary_batch(ps))
    phases = np.angle(vals)
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    point_projs = np.einsum("jak,jbk->jkab", vecs, np.conj(vecs))
    d = phases.shape[1]
    # cost[j, r, c] of continuing raw eigenpair r of point j as raw pair c of
    # the next point (of point 0 across the seam): circular phase distance
    # plus projector distance, which resolves transversal crossings
    nxt = np.roll(np.arange(M), -1)
    cost = np.abs(wrap(phases[:, :, None] - phases[nxt, None, :]))
    cost += np.sqrt(
        np.sum(np.abs(point_projs[:, :, None] - point_projs[nxt, None, :]) ** 2, axis=(3, 4))
    )
    raw = np.empty((M, d), dtype=np.int64)  # raw[j, k]: band k's eigenpair at point j
    raw[0] = np.argsort(phases[0])
    for j in range(1, M):
        raw[j] = linear_sum_assignment(cost[j - 1][raw[j - 1]])[1]
    rows = np.arange(M)[:, None]
    # omega: the raw phase plus 2pi times the band's integer winding
    tracked = phases[rows, raw]
    step = np.diff(tracked, axis=0)
    winding = np.cumsum(np.rint((wrap(step) - step) / (2.0 * np.pi)), axis=0)
    omega = tracked.T.copy()
    omega[:, 1:] += 2.0 * np.pi * winding.T
    projectors = np.swapaxes(point_projs[rows, raw], 0, 1)
    seam_cols = linear_sum_assignment(cost[-1][raw[-1]])[1]
    seam_perm = np.argsort(raw[0])[seam_cols]
    cont = omega[:, -1] + wrap(phases[0, seam_cols] - omega[:, -1])
    seam_offset = 2.0 * np.pi * np.round((cont - omega[seam_perm, 0]) / (2.0 * np.pi))
    return omega, projectors, seam_perm, seam_offset


def _fd_derivatives(walk, M):
    """(velocity, curvature, ||Pi'||) by fourth-order central differences.

    Taken on the loop's bands, padded by two points on each side across the
    seam with the loop's own seam data.
    """
    omega, projectors, perm, offset = _loop_decompose(walk, M)
    inv = np.argsort(perm)
    ext_omega = np.concatenate(
        [omega[inv, -2:] - offset[inv, None], omega, omega[perm, :2] + offset[:, None]], axis=1
    )
    ext_proj = np.concatenate([projectors[inv, -2:], projectors, projectors[perm, :2]], axis=1)
    h = 2.0 * np.pi / M

    def differences(ext):
        m2, m1, c, p1, p2 = (ext[:, i : i + M] for i in range(5))
        d1 = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
        d2 = (-p2 + 16.0 * p1 - 30.0 * c + 16.0 * m1 - m2) / (12.0 * h * h)
        return d1, d2

    velocity, curvature = differences(ext_omega)
    dproj, _ = differences(ext_proj)
    return velocity, curvature, np.linalg.svd(dproj, compute_uv=False)[..., 0]


@pytest.fixture(scope="module")
def hadamard_grid():
    walk = coin_step_momentum_walk(hadamard_coin())
    return derivatives(decompose(walk, 2**14))


class TestDecompose:
    def test_grid_validation(self):
        walk = coin_step_momentum_walk(hadamard_coin())
        with pytest.raises(ValueError):
            decompose(walk, 32)
        with pytest.raises(ValueError):
            decompose(walk, 129)

    def test_projector_invariants(self, hadamard_grid):
        proj = hadamard_grid.projectors
        ident = np.eye(2)
        assert np.abs(proj.sum(axis=0) - ident).max() < 1e-10
        idem = np.einsum("kjab,kjbc->kjac", proj, proj)
        assert np.abs(idem - proj).max() < 1e-10

    def test_reconstruction(self, hadamard_grid):
        walk = hadamard_grid.walk
        Ws = walk.unitary_batch(hadamard_grid.ps)
        recon = np.einsum(
            "kj,kjab->jab", np.exp(1j * hadamard_grid.omega), hadamard_grid.projectors
        )
        frob = np.sqrt(np.sum(np.abs(recon - Ws) ** 2, axis=(1, 2)))
        assert frob.max() < 1e-9

    def test_dispersion_relation(self, hadamard_grid):
        coin = hadamard_coin()
        lhs = np.cos(hadamard_grid.omega - coin.theta)
        rhs = coin.abs_a * np.cos(hadamard_grid.ps + np.angle(coin.a))
        assert np.abs(lhs - rhs[None, :]).max() < 1e-9

    def test_band_continuity(self, hadamard_grid):
        assert np.abs(np.diff(hadamard_grid.omega, axis=1)).max() < np.pi / 4

    def test_non_unitary_rejected(self, monkeypatch):
        monkeypatch.setattr(
            MomentumWalk,
            "unitary_batch",
            lambda self, ps: np.tile(np.diag([1.0, 0.5]).astype(complex), (len(ps), 1, 1)),
        )
        walk = coin_step_momentum_walk(hadamard_coin())
        with pytest.raises(ValueError):
            decompose(walk, 128)

    def test_replaced_coin_gives_its_own_bands(self):
        walk = dataclasses.replace(coin_step_momentum_walk(hadamard_coin()), coin=GENERIC_COIN)
        sg = decompose(walk, 256)
        own = decompose(coin_step_momentum_walk(GENERIC_COIN), 256)
        assert np.array_equal(sg.omega, own.omega)
        assert np.array_equal(sg.projectors, own.projectors)


class TestDerivatives:
    def test_group_velocity_supremum(self, hadamard_grid):
        # bounded by |a|, attained near the dispersion inflection
        assert np.abs(hadamard_grid.velocity).max() == pytest.approx(
            1 / np.sqrt(2), abs=1e-8
        )

    def test_curvature_richardson_stable(self, hadamard_grid):
        # the curvature is exact, so its grid maximum at M = 2^14 lies just
        # below the supremum |a| / |b| = 1
        assert np.abs(hadamard_grid.curvature).max() == pytest.approx(1.0, abs=1e-6)

    def test_proj_deriv_sum(self, hadamard_grid):
        total = hadamard_grid.proj_deriv_norm.max(axis=1).sum()
        assert total == pytest.approx(np.sqrt(2), abs=1e-6)

    def test_bound_constants_moment(self, hadamard_grid):
        init = InitialState(((3, E1, 0.5), (-5, E1, 0.5)))
        consts = bound_constants(hadamard_grid, init)
        assert consts.abs_position_moment == pytest.approx(4.0)
        assert consts.sup_curvature > 0
        assert consts.sum_proj_deriv > 0


class TestClosedForm:
    """Coin walks in closed form against eig, band tracking and differences."""

    @settings(max_examples=15, deadline=None)
    @given(coin=coin_strategy)
    def test_matches_the_eig_path(self, coin):
        walk = coin_step_momentum_walk(coin)
        closed = decompose(walk, 2**12)
        omega, projectors, seam_perm, seam_offset = _loop_decompose(walk, 2**12)
        assert np.abs(closed.omega - omega).max() < 1e-14
        assert np.abs(closed.projectors - projectors).max() < 1e-14
        # both bands are periodic: each continues past 2pi as itself
        assert seam_perm.tolist() == [0, 1]
        assert seam_offset.tolist() == [0.0, 0.0]
        hermitian = np.conj(np.swapaxes(closed.projectors, 2, 3))
        assert np.array_equal(closed.projectors, hermitian)

    @settings(max_examples=15, deadline=None)
    @given(coin=coin_strategy)
    def test_derivatives_match_finite_differences(self, coin):
        # The differences' truncation error is about 0.27 h^4 |a|^5 / |b|^4
        # in the velocity: 2.9e-9 at M = 2^12 for |b| = sin 0.15, the edge
        # of the strategy, and 1.8e-10 at M = 2^13.  ||Pi'|| carries one
        # more power of 1 / |b|: 3.4e-9 there at M = 2^13.
        walk = coin_step_momentum_walk(coin)
        exact = derivatives(decompose(walk, 2**13))
        velocity, curvature, proj_deriv_norm = _fd_derivatives(walk, 2**13)
        assert np.abs(exact.velocity - velocity).max() < 1e-9
        assert np.abs(exact.curvature - curvature).max() < 1e-6
        assert np.abs(exact.proj_deriv_norm - proj_deriv_norm).max() < 1e-8

    @pytest.mark.parametrize("make_walk", [coin_step_momentum_walk], ids=["closed"])
    def test_nearly_diagonal_coin_is_degenerate(self, make_walk):
        # |b| = 1e-7 and q = p + arg a = 0 at the first grid point, where the
        # bands theta +- alpha are 2e-7 apart
        M = 256
        coin = CoinParams(np.sqrt(1.0 - 1e-14) * np.exp(-1j * np.pi / M), 1e-7, 0.4)
        with pytest.raises(DegenerateSpectrum):
            decompose(make_walk(coin), M)

    @pytest.mark.parametrize("defect", [0.99e-12, -0.99e-12])
    def test_coin_at_the_norm_tolerance(self, defect):
        scale = np.sqrt(1.0 + defect)
        coin = CoinParams(GENERIC_COIN.a * scale, GENERIC_COIN.b * scale, GENERIC_COIN.theta)
        rough = derivatives(decompose(coin_step_momentum_walk(coin), 2**12))
        unit = derivatives(decompose(coin_step_momentum_walk(GENERIC_COIN), 2**12))
        for field in ("omega", "projectors", "velocity", "curvature", "proj_deriv_norm"):
            assert np.abs(getattr(rough, field) - getattr(unit, field)).max() < 1e-12

    @pytest.mark.parametrize("abs_a2", [0.02, 0.13, 0.5, 0.77, 0.98])
    def test_bound_constants_are_the_exact_suprema(self, abs_a2):
        coin = CoinParams(
            np.sqrt(abs_a2) * np.exp(0.4j), np.sqrt(1.0 - abs_a2) * np.exp(-2.0j), 1.1
        )
        sg = derivatives(decompose(coin_step_momentum_walk(coin), 2**12))
        consts = bound_constants(sg, InitialState.pure(E1))
        A, B = coin.abs_a, coin.abs_b
        assert consts.sup_curvature == pytest.approx(A / B, rel=1e-15)
        assert consts.sum_proj_deriv == pytest.approx(np.sqrt(A * A + B * B) / B, rel=1e-15)
        assert consts.sup_curvature >= np.abs(sg.curvature).max()
        assert consts.sum_proj_deriv >= sg.proj_deriv_norm.max(axis=1).sum()

    def test_hadamard_bound_constants(self, hadamard_grid):
        # the grid maximum of |omega''| at M = 2^14 falls short of the exact 1
        consts = bound_constants(hadamard_grid, InitialState.pure(E1))
        assert consts.sup_curvature == pytest.approx(1.0, rel=1e-15)
        assert consts.sum_proj_deriv == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert np.abs(hadamard_grid.curvature).max() < 1.0

    def test_coin_walks_never_reach_eig(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a coin walk reached the eig path")

        monkeypatch.setattr(np.linalg, "eig", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        sg = derivatives(decompose(coin_step_momentum_walk(GENERIC_COIN), 2**16))
        assert sg.has_derivatives()
        report = harness.run_bound_battery(
            GENERIC_COIN, InitialState.pure(GENERIC_PHI), [0.5, 2.0], [16, 64]
        )
        assert report.all_ok


class TestVelocityCDF:
    def test_monotone_and_limits(self, hadamard_grid):
        F = velocity_cdf(hadamard_grid, InitialState.pure(E1))
        xs = np.linspace(-1.0, 1.0, 2001)
        vals = F(xs)
        assert np.all(np.diff(vals) >= -1e-15)
        assert vals[0] == 0.0
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)

    def test_full_support_reached(self, hadamard_grid):
        F = velocity_cdf(hadamard_grid, InitialState.pure(E1))
        # the analytic group-velocity supremum is |a|
        assert F(1 / np.sqrt(2) + 1e-9) == pytest.approx(1.0, abs=1e-12)

    def test_against_konno(self, hadamard_grid):
        kc = konno.KonnoCDF(hadamard_coin(), E1)
        F = velocity_cdf(hadamard_grid, InitialState.pure(E1))
        xs = np.linspace(-0.9, 0.9, 500)
        assert np.max(np.abs(F(xs) - kc.cdf(xs))) < 2e-6


def _dense_velocity_cdf(F, xs):
    """Every cell's mass below x, summed over all cells: the (points x cells) product."""
    v0, v1, m0, m1, w = F._v0, F._v1, F._m0, F._m1, F._w
    xb = np.asarray(xs, dtype=float)[:, None]
    dv = v1 - v0
    flat = dv == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (xb - v0) / dv
    t = np.clip(np.where(flat, 0.0, t), 0.0, 1.0)
    partial = m0 * t + 0.5 * (m1 - m0) * t * t
    half = 0.5 * (m0 + m1)
    contrib = np.where(flat, half * (v0 <= xb), np.where(dv > 0.0, partial, half - partial))
    return contrib @ w


class TestVelocityCDFOracle:
    @pytest.mark.parametrize("phi", [E1, GENERIC_PHI], ids=["e1", "generic"])
    @pytest.mark.parametrize("coin", [hadamard_coin(), GENERIC_COIN], ids=["hadamard", "generic"])
    def test_matches_dense_product(self, coin, phi):
        sg = derivatives(decompose(coin_step_momentum_walk(coin), 2**11))
        F = velocity_cdf(sg, InitialState.pure(phi))
        rng = np.random.default_rng(6)
        ends = rng.choice(np.concatenate([F._v0, F._v1]), size=400, replace=False)
        xs = np.concatenate([
            ends, np.linspace(-1.2, 1.2, 241), F.support, [-np.inf, np.inf, -2.0, 2.0],
        ])
        assert np.max(np.abs(F(xs) - _dense_velocity_cdf(F, xs))) < 1e-12
        assert F(-np.inf) == 0.0 and F(-2.0) == 0.0
        assert F(np.inf) == F(2.0) == pytest.approx(1.0, abs=1e-12)

    def test_flat_and_tied_cells(self):
        rng = np.random.default_rng(9)
        v0 = np.round(rng.uniform(-1.0, 1.0, 600), 2)  # many shared endpoints
        v1 = v0 + np.round(rng.normal(0.0, 0.05, 600), 2)
        v1[::7] = v0[::7]  # flat cells: a point mass at v0
        m0, m1, w = rng.uniform(size=(3, 600))
        F = VelocityCDF(v0, v1, m0, m1, w)
        xs = np.concatenate([v0, v1, np.linspace(-1.5, 1.5, 301), [-np.inf, np.inf]])
        assert np.max(np.abs(F(xs) - _dense_velocity_cdf(F, xs))) < 1e-12
        assert F(np.inf) == pytest.approx(np.sum(0.5 * (m0 + m1) * w), rel=1e-14)


class TestCharFunctions:
    def test_limit_at_zero(self, hadamard_grid):
        assert char_fn_limit(hadamard_grid, InitialState.pure(E1), 0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_limit_against_konno_quadrature(self, hadamard_grid):
        kc = konno.KonnoCDF(hadamard_coin(), E1)
        val = char_fn_limit(hadamard_grid, InitialState.pure(E1), 1.0)
        assert abs(val - kc.char_fn(1.0)) < 1e-6

    def test_finite_at_zero_and_hand_value(self):
        d2 = distribution(hadamard_coin(), InitialState.pure(E1), 2)
        assert char_fn_finite(d2, 0.0) == pytest.approx(1.0, abs=1e-14)
        # quarter/half/quarter at sites -2, 0, 2 cancels at lam = pi
        assert abs(char_fn_finite(d2, np.pi)) < 1e-14

    def test_conjugate_symmetry(self):
        d = distribution(hadamard_coin(), InitialState.pure(E1), 64)
        lam = 1.7
        assert char_fn_finite(d, -lam) == pytest.approx(
            np.conj(char_fn_finite(d, lam)), abs=1e-14
        )

    def test_modulus_bounded(self, hadamard_grid):
        lams = np.linspace(-20, 20, 101)
        vals = char_fn_limit(hadamard_grid, InitialState.pure(E1), lams)
        assert np.max(np.abs(vals)) <= 1.0 + 1e-12


def _single_block_char_sum(lams, x, w):
    """sum_i w_i e^{i lam x_i} with all lam rows in one block."""
    phase = lams[:, None] * x[None, :]
    return np.cos(phase) @ w + 1j * (np.sin(phase) @ w)


class TestBlockedCharSum:
    # 2^16 + 1 terms make a row longer than a block; 13 such rows already
    # go one to a block, 378 would add 3 s and nothing else
    @pytest.mark.parametrize(
        "terms, count",
        [(t, c) for t in (1, 100, 4097, 2**16 + 1) for c in (1, 13, 378) if t * c < 2**24],
    )
    def test_matches_single_block_sum(self, terms, count):
        rng = np.random.default_rng(terms * 1000 + count)
        x = rng.uniform(-1.0, 1.0, terms)
        w = rng.normal(size=terms)
        lams = rng.uniform(-600.0, 600.0, count)
        got = spectral._char_sum(lams, x, w)
        want = _single_block_char_sum(lams, x, w)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.sum(np.abs(w))


class TestTriangleBound:
    """The battery's triangle bound on the grid of the ``hadamard_grid`` fixture."""

    @staticmethod
    def battery(init, lambdas, ns):
        return harness.run_bound_battery(hadamard_coin(), init, lambdas, ns, char_grid=2**14)

    def test_zero_lambda(self):
        report = self.battery(InitialState.pure(E1), [0.0], [16])
        assert report.rhs[0, 0] == 0.0 and report.ok[0, 0]
        assert report.lhs[0, 0] < 1e-12  # both characteristic functions are 1 up to roundoff

    def test_lattice_invariant(self):
        lams = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        report = self.battery(
            InitialState.pure(E1), [s * lam for lam in lams for s in (1.0, -1.0)],
            [2**k for k in range(4, 11)],
        )
        failed = [
            (report.ns[i], report.lambdas[j], report.lhs[i, j], report.rhs[i, j])
            for i, j in zip(*np.nonzero(~report.ok))
        ]
        assert not failed, failed

    def test_rhs_halves_with_doubled_n(self):
        report = self.battery(InitialState.pure(E1), [2.0], [32, 64])
        assert report.rhs[1, 0] == pytest.approx(report.rhs[0, 0] / 2, rel=1e-12)

    def test_shifted_site_moment_enters(self, hadamard_grid):
        init = InitialState.pure(E1, site=3)
        report = self.battery(init, [1.5], [128])
        assert report.ok[0, 0]
        consts = bound_constants(hadamard_grid, init)
        assert consts.abs_position_moment == 3.0


class TestEvolveMomentum:
    def test_requires_room(self):
        sg = decompose(coin_step_momentum_walk(hadamard_coin()), 64)
        with pytest.raises(ValueError):
            evolve_momentum(sg, InitialState.pure(E1), 40)

    def test_mixed_state(self):
        coin = hadamard_coin()
        init = InitialState(((0, E1, 0.4), (1, np.array([0, 1.0], complex), 0.6)))
        sg = decompose(coin_step_momentum_walk(coin), 512)
        d_mom = evolve_momentum(sg, init, 100)
        d_pos = distribution(coin, init, 100)
        assert np.max(np.abs(d_mom.probs - d_pos.probs)) < 1e-12


class TestDump:
    def test_csv_shape(self):
        sg = derivatives(decompose(coin_step_momentum_walk(GENERIC_COIN), 512))
        lines = sg.to_csv().strip().split("\n")
        assert lines[0] == "p,band,omega,velocity,curvature"
        assert len(lines) == 1 + 2 * sg.grid_size

    def test_requires_derivatives(self):
        sg = decompose(coin_step_momentum_walk(GENERIC_COIN), 128)
        with pytest.raises(ValueError):
            sg.to_csv()


class TestBenchmarkProbes:
    """perfbench/layers.py wraps these functions and its counters read their arguments."""

    @pytest.fixture
    def layers(self, monkeypatch):
        bench = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")
        monkeypatch.syspath_prepend(bench)  # layers.py imports its sibling spans.py
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", os.path.join(bench, "layers.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_every_probe_target_resolves(self, layers):
        missing = [f"{m}:{p}" for _, m, p, _ in layers.PROBES if layers._resolve(m, p) is None]
        assert missing == []

    def test_counters_read_the_parameters(self, layers, hadamard_grid):
        init = InitialState.pure(E1)
        dist = distribution(hadamard_coin(), init, 16)
        calls = {
            "decompose": ((coin_step_momentum_walk(hadamard_coin()), 64), {"M"}),
            "char_fn_finite": ((dist, [0.5, 1.0]), {"dist", "lam"}),
            "char_fn_limit": ((hadamard_grid, init, [0.5, 1.0]), {"sg", "lam"}),
        }
        probes = {path: (module, counter) for _, module, path, counter in layers.PROBES}
        for path, (args, names) in calls.items():
            module, counter = probes[path]
            holder, attr = layers._resolve(module, path)
            sig = inspect.signature(getattr(holder, attr))
            assert names <= set(sig.parameters), path
            assert counter(sig.bind(*args).arguments, None), path
