import numpy as np
import pytest
from hypothesis import given, settings
from scipy.optimize import linear_sum_assignment

import qwlab
from qwlab import harness, konno, spectral
from qwlab.spectral import (
    BranchTrackingFailure,
    DegenerateSpectrum,
    GridTooCoarse,
    MomentumWalk,
    bound_constants,
    char_fn_finite,
    char_fn_limit,
    check_triangle_bound,
    coin_step_momentum_walk,
    decompose,
    derivatives,
    evolve_momentum,
    free_shift_walk,
    velocity_cdf,
    VelocityCDF,
)
from qwlab.walk import (
    CoinParams,
    InitialState,
    distribution,
    distribution_snapshots,
    hadamard_coin,
)
from test_walk import coin_strategy

E1 = np.array([1.0, 0.0], dtype=complex)
GENERIC_COIN = CoinParams(
    a=np.sqrt(0.4) * np.exp(0.7j), b=np.sqrt(0.6) * np.exp(-1.1j), theta=0.3
)
GENERIC_PHI = np.array([0.6, 0.8 * np.exp(1.3j)])


def eig_walk(coin) -> MomentumWalk:
    """The coin walk's W(p) without its coin, so decompose takes the eig path."""
    walk = coin_step_momentum_walk(coin)
    general = MomentumWalk(dim=2, unitary_at=walk.unitary_at)
    object.__setattr__(general, "unitary_batch", walk.unitary_batch)
    return general


# -- the band tracker as a loop of Hungarian assignments (oracle) -----------


def _match_bands(prev_omega, prev_proj, phases, projs) -> np.ndarray:
    """Assign the eigenpairs of one grid point to the tracked bands."""
    cost = np.abs(spectral._wrap_angle(prev_omega[:, None] - phases[None, :]))
    cost += np.sqrt(
        np.sum(np.abs(prev_proj[:, None] - projs[None, :]) ** 2, axis=(2, 3))
    )
    _, cols = linear_sum_assignment(cost)
    return cols


def _loop_decompose(walk, M):
    """(omega, projectors, seam_perm, seam_offset), one grid point at a time."""
    wrap = spectral._wrap_angle
    ps = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    vals, vecs = np.linalg.eig(walk.unitary_batch(ps))
    phases = np.angle(vals)
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    point_projs = np.einsum("jak,jbk->jkab", vecs, np.conj(vecs))
    d = walk.dim
    omega = np.empty((d, M))
    projectors = np.empty((d, M, d, d), dtype=np.complex128)
    order0 = np.argsort(phases[0])
    omega[:, 0] = phases[0, order0]
    projectors[:, 0] = point_projs[0, order0]
    for j in range(1, M):
        cols = _match_bands(omega[:, j - 1], projectors[:, j - 1], phases[j], point_projs[j])
        omega[:, j] = omega[:, j - 1] + wrap(phases[j, cols] - omega[:, j - 1])
        projectors[:, j] = point_projs[j, cols]
    seam_cols = _match_bands(omega[:, -1], projectors[:, -1], phases[0], point_projs[0])
    seam_perm = np.argsort(order0)[seam_cols]
    cont = omega[:, -1] + wrap(phases[0, seam_cols] - omega[:, -1])
    seam_offset = 2.0 * np.pi * np.round((cont - omega[seam_perm, 0]) / (2.0 * np.pi))
    return omega, projectors, seam_perm, seam_offset


def _cyclic_walk(p):
    """Three bands e^{i(p + 2 pi k)/3}: they wind and permute cyclically at the seam."""
    return np.array([[0.0, 0.0, np.exp(1j * p)], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


_ROTATION = np.linalg.qr(
    np.random.default_rng(7).normal(size=(3, 3))
    + 1j * np.random.default_rng(8).normal(size=(3, 3))
)[0]


def _crossing_walk(p):
    """Three bands p, -p, 2 sin p in a fixed generic basis; they cross transversally."""
    phases = np.exp(1j * np.array([p, -p, 2.0 * np.sin(p)]))
    return (_ROTATION * phases) @ np.conj(_ROTATION.T)


TRACKED_WALKS = {
    "hadamard": eig_walk(hadamard_coin()),
    "generic": eig_walk(GENERIC_COIN),
    "free_shift": free_shift_walk(),
    "cyclic3": MomentumWalk(dim=3, unitary_at=_cyclic_walk),
    "crossing3": MomentumWalk(dim=3, unitary_at=_crossing_walk),
}


@pytest.fixture(scope="module")
def hadamard_grid():
    walk = coin_step_momentum_walk(hadamard_coin())
    return derivatives(decompose(walk, 2**14))


@pytest.fixture(scope="module")
def free_grid():
    return derivatives(decompose(free_shift_walk(), 512))


class TestDecompose:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            decompose(free_shift_walk(), 32)
        with pytest.raises(ValueError):
            decompose(free_shift_walk(), 129)

    def test_free_shift_bands(self, free_grid):
        # omega = +-p up to labeling; velocities exactly +-1, zero curvature
        v = np.sort(free_grid.velocity, axis=0)
        assert np.allclose(v[0], -1.0, atol=1e-9)
        assert np.allclose(v[1], 1.0, atol=1e-9)
        assert np.abs(free_grid.curvature).max() < 1e-9

    def test_free_shift_windings(self, free_grid):
        assert sorted(free_grid.seam_offset / (2 * np.pi)) == [-1.0, 1.0]

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

    def test_degenerate_spectrum_raises(self):
        grid_const = np.diag([1.0, np.exp(1e-9j)])
        walk = MomentumWalk(dim=2, unitary_at=lambda p: grid_const)
        with pytest.raises(DegenerateSpectrum):
            decompose(walk, 128)

    def test_non_unitary_rejected(self):
        walk = MomentumWalk(dim=2, unitary_at=lambda p: np.diag([1.0, 0.5]))
        with pytest.raises(ValueError):
            decompose(walk, 128)


class TestVectorisedTracking:
    @pytest.mark.parametrize("M", [256, 4096])
    @pytest.mark.parametrize("name", sorted(TRACKED_WALKS))
    def test_matches_the_hungarian_loop(self, name, M):
        walk = TRACKED_WALKS[name]
        omega, projectors, seam_perm, seam_offset = _loop_decompose(walk, M)
        sg = decompose(walk, M)
        assert np.array_equal(sg.projectors, projectors)
        # the loop re-anchors to the raw phase at every step, within an ulp
        assert np.abs(sg.omega - omega).max() < 1e-14
        assert np.array_equal(sg.seam_perm, seam_perm)
        assert np.array_equal(sg.seam_offset, seam_offset)

    def test_seam_permutation_and_windings(self):
        sg = decompose(TRACKED_WALKS["cyclic3"], 256)
        assert sg.seam_perm.tolist() == [1, 2, 0]
        assert (sg.seam_offset / (2 * np.pi)).tolist() == [0.0, 0.0, 1.0]

    def test_prefix_composition(self):
        rng = np.random.default_rng(3)
        maps = np.array([rng.permutation(4) for _ in range(1000)])
        expected = [maps[0]]
        for m in maps[1:]:
            expected.append(m[expected[-1]])
        assert np.array_equal(spectral._compose_prefix(maps), np.array(expected))

    def test_best_match_is_least_total_cost(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(size=(200, 3, 3))
        best = spectral._best_matches(cost)
        for c, perm in zip(cost, best):
            rows, cols = linear_sum_assignment(c)
            assert c[rows, perm].sum() == pytest.approx(c[rows, cols].sum(), abs=1e-15)


class TestDerivatives:
    def test_group_velocity_supremum(self, hadamard_grid):
        # bounded by |a|, attained near the dispersion inflection
        assert np.abs(hadamard_grid.velocity).max() == pytest.approx(
            1 / np.sqrt(2), abs=1e-8
        )

    def test_curvature_richardson_stable(self, hadamard_grid):
        # derivatives() raises GridTooCoarse if halving shifts sup|omega''|;
        # reaching here with a filled grid is the check, assert the value too
        assert np.abs(hadamard_grid.curvature).max() == pytest.approx(1.0, abs=1e-6)

    def test_halving_check_compares_the_same_momenta(self):
        # the maxima of |omega''| on the full and the half grid fall on
        # different momenta for this coin: 2.1e-6 apart at M = 2^12, while
        # the full grid's even indices match the half grid to 4e-10
        coin = CoinParams(np.sqrt(0.5) * np.exp(0.301j), np.sqrt(0.5), 0.0)
        sg = derivatives(decompose(eig_walk(coin), 2**12))
        assert sg.has_derivatives()

    @pytest.mark.parametrize(
        "coin, M",
        [
            (hadamard_coin(), 64),
            (CoinParams(np.sqrt(0.9) + 0j, np.sqrt(0.1) + 0j, 0.0), 256),
        ],
    )
    def test_coarse_grid_still_raises(self, coin, M):
        with pytest.raises(GridTooCoarse):
            derivatives(decompose(eig_walk(coin), M))

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
        closed = decompose(coin_step_momentum_walk(coin), 2**12)
        tracked = decompose(eig_walk(coin), 2**12)
        assert np.abs(closed.omega - tracked.omega).max() < 1e-14
        assert np.abs(closed.projectors - tracked.projectors).max() < 1e-14
        assert np.array_equal(closed.seam_perm, tracked.seam_perm)
        assert np.array_equal(closed.seam_offset, tracked.seam_offset)
        hermitian = np.conj(np.swapaxes(closed.projectors, 2, 3))
        assert np.array_equal(closed.projectors, hermitian)

    @settings(max_examples=15, deadline=None)
    @given(coin=coin_strategy)
    def test_derivatives_match_finite_differences(self, coin):
        # The differences' truncation error is about 0.27 h^4 |a|^5 / |b|^4
        # in the velocity: 2.9e-9 at M = 2^12 for |b| = sin 0.15, the edge
        # of the strategy, and 1.8e-10 at M = 2^13.  ||Pi'|| carries one
        # more power of 1 / |b|: 3.4e-9 there at M = 2^13.
        exact = derivatives(decompose(coin_step_momentum_walk(coin), 2**13))
        fd = derivatives(decompose(eig_walk(coin), 2**13))
        assert np.abs(exact.velocity - fd.velocity).max() < 1e-9
        assert np.abs(exact.curvature - fd.curvature).max() < 1e-6
        assert np.abs(exact.proj_deriv_norm - fd.proj_deriv_norm).max() < 1e-8

    @pytest.mark.parametrize("make_walk", [coin_step_momentum_walk, eig_walk], ids=["closed", "eig"])
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
    def test_free_shift_unit_step(self, free_grid):
        F = velocity_cdf(free_grid, InitialState.pure(E1))
        assert F(1.0 - 1e-6) == pytest.approx(0.0, abs=1e-12)
        assert F(1.0 + 1e-6) == pytest.approx(1.0, abs=1e-12)

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

    def test_free_shift_phase(self, free_grid):
        lam = 2.3
        val = char_fn_limit(free_grid, InitialState.pure(E1), lam)
        assert val == pytest.approx(np.exp(1j * lam), abs=1e-10)

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


class TestTriangleBound:
    def test_zero_lambda(self, hadamard_grid):
        d = distribution(hadamard_coin(), InitialState.pure(E1), 16)
        lhs, rhs, ok = check_triangle_bound(hadamard_grid, InitialState.pure(E1), d, 0.0)
        assert rhs == 0.0 and ok
        assert lhs < 1e-12  # both characteristic functions are 1 up to roundoff

    def test_lattice_invariant(self, hadamard_grid):
        init = InitialState.pure(E1)
        ns = [2**k for k in range(4, 11)]
        snaps = distribution_snapshots(hadamard_coin(), init, ns)
        lams = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
        for n in ns:
            for lam in lams:
                for s in (1.0, -1.0):
                    lhs, rhs, ok = check_triangle_bound(
                        hadamard_grid, init, snaps[n], s * lam
                    )
                    assert ok, (n, s * lam, lhs, rhs)

    def test_rhs_halves_with_doubled_n(self, hadamard_grid):
        init = InitialState.pure(E1)
        d1 = distribution(hadamard_coin(), init, 32)
        d2 = distribution(hadamard_coin(), init, 64)
        _, rhs1, _ = check_triangle_bound(hadamard_grid, init, d1, 2.0)
        _, rhs2, _ = check_triangle_bound(hadamard_grid, init, d2, 2.0)
        assert rhs2 == pytest.approx(rhs1 / 2, rel=1e-12)

    def test_shifted_site_moment_enters(self, hadamard_grid):
        init = InitialState.pure(E1, site=3)
        d = distribution(hadamard_coin(), init, 128)
        lhs, rhs, ok = check_triangle_bound(hadamard_grid, init, d, 1.5)
        assert ok
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
    def test_csv_shape(self, free_grid):
        csv = free_grid.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "p,band,omega,velocity,curvature"
        assert len(lines) == 1 + 2 * free_grid.grid_size

    def test_requires_derivatives(self):
        sg = decompose(free_shift_walk(), 128)
        with pytest.raises(ValueError):
            sg.to_csv()
