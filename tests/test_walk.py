import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwlab
from qwlab import _step_numpy, spectral
from qwlab.walk import (
    CoinParams,
    InitialState,
    PositionDistribution,
    StepCDF,
    WalkState,
    distribution,
    distribution_snapshots,
    evolve,
    hadamard_coin,
    rescaled_cdf,
)

SQ2 = np.sqrt(2.0)
GENERIC_COIN = CoinParams(a=np.cos(0.7) * np.exp(0.3j), b=np.sin(0.7) * np.exp(-0.5j), theta=0.2)
ORACLE_COINS = [
    hadamard_coin(),
    GENERIC_COIN,
    CoinParams(a=np.sqrt(0.1) * np.exp(2.1j), b=np.sqrt(0.9) * np.exp(4.0j), theta=5.0),
]


def coins(draw):
    tau = draw(st.floats(0.15, np.pi / 2 - 0.15))
    chi1 = draw(st.floats(0.0, 2 * np.pi))
    chi2 = draw(st.floats(0.0, 2 * np.pi))
    theta = draw(st.floats(0.0, 2 * np.pi))
    return CoinParams(
        a=np.cos(tau) * np.exp(1j * chi1),
        b=np.sin(tau) * np.exp(1j * chi2),
        theta=theta,
    )


coin_strategy = st.composite(coins)()


@st.composite
def spinors(draw):
    v = np.array(
        [
            complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))),
            complex(draw(st.floats(-1, 1)), draw(st.floats(-1, 1))),
        ]
    )
    norm = np.linalg.norm(v)
    if norm < 1e-3:
        v = np.array([1.0, 0.0], dtype=complex)
        norm = 1.0
    return v / norm


@st.composite
def mixtures(draw):
    """Two or three entries, the first two on sites of opposite parity."""
    count = draw(st.integers(2, 3))
    first = draw(st.integers(-5, 5))
    sites = [first, first + 2 * draw(st.integers(-3, 3)) + 1]
    sites += [draw(st.integers(-6, 6)) for _ in range(count - 2)]
    raw = [draw(st.floats(0.1, 1.0)) for _ in range(count)]
    total = sum(raw)
    return InitialState(tuple((s, draw(spinors()), r / total) for s, r in zip(sites, raw)))


def evolve_loop(coin, init, n):
    """(offset, p_n) from the complex full-lattice step loop of ``evolve``."""
    sites = [site for site, _, _ in init.entries]
    lo = min(sites) - n
    probs = np.zeros(max(sites) + n - lo + 1)
    for site, phi, w in init.entries:
        state = WalkState.from_spinor(phi, site)
        for _ in range(n):
            state = evolve(coin, state)
        j = state.offset - lo
        probs[j : j + state.width] += w * state.site_probabilities()
    return lo, probs


def loop_evolve_steps(amps, coin, steps, lo, hi):
    """``_step_numpy.evolve_steps`` as the O(steps^2) sublattice step loop.

    Steps the real coin R cell by cell, then divides by rho^(steps/2),
    rho = A^2 + B^2 taken exactly, which is the walk of R / sqrt(rho).
    """
    L = amps.shape[1]
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if lo < 0 or hi + steps > L - 1:
        raise ValueError("amplitude buffer too small for requested steps")
    x0, x1 = amps
    for _ in range(steps):
        rotated = coin @ amps[:, lo : hi + 1]
        x1[lo : hi + 1] = rotated[1]
        x0[lo + 1 : hi + 2] = rotated[0]
        x0[lo] = 0.0
        hi += 1
    rho = Fraction(float(coin[0][0])) ** 2 + Fraction(float(coin[0][1])) ** 2
    amps[:, lo : hi + 1] *= math.exp(-0.5 * steps * math.log1p(float(rho - 1)))
    return lo, hi


class TestCoinParams:
    def test_hadamard_matrix(self):
        mat = hadamard_coin().matrix()
        expected = np.array([[1, 1], [1, -1]]) / SQ2
        assert np.allclose(mat, expected, atol=1e-15)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            CoinParams(a=0.9, b=0.9)

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            CoinParams(a=1.0, b=0.0)
        with pytest.raises(ValueError):
            CoinParams(a=0.0, b=1.0)


class TestNonFinite:
    """Every validator accepts only finite values within tolerance."""

    def test_coin_params(self):
        with pytest.raises(ValueError):
            CoinParams(a=np.nan, b=np.nan)
        with pytest.raises(ValueError):
            CoinParams(a=complex(np.nan, 0.0), b=1.0)
        with pytest.raises(ValueError):
            CoinParams(a=SQ2 / 2, b=SQ2 / 2, theta=np.nan)
        with pytest.raises(ValueError):
            CoinParams(a=SQ2 / 2, b=SQ2 / 2, theta=np.inf)

    def test_spinor(self):
        for phi in ([np.nan, 0.0], [1.0, np.nan], [complex(0, np.nan), 1.0], [np.inf, 0]):
            with pytest.raises(ValueError):
                WalkState.from_spinor(phi)

    def test_initial_state_weights(self):
        phi = np.array([1.0, 0.0])
        with pytest.raises(ValueError):
            InitialState(((0, phi, np.nan),))
        with pytest.raises(ValueError):
            InitialState(((0, phi, 0.5), (1, phi, np.nan)))
        with pytest.raises(ValueError):
            InitialState(((0, [np.nan, 0.0], 1.0),))

    def test_position_distribution(self):
        with pytest.raises(ValueError):
            PositionDistribution(offset=0, probs=np.array([0.5, np.nan, 0.5]), n=1)
        with pytest.raises(ValueError):
            PositionDistribution(offset=0, probs=np.array([np.nan]), n=0)
        with pytest.raises(ValueError):
            PositionDistribution(offset=0, probs=np.array([np.inf, 0.0]), n=1)


class TestInitialState:
    def test_weight_validation(self):
        with pytest.raises(ValueError):
            InitialState(((0, np.array([1.0, 0.0]), 0.5),))
        with pytest.raises(ValueError):
            InitialState(((0, np.array([1.0, 1.0]), 1.0),))

    def test_abs_position_moment(self):
        phi = np.array([1.0, 0.0])
        init = InitialState(((3, phi, 0.25), (-1, phi, 0.75)))
        assert init.abs_position_moment() == pytest.approx(0.25 * 3 + 0.75)


class TestEvolution:
    def test_one_step_hand_values(self):
        st0 = WalkState.from_spinor([1, 0])
        st1 = evolve(hadamard_coin(), st0)
        assert st1.step_count == 1
        assert st1.offset == -1
        # site +1 carries 1/sqrt2 in component one, site -1 in component two
        amps = st1.amplitudes
        assert amps[0, 2] == pytest.approx(1 / SQ2, abs=1e-15)
        assert amps[1, 0] == pytest.approx(1 / SQ2, abs=1e-15)
        probs = st1.site_probabilities()
        assert probs[0] == pytest.approx(0.5, abs=1e-14)
        assert probs[2] == pytest.approx(0.5, abs=1e-14)

    def test_zero_steps_identity(self):
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), 0)
        assert d.prob_at(0) == pytest.approx(1.0, abs=1e-15)

    def test_two_step_hand_values(self):
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), 2)
        assert d.prob_at(-2) == pytest.approx(0.25, abs=1e-14)
        assert d.prob_at(0) == pytest.approx(0.5, abs=1e-14)
        assert d.prob_at(2) == pytest.approx(0.25, abs=1e-14)

    def test_unitarity_n100(self):
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), 100)
        assert abs(d.probs.sum() - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [512, 4096])
    def test_unitarity_drift(self, n):
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), n)
        assert abs(d.probs.sum() - 1.0) < 1e-11

    def test_light_cone_and_parity(self):
        n = 75
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), n)
        sites = d.sites()
        assert sites[0] == -n and sites[-1] == n
        odd = (n + sites) % 2 == 1
        assert np.all(d.probs[odd] == 0.0)

    def test_symmetric_state_symmetric_distribution(self):
        phi = np.array([1, 1j]) / SQ2
        d = distribution(hadamard_coin(), InitialState.pure(phi), 200)
        assert np.max(np.abs(d.probs - d.probs[::-1])) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(coin=coin_strategy, phi=spinors(), gamma=st.floats(0, 2 * np.pi))
    def test_gauge_invariance(self, coin, phi, gamma):
        n = 24
        d1 = distribution(coin, InitialState.pure(phi), n)
        d2 = distribution(coin, InitialState.pure(np.exp(1j * gamma) * phi), n)
        assert np.max(np.abs(d1.probs - d2.probs)) < 1e-14

    @settings(max_examples=15, deadline=None)
    @given(coin=coin_strategy, phi=spinors())
    def test_unitarity_random_coins(self, coin, phi):
        d = distribution(coin, InitialState.pure(phi), 60)
        assert abs(d.probs.sum() - 1.0) < 1e-12
        assert np.all(d.probs >= 0.0)

    def test_mixed_state_is_convex_combination(self):
        coin = hadamard_coin()
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        mixed = InitialState(((0, e1, 0.3), (2, e2, 0.7)))
        dm = distribution(coin, mixed, 40)
        d1 = distribution(coin, InitialState.pure(e1, site=0), 40)
        d2 = distribution(coin, InitialState.pure(e2, site=2), 40)
        for k in dm.sites():
            expected = 0.3 * d1.prob_at(k) + 0.7 * d2.prob_at(k)
            assert dm.prob_at(k) == pytest.approx(expected, abs=1e-15)

    def test_momentum_space_cross_check(self):
        # position-space kernel versus spectral reconstruction
        coin = hadamard_coin()
        init = InitialState.pure([1, 0])
        sg = spectral.decompose(spectral.coin_step_momentum_walk(coin), 2048)
        for n in (64, 512):
            d_pos = distribution(coin, init, n)
            d_mom = spectral.evolve_momentum(sg, init, n)
            assert np.max(np.abs(d_pos.probs - d_mom.probs)) < 1e-9

    def test_snapshots_match_single_runs(self):
        coin = hadamard_coin()
        init = InitialState.pure([1, 0])
        snaps = distribution_snapshots(coin, init, [5, 17, 40])
        for n in (5, 17, 40):
            single = distribution(coin, init, n)
            for k in single.sites():
                assert snaps[n].prob_at(k) == single.prob_at(k)

    def test_snapshots_have_their_own_light_cone(self):
        coin = hadamard_coin()
        init = InitialState(((-3, [1, 0], 0.5), (4, [0, 1], 0.5)))
        snaps = distribution_snapshots(coin, init, [5, 17, 40])
        for n in (5, 17, 40):
            single = distribution(coin, init, n)
            assert snaps[n].offset == single.offset == -3 - n
            assert len(snaps[n].probs) == len(single.probs) == 7 + 2 * n + 1
            assert np.array_equal(snaps[n].probs, single.probs)

    def test_kernel_buffer_guard(self):
        from qwlab import _step_numpy

        amps = np.zeros((2, 5), dtype=np.complex128)
        amps[0, 2] = 1.0
        with pytest.raises(ValueError):
            _step_numpy.evolve_steps(amps, hadamard_coin().matrix(), 3, 2, 2)


class TestEngineOracles:
    """The gauged sublattice engine against the ``evolve`` loop and momentum space."""

    @settings(max_examples=40, deadline=None)
    @given(coin=coin_strategy, init=mixtures(), n=st.integers(0, 200))
    def test_matches_evolve_loop_with_exact_parity_zeros(self, coin, init, n):
        d = distribution(coin, init, n)
        lo, ref = evolve_loop(coin, init, n)
        assert d.offset == lo and len(d.probs) == len(ref)
        assert np.max(np.abs(d.probs - ref)) <= 1e-13
        allowed = np.zeros(len(d.probs), dtype=bool)
        for site, _, _ in init.entries:
            allowed |= (d.sites() - site - n) % 2 == 0
        assert np.all(d.probs[~allowed] == 0.0)
        assert np.all(d.probs >= 0.0)

    @settings(max_examples=20, deadline=None)
    @given(phi=spinors(), n=st.integers(0, 200))
    def test_hadamard_mirror(self, phi, n):
        # sigma_z sigma_x phi = (phi_1, -phi_0) walks as phi reflected in 0
        coin = hadamard_coin()
        d = distribution(coin, InitialState.pure(phi), n)
        m = distribution(coin, InitialState.pure([phi[1], -phi[0]]), n)
        assert np.max(np.abs(m.probs - d.probs[::-1])) <= 1e-14

    def test_matches_evolve_momentum_generic_coin(self):
        init = InitialState(((0, [0.6, 0.8j], 0.4), (3, [0, 1], 0.6)))
        sg = spectral.decompose(spectral.coin_step_momentum_walk(GENERIC_COIN), 2048)
        d_pos = distribution(GENERIC_COIN, init, 512)
        d_mom = spectral.evolve_momentum(sg, init, 512)
        assert d_pos.offset == d_mom.offset
        assert np.max(np.abs(d_pos.probs - d_mom.probs)) <= 1e-13

    @pytest.mark.parametrize("coin", ORACLE_COINS)
    def test_closed_form_matches_step_loop(self, coin, monkeypatch):
        init = InitialState(((0, np.array([1, 1j]) / SQ2, 0.6), (3, [0.6, 0.8j], 0.4)))
        ns = (1, 2, 7, 128, 1024, 8192, 2**14)
        closed = distribution_snapshots(coin, init, ns)
        monkeypatch.setattr(_step_numpy, "evolve_steps", loop_evolve_steps)
        loop = distribution_snapshots(coin, init, ns)
        for n in ns:
            d, ref = closed[n], loop[n]
            assert d.offset == ref.offset and len(d.probs) == len(ref.probs)
            assert np.max(np.abs(d.probs - ref.probs)) <= 1e-14
            allowed = np.zeros(len(d.probs), dtype=bool)
            for site, _, _ in init.entries:
                allowed |= (d.sites() - site - n) % 2 == 0
            assert np.all(d.probs[~allowed] == 0.0)

    @pytest.mark.parametrize("coin", ORACLE_COINS)
    def test_no_norm_drift(self, coin):
        # the rounded |a|^2 + |b|^2 misses 1 by a few ulps; left in, that
        # defect would move the total by n times as much
        d = distribution(coin, InitialState.pure(np.array([1, 1j]) / SQ2), 2**14)
        assert abs(d.probs.sum() - 1.0) <= 1e-14


class TestStepCDF:
    def make_two_step(self):
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), 2)
        return rescaled_cdf(d)

    def test_jumps_and_cumulative(self):
        cdf = self.make_two_step()
        assert np.allclose(cdf.jump_points, [-1.0, 0.0, 1.0])
        assert np.allclose(cdf.cumulative, [0.25, 0.75, 1.0], atol=1e-14)

    def test_right_continuity_and_left_limits(self):
        unit = StepCDF([0.0], [1.0])
        assert unit.value_at(0.0) == 1.0
        assert unit.left_limit_at(0.0) == 0.0

    def test_evaluation_at_example_points(self):
        cdf = self.make_two_step()
        assert cdf.value_at(0.0) == pytest.approx(0.75, abs=1e-14)
        assert cdf.value_at(-1.5) == 0.0
        assert cdf.value_at(1.0) == 1.0
        assert cdf.value_at(2.0) == 1.0

    def test_rejects_unrescalable(self):
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), 0)
        with pytest.raises(ValueError):
            rescaled_cdf(d)

    def test_generic_coin_overshoot(self):
        # a distribution whose running sum passes 1 by roundoff a few sites
        # before the right edge, as rounded evolutions give; snapping only
        # the last value to 1 would leave the CDF decreasing there
        probs = np.zeros(13)
        probs[0:7:2] = [0.125, 0.25, 0.125, 0.5 + 2.0**-52]
        probs[8:13:2] = 1e-20
        d = PositionDistribution(offset=-6, probs=probs, n=6)
        assert np.cumsum(d.probs)[-1] != 1.0
        assert np.max(np.cumsum(d.probs)) > 1.0
        cdf = rescaled_cdf(d)
        assert np.all(np.diff(cdf.cumulative) >= 0.0)
        assert cdf.cumulative[-1] == 1.0
        assert np.max(np.abs(cdf.jump_masses() - d.probs[d.probs > 0])) < 1e-14

    def test_validation(self):
        with pytest.raises(ValueError):
            StepCDF([0.0, 0.0], [0.5, 1.0])
        with pytest.raises(ValueError):
            StepCDF([0.0, 1.0], [0.7, 0.5])
        with pytest.raises(ValueError):
            StepCDF([0.0], [0.9])
        with pytest.raises(ValueError):
            StepCDF([np.nan], [1.0])
        with pytest.raises(ValueError):
            StepCDF([0.0, 1.0], [np.nan, 1.0])
        with pytest.raises(ValueError):
            StepCDF([0.0, 1.0], [0.5, np.nan])


class TestDumps:
    def test_distribution_csv(self):
        d = distribution(hadamard_coin(), InitialState.pure([1, 0]), 2)
        csv = d.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "k,p"
        assert lines[1].startswith("-2,")
        assert len(lines) == 6

    def test_csv_reproducible(self):
        coin = hadamard_coin()
        init = InitialState.pure([1, 0])
        a = distribution(coin, init, 50).to_csv()
        b = distribution(coin, init, 50).to_csv()
        assert a == b

    def test_cdf_csv_header(self):
        csv = self.twostep_cdf().to_csv()
        assert csv.startswith("x,F\n")

    def twostep_cdf(self):
        return rescaled_cdf(distribution(hadamard_coin(), InitialState.pure([1, 0]), 2))
