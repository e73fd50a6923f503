import numpy as np
import pytest

import qwlab
from qwlab.wavefront import (
    OutOfSupportedRange,
    WavefrontApprox,
    WindowViolation,
    airy,
    approx_error_window,
    approx_pn,
    oscillatory_prefix_bound,
    oscillatory_sum,
    riemann_sum_quantity,
    wavefront_mass_lower,
    wavefront_mass_upper,
    weighted_oscillatory_sum,
)
from qwlab.walk import InitialState, distribution, distribution_snapshots, hadamard_coin

E1 = np.array([1.0, 0.0], dtype=complex)
SYM = np.array([1.0, 1j]) / np.sqrt(2)

mpmath = pytest.importorskip("mpmath")


def slope_of(ns, vals):
    x = np.log(np.asarray(ns, float))
    A = np.vstack([x, np.ones_like(x)]).T
    return float(np.linalg.lstsq(A, np.log(np.asarray(vals)), rcond=None)[0][0])


class TestAiry:
    def test_value_at_zero(self):
        assert airy(0.0) == pytest.approx(0.3550280538878172, abs=1e-15)

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 40
        xs = np.concatenate(
            [
                np.linspace(-20.0, 5.0, 501),
                np.linspace(-7.8, -7.2, 61),  # negative switch window
                np.linspace(5.2, 5.8, 61),  # positive switch window
            ]
        )
        vals = airy(xs)
        oracle = np.array([float(mpmath.airyai(mpmath.mpf(float(x)))) for x in xs])
        assert np.max(np.abs(vals - oracle)) < 1e-10

    def test_far_tail_decay(self):
        assert airy(10.0) < 1e-9

    def test_wide_range_finite(self):
        xs = np.linspace(-100.0, 20.0, 241)
        assert np.all(np.isfinite(airy(xs)))

    @pytest.mark.parametrize("x0", [-5.0, -1.0, 0.0, 1.0])
    def test_ode_residual(self, x0):
        h = 5e-4
        second = (airy(x0 + h) - 2 * airy(x0) + airy(x0 - h)) / h**2
        assert abs(second - x0 * airy(x0)) < 1e-6

    def test_out_of_range(self):
        with pytest.raises(OutOfSupportedRange):
            airy(-101.0)
        with pytest.raises(OutOfSupportedRange):
            airy(21.0)


class TestApproxPn:
    def test_alpha_hadamard(self):
        wa = WavefrontApprox(hadamard_coin(), SYM)
        assert wa.alpha == pytest.approx(2.0 ** (5.0 / 6.0), rel=1e-14)

    def test_parity_forbidden_zero(self):
        wa = WavefrontApprox(hadamard_coin(), E1)
        n = 4096
        front = int(np.floor(n * wa.coin.abs_a))
        # n + front is even here, so odd offsets are parity-forbidden
        assert (n + front) % 2 == 0
        assert approx_pn(wa, n, 1, -1) == 0.0
        assert approx_pn(wa, n, -1, -1) == 0.0
        assert approx_pn(wa, n, 0, -1) > 0.0

    def test_window_violation(self):
        wa = WavefrontApprox(hadamard_coin(), E1)
        with pytest.raises(WindowViolation):
            approx_pn(wa, 512, 100, -1)
        with pytest.raises(ValueError):
            approx_pn(wa, 512, 0, 2)

    def test_symmetric_front_value(self):
        # weight (1 +- |a| lambda) collapses to 1 for the symmetric state;
        # at d=0 the value is 2 alpha^2 n^{-2/3} Ai(arg)^2 with the
        # fractional front offset absorbed into the Airy argument
        wa = WavefrontApprox(hadamard_coin(), SYM)
        n = 4096
        abs_a = wa.coin.abs_a
        front = int(np.floor(n * abs_a))
        if (n + front) % 2:
            pytest.skip("parity-forbidden front for this n")
        # site -front lies (n|a| - front) inside the cone: negative argument
        expected = (
            2
            * wa.alpha**2
            * n ** (-2 / 3)
            * airy(wa.alpha * n ** (-1 / 3) * (front - n * abs_a)) ** 2
        )
        assert approx_pn(wa, n, 0, -1) == pytest.approx(expected, rel=1e-12)
        coarse = 2 * wa.alpha**2 * n ** (-2 / 3) * airy(0.0) ** 2
        assert approx_pn(wa, n, 0, -1) == pytest.approx(coarse, rel=0.15)

    def test_matches_exact_distribution(self):
        coin = hadamard_coin()
        n = 2048
        dist = distribution(coin, InitialState.pure(E1), n)
        wa = WavefrontApprox(coin, E1)
        err = max(
            approx_error_window(wa, dist, -1), approx_error_window(wa, dist, +1)
        )
        # leading order must capture the front to a few parts in 1e4
        assert err < 5e-4

    def test_error_decay_exponent(self):
        coin = hadamard_coin()
        wa = WavefrontApprox(coin, E1)
        ns = [2**k for k in range(8, 12)]
        snaps = distribution_snapshots(coin, InitialState.pure(E1), ns)
        errs = [
            max(approx_error_window(wa, snaps[n], -1), approx_error_window(wa, snaps[n], +1))
            for n in ns
        ]
        assert slope_of(ns, errs) <= -0.85


@pytest.fixture(scope="module")
def snaps():
    return distribution_snapshots(
        hadamard_coin(), InitialState.pure(E1), [2**k for k in range(7, 12)]
    )


class TestWavefrontMass:
    def test_lower_positive_band(self, snaps):
        coin = hadamard_coin()
        vals = [wavefront_mass_lower(d, coin) for d in snaps.values()]
        assert min(vals) > 0
        assert max(vals) / min(vals) < 10

    def test_upper_bounded_and_monotone_in_threshold(self, snaps):
        coin = hadamard_coin()
        for d in snaps.values():
            lo = wavefront_mass_lower(d, coin)
            hi = wavefront_mass_upper(d, coin)
            assert hi >= lo
            assert hi < 25.0

    def test_right_side_variants(self, snaps):
        coin = hadamard_coin()
        d = snaps[2**11]
        assert wavefront_mass_lower(d, coin, side="right") > 0
        assert wavefront_mass_upper(d, coin, side="right") >= wavefront_mass_lower(
            d, coin, side="right"
        )
        with pytest.raises(ValueError):
            wavefront_mass_lower(d, coin, side="middle")


LIN = lambda x: x
QUADP = lambda x: x + 0.3 * x * x


class TestOscillatorySums:
    def test_trivial_term_bound(self):
        n = 4096
        count = int(np.floor(0.1 * n)) - int(np.floor(n ** (1 / 3))) + 1
        assert abs(oscillatory_sum(n, LIN, 0.1)) <= count

    @pytest.mark.parametrize("phase", [LIN, QUADP])
    def test_cancellation_growth_exponent(self, phase):
        ns = [2**k for k in range(12, 19)]
        vals = [max(abs(oscillatory_sum(n, phase, 0.1)), 1e-12) for n in ns]
        assert slope_of(ns, vals) <= 0.55

    @pytest.mark.parametrize("phase", [LIN, QUADP])
    def test_riemann_quantity_decay(self, phase):
        ns = [2**k for k in range(12, 19)]
        vals = [abs(riemann_sum_quantity(n, phase)) for n in ns]
        assert slope_of(ns, vals) <= -0.25
        assert np.all(np.isfinite(vals))

    def test_riemann_magnitude_decreases_across_range(self):
        assert abs(riemann_sum_quantity(2**18)) < abs(riemann_sum_quantity(2**12))

    def test_weighted_telescoping_inequality(self):
        # summation by parts with the measured prefix constant
        for n in (2**13, 2**15):
            r, s_n = 0.1, int(np.floor(n ** (2 / 3)))
            f = lambda x: x**-0.5
            lhs = abs(weighted_oscillatory_sum(n, LIN, f, r, s_n))
            c = oscillatory_prefix_bound(n, LIN, r, s_n)
            rhs = c * np.sqrt(n) * (2 * f((np.floor(r * n) + 1) / n) + f(s_n / n))
            assert lhs <= rhs + 1e-9
