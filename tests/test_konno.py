import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qwlab
from qwlab import konno
from qwlab.konno import KonnoCDF, MixtureCDF, lambda_c, limit_cdf
from qwlab.walk import CoinParams, InitialState, hadamard_coin

SQ2 = np.sqrt(2.0)
E1 = np.array([1.0, 0.0], dtype=complex)
SYM = np.array([1.0, 1j]) / SQ2
# a spinor with a nonzero cross term in lambda for both coins below
GENERIC = np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.9j)])

# an asymmetric non-Hadamard coin used across edge tests
OTHER_COIN = CoinParams(
    a=(np.sqrt(3) / 2) * np.exp(0.3j), b=0.5 * np.exp(-0.7j), theta=0.4
)


@st.composite
def coins(draw):
    tau = draw(st.floats(0.2, np.pi / 2 - 0.2))
    return CoinParams(
        a=np.cos(tau) * np.exp(1j * draw(st.floats(0, 2 * np.pi))),
        b=np.sin(tau) * np.exp(1j * draw(st.floats(0, 2 * np.pi))),
        theta=draw(st.floats(0, 2 * np.pi)),
    )


@st.composite
def spinors(draw):
    t = draw(st.floats(0.0, np.pi / 2))
    chi = draw(st.floats(0.0, 2 * np.pi))
    return np.array([np.cos(t), np.sin(t) * np.exp(1j * chi)])


class TestLambda:
    def test_hand_values(self):
        coin = hadamard_coin()
        # orientation: positive lambda leans the law toward +infinity, the
        # direction the first spinor component travels
        assert lambda_c(coin, E1) == pytest.approx(1.0, abs=1e-14)
        assert lambda_c(coin, SYM) == pytest.approx(0.0, abs=1e-14)
        assert lambda_c(coin, [0, 1]) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize(
        "phi",
        [E1, np.array([1.0, 1.0]) / SQ2, GENERIC],
        ids=["e1", "diag", "generic"],
    )
    def test_matches_walk_drift(self, phi):
        # the sign convention is pinned by the dynamics: phi = (1, 0) drifts
        # toward +infinity under shift(right) o coin, and the cross term of
        # lambda moves the mean of the other two spinors the same way
        coin = hadamard_coin()
        d = qwlab.distribution(coin, InitialState.pure(phi), 400)
        mean = float(np.sum(d.sites() * d.probs)) / 400
        kc = KonnoCDF(coin, phi)
        limit_mean = quad(
            lambda x: x * kc.density(x), -kc.abs_a, kc.abs_a, points=[0.0], limit=200
        )[0]
        assert mean == pytest.approx(limit_mean, abs=2e-3)
        assert lambda_c(coin, phi) > 0 and limit_mean > 0

    @settings(max_examples=40, deadline=None)
    @given(coin=coins(), phi=spinors())
    def test_bounded_by_inverse_abs_a(self, coin, phi):
        lam = lambda_c(coin, phi)
        assert abs(lam) <= 1.0 / coin.abs_a + 1e-12


class TestDensity:
    def test_center_values(self):
        kc_sym = KonnoCDF(hadamard_coin(), SYM)
        assert kc_sym.density(0.0) == pytest.approx(1.0 / np.pi, abs=1e-14)
        kc = KonnoCDF(hadamard_coin(), E1)
        assert kc.density(0.0) == pytest.approx(1.0 / np.pi, abs=1e-14)

    def test_outside_support(self):
        kc = KonnoCDF(hadamard_coin(), E1)
        assert kc.density(kc.abs_a + 0.1) == 0.0
        assert kc.density(-2.0) == 0.0

    def test_normalization_qaws_oracle(self):
        # independent check with an algebraic-endpoint-weighted quadrature
        for coin, phi in [(hadamard_coin(), E1), (OTHER_COIN, SYM)]:
            kc = KonnoCDF(coin, phi)
            a = kc.abs_a

            def smooth_part(x):
                return kc.abs_b * (1 + kc.lambda_c * x) / (np.pi * (1 - x * x))

            val, err = quad(smooth_part, -a, a, weight="alg", wvar=(-0.5, -0.5))
            assert val == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(coin=coins(), phi=spinors())
    def test_nonnegative(self, coin, phi):
        kc = KonnoCDF(coin, phi)
        xs = np.linspace(-kc.abs_a + 1e-12, kc.abs_a - 1e-12, 501)
        assert np.all(kc.density(xs) >= 0.0)


class TestCDF:
    def test_support_clamping(self):
        kc = KonnoCDF(hadamard_coin(), E1)
        assert kc.cdf(-kc.abs_a - 0.01) == 0.0
        assert kc.cdf(kc.abs_a) == 1.0
        assert kc.cdf(5.0) == 1.0

    def test_symmetric_half(self):
        kc = KonnoCDF(hadamard_coin(), SYM)
        assert kc.cdf(0.0) == pytest.approx(0.5, abs=1e-10)

    def test_cache_matches_direct_quadrature(self):
        # the closed-form CDF against adaptive quadrature of the density
        for coin, phi in [
            (hadamard_coin(), E1),
            (hadamard_coin(), GENERIC),
            (OTHER_COIN, E1),
            (OTHER_COIN, GENERIC),
        ]:
            kc = KonnoCDF(coin, phi)
            a = kc.abs_a
            for x in (-0.70, -0.5, -0.1, 0.33, 0.699, 0.707, -a + 1e-9, a - 1e-9):
                assert kc.cdf(x) == pytest.approx(kc.cdf_exact(x), abs=1e-9)

    def test_monotone(self):
        kc = KonnoCDF(OTHER_COIN, E1)
        xs = np.linspace(-1, 1, 4001)
        assert np.all(np.diff(kc.cdf(xs)) >= -1e-14)

    def test_derivative_consistency(self):
        kc = KonnoCDF(hadamard_coin(), E1)
        a = kc.abs_a
        xs = np.linspace(-a + 0.05, a - 0.05, 100)
        h = 1e-5
        deriv = (kc.cdf(xs + h) - kc.cdf(xs - h)) / (2 * h)
        assert np.max(np.abs(deriv - kc.density(xs))) < 1e-5

    def test_construction_rejects_bad_lambda(self, monkeypatch):
        # impossible for unit spinors, but buggy inputs must be caught
        monkeypatch.setattr(konno, "lambda_c", lambda coin, phi: 2.5)
        with pytest.raises(ValueError):
            KonnoCDF(hadamard_coin(), E1)


class TestEdge:
    def test_symmetric_coefficient_value(self):
        # |b| / (pi (1-|a|^2) sqrt(2|a|)) at |a|=|b|=2^{-1/2} is 2^{1/4}/pi
        kc = KonnoCDF(hadamard_coin(), SYM)
        expected = 2.0**0.25 / np.pi
        assert kc.edge_coefficient("left") == pytest.approx(expected, rel=1e-14)
        assert kc.edge_coefficient("right") == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize(
        "coin,phi",
        [
            (hadamard_coin(), E1),
            (hadamard_coin(), SYM),
            (OTHER_COIN, np.array([0.6, 0.8j])),
        ],
    )
    def test_coefficient_against_density(self, coin, phi):
        kc = KonnoCDF(coin, phi)
        for side, x0 in (("left", -kc.abs_a), ("right", kc.abs_a)):
            coef = kc.edge_coefficient(side)
            for eps, rtol in ((1e-6, 1e-2), (1e-8, 1e-3)):
                x = x0 + eps if side == "left" else x0 - eps
                est = kc.density(x) * np.sqrt(eps)
                assert est == pytest.approx(coef, rel=rtol)

    def test_extremal_lambda_kills_left_edge(self):
        # the spinor maximizing lambda reaches 1/|a| and the density then
        # vanishes at the left edge
        coin = hadamard_coin()
        t = 0.5 * np.arctan2(coin.abs_b / coin.abs_a, -1.0)
        chi = np.pi - np.angle(np.conj(coin.a) * coin.b)
        phi = np.array([np.cos(t), np.sin(t) * np.exp(1j * chi)])
        lam = lambda_c(coin, phi)
        assert abs(lam) == pytest.approx(1.0 / coin.abs_a, abs=1e-12)
        kc = KonnoCDF(coin, phi if lam > 0 else np.array([phi[1], -phi[0]]).conj())
        assert kc.lambda_c == pytest.approx(1.0 / coin.abs_a, abs=1e-12)
        assert kc.edge_coefficient("left") == pytest.approx(0.0, abs=1e-12)

    def test_edge_cdf_scaling_slope(self):
        kc = KonnoCDF(hadamard_coin(), E1)
        ns = [2**k for k in range(8, 21, 2)]
        vals = [kc.edge_cdf_scaling(n) for n in ns]
        x = np.log(ns)
        A = np.vstack([x, np.ones_like(x)]).T
        slope = np.linalg.lstsq(A, np.log(vals), rcond=None)[0][0]
        assert -0.38 <= slope <= -0.29

    def test_edge_cdf_scaling_octave_ratio(self):
        kc = KonnoCDF(hadamard_coin(), E1)
        ratio = kc.edge_cdf_scaling(2**13) / kc.edge_cdf_scaling(2**10)
        assert ratio == pytest.approx(0.5, rel=0.2)

    def test_edge_cdf_scaling_validation(self):
        kc = KonnoCDF(hadamard_coin(), E1)
        with pytest.raises(ValueError):
            kc.edge_cdf_scaling(1)
        with pytest.raises(ValueError):
            kc.edge_cdf_scaling(16, -0.1)


class TestMixture:
    def test_limit_cdf_mixture(self):
        coin = hadamard_coin()
        init = InitialState(((0, E1, 0.5), (4, np.array([0.0, 1.0], complex), 0.5)))
        F = limit_cdf(coin, init)
        assert isinstance(F, MixtureCDF)
        k1 = KonnoCDF(coin, E1)
        k2 = KonnoCDF(coin, np.array([0.0, 1.0], complex))
        xs = np.linspace(-1, 1, 101)
        assert np.allclose(F(xs), 0.5 * k1.cdf(xs) + 0.5 * k2.cdf(xs), atol=1e-14)

    def test_limit_cdf_pure_passthrough(self):
        F = limit_cdf(hadamard_coin(), InitialState.pure(E1))
        assert isinstance(F, KonnoCDF)


class TestDump:
    def test_table_csv(self):
        kc = KonnoCDF(hadamard_coin(), E1)
        csv = kc.table_csv(np.linspace(-1, 1, 5))
        lines = csv.strip().split("\n")
        assert lines[0] == "x,sigma,F"
        assert len(lines) == 6
        assert lines[-1].endswith(",1")

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_table_matches_per_scalar_formatting(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=4)
        phi = np.array([complex(z[0], z[1]), complex(z[2], z[3])])
        coin = hadamard_coin() if seed < 3 else CoinParams(0.6 * np.exp(0.2j), 0.8j, 0.5)
        kc = KonnoCDF(coin, phi / np.linalg.norm(phi))
        xs = np.linspace(-1.0, 1.0, 4001)
        lines = ["x,sigma,F"]
        for x in xs:
            lines.append(f"{x:.17g},{kc.density(x):.17g},{kc.cdf(x):.17g}")
        assert kc.table_csv(xs) == "\n".join(lines) + "\n"
