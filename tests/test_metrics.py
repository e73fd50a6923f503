import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qwlab
from qwlab import harness, konno, metrics, spectral
from qwlab.metrics import (
    ContinuousPairWithoutGrid,
    PreconditionViolation,
    SmoothingFamily,
    ZolotarevWeights,
    convolve,
    default_weights,
    kolmogorov,
    levy,
    smooth_region_transfer,
    zolotarev_bound,
)
from qwlab.walk import (
    CoinParams,
    InitialState,
    StepCDF,
    distribution,
    distribution_snapshots,
    hadamard_coin,
    rescaled_cdf,
)

E1 = np.array([1.0, 0.0], dtype=complex)


@st.composite
def step_cdfs(draw):
    k = draw(st.integers(1, 6))
    xs = sorted(draw(st.lists(st.floats(-1, 1), min_size=k, max_size=k, unique=True)))
    ws = draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k))
    cum = np.cumsum(ws)
    cum /= cum[-1]
    cum[-1] = 1.0
    return StepCDF(np.array(xs), cum)


def brute_force_levy(F, G, res=1e-6):
    """Feasibility scan over an epsilon grid (slow oracle for step pairs).

    Scans coarsely first and rescans the bracketing window at ``res``; the
    result is the same as a full linear scan because feasibility is
    monotone in epsilon (checked by the rescan touching the boundary).
    """
    xs = np.unique(np.concatenate([F.jump_points, G.jump_points]))
    xs = np.concatenate([xs, xs - 1e-12])
    gv = G.value_at(xs)

    def feasible(eps):
        lo = F.value_at(xs - eps) - eps <= gv + 1e-12
        hi = gv <= F.value_at(xs + eps) + eps + 1e-12
        return np.all(lo) and np.all(hi)

    coarse = 1e-3
    hit = 1.0
    for eps in np.arange(0.0, 1.0 + coarse, coarse):
        if feasible(eps):
            hit = eps
            break
    for eps in np.arange(max(0.0, hit - coarse), hit + res, res):
        if feasible(eps):
            return eps
    return hit


class TestKolmogorov:
    def test_identical(self):
        F = StepCDF([0.0, 1.0], [0.4, 1.0])
        assert kolmogorov(F, F) == 0.0

    def test_disjoint_unit_steps(self):
        assert kolmogorov(StepCDF([0.0], [1.0]), StepCDF([0.7], [1.0])) == 1.0

    def test_against_dense_grid_oracle(self):
        coin = hadamard_coin()
        kc = konno.KonnoCDF(coin, E1)
        F = rescaled_cdf(distribution(coin, InitialState.pure(E1), 2))
        val = kolmogorov(F, kc)
        xs = np.unique(
            np.concatenate(
                [
                    np.linspace(-1.2, 1.2, 10**6),
                    F.jump_points,
                    np.nextafter(F.jump_points, -np.inf),
                ]
            )
        )
        brute = np.max(np.abs(F.value_at(xs) - kc.cdf(xs)))
        assert val == pytest.approx(brute, abs=1e-9)

    def test_continuous_pair_needs_grid(self):
        kc = konno.KonnoCDF(hadamard_coin(), E1)
        with pytest.raises(ContinuousPairWithoutGrid):
            kolmogorov(kc, kc)
        assert kolmogorov(kc, kc, grid=np.linspace(-1, 1, 11)) == 0.0

    def test_interval_restriction(self):
        F = StepCDF([-0.5, 0.5], [0.5, 1.0])
        G = StepCDF([0.0], [1.0])
        full = kolmogorov(F, G)
        inner = kolmogorov(F, G, interval=(0.1, 0.4))
        assert inner <= full
        assert inner == 0.5  # F=0.5 vs G=1 on (0.1, 0.4)


class TestLevy:
    def test_identical(self):
        F = StepCDF([0.0, 0.3], [0.6, 1.0])
        assert levy(F, F) == 0.0

    @pytest.mark.parametrize("d", [0.1, 0.5, 0.9])
    def test_unit_steps_at_distance(self, d):
        F = StepCDF([0.0], [1.0])
        G = StepCDF([d], [1.0])
        val = levy(F, G, tol=1e-9)
        assert val == pytest.approx(d, abs=1e-6)
        assert val == pytest.approx(brute_force_levy(F, G), abs=2e-6)

    def test_dominated_by_kolmogorov_walk_pair(self):
        coin = hadamard_coin()
        kc = konno.KonnoCDF(coin, E1)
        for n in (16, 128):
            F = rescaled_cdf(distribution(coin, InitialState.pure(E1), n))
            assert levy(F, kc) <= kolmogorov(F, kc) + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(F=step_cdfs(), G=step_cdfs())
    def test_metric_axioms_random_pairs(self, F, G):
        tol = 1e-7
        lfg = levy(F, G, tol=tol)
        lgf = levy(G, F, tol=tol)
        assert abs(lfg - lgf) <= 3 * tol
        assert lfg <= kolmogorov(F, G) + 3 * tol
        assert levy(F, F, tol=tol) <= tol

    @settings(max_examples=10, deadline=None)
    @given(F=step_cdfs(), G=step_cdfs(), H=step_cdfs())
    def test_triangle_inequality(self, F, G, H):
        tol = 1e-7
        assert levy(F, G, tol=tol) <= levy(F, H, tol=tol) + levy(H, G, tol=tol) + 3 * tol

    @settings(max_examples=8, deadline=None)
    @given(F=step_cdfs(), G=step_cdfs())
    def test_against_brute_force(self, F, G):
        assert levy(F, G, tol=1e-8) == pytest.approx(
            brute_force_levy(F, G), abs=5e-6
        )


class TestSmoothingFamily:
    def test_support_endpoints(self):
        fam = SmoothingFamily(eps=0.8, order=3)
        assert fam.cdf(-0.4) == 0.0
        assert fam.cdf(0.4) == 1.0
        assert fam.cdf(-0.41) == 0.0
        assert fam.cdf(0.41) == 1.0

    def test_symmetry_at_zero(self):
        for order in (1, 2, 3, 4):
            fam = SmoothingFamily(eps=1.0, order=order)
            assert fam.cdf(0.0) == pytest.approx(0.5, abs=1e-13)

    def test_order_one_hand_value(self):
        fam = SmoothingFamily(eps=2.0, order=1)
        assert fam.cdf(0.5) == pytest.approx(0.875, abs=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_cdf_against_density_quadrature(self, order):
        # differentiate the cdf numerically and integrate back
        fam = SmoothingFamily(eps=1.0, order=order)
        for x in (-0.3, -0.1, 0.2, 0.45):
            val, _ = quad(
                lambda t: (fam.cdf(t + 5e-7) - fam.cdf(t - 5e-7)) / 1e-6,
                -0.55,
                x,
                limit=300,
            )
            assert val == pytest.approx(fam.cdf(x), abs=1e-7)

    def test_order_one_against_exact_quadrature(self):
        fam = SmoothingFamily(eps=2.0, order=1)
        dens = lambda t: (1.0 - abs(t)) if abs(t) < 1 else 0.0
        val, _ = quad(dens, -1.0, 0.5)
        assert fam.cdf(0.5) == pytest.approx(val, abs=1e-12)

    def test_char_fn_values(self):
        fam = SmoothingFamily(eps=1.0, order=3)
        assert fam.char_fn(0.0) == 1.0
        assert abs(fam.char_fn(6 * np.pi)) < 1e-15
        lams = np.linspace(-300, 300, 999)
        assert np.max(np.abs(fam.char_fn(lams))) <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SmoothingFamily(eps=0.0)
        with pytest.raises(ValueError):
            SmoothingFamily(eps=1.0, order=0)


class TestConvolve:
    def test_point_mass_identity(self):
        fam = SmoothingFamily(eps=1.0, order=3)
        conv = convolve(StepCDF([0.0], [1.0]), fam)
        xs = np.linspace(-0.7, 0.7, 101)
        assert np.max(np.abs(conv(xs) - fam.cdf(xs))) == 0.0

    def test_two_point_value(self):
        fam = SmoothingFamily(eps=1.0, order=3)
        conv = convolve(StepCDF([0.0, 1.0], [0.5, 1.0]), fam)
        assert conv(0.0) == pytest.approx(0.25, abs=1e-14)

    def test_limits(self):
        fam = SmoothingFamily(eps=0.5, order=2)
        conv = convolve(StepCDF([-1.0, 2.0], [0.3, 1.0]), fam)
        assert conv(conv.support[0] - 0.1) == 0.0
        assert conv(conv.support[1] + 0.1) == 1.0
        xs = np.linspace(-2, 3, 501)
        assert np.all(np.diff(conv(xs)) >= -1e-15)

    def test_rejects_continuous(self):
        kc = konno.KonnoCDF(hadamard_coin(), E1)
        with pytest.raises(TypeError):
            convolve(kc, SmoothingFamily(1.0))


def _dense_convolved(conv, xs):
    """sum_i dF_i Theta(x - x_i) over every jump: the (points x jumps) sum."""
    xs = np.asarray(xs, dtype=float)
    return conv._fam.cdf(xs[:, None] - conv._jumps[None, :]) @ conv._masses


class TestWindowedConvolution:
    @pytest.mark.parametrize("eps", [64 ** (-1.0 / 3.0), 0.01])
    @pytest.mark.parametrize(
        "coin, phi",
        [(hadamard_coin(), E1), (CoinParams(np.sqrt(0.3) * np.exp(0.7j), np.sqrt(0.7), 0.4),
                                 np.array([0.6, 0.8j]))],
        ids=["hadamard-e1", "generic"],
    )
    def test_matches_dense_sum(self, coin, phi, eps):
        F = rescaled_cdf(distribution(coin, InitialState.pure(phi), 64))
        conv = convolve(F, SmoothingFamily(eps))
        jumps = F.jump_points
        xs = np.concatenate([
            jumps, jumps - eps / 2, jumps + eps / 2, np.linspace(-1.5, 1.5, 401),
            [-np.inf, np.inf, -3.0, 3.0],
        ])
        assert np.max(np.abs(conv(xs) - _dense_convolved(conv, xs))) < 1e-12
        assert conv(-np.inf) == 0.0 and conv(np.inf) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("block", [2**20, 7])
    def test_window_sums(self, monkeypatch, block):
        # blocks of 7 pairs split the points; the sums must not depend on it
        monkeypatch.setattr(metrics, "_PAIRS_PER_BLOCK", block)
        rng = np.random.default_rng(5)
        start = rng.integers(0, 20, size=50)
        stop = start + rng.integers(0, 12, size=50)
        values = rng.uniform(size=40)
        expected = [values[a:b].sum() for a, b in zip(start, stop)]
        sums = metrics.window_sums(start, stop, lambda i, k: values[k])
        assert np.allclose(sums, expected, rtol=0, atol=1e-15)


def _nan_evaluators():
    F = rescaled_cdf(distribution(hadamard_coin(), InitialState.pure(E1), 16))
    fam = SmoothingFamily(0.1)
    kc = konno.KonnoCDF(hadamard_coin(), E1)
    sg = spectral.derivatives(
        spectral.decompose(spectral.coin_step_momentum_walk(hadamard_coin()), 2**10)
    )
    return {
        "SmoothingFamily.cdf": fam.cdf,
        "ConvolvedCDF": convolve(F, fam),
        "StepCDF.value_at": F.value_at,
        "StepCDF.left_limit_at": F.left_limit_at,
        "KonnoCDF.density": kc.density,
        "KonnoCDF.cdf": kc.cdf,
        "VelocityCDF": spectral.velocity_cdf(sg, InitialState.pure(E1)),
    }


_NAN_EVALUATORS = _nan_evaluators()


@pytest.mark.parametrize("name", sorted(_NAN_EVALUATORS))
def test_nan_in_nan_out(name):
    f = _NAN_EVALUATORS[name]
    assert np.isnan(f(np.nan))
    out = np.asarray(f(np.array([np.nan, 0.1, np.nan])))
    assert np.isnan(out[[0, 2]]).all()
    assert np.isfinite(out[1])


class TestSmoothingLemma:
    @settings(max_examples=10, deadline=None)
    @given(F=step_cdfs(), G=step_cdfs(), eps=st.sampled_from([0.1, 0.01]))
    def test_levy_contraction_band(self, F, G, eps):
        fam = SmoothingFamily(eps=eps, order=3)
        tol = 1e-6
        l_raw = levy(F, G, tol=tol)
        l_smooth = levy(convolve(F, fam), convolve(G, fam), tol=tol)
        gap = l_raw - l_smooth
        assert gap >= -3 * tol
        assert gap <= eps + 3 * tol


def _zolotarev_constant() -> float:
    """C = int_0^inf |theta_hat(lam) / (psi_1(lam) lam)| dlam for order 3.

    With the order-3 sinc weight, the integrand is |sinc(lam/6)|^3 on (0, 1]
    and lam |sinc(lam/6)|^3 beyond.  The tail decays like 1/lam^2 only, so
    it is summed per half-period of the sine up to 1e5*pi and closed with
    the mean-value tail (4/3pi) * 36 / U; absolute accuracy ~1e-10.
    """
    nodes, weights = np.polynomial.legendre.leggauss(20)

    def sinc3(u):
        return np.abs(np.sin(u) / u) ** 3

    # int_0^1 |sinc(lam/6)|^3 dlam
    mid = 0.5 * (nodes + 1.0)
    head = float(np.sum(0.5 * weights * sinc3(np.where(mid == 0, 1e-300, mid) / 6.0)))

    # int_1^inf lam |sinc(lam/6)|^3 dlam = 36 int_{1/6}^inf |sin u|^3 / u^2 du
    kmax = 100_000
    edges = np.concatenate(([1.0 / 6.0], np.arange(1, kmax + 1) * np.pi))
    a, b = edges[:-1], edges[1:]
    u = 0.5 * (b + a)[:, None] + 0.5 * (b - a)[:, None] * nodes[None, :]
    integrand = np.abs(np.sin(u)) ** 3 / (u * u)
    body = float(np.sum((0.5 * (b - a))[:, None] * weights[None, :] * integrand))
    tail = 4.0 / (3.0 * np.pi * edges[-1])
    return head + 36.0 * (body + tail)


class TestZolotarevBound:
    def test_constant_is_the_quadrature(self):
        # the literal is bit for bit the quadrature it replaced
        assert default_weights().constant_c == _zolotarev_constant()

    def test_constant_value_frozen(self):
        # independently verified with a 30-digit arbitrary-precision
        # evaluation of the defining integral
        assert default_weights().constant_c == pytest.approx(
            36.4988453737618, abs=1e-9
        )

    def test_identical_char_fns(self):
        zw = default_weights()
        f = lambda lams: np.ones_like(lams, dtype=complex)
        assert zolotarev_bound(f, f, 0.25, zw, radius=1.0) == pytest.approx(
            0.25 + zw.constant_c / 0.25**2 * 2.0 / 600.0**2
        )

    def test_eps_validation(self):
        zw = default_weights()
        f = lambda lams: np.ones_like(lams, dtype=complex)
        for bad in (0.0, -1.0, 1.5):
            with pytest.raises(ValueError):
                zolotarev_bound(f, f, bad, zw, radius=1.0)

    def test_dominates_levy_for_walk(self):
        coin = hadamard_coin()
        init = InitialState.pure(E1)
        n = 256
        dist = distribution(coin, init, n)
        kc = konno.KonnoCDF(coin, E1)
        sg = spectral.derivatives(
            spectral.decompose(spectral.coin_step_momentum_walk(coin), 2**13)
        )
        bound = zolotarev_bound(
            lambda lams: spectral.char_fn_finite(dist, lams),
            lambda lams: spectral.char_fn_limit(sg, init, lams),
            n ** (-1.0 / 3.0),
            default_weights(),
            radius=1.0,
        )
        lev = levy(rescaled_cdf(dist), kc)
        assert lev <= bound


# The bound as sampled directly: both characteristic functions on 1e4 log
# points of [1e-4, 1] and 2e3 of (1, 1e5], capped beyond 600.
_DIRECT_SMALL = np.logspace(-4, 0, 10_000)
_DIRECT_LARGE = np.logspace(0, 5, 2_001)[1:]


def _direct_sup_large(char_f, char_g, lams):
    d = np.abs(char_f(lams) - char_g(lams))
    return max(float(np.max(d / lams**2)), 2.0 / 600.0**2)


def direct_zolotarev_bound(char_f, char_g, eps, zw):
    d = np.abs(char_f(_DIRECT_SMALL) - char_g(_DIRECT_SMALL))
    sup_small = float(np.max(d / _DIRECT_SMALL))
    sup_large = _direct_sup_large(char_f, char_g, _DIRECT_LARGE)
    return eps + zw.constant_c / eps**2 * max(sup_small, sup_large)


_GENERIC_COIN = CoinParams(np.sqrt(0.3) * np.exp(0.7j), np.sqrt(0.7) * np.exp(-1.1j), 0.4)
_GENERIC_PHI = np.array([np.cos(0.4), np.sin(0.4) * np.exp(0.9j)])


@pytest.fixture(scope="module", params=["hadamard", "generic"])
def oracle_grid(request):
    coin = hadamard_coin() if request.param == "hadamard" else _GENERIC_COIN
    walk = spectral.coin_step_momentum_walk(coin)
    return coin, spectral.derivatives(spectral.decompose(walk, 2**12))


class TestInterpolatedZolotarevBound:
    @pytest.mark.parametrize("phi", [E1, _GENERIC_PHI], ids=["e1", "generic"])
    def test_matches_direct_sampling(self, oracle_grid, phi):
        coin, sg = oracle_grid
        init = InitialState.pure(phi)
        zw = default_weights()
        limit = harness._cached_vector(lambda lams: spectral.char_fn_limit(sg, init, lams))
        for n, dist in distribution_snapshots(coin, init, [128, 1024, 8192]).items():
            finite = lambda lams: spectral.char_fn_finite(dist, lams)
            eps = n ** (-1.0 / 3.0)
            new = zolotarev_bound(finite, limit, eps, zw, radius=1.0)
            direct = direct_zolotarev_bound(finite, limit, eps, zw)
            assert 0.0 <= new / direct - 1.0 <= 1e-7, n

    @pytest.mark.parametrize("x", [-1.0, 0.37, 1.0, 4.0])
    def test_error_term_covers_interpolation_error(self, x):
        # delta = e^{i lam x} - 1 = 2i sin(lam x / 2) e^{i lam x / 2}, free of
        # cancellation, so the data are exact to rounding; x = 4 needs more
        # nodes on (1, 600] than the 1,111 grid points there
        radius = max(1.0, abs(x))
        delta = lambda lams: 2j * np.sin(lams * x / 2) * np.exp(0.5j * lams * x)
        for grid, fn, scale in (
            (metrics._SMALL_GRID, lambda lams: delta(lams) / lams, radius),
            (metrics._LARGE_GRID, delta, 1.0),
        ):
            values, err = metrics._interpolate(fn, grid, radius, scale)
            actual = float(np.max(np.abs(values - fn(grid))))
            assert actual <= err < 1e-10

    def test_weights_fit_the_rounded_nodes(self):
        # the weights are those of the nodes as stored: normalised, they
        # match the Chebyshev +-1, +-1/2 to rounding and reproduce a cubic
        for lo, hi, count in ((1e-4, 1.0, 13), (1.0, 600.0, 378), (1.0, 600.0, 1500)):
            nodes, weights = metrics._chebyshev_table(lo, hi, count)
            assert nodes[0] == lo and nodes[-1] == hi and np.all(np.diff(nodes) > 0)
            ideal = (-1.0) ** np.arange(count)
            ideal[[0, -1]] *= 0.5
            scaled = weights / weights[0] * ideal[0]
            assert np.max(np.abs(scaled - ideal)) < 1e-9
            xs = np.linspace(lo, hi, 101)
            cubic = lambda t: ((t - lo) / (hi - lo)) ** 3 + 0j
            values, leb = metrics._barycentric(nodes, weights, cubic(nodes), xs)
            assert np.max(np.abs(values - cubic(xs))) < 1e-13
            assert np.all(leb >= 1.0 - 1e-12) and leb.max() < 2 / np.pi * np.log(count) + 1.01

    @pytest.mark.parametrize(
        "grid, count",
        [(metrics._SMALL_GRID, 13), (metrics._LARGE_GRID, 378), (metrics._LARGE_GRID, 1500)],
    )
    def test_blocked_barycentric_matches_one_block(self, grid, count):
        lo, hi = float(grid[0]), float(grid[-1])
        nodes, weights = metrics._chebyshev_table(lo, hi, count)
        values = np.exp(1j * nodes) / (1.0 + nodes)
        # node hits in the first and in later blocks
        xs = np.concatenate([nodes[:3], grid, nodes[::7]])
        got, leb = metrics._barycentric(nodes, weights, values, xs)

        diff = xs[:, None] - nodes[None, :]
        exact = diff == 0.0
        c = weights / np.where(exact, 1.0, diff)
        total = c.sum(axis=1)
        want = (c @ values) / total
        want_leb = np.abs(c).sum(axis=1) / np.abs(total)
        hit = exact.any(axis=1)
        assert np.max(np.abs(got - want)[~hit]) <= 1e-15 * np.max(np.abs(want[~hit]))
        assert np.all(np.abs(leb - want_leb)[~hit] <= 1e-15 * want_leb[~hit])
        index = np.searchsorted(nodes, xs[hit])
        assert np.array_equal(got[hit], values[index])
        assert np.all(leb[hit] == 1.0)

    def test_pruned_grid_gives_the_full_grid_supremum(self):
        assert metrics._LARGE_GRID.max() <= 600.0 and len(metrics._LARGE_GRID) == 1111
        coin = hadamard_coin()
        dist = distribution(coin, InitialState.pure(E1), 128)
        pairs = [
            (lambda lams: np.exp(1j * lams), lambda lams: np.exp(-1j * lams)),
            (lambda lams: spectral.char_fn_finite(dist, lams), lambda lams: np.cos(lams)),
        ]
        for f, g in pairs:
            full = _direct_sup_large(f, g, _DIRECT_LARGE)
            assert _direct_sup_large(f, g, metrics._LARGE_GRID) == full

    def test_mixture_radius(self):
        # sites +-8 at n = 16: X_n / n reaches 1.5
        coin = hadamard_coin()
        init = InitialState(((8, E1, 0.5), (-8, _GENERIC_PHI, 0.5)))
        dist = distribution(coin, init, 16)
        sg = spectral.derivatives(
            spectral.decompose(spectral.coin_step_momentum_walk(coin), 2**12)
        )
        finite = lambda lams: spectral.char_fn_finite(dist, lams)
        limit = lambda lams: spectral.char_fn_limit(sg, init, lams)
        eps = 16 ** (-1.0 / 3.0)
        zw = default_weights()
        new = zolotarev_bound(finite, limit, eps, zw, radius=1.5)
        direct = direct_zolotarev_bound(finite, limit, eps, zw)
        assert 0.0 <= new / direct - 1.0 <= 1e-7

    def test_radius_validation(self):
        f = lambda lams: np.ones_like(lams, dtype=complex)
        for bad in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                zolotarev_bound(f, f, 0.5, default_weights(), radius=bad)


class TestSmoothRegionTransfer:
    def test_trivial_zero(self):
        kc = konno.KonnoCDF(hadamard_coin(), E1)
        assert smooth_region_transfer(kc, kc, (-0.5, 0.5), 1.0, 0.0) == 0.0

    def test_precondition_violation(self):
        kc = konno.KonnoCDF(hadamard_coin(), E1)
        with pytest.raises(PreconditionViolation):
            smooth_region_transfer(None, kc, (-0.5, 0.5), 1.0, 0.5)

    def test_walk_inequality_holds(self):
        coin = hadamard_coin()
        kc = konno.KonnoCDF(coin, E1)
        F = rescaled_cdf(distribution(coin, InitialState.pure(E1), 512))
        interval = (-0.5, 0.5)
        lev = levy(F, kc)
        xs = np.linspace(interval[0], interval[1], 20001)
        g_prime_sup = float(np.max(kc.density(xs)))
        bound = smooth_region_transfer(F, kc, interval, g_prime_sup, lev)
        measured = kolmogorov(F, kc, interval=interval)
        assert measured <= bound + 1e-9
        assert bound > lev  # density is positive inside the support
