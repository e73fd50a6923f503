"""Closed-form asymptotic velocity law (Konno distribution) for coin walks.

For a two-dimensional coin with entries a, b (both nonzero) and a localized
initial spinor phi, the rescaled position X_n/n converges to the law with
density

    sigma(x) = |b| (1 + lambda x) / (pi (1 - x^2) sqrt(|a|^2 - x^2)),  |x| < |a|,

where lambda depends on the coin and the spinor.  The density carries
inverse-square-root singularities at +-|a|; the CDF is its closed-form
antiderivative, and adaptive quadrature in the substituted variable
x = |a| sin t, where the integrand is smooth and bounded, is kept as its
oracle.
"""

from __future__ import annotations

import numpy as np

from .walk import CoinParams, InitialState, _check_spinor

_HALF_PI = 0.5 * np.pi


def lambda_c(coin: CoinParams, phi) -> float:
    """Asymmetry weight lambda of the limiting density.

    lambda = |phi_1|^2 - |phi_2|^2
             + (conj(a) b conj(phi_1) phi_2 + a conj(b) phi_1 conj(phi_2)) / |a|^2.

    Oriented so that positive lambda tilts the limit law toward +infinity,
    matching a walk whose first spinor component hops right: phi = (1, 0)
    gives lambda = +1 and phi = (0, 1) gives lambda = -1.  Konno's nu,
    mirrored into this convention, carries the cross term with a plus sign;
    for the Hadamard coin phi = (1, 1)/sqrt(2) then gives lambda = +1, the
    drift of the walk toward +infinity.  The expression is
    manifestly real; the imaginary residue is checked to be below 1e-14 and
    discarded.
    """
    phi = _check_spinor(phi)
    a, b = coin.a, coin.b
    cross = np.conj(a) * b * np.conj(phi[0]) * phi[1]
    val = abs(phi[0]) ** 2 - abs(phi[1]) ** 2 + (cross + np.conj(cross)) / abs(a) ** 2
    if abs(val.imag) > 1e-14:
        raise ValueError("lambda has a non-real residue; inputs are inconsistent")
    return float(val.real)


class KonnoCDF:
    """Limiting CDF F_V of X_n/n with its density and edge asymptotics.

    The CDF is the closed-form antiderivative of the density (see ``cdf``);
    ``cdf_exact`` integrates the density by adaptive quadrature as its
    oracle.  Instances are immutable and safe to share; evaluation accepts
    scalars or arrays.
    """

    def __init__(self, coin: CoinParams, phi):
        self.coin = coin
        self.phi = _check_spinor(phi)
        self.lambda_c = lambda_c(coin, phi)
        self.abs_a = coin.abs_a
        self.abs_b = coin.abs_b
        # |lambda| <= 1/|a| holds for every unit spinor; a violation means
        # the density would go negative, which is a hard invariant.
        if abs(self.lambda_c) > 1.0 / self.abs_a + 1e-12:
            raise ValueError("|lambda| exceeds 1/|a|; density would be negative")
        self.support = (-self.abs_a, self.abs_a)

    # -- density ---------------------------------------------------------

    def density(self, x):
        """sigma(x); zero outside the open interval (-|a|, |a|), NaN for NaN.

        The closure endpoints are a set of measure zero where the formula
        diverges; they are reported as 0 and never used by callers, which
        rely on edge_coefficient for the boundary behaviour.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.where(np.isnan(xs), np.nan, 0.0)
        inside = np.abs(xs) < self.abs_a
        xi = xs[inside]
        out[inside] = (
            self.abs_b
            * (1.0 + self.lambda_c * xi)
            / (np.pi * (1.0 - xi * xi) * np.sqrt(self.abs_a**2 - xi * xi))
        )
        return out if np.ndim(x) else float(out[0])

    def _integrand_t(self, t):
        """Density after x = |a| sin t; smooth and bounded on [-pi/2, pi/2]."""
        s = np.sin(t)
        return (
            self.abs_b
            * (1.0 + self.lambda_c * self.abs_a * s)
            / (np.pi * (1.0 - self.abs_a**2 * s * s))
        )

    # -- CDF -------------------------------------------------------------

    def cdf(self, x):
        """F_V(x); exact 0 below -|a| and 1 above |a|, NaN for NaN.

        With u = sqrt(|a|^2 - x^2) the antiderivative of sigma is

            F(x) = 1/2 + (atan2(|b| x, u) - lambda atan2(u, |b|)) / pi,

        which is 0 at -|a| and 1 at |a| for every lambda.
        """
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        xc = np.clip(xs, -self.abs_a, self.abs_a)
        u = np.sqrt((self.abs_a - xc) * (self.abs_a + xc))
        out = 0.5 + (
            np.arctan2(self.abs_b * xc, u) - self.lambda_c * np.arctan2(u, self.abs_b)
        ) / np.pi
        out[xs <= -self.abs_a] = 0.0
        out[xs >= self.abs_a] = 1.0
        return out if np.ndim(x) else float(out[0])

    __call__ = cdf

    def cdf_exact(self, x: float) -> float:
        """F_V(x) by adaptive quadrature of the density in t, the oracle for ``cdf``."""
        from scipy.integrate import quad  # the oracle alone needs scipy.integrate

        if x <= -self.abs_a:
            return 0.0
        if x >= self.abs_a:
            return 1.0
        t = float(np.arcsin(x / self.abs_a))
        val, _ = quad(self._integrand_t, -_HALF_PI, t, epsabs=1e-13, epsrel=1e-13)
        return val

    # -- characteristic function -----------------------------------------

    def char_fn(self, lam, panels: int = 256):
        """int e^{i lam x} sigma(x) dx by Gauss panels in the t variable.

        Accurate while |lam| |a| stays well below ~10 radians per panel;
        the default resolves |lam| up to a few thousand.
        """
        nodes, weights = np.polynomial.legendre.leggauss(10)
        t_edges = np.linspace(-_HALF_PI, _HALF_PI, panels + 1)
        h = t_edges[1] - t_edges[0]
        mid = 0.5 * (t_edges[:-1] + t_edges[1:])
        t = (mid[:, None] + 0.5 * h * nodes[None, :]).ravel()
        w = np.tile(weights * 0.5 * h, panels)
        g = self._integrand_t(t) * w
        lams = np.atleast_1d(np.asarray(lam, dtype=float))
        out = np.exp(1j * lams[:, None] * (self.abs_a * np.sin(t))[None, :]) @ g
        return out if np.ndim(lam) else complex(out[0])

    # -- edge behaviour ----------------------------------------------------

    def edge_coefficient(self, side: str) -> float:
        """Leading eps^{-1/2} coefficient of sigma approaching an edge.

        side="left" gives the coefficient c in sigma(-|a| + eps) ~ c/sqrt(eps),
        namely |b|(1 - lambda |a|) / (pi (1 - |a|^2) sqrt(2|a|)); side="right"
        the mirrored coefficient with (1 + lambda |a|).
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        sgn = -1.0 if side == "left" else 1.0
        return (
            self.abs_b
            * (1.0 + sgn * self.lambda_c * self.abs_a)
            / (np.pi * (1.0 - self.abs_a**2) * np.sqrt(2.0 * self.abs_a))
        )

    def edge_cdf_scaling(self, n: int, eps_exponent: float = 0.0) -> float:
        """F_V(-|a| + n^{-2/3 - eps_exponent}), the edge mass at scale n."""
        if n < 2:
            raise ValueError("n must be at least 2")
        if eps_exponent < 0:
            raise ValueError("eps_exponent must be nonnegative")
        return float(self.cdf(-self.abs_a + float(n) ** (-2.0 / 3.0 - eps_exponent)))

    # -- dumps -------------------------------------------------------------

    def table(self, xs):
        """(x, sigma(x), F(x)) rows as Python floats, one array call each."""
        xs = np.asarray(xs, dtype=float)
        return list(zip(xs.tolist(), self.density(xs).tolist(), self.cdf(xs).tolist()))

    def table_csv(self, xs) -> str:
        lines = ["x,sigma,F"]
        lines.extend(f"{x:.17g},{sigma:.17g},{F:.17g}" for x, sigma, F in self.table(xs))
        return "\n".join(lines) + "\n"


class MixtureCDF:
    """Convex combination of continuous CDFs (mixed localized inputs)."""

    def __init__(self, components):
        self._components = [(float(w), f) for w, f in components]
        los, his = zip(*(f.support for _, f in self._components))
        self.support = (min(los), max(his))

    def __call__(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros(len(xs))
        for w, f in self._components:
            out += w * np.asarray(f(xs))
        return out if np.ndim(x) else float(out[0])


def limit_cdf(coin: CoinParams, init: InitialState):
    """Limiting CDF of X_n/n for a (possibly mixed) localized initial state.

    The limit law ignores the starting sites; mixtures combine at the
    probability level.
    """
    comps = [(w, KonnoCDF(coin, phi)) for _, phi, w in init.entries]
    if len(comps) == 1:
        return comps[0][1]
    return MixtureCDF(comps)
