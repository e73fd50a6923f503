"""Airy evaluation and the wavefront structure of coin-step walks.

Near the ballistic fronts at sites +- n|a| the transition probabilities
follow an Airy-squared profile on the n^{1/3} scale; this module provides
Ai(x) on a checked range (from scipy, loaded on first use), the
leading-order wavefront approximation of p_n, scaled tail masses at the
fronts, and the oscillatory-sum experiments that probe the cancellation
rates behind the n^{-1/3} convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .konno import lambda_c
from .walk import CoinParams, PositionDistribution, _check_spinor


class OutOfSupportedRange(Exception):
    """Airy argument outside the validated interval [-100, 20]."""


class WindowViolation(Exception):
    """Wavefront offset outside the O(n^{1/3}) validity window."""


def airy(x):
    """Airy function Ai(x) on [-100, 20], evaluated by ``scipy.special.airy``.

    Arguments outside the interval raise OutOfSupportedRange; the test suite
    checks the values against a 40-digit oracle.  ``scipy.special`` is
    imported here, its only use, so that importing qwlab loads no scipy.
    """
    from scipy import special

    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xs < -100.0) or np.any(xs > 20.0):
        raise OutOfSupportedRange("airy() is validated on [-100, 20] only")
    out = special.airy(xs)[0]
    return out if np.ndim(x) else float(out[0])


# ---------------------------------------------------------------------------
# Wavefront approximation of p_n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WavefrontApprox:
    """Leading-order Airy model of p_n near the fronts +- n|a|.

    ``alpha`` is the front scale (2 / (|a| |b|^2))^{1/3}; ``window_factor``
    bounds the admissible site offsets |d| <= window_factor * n^{1/3}.
    """

    coin: CoinParams
    phi: np.ndarray
    window_factor: float = 3.0
    alpha: float = field(init=False)
    lam: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "phi", _check_spinor(self.phi))
        a, b = self.coin.abs_a, self.coin.abs_b
        object.__setattr__(self, "alpha", (2.0 / (a * b * b)) ** (1.0 / 3.0))
        object.__setattr__(self, "lam", lambda_c(self.coin, self.phi))


def approx_pn(wa: WavefrontApprox, n: int, d: int, side: int) -> float:
    """Airy approximation of p_n at site side*floor(n|a|) + d.

    Parity-forbidden sites give exactly 0.  The Airy argument uses the true
    distance to the front, side*(site - side*n|a|), so the fractional part
    of n|a| is absorbed rather than rounded away.  Raises WindowViolation
    outside |d| <= window_factor * n^{1/3}.
    """
    if side not in (-1, 1):
        raise ValueError("side must be +1 or -1")
    if abs(d) > wa.window_factor * n ** (1.0 / 3.0):
        raise WindowViolation(f"|d|={abs(d)} outside the n^(1/3) window")
    abs_a = wa.coin.abs_a
    site = side * int(np.floor(n * abs_a)) + d
    if (n + site) % 2:
        return 0.0
    dn = site - side * n * abs_a
    arg = side * wa.alpha * n ** (-1.0 / 3.0) * dn
    amp = airy(arg)
    weight = 1.0 + side * abs_a * wa.lam
    return 2.0 * wa.alpha**2 * n ** (-2.0 / 3.0) * amp * amp * weight


def approx_error_window(wa: WavefrontApprox, dist: PositionDistribution, side: int):
    """Max |p_n - approx_pn| over parity-allowed offsets |d| <= n^{1/3}."""
    n = dist.n
    dmax = int(np.floor(n ** (1.0 / 3.0)))
    front = side * int(np.floor(n * wa.coin.abs_a))
    worst = 0.0
    for d in range(-dmax, dmax + 1):
        site = front + d
        if (n + site) % 2:
            continue
        err = abs(dist.prob_at(site) - approx_pn(wa, n, d, side))
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# Wavefront tail masses
# ---------------------------------------------------------------------------


def wavefront_mass_lower(
    dist: PositionDistribution, coin: CoinParams, side: str = "left"
) -> float:
    """n^{1/3} times the tail mass at the front itself.

    Left: n^{1/3} F_n(-n|a|); right: n^{1/3} (1 - F_n(n|a|)).  Stays inside
    a fixed positive band when the front carries its Airy-peak mass.
    """
    n = dist.n
    scale = float(n) ** (1.0 / 3.0)
    if side == "left":
        return scale * dist.cdf_at_site(-n * coin.abs_a)
    if side == "right":
        return scale * (1.0 - dist.cdf_at_site(n * coin.abs_a))
    raise ValueError("side must be 'left' or 'right'")


def wavefront_mass_upper(
    dist: PositionDistribution, coin: CoinParams, side: str = "left"
) -> float:
    """n^{1/3} times the tail mass one n^{1/3}-layer inside the front."""
    n = dist.n
    scale = float(n) ** (1.0 / 3.0)
    if side == "left":
        return scale * dist.cdf_at_site(-n * coin.abs_a + scale)
    if side == "right":
        return scale * (1.0 - dist.cdf_at_site(n * coin.abs_a - scale))
    raise ValueError("side must be 'left' or 'right'")


# ---------------------------------------------------------------------------
# Oscillatory-sum experiments
# ---------------------------------------------------------------------------


def oscillatory_sum(n: int, p_fn, r: float) -> float:
    """sum_{k=floor(n^{1/3})}^{floor(rn)} sin((4/3) n p(k/n)^{3/2}).

    ``p_fn`` must be smooth with p(0) = 0 and p'(0) > 0, positive and
    increasing on (0, r].  Cancellation keeps the magnitude near n^{1/2}
    even though the number of terms grows linearly.
    """
    k = np.arange(int(np.floor(n ** (1.0 / 3.0))), int(np.floor(r * n)) + 1)
    return float(np.sum(np.sin((4.0 / 3.0) * n * p_fn(k / n) ** 1.5)))


def weighted_oscillatory_sum(n: int, p_fn, f_fn, r: float, s_n: int) -> float:
    """sum_{k=s_n}^{floor(rn)} f(k/n) sin((4/3) n p(k/n)^{3/2})."""
    k = np.arange(int(s_n), int(np.floor(r * n)) + 1)
    return float(np.sum(f_fn(k / n) * np.sin((4.0 / 3.0) * n * p_fn(k / n) ** 1.5)))


def oscillatory_prefix_bound(n: int, p_fn, r: float, s_n: int) -> float:
    """max over K of |sum_{k=s_n}^K sin(...)| / sqrt(n), the prefix constant.

    Feeding this constant into the summation-by-parts inequality gives a
    numerically checkable bound for weighted oscillatory sums.
    """
    k = np.arange(int(s_n), int(np.floor(r * n)) + 1)
    prefix = np.cumsum(np.sin((4.0 / 3.0) * n * p_fn(k / n) ** 1.5))
    return float(np.max(np.abs(prefix)) / np.sqrt(n))


def riemann_sum_quantity(n: int, p_fn=None) -> float:
    """n^{-1} sum_{k=floor(n^{1/3})}^{floor(n^{2/3})} p(k/n)^{-1/2} sin((4/3) n p(k/n)^{3/2}).

    The weight mirrors the inverse-square-root density edge; despite the
    growing term count the quantity decays like n^{-1/3}.  Defaults to the
    linear test phase p(x) = x.
    """
    if p_fn is None:
        p_fn = lambda x: x
    k = np.arange(int(np.floor(n ** (1.0 / 3.0))), int(np.floor(n ** (2.0 / 3.0))) + 1)
    vals = p_fn(k / n)
    return float(np.sum(vals**-0.5 * np.sin((4.0 / 3.0) * n * vals**1.5)) / n)
