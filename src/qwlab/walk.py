"""Exact position-space simulation of one-dimensional coin-step quantum walks.

A walk step is W = shift∘coin on l2(Z; C^2): the unitary coin rotates every
on-site spinor, after which the first spinor component hops one site to the
right and the second one site to the left.  States are dense complex arrays
over the light cone, so evolving n steps costs O(n^2) multiply-adds total.

The inner loop is the vectorised numpy kernel ``qwlab._step_numpy``;
``KERNEL_BACKEND`` names it in provenance records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _step_numpy as _kernel

KERNEL_BACKEND = "numpy"

_UNIT_ATOL = 1e-12


@dataclass(frozen=True)
class CoinParams:
    """Unitary coin C = e^{i theta} [[a, b], [-conj(b), conj(a)]].

    Requires |a|^2 + |b|^2 = 1 (within 1e-12), both entries nonzero and a
    finite theta; coins with a vanishing entry degenerate to a free shift or
    a period-2 oscillator and are excluded.  Every check accepts only what
    it can confirm, so NaN fails it.
    """

    a: complex
    b: complex
    theta: float = 0.0

    def __post_init__(self):
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(norm - 1.0) <= _UNIT_ATOL:
            raise ValueError(f"coin entries must satisfy |a|^2+|b|^2=1, got {norm!r}")
        if not np.isfinite(self.theta):
            raise ValueError(f"coin phase theta must be finite, got {self.theta!r}")
        if self.a == 0 or self.b == 0:
            raise ValueError("coin entries a and b must both be nonzero")

    @property
    def abs_a(self) -> float:
        return abs(self.a)

    @property
    def abs_b(self) -> float:
        return abs(self.b)

    def matrix(self) -> np.ndarray:
        """The 2x2 coin matrix as a complex128 array."""
        phase = np.exp(1j * self.theta)
        return phase * np.array(
            [[self.a, self.b], [-np.conj(self.b), np.conj(self.a)]],
            dtype=np.complex128,
        )


def hadamard_coin() -> CoinParams:
    """Coin parameters whose matrix is the real Hadamard matrix."""
    s = 1.0 / np.sqrt(2.0)
    return CoinParams(a=-1j * s, b=-1j * s, theta=np.pi / 2)


def _check_spinor(phi) -> np.ndarray:
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (2,):
        raise ValueError("spinor must be a complex 2-vector")
    if not abs(np.vdot(phi, phi).real - 1.0) <= _UNIT_ATOL:
        raise ValueError("spinor must have finite entries and unit norm")
    return phi


@dataclass(frozen=True)
class InitialState:
    """Statistical mixture of localized pure states sum_i w_i |delta_{s_i} phi_i>.

    ``entries`` is a tuple of (site, spinor, weight) with unit spinors and
    weights in (0, 1] summing to 1.
    """

    entries: tuple

    def __post_init__(self):
        cleaned = []
        total = 0.0
        for site, phi, w in self.entries:
            if not 0 < w <= 1:
                raise ValueError("weights must lie in (0, 1]")
            cleaned.append((int(site), _check_spinor(phi), float(w)))
            total += w
        if not abs(total - 1.0) <= _UNIT_ATOL:
            raise ValueError("weights must sum to 1")
        object.__setattr__(self, "entries", tuple(cleaned))

    @classmethod
    def pure(cls, phi, site: int = 0) -> "InitialState":
        return cls(((site, phi, 1.0),))

    def abs_position_moment(self) -> float:
        """First absolute moment of the position marginal, sum_i w_i |s_i|."""
        return float(sum(w * abs(site) for site, _, w in self.entries))


@dataclass
class WalkState:
    """Dense two-component wavefunction over a contiguous site window.

    ``amplitudes`` has shape (2, width); column j holds the spinor at site
    ``offset + j``.  ``step_count`` tracks how many walk steps produced it.
    """

    offset: int
    amplitudes: np.ndarray
    step_count: int = 0

    @classmethod
    def from_spinor(cls, phi, site: int = 0) -> "WalkState":
        amps = np.zeros((2, 1), dtype=np.complex128)
        amps[:, 0] = _check_spinor(phi)
        return cls(offset=site, amplitudes=amps, step_count=0)

    @property
    def width(self) -> int:
        return self.amplitudes.shape[1]

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))

    def site_probabilities(self) -> np.ndarray:
        return np.sum(np.abs(self.amplitudes) ** 2, axis=0)


def evolve(coin: CoinParams, state: WalkState) -> WalkState:
    """Apply one walk step, returning a new state two sites wider."""
    w = state.width
    c = coin.matrix()
    rotated = c @ state.amplitudes
    out = np.zeros((2, w + 2), dtype=np.complex128)
    out[0, 2 : w + 2] = rotated[0]
    out[1, 0:w] = rotated[1]
    return WalkState(
        offset=state.offset - 1, amplitudes=out, step_count=state.step_count + 1
    )


@dataclass(frozen=True)
class PositionDistribution:
    """Probabilities of finding the walker on each lattice site after n steps."""

    offset: int
    probs: np.ndarray
    n: int

    def __post_init__(self):
        # Roundoff drift grows with the step count; 1e-11 covers 1e4 steps.
        total = float(np.sum(self.probs))
        if not (np.all(self.probs >= -1e-15) and abs(total - 1.0) <= 1e-11):
            raise ValueError("probabilities must be finite, nonnegative and sum to 1")

    def sites(self) -> np.ndarray:
        return self.offset + np.arange(len(self.probs))

    def prob_at(self, site: int) -> float:
        j = site - self.offset
        if j < 0 or j >= len(self.probs):
            return 0.0
        return float(self.probs[j])

    def cdf_at_site(self, x: float) -> float:
        """F_n(x) = sum of probabilities over sites <= x (unrescaled)."""
        j = int(np.floor(x)) - self.offset
        if j < 0:
            return 0.0
        return float(np.sum(self.probs[: j + 1]))

    def to_csv(self) -> str:
        lines = ["k,p"]
        for k, p in zip(self.sites(), self.probs):
            lines.append(f"{k},{p:.17g}")
        return "\n".join(lines) + "\n"


def _evolved_probs(coin: CoinParams, phi, n: int, snapshots=None):
    """Evolve delta_0 x phi for n steps, reporting probabilities at snapshots.

    Returns a dict {m: probs} where probs covers sites [-m, m].  The buffer
    is allocated once over the final light cone and advanced in segments, so
    a whole geometric sweep costs a single evolution.
    """
    if snapshots is None:
        snapshots = [n]
    snapshots = sorted(set(int(m) for m in snapshots))
    if snapshots and (snapshots[0] < 0 or snapshots[-1] != n):
        raise ValueError("snapshots must be nonnegative and end at n")
    L = 2 * n + 3
    center = n + 1
    amps = np.zeros((2, L), dtype=np.complex128)
    amps[:, center] = _check_spinor(phi)
    coin_mat = coin.matrix()
    out = {}
    lo = hi = center
    prev = 0
    for m in snapshots:
        lo, hi = _kernel.evolve_steps(amps, coin_mat, m - prev, lo, hi)
        prev = m
        probs = np.sum(np.abs(amps[:, center - m : center + m + 1]) ** 2, axis=0)
        out[m] = probs
    return out


def distribution(coin: CoinParams, init: InitialState, n: int) -> PositionDistribution:
    """Position distribution p_n after n steps of the walk started in ``init``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return distribution_snapshots(coin, init, [n])[n]


def distribution_snapshots(coin: CoinParams, init: InitialState, n_list):
    """Distributions at several step counts from a single evolution per entry."""
    n_list = sorted(set(int(n) for n in n_list))
    if n_list[0] < 0:
        raise ValueError("step counts must be nonnegative")
    n_max = n_list[-1]
    sites = [site for site, _, _ in init.entries]
    lo_site = min(sites) - n_max
    hi_site = max(sites) + n_max
    width = hi_site - lo_site + 1

    acc = {n: np.zeros(width) for n in n_list}
    for site, phi, w in init.entries:
        per_n = _evolved_probs(coin, phi, n_max, snapshots=n_list)
        for n in n_list:
            j0 = (site - n) - lo_site
            acc[n][j0 : j0 + 2 * n + 1] += w * per_n[n]
    return {
        n: PositionDistribution(offset=lo_site, probs=acc[n], n=n) for n in n_list
    }


class StepCDF:
    """Right-continuous step CDF with sorted jump points.

    ``value_at`` evaluates F(x); ``left_limit_at`` evaluates F(x-).  Both
    accept scalars or arrays, and give NaN for NaN.
    """

    def __init__(self, jump_points, cumulative):
        jp = np.asarray(jump_points, dtype=float)
        cu = np.asarray(cumulative, dtype=float)
        if jp.ndim != 1 or jp.shape != cu.shape or len(jp) == 0:
            raise ValueError("jump points and cumulative values must match")
        if not (np.all(np.isfinite(jp)) and np.all(np.diff(jp) > 0)):
            raise ValueError("jump points must be finite and strictly increasing")
        if not np.all(np.diff(cu) >= 0):
            raise ValueError("cumulative values must be nondecreasing")
        if not abs(cu[-1] - 1.0) <= _UNIT_ATOL:
            raise ValueError("cumulative values must end at 1")
        self.jump_points = jp
        self.cumulative = cu

    def jump_masses(self) -> np.ndarray:
        return np.diff(self.cumulative, prepend=0.0)

    def value_at(self, x):
        return self._lookup(x, "right")

    def left_limit_at(self, x):
        return self._lookup(x, "left")

    def _lookup(self, x, side: str):
        idx = np.searchsorted(self.jump_points, x, side=side)
        vals = np.concatenate(([0.0], self.cumulative))[idx]
        vals = np.where(np.isnan(x), np.nan, vals)  # NaN sorts past every jump
        return vals if np.ndim(x) else float(vals)

    def to_csv(self) -> str:
        lines = ["x,F"]
        for x, f in zip(self.jump_points, self.cumulative):
            lines.append(f"{x:.17g},{f:.17g}")
        return "\n".join(lines) + "\n"


def rescaled_cdf(dist: PositionDistribution) -> StepCDF:
    """CDF of the ballistically rescaled position X_n / n.

    Jump points sit at k/n for every occupied site k; the cumulative values
    are the running sums of p_n, clamped at 1 so that a total overshooting 1
    by roundoff stays nondecreasing.  Rejects n = 0, where no rescaling
    exists.
    """
    if dist.n < 1:
        raise ValueError("rescaling requires n >= 1")
    mask = dist.probs > 0
    sites = dist.sites()[mask]
    cum = np.minimum(np.cumsum(dist.probs[mask]), 1.0)
    if abs(cum[-1] - 1.0) <= 1e-11:
        cum[-1] = 1.0  # absorb accumulated roundoff into the final jump
    return StepCDF(sites / dist.n, cum)
