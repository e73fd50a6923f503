"""Exact position-space simulation of one-dimensional coin-step quantum walks.

A walk step is W = shift∘coin on l2(Z; C^2): the unitary coin
C = e^{i theta} [[a, b], [-conj(b), conj(a)]] rotates every on-site spinor,
after which the first spinor component hops one site to the right and the
second one site to the left.  ``evolve`` applies that step to a dense
complex state; it is the reference the production engine is tested against.

The production engine evolves one real vector per walk:

* Gauge.  With psi_j(m, k) = e^{i(theta m + k arg a + q_j)} chi_j(m, k),
  q_0 = 0 and q_1 = arg a - arg b, the m-step walk of C on psi is the walk
  of the real rotation R = [[|a|, |b|], [-|b|, |a|]] on chi, and
  |psi_j|^2 = |chi_j|^2 at every site.  A spinor phi starts the R-walk at
  g = (phi_0, e^{i(arg b - arg a)} phi_1).
* Sublattice.  After m steps only the sites k = 2j - m, j = 0..m, are
  occupied, so the R-walk lives on m + 1 float64 cells a component; the
  other sites are exact zeros.
* Propagator.  ``qwlab._step_numpy`` evolves e1 to step m at once by the
  closed form of the m-th power of the momentum-space step (Chebyshev
  polynomials of the second kind, one FFT pair), in O(m log m).  It applies
  R / sqrt(rho), rho = |a|^2 + |b|^2, so the few-ulp norm defect of the
  rounded coin does not accumulate.
* Mirror.  J(chi)(k) = (chi_1(-k), -chi_0(-k)) commutes with the R-walk and
  J e1 = -e2, so the R-walk of e2 is y_0(k) = -x_1(-k), y_1(k) = x_0(-k),
  read off the reversed arrays of the R-walk x of e1.

Every spinor and mixture entry therefore costs O(n) on top of the one
evolution of e1: chi = g_0 x + g_1 y, p = |chi_0|^2 + |chi_1|^2,
translated to the entry's site.  ``evolve`` and
``spectral.evolve_momentum`` are the engine's oracles in the tests.
``KERNEL_BACKEND`` names the kernel in provenance records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _step_numpy as _kernel

KERNEL_BACKEND = "numpy"

_UNIT_ATOL = 1e-12
# Peak bytes of one snapshot's evolution and assembly per point of the
# propagator's transform (tracemalloc peaks: about 140 B at n = 2^12 .. 2^18).
_BYTES_PER_FFT_POINT = 160


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
        # Rounding in the evolution moves the total by far less than 1e-11
        # (below 1e-15 at n = 2^14 .. 2^20); the propagator applies the
        # normalised coin, so the rounded coin's norm defect does not add up.
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


def _gauged_rotation(coin: CoinParams):
    """The real coin R of the gauged walk, and the phase e^{i(arg b - arg a)}
    that the gauge puts on a spinor's second component."""
    ca, cb = coin.abs_a, coin.abs_b
    turn = coin.b * np.conj(coin.a) / (ca * cb)
    return np.array([[ca, cb], [-cb, ca]]), turn


def distribution(coin: CoinParams, init: InitialState, n: int) -> PositionDistribution:
    """Position distribution p_n after n steps of the walk started in ``init``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return distribution_snapshots(coin, init, [n])[n]


def footprint_bytes(init: InitialState, n_list) -> int:
    """Peak bytes of ``distribution_snapshots(coin, init, n_list)``.

    Counts _BYTES_PER_FFT_POINT for every point of the deepest snapshot's
    transform (the propagator's spectra and phase tables, the e1 buffer and
    one entry's assembly) plus every snapshot's probabilities; computed
    before anything is allocated.
    """
    sites = [site for site, _, _ in init.entries]
    span = max(sites) - min(sites)
    n_list = [int(n) for n in n_list]
    size = _kernel.transform_size(max(n_list) + 1)
    return _BYTES_PER_FFT_POINT * size + 8 * sum(span + 2 * n + 1 for n in n_list)


def distribution_snapshots(coin: CoinParams, init: InitialState, n_list):
    """Distributions at several step counts, each from one evolution of e1.

    Snapshot n covers its own light cone, min(site) - n .. max(site) + n,
    and equals ``distribution(coin, init, n)`` bit for bit.
    """
    n_list = sorted(set(int(n) for n in n_list))
    if n_list[0] < 0:
        raise ValueError("step counts must be nonnegative")
    rot, turn = _gauged_rotation(coin)
    sites = [site for site, _, _ in init.entries]
    lo_site, hi_site = min(sites), max(sites)
    entries = [(site - lo_site, phi[0], turn * phi[1], w) for site, phi, w in init.entries]

    out = {}
    for n in n_list:
        x = np.zeros((2, n + 1))
        x[0, 0] = 1.0
        _kernel.evolve_steps(x, rot, n, 0, 0)
        x0, x1 = x
        probs = np.zeros(hi_site - lo_site + 2 * n + 1)
        for shift, g0, g1, w in entries:
            chi0 = g0 * x0 - g1 * x1[::-1]
            chi1 = g0 * x1 + g1 * x0[::-1]
            p = chi0.real**2 + chi0.imag**2 + chi1.real**2 + chi1.imag**2
            probs[shift : shift + 2 * n + 1 : 2] += w * p
        out[n] = PositionDistribution(offset=lo_site - n, probs=probs, n=n)
    return out


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
