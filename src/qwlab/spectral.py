"""Momentum-space analysis of the two-band coin walks.

A coin walk acts in momentum space as the 2 x 2 unitary
W(p) = diag(e^{ip}, e^{-ip}) C.  This module gives the eigenphase bands of
W(p) on a uniform grid over [0, 2pi), their spectral projectors, group
velocities and curvatures, all in closed form (see :func:`decompose` and
:func:`derivatives`), and builds the asymptotic-velocity CDF and
characteristic functions used by the convergence-rate experiments.  The
tests keep eig, band tracking and finite differences as the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .metrics import window_sums
from .walk import CoinParams, InitialState, PositionDistribution


class DegenerateSpectrum(Exception):
    """Two eigenphases of W(p) collide (circular gap below tolerance)."""


class BranchTrackingFailure(Exception):
    """The spectral data failed their checks."""


_DEGENERACY_GAP = 1e-6


@dataclass(frozen=True)
class MomentumWalk:
    """The coin walk W(p) = diag(e^{ip}, e^{-ip}) C in momentum space."""

    coin: CoinParams

    def unitary_batch(self, ps: np.ndarray) -> np.ndarray:
        """W(p) at every momentum of ``ps``, shape (len(ps), 2, 2)."""
        cmat = self.coin.matrix()
        out = np.empty((len(ps), 2, 2), dtype=np.complex128)
        e = np.exp(1j * np.asarray(ps))
        out[:, 0, :] = e[:, None] * cmat[0]
        out[:, 1, :] = np.conj(e)[:, None] * cmat[1]
        return out


def coin_step_momentum_walk(coin: CoinParams) -> MomentumWalk:
    """W(p) = diag(e^{ip}, e^{-ip}) C for a two-dimensional coin walk."""
    return MomentumWalk(coin)


@dataclass(frozen=True)
class SpectralGrid:
    """Eigenphase bands of W(p) on a uniform momentum grid.

    ``omega`` has shape (bands, M) and holds continuous eigenphases;
    ``projectors`` the matching spectral projectors.  Both bands of a coin
    walk are periodic: band k continues past p = 2pi as itself.  Derivative
    fields are filled by :func:`derivatives`.
    """

    walk: MomentumWalk
    ps: np.ndarray
    omega: np.ndarray
    projectors: np.ndarray
    velocity: Optional[np.ndarray] = None
    curvature: Optional[np.ndarray] = None
    proj_deriv_norm: Optional[np.ndarray] = None

    @property
    def grid_size(self) -> int:
        return len(self.ps)

    @property
    def bands(self) -> int:
        return self.omega.shape[0]

    def has_derivatives(self) -> bool:
        return self.velocity is not None

    def to_csv(self) -> str:
        if not self.has_derivatives():
            raise ValueError("derivatives not filled; call derivatives() first")
        lines = ["p,band,omega,velocity,curvature"]
        for k in range(self.bands):
            for j, p in enumerate(self.ps):
                lines.append(
                    f"{p:.17g},{k},{self.omega[k, j]:.17g},"
                    f"{self.velocity[k, j]:.17g},{self.curvature[k, j]:.17g}"
                )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BoundConstants:
    """Constants entering the characteristic-function triangle bound."""

    sup_curvature: float
    sum_proj_deriv: float
    abs_position_moment: float


def _wrap_angle(x):
    """Map angles to (-pi, pi]."""
    return np.pi - np.mod(np.pi - x, 2.0 * np.pi)


def _small_matmul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x @ y for stacks of small d x d matrices, one outer product per inner index.

    For d = 2 this is several times faster than numpy's batched matmul.
    """
    return sum(x[..., :, i, None] * y[..., None, i, :] for i in range(x.shape[-1]))


def _coin_bands(coin: CoinParams, ps: np.ndarray):
    """The closed-form bands of the coin walk at momenta ``ps``.

    With q = p + arg a, W(p) = e^{i theta} sqrt(rho) (cos(alpha) I +
    i sin(alpha) n.sigma), rho = |a|^2 + |b|^2, where

        s = sqrt(|b|^2 + |a|^2 sin^2 q),   alpha = arctan2(s, |a| cos q),
        n = (Im(b e^{ip}), Re(b e^{ip}), |a| sin q) / s,

    so the bands are theta +- alpha with projectors (I +- n.sigma) / 2; the
    factor sqrt(rho) is dropped, as the evolution kernel drops it.  s >= |b|
    keeps alpha in (0, pi): the two bands never meet and both are periodic.

    Returns (signs, lift, sin_q, cos_q, s, alpha).  Band k is
    theta + lift[k] + signs[k] alpha(p); band k starts at the k-th smallest
    raw angle in (-pi, pi] at ps[0], and the lift (a multiple of 2pi) makes
    that start the raw angle.
    """
    q = ps + np.angle(coin.a)
    sin_q, cos_q = np.sin(q), np.cos(q)
    s = np.sqrt(coin.abs_b**2 + (coin.abs_a * sin_q) ** 2)
    alpha = np.arctan2(s, coin.abs_a * cos_q)
    signs = np.array([1.0, -1.0])
    start = coin.theta + signs * alpha[0]
    raw0 = _wrap_angle(start)
    order = np.argsort(raw0)
    lift = 2.0 * np.pi * np.rint((raw0 - start) / (2.0 * np.pi))
    return signs[order], lift[order], sin_q, cos_q, s, alpha


def _closed_form_bands(coin: CoinParams, ps: np.ndarray):
    """(omega, projectors) of the coin walk; raises DegenerateSpectrum."""
    signs, lift, sin_q, _, s, alpha = _coin_bands(coin, ps)
    gap = np.minimum(2.0 * alpha, 2.0 * np.pi - 2.0 * alpha).min()
    if gap < _DEGENERACY_GAP:
        raise DegenerateSpectrum(f"eigenphase gap {gap:.3e} below {_DEGENERACY_GAP:.0e}")
    omega = (coin.theta + lift)[:, None] + signs[:, None] * alpha[None, :]
    n_z = coin.abs_a * sin_q / s
    n_minus = -1j * coin.b * np.exp(1j * ps) / s  # n_x - i n_y
    projectors = np.empty((2, len(ps), 2, 2), dtype=np.complex128)
    for k, sign in enumerate(signs):
        projectors[k, :, 0, 0] = 0.5 * (1.0 + sign * n_z)
        projectors[k, :, 1, 1] = 0.5 * (1.0 - sign * n_z)
        projectors[k, :, 0, 1] = (0.5 * sign) * n_minus
        projectors[k, :, 1, 0] = np.conj(projectors[k, :, 0, 1])
    return omega, projectors


def decompose(walk: MomentumWalk, M: int = 2**14) -> SpectralGrid:
    """The eigenphase bands and spectral projectors of W(p) on M midpoint momenta.

    The bands theta +- alpha(p) and Hermitian rank-one projectors take the
    closed form of :func:`_coin_bands`.  The derivative fields are left
    empty; see :func:`derivatives`.

    Raises ValueError when W(p) is not unitary within 1e-12,
    DegenerateSpectrum when the eigenphases at a grid point are closer than
    1e-6 (circularly), and BranchTrackingFailure when the result fails its
    checks: reconstruction of W(p) within 1e-9, resolution of identity and
    idempotency within 1e-10, and the dispersion relation
    cos(omega - theta) = |a| cos(p + arg a) within 1e-9.
    """
    if M < 64 or M % 2:
        raise ValueError("grid size must be even and at least 64")
    ps = 2.0 * np.pi * (np.arange(M) + 0.5) / M  # midpoint grid
    Ws = walk.unitary_batch(ps)

    dev = np.abs(_small_matmul(Ws, np.conj(np.swapaxes(Ws, 1, 2))) - np.eye(2))
    if dev.max() > 1e-12:
        raise ValueError("W(p) is not unitary within 1e-12")

    coin = walk.coin
    omega, projectors = _closed_form_bands(coin, ps)

    recon = np.einsum("kj,kjab->jab", np.exp(1j * omega), projectors)
    frob = np.sqrt(np.sum(np.abs(recon - Ws) ** 2, axis=(1, 2)))
    if frob.max() > 1e-9:
        raise BranchTrackingFailure(
            f"spectral reconstruction error {frob.max():.3e} exceeds 1e-9"
        )

    proj_sum_dev = np.abs(projectors.sum(axis=0) - np.eye(2)).max()
    idem_dev = np.abs(_small_matmul(projectors, projectors) - projectors).max()
    if proj_sum_dev > 1e-10 or idem_dev > 1e-10:
        raise BranchTrackingFailure("projectors fail resolution-of-identity check")

    lhs = np.cos(omega - coin.theta)
    rhs = coin.abs_a * np.cos(ps + np.angle(coin.a))
    if np.abs(lhs - rhs[None, :]).max() > 1e-9:
        raise BranchTrackingFailure("bands violate the coin dispersion relation")

    return SpectralGrid(walk=walk, ps=ps, omega=omega, projectors=projectors)


def derivatives(sg: SpectralGrid) -> SpectralGrid:
    """Fill group velocities, curvatures and projector-derivative norms.

    They are exact: with q, s and the band signs of :func:`_coin_bands`,
    omega' = +-|a| sin q / s, omega'' = +-|a| |b|^2 cos q / s^3 and
    ||Pi'|| = |n'| / 2 = |b| sqrt(rho) / (2 s^2).
    """
    coin = sg.walk.coin
    signs, _, sin_q, cos_q, s, _ = _coin_bands(coin, sg.ps)
    A, B = coin.abs_a, coin.abs_b
    rho = A * A + B * B
    velocity = signs[:, None] * (A * sin_q / s)[None, :]
    curvature = signs[:, None] * (A * B * B * cos_q / s**3)[None, :]
    pd = B * np.sqrt(rho) / (2.0 * s * s)
    return replace(
        sg,
        velocity=velocity,
        curvature=curvature,
        proj_deriv_norm=np.stack([pd, pd]),
    )


def bound_constants(sg: SpectralGrid, init: InitialState) -> BoundConstants:
    """Curvature/projector/moment constants for the triangle bound.

    The suprema over all momenta, attained at cos q = +-1, not the maxima
    over the grid below them: sup|omega''| = |a| / |b| and
    sum_k sup||Pi_k'|| = sqrt(rho) / |b|.
    """
    if not sg.has_derivatives():
        raise ValueError("derivatives not filled; call derivatives() first")
    coin = sg.walk.coin
    return BoundConstants(
        sup_curvature=coin.abs_a / coin.abs_b,
        sum_proj_deriv=float(np.hypot(coin.abs_a, coin.abs_b)) / coin.abs_b,
        abs_position_moment=init.abs_position_moment(),
    )


def _band_masses(sg: SpectralGrid, init: InitialState) -> np.ndarray:
    """m_k(p_j) = sum_i w_i ||Pi_k(p_j) phi_i||^2, shape (bands, M)."""
    masses = np.zeros((sg.bands, sg.grid_size))
    for _, phi, w in init.entries:
        applied = np.einsum("kjab,b->kja", sg.projectors, phi)
        masses += w * np.sum(np.abs(applied) ** 2, axis=2)
    return masses


class VelocityCDF:
    """Continuous CDF of the group velocity under a localized initial state.

    Built from per-cell linear models of the velocity band over the momentum
    grid; cells adjacent to velocity extrema are subdivided with a cubic
    Hermite model so the inverse-square-root edge behaviour is resolved.
    Callable on scalars or arrays (NaN in, NaN out); nondecreasing by
    construction.

    A cell with ends v0, v1, end masses m0, m1 and weight w adds nothing
    below min(v0, v1) and its full mass w (m0 + m1) / 2 from max(v0, v1)
    up; in between, its linear mass density gives a quadratic in x.  An
    evaluation takes the prefix sum of full masses over the cells sorted by
    upper end, and the quadratic only for the few cells straddling x, whose
    lower ends lie within a cell width below x.  Nothing of size
    (points x cells) is formed.
    """

    def __init__(self, v0, v1, m0, m1, weight):
        self._v0 = v0
        self._v1 = v1
        self._m0 = m0
        self._m1 = m1
        self._w = weight
        lower = np.minimum(v0, v1)
        self._upper = np.maximum(v0, v1)
        self.support = (float(lower.min()), float(self._upper.max()))
        by_upper = np.argsort(self._upper, kind="stable")
        self._upper_sorted = self._upper[by_upper]
        full = 0.5 * (m0 + m1) * weight
        self._mass_below = np.concatenate(([0.0], np.cumsum(full[by_upper])))
        self._by_lower = np.argsort(lower, kind="stable")
        self._lower_sorted = lower[self._by_lower]
        # Twice the widest cell: every cell with lower < x < upper starts in
        # [x - reach, x) even after x - reach is rounded.
        self._reach = 2.0 * float((self._upper - lower).max())

    def _straddling_mass(self, x, cell):
        """Weighted mass below x of each cell starting below x; 0 once it ends."""
        out = np.zeros(len(cell))
        inside = self._upper[cell] > x
        cell, x = cell[inside], x[inside]
        v0, m0, m1 = self._v0[cell], self._m0[cell], self._m1[cell]
        dv = self._v1[cell] - v0  # nonzero: the cell straddles x
        t = np.clip((x - v0) / dv, 0.0, 1.0)
        partial = m0 * t + 0.5 * (m1 - m0) * t * t
        mass = np.where(dv > 0.0, partial, 0.5 * (m0 + m1) - partial)
        out[inside] = mass * self._w[cell]
        return out

    def __call__(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._mass_below[np.searchsorted(self._upper_sorted, xs, side="right")]
        start = np.searchsorted(self._lower_sorted, xs - self._reach, side="left")
        stop = np.searchsorted(self._lower_sorted, xs, side="left")
        out += window_sums(
            start, stop, lambda i, k: self._straddling_mass(xs[i], self._by_lower[k])
        )
        out[np.isnan(xs)] = np.nan
        return out if np.ndim(x) else float(out[0])


def velocity_cdf(sg: SpectralGrid, init: InitialState, refine: int = 16) -> VelocityCDF:
    """Asymptotic-velocity CDF F_V(x) for the walk started in ``init``."""
    if not sg.has_derivatives():
        raise ValueError("derivatives not filled; call derivatives() first")
    M = sg.grid_size
    h = 2.0 * np.pi / M
    masses = _band_masses(sg, init)

    v0_list, v1_list, m0_list, m1_list, w_list = [], [], [], [], []
    for k in range(sg.bands):
        # each band is periodic: its last cell closes on its own first point
        v = np.append(sg.velocity[k], sg.velocity[k, 0])
        m = np.append(masses[k], masses[k, 0])
        a = np.append(sg.curvature[k], sg.curvature[k, 0])
        dv = np.diff(v)
        sign = np.sign(dv)
        turn = np.nonzero(sign[:-1] * sign[1:] <= 0)[0]  # cell pairs at extrema
        refine_cells = np.unique(np.concatenate([turn, turn + 1])) if len(turn) else []
        is_fine = np.zeros(M, dtype=bool)
        is_fine[list(refine_cells)] = True

        coarse = ~is_fine
        v0_list.append(v[:-1][coarse])
        v1_list.append(v[1:][coarse])
        m0_list.append(m[:-1][coarse])
        m1_list.append(m[1:][coarse])
        w_list.append(np.full(coarse.sum(), h / (2.0 * np.pi)))

        if is_fine.any():
            idx = np.nonzero(is_fine)[0]
            t = np.linspace(0.0, 1.0, refine + 1)
            h00 = 2 * t**3 - 3 * t**2 + 1
            h10 = t**3 - 2 * t**2 + t
            h01 = -2 * t**3 + 3 * t**2
            h11 = t**3 - t**2
            vv = (
                v[idx, None] * h00
                + h * a[idx, None] * h10
                + v[idx + 1, None] * h01
                + h * a[idx + 1, None] * h11
            )
            mm = m[idx, None] * (1 - t) + m[idx + 1, None] * t
            v0_list.append(vv[:, :-1].ravel())
            v1_list.append(vv[:, 1:].ravel())
            m0_list.append(mm[:, :-1].ravel())
            m1_list.append(mm[:, 1:].ravel())
            w_list.append(np.full(len(idx) * refine, h / (2.0 * np.pi * refine)))

    return VelocityCDF(
        np.concatenate(v0_list),
        np.concatenate(v1_list),
        np.concatenate(m0_list),
        np.concatenate(m1_list),
        np.concatenate(w_list),
    )


def _char_sum(lam, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i e^{i lam x_i} at every lam, as a 1-D array.

    The (lam x terms) phase matrix is formed in chunks of at most 2^22
    entries.
    """
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.empty(len(lams), dtype=np.complex128)
    chunk = max(1, int(2**22) // max(len(x), 1))
    for s in range(0, len(lams), chunk):
        phase = lams[s : s + chunk, None] * x[None, :]
        out[s : s + chunk] = np.cos(phase) @ w + 1j * (np.sin(phase) @ w)
    return out


def char_fn_limit(sg: SpectralGrid, init: InitialState, lam):
    """Characteristic function of the asymptotic velocity at frequency lam.

    Evaluates (1/2pi) sum_k int e^{i lam omega_k'(p)} m_k(p) dp by the
    trapezoid rule on the periodic grid; accepts scalar or array lam.
    """
    if not sg.has_derivatives():
        raise ValueError("derivatives not filled; call derivatives() first")
    out = _char_sum(lam, sg.velocity.ravel(), _band_masses(sg, init).ravel())
    out /= sg.grid_size
    return out if np.ndim(lam) else complex(out[0])


def char_fn_finite(dist: PositionDistribution, lam):
    """Characteristic function of the rescaled position X_n / n at lam."""
    mask = dist.probs > 0  # parity-forbidden sites carry exact zeros
    probs = dist.probs[mask]
    out = _char_sum(lam, dist.sites()[mask] / dist.n, probs)
    return out if np.ndim(lam) else complex(out[0])


def evolve_momentum(sg: SpectralGrid, init: InitialState, n: int) -> PositionDistribution:
    """Reconstruct the n-step position distribution from momentum space.

    W(p)^n is applied spectrally and inverted with an FFT; exact (up to
    roundoff) whenever the grid has M >= 2n + 2 so the light cone fits.
    Serves as an independent cross-check of the position-space evolution.
    """
    M = sg.grid_size
    sites = [s for s, _, _ in init.entries]
    if M < 2 * n + 2 * max(abs(s) for s in sites) + 2:
        raise ValueError("momentum grid too small for the requested step count")
    lo = min(sites) - n
    hi = max(sites) + n
    probs = np.zeros(hi - lo + 1)
    phase_n = np.exp(1j * float(n) * sg.omega)  # (bands, M)
    for site, phi, w in init.entries:
        proj_phi = np.einsum("kjab,b->kja", sg.projectors, phi)
        amp = np.einsum("kj,kja->ja", phase_n, proj_phi)
        amp *= np.exp(1j * site * sg.ps)[:, None]
        psi = np.fft.fft(amp, axis=0) / M
        p = np.sum(np.abs(psi) ** 2, axis=1)
        ks = np.arange(site - n, site + n + 1)
        probs[ks - lo] += w * p[np.mod(ks, M)]
    return PositionDistribution(offset=lo, probs=probs, n=n)
