"""Momentum-space analysis of translation-invariant walks with finite coin.

A translation-invariant step operator acts in momentum space as a p-dependent
d x d unitary W(p).  This module finds the eigenphase bands of W(p) on a
uniform grid over [0, 2pi), with their group velocities and curvatures, and
builds the asymptotic-velocity CDF and characteristic functions used by the
convergence-rate experiments.

For a two-band coin walk the bands, their derivatives and the spectral
projectors have a closed form (see :func:`decompose`).  Any other walk is
eigendecomposed point by point, its continuous bands are tracked across the
grid (including winding and band permutation at the 2pi seam) and
differentiated by finite differences; that path is the coin walks' oracle
in the tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .metrics import window_sums
from .walk import CoinParams, InitialState, PositionDistribution


class DegenerateSpectrum(Exception):
    """Two eigenphases of W(p) collide (circular gap below tolerance)."""


class BranchTrackingFailure(Exception):
    """Eigenphases could not be matched into continuous bands."""


class GridTooCoarse(Exception):
    """Finite-difference derivatives failed their grid-halving check.

    Only walks without a coin take finite differences; a coin walk's
    derivatives are exact at every grid size.
    """


_DEGENERACY_GAP = 1e-6


@dataclass(frozen=True)
class MomentumWalk:
    """Momentum representation of a walk: p in [0, 2pi) -> d x d unitary.

    ``coin`` is set for the coin walk W(p) = diag(e^{ip}, e^{-ip}) C of
    :func:`coin_step_momentum_walk`; its spectral data are then taken in
    closed form.
    """

    dim: int
    unitary_at: Callable[[float], np.ndarray]
    coin: Optional[CoinParams] = None

    def unitary_batch(self, ps: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(self.unitary_at(p), dtype=np.complex128) for p in ps])


def coin_step_momentum_walk(coin: CoinParams) -> MomentumWalk:
    """W(p) = diag(e^{ip}, e^{-ip}) C for a two-dimensional coin walk."""
    cmat = coin.matrix()

    def unitary_at(p: float) -> np.ndarray:
        shift = np.array([[np.exp(1j * p), 0.0], [0.0, np.exp(-1j * p)]])
        return shift @ cmat

    walk = MomentumWalk(dim=2, unitary_at=unitary_at, coin=coin)

    def unitary_batch(ps: np.ndarray) -> np.ndarray:
        out = np.zeros((len(ps), 2, 2), dtype=np.complex128)
        e = np.exp(1j * np.asarray(ps))
        out[:, 0, :] = e[:, None] * cmat[0]
        out[:, 1, :] = np.conj(e)[:, None] * cmat[1]
        return out

    object.__setattr__(walk, "unitary_batch", unitary_batch)
    return walk


def free_shift_walk() -> MomentumWalk:
    """The coinless shift, W(p) = e^{ip} + e^{-ip} as a direct sum."""

    def unitary_at(p: float) -> np.ndarray:
        return np.array([[np.exp(1j * p), 0.0], [0.0, np.exp(-1j * p)]])

    return MomentumWalk(dim=2, unitary_at=unitary_at, coin=None)


@dataclass(frozen=True)
class SpectralGrid:
    """Tracked eigenphase bands of W(p) on a uniform momentum grid.

    ``omega`` has shape (bands, M) and holds continuously unwrapped
    eigenphases; ``projectors`` the matching spectral projectors.  The seam
    data (``seam_perm``, ``seam_offset``) describe how each band continues
    past p = 2pi: band k continues as band seam_perm[k] lifted by
    seam_offset[k] (a multiple of 2pi).  Derivative fields are filled by
    :func:`derivatives`.
    """

    walk: MomentumWalk
    ps: np.ndarray
    omega: np.ndarray
    projectors: np.ndarray
    seam_perm: np.ndarray
    seam_offset: np.ndarray
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


def _pair_costs(phases, projs, next_phases, next_projs) -> np.ndarray:
    """cost[j, r, c] of continuing raw eigenpair r of point j as pair c of the next.

    The cost combines circular phase distance with projector Frobenius
    distance; the projector term resolves transversal band crossings, where
    the two eigenvalues trade places but the spectral projectors stay
    smooth.  Phase distances are circular, so the cost does not depend on
    how many times a band has wound.
    """
    d = phases.shape[1]
    cost = np.empty((len(phases), d, d))
    for r in range(d):
        for c in range(d):
            cost[:, r, c] = np.abs(_wrap_angle(phases[:, r] - next_phases[:, c]))
            cost[:, r, c] += np.sqrt(
                np.sum(np.abs(projs[:, r] - next_projs[:, c]) ** 2, axis=(1, 2))
            )
    return cost


def _best_matches(cost: np.ndarray) -> np.ndarray:
    """Least-total-cost permutation (row r -> column) of each d x d cost matrix.

    The argmin over all d! permutations, so ties go to the first in
    lexicographic order, the identity first.  For d = 2: identity or swap.
    """
    d = cost.shape[-1]
    perms = np.array(list(itertools.permutations(range(d))))
    totals = np.zeros((len(cost), len(perms)))
    for r in range(d):
        totals += cost[:, r, perms[:, r]]
    return perms[np.argmin(totals, axis=1)]


def _compose_prefix(maps: np.ndarray) -> np.ndarray:
    """out[j] = maps[j] o ... o maps[0] for index maps (out[j][k] = maps[j][...[maps[0][k]]]).

    A doubling scan: log2(len) vectorised compositions, exact in integers.
    """
    out = maps.copy()
    shift = 1
    while shift < len(out):
        out[shift:] = np.take_along_axis(out[shift:], out[:-shift], axis=1)
        shift *= 2
    return out


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
    theta + lift[k] + signs[k] alpha(p); as for the tracked bands, band k
    starts at the k-th smallest raw angle in (-pi, pi] at ps[0], and the
    lift (a multiple of 2pi) makes that start the raw angle.
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


def _tracked_bands(Ws: np.ndarray):
    """(omega, projectors, seam_perm, seam_offset) from eig and band tracking.

    The raw eigenpairs of consecutive grid points are matched by the
    least-cost permutation of :func:`_pair_costs`.  The match does not
    depend on the tracked order, so all M - 1 matches (and the one across
    the 2pi seam) are found at once and composed by a prefix scan; band k
    starts at the k-th smallest phase.  ``omega`` is the raw phase plus 2pi
    times the band's cumulative integer winding, so unwrapping adds no
    floating-point drift along the grid.
    """
    M, d, _ = Ws.shape
    vals, vecs = np.linalg.eig(Ws)
    phases = np.angle(vals)  # (M, d)

    # Degeneracy scan: all pairwise circular gaps at every grid point.
    for i in range(d):
        for j in range(i + 1, d):
            gaps = np.abs(_wrap_angle(phases[:, i] - phases[:, j]))
            if gaps.min() < _DEGENERACY_GAP:
                raise DegenerateSpectrum(
                    f"eigenphase gap {gaps.min():.3e} below {_DEGENERACY_GAP:.0e}"
                )

    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    point_projs = np.einsum("jak,jbk->jkab", vecs, np.conj(vecs))  # (M, d, d, d)

    # raw[j, k]: the raw eigenpair of point j that band k runs through.
    order0 = np.argsort(phases[0])
    matches = _best_matches(
        _pair_costs(phases[:-1], point_projs[:-1], phases[1:], point_projs[1:])
    )
    raw = _compose_prefix(np.concatenate([order0[None, :], matches]))
    rows = np.arange(M)[:, None]
    tracked = phases[rows, raw]  # (M, d)
    step_raw = np.diff(tracked, axis=0)
    winding = np.cumsum(
        np.rint((_wrap_angle(step_raw) - step_raw) / (2.0 * np.pi)).astype(np.int64), axis=0
    )
    omega = tracked.T.copy()
    omega[:, 1:] += 2.0 * np.pi * winding.T
    projectors = np.ascontiguousarray(np.swapaxes(point_projs[rows, raw], 0, 1))

    step = np.abs(np.diff(omega, axis=1))
    if step.max() >= np.pi / 4:
        raise BranchTrackingFailure(
            f"band phase step {step.max():.3f} exceeds pi/4; refine the grid"
        )

    # Continuation across the 2pi seam: bands may wind and may permute.
    seam_match = _best_matches(
        _pair_costs(phases[-1:], point_projs[-1:], phases[:1], point_projs[:1])
    )[0]
    seam_cols = seam_match[raw[-1]]
    inv0 = np.argsort(order0)
    seam_perm = inv0[seam_cols]  # band k continues as band seam_perm[k]
    cont = omega[:, M - 1] + _wrap_angle(phases[0, seam_cols] - omega[:, M - 1])
    if np.abs(cont - omega[:, M - 1]).max() >= np.pi / 4:
        raise BranchTrackingFailure("band phase step across the seam exceeds pi/4")
    seam_offset = cont - omega[seam_perm, 0]
    windings = seam_offset / (2.0 * np.pi)
    if np.abs(windings - np.round(windings)).max() > 1e-9:
        raise BranchTrackingFailure("seam continuation offset is not a 2pi multiple")
    seam_offset = 2.0 * np.pi * np.round(windings)
    return omega, projectors, seam_perm, seam_offset


def decompose(walk: MomentumWalk, M: int = 2**14) -> SpectralGrid:
    """The eigenphase bands and spectral projectors of W(p) on M midpoint momenta.

    A coin walk (``walk.coin`` set) takes the closed form of
    :func:`_coin_bands`: bands theta +- alpha(p), Hermitian rank-one
    projectors, the identity seam permutation and zero seam offsets.  Any
    other walk is eigendecomposed point by point and its bands are tracked
    (:func:`_tracked_bands`).  The derivative fields are left empty; see
    :func:`derivatives`.

    Raises ValueError when W(p) is not unitary within 1e-12,
    DegenerateSpectrum when eigenphases at a grid point are closer than
    1e-6 (circularly), and BranchTrackingFailure when band continuity
    |omega_k(p_{j+1}) - omega_k(p_j)| < pi/4 cannot be achieved or the
    result fails its checks: reconstruction of W(p) within 1e-9, resolution
    of identity and idempotency within 1e-10 and, for coin walks, the
    dispersion relation cos(omega - theta) = |a| cos(p + arg a) within 1e-9.
    """
    if M < 64 or M % 2:
        raise ValueError("grid size must be even and at least 64")
    d = walk.dim
    # Midpoint grid: avoids the symmetry momenta p = 0 and p = pi, where
    # walks such as the free shift have exact band crossings.
    ps = 2.0 * np.pi * (np.arange(M) + 0.5) / M
    Ws = walk.unitary_batch(ps)

    dev = np.abs(_small_matmul(Ws, np.conj(np.swapaxes(Ws, 1, 2))) - np.eye(d))
    if dev.max() > 1e-12:
        raise ValueError("unitary_at produced a non-unitary matrix")

    coin = walk.coin
    if coin is not None:
        omega, projectors = _closed_form_bands(coin, ps)
        seam_perm, seam_offset = np.arange(2), np.zeros(2)
    else:
        omega, projectors, seam_perm, seam_offset = _tracked_bands(Ws)

    recon = np.einsum("kj,kjab->jab", np.exp(1j * omega), projectors)
    frob = np.sqrt(np.sum(np.abs(recon - Ws) ** 2, axis=(1, 2)))
    if frob.max() > 1e-9:
        raise BranchTrackingFailure(
            f"spectral reconstruction error {frob.max():.3e} exceeds 1e-9"
        )

    proj_sum_dev = np.abs(projectors.sum(axis=0) - np.eye(d)).max()
    idem_dev = np.abs(_small_matmul(projectors, projectors) - projectors).max()
    if proj_sum_dev > 1e-10 or idem_dev > 1e-10:
        raise BranchTrackingFailure("projectors fail resolution-of-identity check")

    if coin is not None:
        lhs = np.cos(omega - coin.theta)
        rhs = coin.abs_a * np.cos(ps + np.angle(coin.a))
        if np.abs(lhs - rhs[None, :]).max() > 1e-9:
            raise BranchTrackingFailure("bands violate the coin dispersion relation")

    return SpectralGrid(
        walk=walk,
        ps=ps,
        omega=omega,
        projectors=projectors,
        seam_perm=seam_perm,
        seam_offset=seam_offset,
    )


def _extend_band_values(sg: SpectralGrid, pad: int = 2):
    """Band values on indices [-pad, M + pad) using the seam continuation."""
    M = sg.grid_size
    d = sg.bands
    ext_omega = np.empty((d, M + 2 * pad))
    ext_proj = np.empty((d, M + 2 * pad) + sg.projectors.shape[2:], dtype=np.complex128)
    ext_omega[:, pad : pad + M] = sg.omega
    ext_proj[:, pad : pad + M] = sg.projectors
    perm = sg.seam_perm
    inv = np.argsort(perm)
    for k in range(d):
        # Above the seam: band k continues as perm[k], lifted by the offset.
        ext_omega[k, pad + M :] = sg.omega[perm[k], :pad] + sg.seam_offset[k]
        ext_proj[k, pad + M :] = sg.projectors[perm[k], :pad]
        # Below zero: the band arriving at k from the left is inv[k].
        ext_omega[k, :pad] = sg.omega[inv[k], M - pad :] - sg.seam_offset[inv[k]]
        ext_proj[k, :pad] = sg.projectors[inv[k], M - pad :]
    return ext_omega, ext_proj


def _fd_derivatives(ext: np.ndarray, h: float, M: int, pad: int = 2):
    """Fourth-order central first and second derivatives on the core window."""
    c = ext[:, pad : pad + M]
    p1 = ext[:, pad + 1 : pad + M + 1]
    p2 = ext[:, pad + 2 : pad + M + 2]
    m1 = ext[:, pad - 1 : pad + M - 1]
    m2 = ext[:, pad - 2 : pad + M - 2]
    d1 = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
    d2 = (-p2 + 16.0 * p1 - 30.0 * c + 16.0 * m1 - m2) / (12.0 * h * h)
    return d1, d2


def _coarse_sup_curvature(sg: SpectralGrid) -> float:
    """sup |omega''| recomputed on the half grid (even-index subsample)."""
    M = sg.grid_size
    half = SpectralGrid(
        walk=sg.walk,
        ps=sg.ps[::2],
        omega=sg.omega[:, ::2],
        projectors=sg.projectors[:, ::2],
        seam_perm=sg.seam_perm,
        seam_offset=sg.seam_offset,
    )
    ext, _ = _extend_band_values(half)
    _, d2 = _fd_derivatives(ext, 2.0 * (2.0 * np.pi / M), M // 2)
    return float(np.abs(d2).max())


def derivatives(sg: SpectralGrid) -> SpectralGrid:
    """Fill group velocities, curvatures and projector-derivative norms.

    For a coin walk they are exact: with q, s and the band signs of
    :func:`_coin_bands`, omega' = +-|a| sin q / s,
    omega'' = +-|a| |b|^2 cos q / s^3 and ||Pi'|| = |n'| / 2 =
    |b| sqrt(rho) / (2 s^2).  Any other walk takes fourth-order central
    differences on the periodic grid; the curvature supremum over the half
    grid's momenta is validated against a half-grid recomputation (raises
    GridTooCoarse if they differ by more than 1e-6).
    """
    coin = sg.walk.coin
    if coin is not None:
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

    M = sg.grid_size
    h = 2.0 * np.pi / M
    ext_omega, ext_proj = _extend_band_values(sg)
    velocity, curvature = _fd_derivatives(ext_omega, h, M)

    # Both suprema over the half grid's own momenta: the full grid's even
    # indices.  Sampling the maximum at different momenta would measure grid
    # placement, not finite-difference error.
    if abs(float(np.abs(curvature[:, ::2]).max()) - _coarse_sup_curvature(sg)) > 1e-6:
        raise GridTooCoarse("sup |omega''| not stable under grid halving")

    dmat, _ = _fd_derivatives(ext_proj, h, M)
    svals = np.linalg.svd(dmat, compute_uv=False)
    proj_deriv_norm = svals[..., 0]

    return replace(
        sg, velocity=velocity, curvature=curvature, proj_deriv_norm=proj_deriv_norm
    )


def bound_constants(sg: SpectralGrid, init: InitialState) -> BoundConstants:
    """Curvature/projector/moment constants for the triangle bound.

    For a coin walk the suprema over all momenta, attained at cos q = +-1:
    sup|omega''| = |a| / |b| and sum_k sup||Pi_k'|| = sqrt(rho) / |b|.  For
    any other walk, the maxima over the grid.
    """
    if not sg.has_derivatives():
        raise ValueError("derivatives not filled; call derivatives() first")
    coin = sg.walk.coin
    if coin is not None:
        sup_curv = coin.abs_a / coin.abs_b
        sum_pd = float(np.hypot(coin.abs_a, coin.abs_b)) / coin.abs_b
    else:
        sup_curv = float(np.abs(sg.curvature).max())
        sum_pd = float(np.sum(sg.proj_deriv_norm.max(axis=1)))
    return BoundConstants(
        sup_curvature=sup_curv,
        sum_proj_deriv=sum_pd,
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
        v = np.append(sg.velocity[k], sg.velocity[sg.seam_perm[k], 0])
        m = np.append(masses[k], masses[sg.seam_perm[k], 0])
        a = np.append(sg.curvature[k], sg.curvature[sg.seam_perm[k], 0])
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


def char_fn_limit(sg: SpectralGrid, init: InitialState, lam):
    """Characteristic function of the asymptotic velocity at frequency lam.

    Evaluates (1/2pi) sum_k int e^{i lam omega_k'(p)} m_k(p) dp by the
    trapezoid rule on the periodic grid; accepts scalar or array lam.
    """
    if not sg.has_derivatives():
        raise ValueError("derivatives not filled; call derivatives() first")
    masses = _band_masses(sg, init).ravel()
    v = sg.velocity.ravel()
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.empty(len(lams), dtype=np.complex128)
    chunk = max(1, int(2**22) // max(len(v), 1))
    for s in range(0, len(lams), chunk):
        phase = lams[s : s + chunk, None] * v[None, :]
        out[s : s + chunk] = np.cos(phase) @ masses + 1j * (np.sin(phase) @ masses)
    out /= sg.grid_size
    return out if np.ndim(lam) else complex(out[0])


def char_fn_finite(dist: PositionDistribution, lam):
    """Characteristic function of the rescaled position X_n / n at lam."""
    mask = dist.probs > 0  # parity-forbidden sites carry exact zeros
    probs = dist.probs[mask]
    scaled = dist.sites()[mask] / dist.n
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    out = np.empty(len(lams), dtype=np.complex128)
    chunk = max(1, int(2**22) // max(len(scaled), 1))
    for s in range(0, len(lams), chunk):
        phase = lams[s : s + chunk, None] * scaled[None, :]
        out[s : s + chunk] = np.cos(phase) @ probs + 1j * (np.sin(phase) @ probs)
    return out if np.ndim(lam) else complex(out[0])


def check_triangle_bound(
    sg: SpectralGrid, init: InitialState, dist: PositionDistribution, lam: float
):
    """Evaluate both sides of the characteristic-function triangle bound.

    lhs = |char_finite(lam) - char_limit(lam)| for the rescaled position;
    rhs = (lam^2 / n) sup|omega''| + (|lam| / n)(tr(|X|rho) + sum_k sup||Pi_k'||).
    Returns (lhs, rhs, ok) with ok = lhs <= rhs + 1e-8.
    """
    consts = bound_constants(sg, init)
    n = dist.n
    lhs = abs(char_fn_finite(dist, lam) - char_fn_limit(sg, init, lam))
    rhs = (lam * lam / n) * consts.sup_curvature + (abs(lam) / n) * (
        consts.abs_position_moment + consts.sum_proj_deriv
    )
    return lhs, rhs, lhs <= rhs + 1e-8


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
