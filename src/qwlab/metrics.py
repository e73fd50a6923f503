"""Probability metrics between CDFs and characteristic-function bounds.

Handles two kinds of CDF: step functions (:class:`qwlab.walk.StepCDF`) and
continuous evaluators (any callable with a ``support`` attribute, e.g.
:class:`qwlab.konno.KonnoCDF`).  The Kolmogorov distance and the Levy-metric
feasibility functionals are evaluated exactly on candidate sets derived from
the jump points whenever a step CDF is involved; purely continuous pairs fall
back to certified monotone bracketing on an adaptive grid.

Also implements the triangular smoothing family used to regularize CDFs, its
convolution with step CDFs, and an Esseen/Zolotarev-type upper bound on the
Levy metric built from weighted suprema of characteristic-function
differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .walk import StepCDF


class ContinuousPairWithoutGrid(Exception):
    """Kolmogorov distance of two continuous CDFs needs an evaluation grid."""


class PreconditionViolation(Exception):
    """A quantitative hypothesis of a transfer inequality fails."""


def _is_step(f) -> bool:
    return isinstance(f, StepCDF)


_PAIRS_PER_BLOCK = 2**20
# Entries of one block of a blocked kernel's temporary arrays (512 KiB a
# float64 array): the characteristic sums and the barycentric interpolant
# take their rows in blocks of at most this many (row x column) entries, so
# their scratch memory does not grow with the number of rows.
_BLOCK_ENTRIES = 2**16


def window_sums(start, stop, term) -> np.ndarray:
    """out[i] = sum of term(i, k) over k in [start[i], stop[i]).

    ``term`` maps equal-length arrays of point indices i and item indices k
    to the values to add.  The (i, k) pairs are formed in blocks of about
    2^20 and summed per point in order of k, so the work follows the window
    sizes and no (points x items) array is built.
    """
    counts = stop - start
    bounds = np.concatenate(([0], np.cumsum(counts)))
    out = np.zeros(len(start))
    s = 0
    while s < len(start):
        e = int(np.searchsorted(bounds, bounds[s] + _PAIRS_PER_BLOCK, side="right")) - 1
        e = min(max(e, s + 1), len(start))
        c = counts[s:e]
        point = np.repeat(np.arange(s, e), c)
        item = np.arange(bounds[s], bounds[e]) - np.repeat(bounds[s:e] - start[s:e], c)
        out[s:e] = np.bincount(point - s, weights=term(point, item), minlength=e - s)
        s = e
    return out


# ---------------------------------------------------------------------------
# Kolmogorov metric
# ---------------------------------------------------------------------------


def kolmogorov(F, G, grid=None, interval=None) -> float:
    """sup |F - G|, exact when at least one argument is a step CDF.

    For step vs continuous the supremum is attained at a jump point of the
    step argument (using both one-sided values), because the difference is
    monotone between jumps.  For step vs step the union of jump points is
    used.  Two continuous arguments require an explicit ``grid``.  With
    ``interval=(lo, hi)`` the supremum is restricted to that closed interval.
    """
    if _is_step(F) and _is_step(G):
        xs = np.union1d(F.jump_points, G.jump_points)
        cands = [
            np.abs(F.value_at(xs) - G.value_at(xs)),
            np.abs(F.left_limit_at(xs) - G.left_limit_at(xs)),
        ]
    elif _is_step(F) or _is_step(G):
        S, C = (F, G) if _is_step(F) else (G, F)
        xs = S.jump_points
        cv = np.asarray(C(xs))
        cands = [np.abs(S.value_at(xs) - cv), np.abs(S.left_limit_at(xs) - cv)]
    else:
        if grid is None:
            raise ContinuousPairWithoutGrid(
                "two continuous CDFs need an explicit evaluation grid"
            )
        xs = np.asarray(grid, dtype=float)
        cands = [np.abs(np.asarray(F(xs)) - np.asarray(G(xs)))]

    if interval is not None:
        lo, hi = interval
        mask = (xs >= lo) & (xs <= hi)
        ends = []
        for x in (lo, hi):
            fv = F.value_at(x) if _is_step(F) else float(F(x))
            gv = G.value_at(x) if _is_step(G) else float(G(x))
            ends.append(abs(fv - gv))
        inner = max(float(c[mask].max()) for c in cands) if mask.any() else 0.0
        return max(inner, *ends)
    return float(max(c.max() for c in cands))


# ---------------------------------------------------------------------------
# Levy metric
# ---------------------------------------------------------------------------


def _eval_value(f, x):
    return f.value_at(x) if _is_step(f) else np.asarray(f(x))


def _sup_shifted_diff_step(G, F, eps: float) -> float:
    """Exact sup_x [G(x) - F(x + eps)] when a step CDF is involved."""
    best = 0.0  # the x -> +inf limit of the difference is 0
    if _is_step(F):
        # Between down-jumps of F(.+eps) the difference increases; candidates
        # are the left limits at those jumps.
        xs = F.jump_points
        best = max(
            best,
            float(np.max(_eval_left(G, xs - eps) - F.left_limit_at(xs))),
        )
    if _is_step(G):
        # Right after an up-jump of G; on [g_m, g_{m+1}) the difference
        # decreases, so the left endpoint dominates.
        xs = G.jump_points
        best = max(best, float(np.max(G.value_at(xs) - _eval_value(F, xs + eps))))
    return best


def _cont_diff_exceeds(G, F, eps: float, threshold: float, tol: float) -> bool:
    """Decide sup_x [G(x) - F(x + eps)] > threshold for continuous G, F.

    Monotonicity sandwiches each grid cell [t_m, t_{m+1}] by
    G(t_{m+1}) - F(t_m + eps) from above and the endpoint values from
    below; only cells straddling the threshold get refined, so a clear-cut
    decision costs one pass.  Near-boundary answers may be off by tol/2.
    """
    lo = min(G.support[0], F.support[0] - eps) - tol
    hi = max(G.support[1], F.support[1] - eps) + tol
    left = np.linspace(lo, hi, 1025)[:-1]
    width = (hi - lo) / 1024.0
    g_l = np.asarray(G(left))
    f_l = np.asarray(F(left + eps))
    g_r = np.asarray(G(left + width))
    f_r = np.asarray(F(left + width + eps))
    widths = np.full_like(left, width)
    for _ in range(80):
        if np.max(g_l - f_l) > threshold or np.max(g_r - f_r) > threshold:
            return True
        upper = g_r - f_l
        active = upper > threshold + tol / 2
        if not active.any():
            return False
        # split the straddling cells at their midpoints
        l, w = left[active], widths[active] / 2.0
        mid = l + w
        g_m = np.asarray(G(mid))
        f_m = np.asarray(F(mid + eps))
        left = np.concatenate([l, mid])
        widths = np.concatenate([w, w])
        g_l = np.concatenate([g_l[active], g_m])
        f_l = np.concatenate([f_l[active], f_m])
        g_r = np.concatenate([g_m, g_r[active]])
        f_r = np.concatenate([f_m, f_r[active]])
    return bool(np.max(g_r - f_l) > threshold + tol / 2)


def _eval_left(f, x):
    if _is_step(f):
        return f.left_limit_at(x)
    return np.asarray(f(x))  # continuous: left limit equals the value


def levy(F, G, tol: float = 1e-9) -> float:
    """Levy metric L(F, G) by bisection over the slack parameter.

    A slack eps is feasible when sup_x [G(x) - F(x+eps)] <= eps and
    sup_x [F(x-eps) - G(x)] <= eps; both suprema are evaluated exactly at
    jump-derived candidates (shifted by +-eps, with one-sided limits) when a
    step argument is present.  Feasibility is monotone in eps, so bisection
    returns the metric within tol.  Always at most 1.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    stepwise = _is_step(F) or _is_step(G)

    def feasible(eps: float) -> bool:
        # sup_x [F(x-eps) - G(x)] equals sup_y [F(y) - G(y+eps)]
        if stepwise:
            return (
                _sup_shifted_diff_step(G, F, eps) <= eps
                and _sup_shifted_diff_step(F, G, eps) <= eps
            )
        return not _cont_diff_exceeds(G, F, eps, eps, tol) and not _cont_diff_exceeds(
            F, G, eps, eps, tol
        )

    lo, hi = 0.0, 1.0
    if feasible(0.0):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------------------------
# Smoothing family
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _irwin_hall_binoms(m: int):
    return tuple(math.comb(m, j) for j in range(m + 1))


def _irwin_hall_cdf(s, m: int):
    """CDF of the sum of m iid U[0,1] variables (piecewise degree-m polynomial).

    Evaluated by the alternating finite-difference sum; arguments above m/2
    use the symmetry F(s) = 1 - F(m - s) to keep the cancellation bounded.
    The reflected argument is at most m/2, so the terms (t - j)_+^m with
    j >= m/2 vanish and are skipped.  Double precision holds this to ~1e-12
    for m <= 12.  NaN in, NaN out.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.clip(np.minimum(s, m - s), 0.0, m)  # m - s is the lesser above m/2
    acc = t**m
    binoms = _irwin_hall_binoms(m)
    for j in range(1, (m + 1) // 2):
        term = binoms[j] * np.maximum(t - j, 0.0) ** m
        acc += term if j % 2 == 0 else -term
    vals = acc / math.factorial(m)
    out = 1.0 - vals
    np.copyto(out, vals, where=s <= m / 2.0)
    out[np.isnan(s)] = np.nan
    return out


@dataclass(frozen=True)
class SmoothingFamily:
    """Sum of ``order`` iid triangular variables on [-eps/2order, eps/2order].

    The total is supported on [-eps/2, eps/2] with a continuous piecewise
    polynomial density of degree 2*order - 1.
    """

    eps: float
    order: int = 3

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.order < 1:
            raise ValueError("order must be at least 1")

    def cdf(self, x):
        """CDF of the triangular sum, exact piecewise polynomial.

        A triangle on [-h, h] is the sum of two uniforms on [-h/2, h/2], so
        the order-n family is an Irwin-Hall sum of 2n uniforms, rescaled.
        """
        h = self.eps / (2.0 * self.order)
        vals = _irwin_hall_cdf(np.asarray(x, dtype=float) / h + self.order, 2 * self.order)
        return vals if np.ndim(x) else float(vals[0])

    def char_fn(self, lam):
        """(sin(eps lam / 2n) / (eps lam / 2n))^n with the lam=0 limit 1.

        This is the transform of the sum of ``order`` uniforms on
        [-eps/2order, eps/2order]: the same [-eps/2, eps/2] support envelope
        and lam^{-order} decay, used as the weight in the smoothing bound.
        """
        lam = np.asarray(lam, dtype=float)
        x = self.eps * lam / (2.0 * self.order)
        out = np.where(x == 0.0, 1.0, np.divide(np.sin(x), np.where(x == 0.0, 1.0, x)))
        out = out**self.order
        return out if np.ndim(lam) else float(out)


class ConvolvedCDF:
    """Continuous CDF F * Theta for a step F: sum_i dF_i Theta(x - x_i).

    Theta is 0 up to -eps/2 and 1 from eps/2 on, so only the jumps within
    eps/2 of x need it: the jumps at or below x - eps/2 add their prefix
    mass and those at or above x + eps/2 add nothing.  NaN in, NaN out.
    """

    def __init__(self, F: StepCDF, fam: SmoothingFamily):
        self._jumps = F.jump_points
        self._masses = F.jump_masses()
        self._mass_below = np.concatenate(([0.0], np.cumsum(self._masses)))
        self._fam = fam
        self.support = (
            float(F.jump_points[0] - fam.eps / 2),
            float(F.jump_points[-1] + fam.eps / 2),
        )

    def __call__(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        half = 0.5 * self._fam.eps
        start = np.searchsorted(self._jumps, xs - half, side="right")
        stop = np.searchsorted(self._jumps, xs + half, side="left")
        out = self._mass_below[start] + window_sums(
            start, stop, lambda i, k: self._fam.cdf(xs[i] - self._jumps[k]) * self._masses[k]
        )
        out[np.isnan(xs)] = np.nan
        return out if np.ndim(x) else float(out[0])


def convolve(F: StepCDF, fam: SmoothingFamily) -> ConvolvedCDF:
    """Convolution of a step CDF with the smoothing family (exact)."""
    if not _is_step(F):
        raise TypeError("convolve expects a step CDF as first argument")
    return ConvolvedCDF(F, fam)


# ---------------------------------------------------------------------------
# Esseen/Zolotarev-type bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZolotarevWeights:
    """The universal constant of the smoothing bound.

    C = int_0^inf |theta_hat(lam) / (psi_1(lam) lam)| dlam for the order-3
    sinc weight: int_0^1 |sinc(lam/6)|^3 dlam + int_1^inf lam |sinc(lam/6)|^3
    dlam.  The literal is the float that 20-point Gauss-Legendre panels per
    half-period of the sine up to 1e5 pi, closed by the mean-value tail,
    give; that quadrature is the oracle in the tests.
    """

    constant_c: float

    @classmethod
    def compute(cls) -> "ZolotarevWeights":
        return cls(constant_c=36.498845373761874)


_SMALL_GRID = np.logspace(-4, 0, 10_000)
_LAM_TRUST = 600.0  # |delta| <= 2 caps the weighted tail beyond this
# (1, 600] of the log grid over (1, 1e5]: beyond _LAM_TRUST, |delta|/lam^2 <=
# 2/lam^2 < 2/_LAM_TRUST^2, and that cap is folded into the maximum anyway.
_LARGE_GRID = np.logspace(0, 5, 2_001)[1:]
_LARGE_GRID = _LARGE_GRID[_LARGE_GRID <= _LAM_TRUST]
_INTERP_TOL = 1e-15  # target of the truncation bound that sets the node count


@lru_cache(maxsize=1)
def default_weights() -> "ZolotarevWeights":
    return ZolotarevWeights.compute()


def _node_count(half_type: float, scale: float):
    """(nodes, truncation bound) for Chebyshev interpolation of a type-1 function.

    For a function analytic in every Bernstein ellipse E_rho of the interval
    with |f| <= 2 scale exp(half_type (rho - 1/rho) / 2) there, the degree-N
    interpolant errs by at most 4 M(rho) rho^(-N) / (rho - 1) (Trefethen,
    ATAP Thm 8.2); ``half_type`` is the exponential type times the interval
    half-length.  Returns the smallest N + 1 nodes for which some rho on a
    dense log grid brings the bound to _INTERP_TOL, and that bound.
    """
    rho = 1.0 + np.logspace(-4, 2, 6_001)
    log_head = np.log(8.0 * scale / (rho - 1.0)) + half_type * (rho - 1.0 / rho) / 2.0
    degrees = np.ceil((log_head - np.log(_INTERP_TOL)) / np.log(rho))
    degree = int(degrees.min())
    return degree + 1, float(np.exp(np.min(log_head - degree * np.log(rho))))


@lru_cache(maxsize=None)
def _chebyshev_table(lo: float, hi: float, count: int):
    """Second-kind Chebyshev points of [lo, hi] and their barycentric weights.

    The nodes are rounded (by sin), so the weights are not the textbook
    +-1, +-1/2 but 1/prod_{k != j} (x_j - x_k) of the nodes as stored: the
    second barycentric formula is then the polynomial interpolant through
    them.  Each product is formed in blocks of 32 factors whose binary
    exponents are split off by frexp (exact), so nothing over- or
    underflows and every weight carries at most 2N roundings, as in
    Higham's analysis.  Built on first use, read-only.
    """
    m = count - 1
    x = np.sin(np.pi * (2.0 * np.arange(count) - m) / (2.0 * m))  # -cos(j pi/m)
    nodes = np.clip(0.5 * (hi + lo) + 0.5 * (hi - lo) * x, lo, hi)
    nodes[0], nodes[-1] = lo, hi
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    diff = np.pad(diff, ((0, 0), (0, -count % 32)), constant_values=1.0)
    mant, expo = np.frexp(diff.reshape(count, -1, 32).prod(axis=2))
    mant, top = np.frexp(mant.prod(axis=1))
    expo = expo.sum(axis=1) + top
    weights = np.ldexp(1.0 / mant, expo.max() - expo)  # common factor 2^max(expo)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _barycentric(nodes: np.ndarray, weights: np.ndarray, values: np.ndarray, xs: np.ndarray):
    """(interpolant, Lebesgue function) at xs, second barycentric form.

    The (points x nodes) arrays are formed in blocks of grid points of at
    most _BLOCK_ENTRIES entries (one point when a row is longer); each
    point's arithmetic does not depend on the block it falls in.
    """
    out = np.empty(len(xs), dtype=np.complex128)
    lebesgue = np.ones(len(xs))
    chunk = max(1, _BLOCK_ENTRIES // len(nodes))
    for s in range(0, len(xs), chunk):
        diff = xs[s : s + chunk, None] - nodes[None, :]
        exact = diff == 0.0
        c = weights / np.where(exact, 1.0, diff)
        total = c.sum(axis=1)
        block = (c @ values) / total
        leb = np.abs(c).sum(axis=1) / np.abs(total)
        hit = exact.any(axis=1)
        block[hit] = values[exact[hit].argmax(axis=1)]
        leb[hit] = 1.0
        out[s : s + chunk] = block
        lebesgue[s : s + chunk] = leb
    return out, lebesgue


def _interpolate(fn, grid: np.ndarray, radius: float, scale: float):
    """(fn at grid, error bound) from Chebyshev nodes on [grid[0], grid[-1]].

    ``fn`` must be entire with |fn(z)| <= 2 scale e^{radius |Im z|}.  Let p
    be its interpolant at the exact Chebyshev points, |fn - p| <= T on the
    interval by :func:`_node_count`, and q its interpolant at the rounded
    nodes, with Lebesgue function L.  q reproduces p, so q - p is the
    interpolant of p - fn at the rounded nodes, and
    |fn - q| <= T (1 + L) at every grid point.  Evaluating q adds Higham's
    first-order rounding bound for the second barycentric formula with
    weights computed from the nodes (IMA J. Numer. Anal. 24, 2004),
    (6N + 6) u L max(|fn(node)|, |q|) for degree N and unit roundoff u.
    The error bound is twice the sum of the two, with L at its largest over
    the grid: the doubling covers the O(u^2) terms and the relative errors, of
    order Nu, of T, L and q as computed.
    """
    lo, hi = float(grid[0]), float(grid[-1])
    count, truncation = _node_count(radius * (hi - lo) / 2.0, scale)
    nodes, weights = _chebyshev_table(lo, hi, count)
    values = np.asarray(fn(nodes), dtype=np.complex128)
    interpolant, lebesgue = _barycentric(nodes, weights, values, grid)
    size = max(float(np.abs(values).max()), float(np.abs(interpolant).max()))
    leb = float(lebesgue.max())
    rounding = 0.5 * np.finfo(float).eps * (6 * count) * leb * size  # eps = 2u
    return interpolant, 2.0 * (truncation * (1.0 + leb) + rounding)


def zolotarev_bound(char_f, char_g, eps: float, zw: ZolotarevWeights, *, radius: float) -> float:
    """eps + eps^{-2} C max(sup_{lam<=1} |delta/lam|, sup_{lam>1} |delta/lam^2|).

    ``char_f`` and ``char_g`` must accept arrays of frequencies and be the
    characteristic functions of probability laws on [-radius, radius]; then
    delta = char_f - char_g and delta/lam are entire of exponential type
    ``radius``, bounded by 2 e^{radius |Im lam|} and 2 radius e^{radius |Im lam|}.

    The small supremum is taken over a 1e4-point log grid on [1e-4, 1], the
    large one over the log grid points of (1, 600]; beyond 600 the cap
    2/600^2 >= |delta|/lam^2 is folded into the maximum, so dropping those
    points is exact and the result stays a valid upper bound for the Levy
    metric.  Neither characteristic function is sampled on the grids:
    delta/lam on [1e-4, 1] and delta on the large interval are interpolated
    from Chebyshev points, as few as make the ATAP Thm 8.2 truncation bound
    at most 1e-15 (13 and 378 points at radius 1, more for a wider
    support), and each supremum is raised by the error bound of
    :func:`_interpolate`, so the result is never below the suprema of the
    sampled values.  ``radius`` has no default: a support wider than the
    one stated would void the truncation bound.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("eps must lie in (0, 1]")
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")

    def delta(lams):
        return np.asarray(char_f(lams)) - np.asarray(char_g(lams))

    h, err_small = _interpolate(lambda lams: delta(lams) / lams, _SMALL_GRID, radius, radius)
    sup_small = float(np.max(np.abs(h))) + err_small
    d, err_large = _interpolate(delta, _LARGE_GRID, radius, 1.0)
    sup_large = float(np.max(np.abs(d) / _LARGE_GRID**2)) + err_large
    sup_large = max(sup_large, 2.0 / _LAM_TRUST**2)
    return eps + zw.constant_c / (eps * eps) * max(sup_small, sup_large)


# ---------------------------------------------------------------------------
# Smooth-region transfer
# ---------------------------------------------------------------------------


def smooth_region_transfer(F, G, interval, g_prime_sup: float, levy_value: float) -> float:
    """Upper bound (1 + sup_I |G'|) L(F, G) for sup_I |F - G|.

    Valid when G is continuously differentiable on an open region containing
    ``interval`` with margin larger than the Levy distance; ``G.support`` is
    taken as that region.  Raises PreconditionViolation when the margin
    condition fails.
    """
    lo, hi = interval
    slo, shi = G.support
    margin = min(lo - slo, shi - hi)
    if not margin > levy_value:
        raise PreconditionViolation(
            f"Levy value {levy_value:.3e} is not below the interval margin {margin:.3e}"
        )
    return (1.0 + g_prime_sup) * levy_value
