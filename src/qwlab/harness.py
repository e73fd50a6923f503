"""Experiment orchestration: rate sweeps, slope fits and bound batteries.

Everything here is a deterministic pure pipeline over the other modules:
evolve the walk to geometric step counts, measure Kolmogorov/Levy distances
against the closed-form limit, evaluate the characteristic-function bounds,
and fit log-log slopes.  Tables serialize to CSV with 17 significant digits
so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import konno, metrics, spectral
from .walk import CoinParams, InitialState, distribution_snapshots, rescaled_cdf
from .wavefront import wavefront_mass_lower

MAX_SWEEP_N = 2**14


class NonPositiveValue(Exception):
    """Log-log fitting needs strictly positive values."""


@dataclass(frozen=True)
class RateRow:
    n: int
    kolmogorov: float
    levy: float
    zolotarev_bound: float
    left_tail_scaled: float


@dataclass(frozen=True)
class RateTable:
    rows: tuple

    COLUMNS = ("kolmogorov", "levy", "zolotarev_bound", "left_tail_scaled")

    def __post_init__(self):
        ns = [r.n for r in self.rows]
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("rows must have strictly increasing n")

    def ns(self) -> np.ndarray:
        return np.array([r.n for r in self.rows])

    def column(self, name: str) -> np.ndarray:
        if name not in self.COLUMNS:
            raise KeyError(f"unknown column {name!r}")
        return np.array([getattr(r, name) for r in self.rows])

    def to_csv(self) -> str:
        lines = ["n,kolmogorov,levy,zolotarev_bound,left_tail_scaled"]
        for r in self.rows:
            lines.append(
                f"{r.n},{r.kolmogorov:.17g},{r.levy:.17g},"
                f"{r.zolotarev_bound:.17g},{r.left_tail_scaled:.17g}"
            )
        return "\n".join(lines) + "\n"

    def metric_records(self, coin: CoinParams, init: InitialState, tol: float):
        """Flat JSON-ready records {metric, value, tol, n, coin, phi} per cell."""
        coin_doc = [coin.a.real, coin.a.imag, coin.b.real, coin.b.imag, coin.theta]
        phis = [
            [phi[0].real, phi[0].imag, phi[1].real, phi[1].imag]
            for _, phi, _ in init.entries
        ]
        phi_doc = phis[0] if len(phis) == 1 else phis
        out = []
        for r in self.rows:
            for name in self.COLUMNS:
                out.append(
                    {
                        "metric": name,
                        "value": getattr(r, name),
                        "tol": tol,
                        "n": r.n,
                        "coin": coin_doc,
                        "phi": phi_doc,
                    }
                )
        return out


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    n_range: tuple

    def to_dict(self):
        return {
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            "n_range": list(self.n_range),
        }


def fit_power_law(ns, values) -> SlopeFit:
    """Least-squares slope of log(value) against log(n)."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(ns) < 5:
        raise ValueError("power-law fits need at least 5 points")
    if np.any(values <= 0):
        raise NonPositiveValue("power-law fits need strictly positive values")
    x = np.log(ns)
    y = np.log(values)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), res, *_ = np.linalg.lstsq(A, y, rcond=None)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    ss_res = float(np.sum((A @ np.array([slope, intercept]) - y) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        n_range=(int(ns.min()), int(ns.max())),
    )


def fit_slope(table: RateTable, column: str) -> SlopeFit:
    return fit_power_law(table.ns(), table.column(column))


def _cached_vector(fn):
    """Memoize an array->array callable on the exact values of the grid."""
    cache = {}

    def wrapped(lams):
        key = np.asarray(lams, dtype=float).tobytes()
        if key not in cache:
            cache[key] = fn(lams)
        return cache[key]

    return wrapped


def run_rate_sweep(
    coin: CoinParams,
    init: InitialState,
    n_list,
    tol: float = 1e-9,
    char_grid: int = 2**12,
) -> RateTable:
    """Measure all convergence-rate columns over a sweep of step counts.

    For each n: evolve, build the rescaled step CDF, compute Kolmogorov and
    Levy distances to the closed-form limit, evaluate the smoothing bound at
    slack n^{-1/3} and support radius 1 + max|site| / n (the limit lies
    within |a| <= 1), and record the scaled left-front tail mass.  Tables
    are never emitted partially: any failure aborts the sweep.
    """
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])) or n_list[0] < 1:
        raise ValueError("n_list must be strictly increasing and positive")
    if n_list[-1] > MAX_SWEEP_N:
        raise ValueError(f"sweep step counts capped at {MAX_SWEEP_N}")

    max_site = max(abs(site) for site, _, _ in init.entries)
    limit = konno.limit_cdf(coin, init)
    sg = spectral.derivatives(spectral.decompose(spectral.coin_step_momentum_walk(coin), char_grid))
    char_g = _cached_vector(lambda lams: spectral.char_fn_limit(sg, init, lams))
    zw = metrics.default_weights()
    snaps = distribution_snapshots(coin, init, n_list)

    rows = []
    for n in n_list:
        dist = snaps[n]
        F = rescaled_cdf(dist)
        kol = metrics.kolmogorov(F, limit)
        lev = metrics.levy(F, limit, tol=tol)
        eps = float(n) ** (-1.0 / 3.0)
        zb = metrics.zolotarev_bound(
            lambda lams: spectral.char_fn_finite(dist, lams),
            char_g,
            eps,
            zw,
            radius=1.0 + max_site / n,
        )
        tail = wavefront_mass_lower(dist, coin)
        rows.append(
            RateRow(
                n=n,
                kolmogorov=kol,
                levy=lev,
                zolotarev_bound=zb,
                left_tail_scaled=tail,
            )
        )
    return RateTable(rows=tuple(rows))


@dataclass(frozen=True)
class BatteryReport:
    lambdas: np.ndarray
    ns: np.ndarray
    lhs: np.ndarray  # shape (len(ns), len(lambdas))
    rhs: np.ndarray
    ok: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(self.ok.all())

    @property
    def cells(self) -> int:
        return int(self.ok.size)

    def to_json(self) -> str:
        doc = {
            "all_ok": self.all_ok,
            "cells": self.cells,
            "lambda_grid": [float(v) for v in self.lambdas],
            "n_grid": [int(v) for v in self.ns],
            "results": [
                {
                    "n": int(n),
                    "lam": float(lam),
                    "lhs": float(self.lhs[i, j]),
                    "rhs": float(self.rhs[i, j]),
                    "ok": bool(self.ok[i, j]),
                }
                for i, n in enumerate(self.ns)
                for j, lam in enumerate(self.lambdas)
            ],
        }
        return json.dumps(doc, indent=1, sort_keys=True)


def run_bound_battery(
    coin: CoinParams,
    init: InitialState,
    lambda_grid,
    n_grid,
    char_grid: int = 2**12,
) -> BatteryReport:
    """Check the characteristic-function triangle bound on a (lam, n) lattice.

    Records lhs, rhs and the verdict for every cell; the report's ``all_ok``
    is the conjunction.  The rhs is exactly proportional to 1/n.
    """
    lambdas = np.asarray(sorted(float(v) for v in lambda_grid))
    ns = np.asarray(sorted(int(v) for v in n_grid))
    if len(lambdas) == 0 or len(ns) == 0:
        raise ValueError("grids must be nonempty")
    sg = spectral.derivatives(spectral.decompose(spectral.coin_step_momentum_walk(coin), char_grid))
    consts = spectral.bound_constants(sg, init)
    limits = spectral.char_fn_limit(sg, init, lambdas)
    snaps = distribution_snapshots(coin, init, list(ns))

    lhs = np.empty((len(ns), len(lambdas)))
    rhs = np.empty_like(lhs)
    for i, n in enumerate(ns):
        finite = spectral.char_fn_finite(snaps[int(n)], lambdas)
        lhs[i] = np.abs(finite - limits)
        rhs[i] = (
            lambdas**2 * consts.sup_curvature
            + np.abs(lambdas) * (consts.abs_position_moment + consts.sum_proj_deriv)
        ) / float(n)
    ok = lhs <= rhs + 1e-8
    return BatteryReport(lambdas=lambdas, ns=ns, lhs=lhs, rhs=rhs, ok=ok)
