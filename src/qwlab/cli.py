"""Command-line interface for the walk laboratory.

Subcommands: ``simulate`` (finite-time distribution CSV), ``limit`` (limit
density/CDF table), ``rates`` (convergence-rate table plus slope fits),
``bounds`` (characteristic-function bound battery), ``wavefront`` (Airy
front comparison), ``oscsum`` (oscillatory-sum experiments).  Exit codes:
0 success, 1 assertion/validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import harness, konno, wavefront
from .walk import (
    CoinParams,
    InitialState,
    distribution,
    distribution_snapshots,
    footprint_bytes,
    hadamard_coin,
)

# ``simulate``, ``rates`` and ``wavefront`` refuse a call whose arrays and
# text would pass this size, before allocating them.
MAX_SIMULATE_BYTES = 2**30
# CSV or JSON text of one site plus the Python objects that build it
# (tracemalloc peaks of a run at n = 20000: about 110 B a site for CSV and
# 390 B for JSON).
_TEXT_BYTES_PER_SITE = 512

_CONFIG_KEYS = ("coin", "preset", "phi", "n", "n-list", "out", "format", "grid")


def _parse_floats(text: str, count: int, what: str):
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(f"{what} needs {count} comma-separated numbers")
    return [float(p) for p in parts]


def _parse_coin(args) -> CoinParams:
    if args.coin is not None:
        a_re, a_im, b_re, b_im, theta = _parse_floats(args.coin, 5, "--coin")
        return CoinParams(a=complex(a_re, a_im), b=complex(b_re, b_im), theta=theta)
    preset = args.preset or "hadamard"
    if preset == "hadamard":
        return hadamard_coin()
    raise ValueError(f"unknown preset {preset!r}")


def _parse_phi(args) -> np.ndarray:
    if args.phi is None:
        return np.array([1.0, 0.0], dtype=complex)
    re1, im1, re2, im2 = _parse_floats(args.phi, 4, "--phi")
    phi = np.array([complex(re1, im1), complex(re2, im2)])
    norm = np.linalg.norm(phi)
    if not 0 < norm < np.inf:
        raise ValueError("--phi must be finite and nonzero")
    return phi / norm  # normalized on behalf of the caller


def _parse_n_list(text: str):
    """Either 'a,b,c' or geometric 'start:stop:xFACTOR'; every count at least 1."""
    if ":" in text:
        start_s, stop_s, fac_s = text.split(":")
        if not fac_s.startswith("x"):
            raise ValueError("geometric n-list syntax is start:stop:xFACTOR")
        start, stop, fac = int(start_s), int(stop_s), float(fac_s[1:])
        if start < 1 or stop < start or fac <= 1:
            raise ValueError("bad geometric n-list bounds")
        out = []
        n = float(start)
        while round(n) <= stop:
            out.append(int(round(n)))
            n *= fac
        return out
    out = [int(p) for p in text.split(",")]
    if min(out) < 1:
        raise ValueError("step counts in --n-list must be at least 1")
    return out


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _apply_config(args):
    if not args.config:
        return
    values = {}
    with open(args.config) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config lines must be key=value, got {line!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = val.strip()
    for key, val in values.items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, val)


def simulate_bytes(init: InitialState, n: int) -> int:
    """Bytes that ``simulate`` needs for n steps: the walk's arrays and the
    text of its 2n + 1 output rows."""
    return footprint_bytes(init, [n]) + _TEXT_BYTES_PER_SITE * (2 * n + 1)


def _check_size(what: str, need: int) -> None:
    if need > MAX_SIMULATE_BYTES:
        raise ValueError(
            f"{what} needs about {need} bytes, above the {MAX_SIMULATE_BYTES}-byte cap"
        )


def _cmd_simulate(args) -> int:
    coin = _parse_coin(args)
    init = InitialState.pure(_parse_phi(args))
    n = int(args.n if args.n is not None else 100)
    _check_size(f"--n {n}", simulate_bytes(init, n))
    dist = distribution(coin, init, n)
    if args.format == "json":
        doc = {"n": n, "rows": [[int(k), float(p)] for k, p in zip(dist.sites(), dist.probs)]}
        _emit(json.dumps(doc, indent=1) + "\n", args.out)
    else:
        _emit(dist.to_csv(), args.out)
    return 0


def _cmd_limit(args) -> int:
    coin = _parse_coin(args)
    kc = konno.KonnoCDF(coin, _parse_phi(args))
    count = int(args.grid if args.grid is not None else 1001)
    if count < 1:
        raise ValueError(f"--grid must be at least 1, got {count}")
    xs = np.linspace(-1.0, 1.0, count)
    if args.format == "json":
        doc = {
            "lambda": kc.lambda_c,
            "rows": [list(row) for row in kc.table(xs)],
        }
        _emit(json.dumps(doc, indent=1) + "\n", args.out)
    else:
        _emit(kc.table_csv(xs), args.out)
    return 0


def _cmd_rates(args) -> int:
    coin = _parse_coin(args)
    phi = _parse_phi(args)
    init = InitialState.pure(phi)
    n_list = _parse_n_list(args.n_list if args.n_list is not None else "128:8192:x2")
    _check_size(f"--n-list up to {max(n_list)}", footprint_bytes(init, n_list))
    table = harness.run_rate_sweep(coin, init, n_list)
    slopes = {
        col: harness.fit_slope(table, col).to_dict() for col in table.COLUMNS
    }
    if args.format == "json":
        doc = {
            "records": table.metric_records(coin, init, tol=1e-9),
            "slopes": slopes,
        }
        _emit(json.dumps(doc, indent=1, sort_keys=True) + "\n", args.out)
    else:
        _emit(table.to_csv(), args.out)
        slope_doc = json.dumps(slopes, indent=1, sort_keys=True) + "\n"
        if args.out:
            with open(str(args.out) + ".slopes.json", "w", newline="") as fh:
                fh.write(slope_doc)
        else:
            sys.stdout.write(slope_doc)
    return 0


def _cmd_bounds(args) -> int:
    coin = _parse_coin(args)
    init = InitialState.pure(_parse_phi(args))
    n_list = _parse_n_list(args.n_list if args.n_list is not None else "16:1024:x2")
    lams = [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]
    lam_grid = [-v for v in lams] + lams
    report = harness.run_bound_battery(coin, init, lam_grid, n_list)
    _emit(report.to_json() + "\n", args.out)
    return 0 if report.all_ok else 1


def _cmd_wavefront(args) -> int:
    coin = _parse_coin(args)
    phi = _parse_phi(args)
    init = InitialState.pure(phi)
    n_list = _parse_n_list(args.n_list if args.n_list is not None else "256:8192:x2")
    _check_size(f"--n-list up to {max(n_list)}", footprint_bytes(init, n_list))
    wa = wavefront.WavefrontApprox(coin, phi)
    snaps = distribution_snapshots(coin, init, n_list)
    lines = ["n,quantity,value"]
    for n in n_list:
        dist = snaps[n]
        err = max(
            wavefront.approx_error_window(wa, dist, -1),
            wavefront.approx_error_window(wa, dist, +1),
        )
        lines.append(f"{n},airy_window_max_abs_err,{err:.17g}")
        lines.append(
            f"{n},mass_lower_scaled,{wavefront.wavefront_mass_lower(dist, coin):.17g}"
        )
        lines.append(
            f"{n},mass_upper_scaled,{wavefront.wavefront_mass_upper(dist, coin):.17g}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_oscsum(args) -> int:
    n_list = _parse_n_list(args.n_list if args.n_list is not None else "4096:262144:x2")
    phase = lambda x: x
    lines = ["n,quantity,value"]
    for n in n_list:
        lines.append(
            f"{n},cancel_sum_abs,{abs(wavefront.oscillatory_sum(n, phase, 0.1)):.17g}"
        )
        lines.append(
            f"{n},riemann_quantity,{wavefront.riemann_sum_quantity(n, phase):.17g}"
        )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "limit": _cmd_limit,
    "rates": _cmd_rates,
    "bounds": _cmd_bounds,
    "wavefront": _cmd_wavefront,
    "oscsum": _cmd_oscsum,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwlab", description="coin-step quantum walk scaling laboratory"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--coin", help="a_re,a_im,b_re,b_im,theta")
        p.add_argument("--preset", help="named coin (hadamard)")
        p.add_argument("--phi", help="re1,im1,re2,im2 (normalized)")
        p.add_argument("--n", help="single step count")
        p.add_argument("--n-list", dest="n_list", help="'a,b,c' or start:stop:xFACTOR")
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--grid", help="table grid size (limit subcommand)")
        p.add_argument("--config", help="key=value file mirroring the flags")
    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        _apply_config(args)
        if args.format is None:
            args.format = "csv"
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # assertion/validation failures from the library
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
