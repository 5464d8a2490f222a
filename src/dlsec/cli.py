"""Command-line surface: bounds, SNR sweeps, protocol simulation, validation.

Subcommands:
    bounds     print the four delay-limited secrecy bounds plus the
               high-SNR limit as JSON
    sweep      CSV of the bounds over an SNR grid
    simulate   run one protocol ledger and write its JSON/CSV report
    validate   cross-check quadrature against Monte Carlo and the fixed
               point against a grid scan

Exit codes are a stable contract: 0 success, 2 usage/parse error,
3 infeasible model (e.g. a non-invertible channel with an inversion-only
policy menu), 4 validation failure.

SNR convention: pbar_db = 10*log10(p_bar) with unit noise variance.
Flags override an optional plain-text config file of ``key = value`` lines
(unknown keys are errors).  The environment variable DST_SEED supplies the
default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .bounds import (fixed_point_rate, high_snr_limit, lower_full, lower_main,
                     resolve_menu_entry, upper_full, upper_main)
from .fading import joint_grid, parse_distribution
from .numerics import RngSeed, mc_expect, weighted_sum
from .policy import NonInvertibleChannelError, calibrate, expected_power
from .protocol import SCHEMES, SimConfig, simulate
from .rates import (delay_floor, ergodic_secrecy_rate, per_state_rates,
                    secrecy_gap)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

LN2 = math.log(2.0)

_FALLBACK_SEED = 12345


def _parse_bool(text) -> bool:
    if isinstance(text, bool):
        return text
    t = str(text).strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_policy_list(text) -> list[str]:
    if isinstance(text, list):
        return text
    items = [p.strip() for p in str(text).split(",") if p.strip()]
    if not items:
        raise ValueError("empty policy list")
    return items


# dest -> (default, cast used for config-file values); None defaults that
# stay None mean "not set" and are resolved per command
_DEFAULTS: dict[str, dict[str, tuple[object, type | object]]] = {
    "bounds": {
        "dist_m": ("chisq:4", str),
        "dist_e": ("chisq:4", str),
        "pbar_db": (20.0, float),
        "policy": (None, _parse_policy_list),
        "q_kappa": (None, float),
        "nodes": (200, int),
        "bits": (False, _parse_bool),
        "seed": (None, int),
    },
    "sweep": {
        "dist_m": ("chisq:4", str),
        "dist_e": ("chisq:4", str),
        "snr_db_grid": ("0:40:5", str),
        "policy": (None, _parse_policy_list),
        "q_kappa": (None, float),
        "nodes": (200, int),
        "out": (None, str),
        "seed": (None, int),
    },
    "simulate": {
        "scheme": ("full", str),
        "dist_m": ("chisq:4", str),
        "dist_e": ("chisq:4", str),
        "policy": (None, str),
        "pbar_db": (20.0, float),
        "a": (500, int),
        "b": (20, int),
        "n1": (10_000, int),
        "delta": (0.05, float),
        "q_kappa": (0.0, float),
        "init": ("insecure", str),
        "out": ("simreport", str),
        "nodes": (200, int),
        "seed": (None, int),
    },
    "validate": {
        "quick": (False, _parse_bool),
        "max_sigma": (4.0, float),
        "nodes": (200, int),
        "seed": (None, int),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlsec",
        description="Delay-limited secrecy bounds and key-renewal protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="plain-text config file of key = value lines")
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default: $DST_SEED or 12345)")
        p.add_argument("--nodes", type=int, default=None,
                       help="quadrature nodes per dimension")

    p = sub.add_parser("bounds", help="print the four bounds plus the high-SNR limit")
    p.add_argument("--dist-m", default=None, help="main gain law, e.g. chisq:4")
    p.add_argument("--dist-e", default=None, help="eavesdropper gain law")
    p.add_argument("--pbar-db", type=float, default=None,
                   help="average power budget in dB (use =-inf for zero power)")
    p.add_argument("--policy", action="append", default=None,
                   help="restrict the family menu (repeatable)")
    p.add_argument("--q-kappa", type=float, default=None,
                   help="pin q(h) = max(h_e, kappa) instead of optimizing")
    p.add_argument("--bits", action="store_const", const=True, default=None,
                   help="also report values in bits/use")
    add_common(p)

    p = sub.add_parser("sweep", help="CSV of the bounds over an SNR grid")
    p.add_argument("--dist-m", default=None)
    p.add_argument("--dist-e", default=None)
    p.add_argument("--snr-db-grid", default=None,
                   help="grid: 'start:stop:step' (inclusive) or comma list")
    p.add_argument("--policy", action="append", default=None)
    p.add_argument("--q-kappa", type=float, default=None)
    p.add_argument("--out", default=None, help="output CSV path (default stdout)")
    add_common(p)

    p = sub.add_parser("simulate", help="run one protocol ledger")
    p.add_argument("--scheme", choices=SCHEMES, default=None)
    p.add_argument("--dist-m", default=None)
    p.add_argument("--dist-e", default=None)
    p.add_argument("--policy", default=None, help="policy grammar, e.g. full-inv")
    p.add_argument("--pbar-db", type=float, default=None)
    p.add_argument("-a", type=int, default=None, help="blocks per super-block")
    p.add_argument("-b", type=int, default=None, help="super-block count")
    p.add_argument("--n1", type=int, default=None, help="symbols per block")
    p.add_argument("--delta", type=float, default=None, help="scheduling backoff in [0,1)")
    p.add_argument("--q-kappa", type=float, default=None)
    p.add_argument("--init", choices=("insecure", "dedicated"), default=None,
                   help="super-block-1 handling")
    p.add_argument("--out", default=None, help="output prefix for .json/.csv")
    add_common(p)

    p = sub.add_parser("validate", help="numeric cross-checks; nonzero exit on failure")
    p.add_argument("--quick", action="store_const", const=True, default=None,
                   help="smaller sample sizes, subset of checks")
    p.add_argument("--max-sigma", type=float, default=None,
                   help="agreement tolerance in standard errors (testing hook)")
    add_common(p)

    return parser


def _read_config_file(path: str, known: dict) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, val = line.partition("=")
            dest = key.strip().lower().replace("-", "_")
            if dest not in known:
                raise ValueError(f"{path}:{lineno}: unknown key {key.strip()!r}")
            cast = known[dest][1]
            values[dest] = cast(val.strip())
    return values


def _resolve_options(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file, then from defaults."""
    known = _DEFAULTS[args.command]
    file_values = _read_config_file(args.config, known) if args.config else {}
    for dest, (default, _cast) in known.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, file_values.get(dest, default))
    if args.seed is None:
        args.seed = int(os.environ.get("DST_SEED", str(_FALLBACK_SEED)))
    return args


def _pbar_from_db(db: float) -> float:
    if db == -math.inf:
        return 0.0
    return 10.0 ** (db / 10.0)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _precheck_menu(menu, dist_m, dist_e, p_bar) -> None:
    """An explicitly requested menu must contain a calibratable family."""
    errors = []
    for entry in menu:
        family, h_min = resolve_menu_entry(entry, dist_m)
        try:
            calibrate(family, dist_m, dist_e, p_bar, h_min)
            return
        except NonInvertibleChannelError as err:
            errors.append(str(err))
    raise NonInvertibleChannelError(errors[0] if errors else "no usable policy family")


def _bound_json(result, bits: bool) -> dict:
    pol = result.policy
    out = {
        "value": result.value,
        "policy": {"family": pol.family, "c": pol.c, "h_min": pol.h_min},
        "diagnostics": _jsonable(result.diagnostics),
    }
    if bits:
        out["value_bits"] = result.value / LN2
    return out


def cmd_bounds(args) -> int:
    dist_m = parse_distribution(args.dist_m)
    dist_e = parse_distribution(args.dist_e)
    p_bar = _pbar_from_db(args.pbar_db)
    menu = args.policy
    if menu is not None:
        _precheck_menu(menu, dist_m, dist_e, p_bar)
    kwargs = dict(family_menu=menu, nodes=args.nodes)
    limit = high_snr_limit(dist_m, dist_e, nodes=max(args.nodes, 400))
    doc = {
        "p_bar": p_bar,
        "p_bar_db": args.pbar_db,
        "dist_m": dist_m.spec(),
        "dist_e": dist_e.spec(),
        "upper_full": _bound_json(upper_full(dist_m, dist_e, p_bar, **kwargs), args.bits),
        "lower_full": _bound_json(
            lower_full(dist_m, dist_e, p_bar, q_kappa=args.q_kappa, **kwargs), args.bits),
        "upper_main": _bound_json(upper_main(dist_m, dist_e, p_bar, **kwargs), args.bits),
        "lower_main": _bound_json(lower_main(dist_m, dist_e, p_bar, **kwargs), args.bits),
        "high_snr_limit": {"value": limit.value, "invertible": limit.invertible},
    }
    if args.bits:
        doc["high_snr_limit"]["value_bits"] = limit.value / LN2
    print(json.dumps(_jsonable(doc), indent=2, sort_keys=True))
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid {text!r}: want start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid {text!r}: need stop >= start and step > 0")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        grid = [start + i * step for i in range(count)]
    else:
        grid = [float(p) for p in text.split(",") if p.strip()]
    if not grid:
        raise ValueError(f"bad grid {text!r}: empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"bad grid {text!r}: must be strictly ascending")
    return grid


def cmd_sweep(args) -> int:
    dist_m = parse_distribution(args.dist_m)
    dist_e = parse_distribution(args.dist_e)
    grid = _parse_grid(args.snr_db_grid)
    menu = args.policy
    if menu is not None:
        _precheck_menu(menu, dist_m, dist_e, _pbar_from_db(grid[-1]))
    limit = high_snr_limit(dist_m, dist_e, nodes=max(args.nodes, 400))
    lines = ["snr_db,upper_full,lower_full,upper_main,lower_main,high_snr_limit"]
    for snr_db in grid:
        p_bar = _pbar_from_db(snr_db)
        uf = upper_full(dist_m, dist_e, p_bar, family_menu=menu, nodes=args.nodes)
        lf = lower_full(dist_m, dist_e, p_bar, family_menu=menu,
                        q_kappa=args.q_kappa, nodes=args.nodes)
        um = upper_main(dist_m, dist_e, p_bar, family_menu=menu, nodes=args.nodes)
        lm = lower_main(dist_m, dist_e, p_bar, family_menu=menu, nodes=args.nodes)
        lines.append(",".join([
            repr(float(snr_db)), repr(uf.value), repr(lf.value),
            repr(um.value), repr(lm.value), repr(limit.value),
        ]))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    config = SimConfig(
        scheme=args.scheme,
        dist_m=parse_distribution(args.dist_m),
        dist_e=parse_distribution(args.dist_e),
        p_bar=_pbar_from_db(args.pbar_db),
        policy=args.policy or "",
        b=args.b, a=args.a, n1=args.n1,
        delta=args.delta, q_kappa=args.q_kappa, init=args.init,
        seed=RngSeed(args.seed), nodes=args.nodes,
    )
    report = simulate(config)
    json_path = args.out + ".json"
    csv_path = args.out + ".csv"
    with open(json_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(report.csv_text())
    print("starvation={k} insecure_frac={f:.6f} outage_frac={g:.6f} roundtrip={ok}".format(
        k=report.starvation_events,
        f=report.insecure_fraction,
        g=report.outage_fraction,
        ok="true" if report.roundtrip_ok else "false",
    ))
    return EXIT_OK


def _fixed_point_scan_gap(dist_m, dist_e, p_bar, nodes, grid_points) -> float:
    """|Newton fixed point - brute-force grid argmin of |g|| for main-inv."""
    pol = calibrate("main-inv", dist_m, dist_e, p_bar)
    r_star, _ = fixed_point_rate(pol, dist_m, dist_e, nodes)
    r_d = delay_floor(pol, dist_m)
    gap, _ = secrecy_gap(pol, dist_m, dist_e, nodes)
    w = joint_grid(dist_m, dist_e, nodes)[2]
    grid = np.linspace(0.0, r_d, grid_points)
    g = np.empty_like(grid)
    for i in range(0, grid.size, 512):
        chunk = grid[i:i + 512]
        k = weighted_sum(w, np.maximum(gap[None, :] - chunk[:, None], 0.0))
        g[i:i + 512] = chunk - np.minimum(k, r_d)
    best = float(grid[int(np.argmin(np.abs(g)))])
    return abs(r_star - best)


def cmd_validate(args) -> int:
    n = 100_000 if args.quick else 1_000_000
    sigma = args.max_sigma
    seed = args.seed
    checks: list[tuple[str, float, float, float]] = []  # name, quad, mc, tol

    pairs = [
        ("chisq:4", "chisq:4", "const"),
        ("chisq:4", "chisq:4", "full-inv"),
        ("chisq:4", "chisq:4", "main-inv"),
        ("gamma:2:1", "gamma:2:1", "main-inv"),
        ("exp:1", "chisq:4", "const"),
        ("chisq:4", "gamma:2:1", "full-inv"),
    ]
    if args.quick:
        pairs = pairs[:3]
    p_bar = 100.0
    stream = 0
    for spec_m, spec_e, family in pairs:
        dist_m = parse_distribution(spec_m)
        dist_e = parse_distribution(spec_e)
        pol = calibrate(family, dist_m, dist_e, p_bar)
        name = f"secrecy-rate[{spec_m}/{spec_e}/{family}]"
        quad = ergodic_secrecy_rate(pol, dist_m, dist_e, args.nodes)
        est = mc_expect(lambda st, pol=pol: per_state_rates(pol, st).r_s,
                        dist_m, dist_e, n, RngSeed(seed, stream))
        checks.append((name, quad, est.mean, sigma * est.stderr + 1e-9))
        stream += 1

    # calibrated average power hits the budget
    dist = parse_distribution("chisq:4")
    pol = calibrate("full-inv", dist, dist, p_bar)
    quad = expected_power(pol, dist, dist, args.nodes)
    est = mc_expect(lambda st: pol.power(st.h_m, st.h_e), dist, dist, n,
                    RngSeed(seed, stream))
    stream += 1
    checks.append(("calibration[chisq:4/full-inv] moment", quad, p_bar, 1e-9 * p_bar))
    checks.append(("calibration[chisq:4/full-inv] mc", est.mean, p_bar,
                   sigma * est.stderr + 1e-9))

    # high-SNR limit: accurate quadrature against Monte Carlo
    limit = high_snr_limit(dist, dist)
    est = mc_expect(lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
                    dist, dist, n, RngSeed(seed, stream))
    stream += 1
    checks.append(("high-snr-limit[chisq:4]", limit.value, est.mean,
                   sigma * est.stderr + 1e-9))

    failures = []
    for name, got, want, tol in checks:
        ok = abs(got - want) <= tol
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got:.6f} vs {want:.6f} "
              f"(tol {tol:.2e})")
        if not ok:
            failures.append(name)

    scan_points = 2_001 if args.quick else 10_001
    gap = _fixed_point_scan_gap(dist, dist, p_bar, args.nodes, scan_points)
    fp_tol = delay_floor(calibrate("main-inv", dist, dist, p_bar), dist) / (scan_points - 1)
    ok = gap <= fp_tol
    print(f"{'ok  ' if ok else 'FAIL'} fixed-point[chisq:4/main-inv]: "
          f"grid gap {gap:.3e} (tol {fp_tol:.3e})")
    if not ok:
        failures.append("fixed-point[chisq:4/main-inv]")

    if failures:
        print("validation failed for: " + ", ".join(failures))
        return EXIT_VALIDATION
    print("all validation checks passed")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _resolve_options(args)
        handler = {
            "bounds": cmd_bounds,
            "sweep": cmd_sweep,
            "simulate": cmd_simulate,
            "validate": cmd_validate,
        }[args.command]
        return handler(args)
    except NonInvertibleChannelError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
