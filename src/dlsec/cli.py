"""Command-line surface: bounds, SNR sweeps, protocol simulation, validation.

Subcommands:
    bounds     print the four delay-limited secrecy bounds plus the
               high-SNR limit as JSON
    sweep      CSV of the bounds over an SNR grid
    simulate   run one protocol ledger and write its JSON/CSV report
    validate   cross-check quadrature against Monte Carlo and the Newton
               fixed point against a bisection of the key balance

Exit codes are a stable contract: 0 success, 2 usage/parse error,
3 infeasible model (e.g. a non-invertible channel with an inversion-only
policy menu), 4 validation failure.

SNR convention: pbar_db = 10*log10(p_bar) with unit noise variance.
Flags override an optional plain-text config file of ``key = value`` lines
(unknown keys are errors).  The environment variable DST_SEED supplies the
default seed of the two commands that draw samples, simulate and validate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .bounds import (fixed_point_rate, high_snr_limit, key_rate, lower_full, lower_main,
                     upper_full, upper_main, usable)
from .fading import pair_rule, parse_distribution
from .numerics import RngSeed, _check_nodes, flip_point, mc_expect
from .policy import NonInvertibleChannelError, calibrate, expected_power
from .protocol import INIT_MODES, SCHEMES, SimConfig, simulate
from .rates import ergodic_secrecy_rate, per_state_rates, secrecy_gap

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3
EXIT_VALIDATION = 4

LN2 = math.log(2.0)

_FALLBACK_SEED = 12345
_MAX_GRID_POINTS = 100_000  # of a start:stop:step sweep grid
MAX_SIGMA = 4.0  # validate's agreement tolerance, in standard errors
FIXED_POINT_TOL = 1e-12  # validate's Newton-vs-bisection tolerance, relative to R_d


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_policy_list(text: str) -> list[str]:
    items = [p.strip() for p in text.split(",") if p.strip()]
    if not items:
        raise ValueError("empty policy list")
    return items


def _opt(default=None, cast=str, **argparse_kw) -> tuple:
    return default, cast, argparse_kw


# Every option of every command, once: dest -> (default, cast of a flag or
# config-file value, other argparse settings).  A one-letter dest is the flag
# -a, any other is --dist-m and so on.  argparse leaves every option at None,
# "not given", so a flag wins over the config file and the file over the
# default here; a None default stays None and is resolved per command.
_DIST = {
    "dist_m": _opt("chisq:4", help="main gain law, e.g. chisq:4"),
    "dist_e": _opt("chisq:4", help="eavesdropper gain law"),
}
_MENU = {
    "policy": _opt(cast=_parse_policy_list, action="extend",
                   help="restrict the family menu: a comma list (repeatable)"),
    "q_kappa": _opt(cast=float, help="pin q(h) = max(h_e, kappa) instead of optimizing"),
}
_NODES = {"nodes": _opt(200, int, help="quadrature nodes per dimension")}
_SEED = {"seed": _opt(cast=int, help="RNG seed (default: $DST_SEED or 12345)")}
# simulate's run settings are declared once, with their defaults, in SimConfig
_SIM_DEFAULTS = {f.name: f.default for f in fields(SimConfig)}
_COMMANDS: dict[str, tuple[str, dict[str, tuple]]] = {
    "bounds": ("print the four bounds plus the high-SNR limit", {
        **_DIST,
        "pbar_db": _opt(20.0, float,
                        help="average power budget in dB (use =-inf for zero power)"),
        **_MENU,
        "bits": _opt(False, _parse_bool, action="store_const", const=True,
                     help="also report values in bits/use"),
        **_NODES,
    }),
    "sweep": ("CSV of the bounds over an SNR grid", {
        **_DIST,
        "snr_db_grid": _opt("0:40:5",
                            help="grid: 'start:stop:step' (inclusive) or comma list"),
        **_MENU,
        "out": _opt(help="output CSV path (default stdout)"),
        **_NODES,
    }),
    "simulate": ("run one protocol ledger", {
        "scheme": _opt("full", choices=SCHEMES),
        **_DIST,
        "policy": _opt(help="policy grammar, e.g. full-inv"),
        "pbar_db": _opt(20.0, float, help="average power budget in dB"),
        "a": _opt(_SIM_DEFAULTS["a"], int, help="blocks per super-block"),
        "b": _opt(_SIM_DEFAULTS["b"], int, help="super-block count"),
        "n1": _opt(_SIM_DEFAULTS["n1"], int, help="symbols per block"),
        "delta": _opt(_SIM_DEFAULTS["delta"], float, help="scheduling backoff in [0,1)"),
        "q_kappa": _MENU["q_kappa"],
        "init": _opt(_SIM_DEFAULTS["init"], choices=INIT_MODES,
                     help="super-block-1 handling"),
        "out": _opt("simreport", help="output prefix for .json/.csv"),
        **_NODES,
        **_SEED,
    }),
    "validate": ("numeric cross-checks; nonzero exit on failure", {
        "quick": _opt(False, _parse_bool, action="store_const", const=True,
                      help="smaller sample sizes, subset of checks"),
        **_NODES,
        **_SEED,
    }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dlsec",
        description="Delay-limited secrecy bounds and key-renewal protocol simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for dest, (_default, cast, kw) in options.items():
            flag = "-" + dest if len(dest) == 1 else "--" + dest.replace("_", "-")
            if kw.get("action") != "store_const":  # store_const takes no cast
                kw = dict(kw, type=cast)
            p.add_argument(flag, default=None, **kw)
        p.add_argument("--config", help="plain-text config file of key = value lines")
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
            values[dest] = known[dest][1](val.strip())
    return values


def _resolve_options(args: argparse.Namespace) -> argparse.Namespace:
    """Fill unset options from the config file, then from defaults."""
    known = _COMMANDS[args.command][1]
    file_values = _read_config_file(args.config, known) if args.config else {}
    for dest, (default, _cast, _kw) in known.items():
        if getattr(args, dest, None) is None:
            setattr(args, dest, file_values.get(dest, default))
    if "seed" in known and args.seed is None:  # only the commands that draw samples
        args.seed = int(os.environ.get("DST_SEED", str(_FALLBACK_SEED)))
    args.nodes = _check_nodes(args.nodes)  # also where no quadrature rule is built
    return args


def _pbar_from_db(db: float) -> float:
    """10^(db/10), with 0 at -inf and inf past the float range."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        return math.inf


def _bounds_at(dist_m, dist_e, p_bar, args) -> dict:
    """The four bounds at one budget for the command's options, in CSV order."""
    kwargs = dict(family_menu=args.policy, nodes=args.nodes)
    return {
        "upper_full": usable(upper_full(dist_m, dist_e, p_bar, **kwargs)),
        "lower_full": lower_full(dist_m, dist_e, p_bar, q_kappa=args.q_kappa, **kwargs),
        "upper_main": upper_main(dist_m, dist_e, p_bar, **kwargs),
        "lower_main": lower_main(dist_m, dist_e, p_bar, **kwargs),
    }


def _bound_json(result, bits: bool) -> dict:
    pol = result.policy
    out = {
        "value": result.value,
        "policy": {"family": pol.family, "c": pol.c, "h_min": pol.h_min},
        "diagnostics": result.diagnostics,
    }
    if bits:
        out["value_bits"] = result.value / LN2
    return out


def cmd_bounds(args) -> int:
    dist_m = parse_distribution(args.dist_m)
    dist_e = parse_distribution(args.dist_e)
    p_bar = _pbar_from_db(args.pbar_db)
    bounds = _bounds_at(dist_m, dist_e, p_bar, args)
    limit = high_snr_limit(dist_m, dist_e, nodes=max(args.nodes, 400))
    doc = {
        "p_bar": p_bar,
        "p_bar_db": args.pbar_db,
        "dist_m": dist_m.spec(),
        "dist_e": dist_e.spec(),
        **{name: _bound_json(result, args.bits) for name, result in bounds.items()},
        "high_snr_limit": {"value": limit.value, "invertible": limit.invertible,
                           "quad_error": limit.quad_error},
    }
    if args.bits:
        doc["high_snr_limit"]["value_bits"] = limit.value / LN2
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _parse_grid(text: str) -> list[float]:
    text = str(text).strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid {text!r}: want start:stop:step")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"bad grid {text!r}: start, stop and step must be finite")
        if step <= 0 or stop < start:
            raise ValueError(f"bad grid {text!r}: need stop >= start and step > 0")
        span = (stop - start) / step
        if not span < _MAX_GRID_POINTS:
            raise ValueError(f"bad grid {text!r}: more than {_MAX_GRID_POINTS} points")
        count = int(math.floor(span + 1e-9)) + 1
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
    limit = high_snr_limit(dist_m, dist_e, nodes=max(args.nodes, 400))
    lines = ["snr_db,upper_full,lower_full,upper_main,lower_main,high_snr_limit"]
    for snr_db in grid:
        bounds = _bounds_at(dist_m, dist_e, _pbar_from_db(snr_db), args)
        lines.append(",".join([repr(float(snr_db)),
                               *(repr(result.value) for result in bounds.values()),
                               repr(limit.value)]))
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


def cmd_validate(args) -> int:
    n = 100_000 if args.quick else 1_000_000
    seed = args.seed
    checks: list[tuple] = []  # name, quad, reference, tol[, quad_error]

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
        checks.append((name, quad, est.mean, MAX_SIGMA * est.stderr + 1e-9))
        stream += 1

    # calibrated average power hits the budget, also on gamma:8:1000, whose
    # mass lies far from unit scale
    dist = parse_distribution("chisq:4")
    quad = expected_power(calibrate("full-inv", dist, dist, p_bar), dist, dist)
    checks.append(("calibration[chisq:4/full-inv] moment", quad, p_bar, 1e-9 * p_bar))
    for spec in ("chisq:4", "gamma:8:1000"):
        law = parse_distribution(spec)
        pol = calibrate("full-inv", law, law, p_bar)
        est = mc_expect(lambda st, pol=pol: pol.power(st.h_m, st.h_e), law, law, n,
                        RngSeed(seed, stream))
        stream += 1
        checks.append((f"calibration[{spec}/full-inv] mc", est.mean, p_bar,
                       MAX_SIGMA * est.stderr + 1e-9))

    # high-SNR limit: the exact ln 2 - 1/4 of the chisq:4 pair (the rule
    # reads it to 3.9e-16, rounding), then Monte Carlo
    limit = high_snr_limit(dist, dist)
    est = mc_expect(lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
                    dist, dist, n, RngSeed(seed, stream))
    stream += 1
    checks.append(("high-snr-limit[chisq:4] exact", limit.value, LN2 - 0.25, 1e-15,
                   limit.quad_error))
    checks.append(("high-snr-limit[chisq:4] mc", limit.value, est.mean,
                   MAX_SIGMA * est.stderr + 1e-9, limit.quad_error))
    # one atom: E[(log(2/h))^+] at h ~ chisq:4 is Ein(1) - 1 + 1/e = gamma + E1(1) - 1 + 1/e
    atom = high_snr_limit(parse_distribution("const:2"), dist)
    checks.append(("high-snr-limit[const:2/chisq:4] exact", atom.value, 0.5772156649015329
                   + 0.21938393439552029 - 1.0 + math.exp(-1.0), 1e-15, atom.quad_error))

    failures = []
    for name, got, want, tol, *quad_error in checks:
        ok = abs(got - want) <= tol
        note = f", quad_error {quad_error[0]:.2e}" if quad_error else ""
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got:.6f} vs {want:.6f} "
              f"(tol {tol:.2e}{note})")
        if not ok:
            failures.append(name)

    # Newton's R* against the bisection root of R - min{K(R), R_d} on
    # [0, R_d]; the bisection's test is false at 0, since K(0) > 0 here
    pol = calibrate("main-inv", dist, dist, p_bar)
    r_star, diag = fixed_point_rate(pol, dist, dist, args.nodes)
    r_d, w = diag["r_d_floor"], pair_rule(dist, dist, args.nodes).w
    gap = secrecy_gap(pol, dist, dist, args.nodes)[0]
    root = flip_point(lambda r: r >= min(key_rate(gap, w, r), r_d), 0.0, r_d)[1]
    ok = abs(r_star - root) <= FIXED_POINT_TOL * r_d
    print(f"{'ok  ' if ok else 'FAIL'} fixed-point[chisq:4/main-inv]: Newton vs bisection "
          f"root gap {abs(r_star - root):.3e} (tol {FIXED_POINT_TOL * r_d:.3e})")
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
