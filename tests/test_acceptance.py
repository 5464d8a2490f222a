"""Acceptance gate: each criterion at its stated tolerance.

Every test prints one `ACCEPTANCE <n> <name>: PASS` line (visible with
pytest -s; captured otherwise).  Tolerances are pinned here, not deferred:
deterministic quadrature results carry zero standard error, so the
"1e-6 + 4*stderr" bound-ordering tolerance reduces to 1e-6.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from dlsec.bounds import (fixed_point_rate, high_snr_limit, lower_full, lower_main,
                          upper_full, upper_main)
from dlsec.fading import FadingDistribution, parse_distribution
from dlsec.numerics import RngSeed, mc_expect
from dlsec.policy import NonInvertibleChannelError, calibrate
from dlsec.protocol import SimConfig, simulate

from child_env import child_env
from flat_grid import scan_fixed_point

CHISQ4 = parse_distribution("chisq:4")
GAMMA21 = parse_distribution("gamma:2:1")
EXP1 = parse_distribution("exp:1")
LN2 = math.log(2.0)


def report(n, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {n} {name}: PASS{suffix}")


def test_c1_bound_ordering_on_db_grid():
    """upper >= lower for both CSI cases, both gain laws, 0..40 dB step 2."""
    start = time.time()
    grid = [2.0 * i for i in range(21)]
    worst = math.inf
    for dist in (CHISQ4, GAMMA21):
        for db in grid:
            p_bar = 10.0 ** (db / 10.0)
            uf = upper_full(dist, dist, p_bar).value
            lf = lower_full(dist, dist, p_bar).value
            um = upper_main(dist, dist, p_bar).value
            lm = lower_main(dist, dist, p_bar).value
            assert uf >= lf - 1e-6, (dist.spec(), db, uf, lf)
            assert um >= lm - 1e-6, (dist.spec(), db, um, lm)
            worst = min(worst, uf - lf, um - lm)
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(1, "bound ordering", f"42 grid points, min gap {worst:.2e}, {elapsed:.1f}s")


def test_c2_high_snr_asymptotic_match():
    """Full-CSI achievable rate at p_bar = 1e4 sits within 2% of the
    high-SNR target, itself pinned by a 1e7-sample Monte Carlo oracle."""
    start = time.time()
    rng = RngSeed(20_240_817).generator()
    n = 10_000_000
    draws = np.maximum(np.log(rng.chisquare(4, n) / rng.chisquare(4, n)), 0.0)
    target = float(draws.mean())
    stderr = float(draws.std(ddof=1) / math.sqrt(n))
    assert stderr < 1e-3
    achieved = lower_full(CHISQ4, CHISQ4, 1e4, family_menu=["full-inv"],
                          q_kappa=0.0).value
    gap = abs(achieved - target) / target
    assert gap < 0.02, (achieved, target)
    elapsed = time.time() - start
    assert elapsed < 60.0
    report(2, "high-SNR asymptotic match",
           f"rel gap {gap:.2e}, oracle stderr {stderr:.1e}, {elapsed:.1f}s")


def test_c3_exponential_closed_form():
    """Exp(1)-iid limit is ln 2 (quadrature within 1e-12, MC within 4 stderr)
    and the pair is flagged non-invertible."""
    res = high_snr_limit(EXP1, EXP1)
    assert abs(res.value - LN2) < 1e-12
    est = mc_expect(lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
                    EXP1, EXP1, 1_000_000, RngSeed(31))
    assert abs(res.value - est.mean) <= 4.0 * est.stderr
    assert res.invertible is False
    report(3, "closed-form oracle ln 2",
           f"quad err {abs(res.value - LN2):.1e}, mc gap {abs(res.value - est.mean):.1e}")


def test_c4_fixed_point_matches_grid_scan():
    """Newton answer within one step of a 1e4-point scan of g(R), with g
    strictly increasing, over 5 seeded (scale, budget) configurations."""
    rng = np.random.default_rng(2024)
    points = 10_001
    for trial in range(5):
        scale = float(rng.uniform(0.5, 4.0))
        p_bar = float(10.0 ** rng.uniform(1.0, 3.0))
        dist = FadingDistribution("gamma", (2.0, scale))
        pol = calibrate("main-inv", dist, dist, p_bar)
        r_star, _ = fixed_point_rate(pol, dist, dist)
        best, step, g = scan_fixed_point(pol, dist, dist, points)
        assert np.all(np.diff(g) > 0.0), f"g not strictly increasing (trial {trial})"
        assert abs(r_star - best) <= step, (trial, r_star, best, step)
    report(4, "fixed point vs grid scan", "5 configs, 1e4-point grids")


def test_c5_nonzero_main_csi_rate():
    """Invertible channel keeps a delay-limited rate without eavesdropper CSI."""
    value = lower_main(CHISQ4, CHISQ4, 100.0).value
    assert value > 0.01
    report(5, "non-zero main-CSI rate", f"{value:.4f} nats at 20 dB")


def test_c6_outage_eliminated_by_two_stage_scheme():
    """Baseline wiretap suffers ~50% outage and a zero guaranteed rate; the
    two-stage scheme never starves after super-block 1 in >= 99/100 runs
    and delivers secure bits in every later block."""
    start = time.time()
    base = simulate(SimConfig(scheme="baseline", dist_m=CHISQ4, dist_e=CHISQ4,
                              p_bar=100.0, a=100, b=100, n1=1000,
                              seed=RngSeed(0)))
    stderr = math.sqrt(0.25 / 10_000)
    assert abs(base.outage_fraction - 0.5) <= 3.0 * stderr
    assert min(r.data_delivered for r in base.records) == 0

    clean_runs = 0
    for s in range(100):
        rep = simulate(SimConfig(scheme="full", dist_m=CHISQ4, dist_e=CHISQ4,
                                 p_bar=100.0, a=500, b=20, n1=1000,
                                 delta=0.05, seed=RngSeed(s)))
        assert rep.roundtrip_ok
        if rep.starvation_events == 0:
            clean_runs += 1
            rec = rep.records
            secure = (rec.data_delivered - rec.insecure_bits)[rec.m >= 2]
            assert secure.min() > 0
    assert clean_runs >= 99, f"only {clean_runs}/100 runs free of starvation"
    elapsed = time.time() - start
    assert elapsed < 180.0
    report(6, "secrecy outage eliminated",
           f"baseline outage {base.outage_fraction:.3f}, "
           f"{clean_runs}/100 starvation-free, {elapsed:.1f}s")


def test_c7_otp_ledger_integrity():
    """No pad bit is spent twice or before its release, and the pad lane's
    insecure share equals the super-block-1 share, <= 1.05/b at stabilized
    rates."""
    for b in (10, 20, 50):
        rep = simulate(SimConfig(scheme="full", dist_m=CHISQ4, dist_e=CHISQ4,
                                 p_bar=100.0, a=200, b=b, n1=1000,
                                 delta=0.05, seed=RngSeed(100 + b)))
        assert rep.roundtrip_ok
        otp_total = rep.totals["otp_bits"]
        sb1 = sum(r.insecure_bits for r in rep.records if r.m == 1)
        assert rep.otp_insecure_fraction == sb1 / otp_total  # exact share
        assert rep.otp_insecure_fraction <= 1.05 / b
    report(7, "OTP ledger integrity", "b in {10, 20, 50}")


def test_c8_calibration_menu():
    """Every finite-moment (family, law) pair meets the budget within
    4 stderr of a 1e6-sample Monte Carlo; a non-invertible pair raises."""
    p_bar = 100.0
    cases = [
        ("const", CHISQ4, CHISQ4),
        ("full-inv", CHISQ4, CHISQ4),
        ("full-inv", GAMMA21, GAMMA21),
        ("main-inv", CHISQ4, CHISQ4),
        ("main-inv", GAMMA21, GAMMA21),
    ]
    for i, (family, dm, de) in enumerate(cases):
        pol = calibrate(family, dm, de, p_bar)
        est = mc_expect(lambda st, pol=pol: pol.power(st.h_m, st.h_e),
                        dm, de, 1_000_000, RngSeed(40 + i))
        assert abs(est.mean - p_bar) <= 4.0 * est.stderr + 1e-9, (family, est)
    with pytest.raises(NonInvertibleChannelError, match="non-invertible channel"):
        calibrate("full-inv", EXP1, EXP1, p_bar)
    report(8, "calibration", f"{len(cases)} pairs within 4 stderr")


def test_c9_simulation_determinism(tmp_path):
    """cmd_simulate with a fixed seed is byte-identical across two runs."""
    args = [sys.executable, "-m", "dlsec.cli", "simulate", "--scheme", "full",
            "--dist-m", "chisq:4", "--dist-e", "chisq:4", "--pbar-db", "20",
            "-a", "50", "-b", "5", "--n1", "500", "--seed", "11"]
    blobs = []
    for tag in ("first", "second"):
        prefix = str(tmp_path / tag)
        res = subprocess.run(args + ["--out", prefix], capture_output=True,
                             text=True, env=child_env(), check=True)
        blobs.append((res.stdout,
                      (tmp_path / f"{tag}.json").read_bytes(),
                      (tmp_path / f"{tag}.csv").read_bytes()))
    assert blobs[0] == blobs[1]
    assert blobs[0][1] and blobs[0][2]
    report(9, "simulation determinism", "byte-identical JSON/CSV")
