"""Bound operation tests: the four bounds, the fixed point, the high-SNR limit."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

import dlsec
from dlsec.bounds import (_CERT_TOL, _best, fixed_point_rate, high_snr_limit, key_rate,
                          lower_full, lower_main, upper_full, upper_main)
from dlsec.fading import ChannelState, FadingDistribution, parse_distribution
from dlsec.numerics import RngSeed, mc_expect, weighted_sum
from dlsec.policy import FULL_CSI, calibrate
from dlsec.rates import (common_rate_floor, delay_floor, ergodic_secrecy_rate,
                         expected_key_share, per_state_rates, secrecy_gap)

from flat_grid import flat_grid

CHISQ4 = parse_distribution("chisq:4")
GAMMA21 = parse_distribution("gamma:2:1")
EXP1 = parse_distribution("exp:1")

LN2 = math.log(2.0)


def scan_fixed_point(policy, dist_m, dist_e, points=2001, nodes=200):
    """Brute-force grid scan of g(R) = R - min{K(R), R_d} on [0, R_d].

    Returns (grid argmin of |g|, grid step, g values).  Independent check
    of the Newton answer.
    """
    r_d = delay_floor(policy, dist_m)
    hm, he, w = flat_grid(dist_m, dist_e, nodes)
    p = policy.power(hm, he)
    gap = np.log1p(p * hm) - np.log1p(p * he)
    grid = np.linspace(0.0, r_d, points)
    g = grid - np.minimum(key_rate(gap, w, grid), r_d)
    return float(grid[int(np.argmin(np.abs(g)))]), float(grid[1] - grid[0]), g


class TestUpperFull:
    def test_zero_power(self):
        assert upper_full(CHISQ4, CHISQ4, 0.0).value == 0.0

    def test_identical_degenerate_gains(self):
        d = parse_distribution("const:2")
        assert upper_full(d, d, 50.0).value == 0.0

    def test_full_inversion_branches_at_30db(self):
        """Value is the min of the two separately evaluated branches, and
        the binding branch is reported."""
        p_bar = 1000.0
        res = upper_full(CHISQ4, CHISQ4, p_bar, family_menu=["full-inv"])
        pol = calibrate("full-inv", CHISQ4, CHISQ4, p_bar)
        branch_e = ergodic_secrecy_rate(pol, CHISQ4, CHISQ4)
        branch_d = math.log1p(pol.c)
        assert res.value == min(branch_e, branch_d)
        assert res.diagnostics["binding"] == "r_s_expected"
        est = mc_expect(lambda st: per_state_rates(pol, st).r_s,
                        CHISQ4, CHISQ4, 1_000_000, RngSeed(8))
        assert abs(branch_e - est.mean) <= 4.0 * est.stderr

    def test_menu_fallback_on_non_invertible(self):
        res = upper_full(EXP1, EXP1, 10.0, family_menu=["full-inv"])
        assert res.value == 0.0
        assert res.policy.family == "const"
        assert "infeasible" in res.diagnostics["warning"] or res.diagnostics["infeasible"]


class TestLowerFull:
    def test_zero_power(self):
        assert lower_full(CHISQ4, CHISQ4, 0.0).value == 0.0

    def test_full_inversion_equals_min_of_mean_and_floor(self):
        """With q = h_e the value is min{E[r_s], log(1 + c)} exactly."""
        p_bar = 100.0
        res = lower_full(CHISQ4, CHISQ4, p_bar, family_menu=["full-inv"],
                         q_kappa=0.0)
        pol = calibrate("full-inv", CHISQ4, CHISQ4, p_bar)
        want = min(ergodic_secrecy_rate(pol, CHISQ4, CHISQ4), math.log1p(pol.c))
        assert abs(res.value - want) < 1e-12
        assert res.diagnostics["feasible"]
        assert res.diagnostics["key_budget_margin"] >= -1e-9
        assert res.diagnostics["common_rate_margin"] >= -1e-9

    def test_degenerate_pair_pinned_q(self):
        """const:4 / const:1, P = 1, q = h_e: value = min{r_s, r_eve}
        = min{log(5/2), log 2} = log 2 (hand arithmetic)."""
        dm, de = parse_distribution("const:4"), parse_distribution("const:1")
        res = lower_full(dm, de, 1.0, family_menu=["const"], q_kappa=0.0)
        assert abs(res.value - math.log(2.0)) < 1e-12

    def test_degenerate_pair_kappa_search_recovers_full_rate(self):
        """Searching kappa shifts everything into the direct share and
        attains the whole per-state secrecy rate log(5/2)."""
        dm, de = parse_distribution("const:4"), parse_distribution("const:1")
        res = lower_full(dm, de, 1.0, family_menu=["const"])
        assert res.value == math.log1p(4.0) - math.log1p(1.0)
        assert res.diagnostics["q_kappa"] == 4.0
        assert res.diagnostics["r_dprime_floor"] == res.value

    def test_never_exceeds_upper(self):
        for p_bar in (1.0, 10.0, 100.0, 1000.0):
            lo = lower_full(CHISQ4, CHISQ4, p_bar).value
            hi = upper_full(CHISQ4, CHISQ4, p_bar).value
            assert lo <= hi + 1e-9


def eager_lower_full(dm, de, p_bar, menu=None, q_kappa=None):
    """lower_full with every entry's rates and diagnostics built as it is
    scored: off a point-mass pair E[r_s'] is evaluated whatever the cap,
    and on one every rate is read off per_state_rates at the atom."""
    atom = (ChannelState(dm.params[0], de.params[0])
            if dm.is_degenerate and de.is_degenerate else None)

    def objective(pol):
        cap = common_rate_floor(pol, dm, de)

        def value_at(kappa):
            if atom is not None:
                r = per_state_rates(pol, atom, kappa)
                key_mean, dfloor = r.r_s_prime, r.r_s_dprime
            else:
                key_mean, dfloor = expected_key_share(pol, dm, de, kappa=kappa), 0.0
            r_o = min(key_mean, cap)
            diag = {"q_kappa": kappa, "r_o_chosen": r_o, "r_o_cap": cap,
                    "r_s_prime_expected": key_mean, "r_dprime_floor": dfloor,
                    "key_budget_margin": key_mean - r_o, "common_rate_margin": cap - r_o}
            diag["feasible"] = (diag["key_budget_margin"] >= -_CERT_TOL
                                and diag["common_rate_margin"] >= -_CERT_TOL)
            return dfloor + r_o, diag

        if q_kappa is not None:
            return value_at(q_kappa)
        best = value_at(0.0)
        if atom is not None:
            direct = value_at(atom.h_m)
            if direct[0] > best[0]:
                best = direct
        return best

    return _best(dm, de, p_bar, menu, 200, FULL_CSI, objective)


class TestLazyDiagnostics:
    """lower_full scores a zero-cap entry as 0 without E[r_s'] and builds
    diagnostics only for the entry it reports; its value, policy and every
    diagnostic must equal the eager evaluation's."""

    @pytest.mark.parametrize("spec_m, spec_e, p_bar, menu, q_kappa, family", [
        ("chisq:4", "chisq:4", 100.0, None, None, "full-inv"),
        ("exp:1", "exp:1", 100.0, None, None, "const"),
        ("chisq:4", "chisq:4", 0.0, None, None, "const"),
        ("chisq:4", "chisq:4", 100.0, None, 0.5, "full-inv"),
        ("exp:1", "exp:1", 100.0, None, 0.5, "const"),
        ("chisq:4", "chisq:4", 100.0, ["trunc-inv:0.5"], None, "trunc-inv"),
        ("chisq:4", "chisq:4", 100.0, ["trunc-inv:0.5"], 0.5, "trunc-inv"),
        ("const:2", "chisq:4", 100.0, None, None, "full-inv"),
    ])
    def test_equals_eager_evaluation(self, spec_m, spec_e, p_bar, menu, q_kappa, family):
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        got = lower_full(dm, de, p_bar, family_menu=menu, q_kappa=q_kappa)
        want = eager_lower_full(dm, de, p_bar, menu, q_kappa)
        assert got.policy.family == family
        assert (got.value, got.policy, got.diagnostics) == (want.value, want.policy,
                                                            want.diagnostics)

    @pytest.mark.parametrize("spec_m, spec_e, p_bar, builds", [
        ("chisq:4", "chisq:4", 100.0, 2),
        ("exp:1", "exp:1", 100.0, 1),
        ("chisq:4", "chisq:4", 0.0, 1),
        ("gamma:3:0.01", "exp:2", 100.0, 2),
        ("const:2", "chisq:4", 100.0, 4),
    ])
    def test_gap_builds_for_the_four_bounds(self, spec_m, spec_e, p_bar, builds):
        """Only the families whose value reads a gap build one: on a
        continuous pair, lower_full's zero-cap const and trunc-inv do not."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        secrecy_gap.cache_clear()
        for bound in (upper_full, lower_full, upper_main, lower_main):
            bound(dm, de, p_bar)
        assert secrecy_gap.cache_info().misses == builds


def atom_value_over_kappa(pol, dm, de, kappas):
    """The pinned-kappa objective of one policy on a point-mass pair, at
    every kappa in ``kappas``: r_s - r_s' + min{r_s', cap}."""
    vm, ve = dm.params[0], de.params[0]
    p = pol.power(vm, ve)
    r_main = np.log1p(p * vm)
    r_s = np.maximum(r_main - np.log1p(p * ve), 0.0)
    r_s_prime = np.maximum(r_main - np.log1p(p * np.maximum(ve, kappas)), 0.0)
    return (np.maximum(r_s - r_s_prime, 0.0)
            + np.minimum(r_s_prime, common_rate_floor(pol, dm, de)))


class TestPointMassKappaSearch:
    def test_same_repr_as_the_pointwise_search(self):
        """Random const pairs under four menus.  With kappa pinned, value,
        policy and diagnostics have the repr of the rates read off
        per_state_rates.  With kappa searched, the value is the chosen
        policy's r_s at the atom, and no kappa on a 2001-point grid over
        [0, v_m + v_e] does better by more than 4 ulps."""
        rng = np.random.default_rng(21)
        for i in range(30):
            vm, ve = 10.0 ** rng.uniform(-3.0, 3.0, size=2)
            dm = FadingDistribution("const", (vm,))
            de = FadingDistribution("const", (ve,))
            p_bar = 0.0 if i == 0 else 10.0 ** rng.uniform(-1.0, 5.0)
            for menu in (None, ["const"], ["full-inv", "main-inv"],
                         [f"trunc-inv:{vm / 2:.6g}", "const"]):
                for q_kappa in (0.0, 0.7):
                    got = lower_full(dm, de, p_bar, family_menu=menu, q_kappa=q_kappa)
                    want = eager_lower_full(dm, de, p_bar, menu, q_kappa)
                    assert (repr((got.value, got.policy, sorted(got.diagnostics.items())))
                            == repr((want.value, want.policy,
                                     sorted(want.diagnostics.items())))), (dm, de, menu)
                got = lower_full(dm, de, p_bar, family_menu=menu)
                assert got.value == per_state_rates(got.policy, ChannelState(vm, ve)).r_s
                kappas = np.linspace(0.0, vm + ve, 2001)
                best = atom_value_over_kappa(got.policy, dm, de, kappas).max()
                assert best <= got.value + 4.0 * math.ulp(got.value), (dm, de, menu)

    def test_extreme_atom_ratio_ends(self):
        """const:1e10 / const:1 once ran a kappa search past 20 s, where
        float spacing near the maximizer was wider than its tolerance."""
        call = ("from dlsec.bounds import lower_full\n"
                "from dlsec.fading import parse_distribution as law\n"
                "print(lower_full(law('const:1e10'), law('const:1'), 100.0).value)")
        proc = subprocess.run([sys.executable, "-c", call], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=_SRC), timeout=60, check=True)
        assert math.isfinite(float(proc.stdout))

    def test_negative_pinned_kappa_rejected(self):
        atom = parse_distribution("const:2")
        with pytest.raises(ValueError, match="kappa"):
            lower_full(atom, parse_distribution("const:1"), 10.0, q_kappa=-1.0)

    @pytest.mark.parametrize("spec_m", ["const:3", "chisq:4"])
    def test_nan_pinned_kappa_rejected(self, spec_m):
        """A NaN kappa is refused, not turned into a NaN bound."""
        with pytest.raises(ValueError, match="kappa must be >= 0"):
            lower_full(parse_distribution(spec_m), parse_distribution("const:1"), 10.0,
                       q_kappa=math.nan)


def test_memory_held_after_many_law_pairs():
    """The four bounds at 200 nodes over 80 distinct gamma pairs leave
    under 16 MiB held once garbage is collected: only the last few law
    pairs' weights and gaps stay cached (about 6 MiB), where keeping three
    40 000-point arrays a pair for 64 pairs would hold about 62 MiB."""
    tracemalloc.start()
    try:
        for i in range(80):
            dm = FadingDistribution("gamma", (1.5 + 0.05 * i, 1.0 + 0.01 * i))
            de = FadingDistribution("gamma", (2.5 + 0.03 * i, 0.5))
            for bound in (upper_full, lower_full, upper_main, lower_main):
                bound(dm, de, 100.0, nodes=200)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 16 * 2**20, held


class TestUpperMain:
    def test_zero_power(self):
        assert upper_main(CHISQ4, CHISQ4, 0.0).value == 0.0

    def test_dominant_eavesdropper(self):
        res = upper_main(CHISQ4, parse_distribution("const:1e9"), 100.0,
                         family_menu=["main-inv"])
        assert res.value < 1e-3

    def test_main_inversion_at_20db(self):
        """c = 2 * budget (E[1/h] = 1/2 for chisq:4); value is the min of
        the expected-secrecy branch and log(1 + c)."""
        res = upper_main(CHISQ4, CHISQ4, 100.0, family_menu=["main-inv"])
        assert abs(res.policy.c - 200.0) < 1e-9
        pol = res.policy
        branch_e = ergodic_secrecy_rate(pol, CHISQ4, CHISQ4)
        assert res.value == min(branch_e, math.log1p(200.0))
        est = mc_expect(lambda st: per_state_rates(pol, st).r_s,
                        CHISQ4, CHISQ4, 1_000_000, RngSeed(9))
        assert abs(branch_e - est.mean) <= 4.0 * est.stderr

    def test_full_inversion_skipped(self):
        res = upper_main(CHISQ4, CHISQ4, 100.0, family_menu=["full-inv", "main-inv"])
        assert res.policy.family == "main-inv"
        assert "full-inv" in res.diagnostics.get("skipped", {})


class TestLowerMain:
    def test_eavesdropper_never_weaker(self):
        """h_e >= h_m almost surely gives K(0) = 0 and a zero fixed point."""
        dm, de = parse_distribution("const:2"), parse_distribution("const:2")
        assert lower_main(dm, de, 50.0, family_menu=["main-inv"]).value == 0.0
        de_hi = parse_distribution("const:5")
        assert lower_main(dm, de_hi, 50.0, family_menu=["main-inv"]).value == 0.0

    def test_vanishing_eavesdropper_shares_the_pipe(self):
        """With a near-deaf eavesdropper the pipe still splits between pad
        data and key generation: the fixed point sits at R_d / 2, not R_d
        (grid-scan verified)."""
        de_tiny = parse_distribution("const:1e-9")
        pol = calibrate("main-inv", CHISQ4, de_tiny, 100.0)
        r_star, diag = fixed_point_rate(pol, CHISQ4, de_tiny)
        r_d = diag["r_d_floor"]
        scan, step, _ = scan_fixed_point(pol, CHISQ4, de_tiny, points=4001)
        assert abs(r_star - scan) <= step
        assert abs(r_star - r_d / 2.0) < 1e-6

    def test_newton_matches_grid_scan(self):
        pol = calibrate("main-inv", CHISQ4, CHISQ4, 100.0)
        r_star, diag = fixed_point_rate(pol, CHISQ4, CHISQ4)
        scan, step, g = scan_fixed_point(pol, CHISQ4, CHISQ4, points=2001)
        assert abs(r_star - scan) <= step
        assert diag["feasible"]
        # g strictly increasing across the grid
        assert np.all(np.diff(g) > 0.0)

    def test_iterations_are_observed_evaluations(self):
        """const:3 / const:1 under main-inv has one gap value, so K is
        linear below it: the first Newton step lands on R* = K(0) / 2
        exactly and the second confirms it."""
        dm, de = parse_distribution("const:3"), parse_distribution("const:1")
        pol = calibrate("main-inv", dm, de, 100.0)
        r_star, diag = fixed_point_rate(pol, dm, de)
        assert r_star == diag["key_rate_at_zero"] / 2.0
        assert r_star < diag["r_d_floor"]
        assert diag["key_balance_margin"] == 0.0
        assert diag["fixed_point_iterations"] == 2
        assert diag["binding"] == "key_rate"

    def test_binding_reports_the_floor(self, monkeypatch):
        """A zero delay floor (const power on a law reaching 0) binds at
        R* = 0; a floor below the key-rate crossing binds at R* = R_d."""
        res = lower_main(CHISQ4, CHISQ4, 100.0, family_menu=["const"])
        assert res.value == 0.0
        assert res.diagnostics["binding"] == "r_d_floor"
        assert lower_main(CHISQ4, CHISQ4, 100.0).diagnostics["binding"] == "key_rate"

        import dlsec.bounds as bounds_mod
        monkeypatch.setattr(bounds_mod, "delay_floor", lambda policy, dist_m: 0.1)
        pol = calibrate("main-inv", CHISQ4, CHISQ4, 100.0)
        r_star, diag = fixed_point_rate(pol, CHISQ4, CHISQ4)
        assert r_star == 0.1
        assert diag["binding"] == "r_d_floor"
        assert diag["fixed_point_iterations"] == 1
        assert diag["key_balance_margin"] == 0.0

    def test_positive_for_invertible_channel(self):
        assert lower_main(CHISQ4, CHISQ4, 100.0).value > 0.01

    def test_never_exceeds_upper(self):
        for p_bar in (1.0, 10.0, 100.0, 1000.0):
            lo = lower_main(CHISQ4, CHISQ4, p_bar).value
            hi = upper_main(CHISQ4, CHISQ4, p_bar).value
            assert lo <= hi + 1e-9

    def test_never_exceeds_full_csi_lower(self):
        """More CSI cannot hurt with the shared default menus."""
        for p_bar in (1.0, 100.0, 10_000.0):
            assert (lower_main(CHISQ4, CHISQ4, p_bar).value
                    <= lower_full(CHISQ4, CHISQ4, p_bar).value + 1e-9)


def dense_key_rate(gap, w, r):
    """K(R) = sum_i w_i (g_i - R)^+ at each R, one grid row per R."""
    return weighted_sum(w, np.maximum(gap[None, :] - r[:, None], 0.0))


def c4_configs():
    """test_c4's five seeded draws: a gamma:2:scale pair at a budget."""
    rng = np.random.default_rng(2024)
    for _ in range(5):
        dist = FadingDistribution("gamma", (2.0, float(rng.uniform(0.5, 4.0))))
        yield dist, dist, "main-inv", float(10.0 ** rng.uniform(1.0, 3.0))


# test_c4's configurations; const:3/const:1 under main-inv has one gap value
C4_AND_ATOM_CASES = [*c4_configs(), (parse_distribution("const:3"),
                                     parse_distribution("const:1"), "main-inv", 100.0)]
KEY_RATE_CASES = C4_AND_ATOM_CASES + [(CHISQ4, GAMMA21, "const", 100.0)]


def key_rate_case(case):
    dm, de, family, p_bar = case
    pol = calibrate(family, dm, de, p_bar)
    gap, ers = secrecy_gap(pol, dm, de)
    return gap.ravel(), flat_grid(dm, de, 200)[2], ers


class TestKeyRate:
    @pytest.mark.parametrize("case", KEY_RATE_CASES, ids=repr)
    def test_matches_dense_formula(self, case):
        """On 101 points across [0, 1.1 max g] and at 20 of the gaps
        themselves, where K has its breakpoints."""
        gap, w, _ = key_rate_case(case)
        positive = gap[gap > 0.0]
        assert positive.size > 0
        picks = np.random.default_rng(7).choice(positive, size=20)
        r = np.concatenate([np.linspace(0.0, 1.1 * positive.max(), 101), picks])
        assert np.abs(key_rate(gap, w, r) - dense_key_rate(gap, w, r)).max() <= 1e-14

    @pytest.mark.parametrize("case", C4_AND_ATOM_CASES, ids=repr)
    def test_zero_rate_is_expected_secrecy_rate(self, case):
        gap, w, ers = key_rate_case(case)
        assert abs(key_rate(gap, w, np.array([0.0]))[0] - ers) <= 1e-15

    @pytest.mark.parametrize("case", KEY_RATE_CASES, ids=repr)
    def test_zero_rate_is_the_exact_sum(self, case):
        """K(0) within an ulp of the exact sum of w_i g_i^+.  secrecy_gap's
        E[r_s] sums in einsum's order, and on chisq:4/gamma:2:1 under const
        it is 1.2e-15 (11 ulps) away from it."""
        gap, w, _ = key_rate_case(case)
        exact = math.fsum(w * np.maximum(gap, 0.0))
        assert abs(key_rate(gap, w, np.array([0.0]))[0] - exact) <= math.ulp(exact)

    @pytest.mark.parametrize("case", KEY_RATE_CASES, ids=repr)
    def test_zero_above_the_largest_gap(self, case):
        gap, w, _ = key_rate_case(case)
        top = gap.max()
        r = np.array([top, np.nextafter(top, np.inf), 2.0 * top, 1e300])
        assert key_rate(gap, w, r).tolist() == [0.0] * 4

    @pytest.mark.parametrize("spec_m,spec_e", [("const:2", "const:5"), ("const:2", "const:2"),
                                               ("chisq:4", "const:1e9")])
    def test_no_positive_gap_gives_zero(self, spec_m, spec_e):
        gap, w, ers = key_rate_case((parse_distribution(spec_m), parse_distribution(spec_e),
                                     "main-inv", 100.0))
        assert not (gap > 0.0).any() and ers == 0.0
        r = np.linspace(0.0, 5.0, 11)
        assert key_rate(gap, w, r).tolist() == [0.0] * 11
        assert dense_key_rate(gap, w, r).tolist() == [0.0] * 11


class TestHighSnrLimit:
    def test_exponential_pair(self):
        """Ratio density 1/(1+r)^2: int_1^inf ln r/(1+r)^2 dr = ln 2; the
        inverse-min moment diverges, so the flag is off."""
        res = high_snr_limit(EXP1, EXP1)
        assert abs(res.value - LN2) < 1e-12
        assert res.invertible is False

    def test_chisq_pair_closed_form(self):
        """Shape-2 gamma ratio density 6r/(1+r)^4:
        int_1^inf 6r ln r/(1+r)^4 dr = ln 2 - 1/4."""
        res = high_snr_limit(CHISQ4, CHISQ4)
        assert abs(res.value - (LN2 - 0.25)) < 1e-13
        assert res.invertible is True
        est = mc_expect(lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
                        CHISQ4, CHISQ4, 1_000_000, RngSeed(10))
        assert abs(res.value - est.mean) <= 4.0 * est.stderr

    def test_common_law_symmetry(self):
        """For h_m ~ h_e the value is half the mean absolute log ratio."""
        for d in (CHISQ4, GAMMA21):
            res = high_snr_limit(d, d)
            est = mc_expect(lambda st: np.abs(np.log(st.h_m / st.h_e)),
                            d, d, 1_000_000, RngSeed(12))
            assert abs(res.value - est.mean / 2.0) <= 2.0 * est.stderr

    def test_degenerate_cases(self):
        a, b = parse_distribution("const:4"), parse_distribution("const:1")
        assert high_snr_limit(a, b).value == math.log(4.0)
        assert high_snr_limit(b, a).value == 0.0
        mixed = high_snr_limit(parse_distribution("const:2"), EXP1)
        # E[(log(2/Y))^+] = int_0^2 log(2/y) e^{-y} dy
        from scipy import integrate
        want, _ = integrate.quad(lambda y: math.log(2.0 / y) * math.exp(-y), 0, 2)
        assert abs(mixed.value - want) < 1e-4

    def test_point_masses_at_extreme_ratios(self):
        """The quotient v_m / v_e underflows to 0 (which raised 'math domain
        error') or overflows (which gave inf instead of 600 ln 10)."""
        tiny, huge = parse_distribution("const:1e-300"), parse_distribution("const:1e300")
        assert high_snr_limit(tiny, huge).value == 0.0
        assert math.isclose(high_snr_limit(huge, tiny).value, 600.0 * math.log(10.0),
                            rel_tol=1e-15)
        # a finite quotient still takes the log of the quotient
        assert (high_snr_limit(huge, parse_distribution("const:1e-8")).value
                == math.log(1e300 / 1e-8))

    def test_one_atom_quad_error_is_the_half_rule_gap(self):
        """The Gauss-Legendre branches report |value(n) - value(n // 2)|,
        and a point-mass pair is exact."""
        for dm, de in ((parse_distribution("const:2"), EXP1),
                       (CHISQ4, parse_distribution("const:0.5"))):
            res = high_snr_limit(dm, de, nodes=400)
            half = high_snr_limit(dm, de, nodes=200).value
            assert res.quad_error == abs(res.value - half) > 0.0
        atoms = high_snr_limit(parse_distribution("const:3"), parse_distribution("const:1"))
        assert atoms.quad_error == 0.0


def gamma_density(d):
    """The gamma density in :mod:`math`, for scipy's scalar integrators."""
    k, theta = d.shape, d.scale
    c = math.lgamma(k) + math.log(theta)
    return lambda x: math.exp((k - 1.0) * math.log(x / theta) - x / theta - c)


def beta_limit_quad(dm, de):
    """E[(log(h_m/h_e))^+] by scipy.integrate.quad over the Beta integral:
    U = (h_e/theta_e) / (h_m/theta_m + h_e/theta_e) ~ Beta(k_e, k_m), and the
    positive part ends at u* = theta_m/(theta_m + theta_e), so the integral
    is split there and only (0, u*) is taken.  QAWS carries u^(k_e - 1)
    and u^(k_e - 1) log u in its weights."""
    from scipy import integrate, special

    a, b, tm, te = de.shape, dm.shape, dm.scale, de.scale
    u_star, c, lb = tm / (tm + te), math.log(tm / te), special.betaln(a, b)
    tail = lambda u: math.exp((b - 1.0) * math.log1p(-u) - lb)
    kw = dict(limit=200, epsabs=1e-14, epsrel=1e-13)
    with warnings.catch_warnings():
        # QAWS flags roundoff where it cannot reach 1e-13; its values still
        # agree with dblquad far inside the tolerances below
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        log_ratio = integrate.quad(lambda u: (c + math.log1p(-u)) * tail(u), 0.0, u_star,
                                   weight="alg", wvar=(a - 1.0, 0.0), **kw)[0]
        log_u = integrate.quad(tail, 0.0, u_star, weight="alg-loga", wvar=(a - 1.0, 0.0),
                               **kw)[0]
    return log_ratio - log_u


def dblquad_limit(dm, de):
    """E[(log(h_m/h_e))^+] by scipy.integrate.dblquad over h_e < h_m."""
    from scipy import integrate

    fm, fe = gamma_density(dm), gamma_density(de)
    return integrate.dblquad(lambda he, hm: math.log(hm / he) * fm(hm) * fe(he),
                             0.0, math.inf, 0.0, lambda hm: hm,
                             epsabs=1e-12, epsrel=1e-12)[0]


def _random_gamma_pairs(n, seed):
    """Gamma shapes uniform on 0.05-50, scales log-uniform on 1e-3-1e3."""
    rng = np.random.default_rng(seed)
    return [tuple(FadingDistribution("gamma", (float(rng.uniform(0.05, 50.0)),
                                               float(10.0 ** rng.uniform(-3.0, 3.0))))
                  for _ in range(2)) for _ in range(n)]


RANDOM_GAMMA_PAIRS = _random_gamma_pairs(200, 2024)


class TestHighSnrLimitBetaRule:
    """Two gamma laws: the tanh-sinh rule in Beta coordinates."""

    @pytest.mark.parametrize("chunk", range(20))
    def test_random_pairs_match_quad(self, chunk):
        """Within 1e-10 max(1, |ref|) of quad, and inside the reported
        quad_error plus 1e-10."""
        for dm, de in RANDOM_GAMMA_PAIRS[10 * chunk:10 * chunk + 10]:
            want = beta_limit_quad(dm, de)
            res = high_snr_limit(dm, de)
            err = abs(res.value - want)
            assert err <= 1e-10 * max(1.0, abs(want)), (dm, de, res, want)
            assert err <= res.quad_error + 1e-10, (dm, de, res, want)

    @pytest.mark.parametrize("spec_m,spec_e", [("gamma:1.5:2", "gamma:2.5:1"),
                                               ("exp:1", "gamma:3:0.7"),
                                               ("chisq:6", "chisq:3")])
    def test_moderate_pairs_match_dblquad(self, spec_m, spec_e):
        """Against the original (h_m, h_e) integral, no Beta coordinates."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        assert abs(high_snr_limit(dm, de).value - dblquad_limit(dm, de)) <= 1e-9

    def test_grid_outlier_pair_within_4_sigma_of_monte_carlo(self):
        """The pair where the 400 x 400 grid read 5.9987 (-80 sigma)."""
        dm, de = parse_distribution("gamma:6.72:745.6"), parse_distribution("gamma:3.69:3.47")
        res = high_snr_limit(dm, de)
        est = mc_expect(lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
                        dm, de, 1_000_000, RngSeed(41))
        assert abs(res.value - est.mean) <= 4.0 * est.stderr

    @pytest.mark.parametrize("factor", [1e200, 1e-200])
    def test_common_scale_factor_cancels(self, factor):
        """Only theta_m / theta_e enters, so scaling both scales moves the
        value by the rounding of that quotient alone."""
        for dm, de in RANDOM_GAMMA_PAIRS[:20]:
            moved = [FadingDistribution("gamma", (d.shape, d.scale * factor)) for d in (dm, de)]
            want = high_snr_limit(dm, de).value
            assert abs(high_snr_limit(*moved).value - want) <= 1e-13 * want

    @pytest.mark.parametrize("scale_m,scale_e", [(1e-300, 1e-300), (1e-300, 1e300),
                                                 (1e300, 1e-300), (1e300, 1e300)])
    def test_finite_and_non_negative_at_extreme_scales(self, scale_m, scale_e):
        for k_m, k_e in ((0.05, 0.05), (0.05, 50.0), (50.0, 0.05), (2.0, 2.0)):
            res = high_snr_limit(FadingDistribution("gamma", (k_m, scale_m)),
                                 FadingDistribution("gamma", (k_e, scale_e)))
            assert math.isfinite(res.value) and res.value >= 0.0
            assert math.isfinite(res.quad_error)
        if scale_m > scale_e:
            # the last pair, iid shapes 2: h_m < h_e has probability 1e-1200,
            # so the value is E[log(h_m/h_e)] = 600 ln 10 + psi(2) - psi(2)
            assert math.isclose(res.value, 600.0 * math.log(10.0), rel_tol=1e-13)


class TestOrderingAndMonotonicity:
    @pytest.mark.parametrize("dist", [CHISQ4, GAMMA21])
    def test_upper_dominates_lower_on_grid(self, dist):
        prev_uf = prev_lf = -1.0
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            p_bar = 10.0 ** (db / 10.0)
            uf = upper_full(dist, dist, p_bar).value
            lf = lower_full(dist, dist, p_bar).value
            um = upper_main(dist, dist, p_bar).value
            lm = lower_main(dist, dist, p_bar).value
            assert uf >= lf - 1e-6
            assert um >= lm - 1e-6
            # full-CSI bounds are non-decreasing in the budget
            assert uf >= prev_uf - 1e-9
            assert lf >= prev_lf - 1e-9
            prev_uf, prev_lf = uf, lf

    def test_lower_full_approaches_high_snr_limit(self):
        res = lower_full(CHISQ4, CHISQ4, 1e4, family_menu=["full-inv"], q_kappa=0.0)
        limit = high_snr_limit(CHISQ4, CHISQ4).value
        assert abs(res.value - limit) / limit < 0.02


# Bound values pinned at repr precision.  gamma:0.5:1 is non-invertible
# (inversion families infeasible); const:3/const:1 takes the closed-form
# kappa.  lower_main is the exact fixed point.  Every weighted sum
# runs in a fixed order, so the pins hold under any BLAS thread count.
PINNED_LIMIT = {
    ('chisq:4', 'chisq:4'): 0.4431471805599457,
    ('const:2', 'chisq:4'): 0.16447904047826095,
    ('const:3', 'const:1'): 1.0986122886681098,
    ('gamma:0.5:1', 'gamma:0.5:1'): 1.166243616123274,
    ('gamma:2:1000', 'chisq:1'): 8.600903207878687,
    ('gamma:3:0.01', 'exp:2'): 0.014925414335969162,
}

# The continuous-pair limit pins as the 400 x 400 half-line x unit-interval
# grid gave them, before the Beta-coordinate tanh-sinh rule.
GRID_LIMIT_PINS = {
    ('chisq:4', 'chisq:4'): 0.4431471806185369,
    ('gamma:0.5:1', 'gamma:0.5:1'): 1.154888665651046,
    ('gamma:2:1000', 'chisq:1'): 8.000065002232446,
    ('gamma:3:0.01', 'exp:2'): 0.014925355291509824,
}

# Catalan's constant: for iid Gamma(1/2) gains log(h_m/h_e) has density
# 1/(2 pi cosh(y/2)), so E[(log(h_m/h_e))^+] = 4G/pi
CATALAN = 0.915965594177219015054603514932


def limit_reference(key):
    """(value, tolerance) of an independent reference for a limit pin:
    a closed form, dblquad over (h_m, h_e), or Monte Carlo within 4 sigma."""
    dm, de = parse_distribution(key[0]), parse_distribution(key[1])
    if key == ('chisq:4', 'chisq:4'):
        return LN2 - 0.25, 1e-14
    if key == ('gamma:0.5:1', 'gamma:0.5:1'):
        return 4.0 * CATALAN / math.pi, 1e-14
    if key == ('gamma:3:0.01', 'exp:2'):
        return dblquad_limit(dm, de), 1e-12
    est = mc_expect(lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
                    dm, de, 1_000_000, RngSeed(43))
    return est.mean, 4.0 * est.stderr

# (dist_m, dist_e, pbar_db): (upper_full, lower_full, upper_main, lower_main).
# The chisq:4 rows at 0 and 20 dB and the const:2 rows moved by <= 1.1e-15
# relative in the full-CSI columns when full-inv's moment became closed form.
PINNED_BOUNDS = {
    ('chisq:4', 'chisq:4', 0.0): (0.31746082115720137, 0.31746082115720137, 0.2204403239821736, 0.15137553987534885),
    ('chisq:4', 'chisq:4', 20.0): (0.4412334868371167, 0.4412334868371167, 0.43714258342905293, 0.30290537634182013),
    ('chisq:4', 'chisq:4', 40.0): (0.44307983967637216, 0.44307983967637216, 0.4430361509275358, 0.3070871576213761),
    ('const:2', 'chisq:4', 0.0): (0.11664440368915388, 0.11664440368915388, 0.08748699669480453, 0.0702442504788794),
    ('const:2', 'chisq:4', 20.0): (0.16377125870239503, 0.16377125870239503, 0.16269667336596894, 0.1310943152437826),
    ('const:2', 'chisq:4', 40.0): (0.16446948168759137, 0.16446948168759137, 0.16445818720966138, 0.13252512428749372),
    ('const:3', 'const:1', 0.0): (0.6931471805599453, 0.6931471805599453, 0.6931471805599453, 0.34657359027997264),
    ('const:3', 'const:1', 20.0): (1.0919897479076157, 1.0919897479076157, 1.0919897479076157, 0.5459948739538079),
    ('const:3', 'const:1', 40.0): (1.0985456264455653, 1.0985456264455653, 1.0985456264455653, 0.5492728132227827),
    ('gamma:0.5:1', 'gamma:0.5:1', 0.0): (0.0, 0.0, 0.0, 0.0),
    ('gamma:0.5:1', 'gamma:0.5:1', 20.0): (0.0, 0.0, 0.0, 0.0),
    ('gamma:0.5:1', 'gamma:0.5:1', 40.0): (0.0, 0.0, 0.0, 0.0),
    ('gamma:2:1000', 'chisq:1', 0.0): (6.440677354676205, 0.0, 6.440677354676205, 3.225564722438335),
    ('gamma:2:1000', 'chisq:1', 20.0): (8.263995513871958, 0.0, 8.263995513871958, 4.139702876954521),
    ('gamma:2:1000', 'chisq:1', 40.0): (8.539743937399097, 0.0, 8.539743937399097, 4.278172310232195),
    ('gamma:3:0.01', 'exp:2', 0.0): (0.00014684082694878603, 0.0, 0.00014684082694878603, 0.00014478561905296788),
    ('gamma:3:0.01', 'exp:2', 20.0): (0.006712326089335673, 0.0, 0.006712326089335673, 0.006618379290854893),
    ('gamma:3:0.01', 'exp:2', 40.0): (0.014517687241339759, 0.0, 0.014517687241339759, 0.014314495349361208),
}

# const:2 / gamma:0.5:1: upper_full and lower_full with menu [full-inv]
# (infeasible, so the const fallback evaluates E[r_s] against its floor)
# and lower_main with menu [main-inv] (a point-mass main gain)
PINNED_FALLBACK = {
    0.0: (0.7755862988273268, 0.7755862988273268, 0.4072663174373325),
    20.0: (2.3277239818720976, 2.3277239818720976, 1.261999842470426),
    40.0: (2.6118496781878036, 2.6118496781878036, 1.4293079894944924),
}

# lower_main as bisection to a 1e-10 bracket gave it, for every pinned row
# the exact solve moved (the const:2 / gamma:0.5:1 rows are the fallback
# table's main-inv column).  Each move stays within the old half-bracket.
BISECTION_LOWER_MAIN = {
    ("chisq:4", "chisq:4", 0.0): 0.15137553985607588,
    ("chisq:4", "chisq:4", 20.0): 0.30290537633308984,
    ("chisq:4", "chisq:4", 40.0): 0.30708715761799577,
    ("gamma:3:0.01", "exp:2", 0.0): 0.00014478563054988594,
    ("gamma:3:0.01", "exp:2", 20.0): 0.006618379319791722,
    ("gamma:3:0.01", "exp:2", 40.0): 0.01431449538388298,
    ("gamma:2:1000", "chisq:1", 0.0): 3.2255647224300095,
    ("gamma:2:1000", "chisq:1", 20.0): 4.139702876913869,
    ("gamma:2:1000", "chisq:1", 40.0): 4.278172310215375,
    ("const:2", "chisq:4", 0.0): 0.07024425046782962,
    ("const:2", "chisq:4", 20.0): 0.13109431525505577,
    ("const:2", "chisq:4", 40.0): 0.13252512432099023,
    ("const:3", "const:1", 20.0): 0.5459948739667203,
    ("const:3", "const:1", 40.0): 0.5492728132545756,
    ("const:2", "gamma:0.5:1", 0.0): 0.4072663174631122,
    ("const:2", "gamma:0.5:1", 20.0): 1.261999842464888,
    ("const:2", "gamma:0.5:1", 40.0): 1.4293079894939522,
}


# Every pin above that moved when scipy's gamma law gave way to the
# numpy/math one and every weighted sum to the fixed-order einsum, keyed by
# (bound, dist_m, dist_e, pbar_db), with the value it had before.  Each
# moved by a few ulps.  (The limit pins of that change have since moved to
# the Beta-coordinate rule; see GRID_LIMIT_PINS.)
SCIPY_LAW_PINS = {
    ('lower_full', 'chisq:4', 'chisq:4', 0.0): 0.31746082115720053,
    ('lower_full', 'chisq:4', 'chisq:4', 20.0): 0.4412334868371165,
    ('lower_full', 'chisq:4', 'chisq:4', 40.0): 0.44307983967637204,
    ('lower_full', 'const:2', 'chisq:4', 40.0): 0.16446948168759148,
    ('lower_full', 'const:2', 'gamma:0.5:1', 0.0): 0.7755862988273272,
    ('lower_full', 'const:2', 'gamma:0.5:1', 20.0): 2.327723981872099,
    ('lower_full', 'const:2', 'gamma:0.5:1', 40.0): 2.611849678187805,
    ('lower_main', 'chisq:4', 'chisq:4', 0.0): 0.15137553987534907,
    ('lower_main', 'chisq:4', 'chisq:4', 20.0): 0.3029053763418198,
    ('lower_main', 'chisq:4', 'chisq:4', 40.0): 0.30708715762137634,
    ('lower_main', 'const:2', 'chisq:4', 0.0): 0.07024425047887943,
    ('lower_main', 'const:2', 'chisq:4', 20.0): 0.13109431524378257,
    ('lower_main', 'const:2', 'chisq:4', 40.0): 0.13252512428749363,
    ('lower_main', 'const:2', 'gamma:0.5:1', 0.0): 0.40726631743733266,
    ('lower_main', 'const:2', 'gamma:0.5:1', 20.0): 1.2619998424704268,
    ('lower_main', 'const:2', 'gamma:0.5:1', 40.0): 1.429307989494493,
    ('lower_main', 'gamma:2:1000', 'chisq:1', 0.0): 3.2255647224383357,
    ('lower_main', 'gamma:2:1000', 'chisq:1', 20.0): 4.139702876954525,
    ('lower_main', 'gamma:2:1000', 'chisq:1', 40.0): 4.278172310232198,
    ('lower_main', 'gamma:3:0.01', 'exp:2', 0.0): 0.00014478561905296807,
    ('lower_main', 'gamma:3:0.01', 'exp:2', 20.0): 0.006618379290854909,
    ('lower_main', 'gamma:3:0.01', 'exp:2', 40.0): 0.01431449534936124,
    ('upper_full', 'chisq:4', 'chisq:4', 0.0): 0.31746082115720053,
    ('upper_full', 'chisq:4', 'chisq:4', 20.0): 0.4412334868371165,
    ('upper_full', 'chisq:4', 'chisq:4', 40.0): 0.44307983967637204,
    ('upper_full', 'const:2', 'chisq:4', 40.0): 0.16446948168759148,
    ('upper_full', 'const:2', 'gamma:0.5:1', 0.0): 0.7755862988273272,
    ('upper_full', 'const:2', 'gamma:0.5:1', 20.0): 2.327723981872099,
    ('upper_full', 'const:2', 'gamma:0.5:1', 40.0): 2.611849678187805,
    ('upper_full', 'gamma:2:1000', 'chisq:1', 0.0): 6.440677354676207,
    ('upper_full', 'gamma:2:1000', 'chisq:1', 20.0): 8.263995513871969,
    ('upper_full', 'gamma:2:1000', 'chisq:1', 40.0): 8.5397439373991,
    ('upper_full', 'gamma:3:0.01', 'exp:2', 0.0): 0.00014684082694878584,
    ('upper_full', 'gamma:3:0.01', 'exp:2', 20.0): 0.006712326089335674,
    ('upper_full', 'gamma:3:0.01', 'exp:2', 40.0): 0.01451768724133976,
    ('upper_main', 'chisq:4', 'chisq:4', 40.0): 0.4430361509275354,
    ('upper_main', 'const:2', 'chisq:4', 0.0): 0.08748699669480454,
    ('upper_main', 'const:2', 'chisq:4', 20.0): 0.16269667336596888,
    ('upper_main', 'const:2', 'chisq:4', 40.0): 0.1644581872096613,
    ('upper_main', 'gamma:2:1000', 'chisq:1', 0.0): 6.440677354676207,
    ('upper_main', 'gamma:2:1000', 'chisq:1', 20.0): 8.263995513871969,
    ('upper_main', 'gamma:2:1000', 'chisq:1', 40.0): 8.5397439373991,
    ('upper_main', 'gamma:3:0.01', 'exp:2', 0.0): 0.00014684082694878584,
    ('upper_main', 'gamma:3:0.01', 'exp:2', 20.0): 0.006712326089335674,
    ('upper_main', 'gamma:3:0.01', 'exp:2', 40.0): 0.01451768724133976,
}

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(dlsec.__file__)))

# Recomputes the pinned cases; argv[1] is the repr of their keys.
_PIN_SCRIPT = """
import ast, sys
from dlsec.bounds import high_snr_limit, lower_full, lower_main, upper_full, upper_main
from dlsec.fading import parse_distribution as law
bound_keys, limit_keys, fallback_dbs = ast.literal_eval(sys.argv[1])
bounds = [tuple(f(law(m), law(e), 10.0 ** (db / 10.0)).value
                for f in (upper_full, lower_full, upper_main, lower_main))
          for m, e, db in bound_keys]
limits = [high_snr_limit(law(m), law(e)).value for m, e in limit_keys]
fallback = []
for db in fallback_dbs:
    dm, de, p_bar = law("const:2"), law("gamma:0.5:1"), 10.0 ** (db / 10.0)
    fallback.append((upper_full(dm, de, p_bar, family_menu=["full-inv"]).value,
                     lower_full(dm, de, p_bar, family_menu=["full-inv"]).value,
                     lower_main(dm, de, p_bar, family_menu=["main-inv"]).value))
print(repr((bounds, limits, fallback)))
"""


class TestPinnedValues:
    @pytest.mark.parametrize("key", sorted(PINNED_BOUNDS), ids=lambda k: f"{k}")
    def test_four_bounds(self, key):
        m, e, db = key
        dm, de = parse_distribution(m), parse_distribution(e)
        p_bar = 10.0 ** (db / 10.0)
        got = tuple(f(dm, de, p_bar).value
                    for f in (upper_full, lower_full, upper_main, lower_main))
        assert repr(got) == repr(PINNED_BOUNDS[key])

    @pytest.mark.parametrize("key", sorted(PINNED_LIMIT), ids=lambda k: f"{k}")
    def test_high_snr_limit(self, key):
        dm, de = parse_distribution(key[0]), parse_distribution(key[1])
        assert repr(high_snr_limit(dm, de).value) == repr(PINNED_LIMIT[key])

    @pytest.mark.parametrize("db", sorted(PINNED_FALLBACK))
    def test_fallback_and_point_mass_main(self, db):
        dm, de = parse_distribution("const:2"), parse_distribution("gamma:0.5:1")
        p_bar = 10.0 ** (db / 10.0)
        uf = upper_full(dm, de, p_bar, family_menu=["full-inv"])
        lf = lower_full(dm, de, p_bar, family_menu=["full-inv"])
        lm = lower_main(dm, de, p_bar, family_menu=["main-inv"])
        assert "warning" in uf.diagnostics and "warning" in lf.diagnostics
        got = (uf.value, lf.value, lm.value)
        assert repr(got) == repr(PINNED_FALLBACK[db])

    @pytest.mark.parametrize("key", sorted(BISECTION_LOWER_MAIN), ids=lambda k: f"{k}")
    def test_lower_main_moved_within_bisection_bracket(self, key):
        m, e, db = key
        pinned = (PINNED_BOUNDS[key][3] if key in PINNED_BOUNDS
                  else PINNED_FALLBACK[db][2])
        assert pinned != BISECTION_LOWER_MAIN[key]
        assert abs(pinned - BISECTION_LOWER_MAIN[key]) <= 5e-11

    @pytest.mark.parametrize("key", sorted(SCIPY_LAW_PINS, key=repr), ids=repr)
    def test_moved_within_1e12_of_scipy_law_pins(self, key):
        name, m, e, db = key
        if (m, e, db) in PINNED_BOUNDS:
            pinned = PINNED_BOUNDS[(m, e, db)][
                ("upper_full", "lower_full", "upper_main", "lower_main").index(name)]
        else:
            pinned = PINNED_FALLBACK[db][("upper_full", "lower_full", "lower_main").index(name)]
        old = SCIPY_LAW_PINS[key]
        assert pinned != old
        assert abs(pinned - old) <= 1e-12 * abs(old)

    @pytest.mark.parametrize("key", sorted(GRID_LIMIT_PINS), ids=repr)
    def test_limit_pin_closer_than_grid_pin_to_reference(self, key):
        ref, tol = limit_reference(key)
        new_err = abs(PINNED_LIMIT[key] - ref)
        assert new_err < abs(GRID_LIMIT_PINS[key] - ref)
        assert new_err <= tol

    def test_pins_do_not_depend_on_blas_threads(self):
        """The pinned cases computed under 1 and 2 BLAS threads, each in a
        fresh interpreter, give the pins' repr."""
        want = repr(([PINNED_BOUNDS[k] for k in sorted(PINNED_BOUNDS)],
                     [PINNED_LIMIT[k] for k in sorted(PINNED_LIMIT)],
                     [PINNED_FALLBACK[db] for db in sorted(PINNED_FALLBACK)]))
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=_SRC)
            proc = subprocess.run(
                [sys.executable, "-c", _PIN_SCRIPT,
                 repr((sorted(PINNED_BOUNDS), sorted(PINNED_LIMIT), sorted(PINNED_FALLBACK)))],
                env=env, capture_output=True, text=True, timeout=300, check=True)
            assert proc.stdout.strip() == want, f"OPENBLAS_NUM_THREADS={threads}"
