"""Bound operation tests: the four bounds, the fixed point, the high-SNR limit."""

import gc
import math
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

import dlsec.rates as rates_module
from dlsec.bounds import (_CERT_TOL, BoundResult, _best, _digamma, fixed_point_rate,
                          high_snr_limit, key_rate, lower_full, lower_main, resolve_menu_entry,
                          upper_full, upper_main, usable)
from dlsec.cli import main as cli_main
from dlsec.fading import ChannelState, FadingDistribution, pair_rule, parse_distribution
from dlsec.numerics import RngSeed, mc_expect, weighted_sum
from dlsec.policy import MAIN_CSI, CsiError, NonInvertibleChannelError, PowerPolicy, calibrate
from dlsec.rates import (common_rate_floor, delay_floor, ergodic_secrecy_rate,
                         per_state_rates, secrecy_gap)

from child_env import child_env
from eager_reference import eager_bound, eager_lower_full, eager_usable, usable_outcome
from flat_grid import pair_list, reference_gap, scan_fixed_point, ulp_bound
from random_laws import random_law

CHISQ4 = parse_distribution("chisq:4")
GAMMA21 = parse_distribution("gamma:2:1")
EXP1 = parse_distribution("exp:1")

LN2 = math.log(2.0)
EPS = float(np.finfo(float).eps)


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

    def test_near_tie_keeps_the_first_entry(self):
        """At 300 dB on chisq:4 / chisq:4, main-inv's E[r_s] rounds 1.4e-15
        above full-inv's, 3e-15 relative: within the near-tie tolerance,
        so full-inv, first in the menu, is reported."""
        p_bar = 10.0 ** 30.0
        res = upper_full(CHISQ4, CHISQ4, p_bar)
        assert (res.policy.family, res.value) == ("full-inv", 0.4430985850727444)
        main_inv = upper_full(CHISQ4, CHISQ4, p_bar, family_menu=["main-inv"]).value
        assert main_inv == 0.4430985850727458

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
        assert res.diagnostics["binding"] == "r_s_prime_expected"
        assert res.diagnostics["r_o_chosen"] == res.diagnostics["r_s_prime_expected"]
        assert res.diagnostics["r_o_cap"] == math.log1p(pol.c)

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


FOUR_BOUNDS = [upper_full, lower_full, upper_main, lower_main]
TIE_PAIR = ("const:179.145", "gamma:6.91056:0.0728084", 10.0 ** 4.696)


class TestEagerReference:
    """A bound's value, policy and every diagnostic equal the eager
    reference's, and its diagnostics hold only what its value computed."""

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

    @pytest.mark.parametrize("bound", FOUR_BOUNDS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("spec_m, spec_e, p_bar, menu, keys", [
        ("chisq:4", "chisq:4", 100.0, None, ()),
        ("exp:1", "exp:1", 100.0, None, ("infeasible",)),
        ("chisq:4", "chisq:4", 0.0, None, ()),
        ("gamma:3:0.01", "exp:2", 100.0, None, ()),
        ("gamma:0.5:2", "gamma:0.8:0.1", 1e4, None, ("infeasible",)),
        ("const:2", "chisq:4", 100.0, ["full-inv", "main-inv"], ()),
        ("exp:1", "exp:1", 10.0, ["full-inv", "main-inv"], ("warning", "infeasible")),
        ("chisq:4", "chisq:4", 10.0, ["full-inv"], ()),
        ("chisq:4", "chisq:4", 10.0, [], ("warning", "infeasible")),
        (*TIE_PAIR, ["const", "main-inv", "trunc-inv"], ("tied_with",)),
        (*TIE_PAIR, ["trunc-inv:180"], ("warning", "infeasible")),
    ])
    def test_four_bounds_equal_eager_evaluation(self, bound, spec_m, spec_e, p_bar, menu,
                                                keys):
        """Each case's diagnostics carry ``keys`` for every bound, and
        ``skipped`` under main CSI where the menu names full-inv; usable
        raises what it raised on the eager result."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        got = bound(dm, de, p_bar, family_menu=menu)
        want = eager_bound(bound, dm, de, p_bar, menu)
        assert usable_outcome(usable, got) == usable_outcome(eager_usable, want)
        assert got.fallback == ("warning" in want.diagnostics)
        diag = got.diagnostics
        assert (got.value, got.policy) == (want.value, want.policy)
        assert repr(sorted(diag.items())) == repr(sorted(want.diagnostics.items()))
        assert set(keys) <= diag.keys()
        needs_full_csi = bound in (upper_main, lower_main) and "full-inv" in (menu or ())
        assert ("skipped" in diag) == needs_full_csi

    def test_plain_dict_is_kept(self):
        diag = {"binding": "r_d_floor"}
        res = BoundResult(value=0.0, policy=PowerPolicy("const", 1.0), diagnostics=diag)
        assert res.diagnostics is diag and not res.fallback
        assert BoundResult(0.0, PowerPolicy("const", 1.0)).diagnostics == {}

    GAP_BUILD_CASES = [
        # law pair, budget, gaps the four bounds build
        ("chisq:4", "chisq:4", 100.0, 2),
        ("exp:1", "exp:1", 100.0, 0),
        ("chisq:4", "chisq:4", 0.0, 0),
        ("gamma:3:0.01", "exp:2", 100.0, 1),
        ("const:2", "chisq:4", 100.0, 2),
    ]

    @pytest.mark.parametrize("spec_m, spec_e, p_bar, builds", GAP_BUILD_CASES)
    def test_gap_builds_for_the_four_bounds(self, spec_m, spec_e, p_bar, builds):
        """Just the families whose value reads a gap build one: on a
        continuous pair, lower_full's zero-cap entries do not (their
        E[r_s'] is not reported); on a point-mass main gain, main-inv ties
        with const and is not scored."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        secrecy_gap.cache_clear()
        for bound in FOUR_BOUNDS:
            bound(dm, de, p_bar)
        assert secrecy_gap.cache_info().misses == builds

    @pytest.mark.parametrize("spec_m, spec_e, p_bar, _", GAP_BUILD_CASES)
    def test_reading_diagnostics_evaluates_nothing(self, spec_m, spec_e, p_bar, _):
        """The diagnostics were recorded as the values were computed, so
        reading them builds no gap and no pair list."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        results = [bound(dm, de, p_bar) for bound in FOUR_BOUNDS]
        misses = secrecy_gap.cache_info().misses, pair_rule.cache_info().misses
        assert all(repr(res.diagnostics) for res in results)
        assert (secrecy_gap.cache_info().misses, pair_rule.cache_info().misses) == misses

    def test_sweep_on_non_invertible_pair_builds_no_gap(self, capsys):
        """`dlsec sweep` reads values only: on exp:1 / exp:1 every usable
        family scores 0 without a gap at each of the 21 budgets."""
        secrecy_gap.cache_clear()
        assert cli_main(["sweep", "--dist-m", "exp:1", "--dist-e", "exp:1",
                         "--snr-db-grid", "0:40:2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 22
        assert secrecy_gap.cache_info().misses == 0


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
        policy and diagnostics have the repr of the eager pass, which reads
        r_s at the atom in the ratio form and r_s' at kappa > 0 off
        per_state_rates.  With kappa searched, the value is the chosen
        policy's r_s at the atom (per_state_rates' product form, within 5
        ulps of max(r_s, log1p(c))), and no kappa on a 2001-point grid over
        [0, v_m + v_e] does better by more than 4 ulps of the value plus
        that bound."""
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
                r_s = per_state_rates(got.policy, ChannelState(vm, ve)).r_s
                bound = float(ulp_bound(got.policy, r_s))
                assert abs(got.value - r_s) <= bound, (dm, de, menu)
                kappas = np.linspace(0.0, vm + ve, 2001)
                best = atom_value_over_kappa(got.policy, dm, de, kappas).max()
                assert best <= got.value + 4.0 * math.ulp(got.value) + bound, (dm, de, menu)

    def test_extreme_atom_ratio_ends(self):
        """const:1e10 / const:1 once ran a kappa search past 20 s, where
        float spacing near the maximizer was wider than its tolerance."""
        call = ("from dlsec.bounds import lower_full\n"
                "from dlsec.fading import parse_distribution as law\n"
                "print(lower_full(law('const:1e10'), law('const:1'), 100.0).value)")
        proc = subprocess.run([sys.executable, "-c", call], capture_output=True, text=True,
                              env=child_env(), timeout=60, check=True)
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


class TestPointMassTie:
    """On a point-mass main gain v, const, main-inv and trunc-inv with a
    cutoff <= v all transmit p_bar in every state.  The menu scores the
    first of them that calibrates and names the others as ``tied_with``.
    The pair is the one where the reported family once flipped from const
    to main-inv when a sum changed order."""

    DM = parse_distribution("const:179.145")
    DE = parse_distribution("gamma:6.91056:0.0728084")
    P_BAR = 10.0 ** (46.96 / 10.0)

    @pytest.mark.parametrize("bound", [upper_full, lower_full, upper_main, lower_main],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("menu", [["const", "main-inv", "trunc-inv"],
                                      ["trunc-inv", "const", "main-inv"],
                                      ["main-inv", "trunc-inv:179.145", "const"]])
    def test_first_of_the_tie_is_scored(self, bound, menu):
        got = bound(self.DM, self.DE, self.P_BAR, family_menu=menu)
        alone = bound(self.DM, self.DE, self.P_BAR, family_menu=menu[:1])
        assert got.policy.family == alone.policy.family == menu[0].split(":")[0]
        assert got.diagnostics["tied_with"] == menu[1:]
        assert got.value == alone.value

    @pytest.mark.parametrize("bound", [upper_full, lower_full, upper_main, lower_main],
                             ids=lambda f: f.__name__)
    def test_tied_families_agree_to_a_few_ulps(self, bound):
        """Scored alone, each tied family gives the const value up to the
        rounding of its scale c = p_bar v and its power c / v."""
        want = bound(self.DM, self.DE, self.P_BAR, family_menu=["const"]).value
        for entry in ("main-inv", "trunc-inv", "trunc-inv:179.145"):
            got = bound(self.DM, self.DE, self.P_BAR, family_menu=[entry]).value
            assert abs(got - want) <= 4.0 * math.ulp(want), entry

    def test_cutoff_above_the_atom_is_no_tie(self):
        got = upper_main(self.DM, self.DE, self.P_BAR, family_menu=["const", "trunc-inv:180"])
        assert "tied_with" not in got.diagnostics
        assert "never transmits" in got.diagnostics["infeasible"]["trunc-inv:180"]

    def test_tie_is_named_only_on_its_scored_entry(self):
        """upper_full reports full-inv, which ties with nothing."""
        got = upper_full(self.DM, self.DE, self.P_BAR)
        assert got.policy.family == "full-inv" and "tied_with" not in got.diagnostics

    def test_continuous_main_gain_has_no_tie(self):
        got = upper_main(parse_distribution("chisq:4"), self.DE, self.P_BAR)
        assert "tied_with" not in got.diagnostics


def test_memory_held_after_many_law_pairs():
    """The four bounds at 200 nodes over 80 distinct gamma pairs leave
    under 3.5 MiB held once garbage is collected, with every result kept
    and its diagnostics unread: only the last 4 law pairs' pair lists (a
    weight and a gain ratio for each of 19 900 pairs, 318 KB) and the last
    4 gaps (159 KB each) stay cached.  2.97 MiB was measured; the margin
    is three more 159 KB arrays.  The last 8 full 200 x 200 grids held
    6.0 MiB, and keeping three 40 000-point arrays a pair for 64 pairs
    would hold about 62 MiB; a result's diagnostics hold no
    array."""
    tracemalloc.start()
    try:
        results = []
        for i in range(80):
            dm = FadingDistribution("gamma", (1.5 + 0.05 * i, 1.0 + 0.01 * i))
            de = FadingDistribution("gamma", (2.5 + 0.03 * i, 0.5))
            for bound in (upper_full, lower_full, upper_main, lower_main):
                results.append(bound(dm, de, 100.0, nodes=200))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 3.5 * 2**20, held


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


class TestConstFallback:
    """A menu with no usable entry reports constant power scored by the
    bound's own objective.  On this pair trunc-inv:180 never transmits
    (the main gain is an atom below its cutoff)."""

    PAIR = (parse_distribution("const:179.145"),
            parse_distribution("gamma:6.91056:0.0728084"), 10.0 ** 4.696)

    @pytest.mark.parametrize("bound", [upper_full, lower_full, upper_main, lower_main],
                             ids=lambda f: f.__name__)
    def test_fallback_is_the_const_entry(self, bound):
        got = bound(*self.PAIR, family_menu=["trunc-inv:180"])
        want = bound(*self.PAIR, family_menu=["const"])
        assert got.policy == want.policy
        assert got.value == want.value
        diag = dict(got.diagnostics)
        assert "trunc-inv:180" in diag.pop("infeasible")
        assert diag.pop("warning")
        assert diag == want.diagnostics

    def test_lower_main_is_not_read_off_the_upper_objective(self):
        """min{E[r_s], R_d} of the fallback is 5.949, which lower_main
        reported while every fallback was scored that way."""
        upper = upper_main(*self.PAIR, family_menu=["trunc-inv:180"]).value
        lower = lower_main(*self.PAIR, family_menu=["trunc-inv:180"]).value
        assert abs(upper - 5.949) < 5e-4
        assert abs(lower - 2.975) < 5e-4


class TestUsable:
    def test_usable_result_is_returned(self):
        res = upper_full(CHISQ4, CHISQ4, 100.0)
        assert usable(res) is res

    def test_infeasible_menu_names_its_first_failure(self):
        res = upper_full(EXP1, EXP1, 10.0, family_menu=["full-inv", "main-inv"])
        with pytest.raises(NonInvertibleChannelError) as err:
            usable(res)
        assert str(err.value) == res.diagnostics["infeasible"]["full-inv"]

    @pytest.mark.parametrize("bound", [upper_main, lower_main], ids=lambda f: f.__name__)
    def test_menu_of_skipped_entries_is_a_csi_error(self, bound):
        """Every entry skipped, none infeasible: there is no calibration
        failure to name, so the error names the CSI the entry needs."""
        res = bound(CHISQ4, CHISQ4, 10.0, family_menu=["full-inv"])
        assert res.diagnostics["infeasible"] == {}
        with pytest.raises(CsiError, match="'full-inv' needs full CSI"):
            usable(res)

    def test_empty_menu_is_a_value_error(self):
        with pytest.raises(ValueError, match="menu is empty"):
            usable(upper_full(CHISQ4, CHISQ4, 10.0, family_menu=[]))


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
        exactly, and the second iteration drops no gap, which confirms it."""
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

    def test_key_balance_reuses_the_loop_sums(self, monkeypatch):
        """The Newton loop's cost: below R_d, one weighted sum per evaluated
        step (the last iteration drops no new gap and evaluates none), each
        over gaps <= R* alone, about 1 100 of the 19 900 on chisq:4 /
        chisq:4, and K(R*) is read off the last sums.  At R_d, K(R_d) is
        exactly one key_rate over the whole list."""
        import dlsec.bounds as bounds_mod
        calls, key_rates = [], []

        def counted(w, y):
            calls.append(len(y))
            return weighted_sum(w, y)

        def counted_key_rate(gap, w, r):
            key_rates.append(len(gap))
            return key_rate(gap, w, r)

        monkeypatch.setattr(bounds_mod, "weighted_sum", counted)
        monkeypatch.setattr(bounds_mod, "key_rate", counted_key_rate)
        pol = calibrate("main-inv", CHISQ4, CHISQ4, 100.0)
        gap = secrecy_gap(pol, CHISQ4, CHISQ4)[0]
        r_star, diag = fixed_point_rate(pol, CHISQ4, CHISQ4)
        assert diag["binding"] == "key_rate" and diag["fixed_point_iterations"] >= 2
        assert len(calls) == diag["fixed_point_iterations"] - 1 and key_rates == []
        assert max(calls) <= int((gap <= r_star).sum()) < gap.size // 10

        calls.clear()
        monkeypatch.setattr(bounds_mod, "delay_floor", lambda policy, dist_m: 0.1)
        _, diag = fixed_point_rate(pol, CHISQ4, CHISQ4)
        assert diag["binding"] == "r_d_floor" and key_rates == [gap.size]
        assert calls[-1] == gap.size
        assert max(calls[:-1]) <= int((gap <= 0.1).sum())

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


def reference_fixed_point_rate(policy, dist_m, dist_e, nodes=200, grid=secrecy_gap, trace=None):
    """fixed_point_rate as the Newton loop that re-gathers and re-sums the
    gaps above the root on every step, stopped only by a step that does not
    rise: each iteration, the last included, evaluates its step.  K(R*) is
    read off the last step's sums below R_d, and summed over the remaining
    gaps at R_d, on ``grid``'s rates.  A ``trace`` list gets the rise of
    the step, step - R, of each iteration that drops a gap (the first one
    included)."""
    r_d = delay_floor(policy, dist_m)
    diag = {"r_d_floor": r_d, "fixed_point_iterations": 0}
    if r_d <= 0.0:
        diag.update(key_rate_at_zero=0.0, key_balance_margin=0.0, feasible=True,
                    binding="r_d_floor")
        return 0.0, diag
    gap, key_rate_at_zero = grid(policy, dist_m, dist_e, nodes)
    w = pair_list(dist_m, dist_e, nodes)[2]
    positive = gap > 0.0
    g_act, w_act = gap[positive], w[positive]
    root = 0.0
    while True:
        diag["fixed_point_iterations"] += 1
        above = g_act > root
        dropped = not above.all()
        if dropped:
            g_act, w_act = g_act[above], w_act[above]
        total, weight = weighted_sum(w_act, g_act), float(w_act.sum())
        step = total / (1.0 + weight)
        if trace is not None and (dropped or root == 0.0):
            trace.append(step - root)
        if step >= r_d:
            root = r_d
            k_root = weighted_sum(w_act, np.maximum(g_act - r_d, 0.0))
            break
        if step <= root:
            k_root = total - weight * root
            break
        root = step
    diag["key_rate_at_zero"] = key_rate_at_zero
    diag["key_balance_margin"] = min(k_root, r_d) - root
    diag["feasible"] = diag["key_balance_margin"] >= -_CERT_TOL
    diag["binding"] = "r_d_floor" if root == r_d else "key_rate"
    return root, diag


# fixed_point_rate's tolerance against the reference loop, relative to R*
# (and to R_d for the key-balance margin): one sums the gaps above the root,
# the other takes the gaps below it off K(0) and the total weight, so the
# two round apart (by at most 4.5e-15 R* and 3.1e-16 R_d where measured)
FIXED_POINT_RTOL = 1e-14


def assert_fixed_point_agrees(got, want, trace) -> bool:
    """Assert that (R*, diagnostics) ``got`` agrees with the reference
    loop's ``want``: R* within FIXED_POINT_RTOL relative, the key-balance
    margin within FIXED_POINT_RTOL R_d, and every other diagnostic equal.
    The iteration count is equal too, unless the last gap drop of the
    reference loop (its ``trace``) moved the step by at most
    FIXED_POINT_RTOL R*: rounding can then decide whether that drop's step
    rises in one loop and not in the other, so the counts differ by one.
    Returns whether the counts differ."""
    (r_got, d_got), (r_want, d_want) = got, want
    assert abs(r_got - r_want) <= FIXED_POINT_RTOL * r_want
    assert sorted(d_got) == sorted(d_want)
    r_d = d_want["r_d_floor"]
    assert (abs(d_got["key_balance_margin"] - d_want["key_balance_margin"])
            <= FIXED_POINT_RTOL * r_d)
    for key in d_want.keys() - {"key_balance_margin", "fixed_point_iterations"}:
        assert d_got[key] == d_want[key], key
    moved = d_got["fixed_point_iterations"] - d_want["fixed_point_iterations"]
    if moved:
        assert abs(moved) == 1 and trace[-1] <= FIXED_POINT_RTOL * r_want
    return moved != 0


def test_fixed_point_stops_where_the_full_loop_does():
    """Random main-CSI gamma pairs (shapes 1.05-8, scales 1e-2-1e2),
    families and budgets: Newton from the dropped gaps' sums gives the root
    and the diagnostics of the loop that re-sums the kept gaps, to rounding
    (:func:`assert_fixed_point_agrees`).  Only main-inv has a positive delay
    floor on these laws; of its 600 draws, 3 have iteration counts one
    apart, each where the reference's last drop rose by under 1e-14 R*."""
    rng = np.random.default_rng(5)
    iterations, moved = set(), []
    for _ in range(600):
        dm, de = (FadingDistribution("gamma", (float(rng.uniform(1.05, 8.0)),
                                               float(10.0 ** rng.uniform(-2.0, 2.0))))
                  for _ in range(2))
        p_bar = float(10.0 ** rng.uniform(-1.0, 5.0))
        for entry in ("main-inv", "trunc-inv", "const"):
            family, h_min = resolve_menu_entry(entry, dm)
            pol = calibrate(family, dm, de, p_bar, h_min)
            trace = []
            got = fixed_point_rate(pol, dm, de)
            want = reference_fixed_point_rate(pol, dm, de, trace=trace)
            if assert_fixed_point_agrees(got, want, trace):
                moved.append((dm, de, entry, p_bar))
            iterations.add(got[1]["fixed_point_iterations"])
    assert len(iterations) >= 3, iterations
    assert 1 <= len(moved) <= 6, moved


def test_key_balance_margin_is_the_key_rate_at_the_root(monkeypatch):
    """Random law pairs and budgets under main-inv: key_balance_margin is
    min{K(R*), R_d} - R* with K summed over the whole r_s list
    (:func:`key_rate`), to within 32 eps R_d: the two sums of K(R*) round
    apart by up to 12.3 eps R_d on 1 800 such draws.  Each case is run as
    is (R* < R_d: r_s <= r_main, so K(R_d) is 0) and with the delay floor
    pinned below that root, where the loop ends at R* = R_d."""
    import dlsec.bounds as bounds_mod
    rng = np.random.default_rng(30)
    exits = Counter()
    for _ in range(80):
        dm, de = random_law(rng), random_law(rng)
        p_bar = float(10.0 ** rng.uniform(-2.0, 6.0))
        try:
            pol = calibrate("main-inv", dm, de, p_bar)
        except NonInvertibleChannelError:
            continue
        gap, w = secrecy_gap(pol, dm, de)[0], pair_rule(dm, de).w
        root = fixed_point_rate(pol, dm, de)[0]
        for r_d in (delay_floor(pol, dm), root * rng.uniform(0.05, 0.95)):
            if r_d <= 0.0:
                continue
            with monkeypatch.context() as m:
                m.setattr(bounds_mod, "delay_floor", lambda policy, dist_m, r_d=r_d: r_d)
                r_star, diag = fixed_point_rate(pol, dm, de)
            want = min(key_rate(gap, w, r_star), r_d) - r_star
            assert abs(diag["key_balance_margin"] - want) <= 32.0 * EPS * r_d, (dm, de, r_d)
            exits[diag["binding"]] += 1
    assert exits["key_rate"] >= 30 and exits["r_d_floor"] >= 30, exits


def bound_result(bound, *args, **kwargs):
    """A bound's result, or the (type, message) of the error it raises."""
    try:
        return bound(*args, **kwargs)
    except ValueError as err:
        return type(err), str(err)


def bound_outcome(bound, *args, **kwargs):
    """repr of a bound's value, policy and sorted diagnostics, or the
    (type, message) of the error it raises."""
    res = bound_result(bound, *args, **kwargs)
    if isinstance(res, tuple):
        return res
    return repr((res.value, res.policy, sorted(res.diagnostics.items())))


cached_reference_gap = lru_cache(maxsize=8)(reference_gap)


def reference_outcomes(dm, de, p_bar, monkeypatch):
    """The outcomes of upper_full, lower_full and upper_main, lower_main's
    result, and the reference loop's trace per policy it scored, with every
    rate read off the reference ratio form on the reference pair list."""
    traces = {}

    def lower_main_reference(dm, de, p_bar):
        def objective(pol):
            trace = traces[pol] = []
            return reference_fixed_point_rate(pol, dm, de, grid=cached_reference_gap,
                                              trace=trace)
        return _best(dm, de, p_bar, None, MAIN_CSI, objective)

    with monkeypatch.context() as m:
        m.setattr(rates_module, "secrecy_gap", cached_reference_gap)
        return ([bound_outcome(bound, dm, de, p_bar)
                 for bound in (upper_full, lower_full, upper_main)],
                bound_result(lower_main_reference, dm, de, p_bar), traces)


def assert_lower_main_agrees(dm, de, p_bar, want, traces) -> bool:
    """lower_main against the reference's result ``want``: the same error,
    or the same policy and fallback flag with the value and diagnostics of
    :func:`assert_fixed_point_agrees`.  Returns whether the iteration
    counts differ."""
    got = bound_result(lower_main, dm, de, p_bar)
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
        return False
    assert (got.policy, got.fallback) == (want.policy, want.fallback)
    return assert_fixed_point_agrees((got.value, got.diagnostics),
                                     (want.value, want.diagnostics), traces[want.policy])


# far atoms, where full-inv's power c / h_e overflowed at the lowest node
# pair from about 3 050 dB on, and every bound of the first four pairs
# raised somewhere in 3 000-3 080 dB; the ratio form forms no power
OVERFLOW_PAIRS = [("chisq:4", "const:1e300"), ("gamma:3:1", "const:1e290"),
                  ("const:1e300", "chisq:4"), ("chisq:4", "chisq:4"), ("exp:1", "const:1e300")]


class TestClippedGridIdentity:
    """The clipped r_s on the pair list, with the inversion families read
    through the gain ratio, give every value, policy, diagnostic and error
    of the reference ratio form on the reference pair list; lower_main's
    Newton loop, which sums the gaps it drops, agrees with the reference
    loop, which sums the gaps it keeps, to rounding
    (:func:`assert_lower_main_agrees`)."""

    def test_random_law_pairs(self, monkeypatch):
        """300 pairs at -30 to 200 dB; at least 200 reference lists built.
        lower_main is positive on 171 of them, and its iteration count
        moves on none."""
        rng = np.random.default_rng(2024)
        cached_reference_gap.cache_clear()
        moved = []
        for _ in range(300):
            dm, de = random_law(rng), random_law(rng)
            p_bar = float(10.0 ** rng.uniform(-3.0, 20.0))
            want, want_main, traces = reference_outcomes(dm, de, p_bar, monkeypatch)
            got = [bound_outcome(bound, dm, de, p_bar) for bound in FOUR_BOUNDS[:3]]
            assert got == want, (dm, de, p_bar)
            if assert_lower_main_agrees(dm, de, p_bar, want_main, traces):
                moved.append((dm, de, p_bar))
        assert cached_reference_gap.cache_info().misses >= 200
        assert len(moved) <= 6, moved

    @pytest.mark.parametrize("spec_m, spec_e", OVERFLOW_PAIRS)
    def test_overflowing_budgets(self, spec_m, spec_e, monkeypatch):
        """3 000-3 080 dB: agreeing outcomes, and none of them an error."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        for db in range(3000, 3081, 10):
            p_bar = 10.0 ** (db / 10.0)
            want, want_main, traces = reference_outcomes(dm, de, p_bar, monkeypatch)
            got = [bound_outcome(bound, dm, de, p_bar) for bound in FOUR_BOUNDS[:3]]
            assert got == want, db
            assert not any(isinstance(o, tuple) for o in got + [want_main]), (db, got)
            assert_lower_main_agrees(dm, de, p_bar, want_main, traces)

    def test_lower_full_at_positive_kappa(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(30):
            dm, de = random_law(rng), random_law(rng)
            p_bar = float(10.0 ** rng.uniform(-3.0, 20.0))
            got = bound_outcome(lower_full, dm, de, p_bar, q_kappa=0.7)
            with monkeypatch.context() as m:
                m.setattr(rates_module, "secrecy_gap", cached_reference_gap)
                assert got == bound_outcome(lower_full, dm, de, p_bar, q_kappa=0.7)


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
    return gap, pair_list(dm, de, 200)[2], ers


class TestKeyRate:
    @pytest.mark.parametrize("case", KEY_RATE_CASES, ids=repr)
    def test_matches_the_exact_sum(self, case):
        """On 101 points across [0, 1.1 max g] and at 20 of the gaps
        themselves, where K has its breakpoints: within 1e-14 of the
        correctly rounded sum."""
        gap, w, _ = key_rate_case(case)
        positive = gap[gap > 0.0]
        assert positive.size > 0
        picks = np.random.default_rng(7).choice(positive, size=20)
        for r in np.concatenate([np.linspace(0.0, 1.1 * positive.max(), 101), picks]):
            exact = math.fsum(w * np.maximum(gap - r, 0.0))
            assert abs(key_rate(gap, w, r) - exact) <= 1e-14, r

    @pytest.mark.parametrize("case", KEY_RATE_CASES, ids=repr)
    def test_zero_rate_is_expected_secrecy_rate(self, case):
        """K(0) is secrecy_gap's E[r_s], bit for bit: the same sum on the
        same list, which fixed_point_rate reads as K(0)."""
        gap, w, ers = key_rate_case(case)
        assert key_rate(gap, w, 0.0) == ers

    @pytest.mark.parametrize("case", KEY_RATE_CASES, ids=repr)
    def test_zero_above_the_largest_gap(self, case):
        gap, w, _ = key_rate_case(case)
        top = gap.max()
        r = [top, np.nextafter(top, np.inf), 2.0 * top, 1e300]
        assert [key_rate(gap, w, x) for x in r] == [0.0] * 4

    @pytest.mark.parametrize("spec_m,spec_e", [("const:2", "const:5"), ("const:2", "const:2"),
                                               ("chisq:4", "const:1e9")])
    def test_no_positive_gap_gives_zero(self, spec_m, spec_e):
        gap, w, ers = key_rate_case((parse_distribution(spec_m), parse_distribution(spec_e),
                                     "main-inv", 100.0))
        assert not (gap > 0.0).any() and ers == 0.0
        assert [key_rate(gap, w, r) for r in np.linspace(0.0, 5.0, 11)] == [0.0] * 11


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

    @pytest.mark.parametrize("spec_m", ["gamma:1.5:1e-323", "gamma:2:1e-310",
                                        "gamma:1.2:5e-324"])
    def test_flag_reads_the_shapes_not_the_float_range(self, spec_m):
        """Both shapes exceed 1, so E[1/min(h_m, h_e)] is finite, although
        at these scales it overflows the float range."""
        assert high_snr_limit(parse_distribution(spec_m), CHISQ4).invertible is True

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

    def test_one_atom_quad_error_is_the_2h_rule_gap(self):
        """With one point mass, quad_error is the gap to the rule of step 2h
        (at 64 nodes that rule is the one at 32, h = 1/4) and bounds the
        error; a point-mass pair is exact either way round."""
        for dm, de in ((parse_distribution("const:2"), EXP1),
                       (CHISQ4, parse_distribution("const:0.5")),
                       (parse_distribution("const:1"), parse_distribution("gamma:0.05:1"))):
            res = high_snr_limit(dm, de, nodes=64)
            coarse = high_snr_limit(dm, de, nodes=32).value
            assert abs(res.quad_error - abs(res.value - coarse)) <= 1e-14 * res.value
            assert 0.0 < abs(res.value - one_atom_limit_quad(dm, de)) <= res.quad_error
        for vm, ve in ((3.0, 1.0), (1.0, 3.0)):
            atoms = high_snr_limit(FadingDistribution("const", (vm,)),
                                   FadingDistribution("const", (ve,)))
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


def one_atom_limit_quad(dm, de):
    """E[(log(h_m/h_e))^+] with one point mass, by scipy.integrate.quad in
    t = log g, G = h/theta ~ Gamma(k, 1), whose density in t is
    exp(k t - e^t) / Gamma(k).  With y = v/theta the integrand is
    (log y - t)^+ (atom on top) or (t - log y)^+ (atom below); the window
    [log k - 46/k - 10, log max(k, 1) + 5] holds all but e^-46 of the mass,
    and log k, the mode, is a breakpoint."""
    from scipy import integrate

    top = dm.is_degenerate
    law, atom = (de, dm) if top else (dm, de)
    k, log_y = law.shape, math.log(atom.params[0]) - math.log(law.scale)
    sign, c = (1.0 if top else -1.0), math.lgamma(k)
    lo, hi = math.log(k) - 46.0 / k - 10.0, math.log(max(k, 1.0)) + 5.0
    a, b = (lo, min(log_y, hi)) if top else (max(log_y, lo), hi)
    if a >= b:
        return 0.0
    mode = [math.log(k)] if a < math.log(k) < b else None
    return integrate.quad(lambda t: sign * (log_y - t) * math.exp(k * t - math.exp(t) - c),
                          a, b, points=mode, limit=400, epsabs=1e-15, epsrel=1e-13)[0]


def _random_one_atom_pairs(n, seed):
    """Gamma shapes uniform on 0.05-50, scales log-uniform on 1e-3-1e3, the
    atom/scale ratio y log-uniform on 1e-6-1e6, the atom on either side."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        k, y = float(rng.uniform(0.05, 50.0)), float(10.0 ** rng.uniform(-6.0, 6.0))
        theta, on_top = float(10.0 ** rng.uniform(-3.0, 3.0)), bool(rng.random() < 0.5)
        law = FadingDistribution("gamma", (k, theta))
        atom = FadingDistribution("const", (y * theta,))
        pairs.append((atom, law) if on_top else (law, atom))
    return pairs


RANDOM_ONE_ATOM_PAIRS = _random_one_atom_pairs(300, 3)

# Pairs where the old Gauss-Legendre one-atom rule failed, with reference
# values from a log-coordinate quad: it read 0, 3.3e-5, 2.848 and 9.711.
ONE_ATOM_ROWS = {
    ("const:1e6", "gamma:0.05:1e-6"): 48.1288661072,
    ("gamma:50:1e3", "const:1e-3"): 17.7175002314,
    ("const:1", "gamma:0.05:1"): 20.5030575065,
    ("const:1000", "gamma:3:0.01"): 10.5901411299,
}


class TestHighSnrLimitOneAtom:
    """One point mass: the tanh-sinh rule in G = theta y s^(+-1)."""

    @pytest.mark.parametrize("chunk", range(20))
    def test_random_pairs_match_quad(self, chunk):
        """Within 1e-10 max(1, |ref|) of quad, and inside the reported
        quad_error plus 1e-10."""
        for dm, de in RANDOM_ONE_ATOM_PAIRS[15 * chunk:15 * chunk + 15]:
            want = one_atom_limit_quad(dm, de)
            res = high_snr_limit(dm, de)
            err = abs(res.value - want)
            assert err <= 1e-10 * max(1.0, abs(want)), (dm, de, res, want)
            assert err <= res.quad_error + 1e-10, (dm, de, res, want)

    @pytest.mark.parametrize("key", sorted(ONE_ATOM_ROWS), ids=repr)
    def test_rows_the_gauss_legendre_rule_missed(self, key):
        dm, de = parse_distribution(key[0]), parse_distribution(key[1])
        want = one_atom_limit_quad(dm, de)
        res = high_snr_limit(dm, de)
        assert abs(res.value - want) <= 1e-10 * max(1.0, abs(want))
        assert abs(res.value - ONE_ATOM_ROWS[key]) <= 1e-10


class TestDigamma:
    def test_matches_scipy_on_the_shape_range(self):
        from scipy import special

        xs = np.concatenate([np.linspace(0.05, 50.0, 1999), np.arange(1.0, 51.0)])
        for x in xs.tolist():
            assert abs(_digamma(x) - special.digamma(x)) <= 5e-14, x


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

    @pytest.mark.parametrize("log_r", [100.0, 300.0])
    def test_small_main_shape_at_extreme_scale_ratio(self, log_r):
        """k_m = 0.05 against k_e = 50 at theta_m/theta_e = e^log_r, where the
        direct Beta sum was 8.8e-6 off at log r = 100: the value is
        E[log X] = log r + psi(k_m) - psi(k_e) plus the swapped limit."""
        from scipy import special

        dm = FadingDistribution("gamma", (0.05, math.exp(log_r)))
        de = FadingDistribution("gamma", (50.0, 1.0))
        want = (math.log(dm.scale) + special.digamma(0.05) - special.digamma(50.0)
                + beta_limit_quad(de, dm))
        assert abs(high_snr_limit(dm, de).value - want) <= 1e-10 * want

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
    ('const:2', 'chisq:4'): 0.16447904046849543,
    ('const:3', 'const:1'): 1.0986122886681098,
    ('gamma:0.5:1', 'gamma:0.5:1'): 1.166243616123274,
    ('gamma:2:1000', 'chisq:1'): 8.600903207878682,
    ('gamma:3:0.01', 'exp:2'): 0.014925414335969162,
}

# The two limit pins that moved when every limit became one tanh-sinh sum,
# as they were before, with the largest shift allowed: const:2/chisq:4 came
# from the Gauss-Legendre one-atom rule, and gamma:2:1000/chisq:1 (main mean
# above the eavesdropper's) is now E[log X] plus the swapped Beta sum.
PRE_TANH_SINH_LIMIT_PINS = {
    ('const:2', 'chisq:4'): (0.16447904047826095, 1e-11),
    ('gamma:2:1000', 'chisq:1'): (8.600903207878687, 1e-14),
}
# E[(log(2/h))^+] at h ~ chisq:4: gamma + E1(1) - 1 + 1/e, to 30 digits (mpmath)
CONST2_CHISQ4_LIMIT = 0.164479040468495455879199635704

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
# Six lower_main entries moved by <= 2.2e-15 relative when the fixed point
# came to take its sums off the gaps it drops (PRE_DROPPED_GAP_LOWER_MAIN).
PINNED_BOUNDS = {
    ('chisq:4', 'chisq:4', 0.0): (0.31746082115720153, 0.31746082115720153, 0.22044032398217353, 0.151375539875349),
    ('chisq:4', 'chisq:4', 20.0): (0.4412334868371174, 0.4412334868371174, 0.43714258342905327, 0.30290537634182),
    ('chisq:4', 'chisq:4', 40.0): (0.4430798396763715, 0.4430798396763715, 0.44303615092753607, 0.3070871576213768),
    ('const:2', 'chisq:4', 0.0): (0.11664440368915388, 0.11664440368915388, 0.08748699669480453, 0.07024425047887939),
    ('const:2', 'chisq:4', 20.0): (0.163771258702395, 0.163771258702395, 0.16269667336596894, 0.1310943152437826),
    ('const:2', 'chisq:4', 40.0): (0.16446948168759135, 0.16446948168759135, 0.16445818720966138, 0.13252512428749372),
    ('const:3', 'const:1', 0.0): (0.6931471805599453, 0.6931471805599453, 0.6931471805599453, 0.34657359027997264),
    ('const:3', 'const:1', 20.0): (1.0919897479076157, 1.0919897479076157, 1.0919897479076157, 0.5459948739538079),
    ('const:3', 'const:1', 40.0): (1.0985456264455653, 1.0985456264455653, 1.0985456264455653, 0.5492728132227827),
    ('gamma:0.5:1', 'gamma:0.5:1', 0.0): (0.0, 0.0, 0.0, 0.0),
    ('gamma:0.5:1', 'gamma:0.5:1', 20.0): (0.0, 0.0, 0.0, 0.0),
    ('gamma:0.5:1', 'gamma:0.5:1', 40.0): (0.0, 0.0, 0.0, 0.0),
    ('gamma:2:1000', 'chisq:1', 0.0): (6.440677354676205, 0.0, 6.440677354676205, 3.225564722438336),
    ('gamma:2:1000', 'chisq:1', 20.0): (8.26399551387196, 0.0, 8.26399551387196, 4.139702876954521),
    ('gamma:2:1000', 'chisq:1', 40.0): (8.539743937399095, 0.0, 8.539743937399095, 4.278172310232196),
    ('gamma:3:0.01', 'exp:2', 0.0): (0.00014684082694878562, 0.0, 0.00014684082694878562, 0.00014478561905296785),
    ('gamma:3:0.01', 'exp:2', 20.0): (0.006712326089335658, 0.0, 0.006712326089335658, 0.006618379290854894),
    ('gamma:3:0.01', 'exp:2', 40.0): (0.01451768724133973, 0.0, 0.01451768724133973, 0.014314495349361208),
}

# The rows of PINNED_BOUNDS that moved when every rate functional came to
# be summed over the node pairs with h_m > h_e only, and the inversion
# families' r_s to be read through the gain ratio, as they were before.
# Each value moved by at most 2.8e-15 relative, lower_main by at most 1.9e-16.
PRE_PAIR_LIST_BOUNDS = {
    ('chisq:4', 'chisq:4', 0.0): (0.31746082115720137, 0.31746082115720137, 0.2204403239821736, 0.15137553987534885),
    ('chisq:4', 'chisq:4', 20.0): (0.4412334868371167, 0.4412334868371167, 0.43714258342905293, 0.30290537634182013),
    ('chisq:4', 'chisq:4', 40.0): (0.44307983967637216, 0.44307983967637216, 0.4430361509275358, 0.3070871576213761),
    ('const:2', 'chisq:4', 20.0): (0.16377125870239503, 0.16377125870239503, 0.16269667336596894, 0.1310943152437826),
    ('const:2', 'chisq:4', 40.0): (0.16446948168759137, 0.16446948168759137, 0.16445818720966138, 0.13252512428749372),
    ('gamma:2:1000', 'chisq:1', 20.0): (8.263995513871958, 0.0, 8.263995513871958, 4.139702876954521),
    ('gamma:2:1000', 'chisq:1', 40.0): (8.539743937399097, 0.0, 8.539743937399097, 4.278172310232195),
    ('gamma:3:0.01', 'exp:2', 0.0): (0.00014684082694878603, 0.0, 0.00014684082694878603, 0.00014478561905296788),
    ('gamma:3:0.01', 'exp:2', 20.0): (0.006712326089335673, 0.0, 0.006712326089335673, 0.006618379290854893),
    ('gamma:3:0.01', 'exp:2', 40.0): (0.014517687241339759, 0.0, 0.014517687241339759, 0.014314495349361208),
}

# lower_main as the fixed point had it while each Newton step re-summed the
# gaps above the root, for every pin that moved when the step came to take
# its sums off the gaps it drops (K(0) and the list's total weight less
# theirs); the const:2 / gamma:0.5:1 rows are the fallback table's main-inv
# column.  Each moved by at most 2.2e-15 relative.
PRE_DROPPED_GAP_LOWER_MAIN = {
    ('chisq:4', 'chisq:4', 0.0): 0.15137553987534885,
    ('chisq:4', 'chisq:4', 20.0): 0.30290537634182013,
    ('chisq:4', 'chisq:4', 40.0): 0.3070871576213761,
    ('const:2', 'chisq:4', 0.0): 0.0702442504788794,
    ('gamma:2:1000', 'chisq:1', 0.0): 3.225564722438335,
    ('gamma:2:1000', 'chisq:1', 40.0): 4.278172310232195,
    ('const:2', 'gamma:0.5:1', 0.0): 0.4072663174373325,
    ('const:2', 'gamma:0.5:1', 40.0): 1.4293079894944924,
}

# const:2 / gamma:0.5:1: upper_full and lower_full with menu [full-inv]
# (infeasible, so each scores the const fallback by its own objective:
# min{E[r_s], R_d} for upper_full, and 0 for lower_full, whose common-rate
# cap is 0 off a point-mass pair) and lower_main with menu [main-inv] (a
# point-mass main gain).  The lower_full column read 0.7755862988273268,
# 2.3277239818720976 and 2.6118496781878036 while every fallback was scored
# by the upper bounds' objective.
PINNED_FALLBACK = {
    0.0: (0.7755862988273268, 0.0, 0.4072663174373326),
    20.0: (2.3277239818720976, 0.0, 1.261999842470426),
    40.0: (2.6118496781878036, 0.0, 1.4293079894944927),
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
# the Beta-coordinate rule; see GRID_LIMIT_PINS.  The lower_full fallback
# pins of const:2 / gamma:0.5:1 were dropped when the fallback came to be
# scored by lower_full's own objective; they equalled upper_full's.)
SCIPY_LAW_PINS = {
    ('lower_full', 'chisq:4', 'chisq:4', 0.0): 0.31746082115720053,
    ('lower_full', 'chisq:4', 'chisq:4', 20.0): 0.4412334868371165,
    ('lower_full', 'chisq:4', 'chisq:4', 40.0): 0.44307983967637204,
    ('lower_full', 'const:2', 'chisq:4', 40.0): 0.16446948168759148,
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

    @pytest.mark.parametrize("key", sorted(PRE_DROPPED_GAP_LOWER_MAIN), ids=repr)
    def test_lower_main_moved_within_1e14_of_kept_gap_pins(self, key):
        m, e, db = key
        pinned = (PINNED_BOUNDS[key][3] if key in PINNED_BOUNDS
                  else PINNED_FALLBACK[db][2])
        old = PRE_DROPPED_GAP_LOWER_MAIN[key]
        assert pinned != old
        assert abs(pinned - old) <= 1e-14 * abs(old)

    @pytest.mark.parametrize("key", sorted(PRE_PAIR_LIST_BOUNDS), ids=repr)
    def test_moved_within_1e13_of_full_grid_pins(self, key):
        old, pinned = PRE_PAIR_LIST_BOUNDS[key], PINNED_BOUNDS[key]
        assert old != pinned
        for o, p in zip(old, pinned):
            assert abs(p - o) <= 1e-13 * abs(o)

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

    @pytest.mark.parametrize("key", sorted(PRE_TANH_SINH_LIMIT_PINS), ids=repr)
    def test_limit_pin_moved_within_its_bound(self, key):
        old, bound = PRE_TANH_SINH_LIMIT_PINS[key]
        assert PINNED_LIMIT[key] != old
        assert abs(PINNED_LIMIT[key] - old) <= bound

    def test_one_atom_limit_pin_is_the_exact_value(self):
        assert abs(PINNED_LIMIT[('const:2', 'chisq:4')] - CONST2_CHISQ4_LIMIT) <= 1e-16

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
            env = child_env(OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", _PIN_SCRIPT,
                 repr((sorted(PINNED_BOUNDS), sorted(PINNED_LIMIT), sorted(PINNED_FALLBACK)))],
                env=env, capture_output=True, text=True, timeout=300, check=True)
            assert proc.stdout.strip() == want, f"OPENBLAS_NUM_THREADS={threads}"
