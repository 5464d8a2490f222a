"""Rate functional tests: per-state breakdown, expectations, floors."""

import math
import warnings

import numpy as np
import pytest

from dlsec.bounds import lower_full
from dlsec.fading import ChannelState, grid_mean, joint_grid, parse_distribution
from dlsec.numerics import RngSeed, mc_expect, weighted_sum
from dlsec.policy import NonInvertibleChannelError, PowerPolicy, calibrate
from dlsec.rates import (common_rate_floor, delay_floor, ergodic_secrecy_rate,
                         expected_key_share, per_state_rates, secrecy_gap)

CHISQ4 = parse_distribution("chisq:4")
UNIT = PowerPolicy("const", 1.0)


class TestPerStateRates:
    def test_strong_main_channel(self):
        """P=1, h=(3,1), q=h_e: r_s = log(4/2) = log 2, all of it key share."""
        r = per_state_rates(UNIT, ChannelState(3.0, 1.0))
        assert abs(r.r_main - math.log(4.0)) < 1e-15
        assert abs(r.r_eve - math.log(2.0)) < 1e-15
        assert abs(r.r_s - math.log(2.0)) < 1e-15
        assert abs(r.r_s_prime - math.log(2.0)) < 1e-15
        assert r.r_s_dprime == 0.0

    def test_equal_gains(self):
        r = per_state_rates(UNIT, ChannelState(1.0, 1.0))
        assert r.r_s == 0.0

    def test_eavesdropper_stronger_clamps(self):
        r = per_state_rates(UNIT, ChannelState(1.0, 3.0))
        assert r.r_s == 0.0
        assert r.r_s_prime == 0.0

    def test_kappa_threshold(self):
        """With q = max(h_e, kappa), the direct share is the clipped gap
        between what q hides and what the eavesdropper would see."""
        r = per_state_rates(UNIT, ChannelState(9.0, 1.0), kappa=3.0)
        assert abs(r.r_s - math.log(5.0)) < 1e-15
        assert abs(r.r_s_prime - (math.log(10.0) - math.log(4.0))) < 1e-15
        assert abs(r.r_s_dprime - (r.r_s - r.r_s_prime)) < 1e-15

    def test_zero_power_at_infinite_kappa(self):
        """Where P = 0, log(1 + P q) is 0 at kappa = inf too, without a
        warning; where P > 0 the key share vanishes."""
        pol = PowerPolicy("trunc-inv", 2.0, h_min=1.0)
        state = ChannelState(np.array([0.5, 4.0]), np.array([0.25, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = per_state_rates(pol, state, kappa=math.inf)
        assert r.r_s_prime.tolist() == [0.0, 0.0]
        assert r.r_s_dprime.tolist() == r.r_s.tolist()
        assert r.r_main[0] == 0.0 and r.r_main[1] > 0.0

    @pytest.mark.parametrize("kappa", [-1.0, math.nan])
    def test_kappa_must_be_non_negative(self, kappa):
        with pytest.raises(ValueError, match="kappa must be >= 0"):
            per_state_rates(UNIT, ChannelState(9.0, 1.0), kappa)

    def test_all_fields_nonnegative_and_split_exact(self):
        rng = RngSeed(0).generator()
        st = ChannelState(CHISQ4.sample(rng, 20_000), CHISQ4.sample(rng, 20_000))
        pol = calibrate("full-inv", CHISQ4, CHISQ4, 50.0)
        for kappa in (0.0, 2.0):
            r = per_state_rates(pol, st, kappa)
            for f in (r.r_main, r.r_eve, r.r_s, r.r_s_prime, r.r_s_dprime):
                assert np.all(np.asarray(f) >= 0.0)
        # q = h_e zeroes the direct share
        r0 = per_state_rates(pol, st)
        assert np.all(np.asarray(r0.r_s_dprime) == 0.0)

    def test_positive_part_antisymmetry(self):
        """[a-b]^+ - [b-a]^+ = a - b at the integrand level."""
        rng = RngSeed(1).generator()
        st = ChannelState(CHISQ4.sample(rng, 10_000), CHISQ4.sample(rng, 10_000))
        r = per_state_rates(UNIT, st)
        swapped = per_state_rates(UNIT, ChannelState(st.h_e, st.h_m))
        np.testing.assert_allclose(r.r_s - swapped.r_s, r.r_main - r.r_eve,
                                   atol=1e-12)

    def test_full_inversion_rate_floor_identity(self):
        """Under full inversion both channel rates sit at or above
        log(1 + c), with equality on the minimizing coordinate."""
        pol = calibrate("full-inv", CHISQ4, CHISQ4, 30.0)
        floor = math.log1p(pol.c)
        rng = RngSeed(2).generator()
        st = ChannelState(CHISQ4.sample(rng, 100_000), CHISQ4.sample(rng, 100_000))
        r = per_state_rates(pol, st)
        assert np.all(r.r_main >= floor - 1e-12)
        assert np.all(r.r_eve >= floor - 1e-12)
        np.testing.assert_allclose(np.minimum(r.r_main, r.r_eve), floor,
                                   rtol=1e-12)


class TestErgodicSecrecyRate:
    def test_identical_degenerate_gains(self):
        d = parse_distribution("const:2")
        assert ergodic_secrecy_rate(PowerPolicy("const", 3.0), d, d) == 0.0

    def test_deaf_eavesdropper(self):
        got = ergodic_secrecy_rate(UNIT, parse_distribution("const:1"),
                                   parse_distribution("const:1e-12"))
        assert abs(got - math.log(2.0)) < 1e-9

    def test_against_monte_carlo(self):
        pol = calibrate("full-inv", CHISQ4, CHISQ4, 100.0)
        quad = ergodic_secrecy_rate(pol, CHISQ4, CHISQ4)
        est = mc_expect(lambda st: per_state_rates(pol, st).r_s,
                        CHISQ4, CHISQ4, 1_000_000, RngSeed(3))
        assert abs(quad - est.mean) <= 4.0 * est.stderr

    @pytest.mark.parametrize("spec_m,spec_e,family,stream", [
        ("chisq:4", "chisq:4", "const", 1),
        ("chisq:4", "chisq:4", "full-inv", 2),
        ("chisq:4", "chisq:4", "main-inv", 3),
        ("gamma:2:1", "gamma:2:1", "main-inv", 4),
        ("exp:1", "chisq:4", "const", 5),
        ("chisq:4", "gamma:2:1", "full-inv", 6),
    ])
    def test_quadrature_agrees_with_monte_carlo(self, spec_m, spec_e, family,
                                                stream):
        """Quadrature and MC twins agree within 4 stderr across the menu."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        pol = calibrate(family, dm, de, 100.0)
        quad = ergodic_secrecy_rate(pol, dm, de)
        est = mc_expect(lambda st: per_state_rates(pol, st).r_s,
                        dm, de, 200_000, RngSeed(99, stream))
        assert abs(quad - est.mean) <= 4.0 * est.stderr

    @pytest.mark.parametrize("family", ["const", "full-inv", "main-inv", "trunc-inv"])
    def test_key_share_equals_secrecy_rate_at_q_he(self, family):
        """q = h_e makes r_s' = r_s at every state, so the shared gap and
        the per-state path over the joint grid agree bit for bit."""
        h_min = CHISQ4.quantile(0.5) if family == "trunc-inv" else 0.0
        pol = calibrate(family, CHISQ4, CHISQ4, 100.0, h_min)
        grid = joint_grid(CHISQ4, CHISQ4, 200)
        per_state = per_state_rates(pol, ChannelState(grid[0], grid[1]))
        assert ergodic_secrecy_rate(pol, CHISQ4, CHISQ4) == grid_mean(grid, per_state.r_s)
        assert expected_key_share(pol, CHISQ4, CHISQ4) == grid_mean(grid, per_state.r_s_prime)

    @pytest.mark.parametrize("spec_m,spec_e", [
        ("chisq:4", "chisq:4"), ("const:3", "const:1"), ("exp:1", "const:0.5"),
    ])
    def test_key_share_at_positive_kappa_is_the_grid_mean(self, spec_m, spec_e):
        """Above kappa = 0 the key share is the grid mean of r_s', which
        falls as kappa grows."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        pol = calibrate("const", dm, de, 100.0)
        grid = joint_grid(dm, de, 200)
        shares = []
        for kappa in (0.0, 1.5, 2.0):
            r = per_state_rates(pol, ChannelState(grid[0], grid[1]), kappa)
            shares.append(expected_key_share(pol, dm, de, kappa))
            assert shares[-1] == grid_mean(grid, r.r_s_prime)
        assert shares[0] > shares[1] > shares[2]

    def test_non_finite_integrand_raises_and_gap_is_read_only(self):
        """p * h overflows at p_bar = 1e308 and the gap is inf - inf: every
        path into the shared finite check names the grid point."""
        pol = PowerPolicy("const", 1e308)
        msg = "integrand not finite at grid point"
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=msg):
                ergodic_secrecy_rate(pol, CHISQ4, CHISQ4)
            with pytest.raises(ValueError, match=msg):
                expected_key_share(pol, CHISQ4, CHISQ4)
            with pytest.raises(ValueError, match=msg):
                expected_key_share(pol, CHISQ4, CHISQ4, 0.7)
        gap, ers = secrecy_gap(calibrate("main-inv", CHISQ4, CHISQ4, 100.0),
                               CHISQ4, CHISQ4, 200)
        assert ers == weighted_sum(joint_grid(CHISQ4, CHISQ4, 200)[2],
                                   np.maximum(gap, 0.0))
        with pytest.raises(ValueError, match="read-only"):
            gap[0] = 0.0

    # main-gain laws crossed with eavesdropper laws, point masses included
    @pytest.mark.parametrize("spec_m,spec_e", [
        ("chisq:4", "chisq:4"), ("gamma:3:0.01", "exp:2"), ("gamma:2:1000", "chisq:1"),
        ("gamma:0.5:1", "exp:0.001"), ("const:2", "chisq:4"), ("chisq:4", "const:0.5"),
        ("const:3", "const:1"), ("exp:1", "gamma:7:0.2"),
    ])
    @pytest.mark.parametrize("family", ["const", "full-inv", "main-inv", "trunc-inv:0.7"])
    def test_gap_equals_two_dimensional_formula(self, spec_m, spec_e, family):
        """The gap built from the marginal nodes is bit-identical to
        log1p(P h_m) - log1p(P h_e) evaluated on the whole joint grid."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        fam, h_min = family.split(":")[0], float(family.partition(":")[2] or 0.0)
        try:
            pol = calibrate(fam, dm, de, 100.0, h_min)
        except NonInvertibleChannelError:
            pol = PowerPolicy(fam, 3.0, h_min)  # any scale will do
        hm, he, _ = joint_grid(dm, de, 64)
        p = pol.power(hm, he)
        want = np.log1p(p * hm) - np.log1p(p * he)
        assert np.array_equal(secrecy_gap(pol, dm, de, 64)[0], want)


class TestDelayFloor:
    def test_main_inversion_unit_floor(self):
        pol = PowerPolicy("main-inv", c=math.e - 1.0)
        assert abs(delay_floor(pol, CHISQ4) - 1.0) < 1e-15

    def test_constant_power_zero_floor(self):
        assert delay_floor(PowerPolicy("const", 100.0), CHISQ4) == 0.0

    def test_full_inversion_floor(self):
        assert abs(delay_floor(PowerPolicy("full-inv", 3.0), CHISQ4)
                   - math.log(4.0)) < 1e-15

    def test_truncated_floor(self):
        pol = PowerPolicy("trunc-inv", 3.0, h_min=1.0)
        assert delay_floor(pol, CHISQ4) == 0.0
        assert abs(delay_floor(pol, parse_distribution("const:2"))
                   - math.log(4.0)) < 1e-15
        assert delay_floor(pol, parse_distribution("const:0.5")) == 0.0

    def test_degenerate_constant_power(self):
        pol = PowerPolicy("const", 2.0)
        assert abs(delay_floor(pol, parse_distribution("const:3")) - math.log(7.0)) < 1e-15

    def test_is_essential_infimum(self):
        """Floor never exceeds the sampled main-channel rate."""
        rng = RngSeed(4).generator()
        h_m = CHISQ4.sample(rng, 1_000_000)
        h_e = CHISQ4.sample(rng, 1_000_000)
        for pol in (calibrate("full-inv", CHISQ4, CHISQ4, 20.0),
                    calibrate("main-inv", CHISQ4, CHISQ4, 20.0),
                    calibrate("const", CHISQ4, CHISQ4, 20.0),
                    calibrate("trunc-inv", CHISQ4, CHISQ4, 20.0, 1.0)):
            floor = delay_floor(pol, CHISQ4)
            r_main = np.log1p(pol.power(h_m, h_e) * h_m)
            assert floor <= r_main.min() + 1e-12, pol.family


class TestSupportFloors:
    def test_full_inversion_common_rate(self):
        pol = PowerPolicy("full-inv", 5.0)
        assert abs(common_rate_floor(pol, CHISQ4, CHISQ4) - math.log(6.0)) < 1e-15

    def test_continuous_marginal_kills_common_rate(self):
        pol = PowerPolicy("main-inv", 5.0)
        assert common_rate_floor(pol, CHISQ4, CHISQ4) == 0.0
        assert common_rate_floor(pol, parse_distribution("const:2"), CHISQ4) == 0.0

    def test_degenerate_pair_common_rate(self):
        pol = PowerPolicy("main-inv", 4.0)
        dm, de = parse_distribution("const:2"), parse_distribution("const:1")
        # P = 2; r_main = log(5), r_eve = log(3)
        assert abs(common_rate_floor(pol, dm, de) - math.log(3.0)) < 1e-15

    def test_direct_rate_floor(self):
        """lower_full's ess-inf r_s'': 0 under a continuous law at any
        kappa, and the atom's direct share for a point-mass pair."""
        def floor(dm, de, kappa):
            res = lower_full(dm, de, 1.0, family_menu=["const"], q_kappa=kappa)
            return res.diagnostics["r_dprime_floor"]

        assert floor(CHISQ4, CHISQ4, 5.0) == 0.0
        dm, de = parse_distribution("const:9"), parse_distribution("const:1")
        want = math.log(5.0) - (math.log(10.0) - math.log(4.0))
        assert abs(floor(dm, de, 3.0) - want) < 1e-15
