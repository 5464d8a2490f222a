"""Rate functional tests: per-state breakdown, expectations, floors."""

import math
import re
import warnings

import numpy as np
import pytest

from dlsec.bounds import lower_full
from dlsec.fading import ChannelState, pair_rule, parse_distribution
from dlsec.numerics import RngSeed, mc_expect, weighted_sum
from dlsec.policy import NonInvertibleChannelError, PowerPolicy, calibrate
from dlsec.rates import (common_rate_floor, delay_floor, ergodic_secrecy_rate,
                         expected_key_share, log_rate, per_state_rates, secrecy_gap)

from flat_grid import flat_grid, pair_list, product_gap, ratio_gap, reference_gap, ulp_bound
from random_laws import random_law

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

    def test_log_rate_splits_only_where_the_product_overflows(self):
        """log1p(p h) bit for bit where p h is finite, log p + log h where
        it overflows, and no warning either way (p = 0 included)."""
        p = np.array([[1e300], [2.0], [0.0]])
        h = np.array([1e-5, 1.0, 1e10])
        with np.errstate(over="ignore"):
            ph = p * h
        finite = np.isfinite(ph)
        assert finite[1:].all() and not finite[0].all()  # only p = 1e300 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = log_rate(p, h)
            assert np.array_equal(log_rate(p[1:], h), np.log1p(p[1:] * h))
        assert np.array_equal(got[finite], np.log1p(ph[finite]))
        assert np.array_equal(got[0, ~finite[0]], np.log(1e300) + np.log(h[~finite[0]]))

    def test_rates_at_a_budget_whose_products_overflow(self):
        """At c = 1e308 every p h on the pair list is near or past the
        float range: each rate stays finite, with no warning, and E[r_s] is
        the list's E[log(h_m/h_e)] to rounding."""
        pol = PowerPolicy("const", 1e308)
        hm, he, w, _, _ = pair_list(CHISQ4, CHISQ4, 200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = per_state_rates(pol, ChannelState(hm, he), 0.7)
            ers = ergodic_secrecy_rate(pol, CHISQ4, CHISQ4)
            key_share = expected_key_share(pol, CHISQ4, CHISQ4, 0.7)
        for field in (r.r_main, r.r_eve, r.r_s, r.r_s_prime, r.r_s_dprime):
            assert np.isfinite(field).all()
        assert abs(ers - weighted_sum(w, np.log(hm / he))) < 1e-12
        assert key_share == weighted_sum(w, r.r_s_prime)

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
        """q = h_e makes r_s' = r_s at every state, so the shared gap is the
        key share too, and it is the per-state path's r_s on the pair list:
        bit for bit for const, within the ratio form's ulp bound for the
        inversion families, and its mean is the list's weighted sum."""
        h_min = CHISQ4.quantile(0.5) if family == "trunc-inv" else 0.0
        pol = calibrate(family, CHISQ4, CHISQ4, 100.0, h_min)
        hm, he, w, _, _ = pair_list(CHISQ4, CHISQ4, 200)
        per_state = per_state_rates(pol, ChannelState(hm, he))
        gap, ers = secrecy_gap(pol, CHISQ4, CHISQ4)
        assert np.array_equal(per_state.r_s, per_state.r_s_prime)
        if family == "const":
            assert np.array_equal(gap, per_state.r_s)
        assert np.all(np.abs(gap - per_state.r_s) <= ulp_bound(pol, per_state.r_s))
        assert ers == weighted_sum(w, gap) == expected_key_share(pol, CHISQ4, CHISQ4)

    @pytest.mark.parametrize("spec_m,spec_e", [
        ("chisq:4", "chisq:4"), ("const:3", "const:1"), ("exp:1", "const:0.5"),
    ])
    def test_key_share_at_positive_kappa_is_the_grid_mean(self, spec_m, spec_e):
        """Above kappa = 0 the key share is the pair list's mean of r_s',
        which falls as kappa grows."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        pol = calibrate("const", dm, de, 100.0)
        hm, he, w, _, _ = pair_list(dm, de, 200)
        shares = []
        for kappa in (0.0, 1.5, 2.0):
            r = per_state_rates(pol, ChannelState(hm, he), kappa)
            shares.append(expected_key_share(pol, dm, de, kappa))
            assert shares[-1] == weighted_sum(w, r.r_s_prime)
        assert shares[0] > shares[1] > shares[2]

    def test_non_finite_integrand_raises_and_gap_is_read_only(self):
        """A NaN or an infinity anywhere in the integrand fails the finite
        check with the node pair named; the shared gap is read-only, one
        value per pair of the list, and its mean is the list's weighted sum."""
        rule = pair_rule(CHISQ4, CHISQ4, 200)
        hm, he, w, _, _ = pair_list(CHISQ4, CHISQ4, 200)
        for bad in (np.nan, np.inf, -np.inf):
            y = np.ones(hm.size)
            y[-200] = bad
            with pytest.raises(ValueError, match=re.escape(
                    f"integrand not finite at grid point (h_m={hm[-200]:.6g}, "
                    f"h_e={he[-200]:.6g})")):
                rule.mean(y)
        gap, ers = secrecy_gap(calibrate("main-inv", CHISQ4, CHISQ4, 100.0), CHISQ4, CHISQ4, 200)
        assert gap.shape == (19_900,)
        assert ers == weighted_sum(w, gap)
        with pytest.raises(ValueError, match="read-only"):
            gap[0] = 0.0

    # main-gain laws crossed with eavesdropper laws, point masses included
    @pytest.mark.parametrize("spec_m,spec_e", [
        ("chisq:4", "chisq:4"), ("gamma:3:0.01", "exp:2"), ("gamma:2:1000", "chisq:1"),
        ("gamma:0.5:1", "exp:0.001"), ("const:2", "chisq:4"), ("chisq:4", "const:0.5"),
        ("const:3", "const:1"), ("exp:1", "gamma:7:0.2"),
    ])
    @pytest.mark.parametrize("family", ["const", "full-inv", "main-inv", "trunc-inv:0.7"])
    def test_gap_is_the_ratio_form_on_the_pair_list(self, spec_m, spec_e, family):
        """One value per pair of the reference list: the ratio form bit for
        bit, and within 5 ulps of max(r_s, log1p(c)) of the product form,
        r_s of per_state_rates at the list's states (bit for bit for const,
        whose formula is unchanged)."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        fam, h_min = family.split(":")[0], float(family.partition(":")[2] or 0.0)
        try:
            pol = calibrate(fam, dm, de, 100.0, h_min)
        except NonInvertibleChannelError:
            pol = PowerPolicy(fam, 3.0, h_min)  # any scale will do
        r_s = secrecy_gap(pol, dm, de, 64)[0]
        hm, he, _, _, _ = pair_list(dm, de, 64)
        assert r_s.tobytes() == ratio_gap(pol, hm, he).tobytes()
        product = per_state_rates(pol, ChannelState(hm, he)).r_s if hm.size else hm
        assert np.array_equal(product, product_gap(pol, hm, he))
        if fam == "const":
            assert np.array_equal(r_s, product)
        assert np.all(np.abs(r_s - product) <= ulp_bound(pol, product))


@pytest.mark.parametrize("family", ["const", "full-inv", "main-inv", "trunc-inv"])
def test_gap_is_zero_off_the_list_and_the_per_state_rate_on_it(family):
    """On random law pairs and budgets (-30 to 200 dB): at every node pair
    of the flat grid off the list (h_m <= h_e), per_state_rates' r_s, and
    r_s' at kappa = 0.7, are exactly 0; on the list, the gap is its r_s
    within the ratio form's ulp bound, and E[r_s] is the list's sum."""
    rng = np.random.default_rng(24)
    positive = 0
    for _ in range(40):
        dm, de = random_law(rng), random_law(rng)
        p_bar = float(10.0 ** rng.uniform(-3.0, 20.0))
        h_min = dm.quantile(0.5) if family == "trunc-inv" else 0.0
        try:
            pol = calibrate(family, dm, de, p_bar, h_min)
        except NonInvertibleChannelError:
            pol = PowerPolicy(family, p_bar, h_min)  # any scale will do
        hm, he, w = flat_grid(dm, de, 32)
        off = hm <= he
        with np.errstate(over="ignore", invalid="ignore"):
            r = per_state_rates(pol, ChannelState(hm[off], he[off]), 0.7) if off.any() else None
            want = product_gap(pol, hm[~off], he[~off])
        assert r is None or (np.all(r.r_s == 0.0) and np.all(r.r_s_prime == 0.0))
        r_s, ers = secrecy_gap(pol, dm, de, 32)
        finite = np.isfinite(want)
        assert np.all(np.abs(r_s - want)[finite] <= ulp_bound(pol, want)[finite])
        assert ers == weighted_sum(w[~off], r_s)
        positive += int((r_s > 0.0).any())
    assert positive >= 10


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


def grid_policies(dm, de, p_bar):
    """The four families at ``p_bar``, trunc-inv at the median main gain;
    a family that does not calibrate takes the budget as its scale."""
    for family in ("const", "full-inv", "main-inv", "trunc-inv"):
        h_min = dm.quantile(0.5) if family == "trunc-inv" else 0.0
        try:
            yield calibrate(family, dm, de, p_bar, h_min)
        except NonInvertibleChannelError:
            yield PowerPolicy(family, min(p_bar, 1e300), h_min)


class TestRatioFormGaps:
    """secrecy_gap equals the reference ratio form on the reference pair
    list bit for bit, at every budget: no power is formed, so none
    overflows, and no gap raises."""

    LAW_PAIRS = [("chisq:4", "const:1e300"), ("const:1e300", "chisq:4"),
                 ("const:1e300", "gamma:3:1"), ("gamma:2:1000", "const:1e300"),
                 ("const:1e300", "const:1e-300"), ("gamma:2:1e300", "chisq:4"),
                 ("chisq:4", "const:5e-324"), ("const:1e300", "const:1e-10")]

    def cases(self):
        rng = np.random.default_rng(25)
        pairs = [(random_law(rng), random_law(rng)) for _ in range(60)]
        pairs += [tuple(map(parse_distribution, pair)) for pair in self.LAW_PAIRS]
        for dm, de in pairs:
            for p_bar in (float(10.0 ** rng.uniform(-3.0, 20.0)),
                          float(10.0 ** rng.uniform(290.0, 305.0))):
                yield dm, de, p_bar

    def test_secrecy_gap_is_the_reference(self):
        """Budgets up to 3 050 dB, and atoms whose ratio h_e / h_m is
        subnormal or 0, where full-inv reads h_m / h_e from the gains and
        takes its logs apart where that overflows.  Everything stays finite,
        with no numpy warning."""
        compared = split = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for dm, de, p_bar in self.cases():
                for pol in grid_policies(dm, de, p_bar):
                    got, mean = secrecy_gap(pol, dm, de)
                    want, want_mean = reference_gap(pol, dm, de)
                    assert got.tobytes() == want.tobytes(), (dm, de, pol)
                    assert repr(mean) == repr(want_mean) and math.isfinite(mean)
                    compared += 1
                    if pol.family == "full-inv" and got.size:
                        hm, he, _, _, _ = pair_list(dm, de)
                        split += bool(np.min(he / hm) < np.finfo(float).tiny)
        assert compared >= 500 and split >= 2
