"""Power policy tests: evaluation, CSI capability, calibration."""

import numpy as np
import pytest

from dlsec.fading import parse_distribution
from dlsec.numerics import RngSeed, mc_expect
from dlsec.policy import (CsiError, NonInvertibleChannelError, PowerPolicy,
                          calibrate, expected_power, parse_policy)

CHISQ4 = parse_distribution("chisq:4")
GAMMA21 = parse_distribution("gamma:2:1")
EXP1 = parse_distribution("exp:1")


class TestPower:
    def test_full_inversion(self):
        pol = PowerPolicy("full-inv", c=2.0)
        assert pol.power(4.0, 1.0) == 2.0

    def test_main_inversion_ignores_eavesdropper(self):
        pol = PowerPolicy("main-inv", c=3.0)
        assert pol.power(3.0, 100.0) == 1.0
        assert pol.power(3.0) == 1.0

    def test_truncated_below_cutoff(self):
        pol = PowerPolicy("trunc-inv", c=3.0, h_min=1.0)
        assert pol.power(0.5, 2.0) == 0.0
        assert pol.power(2.0) == 1.5

    def test_constant(self):
        pol = PowerPolicy("const", c=5.0)
        np.testing.assert_array_equal(pol.power(np.array([0.1, 7.0])), [5.0, 5.0])

    def test_full_inversion_needs_eavesdropper_gain(self):
        with pytest.raises(CsiError):
            PowerPolicy("full-inv", c=2.0).power(4.0)

    def test_nonnegative_and_finite_on_support(self):
        rng = RngSeed(0).generator()
        h_m = CHISQ4.sample(rng, 10_000)
        h_e = CHISQ4.sample(rng, 10_000)
        for pol in (PowerPolicy("const", 5.0), PowerPolicy("full-inv", 2.0),
                    PowerPolicy("main-inv", 3.0), PowerPolicy("trunc-inv", 3.0, 1.0)):
            p = pol.power(h_m, h_e)
            assert np.all(p >= 0.0) and np.all(np.isfinite(p))

    def test_scale_homogeneity(self):
        """Doubling c doubles the power pointwise for inversion families."""
        rng = RngSeed(1).generator()
        h_m = CHISQ4.sample(rng, 1_000)
        h_e = CHISQ4.sample(rng, 1_000)
        for family, h_min in (("full-inv", 0.0), ("main-inv", 0.0),
                              ("trunc-inv", 0.7)):
            p1 = PowerPolicy(family, 1.3, h_min).power(h_m, h_e)
            p2 = PowerPolicy(family, 2.6, h_min).power(h_m, h_e)
            np.testing.assert_allclose(p2, 2.0 * p1, rtol=1e-14)


class TestGrammar:
    def test_parse(self):
        assert parse_policy("const") == ("const", 0.0)
        assert parse_policy("FULL-INV") == ("full-inv", 0.0)
        assert parse_policy("trunc-inv:0.5") == ("trunc-inv", 0.5)

    @pytest.mark.parametrize("text", ["waterfill", "trunc-inv", "trunc-inv:-1",
                                      "trunc-inv:x", "const:3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_policy(text)


class TestCalibrate:
    def test_constant_identity(self):
        assert calibrate("const", CHISQ4, CHISQ4, 5.0).c == 5.0

    def test_main_inversion_gamma(self):
        """E[1/h_m] = 1 for Gamma(2, 1), so c equals the budget."""
        pol = calibrate("main-inv", GAMMA21, CHISQ4, 10.0)
        assert abs(pol.c - 10.0) < 1e-12

    def test_full_inversion_chisq(self):
        """E[1/min] = 3/4 for iid chisq:4, so c = 4/3 * budget."""
        pol = calibrate("full-inv", CHISQ4, CHISQ4, 100.0)
        assert abs(pol.c - 400.0 / 3.0) < 1e-6

    def test_non_invertible_raises(self):
        with pytest.raises(NonInvertibleChannelError, match="non-invertible channel"):
            calibrate("full-inv", EXP1, EXP1, 1.0)
        with pytest.raises(NonInvertibleChannelError, match="E\\[1/h_m\\]"):
            calibrate("main-inv", EXP1, CHISQ4, 1.0)

    def test_zero_budget(self):
        assert calibrate("main-inv", CHISQ4, CHISQ4, 0.0).c == 0.0

    def test_scale_that_overflows_is_infeasible(self):
        """c = p_bar / E[P/c] past the float range is an infeasible entry,
        also where E[1/h_m] itself underflows to 0 (scale 1e308)."""
        atom = parse_distribution("const:1e10")
        with pytest.raises(NonInvertibleChannelError, match="main-inv: the scale .* overflows"):
            calibrate("main-inv", atom, CHISQ4, 1e300)
        with pytest.raises(NonInvertibleChannelError, match="overflows"):
            calibrate("main-inv", parse_distribution("gamma:50:1e308"), CHISQ4, 1.0)
        assert calibrate("const", atom, CHISQ4, 1e300).c == 1e300

    def test_infinite_cutoff_is_infeasible(self):
        """A trunc-inv cutoff of inf (the median of gamma:50:1e308, or
        trunc-inv:inf) never transmits: the truncated moment there is 0."""
        huge = parse_distribution("gamma:50:1e308")
        for dist_m in (huge, CHISQ4):
            with pytest.raises(NonInvertibleChannelError, match="h_min=inf never transmits"):
                calibrate("trunc-inv", dist_m, CHISQ4, 100.0, float("inf"))

    def test_infinite_budget_rejected(self):
        with pytest.raises(ValueError, match="must be finite"):
            calibrate("const", CHISQ4, CHISQ4, float("inf"))

    def test_budget_met_with_equality(self):
        """E[P] meets the budget with equality (relative 1e-9)."""
        p_bar = 7.0
        for family, h_min in (("const", 0.0), ("main-inv", 0.0),
                              ("full-inv", 0.0), ("trunc-inv", 0.8)):
            pol = calibrate(family, CHISQ4, GAMMA21, p_bar, h_min)
            got = expected_power(pol, CHISQ4, GAMMA21)
            assert abs(got - p_bar) <= 1e-9 * p_bar, (family, got)

    def test_truncated_budget_across_cutoffs(self):
        """E[P] = budget holds at every h_min on a grid."""
        p_bar = 12.0
        for h_min in (0.2, 0.5, 1.0, 2.0, 4.0):
            pol = calibrate("trunc-inv", CHISQ4, CHISQ4, p_bar, h_min)
            got = expected_power(pol, CHISQ4, CHISQ4)
            assert abs(got - p_bar) <= 1e-9 * p_bar

    def test_budget_met_monte_carlo(self):
        """10^5-sample MC estimate of E[P] within 4 stderr of the budget.

        The last two laws lie far from unit scale: a fixed 200-node
        quadrature once read gamma:8:1000's E[1/min] 31 % high, and the
        small-shape law's truncated moment at its median 99.9 % low."""
        p_bar = 10.0
        far = parse_distribution("gamma:8:1000")
        small = parse_distribution("gamma:0.0507155:0.00941291")
        for family, dist, h_min in (("main-inv", CHISQ4, 0.0),
                                    ("full-inv", GAMMA21, 0.0),
                                    ("trunc-inv", CHISQ4, 1.0),
                                    ("full-inv", far, 0.0),
                                    ("trunc-inv", small, small.quantile(0.5))):
            pol = calibrate(family, dist, dist, p_bar, h_min)
            est = mc_expect(lambda st, pol=pol: pol.power(st.h_m, st.h_e),
                            dist, dist, 100_000, RngSeed(42))
            assert abs(est.mean - p_bar) <= 4.0 * est.stderr, (family, est)

    def test_truncated_never_transmitting(self):
        with pytest.raises(ValueError, match="never transmits"):
            calibrate("trunc-inv", parse_distribution("const:1"), CHISQ4, 5.0,
                      h_min=2.0)
