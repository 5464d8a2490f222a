"""Fading distribution tests: grammar, densities, sampling, inverse moments."""

import math
import re
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats

from dlsec.fading import (SHAPE_MAX, SHAPE_MIN, ChannelState, FadingDistribution,
                          inverse_min_moment, inverse_moment, pair_rule, parse_distribution,
                          truncated_inverse_moment)
from dlsec.numerics import RngSeed, halfline_nodes, weighted_sum

import moment_reference as reference
from flat_grid import flat_grid


class TestGrammar:
    @pytest.mark.parametrize("text,kind,params", [
        ("chisq:4", "chisq", (4.0,)),
        ("GAMMA:2:1", "gamma", (2.0, 1.0)),
        ("exp:1", "exp", (1.0,)),
        ("Const:2.5", "const", (2.5,)),
    ])
    def test_parse(self, text, kind, params):
        d = parse_distribution(text)
        assert d.kind == kind
        assert d.params == params

    def test_spec_round_trip(self):
        for text in ("chisq:4", "gamma:2:1", "exp:1", "const:2.5"):
            assert parse_distribution(text).spec() == text

    @pytest.mark.parametrize("text", ["rayleigh:1", "chisq", "gamma:2", "exp:abc",
                                      "const:-1", "chisq:0", "chisq:2.5"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_distribution(text)

    @pytest.mark.parametrize("text", ["gamma:nan:1", "gamma:inf:1", "gamma:2:nan",
                                      "gamma:2:inf", "exp:nan", "exp:inf", "chisq:nan",
                                      "chisq:inf", "const:nan", "const:inf"])
    def test_rejects_non_finite_parameters(self, text):
        """NaN shapes used to stall the cdf's convergence test for minutes."""
        with pytest.raises(ValueError, match="positive finite"):
            parse_distribution(text)

    @pytest.mark.parametrize("text", ["gamma:1e-300:1", "gamma:0.0499:1", "gamma:50.01:1",
                                      "gamma:1e10:1", "gamma:1e15:1", "chisq:101",
                                      "chisq:1e300"])
    def test_rejects_shapes_outside_the_tested_range(self, text):
        """Shapes the law cannot evaluate: 1e-300 overflowed the quantile's
        start, 1e300 divided by zero in the cdf, 1e10 gave a median whose
        cdf read 0.49998 and 1e15 ran for minutes."""
        with pytest.raises(ValueError, match="gamma shape"):
            parse_distribution(text)

    @pytest.mark.parametrize("text", ["gamma:0.05:1", "gamma:50:1", "chisq:1", "chisq:100",
                                      "gamma:0.3:1e-3", "gamma:8:1e3"])
    def test_accepts_the_ends_of_the_range(self, text):
        parse_distribution(text)

    def test_range_is_the_one_tested_against_scipy(self):
        assert (SHAPE_MIN, SHAPE_MAX) == (min(LAW_SHAPES), max(LAW_SHAPES))


class TestPdf:
    def test_exponential_at_origin_limit(self):
        d = parse_distribution("exp:1")
        assert abs(d.pdf(1e-12) - 1.0) < 1e-9

    def test_point_mass_has_no_density(self):
        with pytest.raises(ValueError, match="not absolutely continuous"):
            parse_distribution("const:2").pdf(2.0)

    def test_chisq4_at_two(self):
        """Gamma(2, 2) density at 2 is (2/4) e^{-1} (gamma formula by hand)."""
        assert abs(parse_distribution("chisq:4").pdf(2.0)
                   - 0.18393972058572116) < 1e-12

    def test_chisq_equals_gamma_representation(self):
        c = parse_distribution("chisq:4")
        g = parse_distribution("gamma:2:2")
        x = np.linspace(0.05, 30.0, 400)
        np.testing.assert_allclose(c.pdf(x), g.pdf(x), atol=1e-12, rtol=0)

    # bounded densities only (shape >= 1): an x^{a-1} singularity at the
    # origin is outside both the model and the fixed rational-map rule
    @pytest.mark.parametrize("text", ["chisq:4", "chisq:2", "gamma:2:1",
                                      "gamma:3:0.5", "exp:1", "exp:0.5"])
    def test_unit_mass(self, text):
        d = parse_distribution(text)
        x, w = halfline_nodes(400)
        mass = weighted_sum(w, d.pdf(x))
        assert abs(mass - 1.0) < 1e-8

    def test_nonpositive_argument(self):
        with pytest.raises(ValueError):
            parse_distribution("exp:1").pdf(0.0)
        with pytest.raises(ValueError):
            parse_distribution("exp:1").pdf(-1.0)


# Shapes 0.05-50 and scales 1e-3-1e3.  The points y = x / scale run from
# 1e-30 (far lower tail) to k + 40 sqrt(k) + 40 (far upper tail).
LAW_SHAPES = (0.05, 0.3, 0.9, 1.0, 2.0, 7.5, 50.0)
LAW_SCALES = (1e-3, 1.0, 1e3)
QUANTILE_LEVELS = (1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-6, 1 - 1e-12)


def law_points(k):
    return np.concatenate([np.geomspace(1e-30, 1e-2, 40),
                           np.linspace(1e-2, k + 40.0 * math.sqrt(k) + 40.0, 300)])


@pytest.mark.parametrize("scale", LAW_SCALES)
@pytest.mark.parametrize("k", LAW_SHAPES)
class TestLawAgainstScipy:
    """The numpy/math gamma law against scipy.stats.gamma as reference."""

    def test_pdf(self, k, scale):
        """1e-13 relative, plus the rounding of the log-density exponent
        (2e-16 per unit of its size), wherever the exponent is below 700."""
        y = law_points(k)
        exponent = (k - 1.0) * np.log(y) - y - math.lgamma(k)
        keep = np.abs(exponent) < 700.0
        got = FadingDistribution("gamma", (k, scale)).pdf(y[keep] * scale)
        want = stats.gamma.pdf(y[keep] * scale, a=k, scale=scale)
        tol = (1e-13 + 2e-16 * np.abs(exponent[keep])) * want
        assert np.all(np.abs(got - want) <= tol)

    def test_cdf(self, k, scale):
        """1e-12 relative, on the array path and on the scalar path."""
        x = law_points(k) * scale
        d = FadingDistribution("gamma", (k, scale))
        want = stats.gamma.cdf(x, a=k, scale=scale)
        np.testing.assert_allclose(d.cdf(x), want, rtol=1e-12, atol=0.0)
        scalar = np.array([d.cdf(float(v)) for v in x[::7]])
        np.testing.assert_allclose(scalar, want[::7], rtol=1e-12, atol=0.0)

    def test_quantile(self, k, scale):
        """1e-13 relative, from p = 1e-12 to 1 - 1e-12."""
        d = FadingDistribution("gamma", (k, scale))
        for p in QUANTILE_LEVELS:
            want = stats.gamma.ppf(p, a=k, scale=scale)
            assert abs(d.quantile(p) - want) <= 1e-13 * want, p


class TestLawEdges:
    def test_cdf_outside_the_open_half_line(self):
        d = parse_distribution("gamma:2:3")
        assert d.cdf(0.0) == 0.0 and d.cdf(-1.0) == 0.0 and d.cdf(math.inf) == 1.0
        assert math.isnan(d.cdf(math.nan))
        got = d.cdf(np.array([-1.0, 0.0, math.inf, math.nan]))
        np.testing.assert_array_equal(got, [0.0, 0.0, 1.0, math.nan])

    def test_point_mass_cdf_and_quantile(self):
        d = parse_distribution("const:2")
        np.testing.assert_array_equal(d.cdf(np.array([1.0, 2.0, 3.0])), [0.0, 1.0, 1.0])
        assert d.quantile(0.5) == 2.0

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, dlsec, dlsec.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "[]"


class TestSample:
    def test_point_mass(self):
        out = parse_distribution("const:3.5").sample(RngSeed(0), 4)
        np.testing.assert_array_equal(out, [3.5] * 4)

    def test_chisq_mean(self):
        x = parse_distribution("chisq:4").sample(RngSeed(1), 1_000_000)
        stderr = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 4.0) <= 3.0 * stderr

    def test_gamma_variance(self):
        """Sample variance near k*theta^2 = 2 for Gamma(2, 1).

        The variance estimator's stderr comes from the fourth central
        moment: Var(s^2) ~ (mu4 - sigma^4)/n.
        """
        x = parse_distribution("gamma:2:1").sample(RngSeed(2), 1_000_000)
        s2 = x.var(ddof=1)
        mu4 = np.mean((x - x.mean()) ** 4)
        stderr = math.sqrt((mu4 - s2 ** 2) / x.size)
        assert abs(s2 - 2.0) <= 3.0 * stderr

    def test_deterministic(self):
        d = parse_distribution("gamma:2:1")
        np.testing.assert_array_equal(d.sample(RngSeed(3), 100),
                                      d.sample(RngSeed(3), 100))

    def test_chisq_and_gamma_indistinguishable(self):
        """Two-sample KS below the 1% critical value at n = 1e5.

        The two kinds use different generator code paths, so this actually
        exercises the equality in law.
        """
        n = 100_000
        a = parse_distribution("chisq:4").sample(RngSeed(4), n)
        b = parse_distribution("gamma:2:2").sample(RngSeed(5), n)
        stat = stats.ks_2samp(a, b).statistic
        critical = 1.628 * math.sqrt(2.0 / n)  # c(0.01) sqrt((n+m)/(nm))
        assert stat < critical


class TestInverseMoments:
    def test_gamma_closed_form(self):
        assert abs(inverse_moment(parse_distribution("gamma:2:1")) - 1.0) < 1e-12

    def test_chisq4(self):
        assert abs(inverse_moment(parse_distribution("chisq:4")) - 0.5) < 1e-12

    def test_exponential_diverges(self):
        # analytic: int e^{-x}/x dx diverges at 0 (shape 1)
        assert math.isinf(inverse_moment(parse_distribution("exp:1")))

    def test_point_mass(self):
        assert inverse_moment(parse_distribution("const:2")) == 0.5

    def test_truncated_moment(self):
        """chisq:4 above 1: int_1^inf e^{-x/2}/4 dx = e^{-1/2}/2 by hand."""
        d = parse_distribution("chisq:4")
        got = truncated_inverse_moment(d, 1.0)
        assert math.isclose(got, math.exp(-0.5) / 2.0, rel_tol=1e-14, abs_tol=0.0)
        # degenerate cases
        assert truncated_inverse_moment(parse_distribution("const:2"), 1.0) == 0.5
        assert truncated_inverse_moment(parse_distribution("const:2"), 3.0) == 0.0


class TestInverseMinMoment:
    def test_degenerate_pair(self):
        c2 = parse_distribution("const:2")
        assert inverse_min_moment(c2, c2) == 0.5

    def test_exponential_pair_diverges(self):
        """min of iid Exp(1) is Exp(2); E[1/X] diverges for exponentials."""
        e = parse_distribution("exp:1")
        assert math.isinf(inverse_min_moment(e, e))
        assert math.isinf(inverse_min_moment(e, parse_distribution("chisq:4")))

    def test_chisq4_pair(self):
        """min density is (x/2)(1 + x/2) e^{-x}, so E[1/min] = 3/4 by hand;
        cross-checked by Monte Carlo."""
        d = parse_distribution("chisq:4")
        got = inverse_min_moment(d, d)
        assert math.isclose(got, 0.75, rel_tol=1e-14, abs_tol=0.0)
        rng = RngSeed(6).generator()
        mc = float(np.mean(1.0 / np.minimum(d.sample(rng, 1_000_000),
                                            d.sample(rng, 1_000_000))))
        assert abs(got - mc) < 0.02  # heavy-tailed sample, loose window

    def test_gamma_pair_and_mixed(self):
        g = parse_distribution("gamma:2:1")
        d = parse_distribution("chisq:4")
        # min density 2x(1+x)e^{-2x}: E[1/min] = 3/2
        assert math.isclose(inverse_min_moment(g, g), 1.5, rel_tol=1e-14, abs_tol=0.0)
        # hand-derived: int e^{-3x/2} (5/4 + 3x/4) dx = 7/6
        assert math.isclose(inverse_min_moment(d, g), 7.0 / 6.0, rel_tol=1e-14, abs_tol=0.0)

    def test_degenerate_against_continuous(self):
        """E[1/min(2, Y)] for chisq:4 = (1 - e^{-1})/2 + e^{-1} by hand."""
        got = inverse_min_moment(parse_distribution("const:2"),
                                 parse_distribution("chisq:4"))
        want = (1.0 - math.exp(-1.0)) / 2.0 + math.exp(-1.0)
        assert math.isclose(got, want, rel_tol=1e-14, abs_tol=0.0)

    def test_dominates_single_moment(self):
        """min(h_m, h_e) <= h_m pointwise, so the min moment dominates."""
        for text in ("chisq:4", "gamma:2:1", "gamma:3:0.5", "const:2"):
            d = parse_distribution(text)
            assert inverse_min_moment(d, d) >= inverse_moment(d) - 1e-12


class TestMomentsAgainstScipy:
    """The closed-form calibration moments within 1e-12 relative of the
    scipy reference in ``moment_reference``, on fixed-seed draws of shapes
    and of scales 1e-3 to 1e3."""

    REL = 1e-12

    @staticmethod
    def scales(rng, n):
        return 10.0 ** rng.uniform(-3.0, 3.0, n)

    def test_gamma_pairs(self):
        rng = np.random.default_rng(0)
        n = 200
        for k_m, k_e, s_m, s_e in zip(rng.uniform(1.0001, 50.0, n), rng.uniform(1.0001, 50.0, n),
                                      self.scales(rng, n), self.scales(rng, n)):
            dm = FadingDistribution("gamma", (k_m, s_m))
            de = FadingDistribution("gamma", (k_e, s_e))
            assert math.isclose(inverse_min_moment(dm, de), reference.inverse_min_moment(dm, de),
                                rel_tol=self.REL), (dm, de)

    def test_one_atom_pairs(self):
        rng = np.random.default_rng(1)
        n = 100
        for k, s, v in zip(rng.uniform(1.0001, 50.0, n), self.scales(rng, n), self.scales(rng, n)):
            cont, atom = FadingDistribution("gamma", (k, s)), FadingDistribution("const", (v,))
            want = reference.inverse_min_moment(atom, cont)
            for pair in ((atom, cont), (cont, atom)):
                assert math.isclose(inverse_min_moment(*pair), want, rel_tol=self.REL), pair

    def test_truncated(self):
        """Shapes 0.05 to 50, k = 1 and k within 1e-6 of 1 included, at
        h_min / theta from 1e-12 to 700."""
        rng = np.random.default_rng(2)
        shapes = np.concatenate([rng.uniform(SHAPE_MIN, SHAPE_MAX, 150), [1.0],
                                 1.0 + rng.uniform(-1e-6, 1e-6, 20)])
        ys = 10.0 ** rng.uniform(-12.0, math.log10(700.0), shapes.size)
        for k, s, y in zip(shapes, self.scales(rng, shapes.size), ys):
            d = FadingDistribution("gamma", (k, s))
            h_min = float(y * s)
            assert math.isclose(truncated_inverse_moment(d, h_min),
                                reference.truncated_inverse_moment(d, h_min),
                                rel_tol=self.REL), (d, h_min)


class TestStateAndExpectation:
    def test_state_validation(self):
        with pytest.raises(ValueError):
            ChannelState(0.0, 1.0)
        with pytest.raises(ValueError):
            ChannelState(np.array([1.0, -2.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            ChannelState(math.inf, 1.0)

    def test_expectation_matches_product_of_means(self):
        d = parse_distribution("chisq:4")
        g = parse_distribution("gamma:2:1")
        rule = pair_rule(d, g)
        got = rule.mean(rule.h_m * rule.h_e)
        assert abs(got - 4.0 * 2.0) < 1e-8

    def test_expectation_with_atom(self):
        c = parse_distribution("const:3")
        d = parse_distribution("chisq:4")
        rule = pair_rule(c, d)
        got = rule.mean(rule.h_m + rule.h_e)
        assert abs(got - 7.0) < 1e-8

    def test_pair_rule_weights_are_the_flat_product_rule(self):
        """Bit for bit the products of the flat layout, read-only and cached."""
        d, g = parse_distribution("chisq:4"), parse_distribution("gamma:2:1")
        rule = pair_rule(d, g, 64)
        assert np.array_equal(rule.w, flat_grid(d, g, 64)[2])
        assert rule is pair_rule(d, g, 64)
        with pytest.raises(ValueError, match="read-only"):
            rule.w[0] = 0.0

    def test_non_finite_entry_is_named_by_its_node_pair(self):
        """The error names (h_m, h_e) of the first non-finite entry of a
        2-D integrand, in the flat order of the weights."""
        d, g = parse_distribution("chisq:4"), parse_distribution("gamma:2:1")
        rule = pair_rule(d, g, 16)
        xm, xe = rule.h_m[:, 0], rule.h_e
        y = np.zeros((xm.size, xe.size))
        y[3, 11] = np.nan
        y[5, 2] = np.inf
        y[9, 0] = -np.inf
        with pytest.raises(ValueError, match=re.escape(
                f"integrand not finite at grid point (h_m={xm[3]:.6g}, h_e={xe[11]:.6g})")):
            rule.mean(y)
