"""Fading distribution tests: grammar, densities, sampling, inverse moments."""

import math
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import gammaincinv

from dlsec.fading import (SHAPE_MAX, SHAPE_MIN, ChannelState, FadingDistribution,
                          inverse_min_moment, inverse_moment, invertible, pair_rule,
                          parse_distribution, truncated_inverse_moment)
from dlsec.policy import calibrate
from dlsec.numerics import RngSeed, halfline_nodes, weighted_sum

import moment_reference as reference
from child_env import child_env
from flat_grid import pair_list
from random_laws import random_law


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

    @pytest.mark.parametrize("text", ["rayleigh:1", "chisq", "gamma:2", "exp:abc",
                                      "const:-1", "chisq:2.5", "chisq:101"])
    def test_errors_name_the_text(self, text):
        with pytest.raises(ValueError, match=f"^bad distribution spec {re.escape(repr(text))}: "):
            parse_distribution(text)

    @pytest.mark.parametrize("text,shape,scale,spec", [
        *[(f"chisq:{k}", k / 2.0, 2.0, f"chisq:{k}") for k in range(1, 9)],
        ("exp:1", 1.0, 1.0, "exp:1"),
        ("exp:0.01", 1.0, 0.01, "exp:0.01"),
        ("gamma:2:1", 2.0, 1.0, "gamma:2:1"),
        ("gamma:0.3:5", 0.3, 5.0, "gamma:0.3:5"),
        ("gamma:8:1e3", 8.0, 1000.0, "gamma:8:1000"),
    ])
    def test_canonical_gamma_of_each_kind(self, text, shape, scale, spec):
        d = parse_distribution(text)
        assert (d.shape, d.scale, d.spec(), d.is_degenerate) == (shape, scale, spec, False)

    def test_point_mass_has_no_canonical_gamma(self):
        d = parse_distribution("const:2.5")
        assert (d.spec(), d.is_degenerate, d.support_min) == ("const:2.5", True, 2.5)
        for name in ("shape", "scale"):
            with pytest.raises(ValueError, match=f"a point mass has no gamma {name}"):
                getattr(d, name)

    @pytest.mark.parametrize("kind,params", [
        ("chisq", ()), ("chisq", (4, 4)), ("gamma", (2,)), ("gamma", (2, 1, 1)),
        ("exp", ()), ("exp", (1, 1)), ("const", (1, 2)),
    ])
    def test_wrong_arity_names_the_kind(self, kind, params):
        with pytest.raises(ValueError, match=f"^{kind} takes {2 if kind == 'gamma' else 1} "):
            FadingDistribution(kind, params)

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

    def test_quantile_in_both_far_tails(self):
        """Random shapes (log-uniform over the accepted range) at levels
        1e-30 to 1 from either end, within 1e-10 relative of scipy's
        gammaincinv.  Two levels first: chisq:20 and gamma:10:1 at p = 0.97,
        where an earlier Newton search overflowed.  A quantile below the
        smallest normal float reads below it too (0.0 where it underflows),
        as the docstring states."""
        for spec, scale in (("gamma:10:1", 1.0), ("chisq:20", 2.0)):
            want = scale * gammaincinv(10.0, 0.97)  # 16.7312 at scale 1
            assert abs(parse_distribution(spec).quantile(0.97) - want) <= 1e-10 * want
        rng = np.random.default_rng(27)
        tiny, underflows = np.finfo(float).tiny, 0
        for _ in range(3000):
            k = float(np.exp(rng.uniform(math.log(SHAPE_MIN), math.log(SHAPE_MAX))))
            tail = float(10.0 ** -rng.uniform(0.0, 30.0))
            p = tail if rng.random() < 0.5 else 1.0 - tail
            if not 0.0 < p < 1.0:
                continue
            got, want = FadingDistribution("gamma", (k, 1.0)).quantile(p), gammaincinv(k, p)
            if want < tiny:
                underflows += got == 0.0
                assert got < tiny, (k, p, got, want)
            else:
                assert abs(got - want) <= 1e-10 * want, (k, p, got, want)
        assert underflows > 0

    def test_point_mass_cdf_and_quantile(self):
        d = parse_distribution("const:2")
        np.testing.assert_array_equal(d.cdf(np.array([1.0, 2.0, 3.0])), [0.0, 1.0, 1.0])
        assert d.quantile(0.5) == 2.0

    def test_import_leaves_scipy_unloaded(self):
        code = ("import sys, dlsec, dlsec.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=child_env(), timeout=120, check=True)
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
        """Two-sample KS below the 1% critical value at n = 1e5, on
        independent seeds: chisq:4 and gamma:2:2 are one law."""
        n = 100_000
        a = parse_distribution("chisq:4").sample(RngSeed(4), n)
        b = parse_distribution("gamma:2:2").sample(RngSeed(5), n)
        stat = stats.ks_2samp(a, b).statistic
        critical = 1.628 * math.sqrt(2.0 / n)  # c(0.01) sqrt((n+m)/(nm))
        assert stat < critical

    def test_one_gamma_call_matches_numpy_per_kind(self):
        """Every continuous kind draws through ``rng.gamma(shape, scale)``,
        which gives bit for bit the draws of numpy's own per-kind calls."""
        cases = [(f"chisq:{d}", lambda g, n, d=d: g.chisquare(d, n)) for d in range(1, 10)]
        cases += [(f"exp:{m:g}", lambda g, n, m=m: g.exponential(m, n))
                  for m in (1e-3, 0.1, 1.0, 10.0, 1e3)]
        cases += [("gamma:0.3:7", lambda g, n: g.gamma(0.3, 7.0, n))]
        for spec, draw in cases:
            got = parse_distribution(spec).sample(np.random.default_rng(11), 10_000)
            np.testing.assert_array_equal(got, draw(np.random.default_rng(11), 10_000),
                                          err_msg=spec)


class TestInverseMoments:
    def test_invertible_reads_the_shapes(self):
        assert invertible(parse_distribution("chisq:4"), parse_distribution("const:1e-300"))
        assert invertible(parse_distribution("gamma:1.2:5e-324"))
        assert not invertible(parse_distribution("chisq:4"), parse_distribution("exp:1"))
        assert not invertible(parse_distribution("gamma:0.5:1e300"))

    def test_finite_moment_past_the_float_range_is_inf(self):
        """(k - 1) theta underflows to 0 at gamma:1.2:5e-324: the finite
        moment overflows, and no division by zero raises."""
        for spec in ("gamma:1.2:5e-324", "gamma:2:1e-310"):
            d = parse_distribution(spec)
            assert invertible(d) and inverse_moment(d) == math.inf

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


    @pytest.mark.parametrize("k", [0.05, 0.5, 0.9, 1.0, 1.0001, 1.5, 2.0])
    def test_truncated_moment_where_the_cutoff_ratio_underflows(self, k):
        """y = h_min / theta below the normal floats, down to 10^-1454:
        within 1e-12 of mpmath's Gamma(k - 1, y) / (Gamma(k) theta) (the
        log form's exp of a log near 700 carries about 700 ulps of 1).
        Shapes <= 1 read inf here, and 1 < k < 2 the untruncated moment,
        which overstates it near k = 1 by an order of magnitude."""
        mpmath.mp.dps = 40
        for theta, h_min in ((1e300, 1e-30), (1e308, 1e-10), (1e200, 1e-200),
                             (1.0, 5e-324), (1e10, 1e-310), (1.7e308, 5e-324)):
            got = truncated_inverse_moment(FadingDistribution("gamma", (k, theta)), h_min)
            y = mpmath.mpf(h_min) / mpmath.mpf(theta)
            want = mpmath.gammainc(k - 1.0, y) / (mpmath.gamma(k) * theta)
            assert abs(got / want - 1) <= 1e-12, (theta, h_min, got, want)

    def test_trunc_inv_calibrates_where_the_cutoff_ratio_underflows(self):
        """gamma:0.5:1e300 above 1e-30: E[1/h; h >= 1e-30] is 1.128e-135,
        not a divergent E[1/h]."""
        pol = calibrate("trunc-inv", parse_distribution("gamma:0.5:1e300"),
                        parse_distribution("chisq:4"), 1.0, h_min=1e-30)
        assert math.isclose(1.0 / pol.c, 1.1283791670955e-135, rel_tol=1e-12)


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

    def test_list_and_its_mirror_partition_the_product_rule(self):
        """The pairs with h_m > h_e, those with h_e > h_m (the swapped law
        pair's list) and, for two continuous laws on their shared nodes,
        the diagonal make up the whole product rule: E[h_m h_e] = 8."""
        d, g = parse_distribution("chisq:4"), parse_distribution("gamma:2:1")
        below, above = pair_rule(d, g), pair_rule(g, d)
        (hm, he), (hm2, he2) = below.states(), above.states()
        x, w = halfline_nodes(200)
        diagonal = weighted_sum(w * d.pdf(x) * w * g.pdf(x), x * x)
        got = below.mean(hm * he) + above.mean(hm2 * he2) + diagonal
        assert abs(got - 4.0 * 2.0) < 1e-8
        assert below.w.size == above.w.size == 200 * 199 // 2

    def test_list_with_an_atom(self):
        """const:3 against chisq:4: the chisq nodes below 3, and with the
        laws swapped those above it, give E[3 + h] = 7."""
        c, d = parse_distribution("const:3"), parse_distribution("chisq:4")
        below, above = pair_rule(c, d), pair_rule(d, c)
        got = sum(rule.mean(np.add(*rule.states())) for rule in (below, above))
        assert abs(got - 7.0) < 1e-8
        assert below.w.size + above.w.size == 200

    PAIR_LIST_LAWS = ["const:2", "const:1e300", "const:5e-324", "gamma:2:1e-310",
                      "exp:1e-300", "gamma:0.3:5e-324", "chisq:4"]

    def test_pairs_and_weights_are_the_masked_flat_grid(self):
        """On 60 random law pairs, point masses and subnormal scales, the
        list's states are the flat grid's pairs with h_m > h_e in row-major
        order, its weights are theirs byte for byte, and its ratios are
        h_e / h_m; read-only and cached."""
        rng = np.random.default_rng(28)
        pairs = [(random_law(rng), random_law(rng)) for _ in range(60)]
        laws = [parse_distribution(s) for s in self.PAIR_LIST_LAWS]
        pairs += [(a, b) for a in laws for b in laws]
        sizes = set()
        for dm, de in pairs:
            hm, he, w, _, _ = pair_list(dm, de, 64)
            rule = pair_rule(dm, de, 64)
            got_hm, got_he = rule.states()
            assert got_hm.tobytes() == hm.tobytes() and got_he.tobytes() == he.tobytes()
            assert rule.w.tobytes() == w.tobytes(), (dm, de)
            assert rule.ratio.tobytes() == (he / hm).tobytes()
            assert rule is pair_rule(dm, de, 64)
            sizes.add(w.size)
        assert {0, 1, 64 * 63 // 2} <= sizes
        for a in (rule.h_m, rule.h_e, rule.starts, rule.w, rule.ratio):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_two_continuous_laws_hold_half_the_pairs_less_the_diagonal(self):
        rule = pair_rule(parse_distribution("chisq:4"), parse_distribution("chisq:4"))
        assert rule.w.size == rule.ratio.size == 19_900

    def test_non_finite_entry_is_named_by_its_node_pair(self):
        """The error names (h_m, h_e) of the first non-finite entry of an
        integrand over the list, in the list's order."""
        d, g = parse_distribution("chisq:4"), parse_distribution("gamma:2:1")
        rule = pair_rule(d, g, 16)
        hm, he, _, i, j = pair_list(d, g, 16)
        y = np.zeros(hm.size)
        y[[17, 40, 90]] = [np.nan, np.inf, -np.inf]
        assert (i[17], j[17]) == (6, 2)
        with pytest.raises(ValueError, match=re.escape(
                f"integrand not finite at grid point (h_m={hm[17]:.6g}, h_e={he[17]:.6g})")):
            rule.mean(y)
