"""Numeric kernel tests: quadrature, Monte Carlo, the bisection over doubles."""

import math

import numpy as np
import pytest
from scipy import stats

import dlsec
from dlsec.numerics import (NODES_MAX, NODES_MIN, Estimate, NonFiniteIntegrandError, RngSeed,
                            flip_point, halfline_nodes, mc_expect, tanh_sinh_nodes,
                            weighted_sum)
from dlsec.fading import parse_distribution


def halfline_integral(f, nodes):
    """The integral of f over (0, inf) by the rational-map rule."""
    x, w = halfline_nodes(nodes)
    return weighted_sum(w, f(x))


class TestHalflineRule:
    def test_exponential_total_mass(self):
        """Exp(1) density integrates to 1."""
        val = halfline_integral(lambda x: np.exp(-x), nodes=200)
        assert abs(val - 1.0) < 1e-8

    def test_chisq4_mean(self):
        """Mean of a chi-square equals its dof."""
        val = halfline_integral(lambda x: x * stats.gamma.pdf(x, a=2, scale=2),
                                nodes=200)
        assert abs(val - 4.0) < 1e-6

    def test_gamma_inverse_moment(self):
        """E[1/X] for Gamma(2, 1) is 1/((k-1)*theta) = 1."""
        val = halfline_integral(lambda x: stats.gamma.pdf(x, a=2, scale=1) / x,
                                nodes=400)
        assert abs(val - 1.0) < 1e-5

    def test_bit_identical_repeats(self):
        f = lambda x: np.exp(-0.37 * x) * np.log1p(x)
        assert halfline_integral(f, 256) == halfline_integral(f, 256)

    def test_nodes_are_cached_and_read_only(self):
        x, w = halfline_nodes(64)
        assert halfline_nodes(64)[0] is x
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0.0

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            halfline_nodes(4)


class TestTanhSinhRule:
    @pytest.mark.parametrize("a", [0.05, 0.3, 1.0, 8.0, 50.0])
    def test_log_power_moment(self, a):
        """int_0^1 u^(a-1) log(1/u) du = 1/a^2, for gamma shapes across the
        accepted range: an endpoint singularity times a log at a = 0.05, a
        mass pressed against u = 1 at a = 50."""
        log_s, _, log_ds, steps = tanh_sinh_nodes(400)
        value = weighted_sum(np.exp((a - 1.0) * log_s + log_ds) * -log_s, steps[0])
        assert abs(value - 1.0 / a ** 2) <= 1e-12 / a ** 2

    @pytest.mark.parametrize("nodes", [8, 16, 200, 400, 1000])
    def test_coarsest_dyadic_step_with_enough_points(self, nodes):
        """At least ``nodes`` points, fewer than twice as many, on t in
        [-6.5, 6.5] with a power-of-two step."""
        log_s, log_1ms, log_ds, steps = tanh_sinh_nodes(nodes)
        h = steps[0][0]
        assert nodes <= log_s.size < 2 * nodes
        assert math.log2(h).is_integer()
        assert log_s.size == 2 * int(6.5 / h) + 1
        assert np.all(steps[0] == h)
        # s + (1 - s) = 1, and the weights of both rows sum to about 1
        assert np.allclose(np.exp(log_s) + np.exp(log_1ms), 1.0, rtol=0, atol=1e-15)
        if h <= 0.25:
            assert abs(weighted_sum(np.exp(log_ds), steps[0]) - 1.0) < 1e-12
            assert abs(weighted_sum(np.exp(log_ds), steps[1]) - 1.0) < 1e-6

    def test_coarse_row_is_the_rule_of_twice_the_step(self):
        """Row 1 is 2h on the points with j even, t = 0 among them."""
        log_s, _, _, steps = tanh_sinh_nodes(200)
        h, mid = steps[0][0], log_s.size // 2
        assert log_s[mid] == -math.log(2.0)
        j = np.arange(log_s.size) - mid
        assert np.array_equal(steps[1], np.where(j % 2 == 0, 2.0 * h, 0.0))

    def test_ends_keep_their_logs(self):
        """At t = +-6.5, s and 1 - s are e^-1045, far below the smallest
        double, yet their logs are exact and the weights finite."""
        log_s, log_1ms, log_ds, _ = tanh_sinh_nodes(400)
        assert log_s[0] == log_1ms[-1]
        assert math.isclose(log_s[0], -math.pi * math.sinh(6.5), rel_tol=1e-15)
        assert log_s[-1] == log_1ms[0] == -0.0
        assert np.all(np.isfinite(log_ds))

    def test_cached_and_read_only(self):
        rule = tanh_sinh_nodes(300)
        assert tanh_sinh_nodes(300)[0] is rule[0]
        for a in rule:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            tanh_sinh_nodes(4)


@pytest.mark.parametrize("rule", [halfline_nodes, tanh_sinh_nodes])
class TestNodesBound:
    """Both rules take their size from one range, checked before anything
    is allocated: 100 000 nodes would ask leggauss for 74.5 GiB."""

    def test_accepts_the_ends(self, rule):
        assert rule(NODES_MIN)[0].size >= NODES_MIN
        assert rule(NODES_MAX)[0].size >= NODES_MAX

    @pytest.mark.parametrize("nodes", [NODES_MIN - 1, NODES_MAX + 1, 100_000])
    def test_rejects_outside_naming_the_range(self, rule, nodes):
        with pytest.raises(ValueError, match=rf"nodes must be in \[8, 2000\], got {nodes}$"):
            rule(nodes)


CHISQ4 = parse_distribution("chisq:4")
EXP1 = parse_distribution("exp:1")


class TestMcExpect:
    def test_constant_integrand(self):
        est = mc_expect(lambda st: 1.0, CHISQ4, EXP1, 10_000, RngSeed(5))
        assert est.mean == 1.0
        assert est.stderr == 0.0
        assert est.samples == 10_000

    def test_chisq_mean(self):
        est = mc_expect(lambda st: st.h_m, CHISQ4, EXP1, 1_000_000, RngSeed(7))
        assert abs(est.mean - 4.0) <= 3.0 * est.stderr

    def test_log_ratio_positive_part(self):
        """E[(log(h_m/h_e))^+] = ln 2 for iid Exp(1) gains.

        Oracle: the gain ratio has density 1/(1+r)^2 and
        int_1^inf ln r / (1+r)^2 dr = ln 2.
        """
        est = mc_expect(lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
                        EXP1, EXP1, 1_000_000, RngSeed(11))
        assert abs(est.mean - math.log(2.0)) <= 3.0 * est.stderr

    def test_reproducible_and_stream_disjoint(self):
        f = lambda st: st.h_m * st.h_e
        a = mc_expect(f, CHISQ4, EXP1, 5_000, RngSeed(3, stream=1))
        b = mc_expect(f, CHISQ4, EXP1, 5_000, RngSeed(3, stream=1))
        c = mc_expect(f, CHISQ4, EXP1, 5_000, RngSeed(3, stream=2))
        assert a == b
        assert a.mean != c.mean

    def test_streams_behave_independently(self):
        """Across-stream spread of means is consistent with the stderr."""
        ests = [mc_expect(lambda st: st.h_m, CHISQ4, EXP1, 4_000, RngSeed(17, s))
                for s in range(20)]
        spread = np.std([e.mean for e in ests], ddof=1)
        typical = np.median([e.stderr for e in ests])
        assert 0.4 * typical < spread < 2.5 * typical

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            mc_expect(lambda st: 1.0, CHISQ4, EXP1, 50, RngSeed(1))

    def test_non_finite_integrand_named(self):
        """A NaN sample is reported with its index and state, not averaged."""
        def bad(st):
            y = np.array(st.h_m, dtype=float)
            y[7] = np.nan
            return y

        with pytest.raises(NonFiniteIntegrandError,
                           match="integrand not finite at sample 7 \\(h_m="):
            mc_expect(bad, CHISQ4, EXP1, 1_000, RngSeed(2))


class TestCarriers:
    def test_estimate_invariants(self):
        with pytest.raises(ValueError):
            Estimate(mean=1.0, stderr=-0.1, samples=10)
        with pytest.raises(ValueError):
            Estimate(mean=1.0, stderr=0.0, samples=0)

    def test_seed_invariants(self):
        with pytest.raises(ValueError):
            RngSeed(-1)
        with pytest.raises(ValueError):
            RngSeed(2**64)
        with pytest.raises(ValueError):
            RngSeed(1, stream=-2)
        # identical pairs give identical generators
        g1 = RngSeed(9, 4).generator()
        g2 = RngSeed(9, 4).generator()
        assert np.array_equal(g1.random(16), g2.random(16))


FLOAT_MAX = float(np.finfo(float).max)


class TestFlipPoint:
    @pytest.mark.parametrize("t", [5e-324, 1e-310, 2.2250738585072014e-308, 0.3, 1.0, 1e300,
                                   FLOAT_MAX])
    def test_adjacent_doubles_at_the_threshold(self, t):
        """x >= t flips between t's lower neighbour and t itself, subnormal
        thresholds included, in at most 63 evaluations over [0, float max]
        and over [0, inf]."""
        for hi in (FLOAT_MAX, math.inf):
            calls = []
            a, b = flip_point(lambda x: calls.append(x) or x >= t, 0.0, hi)
            assert (a, b) == (math.nextafter(t, 0.0), t)
            assert 0 < len(calls) <= 63 and all(0.0 < x < hi for x in calls)

    def test_flip_at_either_end(self):
        """A predicate true everywhere inside flips at lo's neighbour above;
        one false everywhere inside flips at hi (inf included)."""
        assert flip_point(lambda x: True, 0.0, 1.0) == (0.0, 5e-324)
        assert flip_point(lambda x: False, 0.0, 1.0) == (math.nextafter(1.0, 0.0), 1.0)
        assert flip_point(lambda x: False, 0.0, math.inf) == (FLOAT_MAX, math.inf)

    def test_root_of_a_monotone_function(self):
        """The two doubles that bracket sqrt(2) as x * x >= 2 sees it."""
        a, b = flip_point(lambda x: x * x >= 2.0, 1.0, 2.0)
        assert a * a < 2.0 <= b * b and b == math.nextafter(a, 2.0)
        assert abs(b - math.sqrt(2.0)) <= math.ulp(math.sqrt(2.0))

    @pytest.mark.parametrize("lo, hi", [(1.0, 1.0), (2.0, 1.0), (-1.0, 1.0), (math.nan, 1.0),
                                        (0.0, math.nan)])
    def test_needs_an_ordered_non_negative_bracket(self, lo, hi):
        with pytest.raises(ValueError, match="need 0 <= lo < hi"):
            flip_point(lambda x: True, lo, hi)

    def test_negative_zero_is_zero(self):
        assert flip_point(lambda x: x >= 1e-310, -0.0, 1.0)[1] == 1e-310


def test_public_names_resolve():
    """Every name in dlsec.__all__ exists, so ``from dlsec import *`` works."""
    assert [name for name in dlsec.__all__ if not hasattr(dlsec, name)] == []
