"""Numeric kernel tests: quadrature, Monte Carlo."""

import math

import numpy as np
import pytest
from scipy import stats

import dlsec
from dlsec.numerics import (Estimate, NonFiniteIntegrandError, RngSeed, halfline_nodes,
                            mc_expect, weighted_sum)
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


def test_public_names_resolve():
    """Every name in dlsec.__all__ exists, so ``from dlsec import *`` works."""
    assert [name for name in dlsec.__all__ if not hasattr(dlsec, name)] == []
