"""Numeric kernel tests: quadrature, golden section, Monte Carlo."""

import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from scipy import optimize, stats

import dlsec
from dlsec.numerics import (Estimate, NonFiniteIntegrandError, RngSeed,
                            golden_max, halfline_nodes, mc_expect, weighted_sum)
from dlsec.fading import parse_distribution

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(dlsec.__file__)))
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_without_stall_rule(f, lo, hi, tol, max_steps=20_000):
    """golden_max's loop as it ran before it learned to stop on a stalled
    bracket, or None when it has not ended after max_steps steps."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = float(f(c)), float(f(d))
    for _ in range(max_steps):
        if not b - a > tol:
            xm = 0.5 * (a + b)
            return xm, float(f(xm))
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = float(f(c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = float(f(d))
    return None


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


class TestGoldenMax:
    def test_quadratic_vertex(self):
        xm, fm = golden_max(lambda x: -(x - 3.0) ** 2, 0.0, 10.0, 1e-8)
        assert abs(xm - 3.0) < 1e-6
        assert abs(fm) < 1e-12

    def test_symmetric_parabola(self):
        xm, fm = golden_max(lambda x: x * (1.0 - x), 0.0, 1.0, 1e-8)
        assert abs(xm - 0.5) < 1e-6
        assert abs(fm - 0.25) < 1e-12

    def test_branch_crossing(self):
        """max of min{log(1+x), 2-x} sits where the branches cross."""
        xm, fm = golden_max(lambda x: min(math.log1p(x), 2.0 - x), 0.0, 2.0, 1e-6)
        x_star = optimize.brentq(lambda x: math.log1p(x) - (2.0 - x), 0.0, 2.0,
                                 xtol=1e-12)  # independent root finder
        assert abs(xm - x_star) < 1e-5
        assert abs(fm - math.log1p(x_star)) < 1e-5

    def test_empty_interval(self):
        with pytest.raises(ValueError):
            golden_max(lambda x: -x * x, 1.0, 1.0, 1e-8)

    @pytest.mark.parametrize("call", [
        "from dlsec.numerics import golden_max\n"
        "print(golden_max(lambda k: -abs(k - 1e8), 0, 1e10, 1e-9))",
        "from dlsec.bounds import lower_full\n"
        "from dlsec.fading import parse_distribution as law\n"
        "print(lower_full(law('const:1e10'), law('const:1'), 100.0).value)",
    ])
    def test_ends_where_float_spacing_exceeds_tol(self, call):
        """Near 1e8 the spacing of floats (1.5e-8) is wider than tol, so
        the bracket cannot shrink below it; the search used to run on
        forever (past 20 000 evaluations, and past 20 s for lower_full)."""
        proc = subprocess.run([sys.executable, "-c", call], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=_SRC), timeout=60, check=True)
        assert math.isfinite(float(proc.stdout.strip().split(",")[0].strip("(")))

    def test_stalled_bracket_brackets_the_maximizer(self):
        calls = [0]

        def f(k):
            calls[0] += 1
            return -abs(k - 1e8)

        xm, fm = golden_max(f, 0.0, 1e10, 1e-9)
        assert abs(xm - 1e8) <= 2.0 * math.ulp(1e8)
        assert fm == -abs(xm - 1e8)
        assert calls[0] < 200

    def test_passes_through_a_transient_stall(self):
        """Here one step leaves (a, b) in place before the adjacent a and b
        collapse to one point; stopping at that step would return b."""
        def f(k):
            return min(k, 4363385.147936535)

        want = golden_without_stall_rule(f, 0.0, 1259068438.4000564, 1e-9)
        assert want == (4363385.147936534, 4363385.147936534)
        assert golden_max(f, 0.0, 1259068438.4000564, 1e-9) == want

    def test_same_result_wherever_the_old_loop_ended(self):
        """Maximizers from 1e-3 to 1e12: every search the loop without the
        stall rule finishes gives the same (argmax, max), and the others
        end too."""
        rng = random.Random(3)
        ended = stalled = 0
        for _ in range(300):
            top = 10.0 ** rng.uniform(-3.0, 12.0)
            hi = top * 10.0 ** rng.uniform(0.0, 3.0)
            f = [lambda k: -abs(k - top), lambda k: -(k - top) ** 2,
                 lambda k: min(k, top)][rng.randrange(3)]
            want = golden_without_stall_rule(f, 0.0, hi, 1e-9)
            got = golden_max(f, 0.0, hi, 1e-9)
            if want is None:
                stalled += 1
                assert abs(got[0] - top) <= 1e-9 * top
            else:
                ended += 1
                assert got == want
        assert ended > 100 and stalled > 50


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
