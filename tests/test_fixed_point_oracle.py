"""The main-CSI fixed point against two oracles on random gamma laws: a
closed form on the flat grid, and a bisection of the key balance on the
pair list."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dlsec.bounds as bounds_module
from dlsec.bounds import fixed_point_rate, key_rate, resolve_menu_entry
from dlsec.cli import FIXED_POINT_TOL
from dlsec.fading import FadingDistribution, pair_rule
from dlsec.numerics import flip_point
from dlsec.policy import calibrate
from dlsec.rates import delay_floor, secrecy_gap

from flat_grid import flat_grid


def oracle_fixed_point(policy, dist_m, dist_e, nodes=200):
    """R = min{K(R), R_d} in closed form on the quadrature grid.

    Sorted in descending order, the positive gaps g_1 >= g_2 >= ... split
    [0, inf) into segments [g_{j+1}, g_j) on which K(R) = S_j - W_j R, with
    W_j and S_j the prefix sums of w_i and w_i g_i.  The segment's line
    crosses R at S_j / (1 + W_j); the answer is the crossing that falls on
    its own segment, capped at R_d.
    """
    r_d = delay_floor(policy, dist_m)
    hm, he, w = flat_grid(dist_m, dist_e, nodes)
    p = policy.power(hm, he)
    gap = np.log1p(p * hm) - np.log1p(p * he)
    positive = gap > 0.0
    order = np.argsort(-gap[positive], kind="stable")
    g, wg = gap[positive][order], w[positive][order]
    crossing = np.cumsum(wg * g) / (1.0 + np.cumsum(wg))
    below = np.append(g[1:], 0.0)
    on_segment = np.flatnonzero((below <= crossing) & (crossing < g))
    if on_segment.size == 0:
        assert g.size == 0, "no segment holds its own crossing"
        return 0.0
    j = int(on_segment[0]) + 1
    root = math.fsum(wg[:j] * g[:j]) / (1.0 + math.fsum(wg[:j]))
    return min(root, r_d)


gamma_laws = st.builds(
    lambda shape, scale: FadingDistribution("gamma", (shape, scale)),
    st.floats(1.05, 8.0),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(dist_m=gamma_laws, dist_e=gamma_laws, pbar_db=st.floats(0.0, 50.0),
       family=st.sampled_from(["main-inv", "trunc-inv"]))
def test_fixed_point_matches_closed_form(dist_m, dist_e, pbar_db, family):
    family, h_min = resolve_menu_entry(family, dist_m)
    pol = calibrate(family, dist_m, dist_e, 10.0 ** (pbar_db / 10.0), h_min)
    r_star, diag = fixed_point_rate(pol, dist_m, dist_e)
    assert r_star == pytest.approx(oracle_fixed_point(pol, dist_m, dist_e),
                                   rel=1e-12, abs=0.0)
    assert abs(diag["key_balance_margin"]) <= 1e-12
    assert 0.0 <= r_star <= diag["r_d_floor"]
    assert diag["feasible"]


def bisected_fixed_point(gap, w, r_d):
    """The first double R in (0, R_d] with R >= min{K(R), R_d}, K summed over
    the whole list by :func:`key_rate`: R - min{K(R), R_d} is increasing,
    negative at 0 (K(0) > 0) and >= 0 at R_d."""
    return flip_point(lambda r: r >= min(key_rate(gap, w, r), r_d), 0.0, r_d)[1]


def random_gamma(rng):
    return FadingDistribution("gamma", (float(rng.uniform(1.05, 8.0)),
                                        float(10.0 ** rng.uniform(-2.0, 2.0))))


def test_fixed_point_matches_bisection(monkeypatch):
    """Random gamma pairs under main-inv and trunc-inv (median cutoff), and
    const on a point-mass main gain (const:v against a gamma law): R* is
    within FIXED_POINT_TOL R_d of the bisection root.  Each case runs at
    its own delay floor and at one pinned below its root, where R* = R_d;
    trunc-inv's own floor is 0 on these laws, so it runs at K(0) instead,
    a floor that never binds (K(R) <= K(0))."""
    rng = np.random.default_rng(31)
    binding = {"key_rate": 0, "r_d_floor": 0}

    def check(pol, dm, de, gap, w, r_d):
        with monkeypatch.context() as m:
            m.setattr(bounds_module, "delay_floor", lambda policy, dist_m: r_d)
            root, diag = fixed_point_rate(pol, dm, de)
        assert abs(root - bisected_fixed_point(gap, w, r_d)) <= FIXED_POINT_TOL * r_d
        binding[diag["binding"]] += 1
        return root

    for _ in range(40):
        de, p_bar = random_gamma(rng), float(10.0 ** rng.uniform(-1.0, 5.0))
        atom = FadingDistribution("const", (float(10.0 ** rng.uniform(-2.0, 2.0)),))
        for dm, entry in ((random_gamma(rng), "main-inv"), (random_gamma(rng), "trunc-inv"),
                          (atom, "const")):
            family, h_min = resolve_menu_entry(entry, dm)
            pol = calibrate(family, dm, de, p_bar, h_min)
            gap, k_zero = secrecy_gap(pol, dm, de)
            if k_zero == 0.0:
                continue
            w = pair_rule(dm, de).w
            root = check(pol, dm, de, gap, w,
                         k_zero if entry == "trunc-inv" else delay_floor(pol, dm))
            check(pol, dm, de, gap, w, root * float(rng.uniform(0.05, 0.95)))
    assert binding["key_rate"] >= 100 and binding["r_d_floor"] >= 100, binding
