"""The main-CSI fixed point against a closed-form oracle on random gamma laws."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsec.bounds import fixed_point_rate, resolve_menu_entry
from dlsec.fading import FadingDistribution
from dlsec.policy import calibrate
from dlsec.rates import delay_floor

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
