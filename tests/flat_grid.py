"""The product quadrature rule laid out flat, as an independent reference.

Each law's rule is built here from ``halfline_nodes`` and the law's
``pdf`` (a point mass is its atom with weight 1), not read from the code
under test.  h_m repeats each main node once per eavesdropper node, h_e
tiles the eavesdropper nodes, and the weights are the products of the two
per-law weights, so index i * n_e + j is node pair (i, j).

:func:`pair_list` masks that grid to the node pairs with h_m > h_e, in the
same row-major order, and :func:`reference_gap` evaluates the secrecy rate
on it in the ratio form the bounds use.  :func:`scan_fixed_point` scans
the main-CSI key balance on the flat grid.
"""

import math

import numpy as np

from dlsec.numerics import halfline_nodes, weighted_sum
from dlsec.rates import delay_floor, log_rate

TINY = float(np.finfo(float).tiny)


def law_rule(dist, nodes=200):
    """(x, w) of one law: half-line nodes with the density folded into the
    weight, or the atom of a point mass."""
    if dist.is_degenerate:
        return np.array([dist.params[0]]), np.array([1.0])
    x, w = halfline_nodes(nodes)
    return x, w * dist.pdf(x)


def flat_grid(dist_m, dist_e, nodes=200):
    """(h_m, h_e, w) over every node pair of the two per-law rules."""
    xm, wm = law_rule(dist_m, nodes)
    xe, we = law_rule(dist_e, nodes)
    return (np.repeat(xm, xe.size), np.tile(xe, xm.size),
            np.repeat(wm, we.size) * np.tile(we, wm.size))


def pair_list(dist_m, dist_e, nodes=200):
    """(h_m, h_e, w, i, j): the flat grid at its node pairs with h_m > h_e,
    in row-major order, with each pair's main and eavesdropper node index."""
    h_m, h_e, w = flat_grid(dist_m, dist_e, nodes)
    keep = np.flatnonzero(h_m > h_e)
    i, j = np.divmod(keep, law_rule(dist_e, nodes)[0].size)
    return h_m[keep], h_e[keep], w[keep], i, j


def scan_fixed_point(policy, dist_m, dist_e, points, nodes=200):
    """Brute-force scan of g(R) = R - min{K(R), R_d} over ``points`` values
    of R in [0, R_d] on the flat grid, an independent check of the Newton
    answer: (grid argmin of |g|, grid step, g).  K(R) is S - R W, with S
    and W the sums of w_i g_i and w_i over the gaps above R: suffix sums of
    the sorted gaps, whose cumsum drift (a few 1e-15) is far below a step."""
    r_d = delay_floor(policy, dist_m)
    hm, he, w = flat_grid(dist_m, dist_e, nodes)
    p = policy.power(hm, he)
    gap = np.log1p(p * hm) - np.log1p(p * he)
    order = np.argsort(gap, kind="stable")
    g, wg = gap[order], w[order]
    s, ws = (np.append(np.cumsum(x[::-1])[::-1], 0.0) for x in (wg * g, wg))
    grid = np.linspace(0.0, r_d, points)
    i = np.searchsorted(g, grid, side="right")
    diff = grid - np.minimum(s[i] - grid * ws[i], r_d)
    return float(grid[int(np.argmin(np.abs(diff)))]), float(grid[1] - grid[0]), diff


def product_gap(policy, h_m, h_e):
    """r_s = [log(1 + P h_m) - log(1 + P h_e)]^+ with the power P formed at
    each state, as per_state_rates forms it (NaN where P overflows)."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = policy.power(h_m, h_e)
        return np.maximum(log_rate(p, h_m) - log_rate(p, h_e), 0.0)


def ratio_gap(policy, h_m, h_e):
    """r_s on pairs with h_m > h_e in the ratio form, no power formed.

    const: log(1 + c h_m) - log(1 + c h_e).  main-inv, and trunc-inv where
    h_m >= h_min (0 below): log1p(c) - log(1 + c r), r = h_e / h_m.
    full-inv: log(1 + c / r) - log1p(c), with 1 / r read as h_m / h_e when
    some r of the list is below the smallest normal float, and log c +
    log h_m - log h_e where that quotient overflows.
    """
    c = policy.c
    if policy.family == "const":
        r_s = log_rate(c, h_m) - log_rate(c, h_e)
    elif c == 0.0:
        r_s = np.zeros(h_m.size)
    elif policy.family == "full-inv":
        r = h_e / h_m
        if not r.size or r.min() >= TINY:
            r_s = log_rate(c, 1.0 / r)
        else:
            with np.errstate(over="ignore"):
                q = h_m / h_e
            r_s = np.where(np.isinf(q), math.log(c) + (np.log(h_m) - np.log(h_e)),
                           log_rate(c, q))
        r_s = r_s - np.log1p(c)
    else:
        r_s = np.log1p(c) - log_rate(c, h_e / h_m)
        if policy.family == "trunc-inv":
            r_s = np.where(h_m >= policy.h_min, r_s, 0.0)
    return np.maximum(r_s, 0.0)


def reference_gap(policy, dist_m, dist_e, nodes=200):
    """(r_s, E[r_s]) of :func:`ratio_gap` on :func:`pair_list`, the
    signature of ``dlsec.rates.secrecy_gap``."""
    h_m, h_e, w, _, _ = pair_list(dist_m, dist_e, nodes)
    r_s = ratio_gap(policy, h_m, h_e)
    return r_s, weighted_sum(w, r_s)


def ulp_bound(policy, product, ulps=5):
    """The allowed gap between the ratio and product forms of r_s:
    ``ulps`` units in the last place of max(r_s, log1p(c))."""
    return ulps * np.spacing(np.maximum(product, np.log1p(policy.c)))
