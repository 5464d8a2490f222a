"""Per-state and expected rate functionals.  All rates are nats per use.

The per-state picture for a policy P and state h = (h_m, h_e):

    r_main = log(1 + P h_m)          main-channel rate
    r_eve  = log(1 + P h_e)          eavesdropper-channel rate
    r_s    = [r_main - r_eve]^+      per-state secrecy rate
    r_s'   = [r_main - log(1 + P q(h))]^+   key share, q(h) = max(h_e, kappa)
    r_s''  = r_s - r_s'              direct secret-data share

kappa = 0 gives q = h_e, which zeroes the direct share and maximizes the
key share.

Essential infima over the fading law are computed symbolically per policy
family, never by sampling: a minimum over an unbounded continuous support
is not estimable from finite draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fading import ChannelState, FadingDistribution, grid_mean, joint_grid, marginal_nodes
from .policy import PowerPolicy


@dataclass(frozen=True, eq=False)
class RateBreakdown:
    """Per-state rates; fields are scalars or arrays matching the state."""

    r_main: float | np.ndarray
    r_eve: float | np.ndarray
    r_s: float | np.ndarray
    r_s_prime: float | np.ndarray
    r_s_dprime: float | np.ndarray


def per_state_rates(policy: PowerPolicy, state: ChannelState,
                    kappa: float = 0.0) -> RateBreakdown:
    """Rate breakdown at one state (or a vector of states), for the key-share
    threshold q(h) = max(h_e, kappa).

    The one-time-pad rate is not a per-state rate: it is a schedule choice
    made by the bounds and protocol layers.
    """
    if not kappa >= 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    h_m = np.asarray(state.h_m, dtype=float)
    h_e = np.asarray(state.h_e, dtype=float)
    p = np.asarray(policy.power(state.h_m, state.h_e), dtype=float)
    with np.errstate(invalid="ignore"):  # log(1 + P q) = 0 where P = 0, kappa = inf too
        pq = np.where(p == 0.0, 0.0, p * np.maximum(h_e, kappa))
    r_main = np.log1p(p * h_m)
    r_eve = np.log1p(p * h_e)
    r_s = np.maximum(r_main - r_eve, 0.0)
    r_s_prime = np.maximum(r_main - np.log1p(pq), 0.0)
    r_s_dprime = np.maximum(r_s - r_s_prime, 0.0)

    def out(a):
        return float(a) if a.ndim == 0 else a

    return RateBreakdown(out(r_main), out(r_eve), out(r_s),
                         out(r_s_prime), out(r_s_dprime))


@lru_cache(maxsize=8)
def secrecy_gap(policy: PowerPolicy, dist_m: FadingDistribution,
                dist_e: FadingDistribution, nodes: int = 200) -> tuple[np.ndarray, float]:
    """The gap r_main - r_eve on the :func:`joint_grid` (read-only), and E[r_s].

    E[r_s], E[r_s'] at q = h_e and the main-CSI key rate K(R) all read
    this one evaluation.  The cache holds the 4 default families of one
    (law pair, budget) with room to spare (8 gaps at 200 nodes: 2.5 MB);
    a new budget rescales every policy, so no entry is hit across budgets.

    Only full-inv's power depends on h_e.  For the other families
    r_main = log1p(P(h_m) h_m) is built on the main nodes and repeated
    along the grid, and for const r_eve = log1p(c h_e) is built on the
    eavesdropper nodes and tiled: the same elementwise operations on the
    same values, so the gap is bit-identical to the 2-D evaluation.
    """
    grid = joint_grid(dist_m, dist_e, nodes)
    hm, he, _ = grid
    if policy.family == "full-inv":
        p = policy.power(hm, he)
        gap = np.log1p(p * hm) - np.log1p(p * he)
    else:
        xm = marginal_nodes(dist_m, nodes)[0]
        xe = marginal_nodes(dist_e, nodes)[0]
        pm = policy.power(xm)
        r_main = np.repeat(np.log1p(pm * xm), xe.size)
        if policy.family == "const":
            r_eve = np.tile(np.log1p(policy.c * xe), xm.size)
        else:
            r_eve = np.log1p(np.repeat(pm, xe.size) * he)
        gap = r_main - r_eve
    gap.flags.writeable = False
    return gap, grid_mean(grid, np.maximum(gap, 0.0))


def ergodic_secrecy_rate(policy: PowerPolicy, dist_m: FadingDistribution,
                         dist_e: FadingDistribution, nodes: int = 200) -> float:
    """E[r_s] by quadrature against the joint fading law."""
    return secrecy_gap(policy, dist_m, dist_e, nodes)[1]


def expected_key_share(policy: PowerPolicy, dist_m: FadingDistribution,
                       dist_e: FadingDistribution, kappa: float = 0.0,
                       nodes: int = 200) -> float:
    """E[r_s'] by quadrature, for q(h) = max(h_e, kappa).

    kappa = 0 makes r_s' = r_s, so it reads E[r_s] off :func:`secrecy_gap`.
    """
    if kappa == 0.0:
        return secrecy_gap(policy, dist_m, dist_e, nodes)[1]
    grid = joint_grid(dist_m, dist_e, nodes)
    rates = per_state_rates(policy, ChannelState(grid[0], grid[1]), kappa)
    return grid_mean(grid, rates.r_s_prime)


def delay_floor(policy: PowerPolicy, dist_m: FadingDistribution) -> float:
    """Essential infimum of the main-channel rate, per family, in closed form.

    const over support reaching 0 -> 0; inversion families -> log(1 + c)
    (P * h_m >= c pointwise, with equality on the minimizing coordinate);
    trunc-inv -> 0 whenever the support extends below the cutoff.
    """
    lo = dist_m.support_min
    if policy.family == "const":
        return float(np.log1p(policy.c * lo))
    if policy.family in ("full-inv", "main-inv"):
        return float(np.log1p(policy.c))
    # trunc-inv: power is zero below the cutoff
    if lo < policy.h_min:
        return 0.0
    return float(np.log1p(policy.c))


def common_rate_floor(policy: PowerPolicy, dist_m: FadingDistribution,
                      dist_e: FadingDistribution) -> float:
    """Essential infimum of min(r_main, r_eve) over the joint support.

    full-inv pins it at log(1 + c) exactly: whichever gain attains the
    minimum sees P * h = c.  Any continuous marginal drives the infimum to
    zero for the other families (a vanishing gain, or an unbounded h_m
    under main inversion); a fully degenerate pair is evaluated at its atom.
    """
    if policy.family == "full-inv":
        return float(np.log1p(policy.c))
    if dist_m.is_degenerate and dist_e.is_degenerate:
        r = per_state_rates(policy, ChannelState(dist_m.params[0], dist_e.params[0]))
        return float(min(r.r_main, r.r_eve))
    return 0.0
