"""Per-state and expected rate functionals.  All rates are nats per use.

The per-state picture for a policy P and state h = (h_m, h_e):

    r_main = log(1 + P h_m)          main-channel rate
    r_eve  = log(1 + P h_e)          eavesdropper-channel rate
    r_s    = [r_main - r_eve]^+      per-state secrecy rate
    r_s'   = [r_main - log(1 + P q(h))]^+   key share, q(h) = max(h_e, kappa)
    r_s''  = r_s - r_s'              direct secret-data share

kappa = 0 gives q = h_e, which zeroes the direct share and maximizes the
key share.

Every bound reads r_s on the law pair's product rule (:func:`secrecy_gap`):
its mean E[r_s] is also E[r_s'] at kappa = 0, and the main-CSI key rate
sums its positive part.  r_s is 0 wherever h_m <= h_e, whatever the power.

Essential infima over the fading law are computed symbolically per policy
family, never by sampling: a minimum over an unbounded continuous support
is not estimable from finite draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fading import ChannelState, FadingDistribution, pair_rule
from .policy import PowerPolicy


@dataclass(frozen=True, eq=False)
class RateBreakdown:
    """Per-state rates; fields are scalars or arrays matching the state."""

    r_main: float | np.ndarray
    r_eve: float | np.ndarray
    r_s: float | np.ndarray
    r_s_prime: float | np.ndarray
    r_s_dprime: float | np.ndarray


def log_rate(p, h):
    """log(1 + p h) for p, h >= 0 that broadcast together.

    Where p h overflows to inf, 1 + p h is p h to the last bit, so the rate
    is log p + log h; everywhere else it is ``np.log1p(p * h)`` itself.  The
    overflow is read off the multiply's floating-point flag, so the common
    case costs no extra pass, and the log is taken in place in the product,
    so a grid holds one array, not two.
    """
    try:
        with np.errstate(over="raise"):
            ph = p * h
    except FloatingPointError:
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            ph = p * h
            return np.where(np.isinf(ph), np.log(p) + np.log(h), np.log1p(ph))
    if isinstance(ph, np.ndarray) and ph.dtype.kind == "f":  # a fresh product
        return np.log1p(ph, out=ph)
    return np.log1p(ph)


def outer_log_rate(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(1 + a_i b_j) over the outer grid of two vectors >= 0, fresh.

    The products are ``np.einsum("i,j->ij", a, b)``, the same IEEE values
    as the broadcast ``a[:, None] * b`` in about half the time, and the log
    is taken in place.  Rounding is monotone, so no product exceeds the
    largest, max(a) max(b): the grid overflows exactly where that product
    does, and then it takes :func:`log_rate`'s split-log path.
    """
    if math.isinf(float(a.max()) * float(b.max())):
        return log_rate(a[:, None], b)
    grid = np.einsum("i,j->ij", a, b)
    return np.log1p(grid, out=grid)


def per_state_rates(policy: PowerPolicy, state: ChannelState,
                    kappa: float = 0.0) -> RateBreakdown:
    """Rate breakdown at one state (or states that broadcast together), for
    the key-share threshold q(h) = max(h_e, kappa).

    The one-time-pad rate is not a per-state rate: it is a schedule choice
    made by the bounds and protocol layers.
    """
    if not kappa >= 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    h_m = np.asarray(state.h_m, dtype=float)
    h_e = np.asarray(state.h_e, dtype=float)
    # an overflowing power gives inf - inf = NaN, which the caller's finite
    # check reports (trunc-inv's overflow below its cutoff is discarded)
    with np.errstate(over="ignore", invalid="ignore"):
        p = np.asarray(policy.power(state.h_m, state.h_e), dtype=float)
        r_main = log_rate(p, h_m)
        r_eve = log_rate(p, h_e)
        # log(1 + P q) = 0 where P = 0, kappa = inf too
        r_q = np.where(p == 0.0, 0.0, log_rate(p, np.maximum(h_e, kappa)))
        r_s = np.maximum(r_main - r_eve, 0.0)
        r_s_prime = np.maximum(r_main - r_q, 0.0)
        r_s_dprime = np.maximum(r_s - r_s_prime, 0.0)

    def out(a):
        return float(a) if a.ndim == 0 else a

    return RateBreakdown(out(r_main), out(r_eve), out(r_s),
                         out(r_s_prime), out(r_s_dprime))


@lru_cache(maxsize=8)
def secrecy_gap(policy: PowerPolicy, dist_m: FadingDistribution,
                dist_e: FadingDistribution, nodes: int = 200) -> tuple[np.ndarray, float]:
    """The per-state secrecy rate r_s = [r_main - r_eve]^+ at every node
    pair of :func:`~dlsec.fading.pair_rule` (read-only), and E[r_s].

    ``r_s.ravel()`` lines up with the rule's weights ``w``.  E[r_s],
    E[r_s'] at q = h_e and the main-CSI key rate K(R) all read this one
    evaluation.  The cache holds every family of one (law pair, budget)
    that the bounds evaluate, at most the 3 default ones, with room to
    spare (8 grids at 200 nodes: 2.5 MB); a new budget rescales every
    policy, so no entry is hit across budgets.

    Each family takes at most one log over the grid: const's power is the
    scalar c, main-inv and trunc-inv read a power per main node, and
    full-inv reads one per eavesdropper node; the inversion families take
    their power x gain grid as an outer product (:func:`outer_log_rate`).
    r_s is 0 wherever h_m <= h_e, and where h_m > h_e full-inv's
    c / min(h_m, h_e) is exactly c / h_e, so P = c / h_e gives every r_s
    bit for bit as the power on the grid would.  That power overflows
    somewhere exactly when it does at the lowest node pair (the nodes are
    sorted), which is reported as the non-finite point, as the grid's mean
    would report it.
    """
    rule = pair_rule(dist_m, dist_e, nodes)
    h_m, h_e = rule.h_m, rule.h_e
    if policy.family == "const":
        r_s = log_rate(policy.c, h_m) - log_rate(policy.c, h_e)
    elif policy.family == "full-inv":
        if math.isinf(policy.c / float(min(h_m[0, 0], h_e[0]))):
            raise rule.not_finite_at(0, 0)
        p = policy.c / h_e
        r_s = outer_log_rate(h_m[:, 0], p)  # the log over the grid, a fresh array
        r_s -= log_rate(p, h_e)
    else:
        # a power that overflows makes inf - inf, which the mean reports
        with np.errstate(over="ignore", invalid="ignore"):
            p = policy.power(h_m)
            r_eve = outer_log_rate(p[:, 0], h_e)  # the log over the grid, a fresh array
            r_s = np.subtract(log_rate(p, h_m), r_eve, out=r_eve)
    np.maximum(r_s, 0.0, out=r_s)
    r_s.flags.writeable = False
    return r_s, rule.mean(r_s)


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
    rule = pair_rule(dist_m, dist_e, nodes)
    return rule.mean(per_state_rates(policy, ChannelState(rule.h_m, rule.h_e), kappa).r_s_prime)


def delay_floor(policy: PowerPolicy, dist_m: FadingDistribution) -> float:
    """Essential infimum of the main-channel rate, per family, in closed form.

    const over support reaching 0 -> 0; inversion families -> log(1 + c)
    (P * h_m >= c pointwise, with equality on the minimizing coordinate);
    trunc-inv -> 0 whenever the support extends below the cutoff.
    """
    lo = dist_m.support_min
    if policy.family == "const":  # log-split where c * lo overflows, as log_rate
        clo = policy.c * lo
        return float(np.log1p(clo)) if clo < math.inf else math.log(policy.c) + math.log(lo)
    if policy.family == "trunc-inv" and lo < policy.h_min:
        return 0.0  # no power below the cutoff
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
