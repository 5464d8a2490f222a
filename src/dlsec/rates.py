"""Per-state and expected rate functionals.  All rates are nats per use.

The per-state picture for a policy P and state h = (h_m, h_e):

    r_main = log(1 + P h_m)          main-channel rate
    r_eve  = log(1 + P h_e)          eavesdropper-channel rate
    r_s    = [r_main - r_eve]^+      per-state secrecy rate
    r_s'   = [r_main - log(1 + P q(h))]^+   key share, q(h) = max(h_e, kappa)
    r_s''  = r_s - r_s'              direct secret-data share

kappa = 0 gives q = h_e, which zeroes the direct share and maximizes the
key share.

r_s is 0 wherever h_m <= h_e, whatever the power, and so is r_s' at any
kappa.  So every expectation is a sum over the node pairs of the law
pair's product rule with h_m > h_e (:func:`~dlsec.fading.pair_rule`), and
every bound reads r_s there (:func:`secrecy_gap`): its mean E[r_s] is also
E[r_s'] at kappa = 0, and the main-CSI key rate sums its positive part.

Essential infima over the fading law are computed symbolically per policy
family, never by sampling: a minimum over an unbounded continuous support
is not estimable from finite draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fading import ChannelState, FadingDistribution, PairRule, pair_rule
from .policy import PowerPolicy

_TINY = float(np.finfo(float).tiny)  # the smallest normal float


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
    # an overflowing power gives inf - inf = NaN, which the caller's finite check reports
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


def _log_rate_inverse(c: float, rule: PairRule) -> np.ndarray:
    """log(1 + c h_m / h_e) at every pair of the list, fresh, for c > 0.

    h_m / h_e is 1 / ratio, to an ulp or two, wherever the ratios are
    normal floats; the least of them is the last row's first pair's,
    h_e[0] / h_m[-1].  Below that (far atoms) the quotient is formed from
    the gains, and where it overflows the logs are taken apart, as
    :func:`log_rate` does.
    """
    if not rule.w.size or rule.h_e[0] / rule.h_m[-1] >= _TINY:
        return log_rate(c, 1.0 / rule.ratio)
    h_m, h_e = rule.states()
    with np.errstate(over="ignore"):
        q = h_m / h_e
    return np.where(np.isinf(q), math.log(c) + (np.log(h_m) - np.log(h_e)), log_rate(c, q))


@lru_cache(maxsize=4)
def secrecy_gap(policy: PowerPolicy, dist_m: FadingDistribution,
                dist_e: FadingDistribution, nodes: int = 200) -> tuple[np.ndarray, float]:
    """The per-state secrecy rate r_s = [r_main - r_eve]^+ at every pair of
    :func:`~dlsec.fading.pair_rule`'s list (read-only, lined up with its
    weights ``w``), and E[r_s].

    Off the list, h_m <= h_e, so P h_m <= P h_e for every power (rounding
    is monotone) and r_s is exactly 0, as is r_s' at any kappa: every
    expectation of them is a sum over the list.  E[r_s], E[r_s'] at
    q = h_e and the main-CSI key rate K(R) all read this one evaluation.
    The cache holds every family of one (law pair, budget) that the bounds
    evaluate, at most the 3 default ones, with room to spare (4 lists at
    200 nodes: 640 KB); a new budget rescales every policy, so no entry is
    hit across budgets.

    const is the difference of its per-node logs, log1p(c h_m) -
    log1p(c h_e).  The inversion families read the gain ratio, so no power
    is formed and no product overflows: main-inv (P = c / h_m) gives
    log1p(c) - log1p(c h_e / h_m), and full-inv (P = c / min(h_m, h_e) =
    c / h_e on the list) gives log(1 + c h_m / h_e) - log1p(c).
    """
    rule = pair_rule(dist_m, dist_e, nodes)
    c = policy.c
    if policy.family == "const":
        i, j = rule.indices()
        r_s = log_rate(c, rule.h_m)[i] - log_rate(c, rule.h_e)[j]
    elif c == 0.0:  # no power, no rate
        r_s = np.zeros(rule.w.size)
    elif policy.family == "full-inv":
        r_s = _log_rate_inverse(c, rule)
        r_s -= np.log1p(c)
    else:  # main-inv
        r_s = log_rate(c, rule.ratio)
        np.subtract(np.log1p(c), r_s, out=r_s)
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
    """E[r_s'] by quadrature, for q(h) = max(h_e, kappa): a sum over the
    pairs of :func:`~dlsec.fading.pair_rule`'s list, the only ones where
    r_s' can be non-zero.

    kappa = 0 makes r_s' = r_s, so it reads E[r_s] off :func:`secrecy_gap`.
    """
    if kappa == 0.0:
        return secrecy_gap(policy, dist_m, dist_e, nodes)[1]
    rule = pair_rule(dist_m, dist_e, nodes)
    if not rule.w.size:
        return 0.0
    return rule.mean(per_state_rates(policy, ChannelState(*rule.states()), kappa).r_s_prime)


def delay_floor(policy: PowerPolicy, dist_m: FadingDistribution) -> float:
    """Essential infimum of the main-channel rate, per family, in closed form.

    const over support reaching 0 -> 0; inversion families -> log(1 + c)
    (P * h_m >= c pointwise, with equality on the minimizing coordinate).
    """
    lo = dist_m.support_min
    if policy.family == "const":  # log-split where c * lo overflows, as log_rate
        clo = policy.c * lo
        return float(np.log1p(clo)) if clo < math.inf else math.log(policy.c) + math.log(lo)
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
        r = per_state_rates(policy, ChannelState(dist_m.atom, dist_e.atom))
        return float(min(r.r_main, r.r_eve))
    return 0.0
