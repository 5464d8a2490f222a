"""Delay-limited secrecy rate bounds under full and main-only CSI.

Four bound operations share one menu pass (:func:`_best`): calibrate each
family in a menu to the power budget, evaluate the bound's objective on it,
and keep the best.
Maximization never goes beyond a menu plus one scalar parameter per family
(globally optimal power control is out of scope), and every such parameter
has a closed form: kappa in :func:`lower_full`, R in :func:`fixed_point_rate`.

The main-CSI achievable rate is self-referential: the sustainable one-time
pad data rate R must satisfy R = min{K(R), R_d}, where K(R) is the secure
key rate left after carrying R on the main channel.  On the quadrature
grid K is convex, piecewise linear and non-increasing in R, so
R - min{K(R), R_d} is strictly increasing with one root, and Newton's
method from R = 0 reaches it exactly on the crossing segment of K
(:func:`fixed_point_rate`).  Each step takes its segment sums from
K(0) = E[r_s] and the list's total weight, less the sums over the few
gaps at or below R.  :func:`key_rate` evaluates K at one R.

The default menus are const, full-inv and main-inv (full CSI) and const
and main-inv (main CSI).  The bounds are delay-limited, and trunc-inv
sends nothing below its cutoff: on a continuous main law its delay floor
(upper bounds, lower_main) and its common-rate cap (lower_full) are 0, and
on a point-mass main gain v its median cutoff is v, where it ties with
const.  It can never beat const, which comes first and always calibrates,
so it is not in a default menu; an explicit menu may name it.  A default
menu resolves no median cutoff, so trunc-inv is never named in its
``tied_with`` or ``infeasible``.

All four bounds integrate the same per-state secrecy rate
r_s = [r_main - r_eve]^+: E[r_s] (upper bounds), E[r_s'] at q = h_e
(lower_full) and K(R) (lower_main).  It is 0 wherever h_m <= h_e, so
:func:`dlsec.rates.secrecy_gap` evaluates it only on the node pairs of
:func:`dlsec.fading.pair_rule`'s list (h_m > h_e), once per calibrated
policy, and only for the families whose value reads it: an entry with
delay floor 0 (upper bounds, lower_main) or common-rate cap 0 off a
point-mass pair (lower_full) is worth 0 without it.  A result's
diagnostics record what its value computation observed and nothing more,
so such an entry reports no expectation.  The law-only inputs of
calibration are cached per law, so calibrating at a new budget is one
division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .fading import FadingDistribution, invertible, pair_rule
from .numerics import tanh_sinh_nodes, weighted_sum
from .policy import (FULL_CSI, MAIN_CSI, CsiError, NonInvertibleChannelError, PowerPolicy,
                     calibrate, parse_policy)
from .rates import (common_rate_floor, delay_floor, ergodic_secrecy_rate, expected_key_share,
                    secrecy_gap)

DEFAULT_FULL_MENU = ("const", "full-inv", "main-inv")
DEFAULT_MAIN_MENU = ("const", "main-inv")

_CERT_TOL = 1e-9
_NEAR_TIE = 1e-12  # relative margin a later menu entry needs to be reported (see _best)


@dataclass
class BoundResult:
    """A bound value (nats/use), the maximizing policy, the diagnostics its
    value computation observed, and whether ``policy`` is the const
    fallback of a menu with no usable entry (see :func:`usable`)."""

    value: float
    policy: PowerPolicy
    diagnostics: dict = field(default_factory=dict)
    fallback: bool = False


class HighSnrLimit(NamedTuple):
    """Value of E[(log(h_m/h_e))^+], the invertibility flag that gates its
    achievability (finiteness of E[1/min(h_m, h_e)], from the shapes:
    :func:`~dlsec.fading.invertible`), and the quadrature's error estimate
    (0.0 where the value is exact)."""

    value: float
    invertible: bool
    quad_error: float


@lru_cache(maxsize=64)
def resolve_menu_entry(entry: str, dist_m: FadingDistribution) -> tuple[str, float]:
    """Menu entries follow the policy grammar; a bare 'trunc-inv' defaults
    its cutoff to the median main gain (a law-only quantile, hence the
    cache), and a median that underflows to 0 leaves it no positive cutoff:
    NonInvertibleChannelError, as for a cutoff with no mass above it."""
    if entry.strip().lower() == "trunc-inv":
        median = dist_m.quantile(0.5)
        if median == 0.0:
            raise NonInvertibleChannelError(
                f"trunc-inv: the median cutoff of {dist_m.spec()} underflows to 0")
        return "trunc-inv", median
    return parse_policy(entry)


def _best(dist_m, dist_e, p_bar, family_menu, csi, objective) -> BoundResult:
    """The menu pass behind every bound: calibrate each entry of the menu
    (None picks the CSI case's default, which leaves out trunc-inv: it
    never beats const, see the module docstring) to the budget, score it
    with ``objective(policy) -> (value, diagnostics)`` and keep the first
    maximum: a later entry replaces it only by beating it by more than
    ``_NEAR_TIE`` relative, so a near-tie is not decided by rounding.

    Entries that need full CSI are ``skipped`` under main CSI, and families
    that do not calibrate (an inverse moment that diverges or overflows)
    are recorded as ``infeasible``.  On a point-mass main gain v, const,
    main-inv and trunc-inv with a cutoff <= v all transmit p_bar in every
    state, and so does full-inv when the eavesdropper gain is a point mass
    too: each is calibrated, but only the first that calibrates is scored,
    and its diagnostics name the others as ``tied_with``, so the reported
    family does not hang on last-ulp noise (each family forms its rates
    its own way: see :func:`dlsec.rates.secrecy_gap`).  When no entry is
    usable, constant power is scored by the same objective and reported
    as the ``fallback``, with a warning (see :func:`usable`).
    """
    best = None
    infeasible: dict[str, str] = {}
    skipped: dict[str, str] = {}
    ties: list[str] = []  # on a point-mass main gain: the scored entry, then its ties
    if family_menu is None:
        family_menu = DEFAULT_FULL_MENU if csi == FULL_CSI else DEFAULT_MAIN_MENU
    for entry in family_menu:
        try:
            family, h_min = resolve_menu_entry(entry, dist_m)
            if csi == MAIN_CSI and family == "full-inv":
                skipped[entry] = "needs full CSI"
                continue
            pol = calibrate(family, dist_m, dist_e, p_bar, h_min)
        except NonInvertibleChannelError as err:
            infeasible[entry] = str(err)
            continue
        if (dist_m.is_degenerate and pol.h_min <= dist_m.params[0]
                and (family != "full-inv" or dist_e.is_degenerate)):
            ties.append(entry)
            if len(ties) > 1:
                continue
        value, diag = objective(pol)
        if best is None or value - best[0] > _NEAR_TIE * abs(best[0]):
            best = value, pol, diag, entry
    if best is None:
        pol = PowerPolicy("const", p_bar)
        value, diag = objective(pol)
        best = value, pol, diag, None
    value, pol, diag, entry = best
    if entry is None:
        diag["warning"] = "no requested family is usable; reporting const fallback"
    if infeasible or entry is None:
        diag["infeasible"] = infeasible
    if ties[1:] and ties[0] == entry:
        diag["tied_with"] = ties[1:]
    if skipped:
        diag["skipped"] = skipped
    return BoundResult(value, pol, diag, fallback=entry is None)


def usable(result: BoundResult) -> BoundResult:
    """``result``, unless its menu had no usable entry: then its const
    fallback stands in for the families asked for, so raise
    NonInvertibleChannelError naming the first that did not calibrate, or
    CsiError if every entry was skipped for needing full CSI."""
    if not result.fallback:
        return result
    diag = result.diagnostics
    if diag["infeasible"]:
        raise NonInvertibleChannelError(next(iter(diag["infeasible"].values())))
    if not diag.get("skipped"):
        raise ValueError("the family menu is empty")
    entry, reason = next(iter(diag["skipped"].items()))
    raise CsiError(f"policy {entry!r} {reason}: it reads h_e, which main CSI lacks")


def _capped_secrecy_rate(pol, dist_m, dist_e, nodes) -> tuple[float, dict]:
    """The upper bounds' objective: min{E[r_s], ess-inf r_main}."""
    floor = delay_floor(pol, dist_m)
    if floor <= 0.0:
        return 0.0, {"r_d_floor": floor, "binding": "r_d_floor"}
    ers = ergodic_secrecy_rate(pol, dist_m, dist_e, nodes)
    binding = "r_s_expected" if ers <= floor else "r_d_floor"
    return min(ers, floor), {"r_d_floor": floor, "r_s_expected": ers, "binding": binding}


def upper_full(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, nodes: int = 200) -> BoundResult:
    """Upper bound with both gains known: max over the menu of
    min{E[r_s], ess-inf r_main}."""
    return _best(dist_m, dist_e, p_bar, family_menu, FULL_CSI,
                 lambda pol: _capped_secrecy_rate(pol, dist_m, dist_e, nodes))


def upper_main(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, nodes: int = 200) -> BoundResult:
    """Upper bound with only the main gain known: as :func:`upper_full` but
    restricted to policies that depend on h_m alone."""
    return _best(dist_m, dist_e, p_bar, family_menu, MAIN_CSI,
                 lambda pol: _capped_secrecy_rate(pol, dist_m, dist_e, nodes))


def lower_full(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, q_kappa: float | None = None,
               nodes: int = 200) -> BoundResult:
    """Achievable rate of the two-stage scheme with both gains known.

    With the pad rate held constant in the fading state (a constant
    allocation maximizes a min over states for a fixed budget), the value
    for one policy and one q is

        ess-inf r_s''  +  min{ E[r_s'], ess-inf min(r_main, r_eve) }.

    ``q_kappa`` pins q(h) = max(h_e, kappa); None takes the best kappa in
    closed form.  Under a continuous marginal the direct-share floor is
    zero (states with h_e >= h_m, where r_s'' = 0, have positive
    probability) and E[r_s'] is non-increasing in kappa, so kappa = 0
    (q = h_e) is optimal.  A point-mass pair has no outage: every kappa
    gives r_s - r_s' + min{r_s', cap} <= r_s, and kappa = v_m (r_s' = 0)
    attains r_s, so the first maximum of kappa = 0 and v_m is taken.

    The pad rate r_o = min{E[r_s'], cap}, cap = ess-inf min(r_main, r_eve),
    fits the key budget and the common rate by construction, and
    ``binding`` names the smaller term (the cap on a tie).  Off a
    point-mass pair, an entry whose cap is 0 (every family but full-inv,
    and full-inv at zero power) is worth exactly 0 at any kappa: its E[r_s']
    is neither evaluated nor reported.
    """
    if q_kappa is not None and not q_kappa >= 0.0:
        raise ValueError(f"kappa must be >= 0, got {q_kappa}")
    kappa0 = 0.0 if q_kappa is None else float(q_kappa)
    point_mass = dist_m.is_degenerate and dist_e.is_degenerate

    def objective(pol: PowerPolicy) -> tuple[float, dict]:
        cap = common_rate_floor(pol, dist_m, dist_e)
        if not point_mass and cap == 0.0:
            # dfloor is 0 and E[r_s'] >= 0, so min{E[r_s'], 0} is 0 already
            return 0.0, {"q_kappa": kappa0, "r_o_chosen": 0.0, "r_o_cap": cap,
                         "r_dprime_floor": 0.0, "binding": "r_o_cap"}

        def value_at(kappa: float) -> tuple[float, dict]:
            key_mean = expected_key_share(pol, dist_m, dist_e, kappa=kappa, nodes=nodes)
            dfloor = 0.0
            if point_mass:  # the rule is the atom at weight 1: E[r_s''] is its ess-inf
                dfloor = max(ergodic_secrecy_rate(pol, dist_m, dist_e, nodes) - key_mean, 0.0)
            r_o = min(key_mean, cap)
            return dfloor + r_o, {
                "q_kappa": kappa,
                "r_o_chosen": r_o,
                "r_o_cap": cap,
                "r_s_prime_expected": key_mean,
                "r_dprime_floor": dfloor,
                "binding": "r_o_cap" if cap <= key_mean else "r_s_prime_expected",
            }

        value, diag = value_at(kappa0)
        if point_mass and q_kappa is None:
            # kappa = v_m zeroes the key share, so the whole r_s is direct
            direct = value_at(dist_m.params[0])
            if direct[0] > value:
                value, diag = direct
        return value, diag

    return _best(dist_m, dist_e, p_bar, family_menu, FULL_CSI, objective)


def key_rate(gap: np.ndarray, w: np.ndarray, r: float) -> float:
    """K(R) = sum_i w_i (g_i - R)^+ at one R >= 0, for flat per-state rates
    and their weights (the r_s list ``secrecy_gap(...)[0]`` and the ``w``
    of :func:`~dlsec.fading.pair_rule`; a signed gap gives the same K)."""
    return weighted_sum(w, np.maximum(gap - r, 0.0))


def fixed_point_rate(policy: PowerPolicy, dist_m: FadingDistribution,
                     dist_e: FadingDistribution, nodes: int = 200) -> tuple[float, dict]:
    """Solve R = min{K(R), R_d} for one calibrated main-CSI policy: R* and
    its diagnostics (``lower_main``'s objective).

    On the grid, K(R) = sum_i w_i (r_s,i - R)^+ over the shared r_s list
    of :func:`dlsec.rates.secrecy_gap`, and K(0) is E[r_s].  Newton's
    method from R = 0 on f(R) = R - K(R) lands each step on the root
    S / (1 + W_R) of the current segment's line, where S and W_R sum
    w_i r_s,i and w_i over the r_s,i above R.  Typically few gaps fall to
    or below the root (about 1 100 of 19 900 on chisq:4 / chisq:4), so both
    are taken from the ones that do: S = K(0) - sum w_i r_s,i and W_R =
    W - sum w_i over the r_s,i <= R, with W the list's total weight
    (``w_total``).  Each iteration compares R with the whole list once and
    gathers only the dropped gaps (the first iteration drops any zero
    gaps).  f is concave and increasing, so the steps rise without passing
    the root, each crossing a breakpoint, until an iteration drops no new
    gap: its step would repeat the last, so R is the exact root on the
    crossing segment, and K(R) = S - W_R R.  A step that reaches R_d means
    K(R_d) >= R_d and the answer is R_d; K(R_d) is then one :func:`key_rate`
    over the whole list.  ``fixed_point_iterations`` counts the iterations,
    the last included, ``key_balance_margin`` is min{K(R*), R_d} - R*, and
    ``binding`` is "r_d_floor" when R* = R_d, else "key_rate".
    """
    r_d = delay_floor(policy, dist_m)
    if r_d <= 0.0:
        return 0.0, {"r_d_floor": r_d, "fixed_point_iterations": 0, "key_rate_at_zero": 0.0,
                     "key_balance_margin": 0.0, "feasible": True, "binding": "r_d_floor"}
    gap, k_zero = secrecy_gap(policy, dist_m, dist_e, nodes)
    rule = pair_rule(dist_m, dist_e, nodes)
    root, iterations, dropped = 0.0, 0, -1  # dropped: how many gaps are <= root
    while root < r_d:  # a step that reaches R_d ends the loop there
        iterations += 1
        low = gap <= root
        n_low = np.count_nonzero(low)
        if n_low == dropped:  # no new gap dropped: the step would repeat the last one, root
            break
        dropped = n_low
        w_low = rule.w[low]
        total = k_zero - weighted_sum(w_low, gap[low])
        weight = rule.w_total - float(w_low.sum())
        step = total / (1.0 + weight)
        if step <= root:
            break
        root = min(step, r_d)
    k_root = key_rate(gap, rule.w, r_d) if root == r_d else total - weight * root
    margin = min(k_root, r_d) - root
    return root, {"r_d_floor": r_d, "fixed_point_iterations": iterations,
                  "key_rate_at_zero": k_zero, "key_balance_margin": margin,
                  "feasible": margin >= -_CERT_TOL,
                  "binding": "r_d_floor" if root == r_d else "key_rate"}


def lower_main(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, nodes: int = 200) -> BoundResult:
    """Achievable rate with only the main gain known: everything rides the
    one-time pad, and the sustainable rate is the fixed point of the key
    balance (:func:`fixed_point_rate`), maximized over main-CSI families."""
    return _best(dist_m, dist_e, p_bar, family_menu, MAIN_CSI,
                 lambda pol: fixed_point_rate(pol, dist_m, dist_e, nodes))


def _log_ratio(a: float, b: float) -> float:
    """log(a / b) for positive finite a and b; a quotient that underflows to
    0 or overflows takes the logs apart."""
    ratio = a / b
    return math.log(ratio) if 0.0 < ratio < math.inf else math.log(a) - math.log(b)


def _digamma(x: float) -> float:
    """psi(x) for x > 0: psi(x) = psi(x + 1) - 1/x up to x >= 10, then the
    asymptotic series of Abramowitz-Stegun 6.3.18 through x^-10."""
    shift = 0.0
    while x < 10.0:
        shift, x = shift - 1.0 / x, x + 1.0
    z = 1.0 / (x * x)
    series = z * (1 / 12 - z * (1 / 120 - z * (1 / 252 - z * (1 / 240 - z / 132))))
    return shift + math.log(x) - 0.5 / x - series


def _log_moments(dist: FadingDistribution) -> tuple[float, float, float]:
    """(loc, shape, psi) with E[log h] = log loc + psi; an atom v is (v, 1, 0)."""
    if dist.is_degenerate:
        return dist.params[0], 1.0, 0.0
    return dist.scale, dist.shape, _digamma(dist.shape)


def _log_excess(top: FadingDistribution, bottom: FadingDistribution,
                nodes: int) -> tuple[float, float]:
    """E[(log(top/bottom))^+] and the gap to the rule of twice the step:
    one sum on :func:`~dlsec.numerics.tanh_sinh_nodes` (two atoms are exact).

    An atom v against G ~ Gamma(k, theta) puts G = theta y s^sigma, y = v/theta
    (sigma = +1 with the atom on top, else -1): the log factor is -log s and
    the density y^k s^(sigma k - 1) e^(-y s^sigma) / Gamma(k).  Two gamma laws
    take Beta coordinates (Lukacs 1955): top/bottom = r (1 - U)/U with
    r = theta_top/theta_bottom and U ~ Beta(k_bottom, k_top), integrated over
    (0, u*), u* = r/(1 + r), so the diagonal kink is an endpoint.  With
    u = u* s, 1 - u = (1 - u*)(1 + r(1 - s)) and the log factor is
    log(1 + r(1 - s)) - log s, two terms >= 0.  Every power is in log form
    (softplus is np.logaddexp(0, .)): nothing underflows or cancels.
    """
    if top.is_degenerate and bottom.is_degenerate:
        return max(_log_ratio(top.params[0], bottom.params[0]), 0.0), 0.0
    log_s, log_1ms, log_ds, steps = tanh_sinh_nodes(nodes)
    if top.is_degenerate or bottom.is_degenerate:
        law, atom, sigma = (bottom, top, 1.0) if top.is_degenerate else (top, bottom, -1.0)
        k, log_y = law.shape, _log_ratio(atom.params[0], law.scale)
        # log(y s^sigma), capped where e^-(y s^sigma) is 0 anyway, so exp cannot overflow
        log_g = np.minimum(log_y + sigma * log_s, 700.0)
        log_density = (k * log_y + (sigma * k - 1.0) * log_s - np.exp(log_g)
                       - math.lgamma(k) + log_ds)
        integrand = np.exp(log_density) * -log_s
    else:
        a, b = bottom.shape, top.shape
        log_r = _log_ratio(top.scale, bottom.scale)
        log_tail = np.logaddexp(0.0, log_r + log_1ms)  # log(1 + r (1 - s))
        log_u = log_s - np.logaddexp(0.0, -log_r)
        log_1mu = log_tail - np.logaddexp(0.0, log_r)
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        # u^(a-1) (1-u)^(b-1) / B(a, b) du/dt, where du/dt = u s'(t) / s
        log_density = a * log_u + (b - 1.0) * log_1mu - log_beta + log_ds - log_s
        integrand = np.exp(log_density) * (log_tail - log_s)
    value, coarse = weighted_sum(integrand, steps)
    return float(value), abs(float(value - coarse))


def high_snr_limit(dist_m: FadingDistribution, dist_e: FadingDistribution,
                   nodes: int = 400) -> HighSnrLimit:
    """E[(log X)^+] with X = h_m/h_e, the invertibility flag and ``quad_error``.

    E[(log X)^+] = E[log X] + E[(log 1/X)^+] with the exact E[log X] =
    log(loc_m/loc_e) + psi(k_m) - psi(k_e), so :func:`_log_excess` sums the
    side whose law has the smaller mean (compared in logs; equal means sum
    directly), and E[log X] is added when the sides are swapped.
    """
    (loc_m, k_m, psi_m), (loc_e, k_e, psi_e) = _log_moments(dist_m), _log_moments(dist_e)
    log_loc = _log_ratio(loc_m, loc_e)
    if log_loc + math.log(k_m / k_e) > 0.0:
        value, error = _log_excess(dist_e, dist_m, nodes)
        value += log_loc + psi_m - psi_e
    else:
        value, error = _log_excess(dist_m, dist_e, nodes)
    return HighSnrLimit(value, invertible(dist_m, dist_e), error)
