"""Delay-limited secrecy rate bounds under full and main-only CSI.

Four bound operations share one menu pass (:func:`_best`): calibrate each
family in a menu to the power budget, evaluate the bound's objective on it,
and keep the best.
Maximization never goes beyond a menu plus one scalar parameter per family
(globally optimal power control is out of scope), so every search here is
either closed-form or a golden-section pass.

The main-CSI achievable rate is self-referential: the sustainable one-time
pad data rate R must satisfy R = min{K(R), R_d}, where K(R) is the secure
key rate left after carrying R on the main channel.  On the quadrature
grid K is convex, piecewise linear and non-increasing in R, so
R - min{K(R), R_d} is strictly increasing with one root, and Newton's
method from R = 0 reaches it exactly on the crossing segment of K
(:func:`fixed_point_rate`).

All four bounds integrate the same per-state gap r_main - r_eve: E[r_s]
(upper bounds), E[r_s'] at q = h_e (lower_full) and K(R) (lower_main).
:func:`dlsec.rates.secrecy_gap` evaluates it once per calibrated policy
and keeps the last 8, so the bounds at one budget build it once per
family (the default menus have 4; a new budget rescales every policy, so
nothing older is hit again).  The law-only inputs of calibration
(E[1/min(h_m, h_e)], the truncated inverse moment and the trunc-inv
default cutoff) are cached per law, 64 entries like the quadrature grid,
so calibrating at a new budget is one division.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .fading import FadingDistribution, inverse_min_moment, joint_grid
from .numerics import golden_max, halfline_nodes, unit_nodes, weighted_sum
from .policy import (FULL_CSI, MAIN_CSI, NonInvertibleChannelError, PowerPolicy,
                     calibrate, parse_policy)
from .rates import (common_rate_floor, delay_floor, ergodic_secrecy_rate, expected_key_share,
                    secrecy_gap)

DEFAULT_FULL_MENU = ("const", "full-inv", "main-inv", "trunc-inv")
DEFAULT_MAIN_MENU = ("const", "main-inv", "trunc-inv")

_CERT_TOL = 1e-9


@dataclass
class BoundResult:
    """A bound value (nats/use), the maximizing policy, and diagnostics."""

    value: float
    policy: PowerPolicy
    diagnostics: dict = field(default_factory=dict)


class HighSnrLimit(NamedTuple):
    """Value of E[(log(h_m/h_e))^+] plus the invertibility flag that gates
    its achievability (finiteness of E[1/min(h_m, h_e)])."""

    value: float
    invertible: bool


@lru_cache(maxsize=64)
def resolve_menu_entry(entry: str, dist_m: FadingDistribution) -> tuple[str, float]:
    """Menu entries follow the policy grammar; a bare 'trunc-inv' defaults
    its cutoff to the median main gain (a law-only quantile, hence the
    cache)."""
    if entry.strip().lower() == "trunc-inv":
        return "trunc-inv", dist_m.quantile(0.5)
    return parse_policy(entry)


def _best(dist_m, dist_e, p_bar, family_menu, nodes, csi, objective) -> BoundResult:
    """The menu pass behind every bound: calibrate each entry of the menu
    (None picks the CSI case's default) to the budget, score it with
    ``objective(policy) -> (value, diagnostics)`` and keep the first maximum.

    Entries that need full CSI are ``skipped`` under main CSI, and families
    whose inverse moment diverges are recorded as ``infeasible``.  When no
    entry is usable, constant power (whose delay floor is 0 for any law
    with support reaching 0) is reported at min{E[r_s], R_d} with a warning.
    """
    best = None
    infeasible: dict[str, str] = {}
    skipped: dict[str, str] = {}
    if family_menu is None:
        family_menu = DEFAULT_FULL_MENU if csi == FULL_CSI else DEFAULT_MAIN_MENU
    for entry in family_menu:
        family, h_min = resolve_menu_entry(entry, dist_m)
        if csi == MAIN_CSI and family == "full-inv":
            skipped[entry] = "needs full CSI"
            continue
        try:
            pol = calibrate(family, dist_m, dist_e, p_bar, h_min)
        except NonInvertibleChannelError as err:
            infeasible[entry] = str(err)
            continue
        value, diag = objective(pol)
        if best is None or value > best[0]:
            best = value, pol, diag
    if best is None:
        pol = PowerPolicy("const", p_bar)
        value, diag = _capped_secrecy_rate(pol, dist_m, dist_e, nodes)
        del diag["binding"]
        diag.update(warning="all requested families infeasible; reporting const fallback",
                    infeasible=infeasible)
    else:
        value, pol, diag = best
        if infeasible:
            diag["infeasible"] = infeasible
    if skipped:
        diag["skipped"] = skipped
    return BoundResult(value=value, policy=pol, diagnostics=diag)


def _capped_secrecy_rate(pol, dist_m, dist_e, nodes) -> tuple[float, dict]:
    """The upper bounds' objective: min{E[r_s], ess-inf r_main}."""
    floor = delay_floor(pol, dist_m)
    diag = {"r_d_floor": floor}
    if floor <= 0.0:
        diag["binding"] = "r_d_floor"
        return 0.0, diag
    ers = ergodic_secrecy_rate(pol, dist_m, dist_e, nodes)
    diag["r_s_expected"] = ers
    diag["binding"] = "r_s_expected" if ers <= floor else "r_d_floor"
    return min(ers, floor), diag


def upper_full(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, nodes: int = 200) -> BoundResult:
    """Upper bound with both gains known: max over the menu of
    min{E[r_s], ess-inf r_main}."""
    return _best(dist_m, dist_e, p_bar, family_menu, nodes, FULL_CSI,
                 lambda pol: _capped_secrecy_rate(pol, dist_m, dist_e, nodes))


def upper_main(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, nodes: int = 200) -> BoundResult:
    """Upper bound with only the main gain known: as :func:`upper_full` but
    restricted to policies that depend on h_m alone."""
    return _best(dist_m, dist_e, p_bar, family_menu, nodes, MAIN_CSI,
                 lambda pol: _capped_secrecy_rate(pol, dist_m, dist_e, nodes))


def lower_full(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, q_kappa: float | None = None,
               nodes: int = 200) -> BoundResult:
    """Achievable rate of the two-stage scheme with both gains known.

    With the pad rate held constant in the fading state (a constant
    allocation maximizes a min over states for a fixed budget), the value
    for one policy and one q is

        ess-inf r_s''  +  min{ E[r_s'], ess-inf min(r_main, r_eve) }.

    ``q_kappa`` pins q(h) = max(h_e, kappa); None searches over kappa.  For
    any law with a continuous marginal the direct-share floor is
    identically zero (states with h_e >= h_m, where r_s'' = 0, have
    positive probability) and E[r_s'] is pointwise non-increasing in kappa,
    so kappa = 0 (q = h_e) is exactly optimal and the search is skipped.
    """
    if q_kappa is not None and not q_kappa >= 0.0:
        raise ValueError(f"kappa must be >= 0, got {q_kappa}")
    atom = dist_m.is_degenerate and dist_e.is_degenerate

    def objective(pol: PowerPolicy) -> tuple[float, dict]:
        cap = common_rate_floor(pol, dist_m, dist_e)
        if atom:
            # the law is the atom: E[r_s'] and ess-inf r_s'' are its rates,
            # and only log(1 + P q) depends on kappa; the same ufuncs as
            # rates.per_state_rates, so the same bits
            vm, ve = dist_m.params[0], dist_e.params[0]
            p = pol.power(vm, ve)
            r_main = np.log1p(p * vm)
            r_s = np.maximum(r_main - np.log1p(p * ve), 0.0)

        def value_at(kappa: float) -> tuple[float, dict]:
            if atom:
                r_s_prime = np.maximum(r_main - np.log1p(p * np.maximum(ve, kappa)), 0.0)
                key_mean = float(r_s_prime)
                dfloor = float(np.maximum(r_s - r_s_prime, 0.0))
            else:
                key_mean = expected_key_share(pol, dist_m, dist_e, kappa=kappa, nodes=nodes)
                dfloor = 0.0
            r_o = min(key_mean, cap)
            diag = {
                "q_kappa": kappa,
                "r_o_chosen": r_o,
                "r_o_cap": cap,
                "r_s_prime_expected": key_mean,
                "r_dprime_floor": dfloor,
                "key_budget_margin": key_mean - r_o,
                "common_rate_margin": cap - r_o,
            }
            diag["feasible"] = (diag["key_budget_margin"] >= -_CERT_TOL
                                and diag["common_rate_margin"] >= -_CERT_TOL)
            return dfloor + r_o, diag

        if q_kappa is not None:
            return value_at(float(q_kappa))
        value, diag = value_at(0.0)
        if atom:
            # only here can a positive kappa trade key share for a
            # nonzero direct-share floor
            kappa_hi = dist_m.params[0] + dist_e.params[0]
            k_best, v_best = golden_max(lambda k: value_at(k)[0], 0.0, kappa_hi, tol=1e-9)
            if v_best > value:
                value, diag = value_at(k_best)
        return value, diag

    return _best(dist_m, dist_e, p_bar, family_menu, nodes, FULL_CSI, objective)


def fixed_point_rate(policy: PowerPolicy, dist_m: FadingDistribution,
                     dist_e: FadingDistribution, nodes: int = 200) -> tuple[float, dict]:
    """Solve R = min{K(R), R_d} for one calibrated main-CSI policy.

    On the grid, K(R) = sum_i w_i (g_i - R)^+ over the shared gap of
    :func:`dlsec.rates.secrecy_gap`, and K(0) is E[r_s].  Only positive
    gaps count for R >= 0, so they are kept once.  Newton's method from
    R = 0 on f(R) = R - K(R) then lands each step on the root
    S / (1 + W) of the current segment's line, where S and W sum w_i g_i
    and w_i over the gaps above R.  f is concave and increasing, so the
    steps rise without passing the root.  A step that drops no gap below
    R returns R itself, the exact root on the crossing segment; between
    the first step and that last one, each step crosses a breakpoint.  A
    step that reaches R_d means K(R_d) >= R_d and the answer is R_d.
    ``fixed_point_iterations`` counts the steps taken, and ``binding`` is
    "r_d_floor" when R* = R_d, else "key_rate".
    """
    r_d = delay_floor(policy, dist_m)
    diag: dict = {"r_d_floor": r_d, "fixed_point_iterations": 0}
    if r_d <= 0.0:
        diag["key_rate_at_zero"] = 0.0
        diag["key_balance_margin"] = 0.0
        diag["feasible"] = True
        diag["binding"] = "r_d_floor"
        return 0.0, diag
    gap, key_rate_at_zero = secrecy_gap(policy, dist_m, dist_e, nodes)
    w = joint_grid(dist_m, dist_e, nodes)[2]
    positive = gap > 0.0
    g_pos, w_pos = gap[positive], w[positive]
    g_act, w_act = g_pos, w_pos
    root = 0.0
    while True:
        diag["fixed_point_iterations"] += 1
        above = g_act > root
        if not above.all():
            g_act, w_act = g_act[above], w_act[above]
        step = weighted_sum(w_act, g_act) / (1.0 + float(w_act.sum()))
        if step >= r_d:
            root = r_d
            break
        if step <= root:
            break
        root = step
    diag["key_rate_at_zero"] = key_rate_at_zero
    k_root = weighted_sum(w_pos, np.maximum(g_pos - root, 0.0))
    diag["key_balance_margin"] = min(k_root, r_d) - root
    diag["feasible"] = diag["key_balance_margin"] >= -_CERT_TOL
    diag["binding"] = "r_d_floor" if root == r_d else "key_rate"
    return root, diag


def lower_main(dist_m: FadingDistribution, dist_e: FadingDistribution, p_bar: float,
               family_menu: Sequence[str] | None = None, nodes: int = 200) -> BoundResult:
    """Achievable rate with only the main gain known: everything rides the
    one-time pad, and the sustainable rate is the fixed point of the key
    balance, maximized over main-CSI families."""
    return _best(dist_m, dist_e, p_bar, family_menu, nodes, MAIN_CSI,
                 lambda pol: fixed_point_rate(pol, dist_m, dist_e, nodes))


def high_snr_limit(dist_m: FadingDistribution, dist_e: FadingDistribution,
                   nodes: int = 400) -> HighSnrLimit:
    """E[(log(h_m/h_e))^+] plus the invertibility flag.

    The positive-part region {h_m > h_e} is integrated exactly: the inner
    integral runs over h_e in (0, h_m) through the substitution
    h_e = t * h_m, which keeps the quadrature away from the kink along the
    diagonal.
    """
    invertible = math.isfinite(inverse_min_moment(dist_m, dist_e))
    if dist_m.is_degenerate and dist_e.is_degenerate:
        vm, ve = dist_m.params[0], dist_e.params[0]
        ratio = vm / ve
        # a quotient that underflows to 0 or overflows takes the logs apart
        log_ratio = math.log(ratio) if 0.0 < ratio < math.inf else math.log(vm) - math.log(ve)
        return HighSnrLimit(max(log_ratio, 0.0), invertible)
    if dist_m.is_degenerate:
        vm = dist_m.params[0]
        t, wt = unit_nodes(nodes)
        value = vm * weighted_sum(wt, np.log(1.0 / t) * dist_e.pdf(vm * t))
        return HighSnrLimit(value, invertible)
    if dist_e.is_degenerate:
        ve = dist_e.params[0]
        x, w = halfline_nodes(nodes)
        y = x + ve
        value = weighted_sum(w, np.log(y / ve) * dist_m.pdf(y))
        return HighSnrLimit(value, invertible)
    x, wx = halfline_nodes(nodes)
    t, wt = unit_nodes(nodes)
    outer = wx * dist_m.pdf(x) * x
    # a row the main law gives no weight adds 0 to the outer sum either way
    live = outer != 0.0
    inner = np.zeros(x.size)
    inner[live] = weighted_sum(wt * np.log(1.0 / t), dist_e.pdf_outer(x[live], t))
    return HighSnrLimit(weighted_sum(outer, inner), invertible)
