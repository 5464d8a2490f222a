"""The eager menu pass: the reference the bounds' results must equal.

Every menu entry is parsed, calibrated and scored in menu order, each
scored entry's diagnostics are built as it is scored, and the point-mass
rates are read at the atom in their own forms, so the result holds what a
plain pass over every entry yields.
"""

import numpy as np

from dlsec.bounds import (_NEAR_TIE, DEFAULT_FULL_MENU, DEFAULT_MAIN_MENU, BoundResult,
                          fixed_point_rate, lower_full, lower_main, upper_full)
from dlsec.fading import ChannelState
from dlsec.policy import (FULL_CSI, MAIN_CSI, CsiError, NonInvertibleChannelError, PowerPolicy,
                          calibrate, parse_policy)
from dlsec.rates import (common_rate_floor, delay_floor, ergodic_secrecy_rate,
                         expected_key_share, per_state_rates)

from flat_grid import ratio_gap


def eager_best(dm, de, p_bar, menu, csi, objective):
    """The menu pass with every entry's diagnostics built as it is scored,
    for an ``objective(policy) -> (value, dict)``: a later entry wins only
    by more than ``_NEAR_TIE`` of the first maximum.  The fallback is
    marked by its ``warning`` alone (read by :func:`eager_usable`)."""
    best, infeasible, skipped, ties = None, {}, {}, []
    if menu is None:
        menu = DEFAULT_FULL_MENU if csi == FULL_CSI else DEFAULT_MAIN_MENU
    for entry in menu:
        try:
            family = parse_policy(entry)
            if csi == MAIN_CSI and family == "full-inv":
                skipped[entry] = "needs full CSI"
                continue
            pol = calibrate(family, dm, de, p_bar)
        except NonInvertibleChannelError as err:
            infeasible[entry] = str(err)
            continue
        if dm.is_degenerate and (family != "full-inv" or de.is_degenerate):
            ties.append(entry)
            if len(ties) > 1:
                continue
        value, diag = objective(pol)
        if best is None or value > best[0] + _NEAR_TIE * abs(best[0]):
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
    return BoundResult(value, pol, diag)


def eager_usable(result):
    """usable as it read an eager result: its ``warning`` marks the fallback."""
    diag = result.diagnostics
    if "warning" not in diag:
        return result
    if diag["infeasible"]:
        raise NonInvertibleChannelError(next(iter(diag["infeasible"].values())))
    if not diag.get("skipped"):
        raise ValueError("the family menu is empty")
    entry, reason = next(iter(diag["skipped"].items()))
    raise CsiError(f"policy {entry!r} {reason}: it reads h_e, which main CSI lacks")


def eager_capped_secrecy_rate(pol, dm, de):
    floor = delay_floor(pol, dm)
    diag = {"r_d_floor": floor}
    if floor <= 0.0:
        diag["binding"] = "r_d_floor"
        return 0.0, diag
    ers = ergodic_secrecy_rate(pol, dm, de)
    diag["r_s_expected"] = ers
    diag["binding"] = "r_s_expected" if ers <= floor else "r_d_floor"
    return min(ers, floor), diag


def eager_lower_full_objective(dm, de, q_kappa=None):
    """lower_full's objective with every entry's rates and diagnostics
    built as it is scored: off a point-mass pair an entry with cap 0 is
    worth 0 and reports no E[r_s'], and on one every rate is read at the
    atom, r_s in the ratio form (0 where v_m <= v_e) and r_s' at kappa > 0
    off per_state_rates."""
    atom = (ChannelState(dm.params[0], de.params[0])
            if dm.is_degenerate and de.is_degenerate else None)

    def objective(pol):
        cap = common_rate_floor(pol, dm, de)
        kappa0 = 0.0 if q_kappa is None else q_kappa
        if atom is None and cap == 0.0:
            return 0.0, {"q_kappa": kappa0, "r_o_chosen": 0.0, "r_o_cap": cap,
                         "r_dprime_floor": 0.0, "binding": "r_o_cap"}

        def value_at(kappa):
            if atom is not None:
                r_s = 0.0
                if atom.h_m > atom.h_e:
                    r_s = float(ratio_gap(pol, np.array([atom.h_m]), np.array([atom.h_e]))[0])
                key_mean = r_s if kappa == 0.0 else per_state_rates(pol, atom, kappa).r_s_prime
                dfloor = max(r_s - key_mean, 0.0)
            else:
                key_mean, dfloor = expected_key_share(pol, dm, de, kappa=kappa), 0.0
            r_o = min(key_mean, cap)
            diag = {"q_kappa": kappa, "r_o_chosen": r_o, "r_o_cap": cap,
                    "r_s_prime_expected": key_mean, "r_dprime_floor": dfloor,
                    "binding": "r_o_cap" if cap <= key_mean else "r_s_prime_expected"}
            return dfloor + r_o, diag

        best = value_at(kappa0)
        if atom is not None and q_kappa is None:
            direct = value_at(atom.h_m)
            if direct[0] > best[0]:
                best = direct
        return best

    return objective


def eager_lower_full(dm, de, p_bar, menu=None, q_kappa=None):
    return eager_best(dm, de, p_bar, menu, FULL_CSI,
                      eager_lower_full_objective(dm, de, q_kappa))


def eager_bound(bound, dm, de, p_bar, menu=None):
    """Each bound with its diagnostics built eagerly."""
    if bound is lower_full:
        return eager_lower_full(dm, de, p_bar, menu)
    if bound is lower_main:
        return eager_best(dm, de, p_bar, menu, MAIN_CSI,
                          lambda pol: fixed_point_rate(pol, dm, de))
    csi = FULL_CSI if bound is upper_full else MAIN_CSI
    return eager_best(dm, de, p_bar, menu, csi,
                      lambda pol: eager_capped_secrecy_rate(pol, dm, de))


def usable_outcome(use, result):
    """(error type, message) that ``use`` raises on ``result``, or None."""
    try:
        use(result)
    except (ValueError, CsiError) as err:
        return type(err), str(err)
    return None
