"""The calibration moments from scipy, as an independent reference.

Each moment is built here from :mod:`scipy.special` and
:mod:`scipy.integrate`, not read from the code under test: the
regularized incomplete beta and gamma where scipy has the function, and a
quadrature in log coordinates for Gamma(a, y) at orders a <= 0, where
``gammaincc`` is undefined.
"""

import math

from scipy import integrate, special


def upper_gamma(a, y):
    """Gamma(a, y) for a > -1 and y > 0.

    With t = y e^s, Gamma(a, y) = y^a e^-y int_0^inf exp(a s - y (e^s - 1)) ds.
    The integrand is 1 at s = 0, falls off a cliff past s = log(1 + 1/y)
    and is below e^-750 past log(1 + 750/y), so the rule gets both points.
    """
    cliff, end = math.log1p(1.0 / y), math.log1p(750.0 / y)
    val, _ = integrate.quad(lambda s: math.exp(a * s - y * math.expm1(s)), 0.0, end,
                            points=[cliff], epsabs=0.0, epsrel=1e-13, limit=400)
    return math.exp(a * math.log(y) - y) * val


def truncated_inverse_moment(dist, h_min):
    """E[1/h; h >= h_min] = Gamma(k-1, y) / (Gamma(k) theta), y = h_min / theta."""
    k, theta = dist.shape, dist.scale
    y = h_min / theta
    if k > 1.0:
        return special.gammaincc(k - 1.0, y) / ((k - 1.0) * theta)
    return upper_gamma(k - 1.0, y) / (special.gamma(k) * theta)


def inverse_min_moment(dist_m, dist_e):
    """E[1/min(h_m, h_e)] for shapes > 1: split U ~ Beta(k_m, k_e) at
    u = theta_m / (theta_m + theta_e) in Lukacs coordinates; against an
    atom v, E[1/h; h < v] + P(h >= v) / v."""
    if dist_m.is_degenerate or dist_e.is_degenerate:
        atom, cont = (dist_m, dist_e) if dist_m.is_degenerate else (dist_e, dist_m)
        v, k, theta = atom.params[0], cont.shape, cont.scale
        return (special.gammainc(k - 1.0, v / theta) / ((k - 1.0) * theta)
                + special.gammaincc(k, v / theta) / v)
    (k_m, t_m), (k_e, t_e) = (dist_m.shape, dist_m.scale), (dist_e.shape, dist_e.scale)
    u, u1 = t_m / (t_m + t_e), t_e / (t_m + t_e)
    return (special.betainc(k_e - 1.0, k_m, u) / ((k_e - 1.0) * t_e)
            + special.betainc(k_m - 1.0, k_e, u1) / ((k_m - 1.0) * t_m))


def power_moment(family, dist_m, dist_e, h_min=0.0):
    """E[P(h)] / c for a policy family: the scale's reference divisor."""
    if family == "const":
        return 1.0
    if family == "full-inv":
        return inverse_min_moment(dist_m, dist_e)
    if family == "main-inv":
        return 1.0 / ((dist_m.shape - 1.0) * dist_m.scale)
    return truncated_inverse_moment(dist_m, h_min)
