"""The calibration moments from scipy, as an independent reference.

Each moment is built here from :mod:`scipy.special`, not read from the
code under test: the regularized incomplete beta and gamma.
"""

from scipy import special


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


def power_moment(family, dist_m, dist_e):
    """E[P(h)] / c for a policy family: the scale's reference divisor."""
    if family == "const":
        return 1.0
    if family == "full-inv":
        return inverse_min_moment(dist_m, dist_e)
    return 1.0 / ((dist_m.shape - 1.0) * dist_m.scale)
