"""Bound invariants on random gamma law pairs and budgets.

The four bounds are sums in different orders over the same rule, so an
ordering between two of them holds to rounding: 1e-12 relative.  Where the
secrecy rate is tiny (about 1e-25 nats at 25 dB on some pairs), lower_main
and upper_main differ in the last bits either way.  The high-SNR limit is
checked on laws that include point masses and the whole shape range.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from dlsec.bounds import high_snr_limit, lower_full, lower_main, upper_full, upper_main
from dlsec.fading import FadingDistribution
from dlsec.policy import calibrate, expected_power

import moment_reference as reference

REL = 1e-12

gamma_laws = st.builds(
    lambda shape, scale: FadingDistribution("gamma", (shape, scale)),
    st.floats(1.05, 8.0),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
)
scales = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
laws_with_atoms = st.one_of(
    st.builds(lambda v: FadingDistribution("const", (v,)), scales),
    st.builds(lambda shape, scale: FadingDistribution("gamma", (shape, scale)),
              st.floats(0.05, 50.0), scales),
)
budgets_db = st.lists(st.floats(0.0, 50.0), min_size=2, max_size=2).map(sorted)


def at_most(a: float, b: float) -> bool:
    return a <= b + REL * abs(b)


def four_bounds(dist_m, dist_e, p_bar):
    return [bound(dist_m, dist_e, p_bar).value
            for bound in (upper_full, lower_full, upper_main, lower_main)]


@settings(max_examples=50, derandomize=True, deadline=None)
@given(dist_m=gamma_laws, dist_e=gamma_laws, db=budgets_db)
def test_bound_invariants(dist_m, dist_e, db):
    low, high = (10.0 ** (d / 10.0) for d in db)
    uf, lf, um, lm = at_low = four_bounds(dist_m, dist_e, low)
    assert at_most(lf, uf)
    assert at_most(lm, um)
    assert at_most(um, uf)
    for before, after in zip(at_low, four_bounds(dist_m, dist_e, high)):
        assert at_most(before, after)
    # E[P] = p_bar for every family, with E[P] / c from scipy rather than
    # the moment that calibrate divided by
    for family in ("const", "full-inv", "main-inv"):
        pol = calibrate(family, dist_m, dist_e, low)
        power = pol.c * reference.power_moment(family, dist_m, dist_e)
        assert abs(power - low) <= REL * low, (family, power)
        assert abs(expected_power(pol, dist_m, dist_e) - power) <= REL * low


def mean_log(dist) -> float:
    """E[log h] by scipy: log v for an atom, log theta + psi(k) for a gamma law."""
    if dist.is_degenerate:
        return math.log(dist.params[0])
    return math.log(dist.scale) + float(special.digamma(dist.shape))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(dist_m=laws_with_atoms, dist_e=laws_with_atoms)
def test_high_snr_limit_splits_off_the_mean_log_ratio(dist_m, dist_e):
    """E[(log X)^+] >= max(E[log X], 0), and E[(log X)^+] - E[(log 1/X)^+]
    = E[log X], X = h_m/h_e.  A difference is only as exact as its terms, so
    the identity holds to 1e-12 of the larger of the two limits."""
    forward = high_snr_limit(dist_m, dist_e).value
    backward = high_snr_limit(dist_e, dist_m).value
    mean = mean_log(dist_m) - mean_log(dist_e)
    assert at_most(max(mean, 0.0), forward)
    assert abs(forward - backward - mean) <= REL * max(forward, backward)
