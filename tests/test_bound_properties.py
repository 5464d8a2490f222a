"""Bound invariants on random gamma law pairs and budgets.

The four bounds are sums in different orders over the same rule, so an
ordering between two of them holds to rounding: 1e-12 relative.  Where the
secrecy rate is tiny (about 1e-25 nats at 25 dB on some pairs), lower_main
and upper_main differ in the last bits either way.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dlsec.bounds import (DEFAULT_FULL_MENU, lower_full, lower_main, resolve_menu_entry,
                          upper_full, upper_main)
from dlsec.fading import FadingDistribution
from dlsec.policy import calibrate, expected_power

REL = 1e-12

gamma_laws = st.builds(
    lambda shape, scale: FadingDistribution("gamma", (shape, scale)),
    st.floats(1.05, 8.0),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
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
    for entry in DEFAULT_FULL_MENU:
        family, h_min = resolve_menu_entry(entry, dist_m)
        pol = calibrate(family, dist_m, dist_e, low, h_min)
        assert abs(expected_power(pol, dist_m, dist_e) - low) <= REL * low
