"""The menu pass: every bound equals the eager reference pass on any menu,
and on the default menus no law or budget makes a bound raise."""

from collections import Counter

import numpy as np
import pytest

from dlsec.bounds import lower_full, lower_main, upper_full, upper_main, usable
from dlsec.fading import FadingDistribution, parse_distribution

from eager_reference import eager_bound, eager_lower_full, eager_usable, usable_outcome
from random_laws import random_law

FOUR_BOUNDS = [upper_full, lower_full, upper_main, lower_main]


def diagnostics_repr(result):
    return repr((result.value, result.policy, result.diagnostics))


def test_ties_are_named():
    """On a point-mass main gain against a continuous one, the default menu
    scores const and names main-inv as its tie (full-inv reads the
    continuous eavesdropper gain, so it ties with nothing)."""
    dm, de = parse_distribution("const:2"), parse_distribution("chisq:4")
    res = lower_full(dm, de, 0.0)
    assert res.policy.family == "const"
    assert res.diagnostics["tied_with"] == ["main-inv"]
    want = eager_lower_full(dm, de, 0.0, None)
    assert diagnostics_repr(res) == diagnostics_repr(want)


def extreme_law(rng):
    """A point mass, an exponential or a gamma law at a subnormal scale,
    or at the smallest normal one."""
    scale = float(rng.choice([5e-324, 2.5e-320, 1e-310, 2.2250738585072014e-308]))
    kind = rng.integers(3)
    if kind == 0:
        return FadingDistribution("const", (scale,))
    if kind == 1:
        return FadingDistribution("exp", (scale,))
    return FadingDistribution("gamma", (float(10.0 ** rng.uniform(-1.3, 1.69)), scale))


@pytest.mark.parametrize("spec_m, spec_e, p_bar", [
    ("chisq:4", "chisq:4", 100.0),
    ("exp:1", "exp:1", 100.0),
    ("gamma:3:0.01", "exp:2", 1e4),
    ("gamma:0.5:2", "gamma:0.8:0.1", 1e4),
    ("chisq:4", "const:2", 0.0),
    ("const:2", "chisq:4", 100.0),
])
def test_default_menus_equal_the_eager_pass(spec_m, spec_e, p_bar):
    """Named law pairs (invertible, non-invertible, point masses, zero
    budget): each bound on its default menu gives the eager pass's value,
    policy, diagnostics (by repr), fallback flag and usable outcome."""
    dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
    for bound in FOUR_BOUNDS:
        got = bound_outcome(bound, dm, de, p_bar)
        assert not isinstance(got[0], type), (bound.__name__, got)
        assert got == eager_outcome(lambda: eager_bound(bound, dm, de, p_bar, None))


def test_default_menus_raise_nothing_on_extreme_laws():
    """Random law pairs (point masses and subnormal scales among them) x
    budgets (0, -30 to 60 dB, and 3 050 dB, where powers overflow): each
    bound on its default menu gives the eager pass's value, policy,
    diagnostics (by repr), fallback flag and usable outcome, and no case
    raises: the inversion families read the gain ratio and form no power,
    so none overflows (when they formed it, 3 050 dB raised in 20 or more
    cases)."""
    rng = np.random.default_rng(26)
    kinds = Counter()
    for _ in range(150):
        dm, de = (extreme_law(rng) if rng.random() < 0.3 else random_law(rng)
                  for _ in range(2))
        for p_bar in (0.0, float(10.0 ** rng.uniform(-3.0, 6.0)), 1e305):
            for bound in FOUR_BOUNDS:
                got = bound_outcome(bound, dm, de, p_bar)
                want = eager_outcome(lambda: eager_bound(bound, dm, de, p_bar, None))
                assert got == want, (bound.__name__, dm, de, p_bar)
                kinds["error" if isinstance(got[0], type) else "result"] += 1
    assert kinds["result"] >= 1000 and kinds["error"] == 0


def random_menu(rng):
    """A menu mixing the three families in any spelling, full-inv (skipped
    under main CSI), duplicates, and now and then a malformed or retired
    entry at the end; None (the default menu) at times."""
    if rng.random() < 0.15:
        return None
    pool = ["const", "full-inv", "main-inv", " Main-Inv ", "FULL-INV"]
    menu = [pool[i] for i in rng.integers(len(pool), size=int(rng.integers(1, 7)))]
    if rng.random() < 0.2:
        menu.append(["bogus", "trunc-inv:abc", "const:1", "trunc-inv:-1"][rng.integers(4)])
    return menu


def bound_outcome(bound, *args, **kwargs):
    """The repr of a bound's value, policy and diagnostics, its fallback
    flag and what usable raises on it; or the error the bound raises."""
    try:
        res = bound(*args, **kwargs)
        return diagnostics_repr(res), res.fallback, usable_outcome(usable, res)
    except ValueError as err:
        return type(err), str(err)


def eager_outcome(run):
    try:
        res = run()
        return (diagnostics_repr(res), "warning" in res.diagnostics,
                usable_outcome(eager_usable, res))
    except ValueError as err:
        return type(err), str(err)


def test_bounds_equal_the_eager_pass():
    """Random law pairs x random menus x budgets (0, -30 to 200 dB, and
    3 050 dB, where powers overflow): each bound, and lower_full at a
    pinned kappa, gives the eager pass's value, policy, diagnostics (by
    repr, so in order), fallback flag and usable outcome, or its error."""
    rng = np.random.default_rng(25)
    kinds = Counter()
    for _ in range(120):
        dm, de = random_law(rng), random_law(rng)
        menu = random_menu(rng)
        for p_bar in (0.0, float(10.0 ** rng.uniform(-3.0, 20.0)), 1e305):
            for bound in FOUR_BOUNDS:
                got = bound_outcome(bound, dm, de, p_bar, family_menu=menu)
                want = eager_outcome(lambda: eager_bound(bound, dm, de, p_bar, menu))
                assert got == want, (bound.__name__, dm, de, p_bar, menu)
                kinds["error" if isinstance(got[0], type) else "result"] += 1
            got = bound_outcome(lower_full, dm, de, p_bar, family_menu=menu, q_kappa=0.7)
            assert got == eager_outcome(lambda: eager_lower_full(dm, de, p_bar, menu, 0.7))
    assert kinds["result"] >= 1000 and kinds["error"] >= 50
