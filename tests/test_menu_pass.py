"""The menu pass: the default menus hold only families that can win, so
they give what the menus with trunc-inv gave, and every bound equals the
eager reference pass on any menu."""

from collections import Counter

import numpy as np
import pytest

import dlsec.fading as fading_module
import dlsec.policy as policy_module
from dlsec.bounds import (lower_full, lower_main, resolve_menu_entry, upper_full, upper_main,
                          usable)
from dlsec.fading import FadingDistribution, parse_distribution

from eager_reference import eager_bound, eager_lower_full, eager_usable, usable_outcome
from random_laws import random_law

FOUR_BOUNDS = [upper_full, lower_full, upper_main, lower_main]
# each bound's default menu with a bare trunc-inv at the end
FULL_WITH_TRUNC_INV = ("const", "full-inv", "main-inv", "trunc-inv")
MAIN_WITH_TRUNC_INV = ("const", "main-inv", "trunc-inv")
WITH_TRUNC_INV = {upper_full: FULL_WITH_TRUNC_INV, lower_full: FULL_WITH_TRUNC_INV,
                  upper_main: MAIN_WITH_TRUNC_INV, lower_main: MAIN_WITH_TRUNC_INV}


@pytest.fixture
def law_only_calls(monkeypatch):
    """Counts calls to the gamma quantile (a bare trunc-inv's median cutoff)
    and to the truncated inverse moment (trunc-inv's calibration)."""
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(fading_module, "_gamma_quantile",
                        counting("_gamma_quantile", fading_module._gamma_quantile))
    monkeypatch.setattr(policy_module, "truncated_inverse_moment",
                        counting("truncated_inverse_moment",
                                 policy_module.truncated_inverse_moment))
    resolve_menu_entry.cache_clear()
    return calls


def diagnostics_repr(result):
    return repr((result.value, result.policy, result.diagnostics))


@pytest.mark.parametrize("spec_m, spec_e, p_bar", [
    ("chisq:4", "chisq:4", 100.0),
    ("exp:1", "exp:1", 100.0),
    ("gamma:3:0.01", "exp:2", 1e4),
    ("gamma:0.5:2", "gamma:0.8:0.1", 1e4),
    ("chisq:4", "const:2", 0.0),
    ("const:2", "chisq:4", 100.0),
])
def test_default_menus_do_no_trunc_inv_work(law_only_calls, spec_m, spec_e, p_bar):
    """The four bounds on their default menus resolve no median cutoff and
    compute no truncated moment."""
    dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
    for bound in FOUR_BOUNDS:
        bound(dm, de, p_bar)
    assert law_only_calls == {}


def test_ties_are_named():
    """On a point-mass main gain against a continuous one, a menu with a
    bare trunc-inv (median cutoff: the atom) scores const and names
    main-inv and trunc-inv as its ties."""
    dm, de = parse_distribution("const:2"), parse_distribution("chisq:4")
    res = lower_full(dm, de, 0.0, family_menu=FULL_WITH_TRUNC_INV)
    assert res.policy.family == "const"
    assert res.diagnostics["tied_with"] == ["main-inv", "trunc-inv"]
    want = eager_lower_full(dm, de, 0.0, FULL_WITH_TRUNC_INV)
    assert diagnostics_repr(res) == diagnostics_repr(want)


def test_underflowing_median_cutoff_is_infeasible():
    """A bare trunc-inv whose median cutoff underflows to 0 has no positive
    cutoff: it is listed as infeasible, naming the median, and the rest of
    its menu is still scored; the default menus resolve no median."""
    dm, de = parse_distribution("gamma:0.05:5e-324"), parse_distribution("chisq:4")
    assert dm.quantile(0.5) == 0.0
    for bound in FOUR_BOUNDS:
        res = bound(dm, de, 10.0, family_menu=WITH_TRUNC_INV[bound])
        assert not res.fallback and res.policy.family != "trunc-inv"
        assert res.diagnostics["infeasible"]["trunc-inv"] == (
            "trunc-inv: the median cutoff of gamma:0.05:4.94066e-324 underflows to 0")
        assert not bound(dm, de, 10.0).fallback


def without_trunc_inv(diag):
    """``diag`` with the bare trunc-inv entry taken out of ``tied_with``
    and ``infeasible``, and either dropped when that leaves it empty (an
    empty ``infeasible`` is kept beside a fallback ``warning``)."""
    diag = dict(diag)
    if "tied_with" in diag:
        diag["tied_with"] = [e for e in diag["tied_with"] if e != "trunc-inv"]
        if not diag["tied_with"]:
            del diag["tied_with"]
    if "infeasible" in diag:
        diag["infeasible"] = {e: r for e, r in diag["infeasible"].items() if e != "trunc-inv"}
        if not diag["infeasible"] and "warning" not in diag:
            del diag["infeasible"]
    return diag


def menu_outcome(bound, dm, de, p_bar, menu, read=lambda diag: diag):
    """The repr of a bound's value, policy and fallback flag, and of
    ``read(diagnostics)``; or the error the bound raises."""
    try:
        res = bound(dm, de, p_bar, family_menu=menu)
        return repr((res.value, res.policy, res.fallback)), repr(read(res.diagnostics))
    except ValueError as err:
        return type(err), str(err)


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


def test_default_menu_matches_the_menu_with_trunc_inv():
    """Random law pairs (point masses and subnormal scales among them) x
    budgets (0, -30 to 60 dB, and 3 050 dB, where powers overflow): each
    bound on its default menu gives the value, policy and fallback flag,
    by repr, or the error, of its menu with a bare trunc-inv at the end,
    and the same diagnostics but for trunc-inv's names in ``tied_with``
    and ``infeasible``, also where the median underflows to 0 and trunc-inv
    is infeasible.  No case raises: the inversion families read the gain
    ratio and form no power, so none overflows (when they formed it,
    3 050 dB raised in 20 or more cases)."""
    rng = np.random.default_rng(26)
    kinds = Counter()
    for _ in range(150):
        dm, de = (extreme_law(rng) if rng.random() < 0.3 else random_law(rng)
                  for _ in range(2))
        for p_bar in (0.0, float(10.0 ** rng.uniform(-3.0, 6.0)), 1e305):
            for bound in FOUR_BOUNDS:
                old = menu_outcome(bound, dm, de, p_bar, WITH_TRUNC_INV[bound],
                                   without_trunc_inv)
                new = menu_outcome(bound, dm, de, p_bar, None)
                assert new == old, (bound.__name__, dm, de, p_bar)
                kinds["median underflows"] += dm.quantile(0.5) == 0.0
                kinds["error" if isinstance(new[0], type) else "result"] += 1
    assert kinds["result"] >= 1000 and kinds["error"] == 0
    assert kinds["median underflows"] >= 4


def random_menu(rng, dm):
    """A menu mixing bare and explicit trunc-inv (a cutoff inside the
    support, one above it that never transmits), full-inv (skipped under
    main CSI), duplicates, and now and then a malformed entry at the end;
    None (the default menu) at times."""
    if rng.random() < 0.15:
        return None
    if dm.is_degenerate:
        inside, above = dm.params[0] * 0.5, dm.params[0] * 2.0
    else:
        inside, above = dm.quantile(float(rng.uniform(0.05, 0.95))), 1e300
    pool = ["const", "full-inv", "main-inv", "trunc-inv", " Trunc-Inv ",
            f"trunc-inv:{inside!r}", f"trunc-inv:{above!r}"]
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
        menu = random_menu(rng, dm)
        for p_bar in (0.0, float(10.0 ** rng.uniform(-3.0, 20.0)), 1e305):
            for bound in FOUR_BOUNDS:
                got = bound_outcome(bound, dm, de, p_bar, family_menu=menu)
                want = eager_outcome(lambda: eager_bound(bound, dm, de, p_bar, menu))
                assert got == want, (bound.__name__, dm, de, p_bar, menu)
                kinds["error" if isinstance(got[0], type) else "result"] += 1
            got = bound_outcome(lower_full, dm, de, p_bar, family_menu=menu, q_kappa=0.7)
            assert got == eager_outcome(lambda: eager_lower_full(dm, de, p_bar, menu, 0.7))
    assert kinds["result"] >= 1000 and kinds["error"] >= 50
