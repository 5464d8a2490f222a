"""The menu pass's deferral: an entry that the laws alone make worth 0 is
neither resolved, calibrated nor scored once an entry is kept, and the
first read of diagnostics visits it, so every outcome equals the eager pass."""

from collections import Counter

import numpy as np
import pytest

import dlsec.fading as fading_module
import dlsec.policy as policy_module
from dlsec.bounds import (lower_full, lower_main, resolve_menu_entry, upper_full, upper_main,
                          usable)
from dlsec.fading import parse_distribution

from eager_reference import eager_bound, eager_lower_full, eager_usable, usable_outcome
from random_laws import random_law

FOUR_BOUNDS = [upper_full, lower_full, upper_main, lower_main]


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


class TestDeferredEntries:
    @pytest.mark.parametrize("spec_m, spec_e, p_bar, menu, deferred_infeasible", [
        ("chisq:4", "chisq:4", 100.0, None, False),
        ("exp:1", "exp:1", 100.0, None, False),
        ("gamma:3:0.01", "exp:2", 1e4, None, False),
        ("gamma:0.5:2", "gamma:0.8:0.1", 1e4, None, False),
        ("chisq:4", "const:2", 0.0, None, False),
        ("exp:1", "exp:1", 100.0, ["const", "full-inv", "trunc-inv:1e300", "main-inv"], True),
        ("chisq:4", "chisq:4", 10.0, ["main-inv", "trunc-inv:1e300", "trunc-inv"], True),
    ])
    def test_value_reads_skip_law_only_work(self, law_only_calls, spec_m, spec_e, p_bar,
                                            menu, deferred_infeasible):
        """Value-only reads of the four bounds on a continuous main law (as
        `dlsec sweep` and the benchmark make) resolve no median cutoff and
        calibrate no trunc-inv entry behind a kept one; the first read of
        diagnostics visits them, and reports what the eager pass reports,
        ``infeasible`` in menu order included."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        results = [bound(dm, de, p_bar, family_menu=menu) for bound in FOUR_BOUNDS]
        assert [res.value for res in results] == [
            eager_bound(bound, dm, de, p_bar, menu).value for bound in FOUR_BOUNDS]
        resolve_menu_entry.cache_clear()
        law_only_calls.clear()
        for bound in FOUR_BOUNDS:
            bound(dm, de, p_bar, family_menu=menu).value
        assert law_only_calls == {}
        for bound, res in zip(FOUR_BOUNDS, results):
            want = eager_bound(bound, dm, de, p_bar, menu)
            assert diagnostics_repr(res) == diagnostics_repr(want)
        assert law_only_calls["truncated_inverse_moment"] > 0
        infeasible = results[0].diagnostics.get("infeasible", {})
        assert ("trunc-inv:1e300" in infeasible) == deferred_infeasible

    def test_deferred_ties_are_named(self, law_only_calls):
        """On a point-mass main gain against a continuous one, lower_full
        defers main-inv and trunc-inv (cap 0) behind const; at zero power
        const is reported and its diagnostics still name both as ties."""
        dm, de = parse_distribution("const:2"), parse_distribution("chisq:4")
        res = lower_full(dm, de, 0.0)
        assert law_only_calls == {}
        assert res.policy.family == "const"
        assert res.diagnostics["tied_with"] == ["main-inv", "trunc-inv"]
        assert diagnostics_repr(res) == diagnostics_repr(eager_lower_full(dm, de, 0.0))

    def test_underflowing_median_cutoff_still_raises(self):
        """A bare trunc-inv whose median cutoff underflows to 0 is rejected
        by calibration when the menu is read, as before, not deferred."""
        dm, de = parse_distribution("gamma:0.05:5e-324"), parse_distribution("chisq:4")
        for bound in FOUR_BOUNDS:
            with pytest.raises(ValueError, match="positive cutoff"):
                bound(dm, de, 10.0)


def random_menu(rng, dm):
    """A menu mixing bare and explicit trunc-inv (a cutoff inside the
    support, one above it that never transmits), full-inv (skipped under
    main CSI), duplicates, and now and then a malformed entry at the end,
    behind whatever entry was kept; None (the default menu) at times."""
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


def lazy_outcome(bound, *args, **kwargs):
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


def test_deferral_equals_the_eager_pass():
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
                got = lazy_outcome(bound, dm, de, p_bar, family_menu=menu)
                want = eager_outcome(lambda: eager_bound(bound, dm, de, p_bar, menu))
                assert got == want, (bound.__name__, dm, de, p_bar, menu)
                kinds["error" if isinstance(got[0], type) else "result"] += 1
            got = lazy_outcome(lower_full, dm, de, p_bar, family_menu=menu, q_kappa=0.7)
            assert got == eager_outcome(lambda: eager_lower_full(dm, de, p_bar, menu, 0.7))
    assert kinds["result"] >= 1000 and kinds["error"] >= 50
