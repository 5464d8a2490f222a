"""Protocol ledger tests: pad spending, pad pool, the three schemes."""

import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest
from scipy import stats

from dlsec.bounds import lower_full, lower_main
from dlsec.fading import FadingDistribution, parse_distribution
from dlsec.numerics import RngSeed
from dlsec.policy import CsiError
from dlsec.protocol import LN2, MAX_BLOCKS, SimConfig, _bits, _spent_after_release, simulate

CHISQ4 = parse_distribution("chisq:4")


def make_config(**kw):
    base = dict(scheme="full", dist_m=CHISQ4, dist_e=CHISQ4, p_bar=100.0,
                a=100, b=10, n1=1000, delta=0.05, seed=RngSeed(0))
    base.update(kw)
    return SimConfig(**base)


class TestSpentAfterRelease:
    """The key-offset check on hand-built ledgers of two super-blocks of
    three blocks, whose first blocks generate 4 key bits each.  Released
    before each block: 0, 4, 4, 4, 8, 8 at block end (every = 1) and
    0, 0, 0, 4, 4, 4 at super-block end (every = 3)."""

    GEN = np.array([4, 0, 0, 4, 0, 0])

    @pytest.mark.parametrize("every", [1, 3])
    def test_untampered_ledger_passes(self, every):
        assert _spent_after_release(np.array([0, 0, 0, 4, 0, 0]), self.GEN, every)

    @pytest.mark.parametrize("every", [1, 3])
    def test_reused_pad_fails(self, every):
        """Three spends of 4 bits where at most 8 were ever released: some
        offset below 8 is spent twice."""
        consumed = np.array([0, 0, 0, 4, 4, 4])
        assert not _spent_after_release(consumed, self.GEN, every)

    @pytest.mark.parametrize("every,early,on_time", [
        (1, [0, 0, 0, 8, 0, 0], [0, 0, 0, 0, 8, 0]),
        (3, [0, 0, 4, 0, 0, 0], [0, 0, 0, 4, 0, 0]),
    ])
    def test_spend_a_block_before_release_fails(self, every, early, on_time):
        """The same spend passes one block later, once its bits are released."""
        assert _spent_after_release(np.array(on_time), self.GEN, every)
        assert not _spent_after_release(np.array(early), self.GEN, every)

    def test_never_released_allows_no_spending(self):
        assert _spent_after_release(np.zeros(6, dtype=np.int64), self.GEN, 0)
        assert not _spent_after_release(np.array([0, 0, 0, 4, 0, 0]), self.GEN, 0)

    def test_negative_consumption_fails(self):
        """Un-spending bits would let a later block spend their offsets again."""
        consumed = np.array([0, 0, 0, 4, -4, 4])
        assert not _spent_after_release(consumed, self.GEN, 1)


class TestSimulatedLedgerCheck:
    """The key-offset check on the ledgers ``simulate`` publishes, run on
    tight configs where the pool starts empty and main's bits wait a
    whole super-block."""

    EVERY = {"full": 1, "main": 5, "baseline": 0}

    def columns(self, scheme, init="insecure"):
        rep = simulate(make_config(scheme=scheme, init=init, a=5, b=60))
        rec = rep.records
        return (rep, np.array(rec.key_consumed, dtype=np.int64),
                np.array(rec.key_generated, dtype=np.int64))

    @pytest.mark.parametrize("init", ["insecure", "dedicated"])
    @pytest.mark.parametrize("scheme", ["full", "main", "baseline"])
    def test_roundtrip_ok_is_the_check_on_the_published_columns(self, scheme, init):
        rep, consumed, generated = self.columns(scheme, init)
        assert rep.roundtrip_ok
        assert _spent_after_release(consumed, generated, self.EVERY[scheme])

    @pytest.mark.parametrize("scheme", ["full", "main"])
    def test_spend_moved_before_any_release_fails(self, scheme):
        """The first real spend, moved to block 0, spends bits not yet
        released by any block."""
        _, consumed, generated = self.columns(scheme)
        first = int(np.flatnonzero(consumed)[0])
        consumed[0], consumed[first] = consumed[first], 0
        assert not _spent_after_release(consumed, generated, self.EVERY[scheme])

    @pytest.mark.parametrize("scheme", ["full", "main"])
    def test_overdrawn_last_block_fails(self, scheme):
        """A last block spending one bit more than the pool holds must reuse
        an offset already spent."""
        rep, consumed, generated = self.columns(scheme)
        consumed[-1] += rep.buffer_trajectory[-1] + 1
        assert not _spent_after_release(consumed, generated, self.EVERY[scheme])


class TestPadPool:
    """The pool is never overdrawn, and key bits are spent only once they
    are spendable; checked on the ledger of starving and stable runs."""

    CASES = [(scheme, delta) for scheme in ("full", "main") for delta in (0.0, 0.05)]

    def run(self, scheme, delta):
        return simulate(make_config(scheme=scheme, delta=delta, a=5, b=60))

    @pytest.mark.parametrize("scheme,delta", CASES)
    def test_no_overdraw(self, scheme, delta):
        rep = self.run(scheme, delta)
        if delta == 0.0:
            assert rep.starvation_events > 0
        sched = rep.schedule["otp_bits_per_block"]
        traj = rep.buffer_trajectory
        a = rep.config.a
        for i, r in enumerate(rep.records):
            if i >= a and r.key_consumed:
                assert r.key_consumed == sched
                assert traj[i - 1] >= sched
        assert min(traj) >= 0

    @pytest.mark.parametrize("scheme,delta", CASES)
    def test_nothing_spent_before_the_first_boundary(self, scheme, delta):
        rep = self.run(scheme, delta)
        a = rep.config.a
        assert all(r.key_consumed == 0 for r in rep.records[:a])
        if scheme == "main":
            # main's key bits wait for the super-block end: the pool is
            # empty until the first boundary and only drains within one
            assert rep.buffer_trajectory[:a - 1] == [0] * (a - 1)
            for m in range(rep.config.b):
                sb = rep.buffer_trajectory[m * a:(m + 1) * a - 1]
                assert all(x >= y for x, y in zip(sb, sb[1:]))

    @pytest.mark.parametrize("scheme,delta", CASES)
    def test_consumed_never_exceeds_generated(self, scheme, delta):
        rep = self.run(scheme, delta)
        gen = np.cumsum(rep.records.key_generated)
        cons = np.cumsum(rep.records.key_consumed)
        assert np.all(cons <= gen)
        assert rep.totals["key_consumed"] <= rep.totals["key_generated"]
        assert rep.buffer_trajectory[-1] == (rep.totals["key_generated"]
                                             - rep.totals["key_consumed"])
        assert rep.roundtrip_ok


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            make_config(b=0)
        with pytest.raises(ValueError):
            make_config(delta=1.0)
        with pytest.raises(ValueError):
            make_config(scheme="quantum")
        with pytest.raises(ValueError):
            make_config(init="retry")

    @pytest.mark.parametrize("kappa", [-1.0, math.nan])
    def test_q_kappa_must_be_non_negative(self, kappa):
        with pytest.raises(ValueError, match="q_kappa must be >= 0"):
            make_config(q_kappa=kappa)

    @pytest.mark.parametrize("nodes", [7, 2001])
    def test_nodes_checked_for_every_scheme(self, nodes):
        """The quadrature size is refused up front, also for the baseline,
        which builds no quadrature rule."""
        for scheme in ("full", "main", "baseline"):
            with pytest.raises(ValueError, match=r"nodes must be in \[8, 2000\]"):
                make_config(scheme=scheme, nodes=nodes)

    def test_block_counts_must_fit_int64(self):
        with pytest.raises(ValueError, match="n1 must be"):
            make_config(n1=10**20)
        make_config(n1=2**63 - 1)

    def test_block_count_capped(self):
        """a * b above MAX_BLOCKS is rejected before anything is allocated
        (a = b = 100 000 used to end in numpy's allocation error)."""
        with pytest.raises(ValueError, match="blocks exceeds"):
            make_config(a=100_000, b=100_000)
        with pytest.raises(ValueError, match="blocks exceeds"):
            make_config(a=MAX_BLOCKS + 1, b=1)
        assert make_config(a=MAX_BLOCKS // 20, b=20).a * 20 == MAX_BLOCKS

    def test_symbol_count(self):
        assert make_config(a=3, b=4, n1=5).n == 60

    def test_scheme_policy_defaults(self):
        assert make_config(scheme="full").policy_spec() == "full-inv"
        assert make_config(scheme="main").policy_spec() == "main-inv"
        assert make_config(scheme="baseline").policy_spec() == "const"


class TestBitLoads:
    def test_rounds_half_to_even(self):
        got = _bits(np.array([0.5, 1.5, 2.5, -1.0]) * LN2, 1)
        np.testing.assert_array_equal(got, [0, 2, 2, 0])
        assert got.dtype == np.int64

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_non_finite_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="not finite"):
            _bits(np.array([1.0, rate]), 1000)

    def test_load_of_2_to_63_bits_rejected(self):
        """A load that int64 cannot hold used to wrap to a negative count."""
        with pytest.raises(ValueError, match="2\\*\\*63"):
            _bits(np.array([1.0]), 10**20)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            _bits(np.array([LN2]), 2**63)
        assert int(_bits(np.array([LN2]), 2**62)[0]) == 2**62

    def test_simulate_rejects_totals_past_int64(self):
        """Each block's load fits int64, but their sum does not: the
        totals used to wrap to negative key_generated and data_delivered."""
        config = make_config(a=2, b=2, n1=2**62)
        with pytest.raises(ValueError, match="add up to 2\\*\\*63"):
            simulate(config)
        assert simulate(make_config(a=2, b=2, n1=2**40)).totals["key_generated"] > 0


class TestFullScheme:
    def test_single_superblock_is_all_insecure(self):
        rep = simulate(make_config(b=1, a=50))
        assert rep.otp_insecure_fraction == 1.0

    def test_stable_run(self):
        """At delta = 0.05 the pad pool never starves and the insecure
        share is exactly the super-block-1 share 1/b."""
        rep = simulate(make_config(a=200, b=10))
        assert rep.starvation_events == 0
        assert rep.roundtrip_ok
        assert rep.otp_insecure_fraction == 1.0 / 10.0
        # every block from super-block 2 on delivers pad-covered bits
        sched = rep.schedule["otp_bits_per_block"]
        assert sched > 0
        for r in rep.records:
            if r.m >= 2:
                assert r.key_consumed == sched
                assert r.insecure_bits == 0

    def test_ledger_identities(self):
        rep = simulate(make_config(a=50, b=4))
        delivered = sum(r.data_delivered for r in rep.records)
        insecure = sum(r.insecure_bits for r in rep.records)
        assert rep.insecure_fraction == insecure / delivered
        for r in rep.records:
            assert r.insecure_bits <= r.data_delivered
        assert all(v >= 0 for v in rep.buffer_trajectory)

    def test_block_bit_loads_match_rates(self):
        """data_delivered = round(n1 * rate) at the ledger's bit scale."""
        rep = simulate(make_config(a=20, b=3))
        sched = rep.schedule["otp_bits_per_block"]
        for r in rep.records:
            direct = int(round(rep.config.n1 * r.r_s_dprime / LN2))
            lane = sched if (r.m == 1 or r.key_consumed) else 0
            assert r.data_delivered == direct + lane
            assert r.key_generated == int(round(rep.config.n1 * r.r_s_prime / LN2))

    def test_dedicated_init_sends_no_data(self):
        rep = simulate(make_config(a=100, b=5, init="dedicated"))
        first = [r for r in rep.records if r.m == 1]
        assert all(r.data_delivered == 0 and r.insecure_bits == 0 for r in first)
        assert rep.otp_insecure_fraction == 0.0
        assert rep.starvation_events == 0

    def test_starved_blocks_skip_the_pad_lane(self):
        """delta = 0 at a = 2 starves often; starved blocks consume nothing
        and deliver only the direct lane (zero at q = h_e)."""
        rep = simulate(make_config(a=2, b=100, delta=0.0, seed=RngSeed(3)))
        assert rep.starvation_events > 0
        sched = rep.schedule["otp_bits_per_block"]
        starved = [r for r in rep.records
                   if r.m >= 2 and r.key_consumed == 0 and sched > 0]
        assert len(starved) == rep.starvation_events
        assert all(r.data_delivered == 0 for r in starved)

    def test_starved_block_fraction_improves_with_superblock_length(self):
        """Longer super-blocks average the key rate better: the starved
        fraction of consuming blocks is non-increasing in a."""
        fractions = []
        for a in (10, 50, 250, 1250):
            events = blocks = 0
            for s in range(3):
                rep = simulate(make_config(a=a, b=10, n1=200, seed=RngSeed(s)))
                events += rep.starvation_events
                blocks += a * 9
            fractions.append(events / blocks)
        assert all(f1 >= f2 - 1e-12 for f1, f2 in zip(fractions, fractions[1:]))
        assert fractions[-1] == 0.0


class TestMainScheme:
    def test_keys_decode_at_superblock_end(self):
        rep = simulate(make_config(scheme="main", a=50, b=4))
        # within super-block 1 nothing is consumable; the pool first fills
        # at the boundary
        assert all(v == 0 for v in rep.buffer_trajectory[:49])
        assert rep.buffer_trajectory[49] > 0

    def test_single_lane_accounting(self):
        rep = simulate(make_config(scheme="main", a=100, b=10))
        assert rep.outage_fraction == 0.0
        assert rep.roundtrip_ok
        assert rep.insecure_fraction == rep.otp_insecure_fraction
        sched = rep.schedule["otp_bits_per_block"]
        for r in rep.records:
            assert r.data_delivered in (0, sched)

    def test_generation_rate_leaves_room_for_fixed_point(self):
        rep = simulate(make_config(scheme="main", a=50, b=4))
        r_star = rep.schedule["fixed_point_rate"]
        for r in rep.records:
            want = int(round(rep.config.n1
                             * max(r.r_main - r_star - r.r_eve, 0.0) / LN2))
            assert r.key_generated == want


def assert_delivery_rule(rep, bound):
    """The stated delivery rule (see :mod:`dlsec.protocol`), block by block:
    from super-block 2 on, a ``full`` block delivers _bits(r_s'') on its
    direct lane plus _bits((1 - delta) r_o) on its pad lane, and a ``main``
    block its pad lane alone, _bits((1 - delta) R*); a starved block skips
    its pad lane.  Returns the pad lane's load."""
    cfg = rep.config
    full = cfg.scheme == "full"
    pad_rate = (1.0 - cfg.delta) * (bound.diagnostics["r_o_chosen"] if full else bound.value)
    pad = int(_bits(pad_rate, cfg.n1))
    later = rep.records[rep.records.m >= 2]
    direct = _bits(later.r_s_dprime, cfg.n1) if full else 0
    served = later.key_consumed == pad
    assert rep.schedule["otp_bits_per_block"] == pad
    assert np.count_nonzero(~served) == rep.starvation_events
    assert np.all(later.data_delivered == direct + np.where(served, pad, 0))
    assert np.all(later.insecure_bits == 0)
    return pad


class TestScheduleFromBound:
    """full and main run the scheme of the lower bound on their policy, and
    every case delivers by the one rule of :func:`assert_delivery_rule`:
    delta backs off the pad lane alone."""

    def test_point_mass_full_delivers_lower_full(self):
        """const:1000 / const:0.01 at p_bar = 1: lower_full takes kappa =
        v_m, all of r_s direct, so every block delivers the bound's 9 953
        bits (the pad at kappa = 0 would carry 14)."""
        config = make_config(dist_m=parse_distribution("const:1000"),
                             dist_e=parse_distribution("const:0.01"), p_bar=1.0,
                             policy="const", a=20, b=5, n1=1000, seed=RngSeed(0))
        bound = lower_full(config.dist_m, config.dist_e, config.p_bar, family_menu=["const"])
        rep = simulate(config)
        assert assert_delivery_rule(rep, bound) == 0
        want = int(_bits(bound.value, config.n1))
        assert want == 9953
        assert np.all(rep.records.data_delivered[rep.records.m >= 2] == want)
        assert rep.config.q_kappa == bound.diagnostics["q_kappa"] == 1000.0
        assert rep.insecure_fraction == 0.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_point_mass_full_at_the_cli_defaults(self, seed):
        """const:1000 / const:0.01 at the CLI defaults (20 dB, full-inv,
        delta = 0.05): lower_full takes kappa = v_m, so r_o = 0 and the
        whole bound rides the direct lane, which delta does not back off.
        Every later block delivers 156 097 bits, the whole bound, not the
        148 292 of (1 - delta) lower_full."""
        dm, de = parse_distribution("const:1000"), parse_distribution("const:0.01")
        config = SimConfig(scheme="full", dist_m=dm, dist_e=de, p_bar=100.0,
                           seed=RngSeed(seed))
        bound = lower_full(dm, de, 100.0, [config.policy_spec()])
        rep = simulate(config)
        assert assert_delivery_rule(rep, bound) == 0
        assert np.all(rep.records.data_delivered[rep.records.m >= 2] == 156_097)
        assert int(_bits(bound.value, config.n1)) == 156_097
        assert int(_bits((1.0 - config.delta) * bound.value, config.n1)) == 148_292

    @pytest.mark.parametrize("spec_m, spec_e", [("chisq:4", "chisq:4"),
                                                ("gamma:3:2", "gamma:2:1")])
    @pytest.mark.parametrize("scheme, seed", [("full", 1), ("full", 2), ("full", 3),
                                              ("main", 1), ("main", 3)])
    def test_continuous_pair_delivers_its_bound(self, spec_m, spec_e, scheme, seed):
        """At the CLI defaults (20 dB, a = 500, b = 20, n1 = 10 000,
        delta = 0.05), the blocks of super-blocks 2 on of a starvation-free
        run carry, on average, exactly the bits of (1 - delta) times the
        scheme's lower bound, within half a bit of its unrounded load
        (chisq:4 full: 6 047 against 6 047.37; main: 4 152 against 4 151.50):
        at kappa = 0, r_s'' is 0, so the pad lane carries everything.
        The seeds are pinned starvation-free: main at seed 2 starves."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        config = SimConfig(scheme=scheme, dist_m=dm, dist_e=de, p_bar=100.0,
                           seed=RngSeed(seed))
        bound = (lower_full if scheme == "full" else lower_main)(dm, de, 100.0,
                                                                [config.policy_spec()])
        rep = simulate(config)
        assert_delivery_rule(rep, bound)
        assert rep.starvation_events == 0
        later = rep.records[rep.records.m >= 2]
        secure = float(np.mean(later.data_delivered - later.insecure_bits))
        rate = (1.0 - config.delta) * bound.value
        assert secure == int(_bits(rate, config.n1))
        assert abs(secure - rate * config.n1 / LN2) <= 0.5

    @pytest.mark.parametrize("spec_m, spec_e, seed, want", [
        ("const:3", "const:1", 1, 7483), ("const:3", "const:1", 2, 7483),
        ("const:1000", "const:0.01", 1, 74146)])
    def test_point_mass_main_delivers_lower_main(self, spec_m, spec_e, seed, want):
        """On a point-mass pair at the CLI defaults, every state gives the
        same key rate, so the main scheme never starves, and the blocks of
        super-blocks 2 on carry, on average, the bits of (1 - delta) times
        lower_main (unrounded: 7 483.19 and 74 145.86)."""
        dm, de = parse_distribution(spec_m), parse_distribution(spec_e)
        config = SimConfig(scheme="main", dist_m=dm, dist_e=de, p_bar=100.0,
                           seed=RngSeed(seed))
        bound = lower_main(dm, de, 100.0, [config.policy_spec()])
        rep = simulate(config)
        assert assert_delivery_rule(rep, bound) == want
        assert rep.starvation_events == 0
        later = rep.records[rep.records.m >= 2]
        secure = float(np.mean(later.data_delivered - later.insecure_bits))
        assert secure == int(_bits((1.0 - config.delta) * bound.value, config.n1)) == want

    @pytest.mark.parametrize("scheme", ["full", "main", "baseline"])
    def test_unset_kappa_reports_the_kappa_used(self, scheme):
        config = make_config(scheme=scheme, a=5, b=2)
        assert config.q_kappa is None
        rep = simulate(config)
        assert rep.config.q_kappa == 0.0
        assert json.loads(rep.to_json())["config"]["q_kappa"] == 0.0

    @pytest.mark.parametrize("policy", ["full-inv", "main-inv"])
    def test_positive_kappa_sums_the_key_share_once(self, policy, monkeypatch):
        """At kappa > 0, E[r_s'] runs the per-state path over the pair list.
        full-inv's entry reports it, and the schedule reads it off the
        bound; main-inv's common-rate cap is 0, so lower_full does not
        evaluate it, and the schedule does, once."""
        import dlsec.bounds as bounds_module
        import dlsec.protocol as protocol_module
        from dlsec.rates import expected_key_share
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].family)
            return expected_key_share(*args, **kwargs)

        monkeypatch.setattr(bounds_module, "expected_key_share", counted)
        monkeypatch.setattr(protocol_module, "expected_key_share", counted)
        rep = simulate(make_config(q_kappa=0.7, policy=policy, a=5, b=2))
        assert calls == [policy]
        bound = lower_full(CHISQ4, CHISQ4, 100.0, [policy], q_kappa=0.7)
        share = rep.to_json_dict()["schedule"]["key_share_expected"]
        assert share == bound.diagnostics.get("r_s_prime_expected", share) > 0.0
        assert_delivery_rule(rep, bound)

    def test_main_rejects_a_full_csi_policy(self):
        with pytest.raises(CsiError, match="'full-inv' needs full CSI"):
            simulate(make_config(scheme="main", policy="full-inv", a=5, b=2))


class TestBaselineScheme:
    def test_outage_fraction_near_half(self):
        """iid gains: P(h_e >= h_m) = 1/2; 3 binomial stderr at 1e4 blocks."""
        rep = simulate(make_config(scheme="baseline", a=100, b=100))
        stderr = math.sqrt(0.25 / 10_000)
        assert abs(rep.outage_fraction - 0.5) <= 3.0 * stderr

    def test_outage_fraction_on_unequal_gamma_pairs(self):
        """P(h_e >= h_m) = P(1 - U >= u*) for U ~ Beta(k_m, k_e) and
        u* = theta_m / (theta_m + theta_e) (Lukacs coordinates), on 30
        seeded pairs that are not iid; 4 binomial stderr at 2e4 blocks."""
        rng = np.random.default_rng(33)
        for i in range(30):
            (k_m, k_e), (t_m, t_e) = rng.uniform(0.3, 8.0, 2), 10.0 ** rng.uniform(-1.0, 1.0, 2)
            rep = simulate(make_config(scheme="baseline", a=200, b=100, seed=RngSeed(i),
                                       dist_m=FadingDistribution("gamma", (k_m, t_m)),
                                       dist_e=FadingDistribution("gamma", (k_e, t_e))))
            p = stats.beta.sf(t_m / (t_m + t_e), k_e, k_m)
            stderr = math.sqrt(p * (1.0 - p) / 20_000)
            assert abs(rep.outage_fraction - p) <= 4.0 * stderr, (k_m, t_m, k_e, t_e)

    def test_outage_blocks_deliver_nothing(self):
        rep = simulate(make_config(scheme="baseline", a=100, b=10))
        for r in rep.records:
            if r.outage:
                assert r.data_delivered == 0
        # the delay-limited guaranteed rate collapses to zero
        assert min(r.data_delivered for r in rep.records) == 0
        assert rep.insecure_fraction == 0.0


class TestBalanceCheck:
    def test_wide_backoff_balances(self):
        """At delta = 0.5 consumption sits far below mean generation, so
        no block starves and every pad bit is spent after its release."""
        rep = simulate(make_config(a=200, b=10, delta=0.5))
        assert rep.roundtrip_ok is True
        assert rep.starvation_events == 0

    def test_unspent_key_carries_over(self):
        """The release rule carries unspent key bits over: a super-block may
        spend more than its predecessor generated, with none of its blocks
        starving and every pad bit spent once, after its release."""
        rep = simulate(make_config(a=50, b=6))
        gen = rep.records.key_generated.reshape(6, 50).sum(axis=1)
        cons = rep.records.key_consumed.reshape(6, 50).sum(axis=1)
        assert np.any(cons[1:] > gen[:-1])
        assert rep.starvation_events == 0
        assert rep.roundtrip_ok is True

    def test_empty_run_rejected_upstream(self):
        with pytest.raises(ValueError):
            make_config(b=0)


class TestDeterminismAndSerialization:
    def test_identical_configs_identical_reports(self):
        a = simulate(make_config(a=30, b=3, seed=RngSeed(7)))
        b = simulate(make_config(a=30, b=3, seed=RngSeed(7)))
        assert a.to_json() == b.to_json()
        assert a.csv_text() == b.csv_text()
        c = simulate(make_config(a=30, b=3, seed=RngSeed(8)))
        assert a.to_json() != c.to_json()

    def test_csv_round_trips_losslessly(self):
        rep = simulate(make_config(a=20, b=2))
        reader = csv.DictReader(io.StringIO(rep.csv_text()))
        rows = list(reader)
        assert len(rows) == len(rep.records)
        for row, rec in zip(rows, rep.records):
            assert int(row["m"]) == rec.m
            assert float(row["h_m"]) == rec.h_m  # repr round-trip is exact
            assert float(row["r_s_prime"]) == rec.r_s_prime
            assert int(row["key_consumed"]) == rec.key_consumed
            assert int(row["outage"]) == int(rec.outage)

    def test_records_are_read_only(self):
        """The JSON and CSV text is cached per report; the ledger under it
        cannot change, nor be swapped for another."""
        rep = simulate(make_config(a=10, b=2))
        with pytest.raises(ValueError, match="read-only"):
            rep.records.key_consumed[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            rep.records["h_m"][:] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.records = rep.records.copy()

    def test_json_document_shape(self):
        rep = simulate(make_config(a=10, b=2))
        doc = rep.to_json_dict()
        assert doc["config"]["dist_m"] == "chisq:4"
        assert len(doc["buffer_trajectory"]) == 20
        assert len(doc["records"]["m"]) == 20
        assert set(doc["records"]) >= {"m", "l", "h_m", "h_e", "power",
                                       "key_consumed", "outage"}


# Configs for the encoder-equivalence check: every scheme and init mode, the
# smallest shape, and a const-power run at p_bar = 1e308, where p h_e
# overflows and r_eve is log-split, with its r_eve then set to inf (JSON
# writes Infinity, the CSV repr writes inf).
ENCODER_CASES = {
    **{f"{scheme}-{init}": dict(scheme=scheme, init=init, a=20, b=3)
       for scheme in ("full", "main", "baseline")
       for init in ("insecure", "dedicated")},
    **{f"{scheme}-a1b1n1": dict(scheme=scheme, a=1, b=1, n1=1)
       for scheme in ("full", "main", "baseline")},
    **{f"{scheme}-inf-r_eve": dict(
        scheme=scheme, dist_m=parse_distribution("gamma:2:0.001"),
        dist_e=parse_distribution("const:1000"), p_bar=1e308, policy="const",
        a=3, b=2, n1=10) for scheme in ("baseline", "main")},
}


def with_infinite_r_eve(report):
    """The report with every r_eve set to inf.  Where p h_e overflows the
    rate is log-split, so no simulated ledger holds a non-finite value;
    this report checks how the encoders spell one."""
    records = report.records.copy()
    records.r_eve[:] = np.inf
    return dataclasses.replace(report, records=records)


def with_edge_values(report):
    """The report with values that a text pass keyed on value rather than
    bit pattern, or on one dtype, would spell wrong: -0.0 beside 0.0, NaN of
    either sign beside -inf, power 1.0 in every block (a float column whose
    values all repeat, and equal to the int 1 of m and l)."""
    records = report.records.copy()
    records.h_m[:4] = [-0.0, 0.0, -0.0, 0.0]
    records.h_e[:3] = [np.nan, -np.inf, np.copysign(np.nan, -1.0)]
    records.r_s[:2] = [0.0, -0.0]
    records.power[:] = 1.0
    return dataclasses.replace(report, records=records)


class TestEncoders:
    """`to_json` and `csv_text` write exactly what the reference encoders
    write: `json.dumps` of `to_json_dict`, and `repr` of each value."""

    @pytest.fixture(params=[*sorted(ENCODER_CASES), "edge-values"], scope="class")
    def report(self, request):
        if request.param == "edge-values":
            return with_edge_values(simulate(make_config(a=4, b=2)))
        report = simulate(make_config(**ENCODER_CASES[request.param]))
        if request.param.endswith("-inf-r_eve"):
            report = with_infinite_r_eve(report)
        return report

    def test_json_matches_reference_encoder(self, report):
        want = json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
        assert report.to_json() == want

    def test_csv_matches_reference_formula(self, report):
        names = list(report.records.dtype.names)
        cols = [map(repr, report.records[name].tolist()) for name in names]
        want = "\n".join([",".join(names), *map(",".join, zip(*cols))]) + "\n"
        assert report.csv_text() == want

    def test_either_writer_may_run_first(self, report):
        """Both writers read one cached pass; the order that fills it does
        not change a byte."""
        csv_first, json_first = dataclasses.replace(report), dataclasses.replace(report)
        csv_text = csv_first.csv_text()
        json_text = json_first.to_json()
        assert (csv_first.to_json(), json_first.csv_text()) == (json_text, csv_text)

    def test_edge_value_case_is_reached(self):
        rep = with_edge_values(simulate(make_config(a=4, b=2)))
        rows = rep.csv_text().splitlines()
        header = rows[0].split(",")
        h_m, h_e, power, m = (header.index(name) for name in ("h_m", "h_e", "power", "m"))
        assert [row.split(",")[h_m] for row in rows[1:5]] == ["-0.0", "0.0", "-0.0", "0.0"]
        assert [row.split(",")[h_e] for row in rows[1:4]] == ["nan", "-inf", "nan"]
        assert {row.split(",")[power] for row in rows[1:]} == {"1.0"}
        assert rows[1].split(",")[m] == "1"
        doc = rep.to_json()
        assert "-Infinity" in doc and "NaN" in doc and "-0.0" in doc

    def test_non_finite_case_is_reached(self):
        rep = with_infinite_r_eve(simulate(make_config(**ENCODER_CASES["main-inf-r_eve"])))
        assert np.isinf(rep.records.r_eve).all()
        assert "Infinity" in rep.to_json() and ",inf," in rep.csv_text()


# sha256 of to_json() + csv_text() at n1 = 1000, keyed by
# (scheme, init, delta, seed, a, b).  a = 2 starves full and main often;
# a = 50, b = 6 starves main.  Any change to the ledger's output shows here.
# The 16 main digests were re-pinned when the fixed point became an exact
# solve: only schedule.fixed_point_rate and schedule.data_rate moved.  The
# 16 full and 16 main digests were re-pinned when the gamma law moved to
# numpy/math and every weighted sum to a fixed order: full's schedule.r_o
# and schedule.key_share_expected and its float columns power, r_main,
# r_eve, r_s and r_s_prime moved in the last digits, main's two schedule
# fields likewise; no bit count moved.  The 16 full digests moved again
# when the calibration moments became closed forms: power by <= 3.8e-15
# relative, and r_main, r_eve, r_s, r_s_prime, schedule.r_o, r_o_cap and
# key_share_expected in the last digits; no bit count moved.  The 16 full
# digests moved again when the rate functionals came to be summed over the
# node pairs with h_m > h_e only: schedule.r_o and key_share_expected (which
# echo lower_full) by <= 1.6e-15 relative, and nothing else (see
# PRE_PAIR_LIST_SCHEDULES); the CSV kept every byte (CSV_DIGESTS).  The 16
# main digests moved again when the fixed point came to take its segment
# sums off the gaps it drops: schedule.fixed_point_rate and data_rate (which
# echo lower_main) by <= 3.9e-16 relative, and nothing else (see
# PRE_DROPPED_GAP_SCHEDULES).
LEDGER_DIGESTS = {
    ("full", "insecure", 0.0, 0, 2, 100):
        "3e473c30789580a4e9aff0375e864779829cac37a412df50c8dbde8da6197878",
    ("full", "insecure", 0.0, 0, 50, 6):
        "019b3ce7d5af5fe724b272d9f77472d43fcfdb69c4de28858c2770226fe2a9fa",
    ("full", "insecure", 0.0, 1, 2, 100):
        "2f259181d3d8f1e5acf12c6bdc03d7142c35235aeb0861c4b66f5974a3b3d8cf",
    ("full", "insecure", 0.0, 1, 50, 6):
        "e9309128a89c9ad5cf812bd96d173c42b35608c41b5d6d0316cf1f6f7e457ad8",
    ("full", "insecure", 0.05, 0, 2, 100):
        "df65ecc4f2ee20c82e041a17ac812f5218d875c76f42cb329c3890ce515298ba",
    ("full", "insecure", 0.05, 0, 50, 6):
        "c780035c697ce345de39033a713fc47b131dfb210aa2d6eb82c68e72a4e24f41",
    ("full", "insecure", 0.05, 1, 2, 100):
        "6a4d381a9af60391b4f12d7d96607eefc7dba9324403b586adb3c0ce36e9b4fb",
    ("full", "insecure", 0.05, 1, 50, 6):
        "ef71b73e79f86675a0f95824f963944843f5cd9f77fc85190774a659e5070b00",
    ("full", "dedicated", 0.0, 0, 2, 100):
        "de32729ba0e89b68b7c795a0f63e7656bd92680496779ba8ab25a14cfadf3176",
    ("full", "dedicated", 0.0, 0, 50, 6):
        "94d03eec6419a712474b4fea502da92cb0f454858e2d241bdae81027d01b0660",
    ("full", "dedicated", 0.0, 1, 2, 100):
        "d92a0ec4075b8b3c9ed4b9444dfbab44eb033214e3f25e350d15feb9df8f9770",
    ("full", "dedicated", 0.0, 1, 50, 6):
        "671dcbcd2b8502eec7d9d8fb047a87e26c2fd20c86ef256d0599334d622cb9ac",
    ("full", "dedicated", 0.05, 0, 2, 100):
        "d82f20885e48978af821c97a2264e5b9fcb88b3ac41192e1c7c06e00165aed42",
    ("full", "dedicated", 0.05, 0, 50, 6):
        "26b35276a2f927b5be395c8d0f877709be833c9272352a34356612808292acaa",
    ("full", "dedicated", 0.05, 1, 2, 100):
        "a2b905bdacf8b4ffde00d144a71cd024ea7947fcac08b91ef0808ec4b7e5d144",
    ("full", "dedicated", 0.05, 1, 50, 6):
        "363e29dd1c8e07ef95b5d79bcecec407189b3ec49904e9943ab0f4fe42d32a7d",
    ("main", "insecure", 0.0, 0, 2, 100):
        "dee931ce864966a7e51da937bab8d9ab867ae531721c9d27d24bbbdee2c6671c",
    ("main", "insecure", 0.0, 0, 50, 6):
        "05fe11906af5c722ce16280b59054c46de08728968cc77f319a6eb2ebaed1612",
    ("main", "insecure", 0.0, 1, 2, 100):
        "8b7540fb56c5289646322f39aaa472e985b8fe0b424a80f4fb6c4796726e65d3",
    ("main", "insecure", 0.0, 1, 50, 6):
        "8b8b9a381bc59f494aeee2656ba9ccbb7651b1dd460855e1baa9dc330db78323",
    ("main", "insecure", 0.05, 0, 2, 100):
        "b0f28ef0fde77091be846aecd480e90eb5ef2c19a77baef7c56b4ec8021e9def",
    ("main", "insecure", 0.05, 0, 50, 6):
        "a15a71def26fa71f8646a2c049c973bedf391380ebc04309c89c4804e95a4bd0",
    ("main", "insecure", 0.05, 1, 2, 100):
        "e0cac1964ec511dd43005e95cd8d613bb8a7213c3228358e16e122830d5f284d",
    ("main", "insecure", 0.05, 1, 50, 6):
        "fe24d18e1e65e0c8fb4d1d729f31803aad9d38a9e7807e563f37fcc363e9bb13",
    ("main", "dedicated", 0.0, 0, 2, 100):
        "da1f4b8e4ce1b59c860e95c584002daeb7e29adc40f72ab0d102f8e3bcae81a1",
    ("main", "dedicated", 0.0, 0, 50, 6):
        "1a80af144b7fd7e1f7d7fe8e654d1b31e0c73b9f3e893d78eddac2e711c22948",
    ("main", "dedicated", 0.0, 1, 2, 100):
        "5ea5bbf5c6d78f011bfc07963a348bd4d1d8ba898bc9879bcf53be5be77b307b",
    ("main", "dedicated", 0.0, 1, 50, 6):
        "b5e7a58c4a3364f4c3d38f3374dc7fc24fab73ee52b0a5baa55131d1d431922c",
    ("main", "dedicated", 0.05, 0, 2, 100):
        "de210504f217d1a6a3406ea7a5127ca2e416449548488a295094fa547a8ff152",
    ("main", "dedicated", 0.05, 0, 50, 6):
        "84aa87bdfd7ec229b44562306eb75d220bf56439ad243ef9a8175e6e0c2dbe58",
    ("main", "dedicated", 0.05, 1, 2, 100):
        "f04cfb98b7cd7195f2407bf6496360685a3f7b314c066c788e8443934eaf0cc1",
    ("main", "dedicated", 0.05, 1, 50, 6):
        "7f294286a2d9e186be33b6c31be213b084c7961005982a090d0727ed7b863d7a",
    ("baseline", "insecure", 0.0, 0, 2, 100):
        "19557761ad4b73ccde78ecec97c8860794798dd96e787a0b7e135d32d3f9c7c2",
    ("baseline", "insecure", 0.0, 0, 50, 6):
        "9a941593e872dd9aa0d69d17bd6c723256bf7c1ce337565af65a3fff21db8709",
    ("baseline", "insecure", 0.0, 1, 2, 100):
        "b041af71a9eb627a25caf2c05bbeb72efc57cf7769aa2d198e9d847b4fb46c5d",
    ("baseline", "insecure", 0.0, 1, 50, 6):
        "5ad24f714bceb2cbad7faca47c6ac92fcfc92fd933e0bcd8d10a16b5d0b8da11",
    ("baseline", "insecure", 0.05, 0, 2, 100):
        "bdfbb410f3c15eeb523143b1a689d21f0b552044ca1cb2c693485b89d1961e53",
    ("baseline", "insecure", 0.05, 0, 50, 6):
        "b1c8ac64fec7310478ad79085cf37ba133d504eeb5c6c891b4bf3f8e2eb9e309",
    ("baseline", "insecure", 0.05, 1, 2, 100):
        "7a5b6e30c095787f28a5793c54c00c5c2e17598799b94f4818d71b0d52178091",
    ("baseline", "insecure", 0.05, 1, 50, 6):
        "88374f0a9952fa56b3d05f42c7c3834a24146b2bc7d07732d128edcef188c028",
    ("baseline", "dedicated", 0.0, 0, 2, 100):
        "54b291a89edd941d6e7265437d9f20f77ea975efc1d50959e142a625f5d327e2",
    ("baseline", "dedicated", 0.0, 0, 50, 6):
        "3e1efd137b175d2685062294b397eb99cf9adb60b346c43dc8d6d2dae07e76ea",
    ("baseline", "dedicated", 0.0, 1, 2, 100):
        "8186b87092a96aec899866f1668574f9b4aaa844b9f812af1f7c6f06e45354d3",
    ("baseline", "dedicated", 0.0, 1, 50, 6):
        "14a8a997cdad9adc4f9e77bee951ef6a096c15070d0735bff57d31c051cf14ae",
    ("baseline", "dedicated", 0.05, 0, 2, 100):
        "c81161cc04aa58f31e838a0bb11a217dd85fac4524db7f1a0517d6d17df53a26",
    ("baseline", "dedicated", 0.05, 0, 50, 6):
        "829385e2eb82b226c6c5b24811c49bd62124679651ee71de7a997f9ec8e7fcd0",
    ("baseline", "dedicated", 0.05, 1, 2, 100):
        "25fe045d169e8b29202b145c0ed98c3916998a8b787c297f40d70b92e4ce886d",
    ("baseline", "dedicated", 0.05, 1, 50, 6):
        "1562c80b41917307a3d27d1daf42b57525f439ff2e2c86a08aa9c12dfe512303",
}


class TestPinnedOutput:
    @pytest.mark.parametrize("key", sorted(LEDGER_DIGESTS, key=repr), ids=repr)
    def test_report_bytes_unchanged(self, key):
        scheme, init, delta, seed, a, b = key
        rep = simulate(make_config(scheme=scheme, init=init, delta=delta,
                                   seed=RngSeed(seed), a=a, b=b))
        text = rep.to_json() + rep.csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == LEDGER_DIGESTS[key]


# sha256 of to_json() + csv_text() for the full scheme at kappa = 0.7, where
# the key share runs the per-state path over the joint grid.  Pinned from the
# release before kappa became a float end to end (it was a q closure).  The
# two chisq full-inv digests moved in the last digits of their float columns
# when the calibration moments became closed forms.  The three chisq digests
# moved in schedule.r_o and key_share_expected alone when the rate
# functionals came to be summed over the node pairs with h_m > h_e only.
KAPPA_DIGESTS = {
    "chisq": ({},
              "71ca6db0608050942f22a672d0eebde2753ca49761aba8486a3762fa57cd62d6"),
    "chisq-dedicated-a2": (dict(init="dedicated", delta=0.0, seed=RngSeed(1), a=2, b=100),
                           "7a8d427b80c7a96b279c670b98e69fc775ec2e482ced0eca568489e09731cfb9"),
    "chisq-main-inv": (dict(policy="main-inv", seed=RngSeed(1)),
                       "fb8f9b3f2c6b5715c364842ba06ea076530a172ca6b2360c44b6bc5684d0d2cd"),
    "atom": (dict(dist_m=parse_distribution("const:3"), dist_e=parse_distribution("const:1")),
             "739f6d2be1dda9c651091fb7cef4cc578807dc7504ca82ee034c7834e3f648ed"),
}


@pytest.mark.parametrize("case", sorted(KAPPA_DIGESTS))
def test_positive_kappa_report_bytes_unchanged(case):
    kw, digest = KAPPA_DIGESTS[case]
    rep = simulate(make_config(q_kappa=0.7, **kw))
    text = rep.to_json() + rep.csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of csv_text() alone for every configuration of LEDGER_DIGESTS and
# KAPPA_DIGESTS, from before the rate functionals were summed over the
# pair list; the per-block columns keep every byte.
CSV_DIGESTS = {
    ('baseline', 'dedicated', 0.0, 0, 2, 100):
        'e760cf4dbfffca005bd755f00526eee847f341b4c5fbf5f8a60d6de301447cef',
    ('baseline', 'dedicated', 0.0, 0, 50, 6):
        'c1368b4a05c96a32493b5b8f76ea9262637fe27aa3c3a42dbfcdaff70e8ba925',
    ('baseline', 'dedicated', 0.0, 1, 2, 100):
        '74032005d5e8d48e937c0248db13888dced3145a8152f784c43483dd1f220c6f',
    ('baseline', 'dedicated', 0.0, 1, 50, 6):
        '9c67f3fa26261471930a8b19bab7e373ffd563b34acce6ca366d381731468452',
    ('baseline', 'dedicated', 0.05, 0, 2, 100):
        'e760cf4dbfffca005bd755f00526eee847f341b4c5fbf5f8a60d6de301447cef',
    ('baseline', 'dedicated', 0.05, 0, 50, 6):
        'c1368b4a05c96a32493b5b8f76ea9262637fe27aa3c3a42dbfcdaff70e8ba925',
    ('baseline', 'dedicated', 0.05, 1, 2, 100):
        '74032005d5e8d48e937c0248db13888dced3145a8152f784c43483dd1f220c6f',
    ('baseline', 'dedicated', 0.05, 1, 50, 6):
        '9c67f3fa26261471930a8b19bab7e373ffd563b34acce6ca366d381731468452',
    ('baseline', 'insecure', 0.0, 0, 2, 100):
        'e760cf4dbfffca005bd755f00526eee847f341b4c5fbf5f8a60d6de301447cef',
    ('baseline', 'insecure', 0.0, 0, 50, 6):
        'c1368b4a05c96a32493b5b8f76ea9262637fe27aa3c3a42dbfcdaff70e8ba925',
    ('baseline', 'insecure', 0.0, 1, 2, 100):
        '74032005d5e8d48e937c0248db13888dced3145a8152f784c43483dd1f220c6f',
    ('baseline', 'insecure', 0.0, 1, 50, 6):
        '9c67f3fa26261471930a8b19bab7e373ffd563b34acce6ca366d381731468452',
    ('baseline', 'insecure', 0.05, 0, 2, 100):
        'e760cf4dbfffca005bd755f00526eee847f341b4c5fbf5f8a60d6de301447cef',
    ('baseline', 'insecure', 0.05, 0, 50, 6):
        'c1368b4a05c96a32493b5b8f76ea9262637fe27aa3c3a42dbfcdaff70e8ba925',
    ('baseline', 'insecure', 0.05, 1, 2, 100):
        '74032005d5e8d48e937c0248db13888dced3145a8152f784c43483dd1f220c6f',
    ('baseline', 'insecure', 0.05, 1, 50, 6):
        '9c67f3fa26261471930a8b19bab7e373ffd563b34acce6ca366d381731468452',
    ('full', 'dedicated', 0.0, 0, 2, 100):
        '4168ac69495895b857ba92c13ef1ce2be3336ecb1d3df8c581d1bd06f379b9e8',
    ('full', 'dedicated', 0.0, 0, 50, 6):
        '0e080bb31f2bf9b08cd9d22d53dde5a070b22c044828060dcafb83e9445ea560',
    ('full', 'dedicated', 0.0, 1, 2, 100):
        '6227e8daf86708c3fc24426f14287c23eba34c367eb7b8e9c068402ca8610fbc',
    ('full', 'dedicated', 0.0, 1, 50, 6):
        '743b13b5d5e22f86b5f100ac8e3d4b5e225ab48a926fda82fd54351bb95e6bac',
    ('full', 'dedicated', 0.05, 0, 2, 100):
        '0e2dbbaebffb8d87c954f05cc76bd362fa4902c49abc79a82a10c5d71cb4547f',
    ('full', 'dedicated', 0.05, 0, 50, 6):
        '1e1e6f30178b3e93e813132623633e48e030216c16b9944d37ab7410c842a309',
    ('full', 'dedicated', 0.05, 1, 2, 100):
        '4096ae24256f10c8616dd60d283ab2dcafcab6091988423d4305f626a1c9461d',
    ('full', 'dedicated', 0.05, 1, 50, 6):
        '5d7c1e09ca45501f400c279cc84cd980db0b63d197bc99501c140ede7da72883',
    ('full', 'insecure', 0.0, 0, 2, 100):
        'b8ab5dc324792889d7095ff79a252d0d62b8f8235744266d66e1feec0c3dd7b6',
    ('full', 'insecure', 0.0, 0, 50, 6):
        '8412c1193c40b8b04053490639484588255423ce42d6ee0c7b77e8f422959dd1',
    ('full', 'insecure', 0.0, 1, 2, 100):
        'c12764726c18b083d83b4f8ead051b524abc87da837246793f7dabd97e4bfe5b',
    ('full', 'insecure', 0.0, 1, 50, 6):
        'dcb74ef65d483d5dafc0706476650252dacd2d87e422b003f667bcf1f196a091',
    ('full', 'insecure', 0.05, 0, 2, 100):
        'c67b1b3def5a9082f42d970fe998fe9602366c8b736eb414530fc7ab37261be5',
    ('full', 'insecure', 0.05, 0, 50, 6):
        '6792682f486a8495584ca319af9013104565203db55ba899937df1fceae60bff',
    ('full', 'insecure', 0.05, 1, 2, 100):
        '254f3803bc32d4f1a069c3c960873c0ef2e6c0ad9fcf337347324931103c1496',
    ('full', 'insecure', 0.05, 1, 50, 6):
        'b31d5498d33484f550cc75c9264f6f35ea275eff0c200a70dbc1e1430d0218df',
    ('main', 'dedicated', 0.0, 0, 2, 100):
        '97e402806bb22664836f475176e0ebf3c6fe31949cddd8f5cb1d6e1303d11e73',
    ('main', 'dedicated', 0.0, 0, 50, 6):
        'f4f1f89857f7bac1aa788bc7b97cd1bf19bb8ab27681ea5647ab8c5e61067ce5',
    ('main', 'dedicated', 0.0, 1, 2, 100):
        'f4b52f1744721737f73ea289fdb345981be41f27ede11ff6893171243fd582ec',
    ('main', 'dedicated', 0.0, 1, 50, 6):
        'be4ab0a3d8da40b1adf1df9e4edbb5d03fef8d454d1aae6105673a035fdaf030',
    ('main', 'dedicated', 0.05, 0, 2, 100):
        'd44b175ab7c15e20d04adecf1a92666ecd9fe296165f3013d609418ab1fdfcda',
    ('main', 'dedicated', 0.05, 0, 50, 6):
        'eede459ba0446cfcedadd741685e396595bcd458b9ced17a03f649a0408b7750',
    ('main', 'dedicated', 0.05, 1, 2, 100):
        '133cfe3dc58467c6137088c47ac5b81c916fffd873fba3152c9d6898b0466fd7',
    ('main', 'dedicated', 0.05, 1, 50, 6):
        'bca834eb831c003b2531978b3a2a91f5897cda410d24a9487911dc76bd204e21',
    ('main', 'insecure', 0.0, 0, 2, 100):
        '2d31670bb3b6083f234e9d56af0909ae41adf7b5b7b88c90d1c13113819372a4',
    ('main', 'insecure', 0.0, 0, 50, 6):
        'b8b0324cc0ecc7cd7d745e23653764902626f0da784428d58466c15e95674d60',
    ('main', 'insecure', 0.0, 1, 2, 100):
        '194bc60120a99651756d91dd179b9386e1303501331d738e5346344d5425cecb',
    ('main', 'insecure', 0.0, 1, 50, 6):
        '969ae01e217fcd2586c0df4599f4392f81fd0e3553d00917192490c25dffdfa8',
    ('main', 'insecure', 0.05, 0, 2, 100):
        '8f969d6597da677787a450db8f9bec6327eb087bc3a2c9e250e0a1a4330da642',
    ('main', 'insecure', 0.05, 0, 50, 6):
        '97801f56e0217c8840c67b0ef36de0e4034e4cf0b90550a4bcaf5961c6b38ae0',
    ('main', 'insecure', 0.05, 1, 2, 100):
        '86e61c83a9baef7b90f53d03e170b30b2873aa562333572bfaf1acdc5f427b02',
    ('main', 'insecure', 0.05, 1, 50, 6):
        'b01991848df09448d8ac3c0f38749e0e42cd776092f63a0978b0e197a0dc8338',
    'atom':
        '0f1ed5e0658f21fb210946476220b4755f5debc0d34067175fdd197e5eb8a2cc',
    'chisq':
        '07a803081b8037180a3676863de697a4aad3a9097fc456515fa7848dab9f8ebd',
    'chisq-dedicated-a2':
        '77d8575ac5b237a0ae77d3f1717069934f25f48ce85720e7c40d0c5e124c113b',
    'chisq-main-inv':
        '781201ea55d56efc9d1162a69d7568338cdf950717e6754432f20ac33d2da342',
}

# The configurations whose JSON moved when the rate functionals came to be
# summed over the pair list: the earlier sha256 of to_json() + csv_text(),
# and the earlier schedule.r_o and schedule.key_share_expected.
PRE_PAIR_LIST_SCHEDULES = {
    ('full', 'dedicated', 0.0, 0, 2, 100):
        ('470ef9927af98750632baf5dc9daad45b96fb24db64015828d78ab644b3ec361',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'dedicated', 0.0, 0, 50, 6):
        ('8aa6912b99e146556bc4989af8c829ca82712c798826451cb83edd38b39aa0a4',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'dedicated', 0.0, 1, 2, 100):
        ('a79f7ab4cecc5702cbd8c7fd4507cb85c48034cff0b1925ae929edcbf2ec4c32',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'dedicated', 0.0, 1, 50, 6):
        ('7be1f55717fed11e06d4c5fa0d7a1c7baf7ce2342b968cb19df3a7d602d9cbaa',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'dedicated', 0.05, 0, 2, 100):
        ('18be679735ecd5f9ffee0a32236af2700d03910bd0b624a124c409371491c7b3',
         0.41917181249526086, 0.4412334868371167),
    ('full', 'dedicated', 0.05, 0, 50, 6):
        ('27c3748f53d6a0d5f2e8f7f578d13c41d9327365f28c05fa1fe7a842f5437ef4',
         0.41917181249526086, 0.4412334868371167),
    ('full', 'dedicated', 0.05, 1, 2, 100):
        ('593b6a00c413c8a94d283252aa6597fa3e66fc8546e712e9fe31d4f384c30477',
         0.41917181249526086, 0.4412334868371167),
    ('full', 'dedicated', 0.05, 1, 50, 6):
        ('ea63a8c3143d4cb81f9d7fae5977bebc0f7ad9423b5376d5c11099af247a39b1',
         0.41917181249526086, 0.4412334868371167),
    ('full', 'insecure', 0.0, 0, 2, 100):
        ('79a79244a86036ed2629f28fcb4ba98a815db6948eb922593b96ff0272470997',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'insecure', 0.0, 0, 50, 6):
        ('e5ca84636bf501b83a9357744f1337b6d60fc267c130621ab1c18b92936e369b',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'insecure', 0.0, 1, 2, 100):
        ('ebf1bde3945feebb5e18755c6959beaf8e0f23f0fe1d329a11765d55febcf317',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'insecure', 0.0, 1, 50, 6):
        ('a5bb0c3f107d8156956d1bd3ab950964c3961e5b8c807fb881afee38d2eb04c7',
         0.4412334868371167, 0.4412334868371167),
    ('full', 'insecure', 0.05, 0, 2, 100):
        ('2570656f09eaadf3be3236e89195f03ae59b0ee105d089380b8ed605ba733d10',
         0.41917181249526086, 0.4412334868371167),
    ('full', 'insecure', 0.05, 0, 50, 6):
        ('d2d6c26b770a8fa4fd1e65dd09fca820922be9ffafe378fb5ff98306240c4926',
         0.41917181249526086, 0.4412334868371167),
    ('full', 'insecure', 0.05, 1, 2, 100):
        ('67a583a7262a8d0c3e0829db8def69734efee1a4df6e4bd75c6aabe73202c9ca',
         0.41917181249526086, 0.4412334868371167),
    ('full', 'insecure', 0.05, 1, 50, 6):
        ('604bec231fe27b14067778e2e70c704ff6f5c89f25f19a776ce97399e21ac706',
         0.41917181249526086, 0.4412334868371167),
    'chisq':
        ('f7bcfd398e87219025a8823850961a32a5bae2369638038c31e83823b895d633',
         0.39492728788237325, 0.4157129346130245),
    'chisq-dedicated-a2':
        ('0b354f082230dad04e6cfa3781df92f941fd0418de5c19cbddda127a3ae18050',
         0.4157129346130245, 0.4157129346130245),
    'chisq-main-inv':
        ('8a75d7e1ee186f9ce9dd47ec041edc5899851d64d127c57c68227858bd1a5298',
         0.0, 0.4128424977633914),
}


# The main configurations whose JSON moved when the fixed point came to take
# its segment sums off the gaps it drops: the earlier sha256 of to_json() +
# csv_text(), and the earlier schedule.fixed_point_rate and data_rate.
PRE_DROPPED_GAP_SCHEDULES = {
    ('main', 'dedicated', 0.0, 0, 2, 100):
        ('9e3cd6c5da60b94f8a0ead2955da9602ee347d96e7314fcdac1680ebde6e8864',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'dedicated', 0.0, 0, 50, 6):
        ('248ae9db88cae43a3b4da529f005f0680caf991ab6bd9f6be35263c70fc8def1',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'dedicated', 0.0, 1, 2, 100):
        ('ea65b2996e4c2d6ec17ba696bdde4b52e02f59853ce4e9a56013f0b8f9f50164',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'dedicated', 0.0, 1, 50, 6):
        ('4577dd6a33f7a9744602af69ac8712ed9d8bbd201af1e5024d2c9976f3b8a5e5',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'dedicated', 0.05, 0, 2, 100):
        ('9cdc679b3215b552dfd99651bb03a8ea2c3ea3c8fab13d573428c774317b03d3',
         0.30290537634182013, 0.28776010752472914),
    ('main', 'dedicated', 0.05, 0, 50, 6):
        ('a34862add11b1f8c695d3a40bc594d18ace5412b99c79a1b1a887b6b8e744a76',
         0.30290537634182013, 0.28776010752472914),
    ('main', 'dedicated', 0.05, 1, 2, 100):
        ('adc48923a4e2151d314fdce6176ca4977b04f2c17ed9b1bf6830ae6b4080d548',
         0.30290537634182013, 0.28776010752472914),
    ('main', 'dedicated', 0.05, 1, 50, 6):
        ('f93dd7667521c953f65a60b41172d7d9fe68ba9fd69e7aa37b4ccaaa4ec1490f',
         0.30290537634182013, 0.28776010752472914),
    ('main', 'insecure', 0.0, 0, 2, 100):
        ('50136d8c6efb31f854ce3d7cf22581f6302a32bc673b45d3465f11d0f94ddc57',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'insecure', 0.0, 0, 50, 6):
        ('5e95ce4748063dac3521527519414161990ce057739756cbc6e138752b390d29',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'insecure', 0.0, 1, 2, 100):
        ('22f4fdba308a5349891b1aefbb1d8eb2fdcf3cfa2eece0d2157cfe77be5295c6',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'insecure', 0.0, 1, 50, 6):
        ('f27f74d2470d8cbc1cea62fa5088d5f7b14fc04123cb9387468a3e9678f653a8',
         0.30290537634182013, 0.30290537634182013),
    ('main', 'insecure', 0.05, 0, 2, 100):
        ('f77d433ef3a6eaef54098d2b33b734b7c86b4e22b20df52b02a781d2965ee201',
         0.30290537634182013, 0.28776010752472914),
    ('main', 'insecure', 0.05, 0, 50, 6):
        ('a4289fcf89932d2bfd056988ffd00bf463ce548574fa3b6c02e5e417dbf1a53c',
         0.30290537634182013, 0.28776010752472914),
    ('main', 'insecure', 0.05, 1, 2, 100):
        ('5a153eabb1d227b9dd76b0a17e3681e7070bc385b221997fc6450b8a4a03f872',
         0.30290537634182013, 0.28776010752472914),
    ('main', 'insecure', 0.05, 1, 50, 6):
        ('2fafad68528c1304c0ee1438a6fa82fecc1b3f310f5fd8afd3d87b412b7ff4b4',
         0.30290537634182013, 0.28776010752472914),
}


def pinned_report(key):
    """The report of a LEDGER_DIGESTS key or a KAPPA_DIGESTS case."""
    if isinstance(key, str):
        return simulate(make_config(q_kappa=0.7, **KAPPA_DIGESTS[key][0]))
    scheme, init, delta, seed, a, b = key
    return simulate(make_config(scheme=scheme, init=init, delta=delta, seed=RngSeed(seed), a=a, b=b))


@pytest.mark.parametrize("key", sorted(CSV_DIGESTS, key=repr), ids=repr)
def test_csv_bytes_unchanged(key):
    rep = pinned_report(key)
    assert hashlib.sha256(rep.csv_text().encode()).hexdigest() == CSV_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(PRE_PAIR_LIST_SCHEDULES, key=repr), ids=repr)
def test_json_moved_only_in_the_schedule_rates(key):
    """With the two schedule fields set back to their earlier values the
    document is the earlier one byte for byte; each moved by <= 2e-15
    relative."""
    old_digest, old_r_o, old_share = PRE_PAIR_LIST_SCHEDULES[key]
    rep = pinned_report(key)
    doc = rep.to_json_dict()
    for name, old in (("r_o", old_r_o), ("key_share_expected", old_share)):
        assert abs(doc["schedule"][name] - old) <= 2e-15 * abs(old)
        doc["schedule"][name] = old
    text = json.dumps(doc, sort_keys=True, indent=1) + rep.csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == old_digest


@pytest.mark.parametrize("key", sorted(PRE_DROPPED_GAP_SCHEDULES, key=repr), ids=repr)
def test_main_json_moved_only_in_the_fixed_point_rates(key):
    """With the fixed-point rate and the data rate set back to their earlier
    values the document is the earlier one byte for byte; each moved by
    <= 4e-16 relative."""
    old_digest, old_rate, old_data_rate = PRE_DROPPED_GAP_SCHEDULES[key]
    rep = pinned_report(key)
    doc = rep.to_json_dict()
    for name, old in (("fixed_point_rate", old_rate), ("data_rate", old_data_rate)):
        assert doc["schedule"][name] != old
        assert abs(doc["schedule"][name] - old) <= 4e-16 * abs(old)
        doc["schedule"][name] = old
    text = json.dumps(doc, sort_keys=True, indent=1) + rep.csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == old_digest
