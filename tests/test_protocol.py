"""Protocol ledger tests: pad spending, pad pool, the three schemes."""

import csv
import dataclasses
import hashlib
import io
import json
import math

import numpy as np
import pytest

from dlsec.fading import parse_distribution
from dlsec.numerics import RngSeed
from dlsec.protocol import (LN2, MAX_BLOCKS, SimConfig, _bits, _spent_after_release,
                            key_balance_check, simulate)

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


class TestBaselineScheme:
    def test_outage_fraction_near_half(self):
        """iid gains: P(h_e >= h_m) = 1/2; 3 binomial stderr at 1e4 blocks."""
        rep = simulate(make_config(scheme="baseline", a=100, b=100))
        stderr = math.sqrt(0.25 / 10_000)
        assert abs(rep.outage_fraction - 0.5) <= 3.0 * stderr

    def test_outage_blocks_deliver_nothing(self):
        rep = simulate(make_config(scheme="baseline", a=100, b=10))
        for r in rep.records:
            if r.outage:
                assert r.data_delivered == 0
        # the delay-limited guaranteed rate collapses to zero
        assert min(r.data_delivered for r in rep.records) == 0
        assert rep.insecure_fraction == 0.0


class TestBalanceCheck:
    def test_matches_recomputed_ledger(self):
        """The check equals the per-super-block comparison by definition."""
        for scheme, delta in (("full", 0.05), ("main", 0.05), ("full", 0.5)):
            rep = simulate(make_config(scheme=scheme, a=50, b=6, delta=delta))
            gen = {}
            cons = {}
            for r in rep.records:
                gen[r.m] = gen.get(r.m, 0) + r.key_generated
                cons[r.m] = cons.get(r.m, 0) + r.key_consumed
            want = all(cons[m] <= gen[m - 1] for m in range(2, rep.config.b + 1))
            assert key_balance_check(rep) == want

    def test_wide_backoff_balances(self):
        """At delta = 0.5 consumption sits far below mean generation, so
        every super-block covers the next one."""
        rep = simulate(make_config(a=200, b=10, delta=0.5))
        assert key_balance_check(rep) is True
        assert rep.starvation_events == 0

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
        cannot change."""
        rep = simulate(make_config(a=10, b=2))
        with pytest.raises(ValueError, match="read-only"):
            rep.records.key_consumed[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            rep.records["h_m"][:] = 0.0

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


class TestEncoders:
    """`to_json` and `csv_text` write exactly what the reference encoders
    write: `json.dumps` of `to_json_dict`, and `repr` of each value."""

    @pytest.fixture(params=sorted(ENCODER_CASES), scope="class")
    def report(self, request):
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
# key_share_expected in the last digits; no bit count moved.
LEDGER_DIGESTS = {
    ("full", "insecure", 0.0, 0, 2, 100):
        "79a79244a86036ed2629f28fcb4ba98a815db6948eb922593b96ff0272470997",
    ("full", "insecure", 0.0, 0, 50, 6):
        "e5ca84636bf501b83a9357744f1337b6d60fc267c130621ab1c18b92936e369b",
    ("full", "insecure", 0.0, 1, 2, 100):
        "ebf1bde3945feebb5e18755c6959beaf8e0f23f0fe1d329a11765d55febcf317",
    ("full", "insecure", 0.0, 1, 50, 6):
        "a5bb0c3f107d8156956d1bd3ab950964c3961e5b8c807fb881afee38d2eb04c7",
    ("full", "insecure", 0.05, 0, 2, 100):
        "2570656f09eaadf3be3236e89195f03ae59b0ee105d089380b8ed605ba733d10",
    ("full", "insecure", 0.05, 0, 50, 6):
        "d2d6c26b770a8fa4fd1e65dd09fca820922be9ffafe378fb5ff98306240c4926",
    ("full", "insecure", 0.05, 1, 2, 100):
        "67a583a7262a8d0c3e0829db8def69734efee1a4df6e4bd75c6aabe73202c9ca",
    ("full", "insecure", 0.05, 1, 50, 6):
        "604bec231fe27b14067778e2e70c704ff6f5c89f25f19a776ce97399e21ac706",
    ("full", "dedicated", 0.0, 0, 2, 100):
        "470ef9927af98750632baf5dc9daad45b96fb24db64015828d78ab644b3ec361",
    ("full", "dedicated", 0.0, 0, 50, 6):
        "8aa6912b99e146556bc4989af8c829ca82712c798826451cb83edd38b39aa0a4",
    ("full", "dedicated", 0.0, 1, 2, 100):
        "a79f7ab4cecc5702cbd8c7fd4507cb85c48034cff0b1925ae929edcbf2ec4c32",
    ("full", "dedicated", 0.0, 1, 50, 6):
        "7be1f55717fed11e06d4c5fa0d7a1c7baf7ce2342b968cb19df3a7d602d9cbaa",
    ("full", "dedicated", 0.05, 0, 2, 100):
        "18be679735ecd5f9ffee0a32236af2700d03910bd0b624a124c409371491c7b3",
    ("full", "dedicated", 0.05, 0, 50, 6):
        "27c3748f53d6a0d5f2e8f7f578d13c41d9327365f28c05fa1fe7a842f5437ef4",
    ("full", "dedicated", 0.05, 1, 2, 100):
        "593b6a00c413c8a94d283252aa6597fa3e66fc8546e712e9fe31d4f384c30477",
    ("full", "dedicated", 0.05, 1, 50, 6):
        "ea63a8c3143d4cb81f9d7fae5977bebc0f7ad9423b5376d5c11099af247a39b1",
    ("main", "insecure", 0.0, 0, 2, 100):
        "50136d8c6efb31f854ce3d7cf22581f6302a32bc673b45d3465f11d0f94ddc57",
    ("main", "insecure", 0.0, 0, 50, 6):
        "5e95ce4748063dac3521527519414161990ce057739756cbc6e138752b390d29",
    ("main", "insecure", 0.0, 1, 2, 100):
        "22f4fdba308a5349891b1aefbb1d8eb2fdcf3cfa2eece0d2157cfe77be5295c6",
    ("main", "insecure", 0.0, 1, 50, 6):
        "f27f74d2470d8cbc1cea62fa5088d5f7b14fc04123cb9387468a3e9678f653a8",
    ("main", "insecure", 0.05, 0, 2, 100):
        "f77d433ef3a6eaef54098d2b33b734b7c86b4e22b20df52b02a781d2965ee201",
    ("main", "insecure", 0.05, 0, 50, 6):
        "a4289fcf89932d2bfd056988ffd00bf463ce548574fa3b6c02e5e417dbf1a53c",
    ("main", "insecure", 0.05, 1, 2, 100):
        "5a153eabb1d227b9dd76b0a17e3681e7070bc385b221997fc6450b8a4a03f872",
    ("main", "insecure", 0.05, 1, 50, 6):
        "2fafad68528c1304c0ee1438a6fa82fecc1b3f310f5fd8afd3d87b412b7ff4b4",
    ("main", "dedicated", 0.0, 0, 2, 100):
        "9e3cd6c5da60b94f8a0ead2955da9602ee347d96e7314fcdac1680ebde6e8864",
    ("main", "dedicated", 0.0, 0, 50, 6):
        "248ae9db88cae43a3b4da529f005f0680caf991ab6bd9f6be35263c70fc8def1",
    ("main", "dedicated", 0.0, 1, 2, 100):
        "ea65b2996e4c2d6ec17ba696bdde4b52e02f59853ce4e9a56013f0b8f9f50164",
    ("main", "dedicated", 0.0, 1, 50, 6):
        "4577dd6a33f7a9744602af69ac8712ed9d8bbd201af1e5024d2c9976f3b8a5e5",
    ("main", "dedicated", 0.05, 0, 2, 100):
        "9cdc679b3215b552dfd99651bb03a8ea2c3ea3c8fab13d573428c774317b03d3",
    ("main", "dedicated", 0.05, 0, 50, 6):
        "a34862add11b1f8c695d3a40bc594d18ace5412b99c79a1b1a887b6b8e744a76",
    ("main", "dedicated", 0.05, 1, 2, 100):
        "adc48923a4e2151d314fdce6176ca4977b04f2c17ed9b1bf6830ae6b4080d548",
    ("main", "dedicated", 0.05, 1, 50, 6):
        "f93dd7667521c953f65a60b41172d7d9fe68ba9fd69e7aa37b4ccaaa4ec1490f",
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
# when the calibration moments became closed forms.
KAPPA_DIGESTS = {
    "chisq": ({},
              "f7bcfd398e87219025a8823850961a32a5bae2369638038c31e83823b895d633"),
    "chisq-dedicated-a2": (dict(init="dedicated", delta=0.0, seed=RngSeed(1), a=2, b=100),
                           "0b354f082230dad04e6cfa3781df92f941fd0418de5c19cbddda127a3ae18050"),
    "chisq-main-inv": (dict(policy="main-inv", seed=RngSeed(1)),
                       "8a75d7e1ee186f9ce9dd47ec041edc5899851d64d127c57c68227858bd1a5298"),
    "atom": (dict(dist_m=parse_distribution("const:3"), dist_e=parse_distribution("const:1")),
             "739f6d2be1dda9c651091fb7cef4cc578807dc7504ca82ee034c7834e3f648ed"),
}


@pytest.mark.parametrize("case", sorted(KAPPA_DIGESTS))
def test_positive_kappa_report_bytes_unchanged(case):
    kw, digest = KAPPA_DIGESTS[case]
    rep = simulate(make_config(q_kappa=0.7, **kw))
    text = rep.to_json() + rep.csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
