"""Block-level simulator of the two-stage key-renewal transmission scheme.

The simulator is a rate and secrecy LEDGER, not a waveform simulator:
channel coding is abstracted away, every block carries exactly its
scheduled bit load with no decoding errors, and "security" is tracked by
provenance (which lane a bit used, and which key generation covered it).
The ledger itself is columnar: bit loads are computed for all blocks at
once and a single integer scan tracks the pad pool.  Key bits are tracked
by their offsets in the key stream, not drawn: spending is FIFO, so block
i spends the offsets [C_{i-1}, C_i), with C the running sum of
``key_consumed``, and ``roundtrip_ok`` checks the release rule below from
the ledger's columns.  The report's JSON and CSV share one cached text
pass: the columns are deduplicated by bit pattern, each distinct value's
``repr`` is made once, and both writers lay out the same per-column lists
of that text.

Time structure: b super-blocks of a blocks of n1 symbols (n = b*a*n1).
Rates are nats per use throughout the package; this module converts to
bits at the ledger boundary: n1 * rate / ln 2 rounded to the nearest bit,
ties to even.  The rounding residue is never banked in later blocks.

Schemes (``full`` and ``main`` take policy, kappa and rates from the
BoundResult of their lower bound on the one-entry menu of the config's
policy; the ledger has no schedule rule of its own):
    full      lower_full's two-stage split: per-block key messages ride
              alongside a direct secret lane, and from super-block 2 on
              every block draws its pad from the pool (super-block 1's pad
              lane runs unencrypted by default).
    main      everything rides the one-time pad at lower_main's fixed-point
              rate; a policy that reads h_e (full-inv) is a CsiError.
    baseline  plain per-block wiretap coding, which zeroes out in every
              secrecy-outage block; no bound describes it.

Key release, the one rule ``simulate`` runs and ``roundtrip_ok`` checks:
``full``'s key bits become spendable at the end of the block that
generates them, ``main``'s at the end of the super-block, ``baseline``'s
never; unspent bits carry over.  Carry-over keeps one-time-pad secrecy,
because every key bit is still spent at most once and only after its
release; it only adds slack to the paper's budget, in which super-block
m's key covers m+1.

A finite-a backoff delta scales the consumption schedule below the mean
generation rate; at delta = 0 the empirical key rate dips below its
expectation on some super-blocks and the pad can starve.  Starvation is
not an error: the block's pad lane is skipped and the event is counted.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from .bounds import lower_full, lower_main, resolve_menu_entry, usable
from .fading import ChannelState, FadingDistribution
from .numerics import RngSeed, _check_nodes
from .policy import calibrate
from .rates import expected_key_share, per_state_rates

LN2 = math.log(2.0)

SCHEMES = ("full", "main", "baseline")
INIT_MODES = ("insecure", "dedicated")

_STATE_LANE = 1
# A run holds every block's columns and their text at once.  The peak
# ru_maxrss of one process that imports dlsec, runs simulate, to_json and
# csv_text at the CLI defaults (full and main, chisq:4, 20 dB, a = 500) read
# 50-51 MB at 10^4 blocks and 164-177 MB at 10^5, 29 MB of it the import:
# about 1.3-1.4 kB a block.  So a * b is capped at 100 times the CLI default
# of 10^4 blocks, about 1.5 GB at that rate.
MAX_BLOCKS = 1_000_000

# The ledger's per-block columns, in CSV order; JSON and CSV both read them.
_COLUMNS = (
    ("m", np.int64), ("l", np.int64),
    ("h_m", np.float64), ("h_e", np.float64), ("power", np.float64),
    ("r_main", np.float64), ("r_eve", np.float64), ("r_s", np.float64),
    ("r_s_prime", np.float64), ("r_s_dprime", np.float64),
    ("key_consumed", np.int64), ("key_generated", np.int64),
    ("data_delivered", np.int64), ("insecure_bits", np.int64),
    ("outage", np.int64),
)


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one simulation run.

    ``policy`` uses the policy grammar, where a bare ``trunc-inv`` takes the
    median main gain as its cutoff, as in a bound's menu; an empty string
    picks the scheme's natural default (full -> full-inv, main -> main-inv,
    baseline -> const).  ``q_kappa`` None takes the bound's kappa (0 for
    main and baseline); a value pins it.
    """

    scheme: str
    dist_m: FadingDistribution
    dist_e: FadingDistribution
    p_bar: float
    policy: str = ""
    b: int = 20
    a: int = 500
    n1: int = 10_000
    delta: float = 0.05
    q_kappa: float | None = None
    init: str = "insecure"
    seed: RngSeed = RngSeed(0, 0)
    nodes: int = 200

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.init not in INIT_MODES:
            raise ValueError(f"unknown init mode {self.init!r}")
        for name, v in (("b", self.b), ("a", self.a), ("n1", self.n1)):
            if not 1 <= int(v) < 2 ** 63:
                raise ValueError(f"{name} must be in [1, 2**63), got {v}")
        if int(self.a) * int(self.b) > MAX_BLOCKS:
            raise ValueError(f"a * b = {int(self.a) * int(self.b)} blocks exceeds "
                             f"the maximum of {MAX_BLOCKS}")
        if not (0.0 <= self.delta < 1.0):
            raise ValueError(f"backoff delta must be in [0, 1), got {self.delta}")
        if not (self.p_bar >= 0.0):
            raise ValueError(f"p_bar must be >= 0, got {self.p_bar}")
        if self.q_kappa is not None and not self.q_kappa >= 0.0:
            raise ValueError(f"q_kappa must be >= 0, got {self.q_kappa}")
        _check_nodes(self.nodes)  # also where no quadrature rule is built (baseline)

    @property
    def n(self) -> int:
        """Total symbol count b * a * n1."""
        return self.b * self.a * self.n1

    def policy_spec(self) -> str:
        if self.policy:
            return self.policy
        return {"full": "full-inv", "main": "main-inv", "baseline": "const"}[self.scheme]


@dataclass(frozen=True)
class SimReport:
    """Complete ledger of one protocol run.

    ``records`` is a record array with one row per block (super-block m,
    block l) and the fields of ``_COLUMNS``.  ``roundtrip_ok`` is true iff
    no pad bit was spent twice or before its release (the field keeps the
    name of the report format).
    """

    config: SimConfig
    records: np.recarray
    buffer_trajectory: list[int]
    starvation_events: int
    insecure_fraction: float
    otp_insecure_fraction: float
    outage_fraction: float
    roundtrip_ok: bool
    schedule: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)

    def _summary(self) -> dict:
        """Every entry of the JSON document except the per-block arrays."""
        cfg = self.config
        config = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
        config.update(dist_m=cfg.dist_m.spec(), dist_e=cfg.dist_e.spec(),
                      policy=cfg.policy_spec(),
                      seed={"seed": cfg.seed.seed, "stream": cfg.seed.stream})
        return {
            "config": config,
            "schedule": self.schedule,
            "totals": self.totals,
            "starvation_events": self.starvation_events,
            "insecure_fraction": self.insecure_fraction,
            "otp_insecure_fraction": self.otp_insecure_fraction,
            "outage_fraction": self.outage_fraction,
            "roundtrip_ok": self.roundtrip_ok,
        }

    def to_json_dict(self) -> dict:
        """The report as plain JSON values: the reference structure that
        ``to_json`` encodes, as ``json.dumps(..., sort_keys=True, indent=1)``
        would."""
        return {
            **self._summary(),
            "buffer_trajectory": self.buffer_trajectory,
            "records": {name: self.records[name].tolist() for name, _ in _COLUMNS},
        }

    @cached_property
    def _text(self) -> tuple[str, str]:
        """The JSON document's ``records`` member and the CSV text, laid out
        from one shared list of value text per column.  The report is
        frozen and ``records`` read-only, so the text cannot go stale.

        ``json`` spells non-finite floats Infinity, -Infinity and NaN where
        ``repr`` gives inf, -inf and nan; no other float or int repr
        contains an "n", so only a column whose text holds one is respelled.
        """
        cols = _column_values(self.records)
        arrays = {name: _json_array(values, 2) for name, values in cols.items()}
        for name, text in arrays.items():
            if "n" in text:
                arrays[name] = text.replace("inf", "Infinity").replace("nan", "NaN")
        rows = map(",".join, zip(*cols.values()))
        return _json_object(arrays, 1), "\n".join([",".join(cols), *rows, ""])

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), sort_keys=True, indent=1)``,
        with the per-block arrays spliced in from the cached records text."""
        # json escapes newlines inside strings, so each "\n" below is a line
        # break of the layout; indenting it by one space nests the value.
        parts = {key: json.dumps(value, sort_keys=True, indent=1).replace("\n", "\n ")
                 for key, value in self._summary().items()}
        parts["buffer_trajectory"] = _json_array(list(map(repr, self.buffer_trajectory)), 1)
        parts["records"] = self._text[0]
        return _json_object(parts, 0)

    def csv_text(self) -> str:
        return self._text[1]


def _column_values(records: np.recarray) -> dict[str, list[str]]:
    """The ``repr`` of each ``_COLUMNS`` column's values, as one list per
    column.

    The int64 columns and the float64 columns are each stacked and
    deduplicated by bit pattern, so -0.0 and each NaN keep their own text;
    ``repr`` runs once per distinct value, and every list holds references
    to those strings.  The ledger repeats many values (r_s' is r_s at
    kappa = 0, r_s'' and the pad counts take few values): at the CLI
    defaults about 50 000 of the 150 000 values are distinct.
    """
    cols: dict[str, list[str]] = {}
    for dtype in (np.int64, np.float64):
        names = [name for name, kind in _COLUMNS if kind is dtype]
        block = np.stack([records[name] for name in names])
        bits, index = np.unique(block.view(np.int64), return_inverse=True)
        text = np.array(list(map(repr, bits.view(dtype).tolist())), dtype=object)
        cols.update(zip(names, text[index.reshape(block.shape)].tolist()))
    return {name: cols[name] for name, _ in _COLUMNS}


def _json_object(members: dict[str, str], depth: int) -> str:
    """An object of already-encoded member values, laid out as ``json.dumps``
    with ``sort_keys=True, indent=1`` lays it out at nesting depth ``depth``,
    in one copy of the member text."""
    inner = "\n" + " " * (depth + 1)
    pieces = ["{"]
    for key in sorted(members):
        pieces += [inner, json.dumps(key), ": ", members[key], ","]
    pieces[-1] = "\n" + " " * depth + "}"
    return "".join(pieces)


def _json_array(values: list[str], depth: int) -> str:
    """A non-empty JSON array at nesting depth ``depth`` of already-encoded
    values, in the layout of ``json.dumps(..., indent=1)``."""
    inner = "\n" + " " * (depth + 1)
    return "".join(["[", inner, ("," + inner).join(values), "\n", " " * depth, "]"])


def _bits(rate_nats, n1: int) -> np.ndarray:
    """Bit load of a block at each given rate: n1 * rate / ln 2 rounded to
    the nearest bit, ties to even; the fractional residue is not carried.
    A load that is not finite, or does not fit the ledger's int64 columns,
    raises ValueError."""
    load = np.rint(n1 * np.maximum(rate_nats, 0.0) / LN2)
    if not np.all(load < 2.0 ** 63):
        raise ValueError("block bit load is not finite or reaches 2**63 bits")
    return load.astype(np.int64)


def _spent_after_release(consumed: np.ndarray, generated: np.ndarray,
                         spendable_every: int) -> bool:
    """True iff every pad bit in the ledger is spent at most once, and only
    after its release.

    Spending is FIFO, so block i spends the key-stream offsets
    [C_{i-1}, C_i), with C the running sum of ``consumed``: no offset is
    spent twice while consumption is non-negative.  Generated bits are
    released every ``spendable_every`` blocks, so the bits released before
    block i are those of its first s * (i // s) blocks; each offset spent
    must lie below that count.  With s = 0 nothing is ever released, so
    nothing may be consumed.
    """
    spent = np.cumsum(consumed)
    released = 0
    if spendable_every:
        blocks = np.arange(spent.size) // spendable_every * spendable_every
        released = np.concatenate(([0], np.cumsum(generated)))[blocks]
    return bool(np.all(consumed >= 0) and np.all(spent <= released))


def simulate(config: SimConfig) -> SimReport:
    """Run the configured scheme and return its ledger, whose config holds
    the kappa the run used.  Deterministic: identical configs (including
    the seed) produce identical reports.
    """
    args = (config.dist_m, config.dist_e, config.p_bar, [config.policy_spec()])
    kappa = 0.0 if config.q_kappa is None else config.q_kappa
    if config.scheme == "baseline":  # no bound describes it
        family, h_min = resolve_menu_entry(config.policy_spec(), config.dist_m)
        pol = calibrate(family, config.dist_m, config.dist_e, config.p_bar, h_min)
    else:
        bound = usable(lower_full(*args, q_kappa=config.q_kappa, nodes=config.nodes)
                       if config.scheme == "full" else lower_main(*args, nodes=config.nodes))
        pol, diag = bound.policy, bound.diagnostics
        kappa = diag.get("q_kappa", kappa)
    config = replace(config, q_kappa=kappa)
    a, b, n1 = config.a, config.b, config.n1
    nblocks = a * b
    state_rng = config.seed.generator(_STATE_LANE)
    h_m = config.dist_m.sample(state_rng, nblocks)
    h_e = config.dist_e.sample(state_rng, nblocks)
    rb = per_state_rates(pol, ChannelState(h_m, h_e), config.q_kappa)
    power = np.broadcast_to(np.asarray(pol.power(h_m, h_e), dtype=float), h_m.shape)

    # The scheme picks the pad schedule, the key and direct-lane loads, and
    # after how many blocks generated key bits become spendable (0: never).
    zeros = np.zeros(nblocks, dtype=np.int64)
    outage = zeros
    if config.scheme == "full":
        r_o = (1.0 - config.delta) * diag["r_o_chosen"]
        sched = int(_bits(r_o, n1))
        key_share = diag.get("r_s_prime_expected")
        if key_share is None:  # a zero-cap entry: lower_full's value did not read E[r_s']
            key_share = expected_key_share(pol, config.dist_m, config.dist_e, kappa, config.nodes)
        schedule = {"r_o": r_o, "otp_bits_per_block": sched, "key_share_expected": key_share,
                    "r_o_cap": diag["r_o_cap"], "backoff": config.delta}
        gen, direct, spendable_every = _bits(rb.r_s_prime, n1), _bits(rb.r_s_dprime, n1), 1
    elif config.scheme == "main":
        r_star = bound.value
        data_rate = (1.0 - config.delta) * r_star
        sched = int(_bits(data_rate, n1))
        schedule = {"fixed_point_rate": r_star, "data_rate": data_rate,
                    "otp_bits_per_block": sched, "r_d_floor": diag["r_d_floor"],
                    "backoff": config.delta}
        # key generation leaves room for the unscaled fixed-point rate;
        # binning codewords decode only once the super-block completes
        gen = _bits(rb.r_main - r_star - rb.r_eve, n1)
        direct, spendable_every = zeros, a
    else:
        sched, schedule = 0, {"per_block_wiretap": True}
        gen, direct, spendable_every = zeros, _bits(rb.r_s, n1), 0
        outage = (h_e >= h_m).astype(np.int64)

    gen_bits = gen.tolist()
    # every count in the ledger, column totals included, is at most this sum
    if sum(gen_bits) + sum(direct.tolist()) + sched * nblocks >= 2 ** 63:
        raise ValueError("the run's bit loads add up to 2**63 or more, "
                         "past the ledger's int64 counts")

    # The one sequential part: pool level and starvation.  From super-block
    # 2 on every block asks for sched pad bits and is served iff the pool
    # holds them; a starved block skips its pad lane.
    served = np.zeros(nblocks, dtype=bool)
    trajectory: list[int] = []
    available = pending = 0
    for i, g in enumerate(gen_bits):
        if i >= a and available >= sched:
            available -= sched
            served[i] = True
        pending += g
        if spendable_every and (i + 1) % spendable_every == 0:
            available += pending
            pending = 0
        trajectory.append(available)

    consumed = np.where(served, sched, 0)
    delivered = direct + consumed
    insecure = zeros.copy()
    if config.init == "insecure":
        # no earlier pool exists; super-block 1's pad lane runs in the clear
        delivered[:a] += sched
        insecure[:a] = sched
    elif spendable_every:
        delivered[:a] = 0
    # every insecure bit is a pad-lane bit sent in the clear
    insecure_bits = int(insecure.sum())
    otp_total = insecure_bits + sched * int(served.sum())

    m, l = np.divmod(np.arange(nblocks), a)
    records = np.rec.fromarrays(
        [m + 1, l + 1, h_m, h_e, power, rb.r_main, rb.r_eve, rb.r_s,
         rb.r_s_prime, rb.r_s_dprime, consumed, gen, delivered, insecure, outage],
        dtype=list(_COLUMNS))
    records.flags.writeable = False
    total_delivered = int(delivered.sum())
    return SimReport(
        config=config,
        records=records,
        buffer_trajectory=trajectory,
        starvation_events=int(nblocks - a - served.sum()),
        insecure_fraction=(insecure_bits / total_delivered) if total_delivered else 0.0,
        otp_insecure_fraction=(insecure_bits / otp_total) if otp_total else 0.0,
        outage_fraction=int(outage.sum()) / nblocks,
        roundtrip_ok=_spent_after_release(consumed, gen, spendable_every),
        schedule=schedule,
        totals={
            "data_delivered": total_delivered,
            "insecure_bits": insecure_bits,
            "otp_bits": otp_total,
            "otp_insecure_bits": insecure_bits,
            "key_generated": int(gen.sum()),
            "key_consumed": int(consumed.sum()),
        },
    )
