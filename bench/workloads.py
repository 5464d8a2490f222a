"""The three benchmark workloads: inputs, ops, output checks, digests.

Inputs come from the workload seed through ``random.Random`` only, so a
workload can be built (and its inputs listed) before numpy, scipy or dlsec
are imported; set-up timing starts at ``import dlsec``.  Every op calls the
program through module attributes looked up at call time (``dl.bounds.x``),
so the tracer's wrappers are seen when they are installed.

Each workload has:
    cycle            ops in one repeat of its op mix
    warmup           untimed ops run before the timed phase
    op_input(i)      plain description of op i (deterministic in the seed)
    run_op(dl, i)    calls the program and returns its raw outputs
    check(out)       list of failed output checks (empty when correct)
    digest(out)      sha256 of the op's user-visible output
    accuracy(dl)     quadrature-vs-Monte-Carlo checks, or None
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random

# the CLI's tolerance for quadrature vs Monte Carlo (`dlsec validate`)
ACCURACY_SIGMA = 4.0
ACCURACY_FLOOR = 1e-9
# upper >= lower is checked to 1e-9 absolute: bisection for the main-CSI
# fixed point stops at a 1e-10 bracket, so 1e-12 flags converged results
ORDER_TOL = 1e-9
MC_SAMPLES = 200_000

SWEEP_GRID_DB = tuple(float(db) for db in range(0, 41, 2))
NODES = 200
LIMIT_NODES = 400  # as `dlsec bounds` / `dlsec sweep`: max(nodes, 400)
JOINT_GRID_LRU = 64


def pbar_from_db(db: float) -> float:
    return 10.0 ** (db / 10.0)


class BoundsOut:
    """The four bounds and the high-SNR limit for one (law pair, SNR)."""

    KEYS = ("upper_full", "lower_full", "upper_main", "lower_main", "high_snr_limit")

    def __init__(self, label: str, values: dict):
        self.label = label
        self.values = values


def check_bounds(values: dict) -> list[str]:
    errors = []
    for key in BoundsOut.KEYS:
        v = values.get(key)
        if not isinstance(v, float) or not math.isfinite(v) or v < 0.0:
            errors.append(f"{key}={v!r} is not a finite float >= 0")
    if errors:
        return errors
    for hi, lo in (("upper_full", "lower_full"), ("upper_main", "lower_main")):
        if values[hi] < values[lo] - ORDER_TOL:
            errors.append(f"{hi}={values[hi]!r} < {lo}={values[lo]!r} - {ORDER_TOL:g}")
    return errors


def bounds_digest(values: dict) -> str:
    text = ",".join(repr(values[k]) for k in BoundsOut.KEYS)
    return hashlib.sha256(text.encode()).hexdigest()


def four_bounds(dl, dist_m, dist_e, p_bar) -> dict:
    b = dl.bounds
    return {
        "upper_full": b.upper_full(dist_m, dist_e, p_bar, nodes=NODES).value,
        "lower_full": b.lower_full(dist_m, dist_e, p_bar, nodes=NODES).value,
        "upper_main": b.upper_main(dist_m, dist_e, p_bar, nodes=NODES).value,
        "lower_main": b.lower_main(dist_m, dist_e, p_bar, nodes=NODES).value,
    }


def secrecy_rate_check(dl, label, pol, dist_m, dist_e, seed, stream):
    """E[r_s] under ``pol``: quadrature against Monte Carlo."""
    quad = dl.rates.ergodic_secrecy_rate(pol, dist_m, dist_e, NODES)
    est = dl.numerics.mc_expect(
        lambda st: dl.rates.per_state_rates(pol, st).r_s,
        dist_m, dist_e, MC_SAMPLES, dl.numerics.RngSeed(seed, stream))
    return (label, quad, est.mean, est.stderr)


def high_snr_check(dl, label, dist_m, dist_e, seed, stream):
    """E[(log(h_m/h_e))^+]: quadrature against Monte Carlo."""
    np = dl.np
    quad = dl.bounds.high_snr_limit(dist_m, dist_e, nodes=LIMIT_NODES).value
    est = dl.numerics.mc_expect(
        lambda st: np.maximum(np.log(st.h_m / st.h_e), 0.0),
        dist_m, dist_e, MC_SAMPLES, dl.numerics.RngSeed(seed, stream))
    return (label, quad, est.mean, est.stderr)


class Sweep:
    """`dlsec sweep` on chisq:4/chisq:4 over 0:40:2 dB at 200 nodes.

    One op is the four bounds at one SNR; the high-SNR limit runs once per
    pass over the grid, at the pass's first op, as the CLI does.  The seed
    picks the grid point the passes start from and the Monte Carlo seed.
    """

    name = "sweep"
    cycle = len(SWEEP_GRID_DB)
    warmup = len(SWEEP_GRID_DB)  # fills the joint_grid cache
    law_pair = ("chisq:4", "chisq:4")
    accuracy_db = (0.0, 10.0, 20.0, 30.0, 40.0)
    accuracy_families = ("const", "full-inv", "main-inv", "trunc-inv")

    def __init__(self, seed: int):
        self.seed = seed
        self.start = random.Random(seed).randrange(len(SWEEP_GRID_DB))
        self._limit = None

    def op_input(self, i: int) -> dict:
        k = (self.start + i) % len(SWEEP_GRID_DB)
        return {"dist_m": self.law_pair[0], "dist_e": self.law_pair[1],
                "snr_db": SWEEP_GRID_DB[k],
                "pass_start": i % len(SWEEP_GRID_DB) == 0}

    def run_op(self, dl, i: int) -> BoundsOut:
        inp = self.op_input(i)
        dist_m = dl.fading.parse_distribution(inp["dist_m"])
        dist_e = dl.fading.parse_distribution(inp["dist_e"])
        if inp["pass_start"]:
            self._limit = dl.bounds.high_snr_limit(dist_m, dist_e, nodes=LIMIT_NODES)
        values = four_bounds(dl, dist_m, dist_e, pbar_from_db(inp["snr_db"]))
        values["high_snr_limit"] = self._limit.value
        return BoundsOut(f"{inp['dist_m']}/{inp['dist_e']}@{inp['snr_db']:g}dB", values)

    def check(self, out: BoundsOut) -> list[str]:
        return check_bounds(out.values)

    def digest(self, out: BoundsOut) -> str:
        return bounds_digest(out.values)

    def accuracy(self, dl) -> list[tuple]:
        dist_m = dl.fading.parse_distribution(self.law_pair[0])
        dist_e = dl.fading.parse_distribution(self.law_pair[1])
        pair = "/".join(self.law_pair)
        checks = [high_snr_check(dl, f"high_snr_limit[{pair}]", dist_m, dist_e, self.seed, 0)]
        stream = 1
        for db in self.accuracy_db:
            for entry in self.accuracy_families:
                family, h_min = dl.bounds.resolve_menu_entry(entry, dist_m)
                pol = dl.policy.calibrate(family, dist_m, dist_e, pbar_from_db(db), h_min)
                checks.append(secrecy_rate_check(
                    dl, f"E[r_s][{pair}/{entry}@{db:g}dB]", pol, dist_m, dist_e,
                    self.seed, stream))
                stream += 1
        return checks


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + rng.random() * (math.log(hi) - math.log(lo)))


def random_law(rng: random.Random) -> str:
    """One law from the lawmix menu, as a grammar string.

    gamma 40 %, chisq 25 %, exp 25 %, const 10 %.  Gamma shapes 0.3-8
    include non-invertible laws (shape <= 1); scales and means span
    1e-3-1e3, far from the quadrature map's unit centre.
    """
    u = rng.random()
    if u < 0.40:
        shape = 0.3 + rng.random() * 7.7
        return f"gamma:{shape:.6g}:{_log_uniform(rng, 1e-3, 1e3):.6g}"
    if u < 0.65:
        return f"chisq:{1 + int(rng.random() * 8)}"
    if u < 0.90:
        return f"exp:{_log_uniform(rng, 1e-3, 1e3):.6g}"
    return f"const:{_log_uniform(rng, 1e-3, 1e3):.6g}"


class LawMix:
    """A seeded stream of distinct law pairs, one op each.

    One op is the four bounds plus the high-SNR limit at an SNR drawn from
    0-50 dB.  No pair repeats, so every op misses the 64-entry joint_grid
    LRU and builds a fresh grid.
    """

    name = "lawmix"
    cycle = 1
    warmup = 5
    accuracy_pairs = 40

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self._inputs: list[dict] = []
        self._seen: set[tuple[str, str]] = set()

    def op_input(self, i: int) -> dict:
        while len(self._inputs) <= i:
            pair = (random_law(self._rng), random_law(self._rng))
            snr_db = round(self._rng.random() * 50.0, 6)
            if pair in self._seen:
                continue
            self._seen.add(pair)
            self._inputs.append({"dist_m": pair[0], "dist_e": pair[1], "snr_db": snr_db})
        return self._inputs[i]

    def run_op(self, dl, i: int) -> BoundsOut:
        inp = self.op_input(i)
        dist_m = dl.fading.parse_distribution(inp["dist_m"])
        dist_e = dl.fading.parse_distribution(inp["dist_e"])
        limit = dl.bounds.high_snr_limit(dist_m, dist_e, nodes=LIMIT_NODES)
        values = four_bounds(dl, dist_m, dist_e, pbar_from_db(inp["snr_db"]))
        values["high_snr_limit"] = limit.value
        return BoundsOut(f"{inp['dist_m']}/{inp['dist_e']}@{inp['snr_db']:g}dB", values)

    def check(self, out: BoundsOut) -> list[str]:
        return check_bounds(out.values)

    def digest(self, out: BoundsOut) -> str:
        return bounds_digest(out.values)

    def accuracy(self, dl) -> list[tuple]:
        """Const-power E[r_s] and the high-SNR limit on the stream's first pairs."""
        checks = []
        for i in range(self.accuracy_pairs):
            inp = self.op_input(i)
            dist_m = dl.fading.parse_distribution(inp["dist_m"])
            dist_e = dl.fading.parse_distribution(inp["dist_e"])
            pair = f"{inp['dist_m']}/{inp['dist_e']}"
            pol = dl.policy.calibrate("const", dist_m, dist_e, pbar_from_db(inp["snr_db"]))
            checks.append(secrecy_rate_check(
                dl, f"E[r_s][{pair}/const@{inp['snr_db']:g}dB]", pol, dist_m, dist_e,
                self.seed, 2 * i))
            checks.append(high_snr_check(
                dl, f"high_snr_limit[{pair}]", dist_m, dist_e, self.seed, 2 * i + 1))
        return checks


class LedgerOut:
    def __init__(self, label, report, json_text, csv_text):
        self.label = label
        self.report = report
        self.json_text = json_text
        self.csv_text = csv_text


def check_ledger(roundtrip_ok: bool, json_text: str, csv_text: str) -> list[str]:
    """Ledger invariants, recomputed from the serialized outputs."""
    errors = []
    if roundtrip_ok is not True:
        errors.append(f"roundtrip_ok is {roundtrip_ok!r}")
    try:
        doc = json.loads(json_text)
        cfg, cols, totals = doc["config"], doc["records"], doc["totals"]
        a, b, scheme = int(cfg["a"]), int(cfg["b"]), cfg["scheme"]
    except (ValueError, KeyError, TypeError) as err:
        return errors + [f"JSON does not parse back to a ledger: {err!r}"]
    if doc.get("roundtrip_ok") is not True:
        errors.append("JSON roundtrip_ok is not true")
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != a * b:
        errors.append(f"CSV has {len(rows)} data rows, want a*b = {a * b}")
    for name in ("key_generated", "key_consumed", "data_delivered", "insecure_bits"):
        want = totals.get(name)
        if sum(cols.get(name, [])) != want:
            errors.append(f"totals[{name}]={want!r} != JSON column sum")
        if sum(int(r[name]) for r in rows) != want:
            errors.append(f"totals[{name}]={want!r} != CSV column sum")
    # key bits become spendable at block end (full) or super-block end (main)
    pool = pending = 0
    ms, gen, cons = cols.get("m", []), cols.get("key_generated", []), cols.get("key_consumed", [])
    for k in range(min(len(ms), len(gen), len(cons))):
        if k and ms[k] != ms[k - 1]:
            pool, pending = pool + pending, 0
        if cons[k] > pool:
            errors.append(f"block {k} consumed {cons[k]} key bits with {pool} committed")
            break
        pool -= cons[k]
        if scheme == "main":
            pending += gen[k]
        else:
            pool += gen[k]
    return errors


class Ledger:
    """`dlsec simulate` at the CLI defaults, alternating full and main.

    chisq:4 pair, 20 dB, a=500, b=20, n1=10 000, delta=0.05, a fresh
    simulation seed per op; each run is serialized to JSON and CSV as the
    CLI writes them.
    """

    name = "ledger"
    cycle = 2
    warmup = 1
    schemes = ("full", "main")

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)
        self._seeds: list[int] = []

    def op_input(self, i: int) -> dict:
        while len(self._seeds) <= i:
            self._seeds.append(self._rng.getrandbits(32))
        return {"scheme": self.schemes[i % 2], "dist_m": "chisq:4", "dist_e": "chisq:4",
                "pbar_db": 20.0, "a": 500, "b": 20, "n1": 10_000, "delta": 0.05,
                "sim_seed": self._seeds[i]}

    def run_op(self, dl, i: int) -> LedgerOut:
        inp = self.op_input(i)
        config = dl.protocol.SimConfig(
            scheme=inp["scheme"],
            dist_m=dl.fading.parse_distribution(inp["dist_m"]),
            dist_e=dl.fading.parse_distribution(inp["dist_e"]),
            p_bar=pbar_from_db(inp["pbar_db"]),
            a=inp["a"], b=inp["b"], n1=inp["n1"], delta=inp["delta"],
            seed=dl.numerics.RngSeed(inp["sim_seed"]))
        report = dl.protocol.simulate(config)
        return LedgerOut(f"{inp['scheme']}@seed{inp['sim_seed']}", report,
                         report.to_json(), report.csv_text())

    def check(self, out: LedgerOut) -> list[str]:
        return check_ledger(out.report.roundtrip_ok, out.json_text, out.csv_text)

    def digest(self, out: LedgerOut) -> str:
        return (hashlib.sha256(out.json_text.encode()).hexdigest() + ":"
                + hashlib.sha256(out.csv_text.encode()).hexdigest())

    def accuracy(self, dl):
        return None


WORKLOADS = {w.name: w for w in (Sweep, LawMix, Ledger)}


def accuracy_summary(checks: list[tuple] | None) -> dict | None:
    """Fail fraction under |quad - MC| > 4 stderr + 1e-9, every failed
    check, and the worst one in standard errors.

    Checks whose integrand is 0 in every draw have stderr 0: they fail when
    quad is off by more than 1e-9, and the largest such miss is reported
    apart from the sigma ranking.
    """
    if checks is None:
        return None
    failures, worst, worst_zero = [], None, None
    for label, quad, mc, stderr in checks:
        diff = abs(quad - mc)
        case = {"check": label, "quad": quad, "mc": mc, "stderr": stderr}
        if diff > ACCURACY_SIGMA * stderr + ACCURACY_FLOOR:
            failures.append(case)
        if stderr > 0.0:
            case["sigmas"] = diff / stderr
            if worst is None or case["sigmas"] > worst["sigmas"]:
                worst = case
        elif worst_zero is None or diff > abs(worst_zero["quad"] - worst_zero["mc"]):
            worst_zero = case
    return {"checks": len(checks), "failed": len(failures),
            "accuracy_fail_frac": len(failures) / len(checks), "mc_samples": MC_SAMPLES,
            "worst": worst, "worst_zero_stderr": worst_zero, "failures": failures}
