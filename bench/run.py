#!/usr/bin/env python3
"""dlsec benchmark: one closed-loop caller driving the library in-process.

    python3 bench/run.py --workload {sweep,lawmix,ledger} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, so the checkout needs no install step.  BLAS threads are pinned
to 1 before numpy loads.

Times are CPU times of the process doing the work: one caller, BLAS on
one thread and no I/O inside an op, so this is the op's wall time less the
time the shared host spent running something else.  They are then scaled
to reference host speed (see refclock.py): a fixed kernel runs between ops
for 8 % of the op time, and every time is multiplied by REF_NOMINAL_S over
the kernel's median time in that phase of the run.  The raw times and the
factors are in the run record.

A run with ``--trace 0`` measures the end-to-end metrics:

    setup_s      median over fresh interpreters of the time from
                 ``import dlsec`` to the end of the workload's first op
    ops_per_s    timed ops per second of op time (checks excluded)
    op_p50_ms    median op latency
    op_tail_ms   latency at the highest percentile that leaves at least 10
                 samples above it (the upper median when fewer than 20 ops ran;
                 the record states the percentile and the counts)
    peak_rss_mb  peak resident set size of this process, read after the
                 timed phase and before the accuracy pass; it includes the
                 reference kernel's fixed 4.6 MiB of arrays

A run with ``--trace 1`` wraps the layer functions (see tracer.py) on every
other pair of ops, leaves the others untraced, and reports per-layer
metrics from the traced ops plus the tracing overhead.  Span times are wall
times, scaled by the same factor; the overhead compares CPU times.

Every op's outputs are checked (workloads.py); the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the run record (environment, failures, accuracy pass, digests), also
written to ``bench/results/``.
"""

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (BLAS threads must be pinned first)
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads as wl  # noqa: E402
from refclock import CLOCK, SHARE, RefClock  # noqa: E402
from tracer import LAYERS, OP_SPAN, Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

TAIL_MIN_BEYOND = 10
SETUP_LAUNCHES = 3
IMPORTTIME_LAUNCHES = 3
REF_TICKS_PER_LAUNCH = 12  # reference kernel runs before each launch
CHILD_TIMEOUT_S = 120
DIGEST_OPS = 24  # covers one full sweep pass

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_tail_ms": "ms", "peak_rss_mb": "MB"}


class MissingProgram(Exception):
    pass


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "dlsec", "__init__.py")):
        raise MissingProgram(f"no dlsec source tree at {SRC}")


def load_program():
    """Import dlsec from the source tree; modules are looked up per call."""
    require_program()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import dlsec  # noqa: F401
    import dlsec.bounds
    import dlsec.fading
    import dlsec.numerics
    import dlsec.policy
    import dlsec.protocol
    import dlsec.rates
    import numpy
    return SimpleNamespace(bounds=dlsec.bounds, fading=dlsec.fading,
                           numerics=dlsec.numerics, policy=dlsec.policy,
                           protocol=dlsec.protocol, rates=dlsec.rates, np=numpy)


# --- statistics ---

def tail_rank(n: int) -> tuple[float, int]:
    """Percentile and 1-based rank of the tail: the highest percentile with
    at least 10 of n samples ranked above it, so the 11th-largest sample.
    Below 20 samples that would fall under the median; the upper median is
    used and the record shows fewer than 10 samples beyond it."""
    k = n - TAIL_MIN_BEYOND if n >= 2 * TAIL_MIN_BEYOND else n // 2 + 1
    return 100.0 * k / n, k


def latency_summary(latencies: list[float], speed: float = 1.0) -> dict:
    """Latency statistics, with times multiplied by ``speed``."""
    vals = sorted(lat * speed for lat in latencies)
    p, k = tail_rank(len(vals))
    return {"samples": len(vals), "p50_ms": statistics.median(vals) * 1e3,
            "tail_percentile": p, "tail_ms": vals[k - 1] * 1e3,
            "samples_beyond_tail": len(vals) - k, "total_s": sum(vals),
            "ops_per_s": len(vals) / sum(vals)}


# --- environment ---

def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_sha256() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "dlsec"))):
        dirnames.sort()
        for fname in sorted(filenames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                h.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(dl, seed: int) -> dict:
    import scipy
    return {"git_sha": git_sha(), "source_sha256": source_sha256(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": dl.np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "seed": seed}


# --- child processes ---

def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable] + args, cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)


def setup_child(workload: str, seed: int) -> None:
    """Time ``import dlsec`` through the end of op 0 in this fresh process."""
    w = wl.WORKLOADS[workload](seed)
    w.op_input(0)
    t0 = CLOCK()
    dl = load_program()
    out = w.run_op(dl, 0)
    elapsed = CLOCK() - t0
    print(json.dumps({"setup_s": elapsed, "errors": w.check(out)}))


def measure_setup(workload: str, seed: int, ref: RefClock) -> dict:
    times = []
    first_tick = len(ref.times)
    for _ in range(SETUP_LAUNCHES):
        for _ in range(REF_TICKS_PER_LAUNCH):
            ref.tick()
        proc = run_child([os.path.abspath(__file__), "--setup-child",
                          "--workload", workload, "--seed", str(seed)])
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        if res["errors"]:
            raise RuntimeError(f"set-up op failed its checks: {res['errors']}")
        times.append(res["setup_s"])
    speed = ref.speed(first_tick)
    return {"launches_raw_s": times, "median_raw_s": statistics.median(times),
            "speed": speed, "median_s": statistics.median(times) * speed}


def parse_importtime(stderr: str) -> dict:
    """scipy.stats' import time and dlsec's own, in ms, from ``-X importtime``.

    The log lists imports in post-order, nested by indentation.  scipy loads
    ``stats`` lazily, so the package itself may have no line: scipy.stats
    time is the cumulative time of the outermost ``scipy.stats*`` lines.
    dlsec's own time is the self time of its modules.
    """
    scipy_stats_us = dlsec_self_us = 0
    open_depth = None  # depth of the enclosing scipy.stats line, if any
    rows = []
    for line in stderr.splitlines():
        fields = line[len("import time:"):].split("|") if line.startswith("import time:") else []
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        name = fields[2].strip()
        depth = (len(fields[2]) - len(fields[2].lstrip()) - 1) // 2
        rows.append((name, depth, int(fields[0]), int(fields[1])))
    # walk in pre-order (reverse of post-order) so a parent precedes its children
    for name, depth, self_us, cum_us in reversed(rows):
        if open_depth is not None and depth <= open_depth:
            open_depth = None
        if open_depth is None and (name == "scipy.stats" or name.startswith("scipy.stats.")):
            scipy_stats_us += cum_us
            open_depth = depth
        if name == "dlsec" or name.startswith("dlsec."):
            dlsec_self_us += self_us
    return {"scipy_stats_ms": scipy_stats_us / 1e3, "dlsec_own_ms": dlsec_self_us / 1e3}


def measure_importtime(ref: RefClock) -> dict:
    runs = []
    first_tick = len(ref.times)
    for _ in range(IMPORTTIME_LAUNCHES):
        for _ in range(REF_TICKS_PER_LAUNCH):
            ref.tick()
        proc = run_child(["-X", "importtime", "-c",
                          f"import sys; sys.path.insert(0, {SRC!r}); import dlsec"])
        runs.append(parse_importtime(proc.stderr))
    speed = ref.speed(first_tick)
    return {k: statistics.median(r[k] for r in runs) * speed for k in runs[0]}


# --- the closed loop ---

class OpLog:
    """Outcome of every op attempted: latencies, failures, digests."""

    def __init__(self, w, dl):
        self.w, self.dl = w, dl
        self.attempted = 0
        self.failures: list[dict] = []
        self.digests: list[dict] = []
        self.key_balance = [0, 0]

    def attempt(self, i: int, tracer=None):
        """Run and check op i; returns its latency in seconds, or None."""
        self.attempted += 1
        root = tracer.begin_op(i) if tracer is not None else None
        t0 = CLOCK()
        try:
            out = self.w.run_op(self.dl, i)
        except Exception as err:  # a raising op is a failed op; keep going
            if tracer is not None:
                tracer.end_op(root)
            self.failures.append({"op": i, "input": self.w.op_input(i), "error": repr(err)})
            return None
        elapsed = CLOCK() - t0
        if tracer is not None:
            tracer.end_op(root)
        try:
            errors = self.w.check(out)
        except Exception as err:  # output the checks cannot read is wrong output
            errors = [f"output check raised {err!r}"]
        if errors:
            self.failures.append({"op": i, "input": self.w.op_input(i), "error": errors})
            return None
        if i < DIGEST_OPS:
            self.digests.append({"op": i, "label": out.label, "sha256": self.w.digest(out)})
        check = getattr(self.dl.protocol, "key_balance_check", None)
        if check is not None and hasattr(out, "report"):
            self.key_balance[0] += bool(check(out.report))
            self.key_balance[1] += 1
        return elapsed


def timed_loop(log: OpLog, first: int, seconds: float, ref: RefClock, tracer=None):
    """Ops first, first+1, ... until ``seconds`` of wall time pass, ending
    on a whole cycle of the workload's op mix (a sweep pass, a full/main
    pair), so that every run times the same mix.  After each op the
    reference kernel runs for its share of the op's time.  With a
    tracer, ops whose index has (i // 2) odd are traced, so both schemes of
    the ledger and all sweep SNRs appear on both sides."""
    plain, traced = [], []
    # joint_grid's LRU statistics, while the program has that cache
    cache_info = getattr(getattr(log.dl.fading, "joint_grid", None), "cache_info", None)
    hits = misses = 0
    i = first
    t_end = time.perf_counter() + seconds
    cycle = log.w.cycle
    while time.perf_counter() < t_end or (i - first) % cycle:
        on = tracer is not None and (i // 2) % 2 == 1
        if on:
            tracer.install(log.dl)
            before = cache_info() if cache_info else None
        t0 = CLOCK()
        lat = log.attempt(i, tracer if on else None)
        busy = CLOCK() - t0
        if on:
            tracer.uninstall()
            if before is not None:
                after = cache_info()
                hits += after.hits - before.hits
                misses += after.misses - before.misses
        if lat is not None:
            (traced if on else plain).append(lat)
        ref.keep_up(busy)
        i += 1
    return plain, traced, (hits, misses)


# --- per-layer metrics ---

def layer_metrics(tracer, traced: list[float], plain: list[float], grid_hm, imports,
                  speed: float) -> dict:
    """Per-layer metrics; times are multiplied by ``speed`` (``imports``
    comes scaled)."""
    spans = tracer.summary()
    c = tracer.counters
    n = max(spans.get(OP_SPAN, {}).get("calls", 0), 1)  # traced ops

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def total_ms(name):
        return spans.get(name, {}).get("total_s", 0.0) * 1e3

    def self_ms(name):
        return spans.get(name, {}).get("self_s", 0.0) * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    def per_call_ms(name):
        return ratio(total_ms(name), calls(name))

    integrals = calls("rates.ergodic_secrecy_rate") + calls("rates.expected_key_share")
    sims = ("protocol.simulate.full", "protocol.simulate.main", "protocol.simulate.baseline")
    m = {
        "numerics.bisect.calls": (calls("numerics.bisect") / n, "count/op"),
        "numerics.bisect.evals": (c["numerics.bisect.evals"] / n, "count/op"),
        "numerics.bisect.ms": (total_ms("numerics.bisect") / n, "ms/op"),
        "numerics.golden_max.calls": (calls("numerics.golden_max") / n, "count/op"),
        "fading.joint_grid.calls": (calls("fading.joint_grid") / n, "count/op"),
        "fading.joint_grid.hit_ratio": (ratio(grid_hm[0], sum(grid_hm)), "ratio"),
        "fading.joint_grid.miss_ms": (c["fading.joint_grid.miss_s"] * 1e3 / n, "ms/op"),
        "fading.expectation.calls": (calls("fading.expectation") / n, "count/op"),
        "fading.expectation.points": (c["fading.expectation.points"] / n, "count/op"),
        "fading.expectation.self_ms": (self_ms("fading.expectation") / n, "ms/op"),
        "fading.inverse_min_moment.ms": (total_ms("fading.inverse_min_moment") / n, "ms/op"),
        "fading.truncated_inverse_moment.ms":
            (total_ms("fading.truncated_inverse_moment") / n, "ms/op"),
        "fading.law_eval.calls": (calls("fading.law_eval") / n, "count/op"),
        "fading.law_eval.ms": (total_ms("fading.law_eval") / n, "ms/op"),
        "fading.sample.ms": (total_ms("fading.sample") / n, "ms/op"),
        "policy.calibrate.calls": (calls("policy.calibrate") / n, "count/op"),
        "policy.calibrate.self_ms": (self_ms("policy.calibrate") / n, "ms/op"),
        "policy.calibrate.distinct_ratio":
            (ratio(c["policy.calibrate.distinct"], calls("policy.calibrate")), "ratio"),
        "rates.per_state_rates.calls": (calls("rates.per_state_rates") / n, "count/op"),
        "rates.per_state_rates.states": (c["rates.per_state_rates.states"] / n, "count/op"),
        "rates.per_state_rates.self_ms": (self_ms("rates.per_state_rates") / n, "ms/op"),
        "rates.integral.distinct_ratio": (ratio(c["rates.integral.distinct"], integrals), "ratio"),
        "bounds.upper_full.ms": (total_ms("bounds.upper_full") / n, "ms/op"),
        "bounds.lower_full.ms": (total_ms("bounds.lower_full") / n, "ms/op"),
        "bounds.upper_main.ms": (total_ms("bounds.upper_main") / n, "ms/op"),
        "bounds.lower_main.ms": (total_ms("bounds.lower_main") / n, "ms/op"),
        "bounds.fixed_point_rate.calls": (calls("bounds.fixed_point_rate") / n, "count/op"),
        "bounds.fixed_point_rate.self_ms": (self_ms("bounds.fixed_point_rate") / n, "ms/op"),
        "bounds.high_snr_limit.ms": (total_ms("bounds.high_snr_limit") / n, "ms/op"),
        "protocol.simulate.full_ms": (per_call_ms("protocol.simulate.full"), "ms/run"),
        "protocol.simulate.main_ms": (per_call_ms("protocol.simulate.main"), "ms/run"),
        "protocol.loop_self_ms": (sum(self_ms(s) for s in sims) / n, "ms/op"),
        "protocol.otp.calls": (calls("protocol.otp") / n, "count/op"),
        "protocol.otp.bits": (c["protocol.otp.bits"] / n, "bit/op"),
        "protocol.otp.ms": (total_ms("protocol.otp") / n, "ms/op"),
        "protocol.keybuffer.ms": (total_ms("protocol.keybuffer") / n, "ms/op"),
        "protocol.to_json.ms": (total_ms("protocol.to_json") / n, "ms/op"),
        "protocol.to_json.bytes": (c["protocol.to_json.bytes"] / n, "B/op"),
        "protocol.csv_text.ms": (total_ms("protocol.csv_text") / n, "ms/op"),
        "protocol.csv_text.bytes": (c["protocol.csv_text.bytes"] / n, "B/op"),
        "protocol.blocks": (c["protocol.blocks"] / n, "count/op"),
        "protocol.starvation": (c["protocol.starvation"] / n, "count/op"),
        "protocol.pad_served_ratio":
            (ratio(c["protocol.pad_requests"] - c["protocol.starvation"],
                   c["protocol.pad_requests"]), "ratio"),
        "setup.scipy_stats_ms": (imports["scipy_stats_ms"], "ms"),
        "setup.dlsec_own_ms": (imports["dlsec_own_ms"], "ms"),
    }
    for layer in LAYERS:
        m[layer + ".self_ms"] = (sum(v["self_s"] for k, v in spans.items()
                                     if k.startswith(layer + ".")) * 1e3 / n, "ms/op")
    op_ms = total_ms(OP_SPAN) / n
    unaccounted = self_ms(OP_SPAN) / n
    plain_rate = len(plain) / (sum(plain) * speed) if plain else 0.0
    traced_rate = len(traced) / (sum(traced) * speed) if traced else 0.0
    m.update({
        "trace.op_ms": (op_ms, "ms/op"),
        "trace.unaccounted_ms": (unaccounted, "ms/op"),
        "trace.unaccounted_frac": (ratio(unaccounted, op_ms), "ratio"),
        "trace.spans": (len(tracer.start) / n, "count/op"),
        "trace.overhead_ops_per_s": (plain_rate - traced_rate, "1/s"),
        "trace.overhead_frac": (ratio(plain_rate - traced_rate, plain_rate), "ratio"),
    })
    for k, (v, u) in m.items():
        if u.startswith("ms/"):
            m[k] = (v * speed, u)
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# --- main ---

def bench(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    require_program()
    record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    ref = RefClock()
    ref.warm()
    if trace:
        imports = measure_importtime(ref)
        record["setup_imports"] = imports
    else:
        record["setup"] = measure_setup(workload, seed, ref)

    w = wl.WORKLOADS[workload](seed)
    dl = load_program()
    record["env"] = environment(dl, seed)
    log = OpLog(w, dl)
    warmup = w.warmup
    for i in range(warmup):
        log.attempt(i)

    tracer = Tracer() if trace else None
    first_tick = len(ref.times)
    plain, traced, grid_hm = timed_loop(log, warmup, seconds, ref, tracer)
    speed = ref.speed(first_tick)
    record["ref"] = dict(ref.summary(first_tick), share=SHARE)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record["ops"] = {"attempted": log.attempted, "failed": len(log.failures),
                     "failed_frac": len(log.failures) / log.attempted,
                     "warmup": warmup, "timed": len(plain) + len(traced),
                     "failures": log.failures[:20]}
    record["digests"] = log.digests
    if log.key_balance[1]:
        record["key_balance_check"] = {"passed": log.key_balance[0], "runs": log.key_balance[1]}

    if trace:
        metrics = layer_metrics(tracer, traced, plain, grid_hm, imports, speed)
        record["latency_untraced"] = latency_summary(plain, speed) if plain else None
        record["latency_traced"] = latency_summary(traced, speed) if traced else None
        os.makedirs(RESULTS, exist_ok=True)
        spans_path = os.path.join(RESULTS, f"{workload}-seed{seed}.spans.jsonl")
        record["spans"] = {"path": os.path.relpath(spans_path, ROOT),
                           "count": tracer.write_jsonl(spans_path)}
    else:
        lat = latency_summary(plain, speed)
        record["latency"] = lat
        record["latency_raw"] = latency_summary(plain)
        record["peak_rss_mb"] = peak_rss_mb
        try:
            record["accuracy"] = wl.accuracy_summary(w.accuracy(dl))
        except Exception as err:  # report it; the accuracy pass does not gate
            record["accuracy"] = {"error": repr(err)}
        values = {"setup_s": record["setup"]["median_s"], "ops_per_s": lat["ops_per_s"],
                  "op_p50_ms": lat["p50_ms"], "op_tail_ms": lat["tail_ms"],
                  "peak_rss_mb": peak_rss_mb}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    result = {"correct": not log.failures, "attempted": log.attempted,
              "failed": len(log.failures), "metrics": metrics}
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_child:
            setup_child(args.workload, args.seed)
            return 0
        record, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except subprocess.CalledProcessError as err:
        print(f"error: child process failed: {err}\n{err.stderr}", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    record_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    text = json.dumps(record, sort_keys=True)
    with open(record_path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
    print(text)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
