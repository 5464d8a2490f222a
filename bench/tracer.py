"""Spans around dlsec's layer functions, installed from outside the program.

The library binds names with ``from .x import y``, so a function has one
binding per importing module.  :meth:`Tracer.install` replaces every
binding of each target in every loaded ``dlsec`` module (and the methods on
the target classes) with a wrapper that records a span, and
:meth:`Tracer.uninstall` puts the originals back.  Targets missing from the
program are skipped, so the same harness runs against a refactored tree.

Spans are kept in memory as parallel arrays (name, start, end, parent, op)
and written once, as JSON lines, by :meth:`Tracer.write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

OP_SPAN = "op"
LAYERS = ("numerics", "fading", "policy", "rates", "bounds", "protocol")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children may be given in any order and may overlap; their union is
    clipped to the parent's interval.
    """
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered, reach = 0.0, s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counters: Counter = Counter()
        self.op_sets: dict[str, set] = defaultdict(set)
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []

    # --- spans ---

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> float:
        t = time.perf_counter()
        self.end[idx] = t
        self._stack.pop()
        return t - self.start[idx]

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one op; per-op distinct sets start empty."""
        self._op = op_id
        self.op_sets.clear()
        return self.open(OP_SPAN)

    def end_op(self, idx: int) -> float:
        for key, seen in self.op_sets.items():
            self.counters[key + ".distinct"] += len(seen)
        self.op_sets.clear()
        return self.close(idx)

    # --- wrapping ---

    def wrap(self, name, fn, before=None, after=None):
        """``name`` is a string or a function of the call's args giving one.
        ``before(args, kwargs)`` may return replacement (args, kwargs);
        ``after(args, kwargs, result, seconds)`` records counters."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = fn(*args, **kwargs)
            finally:
                seconds = tracer.close(idx)
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        return wrapper

    def patch_function(self, fn, wrapper) -> None:
        """Rebind every module-level binding of ``fn`` in loaded dlsec modules."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dlsec" or mod_name.startswith("dlsec.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def patch_method(self, cls, attr, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self, dl) -> None:
        """Wrap the layer functions of the loaded program (see module doc)."""
        c = self.counters
        sets = self.op_sets

        def fn(module, attr):
            return getattr(getattr(dl, module), attr, None)

        def add(span, f, before=None, after=None):
            if f is not None:
                self.patch_function(f, self.wrap(span, f, before, after))

        def method(span, cls, attr, after=None):
            if cls is not None and attr in vars(cls):
                self.patch_method(cls, attr, self.wrap(span, vars(cls)[attr], after=after))

        # numerics
        def count_evals(args, kwargs):
            g = args[0]

            def counted(r):
                c["numerics.bisect.evals"] += 1
                return g(r)
            return (counted,) + args[1:], kwargs

        add("numerics.bisect", fn("numerics", "bisect"), before=count_evals)
        add("numerics.golden_max", fn("numerics", "golden_max"))

        # fading
        joint_grid = fn("fading", "joint_grid")
        if hasattr(joint_grid, "cache_info"):
            misses = [0]

            def mark_misses(args, kwargs):
                misses[0] = joint_grid.cache_info().misses
                return args, kwargs

            def miss_time(args, kwargs, result, seconds):
                if joint_grid.cache_info().misses != misses[0]:
                    c["fading.joint_grid.miss_s"] += seconds

            add("fading.joint_grid", joint_grid, before=mark_misses, after=miss_time)
        else:
            add("fading.joint_grid", joint_grid)

        def count_points(args, kwargs):
            f = args[0]

            def counted(state):
                c["fading.expectation.points"] += getattr(state.h_m, "size", 1)
                return f(state)
            return (counted,) + args[1:], kwargs

        add("fading.expectation", fn("fading", "expectation"), before=count_points)
        add("fading.inverse_min_moment", fn("fading", "inverse_min_moment"))
        add("fading.truncated_inverse_moment", fn("fading", "truncated_inverse_moment"))
        law = fn("fading", "FadingDistribution")
        for attr in ("pdf", "cdf", "quantile"):
            method("fading.law_eval", law, attr)
        method("fading.sample", law, "sample")

        # policy
        def calib_key(args, kwargs, result, seconds):
            sets["policy.calibrate"].add((args, tuple(sorted(kwargs.items()))))

        add("policy.calibrate", fn("policy", "calibrate"), after=calib_key)

        # rates
        def count_states(args, kwargs, result, seconds):
            state = args[1] if len(args) > 1 else kwargs["state"]
            c["rates.per_state_rates.states"] += getattr(state.h_m, "size", 1)

        add("rates.per_state_rates", fn("rates", "per_state_rates"), after=count_states)

        # E[r_s] is E[r_s'] at q = h_e; a q made by q_threshold carries its kappa
        def integral_key(q_pos):
            def after(args, kwargs, result, seconds):
                q = None
                if q_pos is not None:
                    q = args[q_pos] if len(args) > q_pos else kwargs.get("q")
                kappa = 0.0 if q is None else getattr(q, "bench_kappa", object())
                n_pos = 3 if q_pos is None else q_pos + 1
                nodes = args[n_pos] if len(args) > n_pos else kwargs.get("nodes", 200)
                sets["rates.integral"].add((args[:3], nodes, kappa))
            return after

        q_threshold = fn("rates", "q_threshold")
        if q_threshold is not None:
            @functools.wraps(q_threshold)
            def tagged_q_threshold(kappa=0.0):
                q = q_threshold(kappa)
                q.bench_kappa = float(kappa)
                return q

            self.patch_function(q_threshold, tagged_q_threshold)
        add("rates.ergodic_secrecy_rate", fn("rates", "ergodic_secrecy_rate"),
            after=integral_key(None))
        add("rates.expected_key_share", fn("rates", "expected_key_share"),
            after=integral_key(3))

        # bounds
        for attr in ("upper_full", "lower_full", "upper_main", "lower_main",
                     "fixed_point_rate", "high_snr_limit"):
            add("bounds." + attr, fn("bounds", attr))

        # protocol
        def sim_name(args, kwargs):
            config = args[0] if args else kwargs["config"]
            return "protocol.simulate." + config.scheme

        def sim_outcome(args, kwargs, report, seconds):
            cfg = report.config
            c["protocol.blocks"] += len(report.records)
            c["protocol.starvation"] += report.starvation_events
            c["protocol.pad_requests"] += cfg.a * (cfg.b - 1)

        add(sim_name, fn("protocol", "simulate"), after=sim_outcome)

        def otp_bits(args, kwargs, result, seconds):
            c["protocol.otp.bits"] += getattr(result, "size", 0)

        add("protocol.otp", fn("protocol", "otp"), after=otp_bits)
        buffer_cls = fn("protocol", "KeyBuffer")
        for attr in ("generate", "commit_pending", "consume"):
            method("protocol.keybuffer", buffer_cls, attr)
        report_cls = fn("protocol", "SimReport")

        def text_bytes(key):
            def after(args, kwargs, result, seconds):
                c[key] += len(result)
            return after

        method("protocol.to_json", report_cls, "to_json", after=text_bytes("protocol.to_json.bytes"))
        method("protocol.csv_text", report_cls, "csv_text", after=text_bytes("protocol.csv_text.bytes"))

    # --- output ---

    def write_jsonl(self, path: str) -> int:
        """One span per line: name, start and end (s), parent index, op id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.op[i]]) + "\n")
        return len(self.start)

    def summary(self) -> dict:
        """Per span name: calls, total duration and total self time (s)."""
        selfs = self_times(self.start, self.end, self.parent)
        out: dict[str, dict] = {}
        for i, nid in enumerate(self.name):
            agg = out.setdefault(self.names[nid], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += self.end[i] - self.start[i]
            agg["self_s"] += selfs[i]
        return out

