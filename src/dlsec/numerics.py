"""Deterministic numeric kernels shared across the package.

Quadrature on the half line (rational map plus Gauss-Legendre) and on
(0, 1) (a tanh-sinh rule, for endpoint singularities), a bisection over
the doubles for roots off the hot path, and seeded Monte Carlo
expectation over :class:`ChannelState` samples with standard-error
reporting.  Everything here is pure: identical inputs give bit-identical
outputs on one machine, and Monte Carlo is reproducible through the
(seed, stream) contract of :class:`RngSeed`.  Every weighted sum in the
package goes through :func:`weighted_sum`, which never calls BLAS, so
results do not depend on the BLAS thread count.

All rates handled downstream are in nats; nothing in this module assumes a
unit beyond "whatever the integrand carries".
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# The canonical gamma shapes accepted: the range the recurrences are tested
# on against scipy.  Far outside it they stall or lose accuracy (at shape
# 1e10, P(k, y) at the median reads 0.49998).
SHAPE_MIN, SHAPE_MAX = 0.05, 50.0

# The quadrature sizes both rules accept.  The cap bounds the cost: leggauss
# is cubic in the size (1.0 s of CPU at 2000), and a pair list holds two
# doubles per node pair with h_m > h_e (about nodes^2 / 2 pairs) and a gap
# one, 4 of each cached: one dlsec sweep at 2000 nodes peaked at 198 MB RSS
# (381 MB with the full nodes^2 grids; 2-vCPU x86-64).  The tests use at most
# 1000, the benchmark 400.
NODES_MIN, NODES_MAX = 8, 2000


class NonFiniteIntegrandError(ValueError):
    """The integrand returned NaN or +-inf at an evaluation point."""


@dataclass(frozen=True)
class RngSeed:
    """Seed plus stream index for reproducible, parallelizable sampling.

    Identical (seed, stream) pairs reproduce identical sample sequences;
    distinct streams give statistically independent draws.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if int(self.stream) < 0:
            raise ValueError(f"stream must be non-negative, got {self.stream}")

    def generator(self, *lane: int) -> np.random.Generator:
        """A fresh PCG64 generator for this (seed, stream) pair.

        Extra ``lane`` keys derive independent sub-streams (the protocol
        simulator draws its channel states from one).
        """
        key = (int(self.stream),) + tuple(int(k) for k in lane)
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=key)
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True, eq=False)
class ChannelState:
    """One fading realization: main and eavesdropper power gains.

    Fields may be scalars or arrays that broadcast together: equal-length
    arrays in the Monte Carlo and simulation paths, and on the node pairs
    of a ``fading.pair_rule`` list.
    """

    h_m: float | np.ndarray
    h_e: float | np.ndarray

    def __post_init__(self):
        for name, value in (("h_m", self.h_m), ("h_e", self.h_e)):
            arr = np.asarray(value, dtype=float)
            if arr.size == 0:
                raise ValueError(f"{name} must not be empty")
            if not np.all(np.isfinite(arr)) or not np.all(arr > 0):
                raise ValueError(f"{name} must be strictly positive and finite")


@dataclass(frozen=True)
class Estimate:
    """An expectation value together with its sampling uncertainty.

    ``stderr`` is zero only for deterministic results (quadrature, or a
    constant integrand).
    """

    mean: float
    stderr: float
    samples: int

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (self.stderr >= 0.0):
            raise ValueError(f"stderr must be >= 0, got {self.stderr}")
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def _check_nodes(nodes: int) -> int:
    if not NODES_MIN <= nodes <= NODES_MAX:
        raise ValueError(f"nodes must be in [{NODES_MIN}, {NODES_MAX}], got {nodes}")
    return int(nodes)


@lru_cache(maxsize=None)
def halfline_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and weights for integrals over (0, inf).

    Fixed change of variables x = t / (1 - t) mapping (0, 1) onto
    (0, inf), on the Gauss-Legendre rule in t.  Tail truncation is
    implicit in the node placement.  Returned arrays are read-only and
    cached, so two calls with the same node count share storage.
    """
    u, w = np.polynomial.legendre.leggauss(_check_nodes(nodes))
    t = 0.5 * (u + 1.0)
    x = t / (1.0 - t)
    weights = 0.5 * w / (1.0 - t) ** 2
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


@lru_cache(maxsize=None)
def tanh_sinh_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tanh-sinh rule on (0, 1) (Takahasi-Mori 1974), in log form.

    s(t) = (1 + tanh((pi/2) sinh t)) / 2 at t = j h, so int_0^1 g(s) ds ~
    h sum_j g(s_j) s'(t_j).  Returns log s, log(1 - s) and log s'(t), each
    from a softplus of pi sinh t (so none underflows or cancels), and the
    steps as a (2, n) array: h everywhere, and 2h on the points with j even
    (the rule of twice the step, for an error estimate at no extra cost).
    h is the coarsest power of two giving at least ``nodes`` points.  The
    rule ends at |t| = T where the left end's weight for the smallest gamma
    shape k, exp(-pi k sinh T), falls below 2^-52: T = 6.5, rounded up to a
    half.  Cached and read-only.
    """
    nodes = _check_nodes(nodes)
    half_width = math.ceil(2.0 * math.asinh(52.0 * math.log(2.0) / (math.pi * SHAPE_MIN))) / 2.0
    h = 2.0 ** -math.ceil(math.log2((nodes - 1) / (2.0 * half_width)))
    n = int(half_width / h)
    t = np.arange(-n, n + 1) * h
    x = math.pi * np.sinh(t)
    log_s = -np.logaddexp(0.0, -x)
    log_1ms = -np.logaddexp(0.0, x)
    # s' = pi cosh t s (1 - s)
    log_ds = np.log(math.pi * np.cosh(t)) + log_s + log_1ms
    steps = np.zeros((2, t.size))
    steps[0] = h
    steps[1, n % 2::2] = 2.0 * h  # the points with j even
    for a in (log_s, log_1ms, log_ds, steps):
        a.flags.writeable = False
    return log_s, log_1ms, log_ds, steps


def weighted_sum(w: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """sum_i w_i y_i over the last axis of ``y``, in a fixed order.

    ``np.einsum`` (without ``optimize``) runs its own summation loop.
    ``np.dot`` and ``@`` hand large vectors to BLAS, whose multithreaded
    kernels split the sum by thread count, so the last bit of a result
    would depend on the machine's BLAS setting.
    """
    out = np.einsum("...i,i->...", y, w)
    return float(out) if out.ndim == 0 else out


def flip_point(pred, lo: float, hi: float) -> tuple[float, float]:
    """The adjacent doubles (a, b) in [lo, hi] with pred(a) false and
    pred(b) true, for a predicate that is false at ``lo``, true at ``hi``
    and flips once between them (neither end is evaluated).

    Non-negative doubles, subnormals and inf included, are ordered as
    their bit patterns read as integers, all below 2^63, so bisecting the
    integers takes at most 63 evaluations and needs no tolerance.
    """
    if not 0.0 <= lo < hi:
        raise ValueError(f"need 0 <= lo < hi, got lo={lo!r}, hi={hi!r}")

    def at(n: int) -> float:
        return struct.unpack("<d", struct.pack("<q", n))[0]

    a, b = (struct.unpack("<q", struct.pack("<d", abs(x)))[0] for x in (lo, hi))
    while b - a > 1:
        mid = (a + b) // 2
        if pred(at(mid)):
            b = mid
        else:
            a = mid
    return at(a), at(b)


def mc_expect(f, dist_m, dist_e, n: int, seed: RngSeed) -> Estimate:
    """Monte Carlo estimate of E[f(h)] over independent channel gains.

    ``f`` maps a ChannelState with array-valued fields to an array of per
    sample values (a scalar is broadcast).  The estimate is deterministic
    given ``seed``; stderr is the sample standard deviation over sqrt(n).
    """
    if n < 100:
        raise ValueError(f"n must be >= 100, got {n}")
    rng = seed.generator()
    h_m = dist_m.sample(rng, n)
    h_e = dist_e.sample(rng, n)
    y = np.broadcast_to(np.asarray(f(ChannelState(h_m, h_e)), dtype=float), (n,))
    bad = ~np.isfinite(y)
    if bad.any():
        i = int(np.argmax(bad))
        raise NonFiniteIntegrandError(
            f"integrand not finite at sample {i} (h_m={h_m[i]:.6g}, h_e={h_e[i]:.6g})"
        )
    mean = float(y.mean())
    stderr = float(y.std(ddof=1) / math.sqrt(n))
    return Estimate(mean=mean, stderr=stderr, samples=n)

