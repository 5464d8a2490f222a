"""Deterministic numeric kernels shared across the package.

Quadrature on the half line (rational map plus Gauss-Legendre) and
seeded Monte Carlo expectation with standard-error reporting.  Everything
here is pure: identical inputs give bit-identical outputs on one machine,
and Monte Carlo is reproducible through the (seed, stream) contract of
:class:`RngSeed`.  Every weighted
sum in the package goes through :func:`weighted_sum`, which never calls
BLAS, so results do not depend on the BLAS thread count.

All rates handled downstream are in nats; nothing in this module assumes a
unit beyond "whatever the integrand carries".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


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


@lru_cache(maxsize=None)
def halfline_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and weights for integrals over (0, inf).

    Fixed change of variables x = t / (1 - t) mapping (0, 1) onto
    (0, inf), with Gauss-Legendre nodes on (0, 1).  Tail truncation is
    implicit in the node placement.  Returned arrays are read-only and
    cached, so two calls with the same node count share storage.
    """
    if nodes < 8:
        raise ValueError(f"nodes must be >= 8, got {nodes}")
    u, w = np.polynomial.legendre.leggauss(int(nodes))
    t = 0.5 * (u + 1.0)
    x = t / (1.0 - t)
    weights = 0.5 * w / (1.0 - t) ** 2
    x.flags.writeable = False
    weights.flags.writeable = False
    return x, weights


@lru_cache(maxsize=None)
def unit_nodes(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre abscissas and weights on (0, 1), read-only."""
    if nodes < 8:
        raise ValueError(f"nodes must be >= 8, got {nodes}")
    u, w = np.polynomial.legendre.leggauss(int(nodes))
    t = 0.5 * (u + 1.0)
    wt = 0.5 * w
    t.flags.writeable = False
    wt.flags.writeable = False
    return t, wt


def weighted_sum(w: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """sum_i w_i y_i over the last axis of ``y``, in a fixed order.

    ``np.einsum`` (without ``optimize``) runs its own summation loop.
    ``np.dot`` and ``@`` hand large vectors to BLAS, whose multithreaded
    kernels split the sum by thread count, so the last bit of a result
    would depend on the machine's BLAS setting.
    """
    out = np.einsum("...i,i->...", y, w)
    return float(out) if out.ndim == 0 else out


def mc_expect(f, dist_m, dist_e, n: int, seed: RngSeed) -> Estimate:
    """Monte Carlo estimate of E[f(h)] over independent channel gains.

    ``f`` maps a ChannelState with array-valued fields to an array of per
    sample values (a scalar is broadcast).  The estimate is deterministic
    given ``seed``; stderr is the sample standard deviation over sqrt(n).
    """
    from .fading import ChannelState  # runtime import avoids a module cycle

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

