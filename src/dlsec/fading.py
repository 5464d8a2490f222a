"""Channel power-gain distributions and the moments gating channel inversion.

Continuous gains are all members of the gamma family in a canonical
(shape, scale) form: a chi-square with k degrees of freedom is
Gamma(k/2, 2) and an exponential with mean mu is Gamma(1, mu).  A
degenerate point mass is kept separate because it has no density.

Divergence of inverse moments is decided by :func:`invertible` from the
density exponent near zero (finite iff density ~ C*x^a with a > 0, i.e.
shape > 1), never numerically: quadrature silently truncates the
singularity and would report a misleading finite number.  A finite moment
past the float range (gamma:1.5:1e-323) reads inf, reported as overflow.

The gamma law is evaluated with numpy and :mod:`math` alone.  The cdf is
the regularized lower incomplete gamma P(k, y): a power series below
y = k + 1 and a modified-Lentz continued fraction for Q = 1 - P above it
(Numerical Recipes 3rd ed. section 6.2; DLMF 8.7.1 and 8.9.2), in pure
:mod:`math` on one scalar; an array maps it element by element.  The
inverse moments that calibrate channel inversion are closed forms on the
same recurrences, an incomplete gamma of order in (-1, 1] and the
regularized incomplete beta (Numerical Recipes section 6.4), so they hold
for every scale the grammar accepts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# ChannelState is defined in the leaf module numerics and re-exported here.
from .numerics import (SHAPE_MAX, SHAPE_MIN, ChannelState, RngSeed, flip_point,
                       halfline_nodes, weighted_sum)

# Every kind of the grammar, once: its parameter count and the map from its
# parameters to its canonical gamma (shape, scale), None for the point mass.
_KINDS = {
    "chisq": (1, lambda dof: (dof / 2.0, 2.0)),
    "gamma": (2, lambda shape, scale: (shape, scale)),
    "exp": (1, lambda mean: (1.0, mean)),
    "const": (1, None),
}
_EPS = 2.0 ** -52  # the series stops once a term is below this share of the sum
# The fraction's last factors round to within 2 ulps of 1 at random, so it
# stops at 4 ulps; a test of 1 ulp could wait forever on one element.
_CF_TOL = 4.0 * _EPS
_FLOAT_MAX = float(np.finfo(float).max)
_TINY = float(np.finfo(float).tiny)  # the smallest normal float
_EULER_GAMMA = 0.5772156649015329


def _gamma_cf(k: float, y: float) -> float:
    """The h with Gamma(k, y) = y^k e^-y h, by the modified-Lentz continued
    fraction (DLMF 8.9.2) at y >= max(k + 1, 1).  There its Lentz ratios
    stay positive (c > b/2 and d > 7e-5/b, b the current partial denominator,
    on shapes 1e-4 to 1e5 and on orders -1 to 1), so it needs no zero guard.
    """
    b = y + 1.0 - k
    c = math.inf
    d = h = 1.0 / b
    for i in itertools.count(1):
        an = -i * (i - k)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        h *= d * c
        if abs(d * c - 1.0) <= _CF_TOL:
            return h


def _gamma_pq(k: float, y: float) -> tuple[float, float]:
    """(P(k, y), Q(k, y)) in pure :mod:`math`; the ends y <= 0 and y = inf
    are exact, and NaN stays NaN.

    Whichever of the two the recurrence computes (P by the series below
    y = k + 1, Q by :func:`_gamma_cf` above) is accurate to a few ulps
    relative, far tails included; the other is its complement.
    """
    if not 0.0 < y < math.inf:
        p = math.nan if math.isnan(y) else float(y > 0.0)
        return p, 1.0 - p
    log_front = k * math.log(y) - y - math.lgamma(k)
    if y < k + 1.0:
        term = total = 1.0 / k
        kn = k
        while term >= total * _EPS:
            kn += 1.0
            term *= y / kn
            total += term
        p = math.exp(log_front) * total
        return p, 1.0 - p
    q = math.exp(log_front) * _gamma_cf(k, y)
    return 1.0 - q, q


def _upper_gamma(a: float, y: float) -> float:
    """Gamma(a, y) for -1 < a <= 1 and finite y > 0, where Q = 1 - P cancels.

    From y = 1 on, the continued fraction; below, Gamma(a, 1) plus
    int_y^1 t^(a-1) e^-t dt = sum_n (-1)^n (1 - y^(a+n)) / (n! (a+n)) (-log y
    at n = a = 0), which is at least 1/e of its first term: no cancellation.
    """
    if y >= 1.0:
        return math.exp(a * math.log(y) - y) * _gamma_cf(a, y)
    log_y = math.log(y)
    total = math.exp(-1.0) * _gamma_cf(a, 1.0)
    for n in itertools.count():
        e = a + n
        term = (-log_y if e == 0.0 else -math.expm1(e * log_y) / e) / math.factorial(n)
        total += -term if n % 2 else term
        if term < total * _EPS:
            return total


def _beta_reg(a: float, b: float, x: float, x1: float) -> float:
    """I_x(a, b), with x1 = 1 - x given apart so both keep their relative
    accuracy: the continued fraction of Numerical Recipes 3rd ed. section
    6.4, on 1 - I_x1(b, a) past x = (a+1)/(a+b+2).  Below that its Lentz
    denominators stay at or above the first, 2/(a+b+2) (checked for a, b in
    (0, 50]), so it needs no zero guard.  0 or 1 where x or x1 is 0.
    """
    if x <= 0.0 or x1 <= 0.0:
        return 0.0 if x <= 0.0 else 1.0
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, x1 = b, a, x1, x
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(x1)) / a
    c = 1.0
    d = h = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    for m in itertools.count(1):
        for an in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 / (1.0 + an * d)
            c = 1.0 + an / c
            h *= d * c
        if abs(d * c - 1.0) <= _CF_TOL:
            return 1.0 - front * h if flip else front * h


def _gamma_quantile(k: float, p: float) -> float:
    """The y with P(k, y) = p, for 0 < p < 1: the lower of the two adjacent
    doubles where the test flips (so 0.0 where the quantile underflows).
    The test is P >= p where P <= 1/2 and Q <= 1 - p above the median (1 - p
    is exact for p > 1/2), so each tail keeps its relative accuracy.
    """
    def above(y: float) -> bool:
        lower, upper = _gamma_pq(k, y)
        return lower >= p if lower <= 0.5 else upper <= 1.0 - p

    return flip_point(above, 0.0, math.inf)[0]


@dataclass(frozen=True)
class FadingDistribution:
    """Law of a channel power gain.

    Kinds:
        chisq   chi-square with ``dof`` degrees of freedom (= Gamma(dof/2, 2))
        gamma   Gamma(shape, scale)
        exp     exponential with the given mean (= Gamma(1, mean))
        const   degenerate point mass (not absolutely continuous)
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        p = tuple(float(v) for v in self.params)
        object.__setattr__(self, "params", p)
        arity = _KINDS[self.kind][0]
        if len(p) != arity:
            raise ValueError(f"{self.kind} takes {arity} parameter(s), got {p}")
        if not all(0.0 < v < math.inf for v in p):
            raise ValueError(f"{self.kind} needs positive finite parameters, got {p}")
        if self.kind == "chisq" and not p[0].is_integer():
            raise ValueError(f"chisq needs a positive integer dof, got {p}")
        if not self.is_degenerate and not SHAPE_MIN <= self.shape <= SHAPE_MAX:
            raise ValueError(f"gamma shape {self.shape:g} of {self.kind} is outside "
                             f"[{SHAPE_MIN:g}, {SHAPE_MAX:g}], where the law is evaluated")

    # --- structure ---

    @property
    def is_degenerate(self) -> bool:
        return _KINDS[self.kind][1] is None

    def _gamma(self, name: str) -> tuple[float, float]:
        to_gamma = _KINDS[self.kind][1]
        if to_gamma is None:
            raise ValueError(f"a point mass has no gamma {name}")
        return to_gamma(*self.params)

    @property
    def shape(self) -> float:
        """Canonical gamma shape of a continuous law."""
        return self._gamma("shape")[0]

    @property
    def scale(self) -> float:
        """Canonical gamma scale of a continuous law."""
        return self._gamma("scale")[1]

    @property
    def support_min(self) -> float:
        """Lower edge of the support (0 for every continuous kind)."""
        return self.params[0] if self.is_degenerate else 0.0

    def spec(self) -> str:
        """Back to the grammar string, e.g. 'chisq:4' or 'gamma:2:1'."""
        return ":".join([self.kind] + [f"{v:g}" for v in self.params])

    # --- law ---

    def pdf(self, x) -> float | np.ndarray:
        """Density at x > 0; a point mass has none."""
        if self.is_degenerate:
            raise ValueError("not absolutely continuous: a point mass has no density")
        arr = np.asarray(x, dtype=float)
        if not np.all(arr > 0):
            raise ValueError("pdf is defined for x > 0 only")
        k, theta = self.shape, self.scale
        with np.errstate(over="ignore"):  # e^-y is 0 wherever x / theta overflows
            y = np.minimum(arr / theta, _FLOAT_MAX)
        out = np.exp((k - 1.0) * np.log(y) - y - math.lgamma(k)) / theta
        return float(out) if arr.ndim == 0 else out

    def cdf(self, x) -> float | np.ndarray:
        """P(h <= x): 0 below the support, 1 at x = inf, NaN at NaN."""
        arr = np.asarray(x, dtype=float)
        if self.is_degenerate:
            out = (arr >= self.params[0]).astype(float)
        else:
            k, theta = self.shape, self.scale
            out = np.reshape([_gamma_pq(k, v / theta)[0] for v in arr.ravel().tolist()], arr.shape)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        """The x with P(h <= x) = p, 0 < p < 1; below the smallest normal
        float (2.2e-308) only roughly, and 0.0 where it underflows."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {p}")
        if self.is_degenerate:
            return self.params[0]
        return self.scale * _gamma_quantile(self.shape, float(p))

    def sample(self, rng: RngSeed | np.random.Generator, n: int) -> np.ndarray:
        """n iid draws; deterministic given an RngSeed."""
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if isinstance(rng, RngSeed):
            rng = rng.generator()
        if self.is_degenerate:
            return np.full(n, self.params[0])
        # numpy draws chisquare(d) as 2 * standard_gamma(d / 2) and
        # exponential(mu) as mu * standard_exponential, which standard_gamma
        # returns at shape 1, so one call gives the same bits for every kind.
        return rng.gamma(self.shape, self.scale, n)


def parse_distribution(text: str) -> FadingDistribution:
    """Parse the grammar ``chisq:4 | gamma:2:1 | exp:1 | const:2.5``.

    Case-insensitive; raises ValueError on anything else, naming the text.
    """
    kind, *parts = [p.strip() for p in str(text).strip().lower().split(":")]
    try:
        args = tuple(float(p) for p in parts)
    except ValueError:
        raise ValueError(f"bad distribution spec {text!r}: non-numeric parameter") from None
    try:
        return FadingDistribution(kind, args)
    except ValueError as err:
        raise ValueError(f"bad distribution spec {text!r}: {err}") from None


def invertible(*laws: FadingDistribution) -> bool:
    """Whether E[1/h] (so E[1/min(h_m, h_e)]) is finite: every continuous shape > 1."""
    return all(d.is_degenerate or d.shape > 1.0 for d in laws)


def inverse_moment(dist: FadingDistribution) -> float:
    """E[1/h], or math.inf when the integral diverges (see :func:`invertible`)
    or its value overflows the float range.

    For Gamma(k, theta) this is 1/((k-1)*theta) when k > 1 and divergent
    otherwise; a point mass at v gives 1/v.
    """
    if not invertible(dist):
        return math.inf
    scale = dist.params[0] if dist.is_degenerate else (dist.shape - 1.0) * dist.scale
    return 1.0 / scale if scale > 0.0 else math.inf  # (k-1)*theta can underflow to 0


@lru_cache(maxsize=64)
def truncated_inverse_moment(dist: FadingDistribution, h_min: float) -> float:
    """E[1/h restricted to h >= h_min]; finite for every h_min > 0.

    For Gamma(k, theta) and y = h_min / theta: Gamma(k-1, y) / (Gamma(k) theta),
    that is Q(k-1, y) / ((k-1) theta) for k > 2.  Law-only, so cached: a
    sweep whose menu names trunc-inv calibrates it at every SNR point
    against the same moment.
    """
    if not h_min >= 0:
        raise ValueError(f"h_min must be >= 0, got {h_min}")
    if dist.is_degenerate:
        v = dist.params[0]
        return 1.0 / v if v >= h_min else 0.0
    k, theta = dist.shape, dist.scale
    y = h_min / theta
    if h_min == 0.0 or y == math.inf:  # no cutoff, or no mass above it
        return inverse_moment(dist) if h_min == 0.0 else 0.0
    if k > 2.0:
        return _gamma_pq(k - 1.0, y)[1] / (k - 1.0) / theta
    if y < _TINY:
        # y is below the normal floats: past the last bit Gamma(a, y) is
        # (Gamma(k) - y^a) / a, a = k - 1, or -gamma - log y at a = 0, taken
        # in logs from log y (y^a overflows for a < 0 before the moment does)
        a, log_y = k - 1.0, math.log(h_min) - math.log(theta)
        if a == 0.0:
            return (-_EULER_GAMMA - log_y) / theta
        x = a * log_y - math.lgamma(k)  # log(y^a / Gamma(k))
        log_part = x + math.log(math.expm1(-x) / a) if x > 0.0 else math.log(-math.expm1(x) / a)
        return math.exp(log_part - math.log(theta))
    return _upper_gamma(k - 1.0, y) / math.gamma(k) / theta


@lru_cache(maxsize=64)
def inverse_min_moment(dist_m: FadingDistribution, dist_e: FadingDistribution) -> float:
    """E[1/min(h_m, h_e)] for independent gains, or math.inf when it
    diverges (see :func:`invertible`) or overflows the float range.

    Law-only, so cached (full-inv calibration reads it for every budget).
    The values are closed forms: an atom v against Gamma(k, theta) gives
    E[1/h; h < v] + P(h >= v) / v, and two gamma laws split U at
    u* = theta_m / (theta_m + theta_e) in Lukacs coordinates (h_m / theta_m
    = U S, h_e / theta_e = (1-U) S, U ~ Beta(k_m, k_e) apart from S).
    """
    if not invertible(dist_m, dist_e):
        return math.inf
    if dist_m.is_degenerate and dist_e.is_degenerate:
        return 1.0 / min(dist_m.params[0], dist_e.params[0])
    if dist_m.is_degenerate or dist_e.is_degenerate:
        atom, cont = (dist_m, dist_e) if dist_m.is_degenerate else (dist_e, dist_m)
        v, k, theta = atom.params[0], cont.shape, cont.scale
        return _gamma_pq(k - 1.0, v / theta)[0] / (k - 1.0) / theta + _gamma_pq(k, v / theta)[1] / v
    (k_m, t_m), (k_e, t_e) = (dist_m.shape, dist_m.scale), (dist_e.shape, dist_e.scale)
    # u* and 1 - u* each from a quotient of the scales, so neither overflows
    u, u1 = 1.0 / (1.0 + t_e / t_m), 1.0 / (1.0 + t_m / t_e)
    return (_beta_reg(k_e - 1.0, k_m, u, u1) / (k_e - 1.0) / t_e
            + _beta_reg(k_m - 1.0, k_e, u1, u) / (k_m - 1.0) / t_m)


@dataclass(frozen=True, eq=False)
class PairRule:
    """A law pair's quadrature rule on the node pairs (i, j) with
    h_m[i] > h_e[j], the only pairs where the secrecy rate can be non-zero,
    listed row by row.  Read-only.

    ``h_m`` and ``h_e`` are the two laws' nodes, ascending, so row i's
    pairs are j = 0, 1, ... up to the first eavesdropper node at or above
    h_m[i]; they sit at ``starts[i]`` up to ``starts[i + 1]`` of the list.
    Per pair, ``w`` holds the weight and ``ratio`` the gain ratio
    h_e[j] / h_m[i] (< 1), and ``w_total`` is the weights' sum, P(h_m > h_e)
    on the rule.  The indices are derived from ``starts`` when needed
    (:meth:`indices`), not kept.
    """

    h_m: np.ndarray
    h_e: np.ndarray
    starts: np.ndarray
    w: np.ndarray
    ratio: np.ndarray
    w_total: float

    def indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(i, j) of every pair of the list, derived from the row starts."""
        counts = np.diff(self.starts)
        i = np.repeat(np.arange(counts.size), counts)
        return i, np.arange(self.starts[-1]) - np.repeat(self.starts[:-1], counts)

    def states(self) -> tuple[np.ndarray, np.ndarray]:
        """(h_m, h_e) at every pair of the list."""
        i, j = self.indices()
        return self.h_m[i], self.h_e[j]

    def mean(self, y: np.ndarray) -> float:
        """E[y] for a finite y taken at every pair of the list (y = 0 off it).

        The weights are finite and >= 0, so a non-finite y makes the sum
        non-finite (inf, or NaN from 0 * inf); y itself is scanned only then.

        Raises:
            ValueError: naming the first node pair where ``y`` is not finite.
        """
        total = weighted_sum(self.w, y)
        if not math.isfinite(total) and not np.all(np.isfinite(y)):
            raise self.not_finite_at(int(np.argmax(~np.isfinite(y))))
        return total

    def not_finite_at(self, k: int) -> ValueError:
        """The error for an integrand that is not finite at the list's pair k."""
        i = int(np.searchsorted(self.starts, k, side="right")) - 1
        hm, he = self.h_m[i], self.h_e[k - self.starts[i]]
        return ValueError(f"integrand not finite at grid point (h_m={hm:.6g}, h_e={he:.6g})")


def _law_rule(dist: FadingDistribution, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-line nodes with the density folded into the weights, or a
    point mass's atom with weight 1."""
    if dist.is_degenerate:
        return np.array([dist.params[0]]), np.array([1.0])
    x, w = halfline_nodes(nodes)
    return x, w * dist.pdf(x)


@lru_cache(maxsize=4)
def pair_rule(dist_m: FadingDistribution, dist_e: FadingDistribution,
              nodes: int = 200) -> PairRule:
    """The product of the two per-law rules of :func:`_law_rule`, kept on
    the node pairs with h_m > h_e: for two continuous laws, which share
    their abscissas, the 19 900 pairs j < i of 200 nodes.  The weight of
    pair (i, j) is the product w_m[i] * w_e[j], the bits of the full
    product rule's.  Cached; the bounds read one law pair at a time, so 4
    entries (320 KB each at 200 nodes) are plenty.
    """
    (xm, wm), (xe, we) = _law_rule(dist_m, nodes), _law_rule(dist_e, nodes)
    counts = np.searchsorted(xe, xm)  # row i: the eavesdropper nodes below xm[i]
    starts = np.concatenate(([0], np.cumsum(counts)))
    j = np.arange(starts[-1]) - np.repeat(starts[:-1], counts)
    w = np.repeat(wm, counts) * we[j]
    rule = PairRule(xm, xe, starts, w, xe[j] / np.repeat(xm, counts), float(w.sum()))
    for a in (rule.h_m, rule.h_e, rule.starts, rule.w, rule.ratio):
        a.flags.writeable = False
    return rule
