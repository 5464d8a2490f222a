"""Channel power-gain distributions and the moments gating channel inversion.

Continuous gains are all members of the gamma family in a canonical
(shape, scale) form: a chi-square with k degrees of freedom is
Gamma(k/2, 2) and an exponential with mean mu is Gamma(1, mu).  A
degenerate point mass is kept separate because it has no density.

Divergence of inverse moments is decided analytically from the density
exponent near zero (finite iff density ~ C*x^a with a > 0, i.e. canonical
shape > 1), never numerically: quadrature silently truncates the
singularity and would report a misleading finite number.

The gamma law is evaluated with numpy and :mod:`math` alone.  The cdf is
the regularized lower incomplete gamma P(k, y): a power series below
y = k + 1 and a modified-Lentz continued fraction for Q = 1 - P above it
(Numerical Recipes 3rd ed. section 6.2; DLMF 8.7.1 and 8.9.2).  Scalars
take a pure-:mod:`math` path; arrays run the same recurrences elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .numerics import RngSeed, halfline_nodes, unit_nodes, weighted_sum

_KINDS = ("chisq", "gamma", "exp", "const")
# The canonical gamma shapes accepted: the range the recurrences are tested
# on against scipy.  Far outside it they stall or lose accuracy (at shape
# 1e10 the median's cdf reads 0.49998) and the quantile's start overflows.
SHAPE_MIN, SHAPE_MAX = 0.05, 50.0

_EPS = 2.0 ** -52  # the series stops once a term is below this share of the sum
# The fraction's last factors round to within 2 ulps of 1 at random, so it
# stops at 4 ulps; a test of 1 ulp could wait forever on one element.
_CF_TOL = 4.0 * _EPS
_CHECK_EVERY = 8  # array loops test convergence once per this many terms
_QUANTILE_STEPS = 200  # Newton takes 1-6 steps; the cap bounds the bisection fallback
_MOMENT_NODES = 200  # of the rules behind the two quadrature moments


def _gamma_pq(k: float, y: float) -> tuple[float, float]:
    """(P(k, y), Q(k, y)) at one finite y > 0, in pure :mod:`math`.

    Whichever of the two the recurrence computes (P by the series, Q by the
    continued fraction) is accurate to a few ulps relative, far tails
    included; the other is its complement.  For y >= k + 1 the fraction's
    Lentz ratios c and d stay positive (c > b/2 and d > 7e-5/b for shapes
    1e-4 to 1e5, where b is the current partial denominator), so it needs
    no guard against a zero denominator.
    """
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
    b = y + 1.0 - k
    c = math.inf
    d = h = 1.0 / b
    i = 0
    delta = 0.0
    while abs(delta - 1.0) > _CF_TOL:
        i += 1
        an = -i * (i - k)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = d * c
        h *= delta
    q = math.exp(log_front) * h
    return 1.0 - q, q


def _gamma_p(k: float, y: np.ndarray) -> np.ndarray:
    """P(k, y) elementwise over an array: the recurrences of :func:`_gamma_pq`.

    Every element runs as many terms as the slowest in its branch needs;
    convergence is tested once per ``_CHECK_EVERY`` terms.
    """
    out = np.where(y > 0.0, 1.0, 0.0)  # y <= 0 and y = inf are exact
    out[np.isnan(y)] = np.nan
    inner = (y > 0.0) & (y < math.inf)
    lower = inner & (y < k + 1.0)
    upper = inner & ~lower
    if lower.any():
        x = y[lower]
        term = np.full_like(x, 1.0 / k)
        total = term.copy()
        kn = k
        converged = False
        while not converged:
            for _ in range(_CHECK_EVERY):
                kn += 1.0
                term *= x
                term /= kn
                total += term
            converged = bool(np.all(term < total * _EPS))
        out[lower] = np.exp(k * np.log(x) - x - math.lgamma(k)) * total
    if upper.any():
        x = y[upper]
        b = x + (1.0 - k)
        c = np.full_like(x, math.inf)
        d = 1.0 / b
        h = d.copy()
        i = 0
        converged = False
        while not converged:
            for _ in range(_CHECK_EVERY):
                i += 1
                an = -i * (i - k)
                b += 2.0
                d *= an
                d += b
                np.divide(1.0, d, out=d)
                np.divide(an, c, out=c)
                c += b
                delta = d * c
                h *= delta
            converged = bool(np.all(np.abs(delta - 1.0) <= _CF_TOL))
        out[upper] = 1.0 - np.exp(k * np.log(x) - x - math.lgamma(k)) * h
    return out


def _normal_quantile(p: float) -> float:
    """Standard normal quantile to 4.5e-4 (Abramowitz-Stegun 26.2.23).

    Only a starting point for :func:`_gamma_quantile`'s Newton steps.
    """
    t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
    z = t - ((2.515517 + 0.802853 * t + 0.010328 * t * t)
             / (1.0 + t * (1.432788 + t * (0.189269 + 0.001308 * t))))
    return z if p > 0.5 else -z


def _gamma_quantile(k: float, p: float) -> float:
    """The y with P(k, y) = p, for 0 < p < 1.

    Newton's method in log y on log P (log Q above the median, so the upper
    tail keeps its relative accuracy), from the Wilson-Hilferty start, or
    from the small-y power law when that start is not positive.  Both logs
    are concave in log y (the law of log y has a log-concave density), so
    Newton converges from one side; a step that leaves the bracket of
    points already seen is replaced by its geometric midpoint.  It stops
    once a step is below 1e-9 in log y, which the quadratic convergence
    turns into an error near the rounding of P itself.
    """
    upper = p > 0.5
    target = math.log1p(-p) if upper else math.log(p)
    c = 1.0 / (9.0 * k)
    y = k * (1.0 - c + _normal_quantile(p) * math.sqrt(c)) ** 3
    if not y > 0.0:
        y = math.exp((math.log(p) + math.lgamma(k + 1.0)) / k)
    lo, hi = 0.0, math.inf
    for _ in range(_QUANTILE_STEPS):
        if y == 0.0:
            return 0.0  # the quantile underflows
        tail = _gamma_pq(k, y)[1 if upper else 0]
        # d log(tail) / d log(y) = -+ y f(y) / tail, f the Gamma(k, 1) density
        slope = math.exp(k * math.log(y) - y - math.lgamma(k)) / tail if tail > 0 else math.inf
        if upper:
            slope = -slope
        g = (math.log(tail) if tail > 0 else -math.inf) - target
        if g == 0.0:
            return y
        if (g > 0.0) != upper:
            hi = y
        else:
            lo = y
        step = g / slope
        y_next = y * math.exp(-step) if math.isfinite(step) else math.nan
        if not lo < y_next < hi:
            y_next = math.sqrt(lo * hi) if lo > 0.0 and hi < math.inf else (
                hi / 16.0 if lo == 0.0 else lo * 16.0)
        elif abs(step) < 1e-9:
            return y_next
        if y_next == y:
            return y
        y = y_next
    return y


@dataclass(frozen=True, eq=False)
class ChannelState:
    """One fading realization: main and eavesdropper power gains.

    Fields may be scalars or arrays that broadcast together: equal-length
    arrays in the Monte Carlo and simulation paths, the node pairs of a
    :func:`pair_rule`.
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
        if not all(0.0 < v < math.inf for v in p):
            raise ValueError(f"{self.kind} needs positive finite parameters, got {p}")
        if self.kind == "chisq":
            if len(p) != 1 or not p[0].is_integer():
                raise ValueError(f"chisq needs a positive integer dof, got {p}")
        elif self.kind == "gamma":
            if len(p) != 2:
                raise ValueError(f"gamma needs (shape, scale), got {p}")
        elif len(p) != 1:
            raise ValueError(f"{self.kind} needs one parameter, got {p}")
        if not self.is_degenerate and not SHAPE_MIN <= self.shape <= SHAPE_MAX:
            raise ValueError(f"{self.spec()}: gamma shape {self.shape:g} is outside "
                             f"[{SHAPE_MIN:g}, {SHAPE_MAX:g}], where the law is evaluated")

    # --- structure ---

    @property
    def is_degenerate(self) -> bool:
        return self.kind == "const"

    @property
    def shape(self) -> float:
        """Canonical gamma shape of a continuous law."""
        if self.kind == "chisq":
            return self.params[0] / 2.0
        if self.kind == "gamma":
            return self.params[0]
        if self.kind == "exp":
            return 1.0
        raise ValueError("a point mass has no gamma shape")

    @property
    def scale(self) -> float:
        """Canonical gamma scale of a continuous law."""
        if self.kind == "chisq":
            return 2.0
        if self.kind == "gamma":
            return self.params[1]
        if self.kind == "exp":
            return self.params[0]
        raise ValueError("a point mass has no gamma scale")

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
        y = arr / theta
        out = np.exp((k - 1.0) * np.log(y) - y - math.lgamma(k)) / theta
        return float(out) if arr.ndim == 0 else out

    def cdf(self, x) -> float | np.ndarray:
        """P(h <= x): 0 below the support, 1 at x = inf, NaN at NaN."""
        if self.is_degenerate:
            out = (np.asarray(x, dtype=float) >= self.params[0]).astype(float)
        elif np.ndim(x) == 0:
            y = float(x) / self.scale
            if 0.0 < y < math.inf:
                return _gamma_pq(self.shape, y)[0]
            return math.nan if math.isnan(y) else float(y > 0.0)
        else:
            out = _gamma_p(self.shape, np.asarray(x, dtype=float) / self.scale)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
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
        if self.kind == "chisq":
            return rng.chisquare(self.params[0], n)
        if self.kind == "gamma":
            return rng.gamma(self.params[0], self.params[1], n)
        if self.kind == "exp":
            return rng.exponential(self.params[0], n)
        return np.full(n, self.params[0])


def parse_distribution(text: str) -> FadingDistribution:
    """Parse the grammar ``chisq:4 | gamma:2:1 | exp:1 | const:2.5``.

    Case-insensitive; raises ValueError on anything else.
    """
    parts = [p.strip() for p in str(text).strip().lower().split(":")]
    kind = parts[0]
    try:
        args = tuple(float(p) for p in parts[1:])
    except ValueError:
        raise ValueError(f"bad distribution spec {text!r}: non-numeric parameter") from None
    want = {"chisq": 1, "gamma": 2, "exp": 1, "const": 1}
    if kind not in want:
        raise ValueError(f"bad distribution spec {text!r}: unknown kind {kind!r}")
    if len(args) != want[kind]:
        raise ValueError(
            f"bad distribution spec {text!r}: {kind} takes {want[kind]} parameter(s)"
        )
    return FadingDistribution(kind, args)


def inverse_moment(dist: FadingDistribution) -> float:
    """E[1/h], or math.inf when the integral diverges.

    For Gamma(k, theta) this is 1/((k-1)*theta) when k > 1 and divergent
    otherwise; a point mass at v gives 1/v.
    """
    if dist.is_degenerate:
        return 1.0 / dist.params[0]
    k = dist.shape
    if k <= 1.0:
        return math.inf
    return 1.0 / ((k - 1.0) * dist.scale)


@lru_cache(maxsize=64)
def truncated_inverse_moment(dist: FadingDistribution, h_min: float) -> float:
    """E[1/h restricted to h >= h_min]; finite for every h_min > 0.

    Law-only, so cached: a sweep calibrates trunc-inv at every SNR point
    against the same moment.
    """
    if h_min < 0:
        raise ValueError(f"h_min must be >= 0, got {h_min}")
    if dist.is_degenerate:
        v = dist.params[0]
        return 1.0 / v if v >= h_min else 0.0
    if h_min == 0.0:
        return inverse_moment(dist)
    x, w = halfline_nodes(_MOMENT_NODES)
    y = x + h_min
    return weighted_sum(w, dist.pdf(y) / y)


@lru_cache(maxsize=64)
def inverse_min_moment(dist_m: FadingDistribution, dist_e: FadingDistribution) -> float:
    """E[1/min(h_m, h_e)] for independent gains, or math.inf when divergent.

    Law-only, so cached (full-inv calibration and the high-SNR
    invertibility flag read it for every budget).

    Finiteness is decided analytically: every continuous component must
    have canonical gamma shape > 1 (density exponent at zero positive); a
    point mass never causes divergence.  When finite, the value comes from
    quadrature against the law of the minimum, whose density
    f_m(x)(1 - F_e(x)) + f_e(x)(1 - F_m(x)) is smooth (no diagonal kink).
    """
    for d in (dist_m, dist_e):
        if not d.is_degenerate and d.shape <= 1.0:
            return math.inf
    if dist_m.is_degenerate and dist_e.is_degenerate:
        return 1.0 / min(dist_m.params[0], dist_e.params[0])
    if dist_m.is_degenerate or dist_e.is_degenerate:
        v = dist_m.params[0] if dist_m.is_degenerate else dist_e.params[0]
        cont = dist_e if dist_m.is_degenerate else dist_m
        # E[1/min(v, Y)] = int_0^v f(y)/y dy + (1/v) P(Y >= v)
        t, wt = unit_nodes(_MOMENT_NODES)
        head = weighted_sum(wt, cont.pdf(v * t) / t)
        return head + (1.0 - cont.cdf(v)) / v
    x, w = halfline_nodes(_MOMENT_NODES)
    min_density = (dist_m.pdf(x) * (1.0 - dist_e.cdf(x))
                   + dist_e.pdf(x) * (1.0 - dist_m.cdf(x)))
    return weighted_sum(w, min_density / x)


@dataclass(frozen=True, eq=False)
class PairRule:
    """A law pair's quadrature rule, read-only: ``h_m`` and ``h_e``
    broadcast to its node pairs, and ``w`` holds their weights (sum ~1)
    flat, lined up with ``y.ravel()`` for ``y`` evaluated on them."""

    h_m: np.ndarray
    h_e: np.ndarray
    w: np.ndarray

    def mean(self, y: np.ndarray) -> float:
        """E[y] for a finite y taken at every node pair.

        The weights are finite and >= 0, so a non-finite y makes the sum
        non-finite (inf, or NaN from 0 * inf); y itself is scanned only then.

        Raises:
            ValueError: naming the first node pair where ``y`` is not finite.
        """
        total = weighted_sum(self.w, y.ravel())
        if not math.isfinite(total) and not np.all(np.isfinite(y)):
            i, j = np.unravel_index(int(np.argmax(~np.isfinite(y))), y.shape)
            hm, he = self.h_m[i, 0], self.h_e[j]
            raise ValueError(f"integrand not finite at grid point (h_m={hm:.6g}, h_e={he:.6g})")
        return total


def _law_rule(dist: FadingDistribution, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-line nodes with the density folded into the weights, or a
    point mass's atom with weight 1."""
    if dist.is_degenerate:
        return np.array([dist.params[0]]), np.array([1.0])
    x, w = halfline_nodes(nodes)
    return x, w * dist.pdf(x)


@lru_cache(maxsize=8)
def pair_rule(dist_m: FadingDistribution, dist_e: FadingDistribution,
              nodes: int = 200) -> PairRule:
    """The product of the two per-law rules of :func:`_law_rule`: main nodes
    as a column, eavesdropper nodes as a row, and the weight of pair (i, j)
    at flat index i * n_e + j.  Cached; the bounds read one law pair at a
    time, so 8 entries (320 KB each at 200 nodes) are plenty.
    """
    (xm, wm), (xe, we) = _law_rule(dist_m, nodes), _law_rule(dist_e, nodes)
    rule = PairRule(xm[:, None], xe, np.outer(wm, we).ravel())
    for a in (rule.h_m, rule.h_e, rule.w):
        a.flags.writeable = False
    return rule
