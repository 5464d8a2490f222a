"""Channel power-gain distributions and the moments gating channel inversion.

Continuous gains are all members of the gamma family in a canonical
(shape, scale) form: a chi-square with k degrees of freedom is
Gamma(k/2, 2) and an exponential with mean mu is Gamma(1, mu).  A
degenerate point mass is kept separate because it has no density.

Divergence of inverse moments is decided analytically from the density
exponent near zero (finite iff density ~ C*x^a with a > 0, i.e. canonical
shape > 1), never numerically: quadrature silently truncates the
singularity and would report a misleading finite number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import stats

from .numerics import RngSeed, halfline_nodes, unit_nodes

_KINDS = ("chisq", "gamma", "exp", "const")


@dataclass(frozen=True, eq=False)
class ChannelState:
    """One fading realization: main and eavesdropper power gains.

    Fields may be scalars or equal-length arrays (the structure-of-arrays
    form used by the Monte Carlo and simulation paths).
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
        if self.kind == "chisq":
            if len(p) != 1 or p[0] <= 0 or not p[0].is_integer():
                raise ValueError(f"chisq needs a positive integer dof, got {p}")
        elif self.kind == "gamma":
            if len(p) != 2 or p[0] <= 0 or p[1] <= 0:
                raise ValueError(f"gamma needs positive (shape, scale), got {p}")
        elif self.kind == "exp":
            if len(p) != 1 or p[0] <= 0:
                raise ValueError(f"exp needs a positive mean, got {p}")
        else:  # const
            if len(p) != 1 or p[0] <= 0 or not math.isfinite(p[0]):
                raise ValueError(f"const needs a positive finite value, got {p}")

    # --- constructors ---

    @classmethod
    def chi_square(cls, dof: int) -> "FadingDistribution":
        return cls("chisq", (dof,))

    @classmethod
    def gamma_dist(cls, shape: float, scale: float) -> "FadingDistribution":
        return cls("gamma", (shape, scale))

    @classmethod
    def exponential(cls, mean: float) -> "FadingDistribution":
        return cls("exp", (mean,))

    @classmethod
    def degenerate(cls, value: float) -> "FadingDistribution":
        return cls("const", (value,))

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

    def mean(self) -> float:
        if self.is_degenerate:
            return self.params[0]
        return self.shape * self.scale

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
        out = stats.gamma.pdf(arr, a=self.shape, scale=self.scale)
        return float(out) if out.ndim == 0 else out

    def cdf(self, x) -> float | np.ndarray:
        arr = np.asarray(x, dtype=float)
        if self.is_degenerate:
            out = (arr >= self.params[0]).astype(float)
        else:
            out = stats.gamma.cdf(arr, a=self.shape, scale=self.scale)
        return float(out) if out.ndim == 0 else out

    def quantile(self, p: float) -> float:
        if not 0.0 < p < 1.0:
            raise ValueError(f"quantile level must be in (0, 1), got {p}")
        if self.is_degenerate:
            return self.params[0]
        return float(stats.gamma.ppf(p, a=self.shape, scale=self.scale))

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

    Law-only, so cached like :func:`joint_grid`: a sweep calibrates
    trunc-inv at every SNR point against the same moment.
    """
    if h_min < 0:
        raise ValueError(f"h_min must be >= 0, got {h_min}")
    if dist.is_degenerate:
        v = dist.params[0]
        return 1.0 / v if v >= h_min else 0.0
    if h_min == 0.0:
        return inverse_moment(dist)
    x, w = halfline_nodes(200)
    y = x + h_min
    return float(np.dot(w, dist.pdf(y) / y))


@lru_cache(maxsize=64)
def inverse_min_moment(dist_m: FadingDistribution, dist_e: FadingDistribution,
                       nodes: int = 200) -> float:
    """E[1/min(h_m, h_e)] for independent gains, or math.inf when divergent.

    Law-only, so cached like :func:`joint_grid` (full-inv calibration and
    the high-SNR invertibility flag read it for every budget).

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
        t, wt = unit_nodes(nodes)
        head = float(np.dot(wt, cont.pdf(v * t) / t))
        return head + (1.0 - cont.cdf(v)) / v
    x, w = halfline_nodes(nodes)
    min_density = (dist_m.pdf(x) * (1.0 - dist_e.cdf(x))
                   + dist_e.pdf(x) * (1.0 - dist_m.cdf(x)))
    return float(np.dot(w, min_density / x))


@lru_cache(maxsize=64)
def joint_grid(dist_m: FadingDistribution, dist_e: FadingDistribution,
               nodes: int = 200) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened quadrature grid (h_m, h_e, weight) for the joint law.

    Continuous marginals contribute half-line nodes with the density folded
    into the weight; a point mass contributes its single atom with weight 1.
    The weights sum to ~1, so a dot product against them is an expectation.
    """
    def marginal(d):
        if d.is_degenerate:
            return np.array([d.params[0]]), np.array([1.0])
        x, w = halfline_nodes(nodes)
        return x, w * d.pdf(x)

    xm, wm = marginal(dist_m)
    xe, we = marginal(dist_e)
    hm = np.repeat(xm, xe.size)
    he = np.tile(xe, xm.size)
    w = np.repeat(wm, we.size) * np.tile(we, wm.size)
    for a in (hm, he, w):
        a.flags.writeable = False
    return hm, he, w


def expectation(f, dist_m: FadingDistribution, dist_e: FadingDistribution,
                nodes: int = 200) -> float:
    """Deterministic E[f(h)] by quadrature against the joint law.

    ``f`` maps a ChannelState with array fields to an array of values; this
    is the quadrature twin of :func:`dlsec.numerics.mc_expect`.
    """
    grid = joint_grid(dist_m, dist_e, nodes)
    hm, he, _ = grid
    y = np.broadcast_to(np.asarray(f(ChannelState(hm, he)), dtype=float), hm.shape)
    return grid_mean(grid, y)


def grid_mean(grid: tuple[np.ndarray, np.ndarray, np.ndarray], y: np.ndarray) -> float:
    """dot(w, y) over a :func:`joint_grid`, after checking y is finite.

    Raises:
        ValueError: naming the first grid point where ``y`` is not finite.
    """
    hm, he, w = grid
    if not np.all(np.isfinite(y)):
        i = int(np.argmax(~np.isfinite(y)))
        raise ValueError(
            f"integrand not finite at grid point (h_m={hm[i]:.6g}, h_e={he[i]:.6g})"
        )
    return float(np.dot(w, y))
