"""Power-control policy families and their calibration.

Every family has one free scale constant ``c``; :func:`calibrate` pins it so
the long-term average power meets the budget with equality (no bound
objective ever benefits from wasted headroom, since all of them are
non-decreasing in the power scale).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import (FadingDistribution, inverse_min_moment, inverse_moment,
                     truncated_inverse_moment)

FAMILIES = ("const", "full-inv", "main-inv", "trunc-inv")

FULL_CSI = "full"
MAIN_CSI = "main"


class NonInvertibleChannelError(ValueError):
    """An inversion policy was requested but the inverse moment diverges, or
    a truncated one never transmits on a point-mass main gain."""


class CsiError(ValueError):
    """Policy evaluation requested with less channel knowledge than it needs."""


@dataclass(frozen=True)
class PowerPolicy:
    """A calibrated power-control rule.

    Families:
        const      P(h) = c
        full-inv   P(h) = c / min(h_m, h_e)   (needs full CSI)
        main-inv   P(h_m) = c / h_m
        trunc-inv  P(h_m) = c / h_m when h_m >= h_min, else 0
    """

    family: str
    c: float
    h_min: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown policy family {self.family!r}")
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ValueError(f"scale must be finite and >= 0, got {self.c}")
        if self.family == "trunc-inv" and not self.h_min > 0:
            raise ValueError("trunc-inv needs a positive cutoff h_min")

    def power(self, h_m, h_e=None) -> float | np.ndarray:
        """Transmit power at the given state; main-CSI families ignore h_e."""
        hm = np.asarray(h_m, dtype=float)
        if self.family == "const":
            out = np.full_like(hm, self.c)
        elif self.family == "full-inv":
            if h_e is None:
                raise CsiError(
                    "full-inv policy queried without the eavesdropper gain "
                    "(main-CSI evaluation)"
                )
            out = self.c / np.minimum(hm, np.asarray(h_e, dtype=float))
        elif self.family == "main-inv":
            out = self.c / hm
        else:  # trunc-inv
            out = np.where(hm >= self.h_min, self.c / hm, 0.0)
        return float(out) if out.ndim == 0 else out

    def spec(self) -> str:
        if self.family == "trunc-inv":
            return f"trunc-inv:{self.h_min:g}"
        return self.family


def parse_policy(text: str) -> tuple[str, float]:
    """Parse ``const | full-inv | main-inv | trunc-inv:<h_min>`` to (family, h_min)."""
    parts = [p.strip() for p in str(text).strip().lower().split(":")]
    family = parts[0]
    if family not in FAMILIES:
        raise ValueError(f"bad policy spec {text!r}: unknown family {family!r}")
    if family == "trunc-inv":
        if len(parts) != 2:
            raise ValueError(f"bad policy spec {text!r}: trunc-inv needs a cutoff, e.g. trunc-inv:0.5")
        try:
            h_min = float(parts[1])
        except ValueError:
            raise ValueError(f"bad policy spec {text!r}: non-numeric cutoff") from None
        if not h_min > 0:
            raise ValueError(f"bad policy spec {text!r}: cutoff must be positive")
        return family, h_min
    if len(parts) != 1:
        raise ValueError(f"bad policy spec {text!r}: {family} takes no parameter")
    return family, 0.0


def calibrate(family: str, dist_m: FadingDistribution, dist_e: FadingDistribution,
              p_bar: float, h_min: float = 0.0) -> PowerPolicy:
    """Pin the family's scale so that E[P(h)] = p_bar (met with equality).

    Raises:
        NonInvertibleChannelError: when the required inverse moment
            diverges, naming the offending moment, or when a trunc-inv
            cutoff lies above a point-mass main gain.
    """
    if not (p_bar >= 0.0):
        raise ValueError(f"average power budget must be >= 0, got {p_bar}")
    if family == "const":
        return PowerPolicy("const", p_bar)
    if family == "full-inv":
        moment = inverse_min_moment(dist_m, dist_e)
        if math.isinf(moment):
            raise NonInvertibleChannelError(
                f"non-invertible channel: E[1/min(h_m, h_e)] diverges for "
                f"{dist_m.spec()} / {dist_e.spec()}"
            )
        if not moment > 0.0:
            raise ValueError(
                f"E[1/min(h_m, h_e)] evaluates to {moment:g} for {dist_m.spec()} / "
                f"{dist_e.spec()}: the quadrature grid misses these laws"
            )
        return PowerPolicy("full-inv", p_bar / moment)
    if family == "main-inv":
        moment = inverse_moment(dist_m)
        if math.isinf(moment):
            raise NonInvertibleChannelError(
                f"non-invertible channel: E[1/h_m] diverges for {dist_m.spec()}"
            )
        return PowerPolicy("main-inv", p_bar / moment)
    if family == "trunc-inv":
        if not h_min > 0:
            raise ValueError("trunc-inv needs a positive cutoff h_min")
        moment = truncated_inverse_moment(dist_m, h_min)
        if moment == 0.0:
            if p_bar == 0.0:
                return PowerPolicy("trunc-inv", 0.0, h_min)
            # above a point mass the cutoff is a property of the model; for a
            # continuous law a zero moment means the grid missed its mass
            error = NonInvertibleChannelError if dist_m.is_degenerate else ValueError
            raise error(
                f"trunc-inv with h_min={h_min:g} never transmits under "
                f"{dist_m.spec()}; cannot meet E[P] = {p_bar:g}"
            )
        return PowerPolicy("trunc-inv", p_bar / moment, h_min)
    raise ValueError(f"unknown policy family {family!r}")


def expected_power(policy: PowerPolicy, dist_m: FadingDistribution,
                   dist_e: FadingDistribution) -> float:
    """E[P(h)] via each family's moment identity: the moments :func:`calibrate`
    reads, so a calibrated policy meets its budget to rounding.

    The truncated family's power rule jumps at the cutoff, so a generic
    tensor quadrature would smear it; the per-family moments are exact.
    Monte Carlo (:func:`dlsec.numerics.mc_expect` over ``policy.power``)
    is the independent cross-check.
    """
    if policy.c == 0.0:
        return 0.0
    if policy.family == "const":
        return policy.c
    if policy.family == "full-inv":
        return policy.c * inverse_min_moment(dist_m, dist_e)
    if policy.family == "main-inv":
        return policy.c * inverse_moment(dist_m)
    return policy.c * truncated_inverse_moment(dist_m, policy.h_min)
