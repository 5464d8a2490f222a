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

from .fading import (FadingDistribution, inverse_min_moment, inverse_moment, invertible,
                     truncated_inverse_moment)

FAMILIES = ("const", "full-inv", "main-inv", "trunc-inv")

FULL_CSI = "full"
MAIN_CSI = "main"


class NonInvertibleChannelError(ValueError):
    """An inversion policy was requested but the inverse moment diverges, a
    truncated one never transmits (no mass above its cutoff), or a finite
    moment or the calibrated scale overflows the float range."""


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


def _power_moment(family: str, dist_m: FadingDistribution, dist_e: FadingDistribution,
                  h_min: float) -> float:
    """E[P(h)] / c: 1, E[1/min(h_m, h_e)], E[1/h_m] or E[1/h_m; h_m >= h_min]."""
    if family == "const":
        return 1.0
    if family == "full-inv":
        return inverse_min_moment(dist_m, dist_e)
    if family == "main-inv":
        return inverse_moment(dist_m)
    if family == "trunc-inv":
        return truncated_inverse_moment(dist_m, h_min)
    raise ValueError(f"unknown policy family {family!r}")


def calibrate(family: str, dist_m: FadingDistribution, dist_e: FadingDistribution,
              p_bar: float, h_min: float = 0.0) -> PowerPolicy:
    """Pin the family's scale so that E[P(h)] = p_bar (met with equality):
    p_bar over the family's closed-form moment E[P(h)] / c.

    Raises:
        NonInvertibleChannelError: when the required inverse moment
            diverges or overflows, naming it, when a trunc-inv cutoff
            leaves no mass above it, or when the scale overflows.
    """
    if not 0.0 <= p_bar < math.inf:
        raise ValueError(f"average power budget must be finite and >= 0, got {p_bar}")
    if family != "trunc-inv":
        h_min = 0.0
    elif not h_min > 0:
        raise ValueError("trunc-inv needs a positive cutoff h_min")
    moment = _power_moment(family, dist_m, dist_e, h_min)
    if math.isinf(moment):
        name, laws = (("E[1/min(h_m, h_e)]", (dist_m, dist_e))
                      if family == "full-inv" else ("E[1/h_m]", (dist_m,)))
        what = (f"{family}: {name} is finite but overflows the float range" if invertible(*laws)
                else f"non-invertible channel: {name} diverges")
        raise NonInvertibleChannelError(f"{what} for {' / '.join(d.spec() for d in laws)}")
    if p_bar == 0.0:
        return PowerPolicy(family, 0.0, h_min)
    if family == "trunc-inv" and moment == 0.0:
        raise NonInvertibleChannelError(
            f"trunc-inv with h_min={h_min:g} never transmits under "
            f"{dist_m.spec()}; cannot meet E[P] = {p_bar:g}"
        )
    # main-inv's 1/((k - 1) theta) underflows to 0 only where c overflows
    c = p_bar / moment if moment else math.inf
    if math.isinf(c):
        raise NonInvertibleChannelError(
            f"{family}: the scale p_bar / (E[P]/c) = {p_bar:g} / {moment:g} overflows")
    return PowerPolicy(family, c, h_min)


def expected_power(policy: PowerPolicy, dist_m: FadingDistribution,
                   dist_e: FadingDistribution) -> float:
    """E[P(h)] via each family's closed-form moment, the one :func:`calibrate`
    reads, so a calibrated policy meets its budget to rounding.

    The truncated family's power rule jumps at the cutoff, so a generic
    tensor quadrature would smear it; the per-family moments are exact.
    Monte Carlo (:func:`dlsec.numerics.mc_expect` over ``policy.power``)
    is the independent cross-check.
    """
    if policy.c == 0.0:
        return 0.0
    return policy.c * _power_moment(policy.family, dist_m, dist_e, policy.h_min)
