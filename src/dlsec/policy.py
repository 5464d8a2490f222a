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

from .fading import FadingDistribution, inverse_min_moment, inverse_moment, invertible

FAMILIES = ("const", "full-inv", "main-inv")

FULL_CSI = "full"
MAIN_CSI = "main"


class NonInvertibleChannelError(ValueError):
    """An inversion policy was requested but the inverse moment diverges, or
    a finite moment or the calibrated scale overflows the float range."""


class CsiError(ValueError):
    """Policy evaluation requested with less channel knowledge than it needs."""


@dataclass(frozen=True)
class PowerPolicy:
    """A calibrated power-control rule.

    Families:
        const      P(h) = c
        full-inv   P(h) = c / min(h_m, h_e)   (needs full CSI)
        main-inv   P(h_m) = c / h_m
    """

    family: str
    c: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown policy family {self.family!r}")
        if not (self.c >= 0.0 and math.isfinite(self.c)):
            raise ValueError(f"scale must be finite and >= 0, got {self.c}")

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
        else:  # main-inv
            out = self.c / hm
        return float(out) if out.ndim == 0 else out


def parse_policy(text: str) -> str:
    """Parse ``const | full-inv | main-inv`` to the family.

    trunc-inv is refused with its reason: truncated inversion sends nothing
    below its cutoff, so it is the policy of delay-limited capacity with
    outage, which the strict delay constraint of every bound rules out.
    """
    parts = [p.strip() for p in str(text).strip().lower().split(":")]
    family = parts[0]
    if family == "trunc-inv":
        raise ValueError(f"bad policy spec {text!r}: trunc-inv is retired: truncated "
                         "inversion sends nothing below its cutoff, an outage that the "
                         "strict delay constraint rules out; use const, full-inv or main-inv")
    if family not in FAMILIES:
        raise ValueError(f"bad policy spec {text!r}: unknown family {family!r}")
    if len(parts) != 1:
        raise ValueError(f"bad policy spec {text!r}: {family} takes no parameter")
    return family


def _power_moment(family: str, dist_m: FadingDistribution, dist_e: FadingDistribution) -> float:
    """E[P(h)] / c: 1, E[1/min(h_m, h_e)] or E[1/h_m]."""
    if family == "const":
        return 1.0
    if family == "full-inv":
        return inverse_min_moment(dist_m, dist_e)
    if family == "main-inv":
        return inverse_moment(dist_m)
    raise ValueError(f"unknown policy family {family!r}")


def calibrate(family: str, dist_m: FadingDistribution, dist_e: FadingDistribution,
              p_bar: float) -> PowerPolicy:
    """Pin the family's scale so that E[P(h)] = p_bar (met with equality):
    p_bar over the family's closed-form moment E[P(h)] / c.

    Raises:
        NonInvertibleChannelError: when the required inverse moment
            diverges or overflows, naming it, or when the scale overflows.
    """
    if not 0.0 <= p_bar < math.inf:
        raise ValueError(f"average power budget must be finite and >= 0, got {p_bar}")
    moment = _power_moment(family, dist_m, dist_e)
    if math.isinf(moment):
        name, laws = (("E[1/min(h_m, h_e)]", (dist_m, dist_e))
                      if family == "full-inv" else ("E[1/h_m]", (dist_m,)))
        what = (f"{family}: {name} is finite but overflows the float range" if invertible(*laws)
                else f"non-invertible channel: {name} diverges")
        raise NonInvertibleChannelError(f"{what} for {' / '.join(d.spec() for d in laws)}")
    if p_bar == 0.0:
        return PowerPolicy(family, 0.0)
    # main-inv's 1/((k - 1) theta) underflows to 0 only where c overflows
    c = p_bar / moment if moment else math.inf
    if math.isinf(c):
        raise NonInvertibleChannelError(
            f"{family}: the scale p_bar / (E[P]/c) = {p_bar:g} / {moment:g} overflows")
    return PowerPolicy(family, c)


def expected_power(policy: PowerPolicy, dist_m: FadingDistribution,
                   dist_e: FadingDistribution) -> float:
    """E[P(h)] via each family's closed-form moment, the one :func:`calibrate`
    reads, so a calibrated policy meets its budget to rounding.  Monte Carlo
    (:func:`dlsec.numerics.mc_expect` over ``policy.power``) is the
    independent cross-check.
    """
    if policy.c == 0.0:
        return 0.0
    return policy.c * _power_moment(policy.family, dist_m, dist_e)
