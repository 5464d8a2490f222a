"""Delay-limited secrecy bounds for block-fading wiretap channels.

Library layout mirrors the pipeline: fading laws and policies feed rate
functionals, the bounds module maximizes them over policy menus, and the
protocol module runs the two-stage key-renewal scheme as a bit ledger.
"""

from .bounds import (BoundResult, HighSnrLimit, fixed_point_rate,
                     high_snr_limit, lower_full, lower_main, upper_full,
                     upper_main)
from .fading import (ChannelState, FadingDistribution, inverse_min_moment,
                     inverse_moment, parse_distribution)
from .numerics import Estimate, RngSeed, mc_expect
from .policy import (CsiError, NonInvertibleChannelError, PowerPolicy,
                     calibrate, expected_power, parse_policy)
from .protocol import SimConfig, SimReport, simulate
from .rates import (RateBreakdown, delay_floor, ergodic_secrecy_rate,
                    expected_key_share, per_state_rates)

__version__ = "0.1.0"

__all__ = [
    "BoundResult", "ChannelState", "CsiError", "Estimate",
    "FadingDistribution", "HighSnrLimit", "NonInvertibleChannelError",
    "PowerPolicy", "RateBreakdown", "RngSeed", "SimConfig", "SimReport",
    "calibrate", "delay_floor", "ergodic_secrecy_rate", "expected_key_share",
    "expected_power", "fixed_point_rate", "high_snr_limit", "inverse_min_moment",
    "inverse_moment", "lower_full", "lower_main", "mc_expect",
    "parse_distribution", "parse_policy", "per_state_rates", "simulate",
    "upper_full", "upper_main",
]
