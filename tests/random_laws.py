"""Random gain laws for property tests over the whole grammar."""

from dlsec.fading import FadingDistribution
from dlsec.numerics import SHAPE_MAX


def random_law(rng):
    """A point mass, an exponential, a chi-square (1-12 dof) or a gamma law
    (shape 0.05-50, so below 1 too), each scaled law at 1e-3-1e3."""
    scale = float(10.0 ** rng.uniform(-3.0, 3.0))
    kind = rng.integers(5)
    if kind == 0:
        return FadingDistribution("const", (scale,))
    if kind == 1:
        return FadingDistribution("exp", (scale,))
    if kind == 2:
        return FadingDistribution("chisq", (float(rng.integers(1, 13)),))
    # 10^1.7 is 50.1: cap at the largest shape the grammar accepts
    shape = min(float(10.0 ** rng.uniform(-1.3, 1.7)), SHAPE_MAX)
    return FadingDistribution("gamma", (shape, scale))
