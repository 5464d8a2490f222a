"""The product quadrature rule laid out flat, as an independent reference.

Each law's rule is built here from ``halfline_nodes`` and the law's
``pdf`` (a point mass is its atom with weight 1), not read from the code
under test.  h_m repeats each main node once per eavesdropper node, h_e
tiles the eavesdropper nodes, and the weights are the products of the two
per-law weights, so index i * n_e + j is node pair (i, j).
"""

import numpy as np

from dlsec.numerics import halfline_nodes


def law_rule(dist, nodes=200):
    """(x, w) of one law: half-line nodes with the density folded into the
    weight, or the atom of a point mass."""
    if dist.is_degenerate:
        return np.array([dist.params[0]]), np.array([1.0])
    x, w = halfline_nodes(nodes)
    return x, w * dist.pdf(x)


def flat_grid(dist_m, dist_e, nodes=200):
    """(h_m, h_e, w) over every node pair of the two per-law rules."""
    xm, wm = law_rule(dist_m, nodes)
    xe, we = law_rule(dist_e, nodes)
    return (np.repeat(xm, xe.size), np.tile(xe, xm.size),
            np.repeat(wm, we.size) * np.tile(we, wm.size))
