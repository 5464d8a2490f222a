"""The product quadrature rule laid out flat, as an independent reference.

The program evaluates every joint functional by broadcasting the two
per-law rules of ``marginal_nodes`` (main nodes as a column, eavesdropper
nodes as a row).  Tests compare it against this layout: h_m repeats each
main node once per eavesdropper node, h_e tiles the eavesdropper nodes, and
the weights are the products of the two marginal weights, so index
i * n_e + j is node pair (i, j).
"""

import numpy as np

from dlsec.fading import marginal_nodes


def flat_grid(dist_m, dist_e, nodes=200):
    """(h_m, h_e, w) over every node pair of the two marginal rules."""
    xm, wm = marginal_nodes(dist_m, nodes)
    xe, we = marginal_nodes(dist_e, nodes)
    return (np.repeat(xm, xe.size), np.tile(xe, xm.size),
            np.repeat(wm, we.size) * np.tile(we, wm.size))
