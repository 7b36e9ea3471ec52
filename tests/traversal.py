"""The one-ray view of the batched traversal in `pillarseg.occupancy`.

The program casts whole scans at once; the traversal tests compare single
segments against the oracles, so they view the same engine one ray at a time.
"""

import numpy as np

from pillarseg import occupancy


def traverse_cells_2d(origin, endpoint, cfg):
    """Ordered (row, col) cells traversed by the segment, origin and endpoint
    included (see the `pillarseg.occupancy` docstring for the contract). The
    segment is clipped to the grid extent first, and one that misses the grid
    yields no cells; a degenerate segment yields its single cell."""
    flat = occupancy._traverse(np.asarray(origin, dtype=np.float64),
                               np.asarray(endpoint, dtype=np.float64)[:, None],
                               occupancy._lattice(cfg, 2))
    return [divmod(f, cfg.width) for f in flat.tolist()]
