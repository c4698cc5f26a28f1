"""Inside/outside oracles for the target solid.

The pipeline asks one question of the target: which of these points are
inside?  An oracle is any object with an ``inside(points)`` method.  Two
sources answer it -- a ground-truth CSG tree (exact, used for fixtures and
evaluation) and an oriented point cloud (the lossy input of the compression
problem).  Both answer an (N, 3) array of points with an (N,) boolean
array, are deterministic and are safe to query concurrently.
``CloudOracle`` answers a batch with nearest-neighbour queries spread over
all cores; each point's answer does not depend on how the batch is split.

``CloudOracle`` builds its kd-tree with the sliding-midpoint split rule
(``balanced_tree=False``), uncompacted nodes and 64 points per leaf.  Most
product witnesses lie far from a small target's cloud; there the default
median-split, compacted tree searches many nodes per query, while the
sliding-midpoint tree (Maneewongvatana & Mount, 1999) keeps its cells fat
and prunes far-field queries early.  The tree shape changes how the search
runs, not the distance it returns; only points at exactly equal distance
could resolve to a different nearest neighbour.

``scipy.spatial`` is imported when the first ``CloudOracle`` is built, not
when this module loads.  It is the package's only use of scipy, and loading
it costs about 36 MB of resident memory and 0.19 s; the tree-oracle,
abstract, ``cover`` and ``qubo`` paths never need it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .csg import CsgNode, tree_value
from .primitives import index_primitives

# kd-tree construction for CloudOracle: sliding-midpoint splits, uncompacted
# nodes and large leaves answer far-field witnesses with much less search.
_KDTREE_LEAFSIZE = 64
_KDTREE_BALANCED = False
_KDTREE_COMPACT = False


@dataclass(frozen=True, eq=False)
class TreeOracle:
    """Membership of a known CSG tree over a known primitive set."""

    tree: CsgNode
    primitives: tuple

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        object.__setattr__(self, "_by_id", index_primitives(self.primitives))

    def inside(self, points) -> np.ndarray:
        return tree_value(self.tree, self._by_id, points) < 0


@dataclass(frozen=True, eq=False)
class CloudOracle:
    """Nearest-neighbour half-space membership over an oriented cloud."""

    cloud: PointCloud

    def __post_init__(self):
        from scipy.spatial import cKDTree

        object.__setattr__(self, "_kdtree", cKDTree(
            self.cloud.points,
            leafsize=_KDTREE_LEAFSIZE,
            balanced_tree=_KDTREE_BALANCED,
            compact_nodes=_KDTREE_COMPACT,
        ))

    def inside(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        _, idx = self._kdtree.query(pts, k=1, workers=-1)
        side = np.einsum(
            "ij,ij->i", pts - self.cloud.points[idx], self.cloud.normals[idx]
        )
        return side < 0
