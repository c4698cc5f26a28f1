"""Oriented point clouds and their text file format.

A cloud realises the target solid when its points sample the surface with
outward unit normals.  ``oracles.CloudOracle`` answers membership over it:
a query point is inside iff it lies behind the tangent plane of its nearest
cloud point, ``(q - p) . n < 0``.  This is the usual half-space heuristic;
it is exact in the limit of dense sampling and smooth surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FileFormatError

_NORMAL_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable point set with optional per-point unit normals."""

    points: np.ndarray
    normals: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.normals is not None:
            nrm = np.asarray(self.normals, dtype=float).reshape(-1, 3)
            if nrm.shape[0] != pts.shape[0]:
                raise ValueError("normals and points must have equal length")
            lens = np.linalg.norm(nrm, axis=1)
            if np.any(np.abs(lens - 1.0) > _NORMAL_TOL):
                raise ValueError("normals must be unit-norm")
            nrm.setflags(write=False)
            object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# File format: one point per line, "x y z [nx ny nz]", '#' starts a comment
# ---------------------------------------------------------------------------

def save_cloud(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x y z [nx ny nz]\n")
        for i, p in enumerate(cloud.points):
            row = f"{p[0]:.17g} {p[1]:.17g} {p[2]:.17g}"
            if cloud.normals is not None:
                n = cloud.normals[i]
                row += f" {n[0]:.17g} {n[1]:.17g} {n[2]:.17g}"
            fh.write(row + "\n")


def load_cloud(path) -> PointCloud:
    points: list[list[float]] = []
    normals: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (3, 6):
                raise FileFormatError(
                    f"{path}:{lineno}: expected 3 or 6 numbers, got {len(fields)}"
                )
            try:
                values = [float(v) for v in fields]
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
            points.append(values[:3])
            if len(values) == 6:
                normals.append(values[3:])
    if normals and len(normals) != len(points):
        raise FileFormatError(f"{path}: some points carry normals, some do not")
    try:
        return PointCloud(
            np.asarray(points, float).reshape(-1, 3),
            np.asarray(normals, float) if normals else None,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
