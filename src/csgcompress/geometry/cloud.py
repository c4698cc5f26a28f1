"""Oriented point clouds and their text file format.

A cloud realises the target solid when its points sample the surface with
outward unit normals.  ``oracles.CloudOracle`` answers membership over it:
a query point is inside iff it lies behind the tangent plane of its nearest
cloud point, ``(q - p) . n < 0``.  This is the usual half-space heuristic;
it is exact in the limit of dense sampling and smooth surfaces.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import FileFormatError

_NORMAL_TOL = 1e-6
# The numbers np.loadtxt parses: unlike float(), no "_" and no non-ASCII digits.
_FLOAT_TOKEN = re.compile(
    r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf(?:inity)?|nan)",
    re.IGNORECASE,
)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """Immutable, non-empty point set with per-point outward unit normals."""

    points: np.ndarray
    normals: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1, 3)
        nrm = np.asarray(self.normals, dtype=float).reshape(-1, 3)
        if pts.shape[0] == 0:
            raise ValueError("a point cloud needs at least one point")
        if nrm.shape[0] != pts.shape[0]:
            raise ValueError("normals and points must have equal length")
        if not (np.isfinite(pts).all() and np.isfinite(nrm).all()):
            raise ValueError("points and normals must be finite")
        lens = np.linalg.norm(nrm, axis=1)
        if np.any(np.abs(lens - 1.0) > _NORMAL_TOL):
            raise ValueError("normals must be unit-norm")
        pts.setflags(write=False)
        nrm.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "normals", nrm)

    def __len__(self) -> int:
        return self.points.shape[0]


# ---------------------------------------------------------------------------
# File format: one point per line, "x y z nx ny nz", '#' starts a comment
# ---------------------------------------------------------------------------

def save_cloud(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# x y z nx ny nz\n")
        for row in np.hstack([cloud.points, cloud.normals]):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_cloud(path) -> PointCloud:
    """Read a cloud file; raise ``FileFormatError`` naming the first bad line.

    A token is an ASCII decimal float, ``inf``/``infinity`` or ``nan``
    (any case, optional sign).  The file is parsed by one ``np.loadtxt``
    call; only when that fails, or its width is not 6 (an empty file among
    them), is it scanned again line by line to find the error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, dtype=float, comments="#", ndmin=2)
        except ValueError:
            data = None
        if data is None or data.shape[1] != 6:
            fh.seek(0)
            data = _scan_cloud(fh, path)
    try:
        return PointCloud(data[:, :3], data[:, 3:])
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _scan_cloud(lines, path) -> np.ndarray:
    """Parse line by line with ``np.loadtxt``'s token rule; an (n, 6) array."""
    rows: list[list[float]] = []
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 6:
            raise FileFormatError(
                f"{path}:{lineno}: expected 6 numbers (x y z nx ny nz), got {len(fields)}"
            )
        for v in fields:
            if not _FLOAT_TOKEN.fullmatch(v):
                raise FileFormatError(
                    f"{path}:{lineno}: could not convert string to float: {v!r}"
                )
        rows.append([float(v) for v in fields])
    return np.array(rows, dtype=float).reshape(-1, 6)
