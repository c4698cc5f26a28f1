"""Implicit geometric primitives: spheres, boxes, and cylinders with rigid poses.

Every primitive carries a signed distance function evaluated in its local
frame; query points are mapped world -> local through the inverse pose so
the distance formulas stay canonical (sphere at the origin, box axis
aligned, cylinder along +z).  Sign convention: negative strictly inside,
zero on the surface, positive outside.  Outside values are exact Euclidean
distances for all three kinds; inside values of box and cylinder are
face-distance pseudo-distances -- only the sign feeds the rest of the
pipeline.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import FileFormatError, read_json

KINDS = ("sphere", "box", "cylinder")

_QUAT_TOL = 1e-9

IDENTITY_ROTATION = (1.0, 0.0, 0.0, 0.0)


def quaternion_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix (local -> world) for a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


@dataclass(frozen=True, eq=False)
class Primitive:
    """One implicit solid with a rigid pose.

    ``params`` is kind specific: sphere ``{"radius"}``, box
    ``{"half_extents"}`` (3 positive reals), cylinder ``{"radius",
    "half_height"}`` (axis along local z).
    """

    pid: str
    kind: str
    translation: np.ndarray
    rotation: np.ndarray  # unit quaternion (w, x, y, z)
    params: dict
    _rot: np.ndarray = field(init=False, repr=False)  # local -> world
    _local_half: np.ndarray = field(init=False, repr=False)
    _scale: float = field(init=False, repr=False)  # largest |pose or size value|

    def __post_init__(self):
        if not self.pid:
            raise ValueError("primitive id must be non-empty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        t = np.asarray(self.translation, dtype=float).reshape(3)
        q = np.asarray(self.rotation, dtype=float).reshape(4)
        quat = q.tolist()
        if abs(math.hypot(*quat) - 1.0) > _QUAT_TOL:  # hypot cannot overflow
            raise ValueError(f"rotation quaternion of {self.pid!r} is not unit-norm")
        params = dict(self.params)
        if self.kind == "sphere":
            r = float(params.get("radius", 0.0))
            if r <= 0:
                raise ValueError(f"sphere {self.pid!r} needs radius > 0")
            params = {"radius": r}
            half = np.array([r, r, r])
        elif self.kind == "box":
            he = np.asarray(params.get("half_extents", ()), dtype=float).reshape(3)
            if np.any(he <= 0):
                raise ValueError(f"box {self.pid!r} needs positive half-extents")
            params = {"half_extents": he}
            half = he
        else:  # cylinder
            r = float(params.get("radius", 0.0))
            h = float(params.get("half_height", 0.0))
            if r <= 0 or h <= 0:
                raise ValueError(
                    f"cylinder {self.pid!r} needs radius > 0 and half_height > 0"
                )
            params = {"radius": r, "half_height": h}
            half = np.array([r, r, h])
        values = t.tolist() + half.tolist()
        if not all(map(math.isfinite, values + quat)):
            raise ValueError(f"primitive {self.pid!r} needs finite pose and sizes")
        t.setflags(write=False)
        q.setflags(write=False)
        object.__setattr__(self, "translation", t)
        object.__setattr__(self, "rotation", q)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "_rot", quaternion_matrix(q))
        object.__setattr__(self, "_local_half", half)
        object.__setattr__(self, "_scale", max(map(abs, values)))


def sphere(pid: str, center, radius: float) -> Primitive:
    """Axis-free convenience constructor."""
    return Primitive(pid, "sphere", np.asarray(center, float),
                     np.array(IDENTITY_ROTATION), {"radius": radius})


def box(pid: str, center, half_extents, rotation=IDENTITY_ROTATION) -> Primitive:
    return Primitive(pid, "box", np.asarray(center, float),
                     np.asarray(rotation, float), {"half_extents": half_extents})


def cylinder(pid: str, center, radius: float, half_height: float,
             rotation=IDENTITY_ROTATION) -> Primitive:
    return Primitive(pid, "cylinder", np.asarray(center, float),
                     np.asarray(rotation, float),
                     {"radius": radius, "half_height": half_height})


def _row_norm(*rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each point given as its coordinate rows.

    Each row holds one coordinate of every point, contiguous, so every
    operation loops over points.  The squares are summed left to right,
    exactly as ``np.linalg.norm(axis=1)`` sums two or three columns, so the
    result is bit-identical to it; summing whole rows skips the norm's
    generic reduction, which costs several times more on (N, 2) and (N, 3)
    arrays.
    """
    total = rows[0] * rows[0]
    for row in rows[1:]:
        total += row * row
    return np.sqrt(total)


def signed_distance(primitive: Primitive, points) -> np.ndarray:
    """Signed distance from each of the (N, 3) ``points`` to the primitive; (N,).

    Point batches stay (N, 3), and no kernel broadcasts a (3,) operand over
    them, which would make numpy's inner loop run over 3 coordinates
    instead of N points.  So the offset from the translation is one
    transposed, C-ordered subtraction, the rotation maps it into a (3, N)
    buffer of local coordinates, and every later operation works on whole
    contiguous coordinate rows.  The result is bit-identical to
    ``(points - t) @ R`` followed by ``np.linalg.norm(axis=1)`` on the
    stacked columns.
    """
    pts = np.asarray(points, dtype=float)
    offset = np.subtract(pts.T, primitive.translation[:, None], order="C")
    local = primitive._rot.T @ offset  # row k holds coordinate k of R^T (p - t)
    if primitive.kind == "sphere":
        return _row_norm(*local) - primitive.params["radius"]
    if primitive.kind == "box":
        q = np.abs(local, out=local)
        q -= primitive.params["half_extents"][:, None]
        # Exact distance outside, the deepest face distance inside.
        outside = _row_norm(*np.maximum(q, 0.0))
        qx, qy, qz = q
        return outside + np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
    x, y, z = local  # cylinder
    radial = _row_norm(x, y) - primitive.params["radius"]
    axial = np.abs(z) - primitive.params["half_height"]
    outside = _row_norm(np.maximum(radial, 0.0), np.maximum(axial, 0.0))
    return outside + np.minimum(np.maximum(radial, axial), 0.0)


def aabb(primitive: Primitive) -> tuple[np.ndarray, np.ndarray]:
    """Conservative world-space axis-aligned bounding box (lo, hi)."""
    half = np.abs(primitive._rot) @ primitive._local_half
    return primitive.translation - half, primitive.translation + half


def bounding_radius(primitive: Primitive) -> float:
    """Radius of the smallest ball about the translation that holds the solid."""
    if primitive.kind == "sphere":
        return primitive.params["radius"]
    if primitive.kind == "box":
        return float(np.linalg.norm(primitive.params["half_extents"]))
    return math.hypot(primitive.params["radius"], primitive.params["half_height"])


def surface_area(primitive: Primitive) -> float:
    """Total surface area, used to weight surface sampling."""
    if primitive.kind == "sphere":
        r = primitive.params["radius"]
        return 4.0 * np.pi * r * r
    if primitive.kind == "box":
        a, b, c = primitive.params["half_extents"]
        return 8.0 * (a * b + b * c + c * a)
    r = primitive.params["radius"]
    h = primitive.params["half_height"]
    return 4.0 * np.pi * r * h + 2.0 * np.pi * r * r


def union_box(primitives) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = aabb(primitives[0])
    for p in primitives[1:]:
        plo, phi = aabb(p)
        lo = np.minimum(lo, plo)
        hi = np.maximum(hi, phi)
    return lo, hi


def scene_diameter(primitives) -> float:
    lo, hi = union_box(primitives)
    return float(np.linalg.norm(hi - lo))


# A set whose poses and sizes all stay below this in magnitude has a
# finite union box and diameter: every AABB corner lies within 3x of it of
# the origin, so the squared diagonal stays far below the float maximum.
_SAFE_SCALE = 1e150


def check_primitive_set(primitives) -> tuple[Primitive, ...]:
    """Validate the set and return it as an immutable tuple.

    Raises ValueError when the set is empty, repeats an id, or spans a
    bounding box or diameter that overflows to infinity, which every
    sampler and margin of the pipeline is derived from.  Only a set with a
    value past ``_SAFE_SCALE`` has its box computed for that test.
    """
    prims = tuple(primitives)
    if not prims:
        raise ValueError("primitive set must be non-empty")
    seen = set()
    for p in prims:
        if p.pid in seen:
            raise ValueError(f"duplicate primitive id {p.pid!r}")
        seen.add(p.pid)
    if max(p._scale for p in prims) > _SAFE_SCALE:
        with np.errstate(over="ignore", invalid="ignore"):
            extent = np.append(np.concatenate(union_box(prims)), scene_diameter(prims))
        if not np.all(np.isfinite(extent)):
            raise ValueError("the primitive set's bounding box or diameter overflows")
    return prims


def index_primitives(primitives) -> dict[str, Primitive]:
    return {p.pid: p for p in check_primitive_set(primitives)}


# ---------------------------------------------------------------------------
# File format: JSON array of {"id", "kind", "translation", "rotation", "params"}
# ---------------------------------------------------------------------------

def primitive_to_dict(p: Primitive) -> dict:
    params = {
        k: (list(map(float, v)) if isinstance(v, np.ndarray) else float(v))
        for k, v in p.params.items()
    }
    return {
        "id": p.pid,
        "kind": p.kind,
        "translation": [float(v) for v in p.translation],
        "rotation": [float(v) for v in p.rotation],
        "params": params,
    }


def primitive_from_dict(obj: dict) -> Primitive:
    try:
        return Primitive(
            str(obj["id"]),
            obj["kind"],
            np.asarray(obj["translation"], float),
            np.asarray(obj.get("rotation", IDENTITY_ROTATION), float),
            obj.get("params", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad primitive record: {exc}") from exc


def save_primitives(primitives, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([primitive_to_dict(p) for p in primitives], fh, indent=2)
        fh.write("\n")


def load_primitives(path) -> tuple[Primitive, ...]:
    data = read_json(path)
    if not isinstance(data, list):
        raise FileFormatError(f"{path}: expected a JSON array of primitives")
    try:
        return check_primitive_set(primitive_from_dict(obj) for obj in data)
    except (ValueError, FileFormatError) as exc:
        raise FileFormatError(f"{path}: {exc}") from exc
