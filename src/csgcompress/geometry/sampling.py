"""Deterministic interior and surface samplers.

All randomness flows from explicit integer seeds through
``numpy.random.SeedSequence``, so results are reproducible bit for bit and
parallel callers can derive independent per-task streams from one master
seed.  ``rejection_sample``, the one rejection loop (the pipeline's
agreement check uses it too), draws fixed-size attempt batches; with the same
seed, runs that ask for more points extend the accepted sequence of runs
that asked for fewer (a prefix property the intersection-graph builder
relies on).

``sign_vector_samples`` is the one sampling pass of the graph and product
stages: it draws interior points of every primitive and groups them by the
set of primitives that contain them, i.e. by the cell of the primitive
arrangement they fall in.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, StructuralError
from .cloud import PointCloud
from .csg import CsgNode, leaf_ids, tree_value
from .primitives import (
    Primitive,
    aabb,
    aabbs_overlap,
    index_primitives,
    signed_distance,
    surface_area,
)

_BATCH = 4096
_ATTEMPT_FACTOR = 64  # rejection cap: ~64 attempts per requested point
_SURFACE_ATTEMPT_FACTOR = 512


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    """Independent generator for subtask ``key`` of a non-negative master seed."""
    if master_seed < 0:
        raise ParameterError(f"seed must be non-negative, got {master_seed}")
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


def derive_seed(master_seed: int, *key) -> int:
    """Plain integer sub-seed for APIs that take a seed, not a generator."""
    return int(derive_rng(master_seed, *key).integers(0, 2**63 - 1))


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


def rejection_sample(draw, accept, count: int, max_attempts: int) -> tuple[np.ndarray, ...]:
    """The kept rows of ``_BATCH``-row batches, up to ``count`` of them.

    ``draw(n)`` returns n candidate rows; ``accept(rows)`` returns the kept
    ones as a tuple of row-aligned arrays (the points first, then any
    per-point values the filter computed).  Batches are drawn until
    ``count`` rows are kept or ``max_attempts`` rows are drawn.  Returns each
    array concatenated in draw order and truncated to ``count``; the tuple
    is empty when no batch was drawn.
    """
    parts = []
    kept = attempts = 0
    while kept < count and attempts < max_attempts:
        arrays = accept(draw(_BATCH))
        attempts += _BATCH
        parts.append(arrays)
        kept += len(arrays[0])
    return tuple(np.concatenate(column)[:count] for column in zip(*parts))


def sample_region(primitive: Primitive, count: int, seed: int) -> np.ndarray:
    """Up to ``count`` uniform points inside ``primitive``.

    Rejection-samples the primitive's AABB.  Returns a (k, 3) array with
    k <= count; k < count only when the attempt cap runs out first.
    """
    if count <= 0:
        return np.empty((0, 3))
    lo, hi = aabb(primitive)
    rng = np.random.default_rng(int(seed))
    return rejection_sample(
        lambda n: rng.uniform(lo, hi, size=(n, 3)),
        lambda pts: (pts[signed_distance(primitive, pts) < 0],),
        count, _ATTEMPT_FACTOR * count,
    )[0]


def sign_vector_samples(primitives, count: int,
                        seeds) -> list[dict[tuple[int, ...], np.ndarray]]:
    """Interior samples of every primitive, grouped by sign vector.

    Entry i holds the points ``sample_region(primitives[i], count,
    seeds[i])`` draws, keyed by the ascending indices of all primitives
    that contain them (i among them).  That positive set fixes the point's
    inside/outside sign over every primitive, however many there are.  A
    point is tested only against the primitives whose AABBs meet the AABB of
    the one that drew it; no other can contain it.  Each group keeps the
    draw order of its points.
    """
    boxes = [aabb(p) for p in primitives]
    tables = []
    for i, seed in enumerate(seeds):
        pts = sample_region(primitives[i], count, seed)
        near = [j for j, b in enumerate(boxes) if aabbs_overlap(boxes[i], b)]
        member = np.column_stack(
            [signed_distance(primitives[j], pts) < 0 for j in near]
        )
        # One opaque byte string per row, as wide as the row needs.
        packed = np.packbits(member, axis=1)
        _, first, which = np.unique(
            packed.view(f"V{packed.shape[1]}").ravel(),
            return_index=True, return_inverse=True,
        )
        tables.append({
            tuple(near[j] for j in np.flatnonzero(member[f])): pts[which == r]
            for r, f in enumerate(first)
        })
    return tables


# ---------------------------------------------------------------------------
# Surface sampling
# ---------------------------------------------------------------------------

def _sample_on_primitive(prim: Primitive, n: int, rng: np.random.Generator) -> np.ndarray:
    """n points uniformly distributed on the primitive's surface (world frame)."""
    if prim.kind == "sphere":
        r = prim.params["radius"]
        d = rng.normal(size=(n, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        local = r * d
    elif prim.kind == "box":
        a, b, c = prim.params["half_extents"]
        areas = np.array([b * c, a * c, a * b])  # faces normal to x, y, z
        axis = rng.choice(3, size=n, p=areas / areas.sum())
        side = rng.choice([-1.0, 1.0], size=n)
        u = rng.uniform(-1.0, 1.0, size=(n, 2))
        local = np.empty((n, 3))
        half = np.array([a, b, c])
        for ax in range(3):
            m = axis == ax
            others = [i for i in range(3) if i != ax]
            local[m, ax] = side[m] * half[ax]
            local[np.ix_(m, others)] = u[m] * half[others]
    else:  # cylinder
        r = prim.params["radius"]
        h = prim.params["half_height"]
        side_area = 4.0 * np.pi * r * h
        cap_area = 2.0 * np.pi * r * r
        on_side = rng.random(n) < side_area / (side_area + cap_area)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        local = np.empty((n, 3))
        m = on_side
        local[m, 0] = r * np.cos(theta[m])
        local[m, 1] = r * np.sin(theta[m])
        local[m, 2] = rng.uniform(-h, h, size=int(m.sum()))
        m = ~on_side
        rad = r * np.sqrt(rng.random(int(m.sum())))
        local[m, 0] = rad * np.cos(theta[m])
        local[m, 1] = rad * np.sin(theta[m])
        local[m, 2] = np.where(rng.random(int(m.sum())) < 0.5, -h, h)
    return local @ prim._rot.T + prim.translation


def _tree_bounded(tree: CsgNode, by_id: dict[str, Primitive]) -> bool:
    """Probe far-away points; any inside answer means the region is unbounded."""
    prims = [by_id[i] for i in leaf_ids(tree)]
    lo, hi = union_box(prims)
    center = (lo + hi) / 2.0
    half = np.maximum((hi - lo) / 2.0, 1.0) * 8.0
    corners = center + half * np.array(
        [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)]
    )
    axes = center + half * np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]]
    )
    probes = np.vstack([corners, axes])
    return not bool(np.any(tree_value(tree, by_id, probes) < 0))


def _numeric_normals(tree: CsgNode, by_id, pts: np.ndarray, eps: float) -> np.ndarray:
    grad = np.empty_like(pts)
    for ax in range(3):
        step = np.zeros(3)
        step[ax] = eps
        grad[:, ax] = (
            tree_value(tree, by_id, pts + step) - tree_value(tree, by_id, pts - step)
        ) / (2.0 * eps)
    lens = np.linalg.norm(grad, axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lens > 0, grad / lens, 0.0)


def sample_surface(tree: CsgNode, primitives, count: int, seed: int) -> PointCloud:
    """``count`` points on the surface of the solid, with outward unit normals.

    Candidate points are drawn area-weighted on the primitives' surfaces,
    kept when the composed tree value vanishes there, and validated with a
    two-sided membership probe so that spurious zero-value points interior
    to the solid (an artefact of min/max composition) are rejected.  The
    same probe orients the normals outward.
    """
    by_id = index_primitives(primitives)
    validate = leaf_ids(tree) - set(by_id)
    if validate:
        raise StructuralError(f"tree references unknown primitives: {sorted(validate)}")
    if count <= 0:
        return PointCloud(np.empty((0, 3)), np.empty((0, 3)))
    if not _tree_bounded(tree, by_id):
        raise StructuralError("cannot sample the surface of an unbounded solid")

    prims = [by_id[i] for i in sorted(leaf_ids(tree))]
    areas = np.array([surface_area(p) for p in prims])
    weights = areas / areas.sum()
    diag = scene_diameter(prims)
    on_tol = 1e-9 * max(diag, 1.0)
    probe = 1e-4 * max(diag, 1.0)
    grad_eps = 1e-6 * max(diag, 1.0)

    rng = np.random.default_rng(int(seed))

    def draw(n):
        counts = rng.multinomial(n, weights)
        batch = np.vstack(
            [_sample_on_primitive(p, k, rng) for p, k in zip(prims, counts) if k > 0]
        )
        # The batch is blocked by primitive; shuffle so truncation cannot
        # bias the cloud toward the first primitives.
        return batch[rng.permutation(batch.shape[0])]

    def accept(batch):
        batch = batch[np.abs(tree_value(tree, by_id, batch)) <= on_tol]
        normals = _numeric_normals(tree, by_id, batch, grad_eps)
        ok = np.linalg.norm(normals, axis=1) > 0.5
        batch, normals = batch[ok], normals[ok]
        # Two-sided probe: +normal side must be outside, -normal side inside.
        out_side = tree_value(tree, by_id, batch + probe * normals) >= 0
        in_side = tree_value(tree, by_id, batch - probe * normals) < 0
        keep = out_side & in_side
        return batch[keep], normals[keep]

    pts, nrm = rejection_sample(draw, accept, count, _SURFACE_ATTEMPT_FACTOR * count)
    if len(pts) < count:
        raise StructuralError(
            f"surface sampler produced only {len(pts)}/{count} points; "
            "the solid may be degenerate"
        )
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)
