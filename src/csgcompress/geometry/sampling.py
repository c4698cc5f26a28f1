"""Deterministic interior and surface samplers.

All randomness flows from explicit integer seeds through
``numpy.random.SeedSequence``, so results are reproducible bit for bit and
parallel callers can derive independent per-task streams from one master
seed.  ``rejection_batches`` is the one rejection loop: it yields the kept
rows of attempt batches of ``_BATCH`` rows, or of a ramp that starts
smaller and doubles up to ``_BATCH`` and stops at the same total.
``rejection_sample`` draws whole batches for the surface sampler, the
pipeline's agreement check and ``sample_region``; ``region_batches``, the
intersection graph's draw, ramps up from ``_FIRST_BATCH``.  With the same
seed, runs that ask for more points extend the accepted sequence of runs
that asked for fewer, and an interior draw keeps the same points in the
same order whatever its first batch (prefix properties the
intersection-graph builder relies on when it walks a primitive's draw and
stops it early).

Point batches stay (N, 3), and the kernels on ``compress``'s path never
broadcast a (3,) operand over them, which would make numpy's inner loop
run over 3 coordinates instead of N points (the surface sampler, a
fixture builder, is not on that path).  ``box_points`` is the one box
draw, for the interior draws of the graph and product stages and for the
pipeline's agreement check: it scales ``rng.random((n, 3))`` column by
column, bit-identical to ``rng.uniform(lo, hi, size=(n, 3))``.

``near_pairs`` is the one pair filter of the graph and product stages:
two primitives can share an interior point only when their bounding boxes
meet and their bounding balls meet.  ``sign_vector_samples`` is the
product stage's sampling pass: from one seed it derives every primitive's
stream, draws interior points of every primitive and returns the cells of
the primitive arrangement they fall in, each keyed by the ids of the
primitives that contain its points.  Each drawn point is tested once
against each other primitive near its own; the drawing primitive's
membership is known, since the draw kept only its interior points.  Rows
are grouped by their membership bits packed into 64-bit words, so a row
may span any number of near primitives.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, StructuralError, check_seed
from .cloud import PointCloud
from .csg import CsgNode, leaf_ids, tree_value
from .primitives import (
    Primitive,
    aabb,
    bounding_radius,
    check_primitive_set,
    index_primitives,
    scene_diameter,
    signed_distance,
    surface_area,
    union_box,
)

_BATCH = 4096
# Attempts in the first batch of an interior draw.  The intersection graph
# decides a near pair by its first hit, mostly within a few dozen points,
# so a small first batch spares drawing points it would throw away.
_FIRST_BATCH = 64
_ATTEMPT_FACTOR = 64  # rejection cap: ~64 attempts per requested point
_SURFACE_ATTEMPT_FACTOR = 512
# Relative slack of the bounding-ball test.  A rotation from a quaternion
# accepted within 1e-9 of unit norm may shrink lengths by a few parts in
# 1e9, so a point a primitive calls inside may lie that far past its ball.
_BALL_SLACK = 1e-6
_SEED_NAMESPACE = 0x50  # keeps the product stage's streams apart from others'


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    """Independent generator for subtask ``key`` of a non-negative master seed."""
    check_seed(master_seed)
    return np.random.default_rng(np.random.SeedSequence((int(master_seed),) + tuple(int(k) for k in key)))


def derive_seed(master_seed: int, *key) -> int:
    """Plain integer sub-seed for APIs that take a seed, not a generator."""
    return int(derive_rng(master_seed, *key).integers(0, 2**63 - 1))


def rejection_batches(draw, accept, count: int, max_attempts: int,
                      first: int = _BATCH):
    """Yield the kept rows of attempt batches, ``count`` rows in all at most.

    ``draw(n)`` returns n candidate rows; ``accept(rows)`` returns the kept
    ones as a tuple of row-aligned arrays (the points first, then any
    per-point values the filter computed).  The first batch draws ``first``
    rows and each later one twice the last, up to ``_BATCH``.  Batches are
    drawn until ``count`` rows are kept or ceil(max_attempts / ``_BATCH``)
    whole ``_BATCH`` batches' worth of rows are drawn; the last batch is cut
    to that total, so it is the same for every ``first``.  Each yield is
    one batch's tuple, cut short where it would pass ``count``.  A caller
    may stop early: every batch is drawn only when asked for.
    """
    limit = -(-max_attempts // _BATCH) * _BATCH
    kept = attempts = 0
    size = first
    while kept < count and attempts < limit:
        size = min(size, limit - attempts)
        arrays = tuple(a[: count - kept] for a in accept(draw(size)))
        attempts += size
        kept += len(arrays[0])
        yield arrays
        size = min(2 * size, _BATCH)


def rejection_sample(draw, accept, count: int, max_attempts: int) -> tuple[np.ndarray, ...]:
    """Every batch of ``rejection_batches``, each array concatenated in draw order.

    The tuple is empty when no batch was drawn.
    """
    return tuple(
        np.concatenate(column)
        for column in zip(*rejection_batches(draw, accept, count, max_attempts))
    )


def box_points(rng: np.random.Generator, lo: np.ndarray, hi: np.ndarray,
               n: int) -> np.ndarray:
    """(n, 3) uniform points in the box [lo, hi), bit-identical to
    ``rng.uniform(lo, hi, size=(n, 3))`` and leaving ``rng`` in the same state.

    The doubles of ``rng.random((n, 3))`` are scaled column by column with
    ``uniform``'s own expression, ``lo + (hi - lo) * u``, so each operation
    loops over the n points rather than broadcasting the (3,) bounds.
    """
    pts = rng.random((n, 3))
    for k in range(3):
        column = pts[:, k]
        column *= hi[k] - lo[k]
        column += lo[k]
    return pts


def _region_draw(primitive: Primitive, seed: int):
    """The (draw, accept) pair of ``rejection_batches`` for a box draw
    rejected to the primitive's interior."""
    lo, hi = aabb(primitive)
    rng = np.random.default_rng(int(seed))
    return (lambda n: box_points(rng, lo, hi, n),
            lambda pts: (pts[signed_distance(primitive, pts) < 0],))


def region_batches(primitive: Primitive, count: int, seed: int):
    """Yield ``sample_region``'s points one attempt batch at a time.

    The batches start at ``_FIRST_BATCH`` attempts and double
    (``rejection_batches``), for a caller that may stop early.  The box
    draw is prefix-stable, so the points and their order are those of
    ``sample_region``; only how they are split into batches differs.
    """
    for (pts,) in rejection_batches(*_region_draw(primitive, seed), count,
                                    _ATTEMPT_FACTOR * count, _FIRST_BATCH):
        yield pts


def sample_region(primitive: Primitive, count: int, seed: int) -> np.ndarray:
    """Up to ``count`` uniform points inside ``primitive``.

    Rejection-samples the primitive's AABB in whole batches.  Returns a
    (k, 3) array with k <= count; k < count only when the attempt cap runs
    out first.
    """
    if count <= 0:
        return np.empty((0, 3))
    (pts,) = rejection_sample(*_region_draw(primitive, seed), count,
                              _ATTEMPT_FACTOR * count)
    return pts


def check_sample_count(count: int) -> None:
    """Refuse a per-primitive interior sample count below 1 (ParameterError)."""
    if count < 1:
        raise ParameterError(f"a region sample needs count >= 1, got {count}")


def near_pairs(primitives) -> np.ndarray:
    """(n, n) bool matrix: entry (i, j) is false when no point can lie inside both.

    Primitives i and j are near when their AABBs meet and their bounding
    balls (``bounding_radius`` about the translation) meet, the latter
    with a relative slack of ``_BALL_SLACK``.  The matrix is symmetric and
    its diagonal is true.
    """
    boxes = np.array([aabb(p) for p in primitives])  # (n, 2, 3): lo, hi
    # below[i, j]: box i starts at or below the end of box j on every axis,
    # so boxes i and j meet exactly when both below[i, j] and below[j, i].
    below = np.all(boxes[:, None, 0] <= boxes[None, :, 1], axis=2)
    centres = np.array([p.translation for p in primitives])
    radii = np.array([bounding_radius(p) for p in primitives])
    gaps = np.linalg.norm(centres[:, None] - centres[None, :], axis=2)
    reach = (radii[:, None] + radii[None, :]) * (1.0 + _BALL_SLACK)
    return below & below.T & (gaps <= reach)


def sign_vector_samples(primitives, count: int,
                        seed: int) -> dict[frozenset[str], np.ndarray]:
    """Interior samples of every primitive, grouped by the cell they fall in.

    Primitive i draws ``sample_region(primitives[i], count,
    derive_seed(seed, 0x50, i))``.  Each key of the returned dict is a
    sampled cell's positive set: the frozenset of ids of all primitives
    that contain its points, which fixes their inside/outside sign over
    every primitive, however many there are.  Its value is the cell's
    witnesses, in primitive order, then draw order.  A point is tested
    once against each other primitive whose AABB meets the AABB of the one
    that drew it and whose bounding ball meets its ball (``near_pairs``);
    no other can contain it, and its own column is known true, since
    ``sample_region`` kept the point by that very test.  The membership
    row is packed into bits, padded to whole 64-bit big-endian words, and
    each primitive's rows are stably sorted by their words; the keys come
    in the order a cell is first met, primitive by primitive and, within
    one, in ascending order of the packed rows.  A pair the ball test
    drops has an all-false column, so dropping it moves no row in that
    order.  Raises ParameterError when ``count`` is below 1 and ValueError
    when ``check_primitive_set`` refuses the set.
    """
    prims = check_primitive_set(primitives)
    check_sample_count(count)
    near_matrix = near_pairs(prims)
    parts: dict[frozenset[str], list[np.ndarray]] = {}
    for i, prim in enumerate(prims):
        pts = sample_region(prim, count, derive_seed(seed, _SEED_NAMESPACE, i))
        near = np.flatnonzero(near_matrix[i]).tolist()
        # One bit per near primitive, padded with false columns to whole words.
        member = np.zeros((len(pts), -(-len(near) // 64) * 64), dtype=bool)
        for c, j in enumerate(near):
            member[:, c] = True if j == i else signed_distance(prims[j], pts) < 0
        words = np.packbits(member, axis=1).view(">u8")
        order = np.lexsort(words.T[::-1])
        ranked = words[order]
        cuts = np.flatnonzero(np.any(ranked[1:] != ranked[:-1], axis=1)) + 1
        for group in np.split(order, cuts):
            if len(group):  # the one group is empty when nothing was drawn
                positives = np.flatnonzero(member[group[0], : len(near)])
                key = frozenset(prims[near[c]].pid for c in positives)
                parts.setdefault(key, []).append(pts[group])
    return {key: np.concatenate(p) for key, p in parts.items()}


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
    same probe orients the normals outward.  Raises ParameterError when
    ``count`` is below 1.
    """
    by_id = index_primitives(primitives)
    validate = leaf_ids(tree) - set(by_id)
    if validate:
        raise StructuralError(f"tree references unknown primitives: {sorted(validate)}")
    if count < 1:
        raise ParameterError(f"a surface sample needs count >= 1, got {count}")
    if not _tree_bounded(tree, by_id):
        raise StructuralError("cannot sample the surface of an unbounded solid")

    prims = [by_id[i] for i in sorted(leaf_ids(tree))]
    areas = np.array([surface_area(p) for p in prims])
    weights = areas / areas.sum()
    diag = scene_diameter(prims)
    on_tol = 1e-9 * diag
    probe = 1e-4 * diag
    grad_eps = 1e-6 * diag

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
