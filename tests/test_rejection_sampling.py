"""Bit-identity of the geometry kernels against the implementations they replaced.

``sample_region``, ``sample_surface`` and ``oracle_agreement`` used to keep
one hand-written "draw a batch, filter, count attempts, truncate" loop each.
``signed_distance`` used to take its row norms from ``np.linalg.norm`` of
(N, 3) local coordinates, box draws used to be ``rng.uniform(lo, hi,
size=(n, 3))``, ``tree_value`` used to stack a node's children for
``np.minimum.reduce`` and ``np.maximum.reduce``, and
``sign_vector_samples`` used to test each point against its own primitive
again, to group rows with ``np.unique`` over opaque byte strings, and to
leave merging each primitive's groups into cells to its caller.  The
reference implementations below are that code as it was, except that the
agreement check no longer asks the oracle for a surface distance; every
output of the current code must equal theirs bit for bit.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from csgcompress.errors import ParameterError, StructuralError
from csgcompress.geometry import (
    CloudOracle,
    Complement,
    Intersection,
    Leaf,
    PointCloud,
    Union,
    aabb,
    box,
    cylinder,
    index_primitives,
    leaf_ids,
    sample_region,
    sample_surface,
    scene_diameter,
    sign_vector_samples,
    signed_distance,
    sphere,
    surface_area,
    tree_value,
)
from csgcompress.geometry.csg import _tree_value
from csgcompress.geometry.sampling import (
    _numeric_normals,
    _sample_on_primitive,
    _tree_bounded,
    box_points,
    derive_rng,
    derive_seed,
    region_batches,
    rejection_batches,
    union_box,
)
from csgcompress.graph import build_intersection_graph
from csgcompress.pipeline import oracle_agreement
from csgcompress.products import enumerate_products

_BATCH = 4096


def reference_sample_region(primitive, count, seed):
    if count <= 0:
        return np.empty((0, 3))
    lo, hi = aabb(primitive)
    rng = np.random.default_rng(int(seed))
    accepted = []
    n_accepted = 0
    attempts = 0
    max_attempts = 64 * count
    while n_accepted < count and attempts < max_attempts:
        pts = rng.uniform(lo, hi, size=(_BATCH, 3))
        attempts += _BATCH
        pts = pts[signed_distance(primitive, pts) < 0]
        if len(pts):
            accepted.append(pts)
            n_accepted += len(pts)
    if not accepted:
        return np.empty((0, 3))
    return np.concatenate(accepted)[:count]


def reference_signed_distance(primitive, points):
    pts = np.asarray(points, dtype=float)
    local = (pts - primitive.translation) @ primitive._rot
    if primitive.kind == "sphere":
        return np.linalg.norm(local, axis=1) - primitive.params["radius"]
    if primitive.kind == "box":
        q = np.abs(local) - primitive.params["half_extents"]
    else:
        radial = np.linalg.norm(local[:, :2], axis=1) - primitive.params["radius"]
        axial = np.abs(local[:, 2]) - primitive.params["half_height"]
        q = np.stack([radial, axial], axis=1)
    return np.linalg.norm(np.maximum(q, 0.0), axis=1) + np.minimum(q.max(axis=1), 0.0)


def reference_tree_value(tree, by_id, points):
    if isinstance(tree, Leaf):
        return reference_signed_distance(by_id[tree.prim], points)
    if isinstance(tree, Complement):
        return -reference_tree_value(tree.child, by_id, points)
    reduce = np.minimum.reduce if isinstance(tree, Union) else np.maximum.reduce
    return reduce([reference_tree_value(c, by_id, points) for c in tree.children])


def reference_sign_vector_tables(primitives, count, seeds):
    """Per primitive i, the points drawn with ``seeds[i]``, keyed by the
    ascending indices of the primitives that contain them."""
    def aabbs_overlap(a, b):
        return bool(np.all(a[0] <= b[1]) and np.all(b[0] <= a[1]))

    boxes = [aabb(p) for p in primitives]
    tables = []
    for i, seed in enumerate(seeds):
        pts = reference_sample_region(primitives[i], count, seed)
        near = [j for j, b in enumerate(boxes) if aabbs_overlap(boxes[i], b)]
        member = np.column_stack(
            [reference_signed_distance(primitives[j], pts) < 0 for j in near]
        )
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


def reference_sign_vector_samples(primitives, count, seed):
    """The per-primitive tables of the product stage's seeds, merged into
    cells keyed by their positive ids, in first-seen order."""
    seeds = [derive_seed(seed, 0x50, i) for i in range(len(primitives))]
    cells = {}
    for table in reference_sign_vector_tables(primitives, count, seeds):
        for positives, pts in table.items():
            key = frozenset(primitives[j].pid for j in positives)
            cells.setdefault(key, []).append(pts)
    return {key: np.concatenate(parts) for key, parts in cells.items()}


def reference_sample_surface(tree, primitives, count, seed):
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
    pts_out = []
    nrm_out = []
    n_total = 0
    attempts = 0
    max_attempts = 512 * count
    while n_total < count and attempts < max_attempts:
        counts = rng.multinomial(_BATCH, weights)
        batch = np.vstack(
            [
                _sample_on_primitive(p, k, rng)
                for p, k in zip(prims, counts)
                if k > 0
            ]
        )
        batch = batch[rng.permutation(batch.shape[0])]
        attempts += _BATCH
        v = tree_value(tree, by_id, batch)
        batch = batch[np.abs(v) <= on_tol]
        if batch.shape[0] == 0:
            continue
        normals = _numeric_normals(tree, by_id, batch, grad_eps)
        ok = np.linalg.norm(normals, axis=1) > 0.5
        batch, normals = batch[ok], normals[ok]
        if batch.shape[0] == 0:
            continue
        out_side = tree_value(tree, by_id, batch + probe * normals) >= 0
        in_side = tree_value(tree, by_id, batch - probe * normals) < 0
        keep = out_side & in_side
        if keep.any():
            pts_out.append(batch[keep])
            nrm_out.append(normals[keep])
            n_total += int(keep.sum())
    if n_total < count:
        raise StructuralError(
            f"surface sampler produced only {n_total}/{count} points; "
            "the solid may be degenerate"
        )
    pts = np.concatenate(pts_out)[:count]
    nrm = np.concatenate(nrm_out)[:count]
    nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
    return PointCloud(pts, nrm)


def reference_oracle_agreement(tree, primitives, oracle, n_points, seed):
    prims = tuple(primitives)
    lo, hi = union_box(prims)
    pad = 0.1 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    eps = 0.01 * scene_diameter(prims)
    rng = derive_rng(seed, 0xE7A1)
    kept_match = 0
    kept_total = 0
    attempts = 0
    while kept_total < n_points and attempts < 50 * n_points:
        batch = rng.uniform(lo, hi, size=(4096, 3))
        attempts += batch.shape[0]
        v = tree_value(tree, index_primitives(prims), batch)
        far = np.abs(v) > eps
        batch, v = batch[far], v[far]
        if batch.shape[0] == 0:
            continue
        take = min(batch.shape[0], n_points - kept_total)
        batch, v = batch[:take], v[:take]
        truth = np.asarray(oracle.inside(batch))
        kept_match += int(np.sum((v < 0) == truth))
        kept_total += take
    if kept_total == 0:
        return 0.0, 0
    return kept_match / kept_total, kept_total


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

_coord = st.floats(-2.0, 2.0)
_size = st.floats(0.05, 1.5)


@st.composite
def rotations(draw):
    q = np.array([draw(st.floats(-1.0, 1.0)) for _ in range(4)])
    q[0] += 1.5  # keep the quaternion away from zero
    return tuple(q / np.linalg.norm(q))


@st.composite
def primitives(draw, pid="P"):
    kind = draw(st.sampled_from(["sphere", "box", "cylinder"]))
    center = (draw(_coord), draw(_coord), draw(_coord))
    if kind == "sphere":
        return sphere(pid, center, draw(_size))
    if kind == "box":
        return box(pid, center, (draw(_size), draw(_size), draw(_size)),
                   draw(rotations()))
    return cylinder(pid, center, draw(_size), draw(_size), draw(rotations()))


@st.composite
def solids(draw):
    """Two or three primitives and a tree over them (possibly unbounded or empty)."""
    n = draw(st.integers(2, 3))
    prims = [draw(primitives(pid)) for pid in "ABC"[:n]]
    leaves = [Leaf(p.pid) for p in prims]
    shape = draw(st.sampled_from(["union", "inter", "diff", "comp"]))
    if shape == "union":
        tree = Union(tuple(leaves))
    elif shape == "inter":
        tree = Intersection(tuple(leaves))
    elif shape == "diff":
        tree = Intersection((leaves[0], *(Complement(leaf) for leaf in leaves[1:])))
    else:
        tree = Complement(leaves[0])
    return tree, prims


@st.composite
def thin_solids(draw):
    """Solids over one to four primitives, among them boxes with a 1e-3
    half-extent and cylinders twenty times longer than wide."""
    n = draw(st.integers(1, 4))
    prims = []
    for pid in "ABCD"[:n]:
        shape = draw(st.sampled_from(["any", "thin box", "long cylinder"]))
        center = (draw(_coord), draw(_coord), draw(_coord))
        if shape == "thin box":
            prims.append(box(pid, center, (1e-3, draw(_size), draw(_size)),
                             draw(rotations())))
        elif shape == "long cylinder":
            r = draw(st.floats(0.01, 0.1))
            prims.append(cylinder(pid, center, r, 20 * r, draw(rotations())))
        else:
            prims.append(draw(primitives(pid)))
    leaves = [Leaf(p.pid) for p in prims]
    if n == 1:
        return draw(st.sampled_from([leaves[0], Complement(leaves[0])])), prims
    tree = draw(st.sampled_from([
        Union(tuple(leaves)),
        Intersection(tuple(leaves)),
        Union((leaves[0], *(Complement(leaf) for leaf in leaves[1:]))),
    ]))
    return tree, prims


class InsideOnlyOracle:
    """An oracle with nothing but ``inside``: here, every point is outside."""

    def inside(self, points):
        return np.zeros(len(points), dtype=bool)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ParameterError, StructuralError) as exc:
        return str(exc)


_seeds = st.integers(0, 2**32 - 1)


def _tilted_thin_cylinder():
    # A sliver cylinder fills a small share of its AABB, so a large request
    # exhausts the 64x attempt cap short of the count.
    tilt = (np.cos(np.pi / 8), np.sin(np.pi / 8), 0.0, 0.0)  # 45 degrees about x
    return cylinder("T", (0, 0, 0), 0.005, 1.0, tilt)


class TestSampleRegion:
    @settings(max_examples=60)
    @given(primitive=primitives(), count=st.integers(0, 5000), seed=_seeds)
    def test_matches_reference(self, primitive, count, seed):
        got = sample_region(primitive, count, seed)
        want = reference_sample_region(primitive, count, seed)
        assert got.shape == want.shape
        npt.assert_array_equal(got, want)

    def test_cap_runs_out_identically(self):
        thin = _tilted_thin_cylinder()
        got = sample_region(thin, 5000, 3)
        assert 0 < len(got) < 5000
        want = reference_sample_region(thin, 5000, 3)
        npt.assert_array_equal(got, want)
        # The draw starts with small batches and stops at the same total of
        # attempts as whole batches, so it keeps the same points.
        ramp = list(region_batches(thin, 5000, 3))
        assert len(ramp[0]) < len(want)
        npt.assert_array_equal(np.concatenate(ramp), want)

    @pytest.mark.parametrize("first", [1, 64, 3000, 4096])
    def test_batches_ramp_up_to_the_same_total(self, first):
        sizes = []

        def draw(n):
            sizes.append(n)
            return np.zeros((n, 3))

        batches = rejection_batches(draw, lambda rows: (rows[:0],), 10, 64 * 300,
                                    first)
        assert all(len(pts) == 0 for (pts,) in batches)
        # 64 x 300 attempts round up to 5 whole batches of 4096.
        assert sum(sizes) == 5 * 4096
        assert sizes[0] == first
        assert all(b == min(2 * a, 4096) for a, b in zip(sizes, sizes[1:-1]))


class TestBoxPoints:
    @settings(max_examples=50)
    @given(corners=st.lists(st.floats(-1e300, 1e300), min_size=6, max_size=6),
           seed=_seeds)
    @pytest.mark.parametrize("n", [0, 1, 64, 4096])
    def test_matches_uniform(self, n, corners, seed):
        lo = np.minimum(corners[:3], corners[3:])
        hi = np.maximum(corners[:3], corners[3:])
        rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        npt.assert_array_equal(box_points(rng, lo, hi, n),
                               want_rng.uniform(lo, hi, size=(n, 3)), strict=True)
        # Both leave the generator in the same state.
        assert rng.random() == want_rng.random()


def _points_in_layout(layout, t, rot, scale, rng):
    """The points of one ``test_matches_norm_formula`` case."""
    if layout.startswith("N="):
        return t + scale * rng.normal(size=(int(layout[2:]), 3))
    steps = scale * np.array([-1.0, -0.5, 0.0, 0.5, 1.0])[:, None]
    points = np.vstack([
        t + scale * rng.normal(size=(64, 3)),
        t,  # the centre
        *(t + steps * rot[:, k] for k in range(3)),  # on the local axes
        [[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0], [0.0, -0.0, 1.0], [-1.0, -0.0, 0.0]],
    ])
    if layout == "strided":  # every other row of every other column
        wide = np.zeros((2 * len(points), 6))
        wide[::2, ::2] = points
        return wide[::2, ::2]
    if layout == "F-ordered":
        return np.asfortranarray(points)
    if layout == "integer":
        return np.rint(4 * points).astype(np.int64)
    return points


class TestSignedDistance:
    @settings(max_examples=200)
    @given(primitive=primitives(), seed=_seeds, scale=st.floats(0.01, 4.0))
    def test_matches_norm_formula(self, primitive, seed, scale):
        for layout in ("mixed", "N=0", "N=1", "N=64", "N=4096",
                       "strided", "F-ordered", "integer"):
            rng = np.random.default_rng(seed)
            points = _points_in_layout(layout, primitive.translation,
                                       primitive._rot, scale, rng)
            if layout in ("strided", "F-ordered"):
                assert not points.flags.c_contiguous
            npt.assert_array_equal(
                signed_distance(primitive, points),
                reference_signed_distance(primitive, points),
                strict=True, err_msg=layout,
            )


def csg_trees(ids):
    """Trees over ``ids`` that name primitives repeatedly, with one-child
    complements and two- to four-child unions and intersections."""
    def node(children):
        kids = st.lists(children, min_size=2, max_size=4).map(tuple)
        return st.one_of(children.map(Complement), kids.map(Union),
                         kids.map(Intersection))

    return st.recursive(st.sampled_from(ids).map(Leaf), node, max_leaves=12)


class TestTreeValue:
    @settings(max_examples=150)
    @given(data=st.data(), n=st.integers(1, 3), seed=_seeds,
           size=st.sampled_from([0, 1, 64, 500]))
    def test_matches_stacked_reduce(self, data, n, seed, size):
        prims = [data.draw(primitives(pid)) for pid in "ABC"[:n]]
        tree = data.draw(csg_trees([p.pid for p in prims]))
        by_id = index_primitives(prims)
        points = np.random.default_rng(seed).uniform(-3.0, 3.0, size=(size, 3))
        # Points on the primitives' own centres and a signed zero.
        points = np.vstack([points, [p.translation for p in prims], [[-0.0, 0.0, -0.0]]])
        distances = {}
        got = _tree_value(tree, by_id, points, distances)
        npt.assert_array_equal(got, reference_tree_value(tree, by_id, points),
                               strict=True)
        npt.assert_array_equal(tree_value(tree, by_id, points), got, strict=True)
        # Each leaf's cached distances, shared by every leaf that names the
        # primitive, are left as computed.
        assert set(distances) == leaf_ids(tree)
        for pid, d in distances.items():
            npt.assert_array_equal(d, signed_distance(by_id[pid], points), strict=True)


def assert_same_cells(got, want):
    """Same keys in the same order, and the same points in the same order."""
    assert list(got) == list(want)
    for key, pts in want.items():
        npt.assert_array_equal(got[key], pts, strict=True)


class TestSignVectorSamples:
    @settings(max_examples=100)
    @given(data=st.data(), n=st.integers(1, 5), count=st.integers(1, 800))
    def test_matches_reference(self, data, n, count):
        prims = [data.draw(primitives(pid)) for pid in "ABCDE"[:n]]
        seed = data.draw(_seeds)
        assert_same_cells(sign_vector_samples(prims, count, seed),
                          reference_sign_vector_samples(prims, count, seed))

    def test_rows_wider_than_one_word(self):
        # 70 spheres whose boxes all meet: each membership row spans two
        # 64-bit words, and some groups differ only in the second one.
        centres = np.random.default_rng(5).uniform(-0.5, 0.5, size=(70, 3))
        prims = [sphere(f"S{i}", c, 1.0) for i, c in enumerate(centres)]
        seeds = [derive_seed(0, 0x50, i) for i in range(70)]
        assert any(
            a != b and [j for j in a if j < 64] == [j for j in b if j < 64]
            for table in reference_sign_vector_tables(prims, 100, seeds)
            for a in table for b in table
        )
        assert_same_cells(sign_vector_samples(prims, 100, 0),
                          reference_sign_vector_samples(prims, 100, 0))

    def test_short_sample(self):
        prims = [_tilted_thin_cylinder(), sphere("S", (0.0, 0.3, 0.0), 0.5)]
        got = sign_vector_samples(prims, 5000, 3)
        thin = sum(len(pts) for key, pts in got.items() if "T" in key)
        assert 0 < thin < 5000
        assert_same_cells(got, reference_sign_vector_samples(prims, 5000, 3))

    @pytest.mark.parametrize("count", [0, -5])
    def test_count_below_one_is_refused(self, count):
        prims = [sphere("A", (0, 0, 0), 1.0), sphere("B", (1, 0, 0), 1.0)]
        with pytest.raises(ParameterError, match="count >= 1"):
            sign_vector_samples(prims, count, 1)
        with pytest.raises(ParameterError, match="count >= 1"):
            build_intersection_graph(prims, count=count)
        graph = build_intersection_graph(prims)
        with pytest.raises(ParameterError, match="count >= 1"):
            enumerate_products(prims, graph, InsideOnlyOracle(), samples_per_region=count)


class TestSampleSurface:
    @settings(max_examples=25)
    @given(solid=solids(), count=st.integers(0, 1500), seed=_seeds)
    def test_matches_reference(self, solid, count, seed):
        tree, prims = solid
        got = _outcome(sample_surface, tree, prims, count, seed)
        want = _outcome(reference_sample_surface, tree, prims, count, seed)
        if isinstance(want, str):
            assert got == want
        else:
            npt.assert_array_equal(got.points, want.points)
            npt.assert_array_equal(got.normals, want.normals)


@pytest.fixture(scope="module")
def fig_cloud_oracle(fig_primitives, fig_minimal_tree):
    return CloudOracle(sample_surface(fig_minimal_tree, fig_primitives, 3000, seed=9))


@pytest.fixture(scope="module")
def lattice_oracle():
    """A cloud oracle on a lattice just too coarse to put every point within
    the surface margin of a unit sphere's padded box. A filter on the
    oracle's distance would keep only points near the lattice cell centres
    and run the check short of points; the tree's own margin does not."""
    eps = 0.01 * 2 * np.sqrt(3.0)  # margin of a unit sphere's scene
    step = 2 * eps / np.sqrt(3.0) * 1.04
    axis = np.arange(-1.2, 1.2 + step, step)
    lattice = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    normals = np.tile([0.0, 0.0, 1.0], (len(lattice), 1))
    return CloudOracle(PointCloud(lattice, normals))


class TestOracleAgreement:
    @settings(max_examples=20)
    @given(n_points=st.integers(1, 6000), seed=_seeds,
           which=st.sampled_from(["minimal", "union", "disjoint"]),
           oracle_kind=st.sampled_from(["tree", "cloud"]))
    def test_matches_reference(self, fig_primitives, fig_minimal_tree, fig_oracle,
                               fig_cloud_oracle, n_points, seed, which, oracle_kind):
        tree = {
            "minimal": fig_minimal_tree,
            "union": Union(tuple(Leaf(p.pid) for p in fig_primitives)),
            "disjoint": Union((Leaf("A"), Leaf("F"))),
        }[which]
        oracle = fig_oracle if oracle_kind == "tree" else fig_cloud_oracle
        got = oracle_agreement(tree, fig_primitives, oracle, n_points, seed)
        want = reference_oracle_agreement(tree, fig_primitives, oracle, n_points, seed)
        assert got == want

    @pytest.mark.parametrize("which, agreement", [
        ("minimal", 1.0), ("union", 0.9535), ("disjoint", 0.8751),
    ])
    def test_pins_agreement_of_right_and_wrong_trees(
        self, fig_primitives, fig_minimal_tree, fig_oracle, which, agreement
    ):
        # Only the tree's own surface margin filters points, so a wrong tree
        # is also judged near the target's surface.
        tree = {
            "minimal": fig_minimal_tree,
            "union": Union(tuple(Leaf(p.pid) for p in fig_primitives)),
            "disjoint": Union((Leaf("A"), Leaf("F"))),
        }[which]
        assert oracle_agreement(tree, fig_primitives, fig_oracle, seed=0) == (
            agreement, 10_000)

    @pytest.mark.parametrize("n_points, seed", [(50, 0), (400, 1), (400, 7)])
    def test_short_of_points_matches_reference(self, lattice_oracle, n_points, seed):
        # The scene on which an oracle-side distance filter ran the check
        # short: only the tree's margin filters, so every point is used.
        unit = [sphere("U", (0.0, 0.0, 0.0), 1.0)]
        got = oracle_agreement(Leaf("U"), unit, lattice_oracle, n_points, seed)
        want = reference_oracle_agreement(Leaf("U"), unit, lattice_oracle, n_points, seed)
        assert got == want
        assert got[1] == n_points

    @settings(max_examples=100, deadline=None)
    @given(solid=thin_solids(), n_points=st.integers(1, 2000), seed=_seeds)
    def test_uses_every_requested_point(self, solid, n_points, seed):
        # Over 13% of the padded box lies beyond the union box on its longest
        # axis by more than the margin, so the draw cap is never reached.
        tree, prims = solid
        _, used = oracle_agreement(tree, prims, InsideOnlyOracle(), n_points, seed)
        assert used == n_points
