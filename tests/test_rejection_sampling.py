"""Bit-identity of the shared rejection loop against the per-caller loops it replaced.

``sample_region``, ``sample_surface`` and ``oracle_agreement`` used to keep
one hand-written "draw a batch, filter, count attempts, truncate" loop each.
The reference implementations below are those loops as they were, except
that the agreement check no longer asks the oracle for a surface distance;
every output of the merged routine must equal theirs bit for bit.
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
    signed_distance,
    sphere,
    surface_area,
    tree_value,
)
from csgcompress.geometry.sampling import (
    _numeric_normals,
    _sample_on_primitive,
    _tree_bounded,
    derive_rng,
    union_box,
)
from csgcompress.pipeline import oracle_agreement

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
    on_tol = 1e-9 * max(diag, 1.0)
    probe = 1e-4 * max(diag, 1.0)
    grad_eps = 1e-6 * max(diag, 1.0)

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


class TestSampleRegion:
    @settings(max_examples=60)
    @given(primitive=primitives(), count=st.integers(0, 5000), seed=_seeds)
    def test_matches_reference(self, primitive, count, seed):
        got = sample_region(primitive, count, seed)
        want = reference_sample_region(primitive, count, seed)
        assert got.shape == want.shape
        npt.assert_array_equal(got, want)

    def test_cap_runs_out_identically(self):
        # A sliver cylinder fills a small share of its AABB, so a large
        # request exhausts the 64x attempt cap short of the count.
        tilt = (np.cos(np.pi / 8), np.sin(np.pi / 8), 0.0, 0.0)  # 45 degrees about x
        thin = cylinder("T", (0, 0, 0), 0.005, 1.0, tilt)
        got = sample_region(thin, 5000, 3)
        assert 0 < len(got) < 5000
        npt.assert_array_equal(got, reference_sample_region(thin, 5000, 3))


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
