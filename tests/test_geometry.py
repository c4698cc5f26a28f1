"""Tests for implicit primitives, CSG trees, oracles, and samplers."""

import io
import tempfile

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csgcompress.errors import FileFormatError, ParameterError, StructuralError
from csgcompress.geometry import csg
from csgcompress.geometry import (
    CloudOracle,
    Complement,
    Intersection,
    Leaf,
    PointCloud,
    Primitive,
    Union,
    aabb,
    box,
    check_primitive_set,
    cylinder,
    index_primitives,
    leaf_count,
    load_cloud,
    load_primitives,
    sample_region,
    sample_surface,
    save_cloud,
    save_primitives,
    sign_vector_samples,
    signed_distance,
    sphere,
    tree_from_dict,
    tree_to_dict,
    tree_value,
)


def _inside(tree, primitives, points):
    return tree_value(tree, index_primitives(primitives), points) < 0


def _rot_z(angle):
    """Quaternion (w, x, y, z) for a rotation about +z."""
    return np.array([np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)])


# ---------------------------------------------------------------------------
# Signed distances
# ---------------------------------------------------------------------------

class TestSignedDistance:
    def test_unit_sphere_center(self):
        npt.assert_allclose(signed_distance(sphere("A", (0, 0, 0), 1.0), [(0, 0, 0)]), -1.0)

    def test_unit_sphere_surface(self):
        npt.assert_allclose(signed_distance(sphere("A", (0, 0, 0), 1.0), [(1, 0, 0)]), 0.0)

    def test_box_face_distance(self):
        b = box("B", (0, 0, 0), (1, 1, 1))
        npt.assert_allclose(signed_distance(b, [(3, 0, 0)]), 2.0)

    def test_box_corner_distance_exact(self):
        b = box("B", (0, 0, 0), (1, 1, 1))
        npt.assert_allclose(signed_distance(b, [(2, 2, 2)]), np.sqrt(3.0))

    def test_cylinder_outside_corner(self):
        c = cylinder("C", (0, 0, 0), 1.0, 1.0)
        # Beyond both the rim and the cap: exact Euclidean corner distance.
        npt.assert_allclose(signed_distance(c, [(2, 0, 2)]), np.sqrt(2.0))

    def test_cylinder_side(self):
        c = cylinder("C", (0, 0, 0), 1.0, 2.0)
        npt.assert_allclose(signed_distance(c, [(3, 0, 0)]), 2.0)

    def test_inside_signs(self):
        for p in (sphere("A", (0, 0, 0), 1.0),
                  box("B", (0, 0, 0), (1, 2, 3)),
                  cylinder("C", (0, 0, 0), 1.0, 1.0)):
            assert signed_distance(p, [(0, 0, 0)])[0] < 0

    def test_translation(self):
        s = sphere("A", (5, 0, 0), 1.0)
        npt.assert_allclose(signed_distance(s, [(5, 0, 0)]), -1.0)
        npt.assert_allclose(signed_distance(s, [(7, 0, 0)]), 1.0)

    def test_rotation_box(self):
        # Box rotated 90 degrees about z: half-extents (2, 1, 1) become (1, 2, 1).
        b = box("B", (0, 0, 0), (2, 1, 1), rotation=_rot_z(np.pi / 2))
        npt.assert_allclose(signed_distance(b, [(0, 1.5, 0)]), -0.5, atol=1e-12)
        npt.assert_allclose(signed_distance(b, [(1.5, 0, 0)]), 0.5, atol=1e-12)

    def test_batch_shape(self):
        s = sphere("A", (0, 0, 0), 1.0)
        pts = np.array([[0, 0, 0], [2, 0, 0], [0.5, 0, 0]])
        d = signed_distance(s, pts)
        assert d.shape == (3,)
        npt.assert_allclose(d, [-1.0, 1.0, -0.5])

    def test_sphere_sign_agrees_with_analytic_test(self):
        # Containment via |p - c| < r must match the sign on 10^4 random points.
        rng = np.random.default_rng(7)
        c = np.array([0.3, -0.2, 0.5])
        s = sphere("A", c, 0.8)
        pts = rng.uniform(-2, 2, size=(10_000, 3))
        analytic = np.linalg.norm(pts - c, axis=1) < 0.8
        assert np.array_equal(signed_distance(s, pts) < 0, analytic)


class TestPrimitiveValidation:
    def test_nonpositive_params_rejected(self):
        with pytest.raises(ValueError):
            sphere("A", (0, 0, 0), 0.0)
        with pytest.raises(ValueError):
            box("B", (0, 0, 0), (1, -1, 1))
        with pytest.raises(ValueError):
            cylinder("C", (0, 0, 0), 1.0, 0.0)

    @pytest.mark.parametrize("make", [
        lambda: sphere("A", (0, 0, 0), np.nan),
        lambda: sphere("A", (0, 0, 0), np.inf),
        lambda: sphere("A", (0, np.inf, 0), 1.0),
        lambda: box("B", (0, 0, 0), (1, np.nan, 1)),
        lambda: cylinder("C", (0, 0, 0), 1.0, np.inf),
        lambda: Primitive("A", "sphere", np.zeros(3), np.array([np.nan, 0, 0, 0]),
                          {"radius": 1.0}),
    ])
    def test_non_finite_values_rejected(self, make):
        # nan passes every "<= 0" and unit-norm test, so it is refused on its own.
        with pytest.raises(ValueError):
            make()

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(ValueError):
            Primitive("A", "sphere", np.zeros(3), np.array([1.0, 0.0, 0.0, 1.0]),
                      {"radius": 1.0})

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            check_primitive_set([sphere("A", (0, 0, 0), 1), sphere("A", (3, 0, 0), 1)])

    def test_aabb_rotated_box(self):
        b = box("B", (1, 0, 0), (2, 1, 1), rotation=_rot_z(np.pi / 2))
        lo, hi = aabb(b)
        npt.assert_allclose(lo, [0, -2, -1], atol=1e-12)
        npt.assert_allclose(hi, [2, 2, 1], atol=1e-12)


# ---------------------------------------------------------------------------
# Tree membership
# ---------------------------------------------------------------------------

class TestTreeMembership:
    A = sphere("A", (0, 0, 0), 1.0)
    B = sphere("B", (1.0, 0, 0), 1.0)
    FAR = sphere("F", (10, 0, 0), 1.0)

    def test_union_inside_one(self):
        tree = Union((Leaf("A"), Leaf("B")))
        assert _inside(tree, [self.A, self.B], [(-0.5, 0, 0)])

    def test_complement_flips(self):
        tree = Complement(Leaf("A"))
        assert not _inside(tree, [self.A], [(0, 0, 0)])
        assert _inside(tree, [self.A], [(5, 0, 0)])

    def test_disjoint_intersection_empty(self):
        tree = Intersection((Leaf("A"), Leaf("F")))
        for p in [(0, 0, 0), (10, 0, 0), (5, 0, 0)]:
            assert not _inside(tree, [self.A, self.FAR], [p])

    def test_surface_counts_as_outside(self):
        assert not _inside(Union((Leaf("A"), Leaf("B"))),
                           [self.A, self.B], [(-1.0, 0, 0)])

    def test_unknown_leaf_raises(self):
        with pytest.raises(StructuralError):
            _inside(Leaf("Z"), [self.A], [(0, 0, 0)])

    def test_repeated_primitive_evaluated_once(self, monkeypatch):
        # A u (B n !A) u (!A n !B): A named three times, B twice.
        tree = Union((
            Leaf("A"),
            Intersection((Leaf("B"), Complement(Leaf("A")))),
            Intersection((Complement(Leaf("A")), Complement(Leaf("B")))),
        ))
        pts = np.random.default_rng(5).uniform(-3, 3, size=(500, 3))
        dA, dB = signed_distance(self.A, pts), signed_distance(self.B, pts)
        want = np.minimum.reduce([
            dA, np.maximum.reduce([dB, -dA]), np.maximum.reduce([-dA, -dB]),
        ])
        calls = []

        def counting(prim, points):
            calls.append(prim.pid)
            return signed_distance(prim, points)

        monkeypatch.setattr(csg, "signed_distance", counting)
        got = tree_value(tree, index_primitives([self.A, self.B]), pts)
        assert np.array_equal(got, want)
        assert sorted(calls) == ["A", "B"]
        with pytest.raises(StructuralError, match="unknown primitive 'Z'"):
            tree_value(Union((Leaf("A"), Leaf("Z"), Leaf("A"))),
                       index_primitives([self.A]), pts)

    def test_de_morgan(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-3, 3, size=(2000, 3))
        prims = [self.A, self.B]
        lhs = _inside(Complement(Union((Leaf("A"), Leaf("B")))), prims, pts)
        rhs = _inside(
            Intersection((Complement(Leaf("A")), Complement(Leaf("B")))), prims, pts
        )
        assert np.array_equal(lhs, rhs)

    def test_leaf_count(self):
        assert leaf_count(Leaf("A")) == 1
        # A u (B n !D) u (C n D) u (!D n E n !F)
        tree = Union((
            Leaf("A"),
            Intersection((Leaf("B"), Complement(Leaf("D")))),
            Intersection((Leaf("C"), Leaf("D"))),
            Intersection((Complement(Leaf("D")), Leaf("E"), Complement(Leaf("F")))),
        ))
        assert leaf_count(tree) == 8

    def test_tree_json_round_trip(self):
        tree = Union((
            Leaf("A"),
            Intersection((Leaf("B"), Complement(Leaf("D")))),
        ))
        assert tree_from_dict(tree_to_dict(tree)) == tree

    def test_bad_arity(self):
        with pytest.raises(StructuralError):
            Union((Leaf("A"),))
        with pytest.raises(StructuralError):
            tree_from_dict({"op": "comp", "children": []})

    @pytest.mark.parametrize("obj", [
        [1, 2],
        {"op": "union", "children": 5},
        {"op": "union", "children": {"op": "prim", "prim": "A"}},
        {"op": "inter", "children": [{"op": "prim", "prim": "A"}, "B"]},
    ])
    def test_malformed_json_rejected(self, obj):
        with pytest.raises(StructuralError):
            tree_from_dict(obj)


# ---------------------------------------------------------------------------
# Region sampling
# ---------------------------------------------------------------------------

class TestSampleRegion:
    def test_inside_sphere(self):
        s = sphere("A", (0, 0, 0), 1.0)
        pts = sample_region(s, 100, seed=1)
        assert pts.shape == (100, 3)
        assert np.all(signed_distance(s, pts) < 0)

    def test_contradictory_region_empty(self):
        # Two copies of one sphere: no point lies in one but not the other.
        a = sphere("A", (0, 0, 0), 1.0)
        b = sphere("B", (0, 0, 0), 1.0)
        tables = sign_vector_samples([a, b], 100, [1, 2])
        assert [sorted(t) for t in tables] == [[(0, 1)], [(0, 1)]]
        assert [t[(0, 1)].shape for t in tables] == [(100, 3), (100, 3)]

    def test_lens_region(self):
        a = sphere("A", (0, 0, 0), 1.0)
        b = sphere("B", (1, 0, 0), 1.0)
        prims, seeds = (a, b), (2, 3)
        tables = sign_vector_samples(prims, 200, seeds)
        for i, table in enumerate(tables):
            assert sorted(table) == sorted([(i,), (0, 1)])
            # The groups split exactly the points the primitive draws.
            drawn = sample_region(prims[i], 200, seeds[i])
            pooled = np.concatenate(list(table.values()))
            assert sorted(map(tuple, pooled)) == sorted(map(tuple, drawn))
            lens = table[(0, 1)]
            assert np.all(signed_distance(a, lens) < 0)
            assert np.all(signed_distance(b, lens) < 0)
            assert np.all(signed_distance(prims[1 - i], table[(i,)]) >= 0)

    def test_disjoint_boxes_return_empty(self):
        # Bounding boxes that miss each other: each primitive's points form
        # one group, in draw order, and no lens group appears.
        a = sphere("A", (0, 0, 0), 1.0)
        b = sphere("B", (10, 0, 0), 1.0)
        tables = sign_vector_samples([a, b], 50, [3, 4])
        assert [sorted(t) for t in tables] == [[(0,)], [(1,)]]
        npt.assert_array_equal(tables[0][(0,)], sample_region(a, 50, 3))

    def test_reproducible(self):
        s = sphere("A", (0, 0, 0), 1.0)
        p1 = sample_region(s, 64, seed=9)
        p2 = sample_region(s, 64, seed=9)
        npt.assert_array_equal(p1, p2)

    def test_prefix_property(self):
        # More requested points extend, never reshuffle, the accepted stream.
        s = sphere("A", (0, 0, 0), 1.0)
        small = sample_region(s, 32, seed=4)
        large = sample_region(s, 64, seed=4)
        npt.assert_array_equal(large[:32], small)


# ---------------------------------------------------------------------------
# Surface sampling and the cloud oracle
# ---------------------------------------------------------------------------

class TestSampleSurface:
    def test_unit_sphere_on_surface(self):
        s = sphere("A", (0, 0, 0), 1.0)
        cloud = sample_surface(Leaf("A"), [s], 1000, seed=5)
        assert len(cloud) == 1000
        npt.assert_allclose(signed_distance(s, cloud.points), 0.0, atol=1e-6)
        # Outward normals point along the radius.
        npt.assert_allclose(cloud.normals, cloud.points, atol=1e-4)

    def test_union_covers_both_components(self):
        a = sphere("A", (0, 0, 0), 1.0)
        b = sphere("B", (5, 0, 0), 1.0)
        cloud = sample_surface(Union((Leaf("A"), Leaf("B"))), [a, b], 400, seed=6)
        on_a = np.abs(signed_distance(a, cloud.points)) < 1e-6
        on_b = np.abs(signed_distance(b, cloud.points)) < 1e-6
        assert on_a.sum() > 0 and on_b.sum() > 0
        assert np.all(on_a | on_b)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        s = sphere("A", (0, 0, 0), 1.0)
        with pytest.raises(ParameterError, match="count >= 1"):
            sample_surface(Leaf("A"), [s], count, seed=0)

    def test_unbounded_tree_rejected(self):
        s = sphere("A", (0, 0, 0), 1.0)
        with pytest.raises(StructuralError):
            sample_surface(Complement(Leaf("A")), [s], 10, seed=0)

    def test_subtracted_surface_normals_flip(self):
        # B with a bite taken out by D: the cut surface lies on D's sphere
        # and its outward normal points toward D's centre side (inward for D).
        b = sphere("B", (0, 0, 0), 1.0)
        d = sphere("D", (1.2, 0, 0), 0.8)
        tree = Intersection((Leaf("B"), Complement(Leaf("D"))))
        cloud = sample_surface(tree, [b, d], 500, seed=7)
        on_d = np.abs(signed_distance(d, cloud.points)) < 1e-6
        assert on_d.sum() > 0
        outward_for_d = (cloud.points[on_d] - np.array([1.2, 0, 0]))
        outward_for_d /= np.linalg.norm(outward_for_d, axis=1, keepdims=True)
        dots = np.einsum("ij,ij->i", cloud.normals[on_d], outward_for_d)
        assert np.all(dots < -0.99)

    def test_deterministic(self):
        s = sphere("A", (0, 0, 0), 1.0)
        c1 = sample_surface(Leaf("A"), [s], 50, seed=8)
        c2 = sample_surface(Leaf("A"), [s], 50, seed=8)
        npt.assert_array_equal(c1.points, c2.points)
        npt.assert_array_equal(c1.normals, c2.normals)


class TestCloudMembership:
    def test_sphere_cloud(self):
        s = sphere("A", (0, 0, 0), 1.0)
        oracle = CloudOracle(sample_surface(Leaf("A"), [s], 800, seed=11))
        npt.assert_array_equal(oracle.inside([(0, 0, 0), (2, 0, 0)]), [True, False])

    def test_missing_normals_raises(self):
        # A cloud is oriented and non-empty by construction.
        with pytest.raises(TypeError):
            PointCloud(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="at least one point"):
            PointCloud(np.empty((0, 3)), np.empty((0, 3)))

    def test_agreement_with_tree_membership(self):
        # Cloud oracle and ground-truth tree agree away from the surface.
        a = sphere("A", (0, 0, 0), 1.0)
        b = sphere("B", (1.2, 0, 0), 0.9)
        prims = [a, b]
        tree = Union((Leaf("A"), Leaf("B")))
        n_surf = 4000
        cloud = sample_surface(tree, prims, n_surf, seed=12)
        # Mean sampling spacing ~ sqrt(area / n); stay 2 spacings away.
        area = 4 * np.pi * (1.0 + 0.9**2)
        spacing = np.sqrt(area / n_surf)
        rng = np.random.default_rng(13)
        pts = rng.uniform(-2.5, 3.0, size=(20_000, 3))
        v = tree_value(tree, index_primitives(prims), pts)
        far = np.abs(v) > 2 * spacing
        pts = pts[far][:10_000]
        truth = _inside(tree, prims, pts)
        approx = CloudOracle(cloud).inside(pts)
        agreement = np.mean(truth == approx)
        assert agreement >= 0.999


def brute_force_inside(cloud, pts):
    """Nearest cloud point by argmin over all points, then the half-space test."""
    idx = np.concatenate([
        np.argmin(((chunk[:, None, :] - cloud.points[None]) ** 2).sum(axis=2), axis=1)
        for chunk in np.array_split(pts, max(1, len(pts) // 256))
    ])
    return np.einsum("ij,ij->i", pts - cloud.points[idx], cloud.normals[idx]) < 0


def near_and_far_queries(rng, lo, hi, count):
    """Uniform points in the box [lo, hi], scaled about its centre by 1.5x,
    5x or 20x: most product witnesses lie far from a small target's cloud,
    where the kd-tree's shape matters most."""
    centre, half = (lo + hi) / 2, (hi - lo) / 2
    scale = rng.choice([1.5, 5.0, 20.0], size=(count, 1))
    return centre + rng.uniform(-1, 1, size=(count, 3)) * half * scale


class TestCloudOracleExact:
    """Threaded kd-tree queries answer exactly like a brute-force search."""

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 400))
    def test_matches_brute_force(self, seed, n_cloud):
        rng = np.random.default_rng(seed)
        normals = rng.normal(size=(n_cloud, 3))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)
        cloud = PointCloud(rng.uniform(-1, 1, size=(n_cloud, 3)), normals)
        oracle = CloudOracle(cloud)
        # Large enough that the kd-tree splits the batch across its workers.
        pts = near_and_far_queries(rng, -np.ones(3), np.ones(3), 3000)
        npt.assert_array_equal(oracle.inside(pts), brute_force_inside(cloud, pts))

    @settings(max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3000))
    def test_surface_sampled_cloud_matches_brute_force(self, seed, n_cloud):
        # A 4x4 sphere grid with a small target, as in the benchmark's grid
        # scene: its cloud is clustered on two spheres' surfaces.
        rng = np.random.default_rng(seed)
        prims = [sphere(f"G{i}{j}", (2.0 * i, 2.0 * j, 0.0), 1.1)
                 for i in range(4) for j in range(4)]
        tree = Union((Leaf("G00"), Intersection((Leaf("G33"), Complement(Leaf("G32"))))))
        cloud = sample_surface(tree, prims, n_cloud, seed=seed)
        oracle = CloudOracle(cloud)
        lo, hi = cloud.points.min(axis=0), cloud.points.max(axis=0)
        pts = np.vstack([
            near_and_far_queries(rng, lo, hi, 2000),
            rng.uniform(-1.1, 7.1, size=(1000, 3)),  # the grid's witnesses
        ])
        npt.assert_array_equal(oracle.inside(pts), brute_force_inside(cloud, pts))


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------

class TestFileIO:
    def test_primitive_round_trip(self, tmp_path):
        prims = [
            sphere("A", (-2.6, 0, 0), 1.0),
            box("F", (4, -2.4, 0), (1, 1, 1), rotation=_rot_z(0.3)),
            cylinder("C", (0, 0, 0), 1.2, 0.5),
        ]
        path = tmp_path / "prims.json"
        save_primitives(prims, path)
        loaded = load_primitives(path)
        assert [p.pid for p in loaded] == ["A", "F", "C"]
        for a, b in zip(prims, loaded):
            assert a.kind == b.kind
            npt.assert_allclose(a.translation, b.translation)
            npt.assert_allclose(a.rotation, b.rotation)

    def test_cloud_round_trip(self, tmp_path):
        pts = np.array([[0.0, 0.5, 1.0], [1.0, 2.0, 3.0]])
        nrm = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        path = tmp_path / "cloud.xyz"
        save_cloud(PointCloud(pts, nrm), path)
        loaded = load_cloud(path)
        npt.assert_allclose(loaded.points, pts)
        npt.assert_allclose(loaded.normals, nrm)

    def test_cloud_comments_and_errors(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("# comment\n0 0 0 1 0 0\n\n1 1 1 0 0 1\n")
        assert len(load_cloud(path)) == 2
        bad = tmp_path / "bad.xyz"
        bad.write_text("0 0\n")
        from csgcompress.errors import FileFormatError
        with pytest.raises(FileFormatError, match="bad.xyz:1"):
            load_cloud(bad)


class TestLoadCloud:
    """``load_cloud``: one ``np.loadtxt`` pass, a line-by-line scan on failure."""

    def test_save_cloud_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(500, 3)) * 10.0 ** rng.integers(-300, 300, size=(500, 3))
        big = np.finfo(float).max
        pts[:4] = [[0.0, -0.0, 5e-324], [big, -big, 1.0],
                   [np.nextafter(1.0, 2.0), 0.1, 1 / 3], [-1e308, 2.2250738585072014e-308, 0]]
        nrm = rng.normal(size=(500, 3))
        nrm /= np.linalg.norm(nrm, axis=1, keepdims=True)
        path = tmp_path / "cloud.xyz"
        save_cloud(PointCloud(pts, nrm), path)
        loaded = load_cloud(path)
        assert loaded.points.tobytes() == pts.tobytes()
        assert loaded.normals.tobytes() == nrm.tobytes()

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n  # another\n"])
    def test_empty_file_is_rejected(self, tmp_path, text):
        path = tmp_path / "cloud.xyz"
        path.write_text(text)
        with pytest.raises(FileFormatError) as err:
            load_cloud(path)
        assert str(err.value) == f"{path}: a point cloud needs at least one point"

    def test_accepted_number_syntax(self, tmp_path):
        path = tmp_path / "cloud.xyz"
        path.write_text("+1 -2. .5e1 0 0 1\t# tab and comment\n"
                        "1E+2 1e-3 -.25 -0 1. 0e0\n7 0 -0 +1 0 0\n")
        got = load_cloud(path)
        npt.assert_array_equal(got.points, [[1, -2, 5], [100, 1e-3, -0.25], [7, 0, 0]])
        npt.assert_array_equal(got.normals, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])

    @pytest.mark.parametrize("row", [
        "0.5 0.5 0.5 nan nan nan",  # nan > tol is false: the unit-norm test passes it
        "nan 0 0 0 0 1",
        "0 inf 0 0 0 1",
        "0 0 -Infinity 0 0 1",
        "0 0 0 inf 0 0",
    ])
    def test_non_finite_values_are_refused(self, tmp_path, row):
        path = tmp_path / "cloud.xyz"
        path.write_text(f"0 0 0 1 0 0\n{row}\n")
        with pytest.raises(FileFormatError) as err:
            load_cloud(path)
        assert str(err.value) == f"{path}: points and normals must be finite"

    @pytest.mark.parametrize("text, message", [
        ("0 0 0 1 0 0\n# c\n\n1 2 3 4\n",
         "bad.xyz:4: expected 6 numbers (x y z nx ny nz), got 4"),
        ("1\n", "bad.xyz:1: expected 6 numbers (x y z nx ny nz), got 1"),
        ("1 2 3 4\n5 6 7 8\n", "bad.xyz:1: expected 6 numbers (x y z nx ny nz), got 4"),
        # points without normals, in every row or in some
        ("0 0 0\n1 1 1\n", "bad.xyz:1: expected 6 numbers (x y z nx ny nz), got 3"),
        ("0 0 0 1 0 0\n1 1 1\n", "bad.xyz:2: expected 6 numbers (x y z nx ny nz), got 3"),
        ("0 0 0 1 0 0\n0 0 abc 1 0 0\n",
         "bad.xyz:2: could not convert string to float: 'abc'"),
        ("0 0 0 1 0 0\n0 0 0 1 0 1e\n", "bad.xyz:2: could not convert string to float: '1e'"),
        # float() accepts these two; np.loadtxt, and so load_cloud, does not
        ("0 0 0 1 0 0\n0 1_0 0 1 0 0\n",
         "bad.xyz:2: could not convert string to float: '1_0'"),
        ("# c\n0 0 ١ 1 0 0\n", "bad.xyz:2: could not convert string to float: '١'"),
        ("0 0 0 2 0 0\n", "bad.xyz: normals must be unit-norm"),
    ])
    def test_errors_name_the_file_and_line(self, tmp_path, text, message):
        bad = tmp_path / "bad.xyz"
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(FileFormatError) as err:
            load_cloud(bad)
        assert str(err.value) == f"{tmp_path / message}"

    def test_first_error_wins(self, tmp_path):
        bad = tmp_path / "bad.xyz"
        bad.write_text("0 0 0 1 0 0\n0 0 x 1 0 0\n1 2\n0 0 0 2 0 0\n")
        with pytest.raises(FileFormatError, match=r"bad\.xyz:2: could not convert"):
            load_cloud(bad)

    def test_missing_file_is_an_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="No such file"):
            load_cloud(tmp_path / "missing.xyz")

    @given(st.text(st.sampled_from("0123456789+-.eEinfatyINFATY_x١０"),
                   min_size=1, max_size=8))
    def test_token_rule_matches_loadtxt(self, token):
        try:
            want = np.loadtxt(io.StringIO(f"0 0 {token}\n"), dtype=float, ndmin=2)
        except ValueError:
            want = None
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/cloud.xyz"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(f"1 2 3 0 0 1\n0 0 {token} 0 0 1\n")
            try:
                got = load_cloud(path).points[1:]
            except FileFormatError as exc:
                if want is None:
                    assert str(exc) == (
                        f"{path}:2: could not convert string to float: {token!r}")
                else:  # parsed, but inf or nan
                    assert not np.isfinite(want).all()
                    assert str(exc) == f"{path}: points and normals must be finite"
            else:
                assert want is not None
                assert got.tobytes() == want.tobytes()
