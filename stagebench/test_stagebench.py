"""Quick checks of the benchmark itself: each workload's path on tiny
scenes, the checker's power to reject a wrong tree, and the generator."""

import numpy as np
import pytest

from csgcompress.pipeline import compress

from stagebench import check, measure, scenes


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    # Repeated set-up steadies timings, which these tests do not read.
    monkeypatch.setattr(measure, "SETUP_REPEATS", 1)
    monkeypatch.setattr(measure, "SETUP_MIN_S", 0.0)


def tiny_workloads():
    rng = np.random.default_rng(7)
    return {
        "chain": [scenes.chain_scene(rng, 3, "cloud", "dlx")],
        "grid": [scenes.grid_scene(rng, 2)],
        "anneal": [scenes.chain_scene(rng, 3, "tree", "qubo_sa")],
    }


@pytest.mark.parametrize("workload", ["chain", "grid", "anneal"])
def test_traced_smoke_run(workload, tmp_path):
    result = measure.run(tiny_workloads()[workload], seed=3, seconds=0,
                         trace=True, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(measure.PER_LAYER)
    assert result["metrics"]["products.cells"]["value"] > 0


def test_untraced_smoke_run(tmp_path):
    result = measure.run(tiny_workloads()["chain"], seed=3, seconds=0,
                         trace=False, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + measure.MIN_TIMED_ROUNDS
    metrics = result["metrics"]
    assert set(metrics) == {"compress_s", "setup_s", "tree_leaves", "peak_rss_mb"}
    assert metrics["tree_leaves"]["value"] == 5  # 2n - 1 for a 3-sphere chain


def test_checker_rejects_dropped_primitive(tmp_path):
    scene = tiny_workloads()["chain"][0]
    loaded, *_ = measure.set_up([scene], seed=3, workdir=tmp_path)
    report = compress(loaded[0].prims, loaded[0].oracle, loaded[0].cfg).to_dict()
    assert check.check_report(scene, report, np.random.default_rng(0)) == []
    report["tree"]["children"].pop()
    problems = check.check_report(scene, report, np.random.default_rng(0))
    assert any("differs from the solid" in p for p in problems)


def test_cells_are_the_cliques_of_the_overlap_graph():
    # check_report's cell-count argument rests on this for every scene:
    # singletons are cells, and a cell grown by a vertex adjacent to all of
    # it is again a cell, so by induction every clique is a cell.
    for workload in ("chain", "grid", "anneal"):
        for scene in scenes.workload_scenes(workload, seed=5):
            edges = scene.edges()
            assert all(frozenset({v}) in scene.cells for v in scene.ids)
            for cell in scene.cells:
                for v in set(scene.ids) - cell:
                    if all(tuple(sorted((u, v))) in edges for u in cell):
                        assert cell | {v} in scene.cells, (scene.name, cell, v)


def test_inputs_depend_only_on_the_seed(tmp_path):
    def written(seed, sub):
        out = {}
        for scene in scenes.workload_scenes("grid", seed):
            paths = scene.write(tmp_path / sub, np.random.default_rng([seed, 1]))
            out.update({k: p.read_bytes() for k, p in paths.items()})
        return out

    assert written(4, "a") == written(4, "b")
    assert written(4, "a") != written(5, "c")


@pytest.mark.parametrize("p", [
    scenes.Prim("s", "sphere", (1.0, 2.0, 3.0), (1.5,)),
    scenes.Prim("b", "box", (0.0, -1.0, 2.0), (1.0, 0.5, 2.0)),
    scenes.Prim("c", "cylinder", (2.0, 0.0, 0.0), (0.7, 1.3)),
])
def test_surface_samples_lie_on_the_surface_with_outward_normals(p):
    pts, nrm = p.sample_surface(500, np.random.default_rng(0))
    assert np.all(np.abs(p.sdf(pts)) < 1e-9)
    assert np.allclose(np.linalg.norm(nrm, axis=1), 1.0)
    assert np.all(p.sdf(pts + 1e-3 * nrm) > 0) and np.all(p.sdf(pts - 1e-3 * nrm) < 0)
