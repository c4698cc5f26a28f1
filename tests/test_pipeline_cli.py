"""Tests for the end-to-end pipeline and the csgc command line."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from csgcompress import pipeline, qubo
from csgcompress.cli import main
from csgcompress.cover import (
    MODE_GLOBAL,
    MODE_PARTITIONED,
    cover_instance_from_dict,
    cover_instance_to_dict,
    generate_candidates,
)
from csgcompress.errors import ParameterError
from csgcompress.geometry import (
    CloudOracle,
    Leaf,
    TreeOracle,
    leaf_count,
    Union,
    load_cloud,
    primitive_to_dict,
    sample_surface,
    save_cloud,
    save_primitives,
    sphere,
    tree_from_dict,
    tree_to_dict,
)
from csgcompress.geometry.sampling import derive_seed
from csgcompress.graph import build_intersection_graph, maximal_cliques_bk
from csgcompress.pipeline import (
    PipelineConfig,
    cliques_via_qubo_sa,
    compress,
    compress_abstract,
    cover_warnings,
    find_cliques,
    oracle_agreement,
    report_stats,
    solve_cover,
    two_level_baseline,
)
from csgcompress.products import (
    abstract_instance_from_dict,
    enumerate_products,
    table_to_dict,
)
from csgcompress.qubo import AnnealSchedule
from tests.conftest import sphere_chain_instance
from tests.test_cover import coverable_instances


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"
COMPRESS_RUNS = """
import json, sys
from csgcompress.cli import main
for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
"""


@pytest.fixture(scope="module")
def fig_report(fig_primitives, fig_oracle):
    return compress(fig_primitives, fig_oracle, PipelineConfig(seed=0))


class TestTwoLevelBaseline:
    def test_reference_scene_25_literals(self, fig_abstract_instance):
        graph, table = abstract_instance_from_dict(fig_abstract_instance)
        assert leaf_count(two_level_baseline(table, graph)) == 25

    def test_single_product(self):
        graph, table = abstract_instance_from_dict(
            {
                "primitives": ["A"],
                "edges": [],
                "products": [{"positives": ["A"], "inside": True}],
            }
        )
        assert two_level_baseline(table, graph) == Leaf("A")


class TestCompress:
    def test_reference_scene_partitioned_dlx(self, fig_report):
        assert fig_report.leaf_count == 10
        assert fig_report.two_level_leaf_count == 25
        assert fig_report.reduction == pytest.approx(0.60)
        assert fig_report.n_f == 15
        assert len(fig_report.universe) == 8
        assert len(fig_report.cliques) == 4
        assert fig_report.subsets_used == 4

    def test_reference_scene_agreement(self, fig_report):
        assert fig_report.oracle_agreement >= 0.999

    def test_bounds_respected(self, fig_report):
        assert fig_report.candidate_count <= fig_report.bounds["partitioned"]
        assert fig_report.bounds["global"] == 32767
        assert fig_report.bounds["partitioned"] == 268

    def test_single_sphere_cloud_roundtrip(self):
        a = sphere("A", (0, 0, 0), 1.0)
        cloud = sample_surface(Leaf("A"), [a], 2000, seed=21)
        report = compress([a], CloudOracle(cloud),
                          PipelineConfig(graph_samples=512, product_samples=512))
        assert report.tree == Leaf("A")
        assert report.leaf_count == report.two_level_leaf_count == 1
        assert report.reduction == 0.0

    def test_qubo_sa_matches_dlx_key(self, fig_primitives, fig_oracle):
        sa = compress(fig_primitives, fig_oracle,
                      PipelineConfig(cover_solver="qubo_sa", seed=1))
        assert (sa.subsets_used, sa.total_literals) == (4, 10)
        assert sa.solver["name"] == "qubo_sa"
        assert sa.solver["energy"] == pytest.approx(4.0)  # B * subsets_used

    def test_global_mode_key_not_worse(self, fig_primitives, fig_oracle, fig_report):
        glob = compress(fig_primitives, fig_oracle,
                        PipelineConfig(mode=MODE_GLOBAL, seed=0))
        assert (glob.subsets_used, glob.total_literals) <= (
            fig_report.subsets_used, fig_report.total_literals,
        )

    def test_deterministic_reports(self, fig_primitives, fig_oracle):
        cfg = PipelineConfig(seed=9, graph_samples=1024, product_samples=512,
                             agreement_points=2000)
        r1 = compress(fig_primitives, fig_oracle, cfg)
        r2 = compress(fig_primitives, fig_oracle, cfg)
        assert report_stats(r1) == report_stats(r2)

    def test_an_oracle_needs_only_inside(self, fig_primitives, fig_oracle):
        class InsideOnlyOracle:
            def inside(self, points):
                return fig_oracle.inside(points)

        cfg = PipelineConfig(graph_samples=1024, product_samples=512,
                             agreement_points=2000)
        report = compress(fig_primitives, InsideOnlyOracle(), cfg)
        assert report_stats(report) == report_stats(compress(fig_primitives,
                                                             fig_oracle, cfg))
        assert oracle_agreement(report.tree, fig_primitives, InsideOnlyOracle(),
                                n_points=2000, seed=derive_seed(cfg.seed, 5)) == (
            report.oracle_agreement, 2000)

    def test_agreement_without_points_is_refused(self, fig_primitives, fig_oracle):
        cfg = PipelineConfig(graph_samples=256, product_samples=256,
                             agreement_points=0)
        with pytest.raises(ParameterError, match=r"\[evaluate\] .*n_points >= 1"):
            compress(fig_primitives, fig_oracle, cfg)

    def test_config_record_with_schedule_and_penalties(self):
        cfg = PipelineConfig(
            mode=MODE_GLOBAL, cover_solver="qubo_sa", graph_samples=300,
            product_samples=200, seed=7, tau_in=0.9, tau_out=0.1,
            penalty_a=12.5, penalty_b=2.0,
            schedule=AnnealSchedule(30.0, 0.01, 5000, 8), agreement_points=400,
        )
        assert json.dumps(cfg.to_dict()) == (
            '{"config_version": 1, "mode": "global", "cover_solver": "qubo_sa", '
            '"clique_method": "bk", "graph_samples": 300, "product_samples": 200, '
            '"seed": 7, "tau_in": 0.9, "tau_out": 0.1, "penalty_a": 12.5, '
            '"penalty_b": 2.0, "schedule": {"t_start": 30.0, "t_end": 0.01, '
            '"sweeps": 5000, "restarts": 8}, "agreement_points": 400}'
        )

    def test_stage_attribution(self):
        # Disjoint cover: the oracle puts nothing inside, so the products
        # stage yields an empty universe and the cover stage cannot start.
        a = sphere("A", (0, 0, 0), 1.0)
        oracle = TreeOracle(Leaf("S"), [sphere("S", (9, 0, 0), 0.5)])
        from csgcompress.errors import UnsatisfiableError
        with pytest.raises(UnsatisfiableError):
            compress([a], oracle, PipelineConfig(graph_samples=256,
                                                 product_samples=256))


class TestCompressAbstract:
    def test_reference_instance(self, fig_abstract_instance):
        graph, table = abstract_instance_from_dict(fig_abstract_instance)
        report = compress_abstract(graph, table, PipelineConfig())
        assert (report.subsets_used, report.total_literals) == (4, 10)
        assert report.two_level_leaf_count == 25
        assert report.oracle_agreement is None
        assert report.reduction == pytest.approx(0.60)

    def test_qubo_exact_solver(self, fig_abstract_instance):
        graph, table = abstract_instance_from_dict(fig_abstract_instance)
        report = compress_abstract(
            graph, table, PipelineConfig(cover_solver="qubo_exact")
        )
        assert (report.subsets_used, report.total_literals) == (4, 10)
        assert report.solver["energy"] == pytest.approx(4.0)

    def test_chain_partitioned(self, chain_primitives, chain_tree):
        oracle = TreeOracle(chain_tree, chain_primitives)
        report = compress(chain_primitives, oracle, PipelineConfig(seed=0))
        assert report.n_f == 23
        assert report.bounds["global"] == 2**23 - 1
        assert report.bounds["partitioned"] == 11 * 7
        assert report.candidate_count <= report.bounds["partitioned"]
        assert report.oracle_agreement >= 0.999

    def test_sa_cover_is_checked_at_any_size(self):
        # The bound proves the 6-sphere chain's 6 subsets over 25 variables.
        # On the 16-sphere chain a short schedule (10 n sweeps, 8 restarts)
        # stops at 18 subsets.
        graph, table = abstract_instance_from_dict(sphere_chain_instance(6))
        report = compress_abstract(graph, table, PipelineConfig(cover_solver="qubo_sa"))
        assert (report.solver["variables"], report.subsets_used) == (25, 6)
        assert "sa_exact_gap" not in report.solver
        assert report.warnings == ()
        graph, table = abstract_instance_from_dict(sphere_chain_instance(16))
        cfg = PipelineConfig(cover_solver="qubo_sa", seed=0,
                             schedule=AnnealSchedule(2.0, 0.01, 750, 8))
        report = compress_abstract(graph, table, cfg)
        assert report.solver["variables"] == 75
        assert report.subsets_used == 18
        assert report.warnings == (
            "qubo_sa cover uses 18 subsets, above the lower bound of 16; it may "
            "not be the smallest",
        )

    def test_sa_cover_above_the_minimum_is_flagged(self):
        # Ten sweeps cooling only to 0.5 leave this seed in a larger cover.
        graph, table = abstract_instance_from_dict(sphere_chain_instance(3))
        cfg = PipelineConfig(cover_solver="qubo_sa", seed=20,
                             schedule=AnnealSchedule(2.0, 0.5, 10, 1))
        report = compress_abstract(graph, table, cfg)
        assert (report.subsets_used, report.total_literals) == (4, 8)
        assert report.warnings == (
            "qubo_sa cover uses 4 subsets, above the lower bound of 3; it may "
            "not be the smallest",
        )


class TestSolveCover:
    def test_unknown_solver_rejected(self, cover5_instance_dict):
        instance = cover_instance_from_dict(cover5_instance_dict)
        with pytest.raises(ParameterError, match="unknown cover solver"):
            solve_cover(instance, "greedy")

    def test_dlx_record(self, cover5_instance_dict):
        instance = cover_instance_from_dict(cover5_instance_dict)
        solution, meta = solve_cover(instance)
        assert meta == {"name": "dlx"}
        assert [instance.candidates[i].name for i in solution.selected] == [
            "V1", "V5", "V7",
        ]

    def test_only_qubo_sa_covers_are_checked(self):
        # Every pair of the three elements shares a subset, so the bound is
        # 1 while the smallest cover takes 2: an annealed cover is flagged
        # although it is the smallest, an exact solver's is not.
        instance = cover_instance_from_dict({
            "universe": [1, 2, 3],
            "subsets": [{"covers": c} for c in ([1, 2], [2, 3], [1, 3], [1], [2], [3])],
        })
        for solver in ("dlx", "qubo_exact", "qubo_sa"):
            solution, _meta = solve_cover(instance, solver)
            assert solution.subsets_used == 2
            assert cover_warnings(instance, solution, solver) == (
                ["qubo_sa cover uses 2 subsets, above the lower bound of 1; it "
                 "may not be the smallest"] if solver == "qubo_sa" else [])

    @given(st.integers(0, 3).flatmap(
        lambda k: coverable_instances(literals=st.just(k))))
    def test_qubo_exact_breaks_ties_as_dlx(self, inst):
        # With one literal count for every candidate, dlx's (subsets,
        # literals, indices) key reduces to the QUBO energy's subset count
        # and the sorted index tuple.
        dlx, _meta = solve_cover(inst, "dlx")
        exact, _meta = solve_cover(inst, "qubo_exact")
        assert exact == dlx

    def test_oversized_models_are_refused_before_the_build(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("build_cover_qubo called on a refused model")

        monkeypatch.setattr(pipeline, "build_cover_qubo", refuse)

        def instance(n):
            return cover_instance_from_dict(
                {"universe": [1], "subsets": [{"covers": [1]}] * n})

        def message(call):
            with pytest.raises(ParameterError) as info:
                call()
            return str(info.value)

        # Each refusal reads as the solver's own.  The default schedule
        # (30 n sweeps x 256 restarts) passes SA_TABLE_LIMIT above 5 720
        # variables.
        long_run = AnnealSchedule(1.0, 0.01, 2**26, 2)
        exact = message(lambda: solve_cover(instance(31), "qubo_exact"))
        assert exact == message(lambda: qubo.solve_exact(qubo.Qubo(31, {}, {})))
        assert exact == "exact solver limited to n <= 30, got 31"
        for n, schedule in ((3, long_run), (5721, None)):
            sa = message(lambda: solve_cover(instance(n), "qubo_sa", schedule=schedule))
            assert sa == message(lambda: qubo.solve_sa(qubo.Qubo(n, {}, {}), schedule))
            assert "above SA_TABLE_LIMIT" in sa

    def test_sa_path_never_calls_solve_exact(
        self, cover5_instance_dict, fig_abstract_instance, monkeypatch
    ):
        def refuse(_q):
            raise AssertionError("solve_exact called on the qubo_sa path")

        monkeypatch.setattr(qubo, "solve_exact", refuse)
        monkeypatch.setattr(pipeline, "solve_exact", refuse)
        instance = cover_instance_from_dict(cover5_instance_dict)
        solution, meta = solve_cover(instance, "qubo_sa", penalty_a=6.1,
                                     penalty_b=0.3)
        assert sorted(meta) == ["energy", "name", "penalty_a", "penalty_b",
                                "restarts", "seed", "sweeps", "variables"]
        assert solution.subsets_used == 3
        graph, table = abstract_instance_from_dict(fig_abstract_instance)
        report = compress_abstract(graph, table, PipelineConfig(cover_solver="qubo_sa"))
        assert (report.subsets_used, report.warnings) == (4, ())


class TestExperimentalCliques:
    def test_partition_is_disjoint_and_covers(self, fig_abstract_instance):
        graph, _ = abstract_instance_from_dict(fig_abstract_instance)
        cliques = cliques_via_qubo_sa(graph, seed=0)
        seen = set()
        for c in cliques:
            assert graph.is_clique(c)
            assert not (c & seen)
            seen |= c
        assert seen == set(graph.vertices)

    def test_first_peel_is_a_maximum_clique(self, fig_abstract_instance):
        graph, _ = abstract_instance_from_dict(fig_abstract_instance)
        cliques = cliques_via_qubo_sa(graph, seed=0)
        assert max(len(c) for c in cliques) == 3

    def test_deterministic(self, fig_abstract_instance):
        graph, _ = abstract_instance_from_dict(fig_abstract_instance)
        assert cliques_via_qubo_sa(graph, seed=5) == cliques_via_qubo_sa(graph, seed=5)


class TestFindCliques:
    def test_dispatches_to_each_method(self, fig_abstract_instance):
        graph, _ = abstract_instance_from_dict(fig_abstract_instance)
        assert find_cliques(graph) == maximal_cliques_bk(graph)
        schedule = AnnealSchedule(2.0, 0.01, 200, 4)
        assert find_cliques(
            graph, "qubo_sa_experimental", penalty_a=1.0, penalty_b=3.0,
            schedule=schedule, seed=4,
        ) == cliques_via_qubo_sa(graph, 1.0, 3.0, schedule, seed=4)

    def test_unknown_method_rejected(self, fig_abstract_instance):
        graph, _ = abstract_instance_from_dict(fig_abstract_instance)
        with pytest.raises(ParameterError, match="unknown clique method"):
            find_cliques(graph, "greedy")


class TestReportStats:
    def test_json_fields(self, fig_report):
        data = json.loads(report_stats(fig_report))
        assert data["schema_version"] == 2
        assert data["n_f"] == 15
        assert len(data["universe"]) == 8
        assert len(data["cliques"]) == 4
        assert data["bounds"]["global"] == 32767
        assert data["warnings"] == []

    def test_text_rendering(self, fig_report):
        text = report_stats(fig_report, fmt="text")
        assert "products (n_f)    : 15" in text
        assert "warnings          : []" in text
        assert "reduction         : 60.0%" in text

    def test_timestamp_optional(self, fig_report):
        with_ts = json.loads(report_stats(fig_report, timestamp="2026-01-01T00:00:00"))
        without = json.loads(report_stats(fig_report))
        assert with_ts["timestamp"] == "2026-01-01T00:00:00"
        assert "timestamp" not in without


class TestOracleAgreement:
    def test_tree_against_itself(self, fig_primitives, fig_minimal_tree, fig_oracle):
        agreement, used = oracle_agreement(
            fig_minimal_tree, fig_primitives, fig_oracle, n_points=2000, seed=0
        )
        assert agreement == 1.0
        assert used == 2000

    def test_two_level_baseline_matches_oracle(self, fig_primitives, fig_oracle):
        # The union of inside-labelled products is the target solid itself.
        graph = build_intersection_graph(fig_primitives, count=2048, seed=0)
        table = enumerate_products(fig_primitives, graph, fig_oracle, seed=0)
        baseline = two_level_baseline(table, graph)
        agreement, _ = oracle_agreement(
            baseline, fig_primitives, fig_oracle, n_points=10_000, seed=1
        )
        assert agreement >= 0.999


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture()
def scene_files(tmp_path, fig_primitives, fig_minimal_tree):
    prim_path = tmp_path / "prims.json"
    tree_path = tmp_path / "tree.json"
    save_primitives(fig_primitives, prim_path)
    tree_path.write_text(json.dumps(tree_to_dict(fig_minimal_tree)) + "\n")
    return prim_path, tree_path


@pytest.fixture()
def cloud_file(tmp_path, fig_primitives, fig_minimal_tree):
    path = tmp_path / "cloud.xyz"
    save_cloud(sample_surface(fig_minimal_tree, fig_primitives, 4000, seed=2), path)
    return path


@pytest.fixture()
def abstract_file(tmp_path, fig_abstract_instance):
    path = tmp_path / "abstract.json"
    path.write_text(json.dumps(fig_abstract_instance) + "\n")
    return path


@pytest.fixture()
def cover5_file(tmp_path, cover5_instance_dict):
    path = tmp_path / "cover5.json"
    path.write_text(json.dumps(cover5_instance_dict) + "\n")
    return path


class TestCli:
    def test_compress_abstract_reproducible(self, abstract_file, tmp_path, capsys):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        for out in (out1, out2):
            code = main([
                "compress", "--abstract", str(abstract_file),
                "--no-timestamp", "--out", str(out),
            ])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()
        data = json.loads(out1.read_text())
        assert data["leaf_count"] == 10
        assert data["two_level_leaf_count"] == 25

    def test_compress_geometric_with_tree_oracle(self, scene_files, tmp_path):
        prim_path, tree_path = scene_files
        out = tmp_path / "report.json"
        tree_out = tmp_path / "tree_out.json"
        code = main([
            "compress", "--primitives", str(prim_path), "--tree", str(tree_path),
            "--samples", "1024", "--no-timestamp",
            "--out", str(out), "--tree-out", str(tree_out),
        ])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["reduction"] == pytest.approx(0.60)
        tree = tree_from_dict(json.loads(tree_out.read_text()))
        assert leaf_count(tree) == 10

    def test_cliques_command(self, tmp_path, capsys):
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps({
            "vertices": ["a", "b", "c"],
            "edges": [["a", "b"], ["b", "c"], ["a", "c"]],
        }))
        assert main(["cliques", "--graph", str(graph_path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cliques"] == [["a", "b", "c"]]

    def test_products_command_feeds_abstract_compress(self, scene_files, tmp_path):
        prim_path, tree_path = scene_files
        table_path = tmp_path / "table.json"
        code = main([
            "products", "--primitives", str(prim_path), "--tree", str(tree_path),
            "--samples", "1024", "--out", str(table_path),
        ])
        assert code == 0
        report_path = tmp_path / "report.json"
        code = main([
            "compress", "--abstract", str(table_path), "--no-timestamp",
            "--out", str(report_path),
        ])
        assert code == 0
        assert json.loads(report_path.read_text())["leaf_count"] == 10

    @pytest.mark.parametrize("samples, seed", [(None, 0), (512, 3)])
    def test_products_command_writes_the_table_compress_classifies(
        self, samples, seed, scene_files, cloud_file, fig_primitives, tmp_path
    ):
        prim_path, _ = scene_files
        table_path = tmp_path / "table.json"
        args = ["products", "--primitives", str(prim_path),
                "--cloud", str(cloud_file), "--seed", str(seed),
                "--out", str(table_path)]
        if samples is not None:
            args += ["--samples", str(samples)]
        assert main(args) == 0
        counts = {} if samples is None else {"graph_samples": samples,
                                             "product_samples": samples}
        cfg = PipelineConfig(seed=seed, **counts)
        oracle = CloudOracle(load_cloud(cloud_file))
        # compress's sampling stages, called as compress calls them
        graph = build_intersection_graph(
            fig_primitives, count=cfg.graph_samples, seed=derive_seed(seed, 1))
        table = enumerate_products(
            fig_primitives, graph, oracle, samples_per_region=cfg.product_samples,
            seed=derive_seed(seed, 2), tau_in=cfg.tau_in, tau_out=cfg.tau_out)
        written = json.loads(table_path.read_text())
        assert written == json.loads(json.dumps(table_to_dict(table, graph)))
        report = compress(fig_primitives, oracle, cfg)
        assert report.universe == table.universe
        assert report.n_f == len(written["products"])

    def test_products_then_abstract_compress_reproduces_compress(
        self, scene_files, cloud_file, tmp_path
    ):
        prim_path, _ = scene_files
        scene = ["--primitives", str(prim_path), "--cloud", str(cloud_file)]
        common = ["--seed", "5", "--samples", "512"]
        direct, table, via = (tmp_path / f for f in
                              ("direct.json", "table.json", "via.json"))
        assert main(["compress", *scene, "--no-timestamp", "--out", str(direct),
                     *common]) == 0
        assert main(["products", *scene, "--out", str(table), *common]) == 0
        assert main(["compress", "--abstract", str(table), "--no-timestamp",
                     "--out", str(via), *common]) == 0
        expected, got = (json.loads(p.read_text()) for p in (direct, via))
        for key in ("universe", "cover", "leaf_count"):
            assert got[key] == expected[key], key

    def test_products_matches_golden_table(self, scene_files, tmp_path):
        # Witness positions feed the labels and inside fractions, so a
        # sampling change that moves a single witness shows up here.
        prim_path, tree_path = scene_files
        out = tmp_path / "table.json"
        assert main(["products", "--primitives", str(prim_path),
                     "--tree", str(tree_path), "--out", str(out)]) == 0
        golden = GOLDEN / "products_reference_tree.json"
        assert out.read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("source", ["tree", "cloud"])
    def test_compress_matches_golden_report(self, source, scene_files, cloud_file,
                                            tmp_path):
        # The geometric report runs both oracles and the agreement check.
        prim_path, tree_path = scene_files
        target = tree_path if source == "tree" else cloud_file
        out = tmp_path / "report.json"
        assert main(["compress", "--primitives", str(prim_path),
                     f"--{source}", str(target), "--no-timestamp",
                     "--out", str(out)]) == 0
        golden = GOLDEN / f"compress_reference_{source}.json"
        assert out.read_bytes() == golden.read_bytes()

    def test_reports_do_not_depend_on_the_hash_seed(self, scene_files, cloud_file,
                                                    tmp_path):
        # Set iteration order follows PYTHONHASHSEED, which one interpreter
        # cannot vary, so each hash seed runs in its own process.
        prim_path, tree_path = scene_files
        configs = {
            "tree-dlx": ["--tree", str(tree_path)],
            "tree-qubo_sa": ["--tree", str(tree_path), "--solver", "qubo_sa"],
            "cloud-dlx": ["--cloud", str(cloud_file)],
        }
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        for hash_seed in ("0", "1"):
            runs = [["compress", "--primitives", str(prim_path), *extra,
                     "--no-timestamp", "--out", str(tmp_path / f"{name}-{hash_seed}")]
                    for name, extra in configs.items()]
            run = subprocess.run(
                [sys.executable, "-c", COMPRESS_RUNS, json.dumps(runs)],
                env={**env, "PYTHONHASHSEED": hash_seed},
                capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
        for name in configs:
            first = (tmp_path / f"{name}-0").read_bytes()
            assert first and first == (tmp_path / f"{name}-1").read_bytes(), name

    @pytest.mark.parametrize("solver", ["dlx", "qubo_exact", "qubo_sa"])
    def test_compress_abstract_matches_golden_report(self, solver, abstract_file,
                                                     tmp_path):
        out = tmp_path / "report.json"
        code = main([
            "compress", "--abstract", str(abstract_file), "--solver", solver,
            "--no-timestamp", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == (GOLDEN / f"abstract_{solver}.json").read_bytes()

    @pytest.mark.parametrize("solver", ["dlx", "qubo_exact", "qubo_sa"])
    def test_cover_command_prints_the_compress_solver_record(
        self, solver, fig_abstract_instance, tmp_path, capsys
    ):
        graph, table = abstract_instance_from_dict(fig_abstract_instance)
        report = compress_abstract(graph, table, PipelineConfig(cover_solver=solver))
        instance = generate_candidates(
            table, maximal_cliques_bk(graph), graph, MODE_PARTITIONED
        )
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(cover_instance_to_dict(instance)) + "\n")
        args = ["cover", "--instance", str(path), "--solver", solver]
        if solver == "qubo_sa":
            args += ["--seed", str(report.solver["seed"])]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["solver"] == report.solver
        assert data["selected"] == list(report.cover_selected)
        assert data["total_literals"] == report.total_literals

    def test_cover_command_warns_as_compress_does(self, tmp_path, capsys):
        graph, table = abstract_instance_from_dict(sphere_chain_instance(3))
        cfg = PipelineConfig(cover_solver="qubo_sa", seed=20,
                             schedule=AnnealSchedule(2.0, 0.5, 10, 1))
        report = compress_abstract(graph, table, cfg)
        instance = generate_candidates(table, maximal_cliques_bk(graph), graph)
        path = tmp_path / "cover.json"
        path.write_text(json.dumps(cover_instance_to_dict(instance)) + "\n")
        args = ["cover", "--instance", str(path), "--solver", "qubo_sa",
                "--schedule", "2.0,0.5,10,1", "--seed", str(report.solver["seed"])]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["subsets_used"] == report.subsets_used == 4
        assert captured.err == "".join(f"warning: {w}\n" for w in report.warnings)
        assert len(report.warnings) == 1
        assert main(["cover", "--instance", str(path), "--solver", "qubo_sa"]) == 0
        assert capsys.readouterr().err == ""

    def test_cover_command_all_solvers(self, cover5_file, capsys):
        for extra in ([], ["--solver", "qubo_exact"],
                      ["--solver", "qubo_sa", "--seed", "3"]):
            code = main(["cover", "--instance", str(cover5_file)] + extra)
            assert code == 0
            data = json.loads(capsys.readouterr().out)
            assert data["selected"] == ["V1", "V5", "V7"]

    def test_qubo_export_solve_roundtrip(self, cover5_file, tmp_path, capsys):
        model = tmp_path / "cover.qubo"
        code = main([
            "qubo", "export", "--instance", str(cover5_file),
            "--penalty-a", "6", "--penalty-b", "1", "--out", str(model),
        ])
        assert code == 0
        code = main(["qubo", "solve", "--model", str(model), "--solver", "exact"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["energy"] == 3.0
        assert data["assignment"] == "1000101"

    def test_eval_command(self, scene_files, tmp_path, capsys,
                          fig_primitives, fig_minimal_tree):
        prim_path, tree_path = scene_files
        # The half-space heuristic extrapolates small concave cut faces, so
        # a fraction of a percent of far-field queries lands on the wrong
        # side even with a dense cloud.
        cloud = sample_surface(fig_minimal_tree, fig_primitives, 16000, seed=2)
        cloud_path = tmp_path / "cloud.xyz"
        save_cloud(cloud, cloud_path)
        code = main([
            "eval", "--tree", str(tree_path), "--primitives", str(prim_path),
            "--cloud", str(cloud_path), "--samples", "2000",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["agreement"] >= 0.99

    def test_exit_code_parameter_error(self, cover5_file, capsys):
        code = main([
            "cover", "--instance", str(cover5_file),
            "--solver", "qubo_exact", "--penalty-a", "3",
        ])
        capsys.readouterr()
        assert code == 4

    def test_non_finite_schedule_is_a_parameter_error(self, cover5_file, capsys):
        code = main([
            "cover", "--instance", str(cover5_file),
            "--solver", "qubo_sa", "--schedule", "inf,0.01,200,4",
        ])
        assert "t_start and t_end must be finite" in capsys.readouterr().err
        assert code == 4

    @pytest.mark.parametrize("command", [
        "compress", "cover", "cover dlx", "cover qubo_exact", "cliques bk",
        "qubo solve", "qubo solve exact", "eval",
    ])
    def test_negative_seed_is_a_parameter_error(self, command, abstract_file,
                                                cover5_file, scene_files,
                                                cloud_file, tmp_path, capsys):
        # Refused also where the seed goes unused (dlx, qubo_exact, bk, exact).
        prim_path, tree_path = scene_files
        model = tmp_path / "cover.qubo"
        assert main(["qubo", "export", "--instance", str(cover5_file),
                     "--out", str(model)]) == 0
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]]}))
        cover = ["cover", "--instance", str(cover5_file), "--solver"]
        solve = ["qubo", "solve", "--model", str(model)]
        args = {
            "compress": ["compress", "--abstract", str(abstract_file)],
            "cover": cover + ["qubo_sa"],
            "cover dlx": cover + ["dlx"],
            "cover qubo_exact": cover + ["qubo_exact"],
            "cliques bk": ["cliques", "--graph", str(graph), "--method", "bk"],
            "qubo solve": solve,
            "qubo solve exact": solve + ["--solver", "exact"],
            "eval": ["eval", "--tree", str(tree_path), "--primitives",
                     str(prim_path), "--cloud", str(cloud_file)],
        }[command]
        code = main(args + ["--seed", "-1"])
        assert "seed must be non-negative" in capsys.readouterr().err
        assert code == 4

    @pytest.mark.parametrize("solver", ["exact", "sa"])
    def test_malformed_schedule_is_a_parameter_error(self, solver, cover5_file,
                                                     tmp_path, capsys):
        # Refused also where the exact solver never reads it.
        model = tmp_path / "cover.qubo"
        assert main(["qubo", "export", "--instance", str(cover5_file),
                     "--out", str(model)]) == 0
        code = main(["qubo", "solve", "--model", str(model), "--solver", solver,
                     "--schedule", "garbage"])
        assert "--schedule expects t_start,t_end,sweeps,restarts" in (
            capsys.readouterr().err)
        assert code == 4

    def test_schedule_is_checked_before_the_input_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code = main(["cover", "--instance", str(bad), "--schedule", "1,2,3"])
        assert "--schedule expects" in capsys.readouterr().err
        assert code == 4

    @pytest.mark.parametrize("penalty_b", ["0", "-1"])
    @pytest.mark.parametrize("command", ["cover", "qubo export"])
    def test_non_positive_subset_cost_is_a_parameter_error(
        self, command, penalty_b, tmp_path, capsys
    ):
        # With B = 0 the all-singletons cover ties the one-subset cover.
        instance = tmp_path / "cover4.json"
        instance.write_text(json.dumps({
            "universe": [1, 2, 3, 4],
            "subsets": [{"name": "all", "covers": [1, 2, 3, 4]}]
            + [{"name": n, "covers": [i]} for i, n in enumerate("abcd", 1)],
        }))
        args = {
            "cover": ["cover", "--instance", str(instance), "--solver", "qubo_exact"],
            "qubo export": ["qubo", "export", "--instance", str(instance),
                            "--out", str(tmp_path / "m.qubo")],
        }[command]
        code = main(args + ["--penalty-b", penalty_b])
        assert "B > 0" in capsys.readouterr().err
        assert code == 4

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_eval_without_points_is_a_parameter_error(self, scene_files, cloud_file,
                                                      capsys, samples):
        prim_path, tree_path = scene_files
        code = main([
            "eval", "--tree", str(tree_path), "--primitives", str(prim_path),
            "--cloud", str(cloud_file), "--samples", samples,
        ])
        assert "n_points >= 1" in capsys.readouterr().err
        assert code == 4

    @pytest.mark.parametrize("text", ["[1,2]", '{"op":"union","children":5}'])
    def test_malformed_tree_is_an_input_error(self, scene_files, cloud_file,
                                              tmp_path, capsys, text):
        prim_path, _ = scene_files
        bad = tmp_path / "bad_tree.json"
        bad.write_text(text)
        for cmd in (["compress", "--primitives", str(prim_path), "--tree", str(bad)],
                    ["eval", "--primitives", str(prim_path), "--tree", str(bad),
                     "--cloud", str(cloud_file)]):
            code = main(cmd)
            assert capsys.readouterr().err.startswith("error: ")
            assert code == 3

    def test_negative_qubo_size_is_an_input_error(self, tmp_path, capsys):
        model = tmp_path / "neg.qubo"
        model.write_text("p qubo 0 -1 0 0\n")
        code = main(["qubo", "solve", "--model", str(model)])
        assert "model size must be non-negative" in capsys.readouterr().err
        assert code == 3

    def test_exit_code_unsatisfiable(self, tmp_path, capsys):
        bad = tmp_path / "unsat.json"
        bad.write_text(json.dumps({
            "universe": [1, 2, 3],
            "subsets": [{"name": "S0", "covers": [1, 2]},
                        {"name": "S1", "covers": [2, 3]}],
        }))
        code = main(["cover", "--instance", str(bad)])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("solver", ["dlx", "qubo_exact", "qubo_sa"])
    def test_every_solver_names_an_uncoverable_element(self, solver, tmp_path,
                                                         capsys):
        bad = tmp_path / "uncoverable.json"
        bad.write_text(json.dumps({
            "universe": ["a", "b", "c"],
            "subsets": [{"name": "S0", "covers": ["a"]},
                        {"name": "S1", "covers": ["b"]}],
        }))
        code = main(["cover", "--instance", str(bad), "--solver", solver])
        assert capsys.readouterr().err == "error: universe element(s) uncoverable: c\n"
        assert code == 2

    @pytest.mark.parametrize("solver, reason", [
        ("qubo_exact", "no cover may exist\n"),
        ("qubo_sa", "no cover may exist, or the schedule is too short\n"),
    ])
    def test_only_qubo_sa_blames_the_schedule(self, solver, reason, tmp_path, capsys):
        # Every element is coverable, but no exact cover exists.
        bad = tmp_path / "unsat.json"
        bad.write_text(json.dumps({
            "universe": [1, 2, 3],
            "subsets": [{"name": "S0", "covers": [1, 2]},
                        {"name": "S1", "covers": [2, 3]}],
        }))
        code = main(["cover", "--instance", str(bad), "--solver", solver])
        err = capsys.readouterr().err
        assert err.startswith(f"error: {solver} did not reach an exact cover")
        assert err.endswith(f"; {reason}")
        assert code == 2

    def test_schedule_above_the_table_limit_is_a_parameter_error(
        self, cover5_file, monkeypatch, capsys
    ):
        # 4 restarts x (31 744 + 16) proposals x 16 bytes are 1.9 MiB, and
        # their 4 rows of 7 + 2 x 31 744 uniforms x 8 bytes another 1.9 MiB
        # (qubo.sa_table_bytes counts the rest of the run's arrays too).
        monkeypatch.setattr(qubo, "SA_TABLE_LIMIT", 1 << 20)
        code = main(["cover", "--instance", str(cover5_file), "--solver", "qubo_sa",
                     "--schedule", "1,0.01,31744,4"])
        err = capsys.readouterr().err
        assert "5093000 bytes of working memory, above SA_TABLE_LIMIT = 1048576" in err
        assert code == 4

    @pytest.mark.parametrize("command, record, field", [
        pytest.param(command, record, field, id=f"{command}-{field}")
        for command, record, field in [
            ("cover", {"universe": "ab", "subsets": [{"covers": ["a", "b"]}]},
             "universe"),
            ("cover", {"universe": ["a", "b"], "subsets": [{"covers": "ab"}]},
             "subset 0 covers"),
            ("cover", {"universe": ["a"], "subsets": "a"}, "subsets"),
            ("abstract", {"primitives": "AB", "edges": [["A", "B"]],
                          "products": [{"positives": ["A"], "inside": True}]},
             "primitives"),
            ("abstract", {"primitives": ["A", "B"], "edges": "AB",
                          "products": [{"positives": ["A"], "inside": True}]},
             "edges"),
            ("abstract", {"primitives": ["A", "B"], "edges": ["AB"],
                          "products": [{"positives": ["A"], "inside": True}]},
             "edge 0"),
            ("abstract", {"primitives": ["A", "B"], "edges": [["A", "B"]],
                          "products": "AB"},
             "products"),
            ("abstract", {"primitives": ["A", "B"], "edges": [["A", "B"]],
                          "products": [{"positives": "AB", "inside": True}]},
             "product 0 positives"),
            ("graph", {"vertices": "AB", "edges": []}, "vertices"),
            ("graph", {"vertices": ["A", "B"], "edges": "AB"}, "edges"),
            ("graph", {"vertices": ["A", "B"], "edges": ["AB"]}, "edge 0"),
        ]
    ])
    def test_string_for_an_array_is_an_input_error(self, command, record, field,
                                                   tmp_path, capsys):
        # Iterating a string would split it into characters.
        path = tmp_path / "input.json"
        path.write_text(json.dumps(record))
        args = {"cover": ["cover", "--instance"],
                "abstract": ["compress", "--abstract"],
                "graph": ["cliques", "--graph"]}[command]
        code = main(args + [str(path)])
        assert f"{field} must be an array, got str" in capsys.readouterr().err
        assert code == 3

    @pytest.mark.parametrize("text, message", [
        ("0 0 0\n1 0 0\n", "cloud.xyz:1: expected 6 numbers (x y z nx ny nz), got 3"),
        ("# no points\n", "cloud.xyz: a point cloud needs at least one point"),
    ])
    def test_cloud_without_normals_or_points_is_an_input_error(
        self, scene_files, tmp_path, capsys, text, message
    ):
        prim_path, _ = scene_files
        cloud = tmp_path / "cloud.xyz"
        cloud.write_text(text)
        code = main(["compress", "--primitives", str(prim_path), "--cloud", str(cloud)])
        assert capsys.readouterr().err == f"error: {tmp_path / message}\n"
        assert code == 3

    @pytest.mark.parametrize("pid, field, value", [
        ("B", "params", {"radius": float("nan")}),
        ("C", "translation", [1.6, float("inf"), 0.0]),
    ])
    def test_non_finite_primitive_is_an_input_error(
        self, fig_primitives, scene_files, tmp_path, capsys, pid, field, value
    ):
        # Python's json reads NaN and Infinity; nan passes every "<= 0" test.
        _, tree_path = scene_files
        records = [primitive_to_dict(p) for p in fig_primitives]
        next(r for r in records if r["id"] == pid)[field] = value
        prims = tmp_path / "bad_prims.json"
        prims.write_text(json.dumps(records))
        code = main(["compress", "--primitives", str(prims), "--tree", str(tree_path)])
        assert capsys.readouterr().err == (
            f"error: {prims}: bad primitive record: primitive {pid!r} needs "
            "finite pose and sizes\n")
        assert code == 3

    @pytest.mark.parametrize("row", [
        "0.5 0.5 0.5 nan nan nan",  # passes the unit-normal test: nan > tol is false
        "0.5 nan 0.5 0 0 1",
        "0.5 0.5 inf 0 0 1",
    ])
    def test_non_finite_cloud_row_is_an_input_error(self, tmp_path, capsys, row):
        spheres = (sphere("A", (0.0, 0.0, 0.0), 1.0), sphere("B", (1.5, 0.0, 0.0), 1.0))
        prims = tmp_path / "prims.json"
        save_primitives(spheres, prims)
        cloud = tmp_path / "cloud.xyz"
        save_cloud(sample_surface(Union((Leaf("A"), Leaf("B"))), spheres, 2000, seed=0),
                   cloud)
        with open(cloud, "a", encoding="utf-8") as fh:
            fh.write(row + "\n")
        code = main(["compress", "--primitives", str(prims), "--cloud", str(cloud),
                     "--samples", "512", "--no-timestamp"])
        assert capsys.readouterr().err == (
            f"error: {cloud}: points and normals must be finite\n")
        assert code == 3

    @pytest.mark.parametrize("model", [
        "p qubo 0 2 2 1\n0 0 nan\n1 1 1\n0 1 1\n",
        "c offset inf\np qubo 0 2 2 0\n0 0 1\n1 1 -1\n",
    ])
    def test_non_finite_qubo_model_is_an_input_error(self, tmp_path, capsys, model):
        path = tmp_path / "bad.qubo"
        path.write_text(model)
        code = main(["qubo", "solve", "--model", str(path), "--solver", "exact"])
        assert capsys.readouterr().err == (
            f"error: {path}: coefficients and offset must be finite\n")
        assert code == 3

    @pytest.mark.parametrize("solver, penalty", [
        ("qubo_exact", "nan"), ("qubo_exact", "inf"), ("qubo_sa", "inf"),
    ])
    def test_non_finite_cover_penalty_is_a_parameter_error(
        self, cover5_file, capsys, solver, penalty
    ):
        code = main(["cover", "--instance", str(cover5_file), "--solver", solver,
                     "--penalty-a", penalty])
        assert capsys.readouterr().err == (
            f"error: penalty A must be finite, got A={penalty}\n")
        assert code == 4

    @pytest.mark.parametrize("source, flag", [
        ("--instance", "--penalty-a"), ("--instance", "--penalty-b"),
        ("--graph", "--penalty-a"), ("--graph", "--penalty-b"),
    ])
    def test_non_finite_export_penalty_is_a_parameter_error(
        self, cover5_file, tmp_path, capsys, source, flag
    ):
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"vertices": ["a", "b", "c"],
                                     "edges": [["a", "b"]]}))
        out = tmp_path / "m.qubo"
        code = main(["qubo", "export", source,
                     str(cover5_file if source == "--instance" else graph),
                     flag, "inf", "--out", str(out)])
        name = flag[-1].upper()
        assert capsys.readouterr().err == (
            f"error: penalty {name} must be finite, got {name}=inf\n")
        assert code == 4
        assert not out.exists()

    def test_non_object_subset_is_an_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad_subset.json"
        bad.write_text('{"universe":[1],"subsets":[5]}')
        code = main(["cover", "--instance", str(bad)])
        assert "subset 0 is not an object" in capsys.readouterr().err
        assert code == 3

    @pytest.mark.parametrize("command, record, message", [
        # "false" is truthy: read by truthiness it would label the cell inside.
        *[("abstract", {"primitives": ["A"], "edges": [],
                        "products": [{"positives": ["A"], "inside": inside}]},
           f"product 0 inside must be true or false, got {inside!r}")
          for inside in ["false", "true", 0, 1, None]],
        *[("cover", {"universe": ["a"],
                     "subsets": [{"covers": ["a"], "literals": literals}]},
           f"subset 0 literals must be a non-negative integer, got {literals!r}")
          for literals in [2.7, 2.0, "3", True, -1, None]],
    ])
    def test_mistyped_scalar_is_an_input_error(self, command, record, message,
                                              tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(record))
        args = {"cover": ["cover", "--instance"],
                "abstract": ["compress", "--abstract"]}[command]
        code = main(args + [str(path)])
        assert message in capsys.readouterr().err
        assert code == 3

    def test_numeric_primitive_ids_compress(self, tmp_path, capsys):
        spheres = (sphere("5", (0.0, 0.0, 0.0), 1.0), sphere("7", (1.5, 0.0, 0.0), 1.0))
        cloud = tmp_path / "cloud.xyz"
        save_cloud(sample_surface(Union((Leaf("5"), Leaf("7"))), spheres, 2000, seed=0),
                   cloud)
        records = [primitive_to_dict(p) for p in spheres]
        for rec in records:
            rec["id"] = int(rec["id"])
        prims = tmp_path / "prims.json"
        prims.write_text(json.dumps(records))
        code = main(["compress", "--primitives", str(prims), "--cloud", str(cloud),
                     "--samples", "512", "--no-timestamp"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["leaf_count"] == 3  # 5 | (!5 & 7)

    def test_exit_code_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["cover", "--instance", str(bad)])
        capsys.readouterr()
        assert code == 3

    def test_exit_code_missing_file(self, capsys):
        code = main(["cover", "--instance", "/nonexistent/x.json"])
        capsys.readouterr()
        assert code == 3

    def test_conflicting_inputs_rejected(self, abstract_file, scene_files, capsys):
        prim_path, _ = scene_files
        code = main([
            "compress", "--abstract", str(abstract_file),
            "--primitives", str(prim_path),
        ])
        capsys.readouterr()
        assert code == 4
