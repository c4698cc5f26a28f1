"""csgc: command-line front end for the compression pipeline.

Exit codes: 0 success, 2 infeasible or unsatisfiable instance, 3 input or
parse error, 4 parameter error.

Sample-count and penalty options left unset defer to the library's defaults.
"""

from __future__ import annotations

import datetime
import json
import sys
from dataclasses import asdict

import click

from .cover import load_cover_instance, solution_to_dict
from .errors import (
    CsgcError,
    FileFormatError,
    ParameterError,
    StructuralError,
    UnsatisfiableError,
    check_seed,
    read_json,
)
from .geometry import (
    CloudOracle,
    TreeOracle,
    load_cloud,
    load_primitives,
    tree_from_dict,
    tree_to_dict,
)
from .graph import DEFAULT_GRAPH_SAMPLES, load_graph
from .pipeline import (
    CLIQUE_METHODS,
    COVER_SOLVERS,
    DEFAULT_AGREEMENT_POINTS,
    PipelineConfig,
    compress as run_compress,
    compress_abstract,
    cover_warnings,
    find_cliques,
    oracle_agreement,
    product_table,
    report_stats,
    solve_cover,
)
from .products import DEFAULT_PRODUCT_SAMPLES, load_abstract_instance, table_to_dict
from .qubo import (
    AnnealSchedule,
    build_cover_qubo,
    build_max_clique_qubo,
    export_qubo,
    import_qubo,
    solve_exact,
    solve_sa,
)

EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_PARAMETER = 4

_in_file = click.Path(exists=True, dir_okay=False)

_samples_option = click.option(
    "--samples", type=int, default=None,
    help="Interior points per primitive for both graph and product sampling "
         f"[default: {DEFAULT_GRAPH_SAMPLES} for the graph, "
         f"{DEFAULT_PRODUCT_SAMPLES} for the products].")
# Every --seed is refused below 0, also where the command does not use it.
_seed_option = click.option(
    "--seed", type=int, default=0, show_default=True,
    callback=lambda _ctx, _param, value: check_seed(value))
_COVER_A_HELP = "Cover constraint penalty [default: n*B + 1, n = universe size]."
_COVER_B_HELP = "Cover cost per selected subset [default: 1]."


def _sample_counts(samples: int | None) -> dict:
    """PipelineConfig fields set by --samples (unset: the config's defaults)."""
    return {} if samples is None else {"graph_samples": samples,
                                       "product_samples": samples}


def _parse_schedule(_ctx, _param, text: str | None) -> AnnealSchedule | None:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise ParameterError("--schedule expects t_start,t_end,sweeps,restarts")
    try:
        return AnnealSchedule(
            float(parts[0]), float(parts[1]), int(parts[2]), int(parts[3])
        )
    except ValueError as exc:
        raise ParameterError(f"bad --schedule value: {exc}") from exc


# Every --schedule is parsed with the options, also where it goes unused.
_schedule_option = click.option(
    "--schedule", type=str, default=None, callback=_parse_schedule,
    help="SA schedule t_start,t_end,sweeps,restarts.")
_out_option = click.option(
    "--out", type=click.Path(dir_okay=False), default=None,
    help="Write the output here instead of stdout.")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_oracle(primitives, cloud_path, tree_path):
    if (cloud_path is None) == (tree_path is None):
        raise ParameterError("provide exactly one of --cloud or --tree")
    if cloud_path is not None:
        return CloudOracle(load_cloud(cloud_path))
    return TreeOracle(tree_from_dict(read_json(tree_path)), primitives)


@click.group()
@click.version_option(package_name="csgcompress", prog_name="csgc")
def cli():
    """Lossy point-cloud-to-CSG compression via smallest exact cover."""


@cli.command(name="compress")
@click.option("--primitives", "primitives_path", type=_in_file,
              help="Primitive set JSON.")
@click.option("--cloud", "cloud_path", type=_in_file,
              help="Oriented point cloud describing the target solid.")
@click.option("--tree", "tree_path", type=_in_file,
              help="Ground-truth CSG tree JSON describing the target solid.")
@click.option("--abstract", "abstract_path", type=_in_file,
              help="Abstract instance JSON (bypasses geometry).")
@click.option("--mode", type=click.Choice(["partitioned", "global"]),
              default=PipelineConfig.mode, show_default=True)
@click.option("--solver", type=click.Choice(list(COVER_SOLVERS)),
              default=PipelineConfig.cover_solver, show_default=True)
@click.option("--clique-method", type=click.Choice(list(CLIQUE_METHODS)),
              default=PipelineConfig.clique_method, show_default=True)
@_samples_option
@_seed_option
@click.option("--penalty-a", type=float, default=None, help=_COVER_A_HELP)
@click.option("--penalty-b", type=float, default=None, help=_COVER_B_HELP)
@_schedule_option
@_out_option
@click.option("--tree-out", type=click.Path(dir_okay=False), default=None,
              help="Also write the output tree JSON here.")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
@click.option("--no-timestamp", is_flag=True,
              help="Omit the timestamp for byte-identical reports.")
def compress_cmd(primitives_path, cloud_path, tree_path, abstract_path, mode,
                 solver, clique_method, samples, seed, penalty_a, penalty_b,
                 schedule, out, tree_out, fmt, no_timestamp):
    """Compress a target solid into a small CSG tree."""
    cfg = PipelineConfig(
        mode=mode,
        cover_solver=solver,
        clique_method=clique_method,
        seed=seed,
        penalty_a=penalty_a,
        penalty_b=penalty_b,
        schedule=schedule,
        **_sample_counts(samples),
    )
    if abstract_path is not None:
        if primitives_path or cloud_path or tree_path:
            raise ParameterError("--abstract excludes the geometric inputs")
        graph, table = load_abstract_instance(abstract_path)
        report = compress_abstract(graph, table, cfg)
    else:
        if primitives_path is None:
            raise ParameterError("--primitives is required (or use --abstract)")
        prims = load_primitives(primitives_path)
        oracle = _load_oracle(prims, cloud_path, tree_path)
        report = run_compress(prims, oracle, cfg)
    stamp = None if no_timestamp else _now()
    _emit(report_stats(report, fmt=fmt, timestamp=stamp), out)
    if tree_out is not None:
        with open(tree_out, "w", encoding="utf-8") as fh:
            json.dump(tree_to_dict(report.tree), fh, indent=2)
            fh.write("\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@cli.command(name="cliques")
@click.option("--graph", "graph_path", type=_in_file, required=True,
              help="Graph JSON with vertices and edges.")
@click.option("--method", type=click.Choice(list(CLIQUE_METHODS)),
              default=PipelineConfig.clique_method, show_default=True)
@_seed_option
@click.option("--penalty-a", type=float, default=None,
              help="Reward per clique vertex [default: 1].")
@click.option("--penalty-b", type=float, default=None,
              help="Penalty per non-edge, above A [default: 2].")
@_schedule_option
@_out_option
def cliques_cmd(graph_path, method, seed, penalty_a, penalty_b, schedule, out):
    """Enumerate maximal cliques (bk) or peel SA-found cliques (experimental)."""
    cliques = find_cliques(
        load_graph(graph_path), method, penalty_a=penalty_a, penalty_b=penalty_b,
        schedule=schedule, seed=seed,
    )
    payload = {"method": method, "cliques": [sorted(c) for c in cliques]}
    _emit(json.dumps(payload, indent=2) + "\n", out)


@cli.command(name="products")
@click.option("--primitives", "primitives_path", type=_in_file, required=True)
@click.option("--cloud", "cloud_path", type=_in_file, default=None)
@click.option("--tree", "tree_path", type=_in_file, default=None)
@_samples_option
@_seed_option
@_out_option
def products_cmd(primitives_path, cloud_path, tree_path, samples, seed, out):
    """Enumerate and classify the non-empty fundamental products.

    This is the table `compress` classifies for the same --seed and --samples.
    """
    prims = load_primitives(primitives_path)
    oracle = _load_oracle(prims, cloud_path, tree_path)
    cfg = PipelineConfig(seed=seed, **_sample_counts(samples))
    graph, table = product_table(prims, oracle, cfg)
    _emit(json.dumps(table_to_dict(table, graph), indent=2) + "\n", out)


@cli.command(name="cover")
@click.option("--instance", "instance_path", type=_in_file, required=True,
              help="Cover instance JSON.")
@click.option("--solver", type=click.Choice(list(COVER_SOLVERS)),
              default=PipelineConfig.cover_solver, show_default=True)
@click.option("--penalty-a", type=float, default=None, help=_COVER_A_HELP)
@click.option("--penalty-b", type=float, default=None, help=_COVER_B_HELP)
@_schedule_option
@_seed_option
@_out_option
def cover_cmd(instance_path, solver, penalty_a, penalty_b, schedule, seed, out):
    """Solve a smallest-exact-cover instance.

    A qubo_sa cover that may not be the smallest is flagged on stderr with
    the warning a compress report carries.
    """
    instance = load_cover_instance(instance_path)
    solution, meta = solve_cover(
        instance, solver, penalty_a=penalty_a, penalty_b=penalty_b,
        schedule=schedule, seed=seed,
    )
    payload = {**solution_to_dict(solution, instance), "solver": meta}
    _emit(json.dumps(payload, indent=2) + "\n", out)
    for warning in cover_warnings(instance, solution, solver):
        click.echo(f"warning: {warning}", err=True)


@cli.group(name="qubo")
def qubo_group():
    """Work with QUBO model files (qbsolv-compatible text format)."""


@qubo_group.command(name="solve")
@click.option("--model", "model_path", type=_in_file, required=True)
@click.option("--solver", type=click.Choice(["exact", "sa"]), default="sa",
              show_default=True)
@_schedule_option
@_seed_option
@_out_option
def qubo_solve_cmd(model_path, solver, schedule, seed, out):
    """Minimise a QUBO model file."""
    q = import_qubo(model_path)
    if solver == "exact":
        result = solve_exact(q)
    else:
        result = solve_sa(q, schedule, seed=seed)
    _emit(json.dumps(asdict(result), indent=2) + "\n", out)


@qubo_group.command(name="export")
@click.option("--instance", "instance_path", type=_in_file, default=None,
              help="Cover instance JSON -> smallest-exact-cover QUBO.")
@click.option("--graph", "graph_path", type=_in_file, default=None,
              help="Graph JSON -> maximum-clique QUBO.")
@click.option("--penalty-a", type=float, default=None,
              help="Weight A [default: n*B + 1 for a cover (n = universe "
                   "size), 1 for a graph].")
@click.option("--penalty-b", type=float, default=None,
              help="Weight B [default: 1 for a cover, 2 for a graph].")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def qubo_export_cmd(instance_path, graph_path, penalty_a, penalty_b, out):
    """Export a problem as an annealer-ready QUBO file."""
    if (instance_path is None) == (graph_path is None):
        raise ParameterError("provide exactly one of --instance or --graph")
    if instance_path is not None:
        q, names = build_cover_qubo(
            load_cover_instance(instance_path), A=penalty_a, B=penalty_b
        )
    else:
        q, names = build_max_clique_qubo(
            load_graph(graph_path), A=penalty_a, B=penalty_b
        )
    export_qubo(q, out, names=names)


@cli.command(name="eval")
@click.option("--tree", "tree_path", type=_in_file, required=True,
              help="CSG tree JSON to evaluate.")
@click.option("--primitives", "primitives_path", type=_in_file, required=True)
@click.option("--cloud", "cloud_path", type=_in_file, required=True,
              help="Oriented point cloud serving as the reference oracle.")
@click.option("--samples", type=int, default=DEFAULT_AGREEMENT_POINTS,
              show_default=True, help="Number of off-surface query points.")
@_seed_option
@_out_option
def eval_cmd(tree_path, primitives_path, cloud_path, samples, seed, out):
    """Agreement between a tree and a point-cloud oracle."""
    prims = load_primitives(primitives_path)
    tree = tree_from_dict(read_json(tree_path))
    oracle = CloudOracle(load_cloud(cloud_path))
    agreement, used = oracle_agreement(
        tree, prims, oracle, n_points=samples, seed=seed
    )
    payload = {"agreement": agreement, "points_used": used}
    _emit(json.dumps(payload, indent=2) + "\n", out)


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.ClickException as exc:
        exc.show()
        return EXIT_INPUT
    except click.Abort:
        return 1
    except UnsatisfiableError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INFEASIBLE
    except ParameterError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_PARAMETER
    except (FileFormatError, StructuralError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INPUT
    except CsgcError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
