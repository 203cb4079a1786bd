"""Command-line interface.

One subcommand per pipeline surface; results print as a single JSON document
unless --format csv selects the tabular artifact (closure matrix, assignment,
eval breakdown). Exit codes: 0 success, 2 validation error, 3 resource-guard
violation.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import click

from .bicriteria import bicriteria_klmedian
from .closure import build_closure
from .curves import (
    ParseError,
    PipelineConfig,
    ResourceGuardError,
    ValidationError,
    curve_record,
    gen_synthetic,
    load_curves,
    save_curves,
    save_weighted,
)
from .dtw import adtw, dtw, dtw_self_matrix
from .pipeline import cluster_via_closure, emit_coreset_only, evaluate, kl_median
from .simplify import simplify_set


# each command takes --output; only those that read them take --seed and --format
output_option = click.option("--output", type=click.Path(dir_okay=False), default=None)
seed_option = click.option("--seed", type=int, default=0, show_default=True)
format_option = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv"]), default="json"
)
# the PipelineConfig fields that coreset and cluster both take; each option
# is named after its field, so PipelineConfig(**options) builds the config
_PIPELINE_OPTIONS = (
    click.option("--k", type=int, required=True),
    click.option("--ell", type=int, required=True),
    click.option("--p", type=float, default=1.0, show_default=True),
    click.option("--eps", type=float, default=0.5, show_default=True),
    click.option("--delta", type=float, default=0.1, show_default=True),
    click.option(
        "--size", "size_override", type=int, default=None,
        help="override the sample-size formula",
    ),
    click.option("--constant", "sample_constant", type=float, default=0.05, show_default=True),
)


def pipeline_options(command):
    for option in reversed(_PIPELINE_OPTIONS):
        command = option(command)
    return command


def _emit(text, output=None):
    """Write text to the output file, or the same bytes to stdout."""
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        click.echo(text, nl=False)


def _json(doc):
    return json.dumps(doc, indent=2) + "\n"


def _table(header, rows):
    """CSV text with LF line ends; cells are quoted where needed, and a float
    cell is written as its repr."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _load(path):
    return load_curves(path, "csv-long" if str(path).endswith(".csv") else "jsonl")


def _first_curve(path):
    curves = _load(path)
    if not curves:
        raise ValidationError(f"{path} holds no curves")
    return curves[0]


@click.group()
def main():
    """Clustering of point sequences under the p-dynamic-time-warping distance."""


@main.command("dtw")
@click.option("--p", type=float, default=1.0, show_default=True)
@click.option("--eps", type=float, default=None, help="also report the quantized distance")
@click.argument("file_a", type=click.Path(exists=True))
@click.argument("file_b", type=click.Path(exists=True))
@output_option
def dtw_cmd(p, eps, file_a, file_b, output):
    """Exact distance between the first curves of two files, plus the
    quantized approximation when --eps is set."""
    a = _first_curve(file_a)
    b = _first_curve(file_b)
    result = dtw(a, b, p)
    doc = {
        "p": p,
        "id_a": a.id,
        "id_b": b.id,
        "dtw": result.value,
        "traversal": [list(pair) for pair in result.traversal.pairs],
    }
    if eps is not None:
        q = adtw(a, b, p, eps)
        doc["adtw"] = {"eps": eps, "value": q.value, "exponent": q.exponent}
    _emit(_json(doc), output)


@main.command("simplify")
@click.option("--ell", type=int, required=True)
@click.option("--p", type=float, default=1.0, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["two-approx", "eps1", "vertex"]),
    default="two-approx",
    show_default=True,
)
@click.argument("file", type=click.Path(exists=True))
@output_option
def simplify_cmd(ell, p, method, file, output):
    """Write simplified curves as jsonl."""
    curves = _load(file)
    simplified = simplify_set(curves, ell, p, method)
    _emit("".join(json.dumps(curve_record(c)) + "\n" for c in simplified), output)


@main.command("closure")
@click.option("--p", type=float, default=1.0, show_default=True)
@click.argument("file", type=click.Path(exists=True))
@output_option
@format_option
def closure_cmd(p, file, output, fmt):
    """Metric-closure distance matrix: a JSON document with the ids and the
    closure and base matrices, or with --format csv the closure as CSV with
    an id header row."""
    curves = _load(file)
    mc = build_closure(curves, p)
    if fmt == "json":
        base = dtw_self_matrix(curves, p)
        doc = {"ids": list(mc.ids), "dist": mc.dist.tolist(), "base": base.tolist()}
        _emit(_json(doc), output)
        return
    rows = [[cid, *map(float, mc.dist[i])] for i, cid in enumerate(mc.ids)]
    _emit(_table(["id", *mc.ids], rows), output)


@main.command("gen")
@click.option("--clusters", type=int, default=3, show_default=True)
@click.option("--per-cluster", type=int, default=20, show_default=True)
@click.option("--m", type=int, default=16, show_default=True)
@click.option("--d", type=int, default=2, show_default=True)
@click.option("--noise", type=float, default=0.5, show_default=True)
@output_option
@seed_option
def gen_cmd(clusters, per_cluster, m, d, noise, seed, output):
    """Generate a planted-cluster synthetic curve set (jsonl)."""
    cs = gen_synthetic(clusters, per_cluster, m, d, noise, seed)
    if output:
        save_curves(cs, output)
        _emit(_json({"written": output, "curves": len(cs)}))
    else:
        for c in cs:
            click.echo(json.dumps(curve_record(c)))


@main.command("bicriteria")
@click.option("--k", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--p", type=float, default=1.0, show_default=True)
@click.option("--eps", type=float, default=0.5, show_default=True)
@click.option("--repetitions", type=int, default=3, show_default=True)
@click.argument("file", type=click.Path(exists=True))
@output_option
@seed_option
def bicriteria_cmd(k, ell, p, eps, repetitions, file, seed, output):
    """Bicriteria (<=4k centers) clustering; emits centers jsonl and an
    assignment CSV next to --output, or one JSON document on stdout."""
    curves = _load(file)
    sol = bicriteria_klmedian(curves, k, ell, p, eps, seed, repetitions)
    if output:
        base = Path(output)
        centers_path = base.with_suffix(".centers.jsonl")
        assign_path = base.with_suffix(".assignment.csv")
        save_curves(sol.centers, centers_path)
        _emit(_assignment_table(curves, sol), assign_path)
        _emit(
            _json(
                {
                    "centers": str(centers_path),
                    "assignment": str(assign_path),
                    "k_hat": sol.k_hat,
                    "cost": sol.cost,
                }
            )
        )
    else:
        doc = {
            "k": k,
            "ell": ell,
            "p": p,
            "eps": eps,
            "k_hat": sol.k_hat,
            "cost": sol.cost,
            "centers": [curve_record(c) for c in sol.centers],
            "assignment": sol.assignment.tolist(),
        }
        _emit(_json(doc))


@main.command("coreset")
@pipeline_options
@click.argument("file", type=click.Path(exists=True))
@output_option
@seed_option
def coreset_cmd(file, output, **options):
    """Sensitivity-sampled weighted coreset (jsonl) plus its size report."""
    wset, report, profile = emit_coreset_only(_load(file), PipelineConfig(**options))
    out_path = output or (Path(file).stem + ".coreset.jsonl")
    save_weighted(wset, out_path)
    doc = {
        "coreset": str(out_path),
        "entries": len(wset),
        "report": report.to_dict(),
        "total_sensitivity_bound": profile.total_bound(),
        "gamma_sum": float(profile.gamma.sum()),
    }
    _emit(_json(doc))


def _assignment_table(curves, result):
    rows = zip(curves.ids, map(int, result.assignment), map(float, result.distances))
    return _table(["curve_id", "center_index", "distance"], rows)


def _cluster_output(result, fmt, output, input_curves):
    if fmt == "csv":
        _emit(_assignment_table(input_curves, result), output)
    else:
        _emit(_json(result.to_dict()), output)


@main.command("cluster")
@pipeline_options
@click.option("--repetitions", type=int, default=3, show_default=True)
@click.argument("file", type=click.Path(exists=True))
@output_option
@seed_option
@format_option
def cluster_cmd(file, output, fmt, **options):
    """Full (k,l)-median pipeline."""
    curves = _load(file)
    _cluster_output(kl_median(curves, PipelineConfig(**options)), fmt, output, curves)


@main.command("cluster-exact-route")
@click.option("--k", type=int, required=True)
@click.option("--ell", type=int, required=True)
@click.option("--p", type=float, default=1.0, show_default=True)
@click.option("--eps", type=float, default=0.5, show_default=True)
@click.option(
    "--method",
    type=click.Choice(["two-approx", "eps1"]),
    default="two-approx",
    show_default=True,
)
@click.argument("file", type=click.Path(exists=True))
@output_option
@seed_option
@format_option
def cluster_exact_route_cmd(k, ell, p, eps, method, file, seed, output, fmt):
    """Simplify everything, build the full closure, cluster it."""
    curves = _load(file)
    result = cluster_via_closure(curves, k, ell, p, eps, method, seed)
    _cluster_output(result, fmt, output, curves)


@main.command("eval")
@click.option("--p", type=float, default=1.0, show_default=True)
@click.option("--centers", "centers_file", type=click.Path(exists=True), required=True)
@click.argument("file", type=click.Path(exists=True))
@output_option
@format_option
def eval_cmd(p, centers_file, file, output, fmt):
    """Cost and per-center breakdown of a center file against a curve file."""
    curves = _load(file)
    centers = _load(centers_file)
    report = evaluate(curves, centers, p)
    if fmt == "csv":
        header = ["center_index", "center_id", "count", "cost"]
        _emit(_table(header, ([row[h] for h in header] for row in report["per_center"])), output)
    else:
        doc = {
            "cost": report["cost"],
            "assignment": report["assignment"].tolist(),
            "per_center": report["per_center"],
        }
        _emit(_json(doc), output)


def run():
    try:
        main(standalone_mode=False)
    except (ValidationError, ParseError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except ResourceGuardError as exc:
        click.echo(f"resource guard: {exc}", err=True)
        sys.exit(3)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(1)


if __name__ == "__main__":
    run()
