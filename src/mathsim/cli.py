"""Command-line entry point.

Subcommands: ``parse`` (debug a single file), ``search``, ``evaluate``,
``optimize`` and ``xval``.  All but ``parse`` are driven by a JSON config
file whose relative paths resolve against the config file's directory.
Exit codes: 0 success, 1 usage or configuration error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from . import evaluation, mathml, metric, optimizer
from .search import (
    CorpusLoadError,
    batch_search,
    load_corpus,
    load_queries,
    read_hitlists_csv,
    search,
    write_hitlists_csv,
    write_hitlists_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2


class ConfigError(Exception):
    """Configuration is missing, malformed, or points at absent paths."""


@dataclass(frozen=True)
class RunConfig:
    corpus_dir: Path
    queries_dir: Path
    truth_file: Path
    params_file: Path
    space_file: Path
    weights: optimizer.ObjectiveWeights
    split_seed: int
    mc_seed: int
    output_dir: Path


def load_config(path: str | Path) -> RunConfig:
    config_path = Path(path)
    try:
        data = json.loads(config_path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
    base = config_path.parent
    try:
        paths = {
            key: base / data[key]
            for key in ("corpus_dir", "queries_dir", "truth_file", "params_file", "space_file")
        }
        weights = optimizer.ObjectiveWeights.from_dict(data.get("weights", {}))
        seeds = data.get("seeds", {})
        config = RunConfig(
            corpus_dir=paths["corpus_dir"],
            queries_dir=paths["queries_dir"],
            truth_file=paths["truth_file"],
            params_file=paths["params_file"],
            space_file=paths["space_file"],
            weights=weights,
            split_seed=int(seeds.get("split_seed", 1)),
            mc_seed=int(seeds.get("mc_seed", evaluation.DEFAULT_MC_SEED)),
            output_dir=base / data.get("output_dir", "out"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config {config_path} is incomplete or invalid: {exc}") from exc
    for key, p in paths.items():
        if not p.exists():
            raise ConfigError(f"configured {key} does not exist: {p}")
    config.output_dir.mkdir(parents=True, exist_ok=True)
    return config


def _load_params(config: RunConfig) -> tuple[metric.MetricParams, metric.SymbolConfig]:
    try:
        return metric.load_params(config.params_file)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"bad params file {config.params_file}: {exc}") from exc


def _load_space(config: RunConfig) -> optimizer.ParamSpace:
    try:
        return optimizer.load_param_space(config.space_file)
    except (KeyError, ValueError, OSError) as exc:
        raise ConfigError(f"bad parameter-space file {config.space_file}: {exc}") from exc


def _table(config: RunConfig) -> evaluation.CriticalValueTable:
    return evaluation.CriticalValueTable(
        seed=config.mc_seed, cache_path=config.output_dir / "critical_values.json"
    )


def _format_tree(tree: mathml.ExprTree, indent: int = 0) -> list[str]:
    pad = "  " * indent
    if isinstance(tree, mathml.Constant):
        suffix = f" type={tree.num_type}" if tree.num_type else ""
        return [f"{pad}cn {tree.value}{suffix}"]
    if isinstance(tree, mathml.Variable):
        return [f"{pad}ci {tree.name}"]
    if isinstance(tree, mathml.FunctionSymbol):
        return [f"{pad}csymbol {tree.cd}:{tree.name}"]
    lines = [f"{pad}apply"]
    for child in (tree.head,) + tree.args:
        lines.extend(_format_tree(child, indent + 1))
    return lines


def cmd_parse(args: argparse.Namespace) -> int:
    path = Path(args.file)
    try:
        tree = mathml.parse_expression(path.read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (mathml.MathMLParseError, UnicodeDecodeError) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_DATA
    print("\n".join(_format_tree(tree)))
    print(f"height: {mathml.height(tree)}")
    print(f"class: {mathml.classify(tree).value}")
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    params, symbols = _load_params(config)
    corpus = load_corpus(config.corpus_dir, symbols)
    query_path = Path(args.query)
    try:
        query_tree = mathml.parse_expression(query_path.read_text(encoding="utf-8"))
    except (OSError, mathml.MathMLParseError, UnicodeDecodeError) as exc:
        print(f"error: query {query_path}: {exc}", file=sys.stderr)
        return EXIT_DATA
    hitlist = search(
        query_tree, corpus, params, args.n, symbols.commutative, query_id=query_path.stem
    )
    csv_path = config.output_dir / f"hits_{query_path.stem}.csv"
    json_path = config.output_dir / f"hits_{query_path.stem}.json"
    write_hitlists_csv([hitlist], csv_path)
    write_hitlists_json([hitlist], json_path)
    for rank, (doc_id, score) in enumerate(hitlist.hits, start=1):
        print(f"{rank}\t{doc_id}\t{score:.6f}")
    print(f"wrote {csv_path} and {json_path}", file=sys.stderr)
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    truths = evaluation.read_ground_truth_csv(config.truth_file)
    if args.hitlists is not None:
        hitlists = read_hitlists_csv(args.hitlists)
        evaluation.truth_sizes((h.query_id for h in hitlists), truths)
    else:
        params, symbols = _load_params(config)
        corpus = load_corpus(config.corpus_dir, symbols)
        queries = load_queries(config.queries_dir)
        sizes = evaluation.truth_sizes((q.query_id for q in queries), truths)
        hitlists = batch_search(queries, corpus, params, sizes, symbols.commutative)
        write_hitlists_csv(hitlists, config.output_dir / "hitlists.csv")
    report = evaluation.evaluate(hitlists, truths, _table(config))
    evaluation.write_report_csv(report, config.output_dir / "report.csv")
    evaluation.write_report_json(report, config.output_dir / "report.json")
    print(evaluation.report_to_csv_text(report), end="")
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    params, symbols = _load_params(config)
    space = _load_space(config)
    corpus = load_corpus(config.corpus_dir, symbols)
    queries = load_queries(config.queries_dir)
    truths = evaluation.read_ground_truth_csv(config.truth_file)
    objective_fn = optimizer.SearchObjective(
        corpus, queries, truths, config.weights, symbols.commutative, _table(config)
    )
    # One worker per decay model, no more than there are cores.
    workers = min(os.cpu_count() or 1, len(metric.DECAY_KINDS))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        result = optimizer.optimize_all(space, params, objective_fn, pool=pool)
    summary = {
        "best_model": result.best_model,
        "best_params": result.best_params.to_dict(),
        "models": {
            kind: {
                "objective": run.final_objective,
                "generations": len(run.generations) - 1,
                "converged": run.converged,
            }
            for kind, run in result.runs.items()
        },
    }
    for kind, run in result.runs.items():
        optimizer.write_run_json(run, config.output_dir / f"optimize_{kind}.json")
        if not run.converged:
            print(f"warning: model {kind} hit the generation cap", file=sys.stderr)
    (config.output_dir / "optimize_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    metric.save_params(result.best_params, config.output_dir / "best_params.json")
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_xval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    params, symbols = _load_params(config)
    space = _load_space(config)
    corpus = load_corpus(config.corpus_dir, symbols)
    queries = load_queries(config.queries_dir)
    truths = evaluation.read_ground_truth_csv(config.truth_file)
    split_seed = args.seed if args.seed is not None else config.split_seed
    report = optimizer.cross_validate(
        corpus, queries, truths, space, config.weights, split_seed,
        seed_params=params, commutative=symbols.commutative, table=_table(config),
    )
    optimizer.write_xval_csv(report, config.output_dir / "xval.csv")
    optimizer.write_xval_json(report, config.output_dir / "xval.json")
    print(optimizer.xval_to_csv_text(report), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _hit_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mathsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse one MathML file and print its tree")
    p_parse.add_argument("file")
    p_parse.set_defaults(handler=cmd_parse)

    p_search = sub.add_parser("search", help="rank the corpus against one query")
    p_search.add_argument("--config", required=True)
    p_search.add_argument("--query", required=True)
    p_search.add_argument("--n", type=_hit_count, default=10)
    p_search.set_defaults(handler=cmd_search)

    p_eval = sub.add_parser("evaluate", help="score hit lists against the ground truth")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--hitlists", default=None,
                        help="evaluate this external hit-list CSV instead of searching")
    p_eval.set_defaults(handler=cmd_evaluate)

    p_opt = sub.add_parser("optimize", help="tune parameters for every decay model")
    p_opt.add_argument("--config", required=True)
    p_opt.set_defaults(handler=cmd_optimize)

    p_xval = sub.add_parser("xval", help="cross-validated optimization report")
    p_xval.add_argument("--config", required=True)
    p_xval.add_argument("--seed", type=int, default=None, help="override the split seed")
    p_xval.set_defaults(handler=cmd_xval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_CONFIG
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (CorpusLoadError, mathml.MathMLParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
