"""Command-line entry point.

Subcommands: ``parse`` (debug a single file), ``search``, ``evaluate``,
``optimize`` and ``xval``.  All but ``parse`` are driven by a JSON config
file whose relative paths resolve against the config file's directory.
Exit codes: 0 success; 1 a usage error, or a bad config file or params or
space file it names; 2 any other input that cannot be read or parsed.
Commands raise and never catch: :func:`main` alone maps errors to codes.
Each output file is written whole or not at all (:func:`metric.write_output`).
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
from typing import Callable

from . import evaluation, mathml, metric, optimizer
from .search import (
    CorpusLoadError,
    load_corpus,
    load_queries,
    read_expression,
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


def _one_line(exc: Exception) -> str:
    """The message, with every character that would break the line escaped as ``repr`` does."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(exc))


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


def _seed(config_path: Path, seeds: dict, key: str, default: int) -> int:
    # int() would turn 1.5, true or "17" into a seed without a word, and a
    # negative mc_seed would fail only when numpy fills the first table.
    value = seeds.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ConfigError(
            f"config {config_path}: seeds.{key} must be a non-negative integer, got {value!r}"
        )
    return value


def load_config(path: str | Path) -> RunConfig:
    config_path = Path(path)
    try:
        data = metric.read_json(config_path)
    except (OSError, UnicodeDecodeError) as exc:
        # An OSError's text repeats the file name; its strerror does not.
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config {config_path}: {reason}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {config_path} is not valid JSON: {exc}") from exc
    base = config_path.parent
    try:
        paths = {
            key: base / data[key]
            for key in ("corpus_dir", "queries_dir", "truth_file", "params_file", "space_file")
        }
        weights = optimizer.ObjectiveWeights.from_dict(data.get("weights", {}))
        seeds = data.get("seeds", {})
        if not isinstance(seeds, dict):
            raise ConfigError(f"config {config_path}: seeds must be an object, got {seeds!r}")
        config = RunConfig(
            **paths,
            weights=weights,
            split_seed=_seed(config_path, seeds, "split_seed", 1),
            mc_seed=_seed(config_path, seeds, "mc_seed", evaluation.DEFAULT_MC_SEED),
            output_dir=base / data.get("output_dir", "out"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"config {config_path} is incomplete or invalid: {exc}") from exc
    for key, p in paths.items():
        if not p.exists():
            raise ConfigError(f"configured {key} does not exist: {p}")
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(
            f"configured output_dir cannot be created: {config.output_dir}: {exc.strerror}"
        ) from exc
    return config


def _read_configured(load: Callable, path: Path, what: str):
    """``load(path)`` for a file the config names; its errors are config errors."""
    try:
        return load(path)
    except (ValueError, OSError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"bad {what} file {path}: {reason}") from exc


def _table(config: RunConfig) -> evaluation.CriticalValueTable:
    return evaluation.CriticalValueTable(
        seed=config.mc_seed, cache_path=config.output_dir / "critical_values.json"
    )


def _objective(config: RunConfig) -> tuple[metric.MetricParams, optimizer.SearchObjective]:
    """The configured parameters, and the objective that searches and evaluates the query set."""
    params, symbols = _read_configured(metric.load_params, config.params_file, "params")
    corpus = load_corpus(config.corpus_dir, symbols)
    queries = load_queries(config.queries_dir)
    truths = evaluation.read_ground_truth_csv(config.truth_file)
    return params, optimizer.SearchObjective(
        corpus, queries, truths, config.weights, symbols.commutative, _table(config)
    )


def _tuning_pool() -> ProcessPoolExecutor | nullcontext:
    """The pool the decay models tune in: one worker per model, no more than there are cores."""
    workers = min(os.cpu_count() or 1, len(metric.DECAY_KINDS))
    return ProcessPoolExecutor(workers) if workers > 1 else nullcontext()


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
    tree = read_expression(args.file)
    print("\n".join(_format_tree(tree)))
    print(f"height: {mathml.height(tree)}")
    print(f"class: {mathml.classify(tree).value}")
    return EXIT_OK


def cmd_search(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    params, symbols = _read_configured(metric.load_params, config.params_file, "params")
    corpus = load_corpus(config.corpus_dir, symbols)
    query_path = Path(args.query)
    query_tree = read_expression(query_path)
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
    if args.hitlists is not None:
        truths = evaluation.read_ground_truth_csv(config.truth_file)
        hitlists, table = read_hitlists_csv(args.hitlists), _table(config)
    else:
        params, objective_fn = _objective(config)
        truths, table = objective_fn.truths, objective_fn.table
        hitlists = objective_fn.search(params)
        write_hitlists_csv(hitlists, config.output_dir / "hitlists.csv")
    report = evaluation.evaluate(hitlists, truths, table)
    text = evaluation.report_to_csv_text(report)
    metric.write_output(config.output_dir / "report.csv", text)
    evaluation.write_report_json(report, config.output_dir / "report.json")
    print(text, end="")
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    params, objective_fn = _objective(config)
    space = _read_configured(optimizer.load_param_space, config.space_file, "parameter-space")
    with _tuning_pool() as pool:
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
    metric.write_json(config.output_dir / "optimize_summary.json", summary)
    metric.save_params(result.best_params, config.output_dir / "best_params.json")
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_xval(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    params, objective_fn = _objective(config)
    space = _read_configured(optimizer.load_param_space, config.space_file, "parameter-space")
    split_seed = args.seed if args.seed is not None else config.split_seed
    with _tuning_pool() as pool:
        report = optimizer.cross_validate(objective_fn, space, split_seed, params, pool=pool)
    text = optimizer.xval_to_csv_text(report)
    metric.write_output(config.output_dir / "xval.csv", text)
    optimizer.write_xval_json(report, config.output_dir / "xval.json")
    print(text, end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _integer_from(minimum: int) -> Callable[[str], int]:
    """An argparse type: an integer of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            n = minimum - 1
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
        return n

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mathsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_parse = sub.add_parser("parse", help="parse one MathML file and print its tree")
    p_parse.add_argument("file")
    p_parse.set_defaults(handler=cmd_parse)

    p_search = sub.add_parser("search", help="rank the corpus against one query")
    p_search.add_argument("--config", required=True)
    p_search.add_argument("--query", required=True)
    p_search.add_argument("--n", type=_integer_from(1), default=10)
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
    # random.Random(-3) seeds like Random(3); seeds.split_seed is non-negative too.
    p_xval.add_argument("--seed", type=_integer_from(0), default=None,
                        help="override the split seed")
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
    # Keys, names and ids from the files arrive as written: escape what would
    # break the line.  A failed corpus load lists its files a line each.
    except ConfigError as exc:
        print(f"config error: {_one_line(exc)}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OSError) as exc:
        print(f"error: {exc if isinstance(exc, CorpusLoadError) else _one_line(exc)}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
