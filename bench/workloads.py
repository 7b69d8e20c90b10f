"""The three benchmark workloads.

Each workload runs in one process as a closed loop with a single client:
an operation starts only when the previous one has returned.  A workload
knows how to make its inputs (untimed), do the program-side set-up (timed
as ``setup_s``), run one loop unit, and check the program's outputs.  See
README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import time
from pathlib import Path

import generate
from mathsim import cli, evaluation, mathml, metric, optimizer

# The package re-exports the search() function under the submodule's name.
search = importlib.import_module("mathsim.search")

ROOT = Path(__file__).resolve().parent.parent
ASSETS = ROOT / "assets"
# Hit-list length of search-synth, as in ``mathsim search`` without --n.
SEARCH_HITS = 10
SEARCH_REFERENCE_QUERIES = 3
EVALUATE_BATCH = 100
# SHA-256 of out/optimize_exponential.json as committed with the bundled
# inputs; a rerun of the CLI overwrites that file, so it is never read.
TUNE_REFERENCE_SHA256 = "f508ccee041c3f076e9102d6cab4bf064552ade3c60cc8fa564663e68f3c5c5e"


def corpus_properties(trees) -> dict:
    """Size, height and subtree sharing of a list of expression trees."""
    subtrees = [node for tree in trees for _, node in mathml.iter_subtrees(tree)]
    return {
        "corpus.docs": len(trees),
        "corpus.nodes": len(subtrees),
        "corpus.max_height": max(mathml.height(tree) for tree in trees),
        "corpus.shared_subtree_ratio": 1.0 - len(set(subtrees)) / len(subtrees),
    }


def _warm_table(table: evaluation.CriticalValueTable, sizes) -> None:
    # The fill the program would otherwise do inside the first timed call.
    for n in sorted(set(sizes)):
        if evaluation.MIN_TABLE_N <= n <= evaluation.MAX_TABLE_N:
            for statistic in ("rho", "tau"):
                for level in (95, 99):
                    table.critical_value(statistic, n, level)


class Workload:
    """Base class; ``recorder`` is set only in the traced run."""

    name = ""
    # What op_ms_* and batch_s are on this workload.
    op_name = "op_ms"
    batch_name = "batch_s"
    batch_units = 1  # loop units per batch, for batch_s

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.recorder = None
        self.failed_ops = 0

    def _timed(self, fn, *args):
        """Run one operation; return (result, seconds)."""
        if self.recorder is not None:
            self.recorder.op += 1
        start = time.perf_counter()
        result = fn(*args)
        return result, time.perf_counter() - start

    def prepare(self) -> None:
        """Write the generated inputs; not timed."""

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self) -> list[float]:
        """Run one loop unit and return the seconds of each operation in it."""
        raise NotImplementedError

    def probe(self) -> None:
        """One representative operation, used to measure the tracing overhead."""
        raise NotImplementedError

    def check(self) -> list[str]:
        """Descriptions of every failed output check."""
        raise NotImplementedError

    def properties(self) -> dict:
        raise NotImplementedError

    def trial_ratios(self) -> dict[str, float]:
        """Repeated parameter sets among the objective calls; none outside tuning."""
        return {"optimizer.repeat_ratio": 0.0, "optimizer.rerank_only_ratio": 0.0}


class TuneBundled(Workload):
    """The paper's loop: optimize_model to convergence on the bundled inputs.

    The seed is recorded but unused: the inputs are the bundled corpus,
    queries and ground truth, so that the run can be checked byte for byte
    against the committed out/optimize_exponential.json.
    """

    name = "tune-bundled"
    op_name = "objective_ms"
    batch_name = "tune_s"

    def setup(self) -> None:
        config = json.loads((ROOT / "config.json").read_text(encoding="utf-8"))
        self.params, symbols = metric.load_params(ASSETS / "params.json")
        self.space = optimizer.load_param_space(ASSETS / "space.json")
        self.corpus = search.load_corpus(ASSETS / "corpus", symbols)
        queries = search.load_queries(ASSETS / "queries")
        self.truths = evaluation.read_ground_truth_csv(ASSETS / "truth.csv")
        table = evaluation.CriticalValueTable(seed=config["seeds"]["mc_seed"])
        _warm_table(table, (len(t.ranked_ids) for t in self.truths))
        self.objective = optimizer.SearchObjective(
            self.corpus,
            queries,
            self.truths,
            optimizer.ObjectiveWeights.from_dict(config["weights"]),
            symbols.commutative,
            table,
        )
        self.runs = []
        self.trials: list[metric.MetricParams] = []

    def unit(self) -> list[float]:
        durations = []

        def timed_objective(params):
            self.trials.append(params)
            result, seconds = self._timed(self.objective, params)
            durations.append(seconds)
            return result

        self.runs.append(
            optimizer.optimize_model("exponential", self.space, self.params, timed_objective)
        )
        return durations

    def probe(self) -> None:
        self.objective(self.params)

    def check(self) -> list[str]:
        failures = []
        written = self.work / "optimize_exponential.json"
        for i, run in enumerate(self.runs):
            optimizer.write_run_json(run, written)
            if hashlib.sha256(written.read_bytes()).hexdigest() != TUNE_REFERENCE_SHA256:
                failures.append(f"tuning run {i} differs from the committed optimize_exponential.json")
        return failures

    def trial_ratios(self) -> dict[str, float]:
        """Share of objective calls that repeat an earlier parameter set exactly,
        and share that differ from an earlier one only in the class weights."""
        seen = set()
        seen_without_weights = set()
        repeats = rerank_only = 0
        for params in self.trials:
            values = params.to_dict()
            exact = tuple(sorted(values.items()))
            for name in ("w_eq", "w_ineq", "w_expr"):
                values.pop(name)
            without_weights = tuple(sorted(values.items()))
            if exact in seen:
                repeats += 1
            elif without_weights in seen_without_weights:
                rerank_only += 1
            seen.add(exact)
            seen_without_weights.add(without_weights)
        count = len(self.trials)
        return {
            "optimizer.repeat_ratio": repeats / count if count else 0.0,
            "optimizer.rerank_only_ratio": rerank_only / count if count else 0.0,
        }

    def properties(self) -> dict:
        props = corpus_properties([d.tree for d in self.corpus])
        props["truth.sizes"] = [len(t.ranked_ids) for t in self.truths]
        return props


class SearchSynth(Workload):
    """Interactive retrieval: search() over a generated 420-document corpus at one parameter set."""

    name = "search-synth"
    op_name = "query_ms"
    batch_name = "query_pass_s"

    def prepare(self) -> None:
        generate.write_search_inputs(self.seed, self.work / "inputs")

    def setup(self) -> None:
        self.params, self.symbols = metric.load_params(ASSETS / "params.json")
        self.corpus = search.load_corpus(self.work / "inputs" / "corpus", self.symbols)
        self.queries = search.load_queries(self.work / "inputs" / "queries")
        self.batch_units = len(self.queries)
        self.hits: dict[str, search.HitList] = {}
        self.next_query = 0

    def _search(self, query: search.Query) -> search.HitList:
        return search.search(
            query.tree, self.corpus, self.params, SEARCH_HITS,
            self.symbols.commutative, query_id=query.query_id,
        )

    def unit(self) -> list[float]:
        query = self.queries[self.next_query % len(self.queries)]
        self.next_query += 1
        hitlist, seconds = self._timed(self._search, query)
        if self.hits.setdefault(query.query_id, hitlist) != hitlist:
            self.failed_ops += 1
        return [seconds]

    def probe(self) -> None:
        self._search(self.queries[0])

    def check(self) -> list[str]:
        """Rank a seeded sample of queries again with the plain per-pair metric."""
        failures = []
        rng = random.Random(self.seed)
        searched = sorted(self.hits)
        by_id = {q.query_id: q for q in self.queries}
        for query_id in rng.sample(searched, min(SEARCH_REFERENCE_QUERIES, len(searched))):
            query = by_id[query_id]
            scored = [
                (d.doc_id, metric.score_document(
                    query.tree, d.tree, d.formula_class, self.params, self.symbols.commutative
                ))
                for d in self.corpus
            ]
            scored.sort(key=lambda pair: (-pair[1], pair[0]))
            reference = tuple(scored[:SEARCH_HITS])
            if self.hits[query_id].hits != reference:
                failures.append(f"hit list of {query_id} differs from the per-pair reference")
        return failures

    def properties(self) -> dict:
        props = corpus_properties([d.tree for d in self.corpus])
        props["queries"] = len(self.queries)
        props["queries.nodes"] = sum(mathml.node_count(q.tree) for q in self.queries)
        return props


class EvaluateSynth(Workload):
    """``mathsim evaluate --hitlists`` in-process on a generated hit-list CSV and truth."""

    name = "evaluate-synth"
    op_name = "evaluate_ms"
    batch_name = "evaluate_batch_s"
    batch_units = EVALUATE_BATCH

    def prepare(self) -> None:
        inputs = self.work / "inputs"
        generate.write_evaluate_inputs(self.seed, inputs)
        self.out = self.work / "out"
        self.truth_file = inputs / "truth.csv"
        self.hitlists_file = inputs / "hitlists.csv"
        self.config_file = self.work / "config.json"
        config = {
            "corpus_dir": str(ASSETS / "corpus"),
            "queries_dir": str(ASSETS / "queries"),
            "truth_file": str(self.truth_file),
            "params_file": str(ASSETS / "params.json"),
            "space_file": str(ASSETS / "space.json"),
            "output_dir": str(self.out),
        }
        self.config_file.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        self.argv = ["evaluate", "--config", str(self.config_file), "--hitlists", str(self.hitlists_file)]
        self.reports: set[bytes] = set()

    def setup(self) -> None:
        # Cold: the timed calls then find this cache file on disk.
        cache = self.out / "critical_values.json"
        cache.unlink(missing_ok=True)
        self.truths = evaluation.read_ground_truth_csv(self.truth_file)
        self.hitlists = search.read_hitlists_csv(self.hitlists_file)
        table = evaluation.CriticalValueTable(cache_path=cache)
        _warm_table(table, (len(t.ranked_ids) for t in self.truths))

    def _main(self) -> int:
        # The report the command prints is not needed; report.json is checked.
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def unit(self) -> list[float]:
        code, seconds = self._timed(self._main)
        if code != 0:
            self.failed_ops += 1
        else:
            self.reports.add((self.out / "report.json").read_bytes())
        return [seconds]

    def probe(self) -> None:
        self._main()

    def check(self) -> list[str]:
        """Compare the CLI's report.json with evaluate() on a fresh table."""
        report = evaluation.evaluate(
            self.hitlists, self.truths, evaluation.CriticalValueTable()
        )
        expected_file = self.work / "expected_report.json"
        evaluation.write_report_json(report, expected_file)
        expected = expected_file.read_bytes()
        return [
            "report.json differs from evaluate() on the same inputs"
            for got in self.reports
            if got != expected
        ]

    def properties(self) -> dict:
        return {
            "truth.sizes": [len(t.ranked_ids) for t in self.truths],
            "hitlists.rows": sum(len(h.hits) for h in self.hitlists),
        }


WORKLOADS = {w.name: w for w in (TuneBundled, SearchSynth, EvaluateSynth)}
