"""Generational coordinate-descent tuning of the metric parameters.

Each generation sweeps every tunable once over a grid of trial values,
committing the best value before moving to the next parameter.  A model's
evolution stops when a generation fails to improve on the previous one (or
a hard cap is reached); the process repeats for all four decay shapes and
the best-scoring shape wins.  A seeded split supports cross-validated
optimisation with a held-out test half.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import astuple, dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Mapping, Sequence

from .evaluation import (
    AverageRow,
    CriticalValueTable,
    EvalReport,
    GroundTruth,
    csv_text,
    evaluate,
    truth_sizes,
)
from .metric import DECAY_KINDS, DEFAULT_PARAMS, MetricParams, validate_field
from .search import Corpus, DocumentRecord, Query, batch_search

ObjectiveFn = Callable[[MetricParams], tuple[float, AverageRow]]

GENERATION_CAP = 25
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class GridRange:
    """Equal-increment trial values from min to max inclusive."""

    min: float
    max: float
    step: float

    def __post_init__(self) -> None:
        bounds = (self.min, self.max, self.step)
        if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in bounds):
            raise ValueError(f"min, max and step must be numbers, got {self}")
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"min, max and step must be finite, got {self}")
        if self.step <= 0:
            raise ValueError(f"step must be > 0, got {self.step}")
        if self.min > self.max:
            raise ValueError(f"empty range: min {self.min} > max {self.max}")

    def values(self) -> tuple[float, ...]:
        count = int(math.floor((self.max - self.min) / self.step + 1e-9)) + 1
        return tuple(round(self.min + i * self.step, 10) for i in range(count))


@dataclass(frozen=True)
class ParamSpace:
    """Sweepable parameters in sweep order, each with its trial grid."""

    order: tuple[str, ...]
    ranges: Mapping[str, GridRange]

    def __post_init__(self) -> None:
        if len(set(self.order)) != len(self.order):
            raise ValueError("parameter space repeats a parameter name")
        for name in self.order:
            if name not in self.ranges:
                raise ValueError(f"no range given for swept parameter {name!r}")
            for value in self.ranges[name].values():
                validate_field(name, value)
        extra = set(self.ranges) - set(self.order)
        if extra:
            raise ValueError(f"ranges given for unswept parameters: {sorted(extra)}")

    def trial_values(self, name: str) -> tuple[float, ...]:
        return self.ranges[name].values()

    @classmethod
    def from_dict(cls, data: dict) -> "ParamSpace":
        specs = data.get("ranges") if isinstance(data, dict) else None
        if not (isinstance(specs, dict) and all(isinstance(s, dict) for s in specs.values())
                and isinstance(data.get("order"), list)):
            raise ValueError('space document must be {"order": [...], "ranges": {name: {...}}}')
        ranges = {name: GridRange(s["min"], s["max"], s["step"]) for name, s in specs.items()}
        return cls(tuple(data["order"]), ranges)


def load_param_space(path: str | Path) -> ParamSpace:
    return ParamSpace.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def default_seed_params(space: ParamSpace) -> MetricParams:
    """Every swept parameter at its first trial value; a deliberately plain start."""
    values = DEFAULT_PARAMS.to_dict()
    for name in space.order:
        values[name] = space.trial_values(name)[0]
    return MetricParams.from_dict(values)


@dataclass(frozen=True)
class ObjectiveWeights:
    """Relative weights of the four averaged performance metrics."""

    overall_recall: float = 1.0
    top10_recall: float = 1.0
    rho: float = 1.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"objective weight {name} must be a number, got {value!r}")
        parts = (self.overall_recall, self.top10_recall, self.rho, self.tau)
        if any(w < 0 or not math.isfinite(w) for w in parts):
            raise ValueError("objective weights must be finite and >= 0")
        if sum(parts) <= 0:
            raise ValueError("objective weights must not all be zero")

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "ObjectiveWeights":
        return cls(**dict(data))


def objective(report: EvalReport, weights: ObjectiveWeights) -> float:
    """Scalar score in [0, 1]: weighted mean of recalls and rescaled correlations."""
    avg = report.averages
    parts = (
        avg.overall_recall,
        avg.top10_recall,
        (avg.rho + 1.0) / 2.0,
        (avg.tau + 1.0) / 2.0,
    )
    ws = (weights.overall_recall, weights.top10_recall, weights.rho, weights.tau)
    return sum(w * x for w, x in zip(ws, parts)) / sum(ws)


@dataclass(frozen=True)
class SearchObjective:
    """Objective of one parameter set: run all queries, evaluate, scalarise.

    Every query needs a ground truth and every ground truth a query; the
    pairing is checked once, at construction (:func:`truth_sizes`).
    ``observer``, when set, receives the parameter set and the tuple of query
    ids on every evaluation; the cross-validation harness uses it to prove
    that held-out queries never feed a training decision.
    """

    corpus: Sequence[DocumentRecord]
    queries: Sequence[Query]
    truths: Sequence[GroundTruth]
    weights: ObjectiveWeights
    commutative: frozenset[tuple[str, str]]
    table: CriticalValueTable
    observer: Callable[[MetricParams, tuple[str, ...]], None] | None = None
    sizes: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        sizes = truth_sizes((q.query_id for q in self.queries), self.truths)
        object.__setattr__(self, "sizes", sizes)

    def __call__(self, params: MetricParams) -> tuple[float, AverageRow]:
        if self.observer is not None:
            self.observer(params, tuple(q.query_id for q in self.queries))
        hitlists = batch_search(self.queries, self.corpus, params, self.sizes, self.commutative)
        report = evaluate(hitlists, self.truths, self.table)
        return objective(report, self.weights), report.averages


@dataclass(frozen=True)
class SweepStep:
    param: str
    value: float
    objective: float


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    params: MetricParams
    objective: float
    averages: AverageRow
    sweeps: tuple[SweepStep, ...]


@dataclass(frozen=True)
class OptimizationRun:
    model: str
    generations: tuple[GenerationRecord, ...]
    converged: bool

    @property
    def final(self) -> GenerationRecord:
        return self.generations[-1]

    @property
    def final_params(self) -> MetricParams:
        return self.final.params

    @property
    def final_objective(self) -> float:
        return self.final.objective

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "converged": self.converged,
            "generations": [
                {
                    "generation": g.generation,
                    "objective": g.objective,
                    "params": g.params.to_dict(),
                    "metrics": {
                        "overall_recall": g.averages.overall_recall,
                        "top10_recall": g.averages.top10_recall,
                        "rho": g.averages.rho,
                        "tau": g.averages.tau,
                    },
                    "sweeps": [
                        {"param": s.param, "value": s.value, "objective": s.objective}
                        for s in g.sweeps
                    ],
                }
                for g in self.generations
            ],
        }


def write_run_json(run: OptimizationRun, path: str | Path) -> None:
    Path(path).write_text(json.dumps(run.to_dict(), indent=2) + "\n", encoding="utf-8")


def sweep_parameter(
    param_name: str,
    space: ParamSpace,
    current: MetricParams,
    objective_fn: ObjectiveFn,
    incumbent: tuple[float, AverageRow],
) -> tuple[float, float, AverageRow]:
    """Try every trial value of one parameter, all others held fixed.

    Returns ``(best_value, best_objective, best_averages)``.  The incumbent
    value always competes, with its known result ``incumbent`` rather than a
    fresh evaluation (so a committed sweep can never regress), and ties go to
    the smallest value.  Trial values that violate a cross-parameter
    constraint under the current settings are skipped.
    """
    incumbent_value = getattr(current, param_name)
    best_value, best_obj, best_avgs = None, -math.inf, None
    for value in sorted(set(space.trial_values(param_name)) | {incumbent_value}):
        if value == incumbent_value:
            obj, avgs = incumbent
        else:
            try:
                trial_params = current.with_value(param_name, value)
            except ValueError:
                continue
            obj, avgs = objective_fn(trial_params)
        if obj > best_obj:
            best_value, best_obj, best_avgs = value, obj, avgs
    return best_value, best_obj, best_avgs


def run_generation(
    current: MetricParams,
    space: ParamSpace,
    objective_fn: ObjectiveFn,
    entering: tuple[float, AverageRow],
) -> tuple[MetricParams, float, AverageRow, tuple[SweepStep, ...]]:
    """One coordinate-descent pass: sweep every parameter once, in order."""
    obj, avgs = entering
    sweeps = []
    for name in space.order:
        value, obj, avgs = sweep_parameter(name, space, current, objective_fn, (obj, avgs))
        current = current.with_value(name, value)
        sweeps.append(SweepStep(name, value, obj))
    return current, obj, avgs, tuple(sweeps)


def optimize_model(
    model: str,
    space: ParamSpace,
    seed_params: MetricParams,
    objective_fn: ObjectiveFn,
) -> OptimizationRun:
    """Evolve one decay model until a generation stops improving.

    Generation 0 records the seed evaluation.  From the second real
    generation on, an improvement of at most ``DEFAULT_TOLERANCE`` over the
    previous generation stops the evolution with ``converged=True``; hitting
    ``GENERATION_CAP`` instead leaves ``converged=False`` and emits a warning.
    """
    params = seed_params.with_value("decay_model", model)
    obj, avgs = objective_fn(params)
    generations = [GenerationRecord(0, params, obj, avgs, ())]
    converged = False
    for gen in range(1, GENERATION_CAP + 1):
        params, obj, avgs, sweeps = run_generation(params, space, objective_fn, (obj, avgs))
        generations.append(GenerationRecord(gen, params, obj, avgs, sweeps))
        if gen >= 2 and obj - generations[-2].objective <= DEFAULT_TOLERANCE:
            converged = True
            break
    if not converged:
        warnings.warn(
            f"decay model {model!r} did not converge within {GENERATION_CAP} generations"
        )
    return OptimizationRun(model, tuple(generations), converged)


@dataclass(frozen=True)
class OptimizeAllResult:
    best_model: str
    best_params: MetricParams
    runs: dict[str, OptimizationRun]


def optimize_all(
    space: ParamSpace,
    seed_params: MetricParams,
    objective_fn: ObjectiveFn,
    pool=None,
) -> OptimizeAllResult:
    """Optimize every decay model and pick the winner (ties: earliest in order).

    The models are independent runs, so with a ``pool`` (an executor) each
    runs in a worker, which receives ``objective_fn`` once by pickling.
    """
    run_model = partial(
        optimize_model, space=space, seed_params=seed_params, objective_fn=objective_fn
    )
    runner = pool.map if pool is not None else map
    runs = dict(zip(DECAY_KINDS, runner(run_model, DECAY_KINDS)))
    best_model = max(DECAY_KINDS, key=lambda kind: runs[kind].final_objective)
    return OptimizeAllResult(best_model, runs[best_model].final_params, runs)


@dataclass(frozen=True)
class XValRow:
    model: str
    protocol: str
    overall_recall: float
    top10_recall: float
    rho: float
    tau: float


@dataclass(frozen=True)
class XValReport:
    rows: tuple[XValRow, ...]
    train_ids: tuple[str, ...]
    test_ids: tuple[str, ...]


def _notify(observer, phase: str, params: MetricParams, query_ids: tuple[str, ...]) -> None:
    if observer is not None:
        observer(phase, params.decay_model, query_ids)


def cross_validate(
    corpus: Sequence[DocumentRecord],
    queries: Sequence[Query],
    truths: Sequence[GroundTruth],
    space: ParamSpace,
    weights: ObjectiveWeights,
    split_seed: int,
    seed_params: MetricParams,
    commutative: frozenset[tuple[str, str]],
    table: CriticalValueTable,
    observer: Callable[[str, str, tuple[str, ...]], None] | None = None,
) -> XValReport:
    """Optimize per model both on all queries and on a seeded half-split.

    The ``without_cv`` rows are trained and evaluated on the full query set;
    the ``with_cv`` rows are trained on the training half and evaluated on
    the held-out half (an odd query gives the training side the extra one).
    ``observer`` receives ``(phase, decay model, query ids)`` on every
    evaluation, with phase ``full``, ``train`` or ``test``.
    """
    if len(queries) < 2:
        raise ValueError("cross-validation needs at least 2 queries")
    ids = sorted(q.query_id for q in queries)
    rng = random.Random(split_seed)
    shuffled = list(ids)
    rng.shuffle(shuffled)
    n_train = (len(shuffled) + 1) // 2
    train_set = set(shuffled[:n_train])
    test_set = set(ids) - train_set

    def objective_on(phase: str, kept: set[str]) -> SearchObjective:
        return SearchObjective(
            corpus,
            Corpus(q for q in queries if q.query_id in kept),
            [t for t in truths if t.query_id in kept],
            weights, commutative, table, observer=partial(_notify, observer, phase),
        )

    # The full set keeps every truth, so its pairing check sees them all.
    full_obj = objective_on("full", {*ids, *(t.query_id for t in truths)})
    train_obj = objective_on("train", train_set)
    test_obj = objective_on("test", test_set)
    full = optimize_all(space, seed_params, full_obj)
    train = optimize_all(space, seed_params, train_obj)

    def row(kind: str, protocol: str, avg: AverageRow) -> XValRow:
        return XValRow(kind, protocol, avg.overall_recall, avg.top10_recall, avg.rho, avg.tau)

    rows = []
    for kind in DECAY_KINDS:
        rows.append(row(kind, "without_cv", full.runs[kind].final.averages))
        rows.append(row(kind, "with_cv", test_obj(train.runs[kind].final_params)[1]))
    return XValReport(tuple(rows), tuple(sorted(train_set)), tuple(sorted(test_set)))


_XVAL_COLUMNS = (
    "model",
    "protocol",
    "ave_overall_recall",
    "ave_top10_recall",
    "ave_rho_correlation",
    "ave_tau_correlation",
)


def xval_to_csv_text(report: XValReport) -> str:
    rows = [
        [row.model, row.protocol]
        + [repr(v) for v in (row.overall_recall, row.top10_recall, row.rho, row.tau)]
        for row in report.rows
    ]
    return csv_text([_XVAL_COLUMNS, *rows])


def write_xval_json(report: XValReport, path: str | Path) -> None:
    payload = {
        "train_queries": list(report.train_ids),
        "test_queries": list(report.test_ids),
        "rows": [dict(zip(_XVAL_COLUMNS, astuple(r))) for r in report.rows],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
