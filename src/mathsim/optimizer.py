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
from dataclasses import astuple, dataclass, field, replace
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
from .metric import DECAY_KINDS, MetricParams, read_json, validate_field
from .search import Corpus, DocumentRecord, HitList, Query, batch_search

ObjectiveFn = Callable[[MetricParams], tuple[float, AverageRow]]

GENERATION_CAP = 25
DEFAULT_TOLERANCE = 1e-9
# Trial values one grid may hold; each is built and validated up front.
MAX_GRID_VALUES = 10_000


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
        # Counted before any value is built: a tiny step would ask for billions.
        if self._steps() >= MAX_GRID_VALUES:
            raise ValueError(
                f"step {self.step} from {self.min} to {self.max} gives more than "
                f"{MAX_GRID_VALUES} trial values"
            )

    def _steps(self) -> float:
        """Whole steps from min to max, to within rounding; may be infinite."""
        return (self.max - self.min) / self.step + 1e-9

    def values(self) -> tuple[float, ...]:
        count = int(math.floor(self._steps())) + 1
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
                and isinstance(data.get("order"), list)
                and all(isinstance(name, str) for name in data["order"])):
            raise ValueError('space document must be {"order": [...], "ranges": {name: {...}}}')
        ranges = {}
        for name, spec in specs.items():
            missing = [key for key in ("min", "max", "step") if key not in spec]
            if missing:
                raise ValueError(f"no {', '.join(missing)} in the range of {name}")
            try:
                ranges[name] = GridRange(spec["min"], spec["max"], spec["step"])
            except ValueError as error:
                raise ValueError(f"{error}, in the range of {name}") from error
        return cls(tuple(data["order"]), ranges)


def load_param_space(path: str | Path) -> ParamSpace:
    return ParamSpace.from_dict(read_json(path))


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
    pairing is checked at construction (:func:`truth_sizes`), and ``table``
    is filled for the truth sizes then, so copies pickled into pool tasks
    arrive with every critical value they read.
    ``observer``, when set, receives the parameter set and the tuple of query
    ids on every evaluation; :func:`cross_validate` keeps it on every phase,
    whose ids prove that held-out queries never feed a training decision.
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
        self.table.fill(sizes.values())

    def search(self, params: MetricParams) -> list[HitList]:
        """Each query's hit list, as long as its ground truth, in query order."""
        return batch_search(self.queries, self.corpus, params, self.sizes, self.commutative)

    def __call__(self, params: MetricParams) -> tuple[float, AverageRow]:
        if self.observer is not None:
            self.observer(params, tuple(q.query_id for q in self.queries))
        report = evaluate(self.search(params), self.truths, self.table)
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

    ``objective_fn`` must be a pure function of the parameters: a run scores
    each distinct parameter set once and answers a repeat from a memo that
    lives for this call alone, so one objective can serve many runs.
    """
    scored: dict[MetricParams, tuple[float, AverageRow]] = {}

    def once(params: MetricParams) -> tuple[float, AverageRow]:
        if params not in scored:
            scored[params] = objective_fn(params)
        return scored[params]

    params = seed_params.with_value("decay_model", model)
    obj, avgs = once(params)
    generations = [GenerationRecord(0, params, obj, avgs, ())]
    converged = False
    for gen in range(1, GENERATION_CAP + 1):
        params, obj, avgs, sweeps = run_generation(params, space, once, (obj, avgs))
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

    The models are independent runs, each in a worker of ``pool`` (an executor),
    which receives ``objective_fn`` once by pickling, or in turn here without one.
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


def cross_validate(
    objective: SearchObjective,
    space: ParamSpace,
    split_seed: int,
    seed_params: MetricParams,
    pool=None,
) -> XValReport:
    """Optimize per model both on all of ``objective``'s queries and on a seeded half-split.

    The ``without_cv`` rows are trained and evaluated on the full query set;
    the ``with_cv`` rows are trained on the training half and evaluated on
    the held-out half (an odd query gives the training side the extra one).
    Each half is ``objective`` cut to its queries and truths, observer and all.
    Both phases tune on ``pool`` as :func:`optimize_all` does; an observer
    would miss the evaluations of pool workers, so one with a pool is an error.
    """
    if len(objective.queries) < 2:
        raise ValueError("cross-validation needs at least 2 queries")
    if pool is not None and objective.observer is not None:
        raise ValueError("an observer cannot see the evaluations of pool workers")
    shuffled = sorted(q.query_id for q in objective.queries)
    random.Random(split_seed).shuffle(shuffled)
    train_set = set(shuffled[: (len(shuffled) + 1) // 2])
    test_set = set(shuffled) - train_set

    def objective_on(kept: set[str]) -> SearchObjective:
        return replace(
            objective,
            queries=Corpus(q for q in objective.queries if q.query_id in kept),
            truths=[t for t in objective.truths if t.query_id in kept],
        )

    full = optimize_all(space, seed_params, objective, pool)
    train = optimize_all(space, seed_params, objective_on(train_set), pool)
    test_obj = objective_on(test_set)

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
