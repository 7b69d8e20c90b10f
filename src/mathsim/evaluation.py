"""Hit-list evaluation against expert ground truth.

Per query: overall recall, top-10 recall, Spearman's rho and Kendall's tau
between the hit list and the truth ranking, plus significance flags at the
95% and 99% confidence levels.  Correlations are computed over the truth
items only; truth items missing from a hit list share the averaged rank of
the positions they would occupy after the list's end.  Critical values come
from seeded Monte Carlo permutation sampling and can be cached to disk.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .search import HitList, read_ranked_csv

DEFAULT_MC_SEED = 7151
MC_SAMPLES = 100_000
MIN_TABLE_N = 4
MAX_TABLE_N = 60


@dataclass(frozen=True)
class GroundTruth:
    """Expert ranking of the relevant documents for one query (best first).

    At least two documents, so that the rank correlations are defined.
    """

    query_id: str
    ranked_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.ranked_ids:
            raise ValueError(f"ground truth for {self.query_id!r} is empty")
        if len(self.ranked_ids) < 2:
            raise ValueError(
                f"ground truth for {self.query_id!r} ranks one document; "
                "rank correlation needs at least 2"
            )
        if len(set(self.ranked_ids)) != len(self.ranked_ids):
            raise ValueError(f"ground truth for {self.query_id!r} repeats a document id")


def truth_sizes(query_ids: Iterable[str], truths: Iterable[GroundTruth]) -> dict[str, int]:
    """Hit-list size of each query, in query order: the length of its ground truth.

    Queries and truths must pair up one to one; otherwise one error names
    every query without a truth and every truth without a query.
    """
    query_ids = list(query_ids)
    sizes = {t.query_id: len(t.ranked_ids) for t in truths}
    problems = []
    missing_truth = sorted(set(query_ids) - sizes.keys())
    if missing_truth:
        problems.append(f"queries without ground truth: {', '.join(missing_truth)}")
    missing_query = sorted(sizes.keys() - set(query_ids))
    if missing_query:
        problems.append(f"ground truth without queries: {', '.join(missing_query)}")
    if problems:
        raise ValueError("; ".join(problems))
    return {query_id: sizes[query_id] for query_id in query_ids}


@dataclass(frozen=True)
class QueryEvaluation:
    query_id: str
    overall_recall: float
    top10_recall: float
    rho: float
    tau: float
    rho_sig_95: bool
    rho_sig_99: bool
    tau_sig_95: bool
    tau_sig_99: bool


@dataclass(frozen=True)
class AverageRow:
    """Arithmetic means over all evaluated queries; flag columns become rates."""

    overall_recall: float
    top10_recall: float
    rho: float
    tau: float
    rho_sig_95: float
    rho_sig_99: float
    tau_sig_95: float
    tau_sig_99: float


@dataclass(frozen=True)
class EvalReport:
    queries: tuple[QueryEvaluation, ...]
    averages: AverageRow


def overall_recall(hits: HitList, truth: GroundTruth) -> float:
    """Fraction of the ground truth present anywhere in the hit list."""
    return len(set(hits.doc_ids()) & set(truth.ranked_ids)) / len(truth.ranked_ids)


def top10_recall(hits: HitList, truth: GroundTruth) -> float:
    """Fraction of the truth's top m found in the hits' top 10 (m = min(10, |truth|))."""
    m = min(10, len(truth.ranked_ids))
    return len(set(hits.doc_ids()[:10]) & set(truth.ranked_ids[:m])) / m


def _assigned_ranks(hits: HitList, truth: GroundTruth) -> list[float]:
    """Rank of each truth item within the hit list, in truth order.

    Items absent from the hits share the average of the ranks just past the
    list's end, which keeps both correlation statistics defined and penalises
    misses smoothly.
    """
    position = {doc_id: i + 1 for i, doc_id in enumerate(hits.doc_ids())}
    absent = [doc_id for doc_id in truth.ranked_ids if doc_id not in position]
    length = len(hits.doc_ids())
    shared = length + (len(absent) + 1) / 2.0
    return [position.get(doc_id, shared) for doc_id in truth.ranked_ids]


def spearman_rho(hits: HitList, truth: GroundTruth) -> float:
    """Spearman rank correlation between truth order and hit-list order.

    Absent truth items take ranks past the list's end, which can push the
    raw statistic below -1; the result is clamped to the declared [-1, 1]
    range so heavy misses saturate at full anticorrelation.
    """
    n = len(truth.ranked_ids)
    assigned = _assigned_ranks(hits, truth)
    d_sq = sum((truth_rank - got) ** 2 for truth_rank, got in enumerate(assigned, start=1))
    return max(-1.0, min(1.0, 1.0 - 6.0 * d_sq / (n * (n * n - 1))))


def kendall_tau(hits: HitList, truth: GroundTruth) -> float:
    """Kendall rank correlation; pairs tied by a shared absent rank count as neither."""
    n = len(truth.ranked_ids)
    assigned = _assigned_ranks(hits, truth)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            if assigned[i] < assigned[j]:
                concordant += 1
            elif assigned[i] > assigned[j]:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)


def _tail_threshold(samples: np.ndarray, alpha: float) -> float:
    """Smallest sampled value whose upper tail stays within ``alpha``.

    Returns 1.0 when even the largest sampled value is exceeded too often
    (the level is unattainable at this n, so only a perfect statistic can
    be flagged).
    """
    ordered = np.sort(samples)
    max_tail = math.floor(alpha * len(ordered))
    cut = len(ordered) - max_tail  # need at least `cut` samples strictly below
    pivot = ordered[cut - 1]
    idx = int(np.searchsorted(ordered, pivot, side="right"))
    if idx >= len(ordered):
        return 1.0
    return float(ordered[idx])


def _rho_from_ranks(columns: np.ndarray) -> np.ndarray:
    """Spearman's rho of each sampled permutation against 1..n.

    ``columns`` holds one row per position and one column per sample.  The
    squared rank differences sum to ``2 * sum(i * i) - 2 * sum(i * p_i)``,
    an exact integer, so the division is the only rounding step.
    """
    n, count = columns.shape
    dot = np.zeros(count, dtype=np.int64)
    for i, column in enumerate(columns, start=1):
        dot += column * np.int64(i)
    d_sq = n * (n + 1) * (2 * n + 1) // 3 - 2 * dot
    return 1.0 - 6.0 * d_sq / (n * (n * n - 1))


def _tau_from_ranks(columns: np.ndarray) -> np.ndarray:
    """Kendall's tau of each sampled permutation against 1..n (n <= 64).

    ``columns`` as for ``_rho_from_ranks``.  Walking the positions in order,
    bit ``p - 1`` of ``seen`` marks an earlier value ``p``; the earlier
    values above ``p_j`` are the set bits at or above ``p_j - 1``, one
    inversion each.  tau is ``(pairs - 2 * inversions) / pairs``.
    """
    n, count = columns.shape
    one = np.uint64(1)
    seen = np.zeros(count, dtype=np.uint64)
    inversions = np.zeros(count, dtype=np.int64)
    for column in columns:
        shift = column.astype(np.uint64) - one
        inversions += np.bitwise_count(seen >> shift)
        seen |= one << shift
    pairs = n * (n - 1) // 2
    return (pairs - 2 * inversions) / pairs


class CriticalValueTable:
    """Seeded Monte Carlo critical values for rho and tau, cached per (stat, n, level).

    Each n draws ``MC_SAMPLES`` permutations.  A cache file (JSON) can be
    supplied so the sampling cost is paid once per seed.
    """

    def __init__(self, seed: int = DEFAULT_MC_SEED, cache_path: str | Path | None = None):
        self.seed = seed
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self._values: dict[tuple[str, int, int], float] = {}
        self._load_cache()

    def _load_cache(self) -> None:
        # A missing, unreadable or half-written cache is a miss: its values
        # are recomputed and the file is written again.
        if self.cache_path is None:
            return
        try:
            data = json.loads(self.cache_path.read_text(encoding="utf-8"))
            if data.get("seed") != self.seed or data.get("samples") != MC_SAMPLES:
                return
            values = {}
            for key, value in data.get("values", {}).items():
                stat, n, level = key.split(":")
                values[(stat, int(n), int(level))] = float(value)
        except (OSError, ValueError, AttributeError, TypeError):
            return
        self._values.update(values)

    def _save_cache(self) -> None:
        if self.cache_path is None:
            return
        payload = {
            "seed": self.seed,
            "samples": MC_SAMPLES,
            "values": {f"{s}:{n}:{lv}": v for (s, n, lv), v in sorted(self._values.items())},
        }
        # Written whole to a temporary file and renamed over the cache, so a
        # reader (another process included) never sees a partial file.
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        fd, temp = tempfile.mkstemp(
            dir=self.cache_path.parent, prefix=self.cache_path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
            os.replace(temp, self.cache_path)
        except BaseException:
            os.unlink(temp)
            raise

    def _compute_for_n(self, n: int) -> None:
        rng = np.random.default_rng([self.seed, n])
        # Column k is sample k: the same stream as shuffling each row of a
        # (MC_SAMPLES, n) array, laid out so each position is contiguous.
        columns = np.empty((n, MC_SAMPLES), dtype=np.int16)
        columns[:] = np.arange(1, n + 1, dtype=np.int16)[:, None]
        rng.permuted(columns, axis=0, out=columns)
        stats = {"rho": _rho_from_ranks(columns), "tau": _tau_from_ranks(columns)}
        for stat, values in stats.items():
            for level, alpha in ((95, 0.05), (99, 0.01)):
                self._values[(stat, n, level)] = _tail_threshold(values, alpha)
        self._save_cache()

    def critical_value(self, statistic: str, n: int, level: int) -> float:
        """One-sided critical value: a null correlation reaches it with prob <= alpha."""
        if statistic not in ("rho", "tau"):
            raise ValueError(f"statistic must be 'rho' or 'tau', got {statistic!r}")
        if level not in (95, 99):
            raise ValueError(f"confidence level must be 95 or 99, got {level}")
        if not MIN_TABLE_N <= n <= MAX_TABLE_N:
            raise ValueError(f"n={n} outside supported range [{MIN_TABLE_N}, {MAX_TABLE_N}]")
        key = (statistic, n, level)
        if key not in self._values:
            self._compute_for_n(n)
        return self._values[key]


def evaluate(
    hitlists: Sequence[HitList], truths: Iterable[GroundTruth], table: CriticalValueTable
) -> EvalReport:
    """Score every hit list against its ground truth and average the columns.

    Significance flags compare |rho| and |tau| against ``table``'s critical
    value for that query's truth size; truth sizes outside the supported
    table range are reported as not significant.
    """
    truth_by_id = {}
    for truth in truths:
        truth_by_id[truth.query_id] = truth
    rows = []
    for hl in hitlists:
        truth = truth_by_id.get(hl.query_id)
        if truth is None:
            raise ValueError(f"no ground truth for query {hl.query_id!r}")
        n = len(truth.ranked_ids)
        rho = spearman_rho(hl, truth)
        tau = kendall_tau(hl, truth)
        flags = {}
        for stat, value in (("rho", rho), ("tau", tau)):
            for level in (95, 99):
                if MIN_TABLE_N <= n <= MAX_TABLE_N:
                    flags[f"{stat}_sig_{level}"] = abs(value) >= table.critical_value(
                        stat, n, level
                    )
                else:
                    flags[f"{stat}_sig_{level}"] = False
        rows.append(
            QueryEvaluation(
                query_id=hl.query_id,
                overall_recall=overall_recall(hl, truth),
                top10_recall=top10_recall(hl, truth),
                rho=rho,
                tau=tau,
                **flags,
            )
        )
    if not rows:
        raise ValueError("nothing to evaluate: no hit lists given")
    count = len(rows)
    averages = AverageRow(
        overall_recall=sum(r.overall_recall for r in rows) / count,
        top10_recall=sum(r.top10_recall for r in rows) / count,
        rho=sum(r.rho for r in rows) / count,
        tau=sum(r.tau for r in rows) / count,
        rho_sig_95=sum(r.rho_sig_95 for r in rows) / count,
        rho_sig_99=sum(r.rho_sig_99 for r in rows) / count,
        tau_sig_95=sum(r.tau_sig_95 for r in rows) / count,
        tau_sig_99=sum(r.tau_sig_99 for r in rows) / count,
    )
    return EvalReport(tuple(rows), averages)


_REPORT_COLUMNS = (
    "query_id",
    "overall_recall",
    "top10_recall",
    "rho",
    "tau",
    "rho_sig_95",
    "rho_sig_99",
    "tau_sig_95",
    "tau_sig_99",
)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(rows: Iterable[Sequence[str]]) -> str:
    """Rows as CSV text with ``\n`` line ends, quoting only cells that need it."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def report_to_csv_text(report: EvalReport) -> str:
    rows = [_REPORT_COLUMNS]
    rows += [[_cell(getattr(row, col)) for col in _REPORT_COLUMNS] for row in report.queries]
    rows.append(["AVERAGE"] + [_cell(getattr(report.averages, col)) for col in _REPORT_COLUMNS[1:]])
    return csv_text(rows)


def write_report_json(report: EvalReport, path: str | Path) -> None:
    payload = {
        "queries": [asdict(row) for row in report.queries],
        "averages": asdict(report.averages),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_ground_truth_csv(path: str | Path) -> list[GroundTruth]:
    """Read ``query_id,rank,doc_id`` rows (rank ascending from 1 per query)."""
    return read_ranked_csv(
        path, ("query_id", "rank", "doc_id"),
        lambda query_id, rows: GroundTruth(query_id, tuple(r[2] for r in rows)),
    )
