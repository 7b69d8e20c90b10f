"""Hit-list evaluation against expert ground truth.

Per query: overall recall, top-10 recall, Spearman's rho and Kendall's tau
between the hit list and the truth ranking, plus significance flags at the
95% and 99% confidence levels.  Correlations are computed over the truth
items only; truth items missing from a hit list share the averaged rank of
the positions they would occupy after the list's end.

:func:`evaluate` looks each truth item up in its hit list once, giving the
query's present count, top-10 overlap and rank vector.  The rank vectors of
queries with equal truth size are stacked into one array, and rho's squared
rank differences and tau's pairwise signs are summed for the whole stack.
Ranks are kept doubled, so the shared absent rank is an integer and both
sums are exact.  Critical values come from seeded Monte Carlo permutation
sampling, are filled once per truth size, and can be cached to disk in a
file written whole.  A fill draws the permutations in 64-bit blocks on one
worker thread while the calling thread reduces the previous block to rho
and tau with one whole-block kernel; the thread ends with the fill.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import Executor, ThreadPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .metric import read_json, write_json
from .search import HitList, read_ranked_csv

DEFAULT_MC_SEED = 7151
MC_SAMPLES = 100_000
MIN_TABLE_N = 4
MAX_TABLE_N = 60
# Cells (positions times samples) in one block of permutations: 256 KiB of int64.
_BLOCK_CELLS = 1 << 15
_STATISTICS = ("rho", "tau")
_ALPHAS = {95: 0.05, 99: 0.01}


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


def _by_query(records: Iterable, what: str) -> dict:
    """``records`` keyed by query id, in order; a query id seen twice is an error."""
    out = {}
    for record in records:
        if record.query_id in out:
            raise ValueError(f"{what} for query {record.query_id!r} given twice")
        out[record.query_id] = record
    return out


def truth_sizes(query_ids: Iterable[str], truths: Iterable[GroundTruth]) -> dict[str, int]:
    """Hit-list size of each query, in query order: the length of its ground truth.

    Queries and truths must pair up one to one; otherwise one error names
    every query without a truth and every truth without a query.  A query
    with two truths is an error too.
    """
    query_ids = list(query_ids)
    truth_by_id = _by_query(truths, "ground truth")
    problems = []
    missing_truth = sorted(set(query_ids) - truth_by_id.keys())
    if missing_truth:
        problems.append(f"queries without ground truth: {', '.join(missing_truth)}")
    missing_query = sorted(truth_by_id.keys() - set(query_ids))
    if missing_query:
        problems.append(f"ground truth without queries: {', '.join(missing_query)}")
    if problems:
        raise ValueError("; ".join(problems))
    return {query_id: len(truth_by_id[query_id].ranked_ids) for query_id in query_ids}


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


def _match(hits: HitList, truth: GroundTruth) -> tuple[int, int, list[int]]:
    """Look each truth item up in the hit list, once.

    Returns the number of truth items present, how many of the truth's top
    m (m = min(10, |truth|)) are in the hits' top 10, and each truth item's
    rank in the hit list, doubled, in truth order.  Items absent from the
    hits share the average of the ranks just past the list's end, which
    keeps both correlation statistics defined and penalises misses
    smoothly; doubling makes that shared rank an integer.
    """
    position = {doc_id: place for place, (doc_id, _) in enumerate(hits.hits, start=1)}
    places = [position.get(doc_id, 0) for doc_id in truth.ranked_ids]
    absent = places.count(0)
    top10 = sum(0 < place <= 10 for place in places[:10])
    shared = 2 * len(hits.hits) + absent + 1
    return len(places) - absent, top10, [2 * place if place else shared for place in places]


def _correlations(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spearman's rho and Kendall's tau of each row of doubled ranks against 1..n.

    The squared rank differences are quarter-integers and the pair signs
    integers, so both sums are exact; the divisions are the only rounding.
    Absent truth items take ranks past the list's end, which can push the
    raw rho below -1; it is clamped there, so heavy misses saturate at full
    anticorrelation (rho cannot exceed 1).  Pairs tied by the shared
    absent rank count as neither concordant nor discordant.
    """
    n = ranks.shape[1]
    truth_ranks = np.arange(2, 2 * n + 1, 2)
    diff = ranks - truth_ranks
    d_sq = np.einsum("qi,qi->q", diff, diff) / 4
    rho = np.maximum(1.0 - 6.0 * d_sq / (n * (n * n - 1)), -1.0)
    # The ordered pair (i, j) scores sign(j - i) when item i ranks above
    # item j, so each unordered pair nets +1, -1 or, when tied, 0.
    above = ranks[:, :, None] < ranks[:, None, :]
    net = np.einsum("qij,ij->q", above, np.sign(truth_ranks - truth_ranks[:, None]))
    tau = net / (n * (n - 1) / 2)
    return rho, tau


def _tail_threshold(ordered: np.ndarray, alpha: float) -> float:
    """Smallest sampled value whose upper tail stays within ``alpha``.

    ``ordered`` holds the samples sorted ascending, so one sort serves both
    levels.  Returns 1.0 when even the largest sampled value is exceeded too
    often (the level is unattainable at this n, so only a perfect statistic
    can be flagged).
    """
    max_tail = math.floor(alpha * len(ordered))
    cut = len(ordered) - max_tail  # need at least `cut` samples strictly below
    pivot = ordered[cut - 1]
    idx = int(np.searchsorted(ordered, pivot, side="right"))
    if idx >= len(ordered):
        return 1.0
    return float(ordered[idx])


def _block_statistics(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Spearman's rho and Kendall's tau of each sampled permutation against 1..n.

    ``block`` is an int64 array of the values 1..n (n <= 63), one row per
    position and one column per sample; every step covers the whole block,
    so the call count does not depend on n.  The squared rank differences
    sum to ``2 * sum(i * i) - 2 * sum(i * p_i)``, an exact integer.  For
    tau, bit ``p - 1`` of ``seen[j]`` marks a value ``p`` at position j or
    earlier; the earlier values above ``p_j`` are the set bits of
    ``seen[j - 1]`` at or above ``p_j - 1``, one inversion each, and tau is
    ``(pairs - 2 * inversions) / pairs``.  Both sums are exact, so the
    divisions are the only rounding steps.
    """
    n = block.shape[0]
    dot = np.arange(1, n + 1, dtype=np.int64) @ block
    d_sq = n * (n + 1) * (2 * n + 1) // 3 - 2 * dot
    rho = 1.0 - 6.0 * d_sq / (n * (n * n - 1))
    shifts = block - 1
    seen = np.left_shift(1, shifts)
    np.bitwise_or.accumulate(seen, axis=0, out=seen)
    above = np.bitwise_count(np.right_shift(seen[:-1], shifts[1:]))
    inversions = above.sum(axis=0, dtype=np.int64)
    pairs = n * (n - 1) // 2
    return rho, (pairs - 2 * inversions) / pairs


class CriticalValueTable:
    """Seeded Monte Carlo critical values for rho and tau, cached per (stat, n, level).

    Each n draws ``MC_SAMPLES`` permutations from one generator seeded
    ``[seed, n]``, in int64 blocks of about ``_BLOCK_CELLS`` cells (n
    positions by ``_BLOCK_CELLS // n`` samples).  A fill holds two blocks,
    the one being drawn and the one being reduced, and the two statistics'
    sample arrays, never every permutation at once.  :meth:`fill` computes
    the missing sizes of a run together and writes the cache file (JSON), if
    one is supplied, once; the sampling cost is then paid once per seed.
    The table holds no thread or executor, so it pickles.
    """

    def __init__(self, seed: int = DEFAULT_MC_SEED, cache_path: str | Path | None = None):
        self.seed = seed
        self.cache_path = Path(cache_path) if cache_path is not None else None
        self._values: dict[tuple[str, int, int], float] = {}
        self._load_cache()

    def _load_cache(self) -> None:
        # A missing, unreadable, half-written or damaged cache is a miss: its
        # values are recomputed and the file is written again.
        if self.cache_path is None:
            return
        try:
            data = read_json(self.cache_path)
            header = (data.get("seed"), data.get("samples"))
            # By type, so that ``true`` is no seed 1 and ``100000.0`` no sample count.
            if any(type(v) is not int for v in header) or header != (self.seed, MC_SAMPLES):
                return
            values = {}
            for text, value in data.get("values", {}).items():
                stat, n, level = text.split(":")
                key = (stat, int(n), int(level))
                # int() also reads "06", " 6", "+6" and "6_0"; only the written spelling is a key.
                if text != ":".join(map(str, key)) or not _is_table_entry(key, value):
                    return
                values[key] = float(value)
        except (OSError, ValueError, AttributeError, TypeError):
            return
        self._values.update(values)

    def _save_cache(self) -> None:
        if self.cache_path is None:
            return
        self.cache_path.parent.mkdir(parents=True, exist_ok=True)
        write_json(self.cache_path, {
            "seed": self.seed,
            "samples": MC_SAMPLES,
            "values": {f"{s}:{n}:{lv}": v for (s, n, lv), v in sorted(self._values.items())},
        })

    def _compute_for_n(self, n: int, drawer: Executor) -> None:
        # Column k of block b is sample b * width + k.  One generator shuffling
        # block after block draws the same stream as shuffling each row of a
        # (MC_SAMPLES, n) array at once.  Only ``drawer``'s one thread uses the
        # generator, in block order; it draws the next block into one buffer
        # while this thread reduces the last block in the other.
        rng = np.random.default_rng([self.seed, n])
        width = max(1, _BLOCK_CELLS // n)
        identity = np.arange(1, n + 1, dtype=np.intp)[:, None]
        buffers = [np.empty(n * width, dtype=np.intp) for _ in range(2)]

        def draw(buffer: np.ndarray, start: int) -> np.ndarray:
            # A contiguous (n, columns) view of the buffer's first cells.
            block = buffer[: n * min(width, MC_SAMPLES - start)].reshape(n, -1)
            block[...] = identity
            return rng.permuted(block, axis=0, out=block)

        rho, tau = np.empty(MC_SAMPLES), np.empty(MC_SAMPLES)
        drawing = drawer.submit(draw, buffers[0], 0)
        for index, start in enumerate(range(0, MC_SAMPLES, width)):
            block = drawing.result()
            if start + width < MC_SAMPLES:
                drawing = drawer.submit(draw, buffers[(index + 1) % 2], start + width)
            stop = start + block.shape[1]
            rho[start:stop], tau[start:stop] = _block_statistics(block)
        for stat, values in (("rho", rho), ("tau", tau)):
            values.sort()
            for level, alpha in _ALPHAS.items():
                self._values[(stat, n, level)] = _tail_threshold(values, alpha)

    def fill(self, sizes: Iterable[int]) -> None:
        """Compute every in-range size in ``sizes`` the table lacks, then write the cache once.

        Sizes outside ``[MIN_TABLE_N, MAX_TABLE_N]`` are skipped: :func:`evaluate`
        reports them as not significant.  The sizes are computed one after
        another; one worker thread draws the permutations of all of them and
        ends before this returns or raises.
        """
        missing = sorted({
            n for n in sizes
            if MIN_TABLE_N <= n <= MAX_TABLE_N
            and any((stat, n, level) not in self._values
                    for stat in _STATISTICS for level in _ALPHAS)
        })
        if not missing:
            return
        with ThreadPoolExecutor(1) as drawer:
            for n in missing:
                self._compute_for_n(n, drawer)
        self._save_cache()

    def critical_value(self, statistic: str, n: int, level: int) -> float:
        """One-sided critical value: a null correlation reaches it with prob <= alpha."""
        if statistic not in _STATISTICS:
            raise ValueError(f"statistic must be 'rho' or 'tau', got {statistic!r}")
        if level not in _ALPHAS:
            raise ValueError(f"confidence level must be 95 or 99, got {level}")
        if not MIN_TABLE_N <= n <= MAX_TABLE_N:
            raise ValueError(f"n={n} outside supported range [{MIN_TABLE_N}, {MAX_TABLE_N}]")
        key = (statistic, n, level)
        if key not in self._values:
            self.fill((n,))
        return self._values[key]


def _is_table_entry(key: tuple[str, int, int], value) -> bool:
    """Whether a cached ``key: value`` can be in the table: a (stat, n, level) it
    covers, and a number in (0, 1], which rules out NaN, the infinities and ``true``."""
    stat, n, level = key
    return (stat in _STATISTICS and MIN_TABLE_N <= n <= MAX_TABLE_N and level in _ALPHAS
            and type(value) in (int, float) and 0 < value <= 1)


def evaluate(
    hitlists: Sequence[HitList], truths: Iterable[GroundTruth], table: CriticalValueTable
) -> EvalReport:
    """Score every hit list against its ground truth and average the columns.

    Significance flags compare |rho| and |tau| against ``table``'s critical
    value for that query's truth size; truth sizes outside the supported
    table range are reported as not significant.  Hit lists and truths must
    pair one to one (:func:`truth_sizes`), so the averages cover every truth;
    a query id given twice, among the hit lists or among the truths, is an
    error.
    """
    truth_by_id = _by_query(truths, "ground truth")
    hitlists = list(_by_query(hitlists, "hit list").values())
    if not hitlists:
        raise ValueError("nothing to evaluate: no hit lists given")
    truth_sizes((hl.query_id for hl in hitlists), truth_by_id.values())
    matches = []
    by_size: dict[int, list[int]] = {}
    for index, hl in enumerate(hitlists):
        truth = truth_by_id[hl.query_id]
        matches.append(_match(hl, truth))
        by_size.setdefault(len(truth.ranked_ids), []).append(index)
    table.fill(by_size)
    count = len(matches)
    # Per query: rho, tau and the four flags, filled one truth size at a time.
    stats: list = [None] * count
    for n, indices in by_size.items():
        rho, tau = _correlations(np.array([matches[i][2] for i in indices]))
        if MIN_TABLE_N <= n <= MAX_TABLE_N:
            flags = [
                (abs(values) >= table.critical_value(stat, n, level)).tolist()
                for stat, values in (("rho", rho), ("tau", tau))
                for level in (95, 99)
            ]
        else:
            flags = [[False] * len(indices)] * 4
        for i, row in zip(indices, zip(rho.tolist(), tau.tolist(), *flags)):
            stats[i] = row
    rows = []
    for hl, (present, top10, ranks), row in zip(hitlists, matches, stats):
        n = len(ranks)
        rows.append(QueryEvaluation(hl.query_id, present / n, top10 / min(10, n), *row))
    averages = AverageRow(
        **{col: sum(getattr(r, col) for r in rows) / count for col in _REPORT_COLUMNS[1:]}
    )
    return EvalReport(tuple(rows), averages)


_REPORT_COLUMNS = tuple(field.name for field in fields(QueryEvaluation))


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
    # The dataclasses hold only flat scalars, so their field dicts serialise as they are.
    write_json(path, {
        "queries": [vars(row) for row in report.queries],
        "averages": vars(report.averages),
    })


def read_ground_truth_csv(path: str | Path) -> list[GroundTruth]:
    """Read ``query_id,rank,doc_id`` rows (rank ascending from 1 per query)."""
    return read_ranked_csv(
        path, ("query_id", "rank", "doc_id"),
        lambda query_id, rows: GroundTruth(query_id, tuple(r[2] for r in rows)),
    )
