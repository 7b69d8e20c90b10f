"""Corpus management and exhaustive ranked retrieval.

A corpus is a directory of Strict Content MathML files, one expression per
file, loaded all-or-nothing.  Retrieval scores every document against the
query (no index; corpora here are desk scale) and returns a truncated,
deterministically ordered hit list.
"""

from __future__ import annotations

import csv
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .mathml import ExprTree, FormulaClass, classify, parse_expression
from .metric import DEFAULT_COMMUTATIVE, MetricParams, SymbolConfig, _SimContext, score_document

CORPUS_EXTENSIONS = (".xml", ".mathml")


class CorpusLoadError(ValueError):
    """Raised when a corpus directory cannot be loaded in full."""


@dataclass(frozen=True)
class DocumentRecord:
    doc_id: str
    source_path: str
    tree: ExprTree
    formula_class: FormulaClass


@dataclass(frozen=True)
class Query:
    query_id: str
    tree: ExprTree


@dataclass(frozen=True)
class HitList:
    """Ranked retrieval results: (doc_id, score) pairs, best first."""

    query_id: str
    hits: tuple[tuple[str, float], ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"hit list size must be >= 1, got {self.n}")
        if len(self.hits) > self.n:
            raise ValueError(f"hit list longer ({len(self.hits)}) than its limit {self.n}")
        scores = [s for _, s in self.hits]
        if not all(map(math.isfinite, scores)):
            raise ValueError(f"hit list for {self.query_id!r} has a non-finite score")
        if any(a < b for a, b in zip(scores, scores[1:])):
            raise ValueError(f"hit list for {self.query_id!r} has increasing scores")
        ids = [d for d, _ in self.hits]
        if len(set(ids)) != len(ids):
            raise ValueError(f"hit list for {self.query_id!r} repeats a document id")

    def doc_ids(self) -> tuple[str, ...]:
        return tuple(d for d, _ in self.hits)


def _discover(directory: str | Path) -> list[tuple[str, Path]]:
    root = Path(directory)
    if not root.is_dir():
        raise CorpusLoadError(f"not a directory: {root}")
    found = []
    for path in root.rglob("*"):
        if path.is_file() and path.suffix.lower() in CORPUS_EXTENSIONS:
            rel = path.relative_to(root)
            found.append((rel.with_suffix("").as_posix(), path))
    found.sort(key=lambda pair: pair[0])
    return found


def _parse_all(entries: list[tuple[str, Path]], what: str) -> list[tuple[str, Path, ExprTree]]:
    if not entries:
        raise CorpusLoadError(f"empty {what}: no .xml or .mathml files found")
    seen: dict[str, Path] = {}
    for doc_id, path in entries:
        if doc_id in seen:
            raise CorpusLoadError(
                f"duplicate id {doc_id!r} from {seen[doc_id]} and {path}"
            )
        seen[doc_id] = path
    parsed = []
    failures = []
    # One hash-consing table per load: equal subtrees of different files
    # become one object, and the table goes when the load returns.
    intern: dict = {}
    for doc_id, path in entries:
        try:
            text = path.read_text(encoding="utf-8")
            parsed.append((doc_id, path, parse_expression(text, intern)))
        except (OSError, ValueError) as exc:
            failures.append(f"{path}: {exc}")
    if failures:
        raise CorpusLoadError(
            f"failed to load {len(failures)} of {len(entries)} {what} files:\n  "
            + "\n  ".join(failures)
        )
    return parsed


def load_corpus(
    directory: str | Path, symbols: SymbolConfig = SymbolConfig()
) -> list[DocumentRecord]:
    """Parse and classify every expression file under ``directory``.

    Document ids are relative paths without the extension, in lexicographic
    order.  Any unreadable or unparsable file fails the whole load, naming
    the offending files.
    """
    return [
        DocumentRecord(doc_id, str(path), tree, classify(tree, symbols.equality, symbols.inequality))
        for doc_id, path, tree in _parse_all(_discover(directory), "corpus")
    ]


def load_queries(directory: str | Path) -> list[Query]:
    """Parse every query expression file under ``directory``."""
    return [
        Query(query_id, tree)
        for query_id, _, tree in _parse_all(_discover(directory), "query set")
    ]


def search(
    query: ExprTree,
    corpus: Sequence[DocumentRecord],
    params: MetricParams,
    n: int,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
    query_id: str = "query",
    *,
    context: _SimContext | None = None,
) -> HitList:
    """Exhaustively score the corpus and keep the ``n`` best documents.

    Ordering is total: descending score, then ascending doc_id, so equal
    inputs always produce identical hit lists.  Every document is scored
    through one context, so subtrees the documents share are scored once;
    pass ``context`` to share it with other searches at the same parameters.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not corpus:
        raise ValueError("cannot search an empty corpus")
    if context is None:
        context = _SimContext(params, commutative)
    elif context.params != params or context.commutative != commutative:
        raise ValueError("scoring context was built for other parameters")
    scored = [
        (
            record.doc_id,
            score_document(
                query, record.tree, record.formula_class, params, commutative, context=context
            ),
        )
        for record in corpus
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return HitList(query_id, tuple(scored[:n]), n)


def _search_task(args, context: _SimContext | None = None) -> HitList:
    query, corpus, params, n, commutative = args
    return search(
        query.tree, corpus, params, n, commutative, query_id=query.query_id, context=context
    )


def batch_search(
    queries: Sequence[Query],
    corpus: Sequence[DocumentRecord],
    params: MetricParams,
    n_per_query: Mapping[str, int],
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
    jobs: int = 1,
) -> list[HitList]:
    """One hit list per query; every query id must have an entry in ``n_per_query``.

    Run serially, all queries share one scoring context; with ``jobs > 1``
    each query is a pool task with a context of its own.
    """
    missing = [q.query_id for q in queries if q.query_id not in n_per_query]
    if missing:
        raise ValueError(f"no hit-list size configured for queries: {', '.join(sorted(missing))}")
    tasks = [(q, corpus, params, n_per_query[q.query_id], commutative) for q in queries]
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_search_task, tasks))
    context = _SimContext(params, commutative)
    return [_search_task(t, context) for t in tasks]


def write_hitlists_csv(hitlists: Sequence[HitList], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "rank", "doc_id", "score"])
        for hl in hitlists:
            for rank, (doc_id, score) in enumerate(hl.hits, start=1):
                writer.writerow([hl.query_id, rank, doc_id, repr(score)])


def write_hitlists_json(hitlists: Sequence[HitList], path: str | Path) -> None:
    payload = [
        {
            "query_id": hl.query_id,
            "n": hl.n,
            "hits": [{"doc_id": d, "score": s} for d, s in hl.hits],
        }
        for hl in hitlists
    ]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def read_hitlists_csv(path: str | Path) -> list[HitList]:
    """Read hit lists in the emitted CSV schema, e.g. from an external engine."""
    by_query: dict[str, list[tuple[int, str, float]]] = {}
    order: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["query_id", "rank", "doc_id", "score"]:
            raise ValueError(f"{path}: expected header query_id,rank,doc_id,score, got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise ValueError(f"{path}: malformed row {row!r}")
            query_id, rank_text, doc_id, score_text = row
            if query_id not in by_query:
                by_query[query_id] = []
                order.append(query_id)
            by_query[query_id].append((int(rank_text), doc_id, float(score_text)))
    hitlists = []
    for query_id in order:
        rows = sorted(by_query[query_id])
        if [r for r, _, _ in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{path}: ranks for {query_id!r} are not 1..{len(rows)}")
        hits = tuple((doc_id, score) for _, doc_id, score in rows)
        try:
            hitlists.append(HitList(query_id, hits, len(hits)))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return hitlists
