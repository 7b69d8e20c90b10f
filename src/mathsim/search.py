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
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .engine import NodeTable, similarities
from .mathml import ExprTree, FormulaClass, classify, parse_expression
# score_document stays bound here: the benchmark's tracer wraps it in this module.
from .metric import DEFAULT_COMMUTATIVE, MetricParams, SymbolConfig, score_document

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


class Corpus(tuple):
    """The records of one load, in id order, with their compiled node table.

    The table is built on the first search and kept with the records, so a
    load pays for it at most once.  Searches also accept a plain sequence of
    records, compiled afresh on every call.
    """

    @cached_property
    def table(self) -> NodeTable:
        return NodeTable([record.tree for record in self])


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


def load_corpus(directory: str | Path, symbols: SymbolConfig = SymbolConfig()) -> Corpus:
    """Parse and classify every expression file under ``directory``.

    Document ids are relative paths without the extension, in lexicographic
    order.  Any unreadable or unparsable file fails the whole load, naming
    the offending files.
    """
    return Corpus(
        DocumentRecord(doc_id, str(path), tree, classify(tree, symbols.equality, symbols.inequality))
        for doc_id, path, tree in _parse_all(_discover(directory), "corpus")
    )


def load_queries(directory: str | Path) -> Corpus:
    """Parse every query expression file under ``directory``."""
    return Corpus(
        Query(query_id, tree)
        for query_id, _, tree in _parse_all(_discover(directory), "query set")
    )


def _table(records: Sequence) -> NodeTable:
    return records.table if isinstance(records, Corpus) else NodeTable([r.tree for r in records])


def _scores(
    queries: Sequence[Query],
    corpus: Sequence[DocumentRecord],
    params: MetricParams,
    commutative: frozenset[tuple[str, str]],
) -> list[list[float]]:
    """``score_document`` of every query against every document, as floats."""
    compiled, docs = _table(queries), _table(corpus)
    sims = similarities(docs, compiled, params, commutative)[np.ix_(compiled.roots, docs.roots)]
    weights = np.array([params.weight_for(d.formula_class) for d in corpus])
    return (sims * weights).tolist()


def _ranked(query_id: str, corpus: Sequence[DocumentRecord], scores: list[float], n: int) -> HitList:
    scored = sorted(zip((d.doc_id for d in corpus), scores), key=lambda pair: (-pair[1], pair[0]))
    return HitList(query_id, tuple(scored[:n]), n)


def _check_search(corpus: Sequence[DocumentRecord], n: int) -> None:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not corpus:
        raise ValueError("cannot search an empty corpus")


def search(
    query: ExprTree,
    corpus: Sequence[DocumentRecord],
    params: MetricParams,
    n: int,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
    query_id: str = "query",
) -> HitList:
    """Exhaustively score the corpus and keep the ``n`` best documents.

    Ordering is total: descending score, then ascending doc_id, so equal
    inputs always produce identical hit lists.  Scores are those of
    :func:`score_document`, computed for all documents at once.
    """
    _check_search(corpus, n)
    scores = _scores([Query(query_id, query)], corpus, params, commutative)[0]
    return _ranked(query_id, corpus, scores, n)


def batch_search(
    queries: Sequence[Query],
    corpus: Sequence[DocumentRecord],
    params: MetricParams,
    n_per_query: Mapping[str, int],
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
) -> list[HitList]:
    """One hit list per query; every query id must have an entry in ``n_per_query``.

    All queries are scored in one pass, so subtrees they share are scored once.
    """
    missing = [q.query_id for q in queries if q.query_id not in n_per_query]
    if missing:
        raise ValueError(f"no hit-list size configured for queries: {', '.join(sorted(missing))}")
    for q in queries:
        _check_search(corpus, n_per_query[q.query_id])
    if not queries:
        return []
    scores = _scores(queries, corpus, params, commutative)
    return [
        _ranked(q.query_id, corpus, row, n_per_query[q.query_id])
        for q, row in zip(queries, scores)
    ]


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
                raise ValueError(f"{path}, line {reader.line_num}: malformed row {row!r}")
            query_id, rank_text, doc_id, score_text = row
            try:
                rank, score = int(rank_text), float(score_text)
            except ValueError:
                raise ValueError(
                    f"{path}, line {reader.line_num}: rank {rank_text!r} or score "
                    f"{score_text!r} is not a number"
                ) from None
            if query_id not in by_query:
                by_query[query_id] = []
                order.append(query_id)
            by_query[query_id].append((rank, doc_id, score))
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
