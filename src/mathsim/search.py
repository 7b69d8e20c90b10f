"""Corpus management and exhaustive ranked retrieval.

A corpus is a directory of Strict Content MathML files, one expression per
file, loaded all-or-nothing: a directory that cannot be listed or a file
that cannot be read or parsed fails the whole load.  Discovery is one
``os.scandir`` walk over plain string paths, which builds each document id
as it goes.  Retrieval scores every document against the query (no index;
corpora here are desk scale) and returns a truncated, deterministically
ordered hit list.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from operator import itemgetter
from typing import Callable, Mapping, Sequence

import numpy as np

from .engine import NodeTable, Plan
# The benchmark's tracer wraps parse_expression and score_document in this module.
from .mathml import ExprTree, FormulaClass, MathMLParseError, classify, parse_expression
from .metric import DEFAULT_COMMUTATIVE, MetricParams, SymbolConfig, score_document

CORPUS_EXTENSIONS = (".xml", ".mathml")
HITLIST_COLUMNS = ("query_id", "rank", "doc_id", "score")
_CLASSES = tuple(FormulaClass)


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

    The table, and a document set's class indices and id ranks, are built
    on the first search and kept with the records, so a load pays for them
    at most once.  A query set also keeps the scoring plan of its last
    search (:class:`engine.Plan`), so every parameter set of a tuning run
    scores through one plan; it is rebuilt when the documents' table or the
    commutative set differs from the last one.  A search given a plain
    sequence of records wraps it in a new ``Corpus``, compiled afresh.
    """

    @cached_property
    def table(self) -> NodeTable:
        return NodeTable([record.tree for record in self])

    @cached_property
    def ranking(self) -> tuple[np.ndarray, np.ndarray]:
        """Each document's index into ``_CLASSES`` and its rank by ``doc_id`` (stable)."""
        classes = np.array([_CLASSES.index(d.formula_class) for d in self], dtype=np.intp)
        by_id = sorted(range(len(self)), key=lambda i: self[i].doc_id)
        id_rank = np.empty(len(self), dtype=np.intp)
        id_rank[by_id] = np.arange(len(self))
        return classes, id_rank

    def plan(self, docs: NodeTable, commutative: frozenset[tuple[str, str]]) -> Plan:
        plan = self.__dict__.get("_plan")
        if plan is None or plan.docs is not docs or plan.commutative != commutative:
            plan = self._plan = Plan(docs, self.table, commutative)
        return plan


def _discover(directory: str | Path) -> list[tuple[str, str]]:
    """``(id, path)`` of every corpus file under ``directory``, sorted by id;
    a symlinked directory is not entered, and one that cannot be listed fails."""
    root = str(Path(directory))
    if not os.path.isdir(root):
        raise CorpusLoadError(f"not a directory: {root}")
    found = []
    # (directory, the prefix of its entries' paths, the prefix of their ids)
    pending = [(root, "" if root == "." else os.path.join(root, ""), "")]
    while pending:
        scanned, prefix, id_prefix = pending.pop()
        try:
            with os.scandir(scanned) as entries:
                for entry in entries:
                    name, path = entry.name, prefix + entry.name
                    if entry.is_dir(follow_symlinks=False):
                        pending.append((path, path + os.sep, id_prefix + name + "/"))
                        continue
                    # A leading dot starts a name, not a suffix: ".xml" has none.  A
                    # symlink counts if it resolves to a file; a broken or looping one does not.
                    dot = name.rfind(".")
                    if (0 < dot < len(name) - 1 and name[dot:].lower() in CORPUS_EXTENSIONS
                            and (os.path.isfile(path) if entry.is_symlink() else entry.is_file())):
                        found.append((id_prefix + name[:dot], path))
        except OSError as exc:
            raise CorpusLoadError(f"cannot list directory {scanned}: {exc.strerror}") from exc
    found.sort(key=itemgetter(0))
    return found


def read_expression(path: str | Path, intern: dict | None = None) -> ExprTree:
    """Parse one UTF-8 MathML file; failing to read, decode or parse it raises one
    :class:`MathMLParseError` whose message starts with ``"{path}: "``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_expression(fh.read(), intern)
    except (OSError, ValueError) as exc:
        # An OSError's text repeats the file name; its strerror does not.
        raise MathMLParseError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc


def _parse_all(entries: list[tuple[str, str]], what: str) -> list[tuple[str, str, ExprTree]]:
    if not entries:
        raise CorpusLoadError(f"empty {what}: no .xml or .mathml files found")
    seen: dict[str, str] = {}
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
            parsed.append((doc_id, path, read_expression(path, intern)))
        except MathMLParseError as exc:
            failures.append(str(exc))
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
        DocumentRecord(doc_id, path, tree, classify(tree, symbols.equality, symbols.inequality))
        for doc_id, path, tree in _parse_all(_discover(directory), "corpus")
    )


def load_queries(directory: str | Path) -> Corpus:
    """Parse every query expression file under ``directory``."""
    return Corpus(
        Query(query_id, tree)
        for query_id, _, tree in _parse_all(_discover(directory), "query set")
    )


def search(
    query: ExprTree,
    corpus: Sequence[DocumentRecord],
    params: MetricParams,
    n: int,
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
    query_id: str = "query",
) -> HitList:
    """Exhaustively score the corpus and keep the ``n`` best documents.

    This is :func:`batch_search` of the one query.  Ordering is total:
    descending score, then ascending doc_id, so equal inputs always produce
    identical hit lists.  Scores are those of :func:`score_document`,
    computed for all documents at once.
    """
    return batch_search(Corpus([Query(query_id, query)]), corpus, params, {query_id: n}, commutative)[0]


def batch_search(
    queries: Sequence[Query],
    corpus: Sequence[DocumentRecord],
    params: MetricParams,
    n_per_query: Mapping[str, int],
    commutative: frozenset[tuple[str, str]] = DEFAULT_COMMUTATIVE,
) -> list[HitList]:
    """One hit list per query; every query id must have an ``int`` entry in ``n_per_query``.

    All queries are scored in one pass, so subtrees they share are scored
    once.  Each query's ``n`` best documents are ordered by descending
    score, then ascending doc_id, whatever the order of the records.
    """
    missing = [q.query_id for q in queries if q.query_id not in n_per_query]
    if missing:
        raise ValueError(f"no hit-list size configured for queries: {', '.join(sorted(missing))}")
    sizes = [n_per_query[q.query_id] for q in queries]
    for query, n in zip(queries, sizes):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"hit-list size for {query.query_id!r} must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not corpus:
            raise ValueError("cannot search an empty corpus")
    if not queries:
        return []
    queries, corpus = (r if isinstance(r, Corpus) else Corpus(r) for r in (queries, corpus))
    classes, id_rank = corpus.ranking
    weights = np.array([params.weight_for(c) for c in _CLASSES])
    scores = queries.plan(corpus.table, commutative)(params) * weights[classes]
    hitlists = []
    for query, row, n in zip(queries, scores, sizes):
        top = np.lexsort((id_rank, -row))[:n]
        hits = zip([corpus[i].doc_id for i in top.tolist()], row[top].tolist())
        hitlists.append(HitList(query.query_id, tuple(hits), n))
    return hitlists


def write_hitlists_csv(hitlists: Sequence[HitList], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HITLIST_COLUMNS)
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


def read_ranked_csv(path: str | Path, columns: tuple[str, ...], build: Callable) -> list:
    """Read a ranked CSV: the header ``columns``, then one row per ranked document.

    The columns are ``query_id,rank,doc_id``, optionally followed by a float
    ``score``; blank rows are skipped.  Rows are grouped by query in
    first-seen order and sorted by rank, which must run 1..n per query, and
    ``build(query_id, rows)`` turns each group into one record.  Every error
    is a ValueError naming the file, and for a bad row its line.
    """
    scored = len(columns) > 3
    groups: dict[str, list[list]] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != list(columns):
                raise ValueError(f"{path}: expected header {','.join(columns)}, got {header}")
            for row in reader:
                if not row:
                    continue
                if len(row) != len(columns):
                    raise ValueError(f"{path}, line {reader.line_num}: malformed row {row!r}")
                try:
                    row[1] = int(row[1])
                    if scored:
                        row[3] = float(row[3])
                except ValueError:
                    bad = (f"rank {row[1]!r} is not an integer" if isinstance(row[1], str)
                           else f"score {row[3]!r} is not a number")
                    raise ValueError(f"{path}, line {reader.line_num}: {bad}") from None
                group = groups.get(row[0])
                if group is None:
                    group = groups[row[0]] = []
                group.append(row)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}") from None
    records = []
    for query_id, rows in groups.items():
        rows.sort(key=itemgetter(1))
        if [row[1] for row in rows] != list(range(1, len(rows) + 1)):
            raise ValueError(f"{path}: ranks for {query_id!r} are not 1..{len(rows)}")
        try:
            records.append(build(query_id, rows))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return records


def read_hitlists_csv(path: str | Path) -> list[HitList]:
    """Read hit lists in the emitted CSV schema, e.g. from an external engine."""
    return read_ranked_csv(
        path, HITLIST_COLUMNS,
        lambda query_id, rows: HitList(query_id, tuple((r[2], r[3]) for r in rows), len(rows)),
    )
