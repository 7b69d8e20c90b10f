import importlib.util
import random
from pathlib import Path

import pytest

from mathsim import search as search_module
from mathsim.mathml import (
    Apply, FormulaClass, FunctionSymbol, MathMLParseError, Variable, parse_expression,
)
from mathsim.search import (
    CorpusLoadError,
    HitList,
    Query,
    batch_search,
    load_corpus,
    load_queries,
    read_expression,
    read_hitlists_csv,
    search,
    write_hitlists_csv,
    write_hitlists_json,
)

from helpers import make_params

X, Y = Variable("x"), Variable("y")
PLUS = FunctionSymbol("plus", "arith1")


def write_expr(path, body="<ci>x</ci>"):
    path.write_text(f"<math>{body}</math>", encoding="utf-8")


class TestLoadCorpus:
    def test_loads_and_orders(self, tmp_path):
        write_expr(tmp_path / "b.xml")
        write_expr(tmp_path / "a.xml")
        (tmp_path / "sub").mkdir()
        write_expr(tmp_path / "sub" / "c.mathml")
        corpus = load_corpus(tmp_path)
        assert [r.doc_id for r in corpus] == ["a", "b", "sub/c"]

    def test_classification_assigned(self, tmp_path):
        write_expr(
            tmp_path / "eq.xml",
            '<apply><csymbol cd="relation1">eq</csymbol><ci>x</ci><ci>y</ci></apply>',
        )
        corpus = load_corpus(tmp_path)
        assert corpus[0].formula_class is FormulaClass.EQUATION

    def test_empty_directory_rejected(self, tmp_path):
        with pytest.raises(CorpusLoadError, match="empty corpus"):
            load_corpus(tmp_path)

    def test_all_or_nothing_names_bad_file(self, tmp_path):
        for name in "abcde":
            write_expr(tmp_path / f"{name}.xml")
        (tmp_path / "broken.xml").write_text("<math><oops>", encoding="utf-8")
        with pytest.raises(CorpusLoadError, match="broken.xml"):
            load_corpus(tmp_path)

    def test_too_deep_file_named(self, tmp_path):
        write_expr(tmp_path / "a.xml")
        body = "<ci>x</ci>"
        for _ in range(300):
            body = f"<apply><csymbol cd='arith1'>minus</csymbol>{body}</apply>"
        write_expr(tmp_path / "deep.xml", body)
        with pytest.raises(CorpusLoadError, match=r"deep\.xml: expression nested deeper than 128"):
            load_corpus(tmp_path)

    def test_failures_listed_one_per_line(self, tmp_path):
        write_expr(tmp_path / "a.xml")
        (tmp_path / "b.xml").write_text("<math><oops>", encoding="utf-8")
        (tmp_path / "c.xml").write_bytes(b"<math><ci>\xff</ci></math>")
        with pytest.raises(MathMLParseError) as malformed:
            parse_expression("<math><oops>")
        with pytest.raises(UnicodeDecodeError) as undecodable:
            (tmp_path / "c.xml").read_text(encoding="utf-8")
        with pytest.raises(CorpusLoadError) as info:
            load_corpus(tmp_path)
        assert str(info.value) == (
            f"failed to load 2 of 3 corpus files:\n  {tmp_path / 'b.xml'}: {malformed.value}"
            f"\n  {tmp_path / 'c.xml'}: {undecodable.value}"
        )

    def test_missing_directory(self, tmp_path):
        with pytest.raises(CorpusLoadError, match="not a directory"):
            load_corpus(tmp_path / "nowhere")

    def test_colliding_ids_rejected(self, tmp_path):
        write_expr(tmp_path / "a.xml")
        write_expr(tmp_path / "a.mathml")
        with pytest.raises(CorpusLoadError, match="duplicate id 'a'"):
            load_corpus(tmp_path)

    def test_count_preserved(self, bundled_corpus):
        assert len(bundled_corpus) == 42

    def test_load_queries(self, bundled_queries):
        assert len(bundled_queries) == 11
        assert all(q.query_id.startswith("q_") for q in bundled_queries)


class TestReadExpression:
    def test_reads_and_interns(self, tmp_path):
        path = tmp_path / "a.xml"
        write_expr(path, '<apply><csymbol cd="arith1">plus</csymbol><ci>x</ci></apply>')
        table = {}
        tree = read_expression(path, table)
        assert tree == Apply(PLUS, (X,))
        assert read_expression(str(path), table) is tree

    @pytest.mark.parametrize("content,message", [
        (None, "No such file"),
        (b"<math><ci>\xff</ci></math>", "'utf-8' codec can't decode"),
        (b"<math><ci>x</ci>", "malformed XML at byte offset"),
        (b"<math><share/></math>", "unsupported element 'share'"),
    ], ids=["missing", "not-utf8", "malformed", "unsupported"])
    def test_every_failure_is_one_error_naming_the_file(self, tmp_path, content, message):
        path = tmp_path / "bad.xml"
        if content is not None:
            path.write_bytes(content)
        with pytest.raises(MathMLParseError) as info:
            read_expression(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    def test_parses_through_the_search_module(self, monkeypatch, assets_dir):
        # The benchmark's tracer counts parses at search.parse_expression.
        calls = []

        def counted(*args):
            calls.append(args)
            return parse_expression(*args)

        monkeypatch.setattr(search_module, "parse_expression", counted)
        corpus = load_corpus(assets_dir / "corpus")
        read_expression(assets_dir / "queries" / "q_newton.xml")
        assert len(calls) == len(corpus) + 1


class TestHitListInvariants:
    def test_increasing_scores_rejected(self):
        with pytest.raises(ValueError, match="increasing"):
            HitList("q", (("a", 0.1), ("b", 0.9)), 5)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            HitList("q", (("a", 0.9), ("a", 0.9)), 5)

    def test_overlong_rejected(self):
        with pytest.raises(ValueError, match="longer"):
            HitList("q", (("a", 0.9), ("b", 0.8)), 1)

    def test_bad_n_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            HitList("q", (), 0)


class TestSearch:
    def test_identity_document_ranks_first(self, bundled_corpus, bundled_params, bundled_symbols):
        by_id = {r.doc_id: r for r in bundled_corpus}
        newton = by_id["newton"]
        hl = search(newton.tree, bundled_corpus, bundled_params, 5, bundled_symbols.commutative)
        assert hl.hits[0][0] == "newton"
        assert hl.hits[0][1] == pytest.approx(bundled_params.w_eq, abs=1e-9)

    def test_n_larger_than_corpus(self, bundled_corpus, bundled_params):
        hl = search(X, bundled_corpus, bundled_params, 1000)
        assert len(hl.hits) == len(bundled_corpus)

    def test_completeness_each_doc_once(self, bundled_corpus, bundled_params):
        hl = search(X, bundled_corpus, bundled_params, len(bundled_corpus))
        assert sorted(hl.doc_ids()) == sorted(r.doc_id for r in bundled_corpus)

    def test_truncation(self, bundled_corpus, bundled_params):
        hl = search(X, bundled_corpus, bundled_params, 3)
        assert len(hl.hits) == 3

    def test_scores_non_increasing(self, bundled_corpus, bundled_params):
        hl = search(Apply(PLUS, (X, Y)), bundled_corpus, bundled_params, 42)
        scores = [s for _, s in hl.hits]
        assert scores == sorted(scores, reverse=True)

    def test_equal_scores_tie_break_by_doc_id(self, tmp_path):
        for name in ("zz", "aa", "mm"):
            write_expr(tmp_path / f"{name}.xml", "<ci>y</ci>")
        corpus = load_corpus(tmp_path)
        # A plain sequence of records in any order ranks the same way.
        for records in (corpus, list(corpus)[::-1], [corpus[2], corpus[0], corpus[1]]):
            assert search(Y, records, make_params(), 3).doc_ids() == ("aa", "mm", "zz")

    def test_record_order_does_not_change_hits(
        self, bundled_corpus, bundled_params, bundled_queries
    ):
        sizes = {q.query_id: len(bundled_corpus) for q in bundled_queries}
        expected = batch_search(bundled_queries, bundled_corpus, bundled_params, sizes)
        shuffled = list(bundled_corpus)
        random.Random(11).shuffle(shuffled)
        assert batch_search(bundled_queries, shuffled, bundled_params, sizes) == expected
        query = bundled_queries[0]
        assert search(query.tree, shuffled, bundled_params, 7, query_id=query.query_id) == (
            search(query.tree, bundled_corpus, bundled_params, 7, query_id=query.query_id)
        )

    def test_invalid_n(self, bundled_corpus, bundled_params):
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            search(X, bundled_corpus, bundled_params, 0)

    def test_empty_corpus_rejected(self, bundled_params):
        with pytest.raises(ValueError, match="empty"):
            search(X, [], bundled_params, 3)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, False, "3", None])
    def test_non_integer_n_rejected(self, n, bundled_corpus, bundled_params):
        # Before, 2.5 ended in numpy's TypeError and True made a hit list of n=True.
        with pytest.raises(ValueError) as raised:
            search(X, bundled_corpus, bundled_params, n, query_id="q_x")
        assert str(raised.value) == f"hit-list size for 'q_x' must be an integer, got {n!r}"


class TestBatchSearch:
    def test_sizes_respected(self, bundled_corpus, bundled_params, bundled_queries):
        queries = bundled_queries[:2]
        sizes = {queries[0].query_id: 3, queries[1].query_id: 5}
        lists = batch_search(queries, bundled_corpus, bundled_params, sizes)
        assert [len(h.hits) for h in lists] == [3, 5]

    def test_missing_size_rejected(self, bundled_corpus, bundled_params, bundled_queries):
        with pytest.raises(ValueError, match=bundled_queries[0].query_id):
            batch_search(bundled_queries[:1], bundled_corpus, bundled_params, {})

    def test_deterministic(self, bundled_corpus, bundled_params, bundled_queries):
        queries = bundled_queries[:3]
        sizes = {q.query_id: 4 for q in queries}
        first = batch_search(queries, bundled_corpus, bundled_params, sizes)
        second = batch_search(queries, bundled_corpus, bundled_params, sizes)
        assert first == second

    def test_corpus_order_irrelevant(self, bundled_corpus, bundled_params, bundled_queries):
        queries = bundled_queries[:3]
        sizes = {q.query_id: 4 for q in queries}
        baseline = batch_search(queries, bundled_corpus, bundled_params, sizes)
        shuffled = list(bundled_corpus)
        random.Random(99).shuffle(shuffled)
        assert batch_search(queries, shuffled, bundled_params, sizes) == baseline

    def test_empty_corpus_checked_before_later_sizes(self, bundled_params, bundled_queries):
        first, second = bundled_queries[:2]
        sizes = {first.query_id: 3, second.query_id: 0}
        with pytest.raises(ValueError, match="cannot search an empty corpus"):
            batch_search([first, second], [], bundled_params, sizes)

    @pytest.mark.parametrize("n", [4.0, True])
    def test_non_integer_size_names_its_query(self, n, bundled_corpus, bundled_params, bundled_queries):
        first, second = bundled_queries[:2]
        with pytest.raises(ValueError) as raised:
            batch_search([first, second], bundled_corpus, bundled_params, {first.query_id: 3, second.query_id: n})
        assert str(raised.value) == f"hit-list size for {second.query_id!r} must be an integer, got {n!r}"

    def test_no_queries_needs_no_corpus(self, bundled_params):
        assert batch_search([], [], bundled_params, {}) == []


class TestSearchIsOneQueryBatch:
    @pytest.mark.parametrize("records", ["corpus", "list", "reversed"])
    def test_search_equals_batch_of_one(
        self, bundled_corpus, bundled_params, bundled_symbols, bundled_queries, records
    ):
        corpus = {
            "corpus": bundled_corpus,
            "list": list(bundled_corpus),
            "reversed": list(bundled_corpus)[::-1],
        }[records]
        for query in bundled_queries:
            got = search(query.tree, corpus, bundled_params, 9, bundled_symbols.commutative, query.query_id)
            batch = batch_search([query], corpus, bundled_params, {query.query_id: 9},
                                 bundled_symbols.commutative)
            assert [got] == batch


class TestHitListIO:
    def test_csv_round_trip(self, tmp_path):
        lists = [
            HitList("q1", (("a", 0.9), ("b", 0.5)), 2),
            HitList("q2", (("c", 1.25),), 1),
        ]
        path = tmp_path / "hits.csv"
        write_hitlists_csv(lists, path)
        assert read_hitlists_csv(path) == lists

    def test_json_written(self, tmp_path):
        path = tmp_path / "hits.json"
        write_hitlists_json([HitList("q1", (("a", 0.9),), 1)], path)
        assert '"doc_id": "a"' in path.read_text()

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hits.csv"
        path.write_text("who,what\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            read_hitlists_csv(path)

    def test_bad_ranks_rejected(self, tmp_path):
        path = tmp_path / "hits.csv"
        path.write_text("query_id,rank,doc_id,score\nq1,1,a,0.9\nq1,3,b,0.5\n")
        with pytest.raises(ValueError, match="ranks"):
            read_hitlists_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "hits.csv"
        path.write_text("query_id,rank,doc_id,score\n\nq1,1,a,0.9\n\n\nq1,2,b,0.5\n\n")
        assert read_hitlists_csv(path) == [HitList("q1", (("a", 0.9), ("b", 0.5)), 2)]

    @pytest.mark.parametrize("row", ["q1,2,b", "q1,2,b,0.5,extra"])
    def test_wrong_cell_count_rejected(self, tmp_path, row):
        path = tmp_path / "hits.csv"
        path.write_text(f"query_id,rank,doc_id,score\nq1,1,a,0.9\n{row}\n")
        with pytest.raises(ValueError, match=r"hits\.csv, line 3: malformed row"):
            read_hitlists_csv(path)

    def test_oversized_field_names_file(self, tmp_path):
        path = tmp_path / "hits.csv"
        path.write_text("query_id,rank,doc_id,score\nq1,1," + "a" * 200_000 + ",0.9\n")
        with pytest.raises(ValueError, match=r"hits\.csv: field larger than field limit"):
            read_hitlists_csv(path)


def test_query_fixture_types(bundled_queries):
    assert all(isinstance(q, Query) for q in bundled_queries)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_hitlist_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="non-finite"):
        HitList("q1", (("a", 0.9), ("b", bad)), 2)


def test_non_finite_csv_score_names_file(tmp_path):
    path = tmp_path / "hits.csv"
    path.write_text("query_id,rank,doc_id,score\nq1,1,a,nan\nq1,2,b,0.5\n")
    with pytest.raises(ValueError, match="hits.csv.*non-finite"):
        read_hitlists_csv(path)


def test_traced_names_stay_bound():
    # The benchmark's traced run wraps each entry of TRACE_POINTS in
    # bench/spans.py at the name its caller looks it up by (a module global
    # or a class attribute); a refactor that unbinds one must fail here.
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACE_POINTS
    for owner, attr, _ in spans.TRACE_POINTS:
        assert callable(vars(owner).get(attr)), f"{owner.__name__}.{attr}"


def test_package_does_not_hide_search_module():
    import mathsim

    assert mathsim.search is importlib.import_module("mathsim.search")


def test_scores_are_python_floats(bundled_corpus, bundled_queries, bundled_params, bundled_symbols):
    # write_hitlists_csv writes repr(score), which must not read np.float64(...).
    sizes = {q.query_id: len(bundled_corpus) for q in bundled_queries}
    hitlists = [search(bundled_queries[0].tree, bundled_corpus, bundled_params, 5)]
    hitlists += batch_search(bundled_queries, bundled_corpus, bundled_params, sizes, bundled_symbols.commutative)
    for hitlist in hitlists:
        assert all(type(score) is float for _, score in hitlist.hits)
