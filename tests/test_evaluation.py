import csv
import io
import json
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathsim import evaluation
from mathsim.evaluation import (
    CriticalValueTable,
    GroundTruth,
    evaluate,
    kendall_tau,
    overall_recall,
    read_ground_truth_csv,
    report_to_csv_text,
    spearman_rho,
    top10_recall,
    truth_sizes,
    write_report_json,
)
from mathsim.search import HitList

from helpers import (
    evaluate_pairwise,
    exhaustive_critical_value,
    kendall_tau_pairwise,
    rho_from_ranks_pairwise,
    spearman_rho_pairwise,
    tau_from_ranks_pairwise,
)

# Every (stat, n, level) of the seed-7151 table, as the pairwise sign count
# and squared-difference sum computed them.
GOLDEN_TABLE = Path(__file__).resolve().parent / "critical_values_seed7151.json"


def hits_of(*doc_ids, query_id="q", n=None):
    scored = tuple((doc_id, 1.0 - i * 0.01) for i, doc_id in enumerate(doc_ids))
    return HitList(query_id, scored, n or max(len(scored), 1))


def truth_of(*doc_ids, query_id="q"):
    return GroundTruth(query_id, tuple(doc_ids))


class TestGroundTruth:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            GroundTruth("q", ())

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            GroundTruth("q", ("a", "a"))

    def test_single_item_rejected(self):
        with pytest.raises(ValueError, match="one document"):
            GroundTruth("q", ("a",))

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("query_id,rank,doc_id\nq1,1,a\nq1,2,b\nq2,2,d\nq2,1,c\n")
        truths = read_ground_truth_csv(path)
        assert truths == [GroundTruth("q1", ("a", "b")), GroundTruth("q2", ("c", "d"))]

    def test_csv_single_item_names_file_and_query(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("query_id,rank,doc_id\nq1,1,a\nq1,2,b\nq2,1,c\n")
        with pytest.raises(ValueError, match=r"truth\.csv: ground truth for 'q2' ranks one document"):
            read_ground_truth_csv(path)

    def test_csv_gap_in_ranks_rejected(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("query_id,rank,doc_id\nq1,1,a\nq1,3,b\n")
        with pytest.raises(ValueError, match="ranks"):
            read_ground_truth_csv(path)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "truth.csv"
        path.write_text("q1,1,a\n")
        with pytest.raises(ValueError, match="header"):
            read_ground_truth_csv(path)


class TestTruthSizes:
    def test_sizes_in_query_order(self):
        truths = [truth_of("a", "b", query_id="q1"), truth_of("a", "b", "c", query_id="q2")]
        sizes = truth_sizes(["q2", "q1"], truths)
        assert list(sizes.items()) == [("q2", 3), ("q1", 2)]

    def test_repeated_truth_rejected(self):
        truths = [truth_of("a", "b", query_id="q"), truth_of("x", "y", query_id="q")]
        with pytest.raises(ValueError, match="ground truth for query 'q' given twice"):
            truth_sizes(["q"], truths)

    def test_every_mismatch_named_in_one_error(self):
        truths = [truth_of("a", "b", query_id=q) for q in ("q1", "t2", "t1")]
        with pytest.raises(ValueError) as info:
            truth_sizes(["q1", "q3", "q2"], truths)
        assert str(info.value) == (
            "queries without ground truth: q2, q3; ground truth without queries: t1, t2"
        )


class TestRecall:
    def test_three_of_four(self):
        assert overall_recall(hits_of("a", "b", "c", "x"), truth_of("a", "b", "c", "d")) == 0.75

    def test_identical(self):
        assert overall_recall(hits_of("a", "b"), truth_of("a", "b")) == 1.0

    def test_disjoint(self):
        assert overall_recall(hits_of("x", "y"), truth_of("a", "b")) == 0.0

    def test_top10_small_truth_fully_found(self):
        assert top10_recall(hits_of(*"abcdxyzuvw"), truth_of("a", "b", "c", "d")) == 1.0

    def test_top10_large_truth(self):
        # truth has 20 items; top-10 hits contain 6 of the truth's top 10
        truth = truth_of(*[f"t{i}" for i in range(20)])
        hits = hits_of("t0", "t1", "t2", "t3", "t4", "t5", "x1", "x2", "x3", "x4", n=20)
        assert top10_recall(hits, truth) == 0.6

    def test_top10_disjoint(self):
        assert top10_recall(hits_of("x", "y"), truth_of("a", "b")) == 0.0

    def test_recall_monotone_under_extension(self):
        truth = truth_of("a", "b", "c", "d")
        short = hits_of("a", "x")
        longer = hits_of("a", "x", "b")
        assert overall_recall(longer, truth) >= overall_recall(short, truth)


class TestSpearman:
    def test_identical_order(self):
        assert spearman_rho(hits_of("a", "b", "c"), truth_of("a", "b", "c")) == 1.0

    def test_reversed_order(self):
        assert spearman_rho(hits_of("c", "b", "a"), truth_of("a", "b", "c")) == -1.0

    def test_adjacent_swap_n5(self):
        value = spearman_rho(hits_of("a", "b", "c", "e", "d"), truth_of("a", "b", "c", "d", "e"))
        assert value == pytest.approx(0.9, abs=1e-12)

    def test_too_small(self):
        with pytest.raises(ValueError):
            spearman_rho(hits_of("a"), truth_of("a"))

    def test_missing_items_share_average_rank(self):
        # hits of length 2, truth b and c absent: both get rank 2 + (2+1)/2 = 3.5
        truth = truth_of("a", "b", "c")
        hits = hits_of("a", "x")
        d_sq = (1 - 1) ** 2 + (2 - 3.5) ** 2 + (3 - 3.5) ** 2
        expected = 1 - 6 * d_sq / (3 * 8)
        assert spearman_rho(hits, truth) == pytest.approx(expected, abs=1e-12)

    def test_clamped_to_range_under_heavy_misses(self):
        truth = truth_of("a", "b", "c", "d")
        hits = hits_of("a", "w", "x", "y")
        assert spearman_rho(hits, truth) == -1.0

    def test_tail_extension_never_increases(self):
        truth = truth_of("a", "b", "c", "d")
        base = hits_of("a", "b")
        extended = hits_of("a", "b", "x", "y")
        assert spearman_rho(extended, truth) <= spearman_rho(base, truth)

    def test_relabeling_invariance(self):
        truth = truth_of("a", "b", "c", "d")
        hits = hits_of("b", "a", "x", "d")
        relabel = {"a": "p", "b": "q", "c": "r", "d": "s", "x": "t"}
        truth2 = GroundTruth("q", tuple(relabel[i] for i in truth.ranked_ids))
        hits2 = HitList("q", tuple((relabel[d], s) for d, s in hits.hits), hits.n)
        assert spearman_rho(hits, truth) == spearman_rho(hits2, truth2)


class TestKendall:
    def test_identical_order(self):
        assert kendall_tau(hits_of("a", "b", "c"), truth_of("a", "b", "c")) == 1.0

    def test_reversed_order(self):
        assert kendall_tau(hits_of("c", "b", "a"), truth_of("a", "b", "c")) == -1.0

    def test_adjacent_swap_n4(self):
        value = kendall_tau(hits_of("a", "c", "b", "d"), truth_of("a", "b", "c", "d"))
        assert value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_shared_absent_rank_counts_as_neither(self):
        # c and d both absent: their pair is tied; the other 5 pairs are concordant
        truth = truth_of("a", "b", "c", "d")
        hits = hits_of("a", "b")
        assert kendall_tau(hits, truth) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_tail_extension_never_increases(self):
        truth = truth_of("a", "b", "c", "d")
        assert kendall_tau(hits_of("a", "b", "x"), truth) <= kendall_tau(hits_of("a", "b"), truth)


def _cache_with(key: str, value):
    """A cache damage: the file with ``key`` set to ``value``, in its header for
    ``seed`` and ``samples`` and among its values otherwise."""
    def damage(text: str) -> str:
        data = json.loads(text)
        (data if key in ("seed", "samples") else data["values"])[key] = value
        return json.dumps(data)

    return damage


CACHE_DAMAGE = {
    "truncated": lambda text: text[: len(text) // 2],
    "not_json": lambda text: "\x00\x01",
    "wrong_shape": lambda text: "[1, 2]",
    "nan_value": _cache_with("rho:6:95", float("nan")),
    "infinite_value": _cache_with("rho:6:95", float("inf")),
    "bool_value": _cache_with("rho:6:95", True),
    "string_value": _cache_with("rho:6:95", "0.5"),
    "zero_value": _cache_with("rho:6:95", 0.0),
    "value_above_one": _cache_with("rho:6:95", 1.5),
    "unknown_statistic": _cache_with("median:6:95", 0.5),
    "n_below_table": _cache_with("rho:3:95", 0.5),
    "n_above_table": _cache_with("rho:61:95", 0.5),
    "unknown_level": _cache_with("rho:6:90", 0.5),
    "bool_seed": _cache_with("seed", True),
    "float_samples": _cache_with("samples", float(evaluation.MC_SAMPLES)),
}


class TestCriticalValues:
    def test_invalid_arguments(self, mc_table):
        with pytest.raises(ValueError):
            mc_table.critical_value("median", 10, 95)
        with pytest.raises(ValueError):
            mc_table.critical_value("rho", 3, 95)
        with pytest.raises(ValueError):
            mc_table.critical_value("rho", 61, 95)
        with pytest.raises(ValueError):
            mc_table.critical_value("rho", 10, 90)

    def test_n5_matches_exhaustive_enumeration(self, mc_table):
        assert mc_table.critical_value("rho", 5, 95) == exhaustive_critical_value("rho", 5, 0.05)
        assert mc_table.critical_value("tau", 5, 95) == exhaustive_critical_value("tau", 5, 0.05)

    def test_stricter_level_not_smaller(self, mc_table):
        for stat in ("rho", "tau"):
            for n in (5, 8, 12):
                assert mc_table.critical_value(stat, n, 99) >= mc_table.critical_value(stat, n, 95)

    def test_independent_seed_agrees_closely(self, mc_table):
        other = CriticalValueTable(seed=990011)
        for stat in ("rho", "tau"):
            got = other.critical_value(stat, 10, 95)
            assert abs(got - mc_table.critical_value(stat, 10, 95)) <= 0.02

    def test_table_matches_golden_file(self, mc_table):
        golden = json.loads(GOLDEN_TABLE.read_text(encoding="utf-8"))
        assert golden["seed"] == mc_table.seed and golden["samples"] == evaluation.MC_SAMPLES
        expected = {}
        for key, value in golden["values"].items():
            stat, n, level = key.split(":")
            expected[(stat, int(n), int(level))] = value
        assert len(expected) == 2 * 2 * (evaluation.MAX_TABLE_N - evaluation.MIN_TABLE_N + 1)
        got = {key: mc_table.critical_value(*key) for key in expected}
        assert got == expected

    @pytest.mark.parametrize(
        "which, oracle", [(0, rho_from_ranks_pairwise), (1, tau_from_ranks_pairwise)],
        ids=["rho", "tau"],
    )
    def test_statistics_match_pairwise_oracle(self, which, oracle):
        rng = np.random.default_rng(2024)
        for n in range(evaluation.MIN_TABLE_N, evaluation.MAX_TABLE_N + 1):
            identity = np.arange(1, n + 1, dtype=np.int64)
            sampled = rng.permuted(np.tile(identity, (2000, 1)), axis=1)
            # The identity has no inversions, the reversal all n(n-1)/2; at
            # n = 60 the reversal sets bit 59 of the tau bitmask.
            perms = np.vstack([sampled, identity, identity[::-1]])
            # Like a fill's last block: the first cells of a wider buffer.
            buffer = np.zeros(n * (len(perms) + 37), dtype=np.int64)
            block = buffer[: perms.size].reshape(n, len(perms))
            block[...] = perms.T
            got = evaluation._block_statistics(block)[which]
            assert np.array_equal(got, oracle(perms, n)), n
            assert got[-2] == 1.0 and got[-1] == -1.0, n

    def test_cache_file_round_trip(self, tmp_path):
        cache = tmp_path / "cv.json"
        first = CriticalValueTable(seed=42, cache_path=cache)
        value = first.critical_value("rho", 6, 95)
        assert cache.exists()
        reloaded = CriticalValueTable(seed=42, cache_path=cache)
        assert reloaded._values[("rho", 6, 95)] == value

    def test_cache_ignored_on_seed_mismatch(self, tmp_path):
        cache = tmp_path / "cv.json"
        CriticalValueTable(seed=42, cache_path=cache).critical_value("rho", 6, 95)
        fresh = CriticalValueTable(seed=43, cache_path=cache)
        assert not fresh._values

    @pytest.mark.parametrize("damage", CACHE_DAMAGE)
    def test_unreadable_cache_is_a_miss(self, tmp_path, damage):
        cache = tmp_path / "cv.json"
        # Seed 1, which a header seed of ``true`` would equal under ``==``.
        value = CriticalValueTable(seed=1, cache_path=cache).critical_value("rho", 6, 95)
        cache.write_text(CACHE_DAMAGE[damage](cache.read_text()))
        table = CriticalValueTable(seed=1, cache_path=cache)
        assert not table._values
        assert table.critical_value("rho", 6, 95) == value
        assert json.loads(cache.read_text())["values"]["rho:6:95"] == value

    def test_fill_computes_missing_sizes_and_writes_once(self, tmp_path, cache_writes):
        cache = tmp_path / "cv.json"
        CriticalValueTable(seed=42, cache_path=cache).critical_value("rho", 6, 95)
        table = CriticalValueTable(seed=42, cache_path=cache)
        threads = threading.active_count()
        table.fill([3, 5, 6, 7, 5, 61])
        assert threading.active_count() == threads
        assert cache_writes == [cache, cache]
        # 6 came from the cache; 3 and 61 lie outside the table.
        assert {n for _, n, _ in table._values} == {5, 6, 7}
        assert json.loads(cache.read_text())["values"] == {
            f"{s}:{n}:{lv}": v for (s, n, lv), v in sorted(table._values.items())
        }
        table.fill([5, 6, 7])
        assert cache_writes == [cache, cache]

    def test_cold_fill_memory_is_one_block(self):
        # A fill of n = 60 holds two blocks of permutations (256 KiB each),
        # the kernel's block-sized temporaries and the two statistics' sample
        # arrays (0.8 MiB each); every permutation at once would be 46 MiB.
        table = CriticalValueTable()
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            table.fill([evaluation.MAX_TABLE_N])
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_failed_fill_writes_nothing_and_leaves_no_thread(self, tmp_path, monkeypatch,
                                                             cache_writes):
        real_statistics = evaluation._block_statistics
        calls = []

        def failing_statistics(block):
            calls.append(block.shape)
            if len(calls) == 5:
                raise RuntimeError("kernel failed")
            return real_statistics(block)

        monkeypatch.setattr(evaluation, "_block_statistics", failing_statistics)
        threads = threading.active_count()
        cache = tmp_path / "cv.json"
        table = CriticalValueTable(seed=42, cache_path=cache)
        with pytest.raises(RuntimeError, match="kernel failed"):
            table.fill([6, 60])
        assert len(calls) == 5
        assert cache_writes == [] and not cache.exists()
        assert threading.active_count() == threads

    def test_cache_written_atomically(self, tmp_path, monkeypatch):
        cache = tmp_path / "cv.json"
        CriticalValueTable(seed=42, cache_path=cache).critical_value("rho", 6, 95)
        before = cache.read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(evaluation.os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            CriticalValueTable(seed=42, cache_path=cache).critical_value("rho", 7, 95)
        assert cache.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cv.json"]


class TestEvaluate:
    def test_perfect_single_query(self, mc_table):
        hits = hits_of("a", "b", "c", "d", "e")
        truth = truth_of("a", "b", "c", "d", "e")
        report = evaluate([hits], [truth], mc_table)
        row = report.queries[0]
        assert (row.overall_recall, row.top10_recall, row.rho, row.tau) == (1.0, 1.0, 1.0, 1.0)
        assert row.rho_sig_95 and row.tau_sig_95
        assert report.averages.overall_recall == 1.0

    def test_two_query_average(self, mc_table):
        h1 = hits_of("a", "b", "c", "d", query_id="q1")
        t1 = truth_of("a", "b", "c", "d", query_id="q1")
        h2 = hits_of("a", "b", "x", "y", query_id="q2")
        t2 = truth_of("a", "b", "c", "d", query_id="q2")
        report = evaluate([h1, h2], [t1, t2], mc_table)
        assert report.averages.overall_recall == pytest.approx(0.75)

    def test_unmatched_query_named(self, mc_table):
        with pytest.raises(ValueError, match="mystery"):
            evaluate(
                [hits_of("a", query_id="mystery")], [truth_of("a", "b", query_id="other")], mc_table
            )

    def test_truth_without_hitlist_named(self, mc_table):
        # The AVERAGE row covers every truth, or there is no report.
        truths = [truth_of("a", "b"), truth_of("a", "b", query_id="unsearched")]
        with pytest.raises(ValueError, match="ground truth without queries: unsearched"):
            evaluate([hits_of("a", "b")], truths, mc_table)

    def test_no_hitlists_rejected(self, mc_table):
        with pytest.raises(ValueError, match="nothing to evaluate: no hit lists given"):
            evaluate([], [truth_of("a", "b")], mc_table)

    def test_repeated_truth_rejected(self, mc_table):
        # The second truth used to replace the first without a word.
        truths = [truth_of("a", "b", query_id="q"), truth_of("x", "y", query_id="q")]
        with pytest.raises(ValueError, match="ground truth for query 'q' given twice"):
            evaluate([hits_of("a", "b")], truths, mc_table)

    def test_repeated_hitlist_rejected(self, mc_table):
        # A hit list given twice used to count twice in the averages.
        hits = [hits_of("a", "b"), hits_of("x", "y", query_id="r"), hits_of("b", "a")]
        truths = [truth_of("a", "b"), truth_of("a", "b", query_id="r")]
        with pytest.raises(ValueError, match="hit list for query 'q' given twice"):
            evaluate(hits, truths, mc_table)

    def test_small_truth_skips_significance(self, mc_table):
        report = evaluate([hits_of("a", "b")], [truth_of("a", "b")], mc_table)
        row = report.queries[0]
        assert row.rho == 1.0 and not row.rho_sig_95 and not row.tau_sig_99

    def test_csv_deterministic(self, mc_table):
        hits = [hits_of("a", "b", "c", "d", "e")]
        truths = [truth_of("a", "c", "b", "d", "e")]
        report1 = evaluate(hits, truths, mc_table)
        report2 = evaluate(hits, truths, mc_table)
        assert report_to_csv_text(report1) == report_to_csv_text(report2)

    def test_csv_shape(self, mc_table):
        report = evaluate([hits_of("a", "b", "c", "d")], [truth_of("a", "b", "c", "d")], mc_table)
        text = report_to_csv_text(report)
        lines = text.strip().split("\n")
        assert lines[0].startswith("query_id,overall_recall,top10_recall,rho,tau,rho_sig_95")
        assert len(lines) == 3
        assert lines[-1].startswith("AVERAGE,")

    def test_csv_quotes_awkward_query_id(self, mc_table):
        awkward = 'dir/a,b"c'
        report = evaluate(
            [hits_of("a", "b", query_id=awkward)], [truth_of("a", "b", query_id=awkward)], mc_table
        )
        rows = list(csv.reader(io.StringIO(report_to_csv_text(report))))
        assert [row[0] for row in rows] == ["query_id", awkward, "AVERAGE"]
        assert {len(row) for row in rows} == {9}

    def test_json_written(self, mc_table, tmp_path):
        report = evaluate([hits_of("a", "b", "c", "d")], [truth_of("a", "b", "c", "d")], mc_table)
        path = tmp_path / "report.json"
        write_report_json(report, path)
        assert '"averages"' in path.read_text()


@st.composite
def evaluation_inputs(draw):
    """Hit lists and truths with sizes 2..70, some sizes shared between queries.

    Each hit list keeps all, some or none of its truth, mixed with documents
    outside it, and may be cut short, so several truth items can share the
    absent rank.
    """
    sizes = draw(st.lists(st.integers(2, 70), min_size=1, max_size=3))
    hitlists, truths = [], []
    for k in range(draw(st.integers(1, 5))):
        query_id = f"q{k}"
        n = draw(st.sampled_from(sizes))
        truth = [f"t{i}" for i in range(n)]
        overlap = draw(st.sampled_from(["none", "some", "all"]))
        if overlap == "some":
            kept = [doc for doc in truth if draw(st.booleans())]
        else:
            kept = truth if overlap == "all" else []
        others = [f"x{i}" for i in range(draw(st.integers(0 if kept else 1, 30)))]
        ranked = draw(st.permutations(kept + others))
        ranked = ranked[: draw(st.integers(1, len(ranked)))]
        scored = tuple((doc, 1.0 - i / 128) for i, doc in enumerate(ranked))
        hitlists.append(HitList(query_id, scored, len(scored)))
        truths.append(GroundTruth(query_id, tuple(draw(st.permutations(truth)))))
    return hitlists, truths


class TestArrayPassMatchesPairwise:
    @settings(max_examples=150, deadline=None)
    @given(evaluation_inputs())
    def test_fields_equal_pairwise_oracle(self, mc_table, inputs):
        hitlists, truths = inputs
        report = evaluate(hitlists, truths, mc_table)
        expected = evaluate_pairwise(hitlists, truths, mc_table)
        assert len(report.queries) == len(expected.queries)
        for got, want in zip(report.queries, expected.queries):
            assert vars(got) == vars(want)
            assert all(type(value) is type(vars(want)[f]) for f, value in vars(got).items())
        assert vars(report.averages) == vars(expected.averages)
        for hits, truth in zip(hitlists, truths):
            assert spearman_rho(hits, truth) == spearman_rho_pairwise(hits, truth)
            assert kendall_tau(hits, truth) == kendall_tau_pairwise(hits, truth)
