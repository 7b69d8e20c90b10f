import ast
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mathsim import cli, optimizer
from mathsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from mathsim.metric import DECAY_KINDS

ASSETS = Path(__file__).resolve().parent.parent / "assets"
REFERENCE_OUT = ASSETS.parent / "out"
# Truth sizes 2..70 and hit lists with full, partial and no overlap, some
# shorter and some longer than their truth; report.csv and report.json are
# what the per-query pairwise evaluation wrote for them.
EVALUATE_GOLDEN = Path(__file__).resolve().parent / "data" / "evaluate_golden"


def nested_minus(depth):
    body = "<ci>x</ci>"
    for _ in range(depth):
        body = f"<apply><csymbol cd='arith1'>minus</csymbol>{body}</apply>"
    return body


def write_config(tmp_path, **overrides):
    tiny_space = {
        "order": ["omega", "zeta"],
        "ranges": {
            "omega": {"min": 2.0, "max": 3.0, "step": 0.5},
            "zeta": {"min": 0.0, "max": 0.5, "step": 0.5},
        },
    }
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(tiny_space))
    config = {
        "corpus_dir": str(ASSETS / "corpus"),
        "queries_dir": str(ASSETS / "queries"),
        "truth_file": str(ASSETS / "truth.csv"),
        "params_file": str(ASSETS / "params.json"),
        "space_file": str(space_path),
        "weights": {"overall_recall": 1.0, "top10_recall": 1.0, "rho": 1.0, "tau": 1.0},
        "seeds": {"split_seed": 17, "mc_seed": 7151},
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def forged_truth(tmp_path):
    """The bundled truth plus a query whose quoted id holds a line break."""
    truth = tmp_path / "truth.csv"
    forged = '"q_x\nforged line"'
    truth.write_text((ASSETS / "truth.csv").read_text() + f"{forged},1,newton\n{forged},2,coulomb\n")
    return truth


class TestParseCommand:
    def test_parse_bundled_file(self, capsys):
        code = main(["parse", str(ASSETS / "corpus" / "newton.xml")])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "apply" in out and "relation1:eq" in out
        assert "class: equation" in out

    def test_parse_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<math><nope/></math>")
        assert main(["parse", str(bad)]) == EXIT_DATA
        assert "nope" in capsys.readouterr().err

    def test_parse_too_deep_is_data_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.xml"
        deep.write_text(f"<math>{nested_minus(300)}</math>")
        assert main(["parse", str(deep)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "deep.xml" in err and "nested deeper than 128 levels" in err
        assert "Traceback" not in err

    def test_parse_non_utf8_file_names_it(self, tmp_path, capsys):
        latin = tmp_path / "latin.xml"
        latin.write_bytes(b"<math><ci>\xff</ci></math>")
        assert main(["parse", str(latin)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "latin.xml" in err and "utf-8" in err

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.xml"
        assert main(["parse", str(missing)]) == EXIT_DATA
        # The path once: the OSError's own text would repeat it.
        assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


class TestSearchCommand:
    def test_search_writes_hitlist(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main([
            "search", "--config", str(config),
            "--query", str(ASSETS / "queries" / "q_newton.xml"), "--n", "5",
        ])
        assert code == EXIT_OK
        csv_path = tmp_path / "out" / "hits_q_newton.csv"
        assert csv_path.exists()
        rows = csv_path.read_text().strip().splitlines()
        assert rows[0] == "query_id,rank,doc_id,score"
        assert len(rows) == 6
        assert rows[1].split(",")[2] == "newton"

    def test_search_full_corpus_listing(self, tmp_path):
        config = write_config(tmp_path)
        code = main([
            "search", "--config", str(config),
            "--query", str(ASSETS / "queries" / "q_sum.xml"), "--n", "42",
        ])
        assert code == EXIT_OK
        rows = (tmp_path / "out" / "hits_q_sum.csv").read_text().strip().splitlines()
        assert len(rows) == 43

    def test_bundled_query_reproduces_committed_output(self, tmp_path):
        config = write_config(tmp_path)
        query = str(ASSETS / "queries" / "q_gcd_lcm.xml")
        assert main(["search", "--config", str(config), "--query", query, "--n", "4"]) == EXIT_OK
        for name in ("hits_q_gcd_lcm.csv", "hits_q_gcd_lcm.json"):
            got = (tmp_path / "out" / name).read_bytes()
            assert got == (REFERENCE_OUT / name).read_bytes(), name

    def test_malformed_query_is_data_error(self, tmp_path):
        config = write_config(tmp_path)
        bad = tmp_path / "query.xml"
        bad.write_text("<math><ci>")
        assert main(["search", "--config", str(config), "--query", str(bad)]) == EXIT_DATA

    def test_missing_query_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        missing = tmp_path / "missing.xml"
        assert main(["search", "--config", str(config), "--query", str(missing)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {missing}: ") and "No such file" in err

    def test_non_utf8_query_names_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        latin = tmp_path / "latin.xml"
        latin.write_bytes(b"<math><ci>\xff</ci></math>")
        assert main(["search", "--config", str(config), "--query", str(latin)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "latin.xml" in err and "utf-8" in err

    def test_unlistable_corpus_subdirectory_is_data_error(self, tmp_path, capsys, monkeypatch):
        corpus = tmp_path / "corpus"
        shutil.copytree(ASSETS / "corpus", corpus / "sub")
        shutil.copy(ASSETS / "corpus" / "newton.xml", corpus)
        real_scandir = os.scandir

        def scandir(path):
            if path == str(corpus / "sub"):
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return real_scandir(path)

        monkeypatch.setattr(os, "scandir", scandir)
        config = write_config(tmp_path, corpus_dir=str(corpus))
        query = str(ASSETS / "queries" / "q_newton.xml")
        assert main(["search", "--config", str(config), "--query", query]) == EXIT_DATA
        assert capsys.readouterr().err == (
            f"error: cannot list directory {corpus / 'sub'}: Permission denied\n"
        )

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_non_positive_n_is_usage_error(self, tmp_path, capsys, n):
        config = write_config(tmp_path)
        query = str(ASSETS / "queries" / "q_newton.xml")
        assert main(["search", "--config", str(config), "--query", query, "--n", n]) == EXIT_CONFIG
        assert "argument --n: must be an integer >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out" / "hits_q_newton.csv").exists()


class TestEvaluateCommand:
    def test_internal_evaluation(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        report = (tmp_path / "out" / "report.csv").read_text().strip().splitlines()
        assert len(report) == 13  # header + 11 queries + average
        assert report[-1].startswith("AVERAGE,")
        assert (tmp_path / "out" / "report.json").exists()

    def test_deterministic_reports(self, tmp_path):
        config = write_config(tmp_path)
        main(["evaluate", "--config", str(config)])
        first = (tmp_path / "out" / "report.csv").read_bytes()
        main(["evaluate", "--config", str(config)])
        assert (tmp_path / "out" / "report.csv").read_bytes() == first

    def test_bundled_run_reproduces_committed_output(self, tmp_path):
        config = write_config(tmp_path)
        # The committed table saves a cold critical-value fill.
        (tmp_path / "out").mkdir()
        shutil.copy(REFERENCE_OUT / "critical_values.json", tmp_path / "out")
        assert main(["evaluate", "--config", str(config)]) == EXIT_OK
        for name in ("hitlists.csv", "report.csv", "report.json"):
            got = (tmp_path / "out" / name).read_bytes()
            assert got == (REFERENCE_OUT / name).read_bytes(), name

    def test_external_hitlists_match_golden_reports(self, tmp_path, capsys):
        config = write_config(tmp_path, truth_file=str(EVALUATE_GOLDEN / "truth.csv"))
        # The seed-7151 table, pinned by test_evaluation, saves a cold fill.
        (tmp_path / "out").mkdir()
        shutil.copy(Path(__file__).parent / "critical_values_seed7151.json",
                    tmp_path / "out" / "critical_values.json")
        code = main(["evaluate", "--config", str(config), "--hitlists",
                     str(EVALUATE_GOLDEN / "hitlists.csv")])
        assert code == EXIT_OK
        for name in ("report.csv", "report.json"):
            expected = (EVALUATE_GOLDEN / name).read_bytes()
            assert (tmp_path / "out" / name).read_bytes() == expected, name
        printed = capsys.readouterr().out
        assert printed == (EVALUATE_GOLDEN / "report.csv").read_text(encoding="utf-8")

    def test_deeply_nested_cache_is_rewritten(self, tmp_path):
        # The critical-value cache is a miss, not a traceback, whatever it holds.
        config = write_config(tmp_path)
        (tmp_path / "out").mkdir()
        cache = tmp_path / "out" / "critical_values.json"
        cache.write_text("[" * 100_000)
        code = main(["evaluate", "--config", str(config), "--hitlists",
                     str(REFERENCE_OUT / "hitlists.csv")])
        assert code == EXIT_OK
        assert cache.read_bytes() == (REFERENCE_OUT / "critical_values.json").read_bytes()

    def test_unwritable_report_is_data_error_naming_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "out"
        (out / "report.json").mkdir(parents=True)
        shutil.copy(REFERENCE_OUT / "critical_values.json", out)
        assert main(["evaluate", "--config", str(config)]) == EXIT_DATA
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}"
        assert capsys.readouterr().err == f"error: {reason}: '{out / 'report.json'}'\n"
        assert list(out.glob("*.tmp")) == [] and list((out / "report.json").iterdir()) == []

    def test_external_hitlists_path(self, tmp_path):
        config = write_config(tmp_path)
        main(["evaluate", "--config", str(config)])
        external = tmp_path / "out" / "hitlists.csv"
        assert external.exists()
        code = main(["evaluate", "--config", str(config), "--hitlists", str(external)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_hitlist_score_is_data_error(self, tmp_path, capsys, bad):
        config = write_config(tmp_path)
        external = tmp_path / "bad_hits.csv"
        external.write_text(
            f"query_id,rank,doc_id,score\nq_newton,1,newton,{bad}\nq_newton,2,coulomb,0.5\n"
        )
        code = main(["evaluate", "--config", str(config), "--hitlists", str(external)])
        assert code == EXIT_DATA
        assert "bad_hits.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("rank,score", [("1", "abc"), ("first", "0.9")])
    def test_non_numeric_hitlist_field_is_data_error(self, tmp_path, capsys, rank, score):
        config = write_config(tmp_path)
        external = tmp_path / "bad_hits.csv"
        external.write_text(
            f"query_id,rank,doc_id,score\nq_newton,2,coulomb,0.5\nq_newton,{rank},newton,{score}\n"
        )
        code = main(["evaluate", "--config", str(config), "--hitlists", str(external)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        bad = "score 'abc' is not a number" if score == "abc" else "rank 'first' is not an integer"
        assert "bad_hits.csv, line 3" in err and bad in err

    def test_non_numeric_truth_rank_is_data_error(self, tmp_path, capsys):
        truth = tmp_path / "truth.csv"
        lines = (ASSETS / "truth.csv").read_text().strip().splitlines()
        lines[2] = lines[2].replace(",2,", ",two,", 1)
        truth.write_text("\n".join(lines) + "\n")
        config = write_config(tmp_path, truth_file=str(truth))
        hitlists = tmp_path / "hits.csv"
        hitlists.write_text("query_id,rank,doc_id,score\nq_newton,1,newton,0.9\n")
        code = main(["evaluate", "--config", str(config), "--hitlists", str(hitlists)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "truth.csv, line 3" in err and "'two' is not an integer" in err

    def test_non_utf8_truth_names_it(self, tmp_path, capsys):
        truth = tmp_path / "latin_truth.csv"
        truth.write_bytes((ASSETS / "truth.csv").read_bytes() + b"q_newton,9,caf\xe9\n")
        config = write_config(tmp_path, truth_file=str(truth))
        assert main(["evaluate", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "latin_truth.csv" in err and "utf-8" in err and "Traceback" not in err

    def test_non_utf8_hitlists_names_it(self, tmp_path, capsys):
        config = write_config(tmp_path)
        hitlists = tmp_path / "latin_hits.csv"
        hitlists.write_bytes(b"query_id,rank,doc_id,score\nq_newton,1,\xff,0.9\n")
        code = main(["evaluate", "--config", str(config), "--hitlists", str(hitlists)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "latin_hits.csv" in err and "utf-8" in err and "Traceback" not in err

    def test_missing_truth_is_data_error(self, tmp_path, capsys):
        truncated = tmp_path / "truth.csv"
        lines = (ASSETS / "truth.csv").read_text().strip().splitlines()
        kept = [line for line in lines if not line.startswith("q_newton,")]
        truncated.write_text("\n".join(kept) + "\n")
        config = write_config(tmp_path, truth_file=str(truncated))
        assert main(["evaluate", "--config", str(config)]) == EXIT_DATA
        assert "q_newton" in capsys.readouterr().err

    def test_hitlist_without_truth_is_data_error(self, tmp_path, capsys):
        config = write_config(tmp_path)
        external = tmp_path / "hits.csv"
        external.write_text(
            "query_id,rank,doc_id,score\nq_newton,1,newton,0.9\nq_unknown,1,newton,0.9\n"
        )
        code = main(["evaluate", "--config", str(config), "--hitlists", str(external)])
        assert code == EXIT_DATA
        assert "q_unknown" in capsys.readouterr().err

    def test_truth_without_hitlist_is_data_error(self, tmp_path, capsys):
        # Every truth needs a hit list, or AVERAGE would cover only some queries.
        config = write_config(tmp_path)
        external = tmp_path / "hits.csv"
        external.write_text(
            "query_id,rank,doc_id,score\nq_newton,1,newton,0.9\nq_newton,2,coulomb,0.5\n"
        )
        code = main(["evaluate", "--config", str(config), "--hitlists", str(external)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert "ground truth without queries" in err and "q_gcd_lcm" in err
        assert not (tmp_path / "out" / "report.json").exists()


    def test_line_break_in_a_truth_id_stays_on_one_line(self, tmp_path, capsys):
        # A quoted CSV cell may hold a line break; the data error escapes it.
        config = write_config(tmp_path, truth_file=str(forged_truth(tmp_path)))
        assert main(["evaluate", "--config", str(config)]) == EXIT_DATA
        line, = capsys.readouterr().err.splitlines()
        assert line == "error: ground truth without queries: q_x\\nforged line"


class TestOptimizeCommand:
    def test_optimize_writes_runs_and_summary(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        out = tmp_path / "out"
        for kind in ("exponential", "linear", "quadratic", "logarithmic"):
            assert (out / f"optimize_{kind}.json").exists()
        summary = json.loads((out / "optimize_summary.json").read_text())
        assert summary["best_model"] in ("exponential", "linear", "quadratic", "logarithmic")
        assert (out / "best_params.json").exists()

    def test_generation_cap_warns_per_model(self, tmp_path, capsys, monkeypatch):
        # One core runs the models in this process, where the cap of 1 holds:
        # a run needs two generations to converge.
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 1)
        monkeypatch.setattr(optimizer, "GENERATION_CAP", 1)
        config = write_config(tmp_path)
        with pytest.warns(UserWarning, match="did not converge within 1 generations"):
            assert main(["optimize", "--config", str(config)]) == EXIT_OK
        err = capsys.readouterr().err
        for kind in DECAY_KINDS:
            assert f"warning: model {kind} hit the generation cap" in err
        summary = json.loads((tmp_path / "out" / "optimize_summary.json").read_text())
        assert not any(model["converged"] for model in summary["models"].values())

    def test_query_without_truth_is_data_error(self, tmp_path, capsys):
        truncated = tmp_path / "truth.csv"
        lines = (ASSETS / "truth.csv").read_text().strip().splitlines()
        kept = [line for line in lines if not line.startswith("q_newton,")]
        truncated.write_text("\n".join(kept) + "\n")
        config = write_config(tmp_path, truth_file=str(truncated))
        assert main(["optimize", "--config", str(config)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "queries without ground truth: q_newton" in err
        assert not (tmp_path / "out" / "optimize_summary.json").exists()

    def test_line_break_in_a_truth_id_stays_on_one_line(self, tmp_path, capsys):
        config = write_config(tmp_path, truth_file=str(forged_truth(tmp_path)))
        assert main(["optimize", "--config", str(config)]) == EXIT_DATA
        line, = capsys.readouterr().err.splitlines()
        assert line == "error: ground truth without queries: q_x\\nforged line"
        assert not (tmp_path / "out" / "optimize_summary.json").exists()

    def test_bundled_run_reproduces_committed_output(self, tmp_path):
        # The reference output: the bundled assets must tune to the committed
        # files byte for byte, from a cold critical-value cache.
        config = write_config(tmp_path, space_file=str(ASSETS / "space.json"))
        assert main(["optimize", "--config", str(config)]) == EXIT_OK
        names = [f"optimize_{kind}.json" for kind in DECAY_KINDS]
        names += ["optimize_summary.json", "best_params.json", "critical_values.json"]
        for name in names:
            got = (tmp_path / "out" / name).read_bytes()
            assert got == (REFERENCE_OUT / name).read_bytes(), name


class TestXvalCommand:
    def test_xval_deterministic_csv(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["xval", "--config", str(config)]) == EXIT_OK
        first = (tmp_path / "out" / "xval.csv").read_bytes()
        assert main(["xval", "--config", str(config)]) == EXIT_OK
        assert (tmp_path / "out" / "xval.csv").read_bytes() == first
        header = first.decode().splitlines()[0]
        assert header == (
            "model,protocol,ave_overall_recall,ave_top10_recall,"
            "ave_rho_correlation,ave_tau_correlation"
        )

    def test_bundled_run_reproduces_committed_output(self, tmp_path):
        config = write_config(tmp_path, space_file=str(ASSETS / "space.json"))
        # The committed table saves a cold critical-value fill.
        (tmp_path / "out").mkdir()
        shutil.copy(REFERENCE_OUT / "critical_values.json", tmp_path / "out")
        assert main(["xval", "--config", str(config)]) == EXIT_OK
        for name in ("xval.csv", "xval.json"):
            got = (tmp_path / "out" / name).read_bytes()
            assert got == (REFERENCE_OUT / name).read_bytes(), name

    def test_seed_override_changes_split(self, tmp_path):
        config = write_config(tmp_path)
        main(["xval", "--config", str(config), "--seed", "1"])
        one = json.loads((tmp_path / "out" / "xval.json").read_text())
        main(["xval", "--config", str(config), "--seed", "2"])
        two = json.loads((tmp_path / "out" / "xval.json").read_text())
        assert one["train_queries"] != two["train_queries"]


class TestTuningPool:
    @pytest.mark.parametrize("command,cores,phases", [("optimize", 8, 1), ("xval", 3, 2)])
    def test_command_runs_every_model_in_one_pool(self, tmp_path, monkeypatch,
                                                  command, cores, phases):
        # A stand-in executor that maps in this process: it starts no worker.
        opened, mapped = [], []

        class Pool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return None

            def map(self, fn, items):
                items = list(items)
                mapped.extend(items)
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        assert main([command, "--config", str(write_config(tmp_path))]) == EXIT_OK
        assert opened == [min(cores, len(DECAY_KINDS))]
        assert mapped == list(DECAY_KINDS) * phases


class TestExitCodes:
    def test_missing_config_file(self, capsys):
        assert main(["search", "--config", "/nope/config.json", "--query", "x"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: cannot read config /nope/config.json: No such file or directory\n"
        )

    def test_params_file_is_a_directory(self, tmp_path, capsys):
        config = write_config(tmp_path, params_file=str(tmp_path))
        assert main(["search", "--config", str(config), "--query", "x"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: bad params file {tmp_path}: Is a directory\n"
        )

    def test_malformed_config_json(self, tmp_path):
        bad = tmp_path / "config.json"
        bad.write_text("{not json")
        assert main(["evaluate", "--config", str(bad)]) == EXIT_CONFIG

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "config.json"
        bad.write_bytes(b'{"corpus_dir": "\xff"}')
        assert main(["evaluate", "--config", str(bad)]) == EXIT_CONFIG
        assert "cannot read config" in capsys.readouterr().err

    def test_config_with_missing_path(self, tmp_path):
        config = write_config(tmp_path, corpus_dir=str(tmp_path / "nowhere"))
        assert main(["evaluate", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("name,reason", [
        ("blocker", "File exists"), ("blocker/sub", "Not a directory"),
    ], ids=["names-a-file", "below-a-file"])
    def test_uncreatable_output_dir_is_config_error(self, tmp_path, capsys, name, reason):
        (tmp_path / "blocker").write_text("")
        output_dir = tmp_path / name
        config = write_config(tmp_path, output_dir=str(output_dir))
        assert main(["evaluate", "--config", str(config)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: configured output_dir cannot be created: {output_dir}: {reason}\n"
        )

    def test_invalid_space_file(self, tmp_path):
        space = tmp_path / "bad_space.json"
        space.write_text(json.dumps({"order": ["mu"], "ranges": {"mu": {"min": 0.0, "max": 0.5, "step": 0.1}}}))
        config = write_config(tmp_path, space_file=str(space))
        assert main(["optimize", "--config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize("key,document", [
        ("params_file", [1, 2]),
        ("params_file", {"delta": "0.3"}),
        ("params_file", {"omega": None}),
        ("params_file", {"commutative": [1]}),
        ("params_file", {"commutative": [["arith1", 5]]}),
        ("params_file", {"equality_symbols": [[True, None]]}),
        ("params_file", {"comutative": [["arith1", "plus"]]}),
        ("space_file", {"ranges": {"omega": {"min": "a", "max": 3.0, "step": 0.5}}}),
        ("space_file", [1]),
        ("space_file", {"ranges": None}),
        ("params_file", {"zeta": float("inf")}),
        ("params_file", {"commutative": "arith1 plus"}),
        ("space_file", {"order": [["zeta"], "omega"]}),
        ("space_file", {"order": [{}, "omega"]}),
    ], ids=["params-list", "delta-string", "omega-null", "commutative-int",
            "commutative-name-int", "equality-bool-null", "misspelt-commutative",
            "range-min-string", "space-list", "ranges-null", "zeta-infinite",
            "commutative-string", "order-entry-list", "order-entry-object"])
    def test_malformed_params_or_space_is_config_error(self, tmp_path, capsys, key, document):
        if isinstance(document, dict):
            base = ASSETS / ("params.json" if key == "params_file" else "space.json")
            document = {**json.loads(base.read_text()), **document}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        config = write_config(tmp_path, **{key: str(bad)})
        assert main(["optimize", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        what = "params" if key == "params_file" else "parameter-space"
        assert err.startswith(f"config error: bad {what} file {bad}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,shown", [
        ("params_file", "unknown keys: bad\\nkey"),
        ("space_file", "no max in the range of bad\\rname"),
        ("weights", "unexpected keyword argument 'bad\\u2028weight'"),
    ], ids=["params-key", "range-name", "weight-name"])
    def test_line_break_in_a_name_stays_on_one_line(self, tmp_path, capsys, key, shown):
        # A name read from a file may hold a line break; the message escapes it.
        if key == "weights":
            config = write_config(tmp_path, weights={"rho": 1.0, "bad\u2028weight": 1.0})
        else:
            base = ASSETS / ("params.json" if key == "params_file" else "space.json")
            document = json.loads(base.read_text())
            if key == "params_file":
                document["bad\nkey"] = 1.0
            else:
                document["ranges"]["bad\rname"] = {"min": 0.0, "step": 0.5}
            bad = tmp_path / "bad.json"
            bad.write_text(json.dumps(document))
            config = write_config(tmp_path, **{key: str(bad)})
        assert main(["optimize", "--config", str(config)]) == EXIT_CONFIG
        line, = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and line.endswith(shown)

    @pytest.mark.parametrize("command,key", [
        ("evaluate", None), ("search", "params_file"), ("optimize", "space_file"),
    ], ids=["config", "params", "space"])
    def test_deeply_nested_json_is_config_error(self, tmp_path, capsys, command, key):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        config = deep if key is None else write_config(tmp_path, **{key: str(deep)})
        argv = [command, "--config", str(config)]
        if command == "search":
            argv += ["--query", str(ASSETS / "queries" / "q_newton.xml")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "nested too deeply to decode" in err

    def test_boolean_param_is_config_error(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**json.loads((ASSETS / "params.json").read_text()), "zeta": True}))
        config = write_config(tmp_path, params_file=str(params))
        query = str(ASSETS / "queries" / "q_newton.xml")
        assert main(["search", "--config", str(config), "--query", query]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad params file {params}: zeta must be a number, got True" in err
        assert not (tmp_path / "out" / "hits_q_newton.csv").exists()

    def test_negative_zero_param_is_config_error(self, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({**json.loads((ASSETS / "params.json").read_text()), "theta": -0.0}))
        config = write_config(tmp_path, params_file=str(params))
        query = str(ASSETS / "queries" / "q_newton.xml")
        assert main(["search", "--config", str(config), "--query", query]) == EXIT_CONFIG
        line, = capsys.readouterr().err.splitlines()
        assert line == f"config error: bad params file {params}: theta=-0.0 outside [0.0, 1.0)"

    @pytest.mark.parametrize("bound", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_space_bound_is_config_error(self, tmp_path, capsys, bound):
        space = json.loads((ASSETS / "space.json").read_text())
        space["ranges"]["zeta"]["max"] = bound
        bad = tmp_path / "bad_space.json"
        bad.write_text(json.dumps(space))
        config = write_config(tmp_path, space_file=str(bad))
        assert main(["optimize", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad parameter-space file {bad}: min, max and step must be finite" in err
        assert err.rstrip().endswith("in the range of zeta")
        assert "Traceback" not in err

    def test_space_range_without_max_names_parameter(self, tmp_path, capsys):
        space = json.loads((ASSETS / "space.json").read_text())
        del space["ranges"]["zeta"]["max"]
        bad = tmp_path / "bad_space.json"
        bad.write_text(json.dumps(space))
        config = write_config(tmp_path, space_file=str(bad))
        assert main(["optimize", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"bad parameter-space file {bad}: no max in the range of zeta" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seeds", [
        {"mc_seed": -1}, {"mc_seed": True}, {"mc_seed": 1.5}, {"mc_seed": "7151"}, [7151],
    ], ids=["negative", "bool", "float", "string", "seeds-list"])
    def test_bad_mc_seed_is_config_error(self, tmp_path, capsys, seeds):
        config = write_config(tmp_path, seeds=seeds)
        assert main(["evaluate", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and str(config) in err
        assert ("seeds.mc_seed" if isinstance(seeds, dict) else "seeds must be an object") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split_seed", [1.5, True, "17", -3],
                             ids=["float", "bool", "string", "negative"])
    def test_bad_split_seed_is_config_error(self, tmp_path, capsys, split_seed):
        config = write_config(tmp_path, seeds={"split_seed": split_seed, "mc_seed": 7151})
        assert main(["evaluate", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and "seeds.split_seed" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-3", "1.5", "x"])
    def test_bad_xval_seed_is_usage_error(self, tmp_path, capsys, seed):
        # random.Random(-3) seeds like Random(3), so -3 would rerun split 3.
        config = write_config(tmp_path)
        assert main(["xval", "--config", str(config), "--seed", seed]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"argument --seed: must be an integer >= 0, got '{seed}'" in err
        assert not (tmp_path / "out" / "xval.json").exists()

    @pytest.mark.parametrize("weights,field", [
        ({"rho": True, "tau": False}, "rho"), ({"tau": "1"}, "tau"),
    ], ids=["bool", "string"])
    def test_non_numeric_weight_is_config_error(self, tmp_path, capsys, weights, field):
        config = write_config(tmp_path, weights=weights)
        assert main(["evaluate", "--config", str(config)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and f"objective weight {field}" in err
        assert "Traceback" not in err

    def test_usage_error_is_config_exit(self):
        assert main(["search", "--no-such-flag"]) == EXIT_CONFIG

    def test_unknown_command(self):
        assert main(["frobnicate"]) == EXIT_CONFIG


def cli_commands() -> list[ast.FunctionDef]:
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")]


def test_commands_never_catch():
    # main alone turns an exception into an exit code.
    commands = cli_commands()
    assert len(commands) == 5
    for command in commands:
        tries = [n for n in ast.walk(command) if isinstance(n, ast.Try)]
        assert tries == [], command.name


def test_commands_search_and_pair_through_the_objective():
    # One pipeline from a query set to its report: SearchObjective searches,
    # and evaluate pairs the hit lists with the truths.
    for command in cli_commands():
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(command) if isinstance(node, ast.Call)}
        assert not called & {"batch_search", "truth_sizes"}, command.name


def test_module_entry_point(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "mathsim.cli", "parse", str(ASSETS / "queries" / "q_sum.xml")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "arith1:plus" in proc.stdout


def test_import_loads_no_network_modules():
    # xml.sax.saxutils imported urllib.request, and with it http, email and ssl:
    # a sixth of the import time of every command.
    code = ("import sys; before = set(sys.modules); import mathsim.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "mathsim.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("urllib", "http", "email", "ssl")] == []
