"""Every output file is written through one writer, whole or not at all.

``metric.write_output`` writes to a new file beside the target and renames
it over the target, so a failure at any point leaves the previous file as it
was and no temporary file behind; ``metric.write_json`` holds the one JSON
spelling.  Each public writer, and the critical-value cache, goes through
them; a scan of the sources keeps it that way.
"""

import ast
import errno
import os
import stat
from pathlib import Path

import pytest

from mathsim import evaluation, metric, optimizer, search
from mathsim.evaluation import AverageRow, CriticalValueTable, EvalReport, QueryEvaluation
from mathsim.metric import write_json, write_output
from mathsim.optimizer import GenerationRecord, OptimizationRun, SweepStep, XValReport, XValRow
from mathsim.search import HitList

from helpers import make_params

SRC = Path(metric.__file__).resolve().parent
AVERAGES = AverageRow(0.5, 0.25, 0.125, -0.5, 1.0, 0.0, 0.5, 0.0)
REPORT = EvalReport((QueryEvaluation("q1", 0.5, 0.25, 0.125, -0.5, True, False, True, False),),
                    AVERAGES)
RUN = OptimizationRun(
    "linear",
    (GenerationRecord(0, make_params(), 1.5, AVERAGES, (SweepStep("omega", 2.5, 1.25),)),),
    True,
)
XVAL = XValReport((XValRow("linear", "all", 0.5, 0.25, 0.125, -0.5),), ("q1",), ("q2",))
HITS = [HitList("q1", (("a", 0.9), ("b,c", 0.5)), 2), HitList("q2", (("d", 1.0),), 3)]

# Each writer, as a call that writes one file at the given path.
WRITERS = {
    "write_output": lambda path: write_output(path, "text\r\nζ\n"),
    "write_json": lambda path: write_json(path, {"a": [1, 2.5, None]}),
    "save_params": lambda path: metric.save_params(make_params(), path),
    "write_report_json": lambda path: evaluation.write_report_json(REPORT, path),
    "critical_value_cache": lambda path: CriticalValueTable(seed=3, cache_path=path).fill([4]),
    "write_run_json": lambda path: optimizer.write_run_json(RUN, path),
    "write_xval_json": lambda path: optimizer.write_xval_json(XVAL, path),
    "write_hitlists_csv": lambda path: search.write_hitlists_csv(HITS, path),
    "write_hitlists_json": lambda path: search.write_hitlists_json(HITS, path),
}


@pytest.mark.parametrize("text", ["", "a\nb\r\nc\r", "ζ ∑ \u2028\n"], ids=["empty", "line-ends", "non-ascii"])
def test_text_written_as_given_in_utf8(tmp_path, text):
    path = tmp_path / "out.txt"
    path.write_text("a longer previous file\n" * 10)
    write_output(path, text)
    assert path.read_bytes() == text.encode("utf-8")
    assert sorted(tmp_path.iterdir()) == [path]


def test_json_is_indented_by_two_with_a_final_newline(tmp_path):
    path = tmp_path / "out.json"
    write_json(str(path), {"b": [1], "a": "ζ"})
    assert path.read_text(encoding="utf-8") == '{\n  "b": [\n    1\n  ],\n  "a": "\\u03b6"\n}\n'


@pytest.mark.parametrize("writer", WRITERS)
def test_failed_rename_leaves_the_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "out"
    path.write_bytes(b"previous\n")

    def failing_replace(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), src, None, dst)

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError) as raised:
        WRITERS[writer](path)
    # The error names the output, not the temporary file the rename started from.
    assert (raised.value.errno, raised.value.filename, raised.value.filename2) == (
        errno.ENOSPC, str(path), None)
    assert path.read_bytes() == b"previous\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_failed_encoding_mid_write_leaves_the_previous_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"previous\n")
    # The new file is open when the lone surrogate fails to encode.
    with pytest.raises(UnicodeEncodeError):
        write_output(path, "x" * 100_000 + "\ud800")
    assert path.read_bytes() == b"previous\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_unserialisable_payload_leaves_the_previous_file(tmp_path):
    path = tmp_path / "out.json"
    path.write_bytes(b"previous\n")
    with pytest.raises(TypeError):
        write_json(path, {"a": 1, "b": object()})
    assert path.read_bytes() == b"previous\n"
    assert sorted(tmp_path.iterdir()) == [path]


def test_interrupted_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"

    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        write_output(path, "text\n")
    assert list(tmp_path.iterdir()) == []


def test_directory_in_the_way_is_named(tmp_path):
    path = tmp_path / "report.json"
    path.mkdir()
    with pytest.raises(IsADirectoryError) as raised:
        write_json(path, {})
    assert str(raised.value) == f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{path}'"
    assert list(tmp_path.iterdir()) == [path] and list(path.iterdir()) == []


@pytest.mark.parametrize("writer", WRITERS)
def test_file_mode_is_what_a_plain_open_gives(tmp_path, writer):
    # A umask that leaves group and other read, so an owner-only file shows.
    umask = os.umask(0o022)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        WRITERS[writer](tmp_path / "out")
    finally:
        os.umask(umask)
    mode = stat.S_IMODE((tmp_path / "out").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o644


def _calls(tree: ast.AST):
    """``(enclosing top-level or method name, call)`` for every call in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call):
                    yield node.name, inner


def test_no_output_bypasses_the_writer():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
                found += [(path.name, "import tempfile") for n in names if n == "tempfile"]
        for function, call in _calls(tree):
            name = ast.unparse(call.func)
            where = (path.name, function)
            if name.endswith((".write_text", ".write_bytes")):
                found.append((*where, name))
            if name.split(".")[-1] == "open":
                mode = call.args[1] if len(call.args) > 1 else next(
                    (k.value for k in call.keywords if k.arg == "mode"), ast.Constant("r"))
                writes = not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+")
                if writes and where != ("metric.py", "write_output"):
                    found.append((*where, ast.unparse(call)))
            if name == "os.replace" and where != ("metric.py", "write_output"):
                found.append((*where, name))
            if (name == "json.dumps" and any(k.arg == "indent" for k in call.keywords)
                    and where not in {("metric.py", "write_json"), ("cli.py", "cmd_optimize")}):
                found.append((*where, ast.unparse(call)))
    assert found == []
