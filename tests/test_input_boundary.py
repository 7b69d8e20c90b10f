"""Property tests of the input boundary: damaged input files end in the one
error type each reader documents, never in another exception.

Each property starts from a bundled file and damages it: flipped characters
or bytes, truncations, renamed elements, changed CSV cells and rows, changed
JSON values.  The approach is that of MacIver and Hatfield-Dodds,
"Hypothesis: A new approach to property-based testing" (JOSS 4(43), 2019).
"""

import contextlib
import csv
import io
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mathsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, ConfigError, load_config, main
from mathsim.evaluation import MC_SAMPLES, CriticalValueTable, read_ground_truth_csv
from mathsim.mathml import MAX_DEPTH, MathMLParseError, height, parse_expression
from mathsim.metric import load_params
from mathsim.optimizer import load_param_space
from mathsim.search import CorpusLoadError, load_corpus, read_expression, read_hitlists_csv

from helpers import parse_expression_recursive

ROOT = Path(__file__).resolve().parent.parent
ASSETS = ROOT / "assets"
MATHML_TEXTS = [p.read_text(encoding="utf-8")
                for d in ("corpus", "queries") for p in sorted((ASSETS / d).glob("*.xml"))]
TAG = re.compile(r"</?([A-Za-z][\w.-]*)")
TAG_NAMES = ["math", "semantics", "annotation", "apply", "bind", "bvar", "csymbol", "ci",
             "cn", "share", "cs", "cerror", "m:apply", "x"]
# Text read from a UTF-8 file holds no lone surrogates; a str given to the
# MathML parser may.
CHARS = st.characters(exclude_categories=["Cs"])
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# JSON a damaged document may hold in place of a value, non-finite numbers included.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10**20) | st.floats() | st.text(CHARS, max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(CHARS, max_size=6), inner, max_size=3)),
    max_leaves=6,
)


@st.composite
def damaged_text(draw, text: str, alphabet=CHARS) -> str:
    """``text`` after one to three flips, truncations, cuts or duplications."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, len(text)))
        kind = draw(st.sampled_from(["flip", "truncate", "cut", "duplicate"]))
        if kind == "flip":
            text = text[:i] + draw(alphabet) + text[i + 1:]
        elif kind == "truncate":
            text = text[:i]
        elif kind == "cut":
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


@st.composite
def renamed_element(draw, text: str) -> str:
    """``text`` with one start or end tag renamed."""
    tags = list(TAG.finditer(text))
    if not tags:
        return text
    tag = draw(st.sampled_from(tags))
    return text[:tag.start(1)] + draw(st.sampled_from(TAG_NAMES)) + text[tag.end(1):]


@st.composite
def nested_near_cap(draw) -> str:
    """A chain of applications and binds whose depth is within a few levels of MAX_DEPTH."""
    body = "<ci>x</ci>"
    for _ in range(draw(st.integers(MAX_DEPTH - 3, MAX_DEPTH + 3))):
        if draw(st.booleans()):
            body = f"<apply><csymbol cd='arith1'>minus</csymbol>{body}</apply>"
        else:
            body = f"<bind><csymbol cd='fns1'>lambda</csymbol><bvar><ci>x</ci></bvar>{body}</bind>"
    return f"<math>{body}</math>"


@st.composite
def damaged_mathml(draw) -> str:
    text = draw(st.sampled_from(MATHML_TEXTS) | nested_near_cap())
    if draw(st.booleans()):
        text = draw(renamed_element(text))
    return draw(damaged_text(text, st.characters())) if draw(st.booleans()) else text


@settings(FUZZ, max_examples=100)
@given(damaged_mathml())
def test_damaged_mathml_raises_only_parse_error(text):
    try:
        tree = parse_expression(text)
    except MathMLParseError:
        return
    assert height(tree) <= MAX_DEPTH


@settings(FUZZ, max_examples=100)
@given(damaged_mathml())
def test_damaged_mathml_parses_as_the_recursive_walk(text):
    try:
        expected = parse_expression_recursive(text)
    except MathMLParseError as exc:
        with pytest.raises(MathMLParseError) as info:
            parse_expression(text)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
    else:
        assert parse_expression(text) == expected


@pytest.fixture(scope="module")
def scratch(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("input_boundary")


def damaged_bytes(data: bytes) -> st.SearchStrategy[bytes]:
    """``data`` with bytes flipped, cut or truncated, so it may not be UTF-8."""
    return damaged_text(data.decode("latin-1"), st.characters(max_codepoint=255)).map(
        lambda text: text.encode("latin-1"))


@FUZZ
@given(data=st.data())
def test_damaged_mathml_file_raises_only_parse_error_naming_it(scratch, data):
    path = scratch / "damaged.xml"
    path.write_bytes(data.draw(damaged_bytes(data.draw(st.sampled_from(MATHML_TEXTS)).encode())))
    try:
        read_expression(path)
    except MathMLParseError as exc:
        assert str(exc).startswith(f"{path}: ")


def unreadable(data: bytes) -> bool:
    """Whether a MathML file holding ``data`` fails to decode or to parse."""
    try:
        parse_expression_recursive(data.decode("utf-8"))
    except (UnicodeDecodeError, MathMLParseError):
        return True
    return False


@settings(FUZZ, max_examples=20)
@given(data=st.data())
def test_corpus_with_damaged_files_fails_naming_each(scratch, data):
    corpus = scratch / "corpus"
    shutil.rmtree(corpus, ignore_errors=True)
    corpus.mkdir()
    texts = data.draw(st.lists(st.sampled_from(MATHML_TEXTS).map(str.encode), min_size=1,
                               max_size=4))
    damaged = data.draw(st.lists(
        st.sampled_from(MATHML_TEXTS).flatmap(lambda text: damaged_bytes(text.encode()))
        .filter(unreadable), min_size=1, max_size=3))
    order = data.draw(st.permutations(range(len(texts) + len(damaged))))
    paths = [corpus / f"f{i}.xml" for i in order]
    for path, content in zip(paths, texts + damaged):
        path.write_bytes(content)
    with pytest.raises(CorpusLoadError) as info:
        load_corpus(corpus)
    head, *lines = str(info.value).split("\n")
    assert head == f"failed to load {len(damaged)} of {len(paths)} corpus files:"
    assert [line.split(": ", 1)[0] for line in lines] == [
        f"  {path}" for path in sorted(paths[len(texts):])]


CELLS = st.sampled_from(["", "0", "1", "2", "-1", "1.5", "nan", "inf", "q_newton", "newton",
                         '"', "a,b", " ", "\x00"]) | st.text(CHARS, max_size=5)


@st.composite
def damaged_rows(draw, text: str) -> bytes:
    """CSV ``text`` with cells changed and rows dropped, repeated, cut or blanked."""
    rows = [line.split(",") for line in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        r = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["cell", "drop_cell", "add_cell", "drop_row",
                                     "repeat_row", "blank_row", "swap_rows"]))
        row = rows[r]
        if kind == "cell" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(CELLS)
        elif kind == "drop_cell" and row:
            row.pop()
        elif kind == "add_cell":
            row.append(draw(CELLS))
        elif kind == "drop_row" and len(rows) > 1:
            rows.pop(r)
        elif kind == "repeat_row":
            rows.insert(r, list(row))
        elif kind == "blank_row":
            rows.insert(r, [])
        else:
            s = draw(st.integers(0, len(rows) - 1))
            rows[r], rows[s] = rows[s], rows[r]
    data = "".join(",".join(row) + "\n" for row in rows).encode("utf-8")
    return draw(damaged_bytes(data)) if draw(st.booleans()) else data


def head(path: Path, lines: int = 12) -> str:
    return "".join((path.read_text(encoding="utf-8").splitlines(keepends=True))[:lines])


TRUTH_TEXT = head(ASSETS / "truth.csv")
HITLISTS_TEXT = head(ROOT / "out" / "hitlists.csv")


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("reader,text", [(read_ground_truth_csv, TRUTH_TEXT),
                                         (read_hitlists_csv, HITLISTS_TEXT)],
                         ids=["truth", "hitlists"])
def test_damaged_csv_raises_only_value_error_naming_it(scratch, data, reader, text):
    path = scratch / f"damaged_{reader.__name__}.csv"
    path.write_bytes(data.draw(damaged_rows(text)))
    try:
        reader(path)
    except ValueError as exc:
        assert str(path) in str(exc)


def keys(node: dict | list) -> list:
    return sorted(node) if isinstance(node, dict) else list(range(len(node)))


@st.composite
def damaged_document(draw, document, pinned=()) -> bytes:
    """JSON ``document`` with values replaced, keys added or removed, or its text damaged.

    A key in ``pinned`` is never replaced or deleted, though the whole
    document may be.
    """
    document = json.loads(json.dumps(document))
    for _ in range(draw(st.integers(1, 3))):
        # A path to a random container inside the document, most often below the top.
        node = document
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            key = draw(st.sampled_from(keys(node)))
            if not isinstance(node[key], (dict, list)) or key in pinned:
                break
            node = node[key]
        if not isinstance(node, (dict, list)) or not node:
            document = draw(json_values)
            continue
        key = draw(st.sampled_from(keys(node)))
        if key in pinned:
            continue
        kind = draw(st.sampled_from(["replace", "delete", "add"]))
        if kind == "replace":
            node[key] = draw(json_values)
        elif kind == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[draw(st.text(CHARS, max_size=6))] = draw(json_values)
        else:
            node.append(draw(json_values))
    data = json.dumps(document).encode("utf-8")
    return data if draw(st.integers(0, 3)) else draw(damaged_bytes(data))


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("loader,name", [(load_params, "params.json"),
                                         (load_param_space, "space.json")],
                         ids=["params", "space"])
def test_damaged_json_raises_only_value_error(scratch, data, loader, name):
    path = scratch / f"damaged_{name}"
    path.write_bytes(data.draw(damaged_document(json.loads((ASSETS / name).read_text()))))
    try:
        loader(path)
    except ValueError:
        pass


@pytest.mark.parametrize("loader", [load_params, load_param_space], ids=["params", "space"])
def test_json_nested_too_deeply_raises_value_error(scratch, loader):
    path = scratch / "deep.json"
    path.write_text("[" * 100_000)
    with pytest.raises(ValueError, match="nested too deeply to decode"):
        loader(path)


@pytest.fixture(scope="module")
def small_run(scratch) -> Path:
    """A config over a three-document corpus, with its own params file."""
    run = scratch / "run"
    (run / "corpus").mkdir(parents=True)
    (run / "queries").mkdir()
    for name in ("newton", "coulomb", "flat_sum"):
        shutil.copy(ASSETS / "corpus" / f"{name}.xml", run / "corpus")
    shutil.copy(ASSETS / "queries" / "q_newton.xml", run / "queries")
    shutil.copy(ASSETS / "params.json", run)
    shutil.copy(ASSETS / "space.json", run)
    (run / "truth.csv").write_text("query_id,rank,doc_id\nq_newton,1,newton\n")
    return run


CONFIG = {"corpus_dir": "corpus", "queries_dir": "queries", "truth_file": "truth.csv",
          "params_file": "params.json", "space_file": "space.json",
          "weights": {"overall_recall": 1.0, "top10_recall": 1.0, "rho": 1.0, "tau": 1.0},
          "seeds": {"split_seed": 17, "mc_seed": 7151}, "output_dir": "out"}
# Path keys keep the values of the small run: a damaged directory could name
# the file system's root, and a damaged output directory a place outside it.
PATH_KEYS = ("corpus_dir", "queries_dir", "truth_file", "params_file", "space_file", "output_dir")


def json_object(data: bytes) -> dict:
    """``data`` read as the CLI reads a config, or {} where it is not an object."""
    try:
        document = json.loads(data.decode("utf-8"))
    except ValueError:
        return {}
    return document if isinstance(document, dict) else {}


@FUZZ
@given(data=st.data())
@pytest.mark.parametrize("damaged", ["config", "params"])
def test_search_on_damaged_file_exits_with_message(small_run, data, damaged):
    config = small_run / "config.json"
    config.write_text(json.dumps(CONFIG))
    params = small_run / "params.json"
    params.write_bytes((ASSETS / "params.json").read_bytes())
    if damaged == "config":
        text = data.draw(damaged_document(CONFIG, pinned=PATH_KEYS))
        assume(not any(CONFIG[key] != value for key, value in json_object(text).items()
                       if key in PATH_KEYS))
        config.write_bytes(text)
    else:
        params.write_bytes(data.draw(damaged_document(json.loads(params.read_text()))))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["search", "--config", str(config),
                     "--query", str(small_run / "queries" / "q_newton.xml"), "--n", "2"])
    if code == EXIT_OK:
        assert out.getvalue().startswith("1\t")
    else:
        assert code in (EXIT_CONFIG, EXIT_DATA)
        assert err.getvalue().startswith("config error: " if code == EXIT_CONFIG else "error: ")


@pytest.fixture(scope="module")
def evaluate_run(scratch) -> Path:
    """A config over the bundled truths, with the committed critical-value table."""
    run = scratch / "evaluate"
    (run / "out").mkdir(parents=True)
    shutil.copy(ROOT / "out" / "critical_values.json", run / "out")
    inputs = {key: str(ASSETS / CONFIG[key]) for key in PATH_KEYS if key != "output_dir"}
    (run / "config.json").write_text(json.dumps({**CONFIG, **inputs}))
    return run


@FUZZ
@given(data=st.data())
def test_evaluate_on_damaged_hitlists_exits_with_message(evaluate_run, data):
    hitlists = evaluate_run / "hitlists.csv"
    hitlists.write_bytes(data.draw(damaged_rows((ROOT / "out" / "hitlists.csv").read_text())))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--config", str(evaluate_run / "config.json"),
                     "--hitlists", str(hitlists)])
    if code == EXIT_OK:
        assert out.getvalue().startswith("query_id,")
    else:
        assert code in (EXIT_CONFIG, EXIT_DATA)
        assert err.getvalue().startswith("config error: " if code == EXIT_CONFIG else "error: ")


# CSV cells of any text but lone surrogates: line breaks, commas and quotes included.
CSV_TEXT = st.text(CHARS, min_size=1, max_size=6)


def csv_bytes(header: list[str], rows: list[list]) -> bytes:
    text = io.StringIO(newline="")
    csv.writer(text).writerows([header, *rows])
    return text.getvalue().encode("utf-8")


@settings(FUZZ, max_examples=30)
@given(data=st.data())
def test_evaluate_on_generated_ids_exits_with_one_line(evaluate_run, data):
    truth_header = data.draw(st.just(["query_id", "rank", "doc_id"]) | st.lists(CSV_TEXT, max_size=4))
    hits_header = data.draw(st.just(["query_id", "rank", "doc_id", "score"]) | st.lists(CSV_TEXT, max_size=5))
    queries = data.draw(st.lists(CSV_TEXT, min_size=1, max_size=3, unique=True))
    docs = data.draw(st.lists(CSV_TEXT, min_size=2, max_size=4, unique=True))
    # A hit list for a query the truth lacks: every example is bad input.
    stray = data.draw(CSV_TEXT.filter(lambda query: query not in queries))
    run = evaluate_run / "generated"
    (run / "out").mkdir(parents=True, exist_ok=True)
    shutil.copy(evaluate_run / "out" / "critical_values.json", run / "out")
    (run / "truth.csv").write_bytes(csv_bytes(truth_header, [
        [query, rank, doc] for query in queries for rank, doc in enumerate(docs, 1)]))
    (run / "hits.csv").write_bytes(csv_bytes(hits_header, [
        [query, rank, doc, 0.5] for query in [*queries, stray] for rank, doc in enumerate(docs, 1)]))
    config = json.loads((evaluate_run / "config.json").read_text())
    (run / "config.json").write_text(json.dumps({**config, "truth_file": "truth.csv"}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["evaluate", "--config", str(run / "config.json"), "--hitlists", str(run / "hits.csv")])
    assert code in (EXIT_CONFIG, EXIT_DATA)
    line, = err.getvalue().splitlines()
    assert line.startswith("config error: " if code == EXIT_CONFIG else "error: ")
    assert out.getvalue() == ""


def rejects(load, path: Path) -> bool:
    """Whether ``load`` refuses the file at ``path`` with its documented error."""
    try:
        load(path)
    except (ValueError, ConfigError):
        return True
    return False


# Each file of the small run that a tuning command reads: its loader and its pristine document.
TUNING_FILES = {
    "config.json": (load_config, CONFIG),
    "params.json": (load_params, json.loads((ASSETS / "params.json").read_text())),
    "space.json": (load_param_space, json.loads((ASSETS / "space.json").read_text())),
}


@settings(FUZZ, max_examples=30)
@given(data=st.data())
@pytest.mark.parametrize("command", ["optimize", "xval"])
def test_tuning_on_damaged_files_exits_with_one_line(small_run, data, command):
    damaged = data.draw(st.sets(st.sampled_from(sorted(TUNING_FILES)), min_size=1))
    for name, (_, document) in TUNING_FILES.items():
        pinned = PATH_KEYS if name == "config.json" else ()
        (small_run / name).write_bytes(data.draw(damaged_document(document, pinned))
                                       if name in damaged else json.dumps(document).encode())
    # Every example is bad input: no tuning run starts.
    assume(any(rejects(TUNING_FILES[name][0], small_run / name) for name in damaged))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--config", str(small_run / "config.json")])
    assert code in (EXIT_CONFIG, EXIT_DATA)
    line, = err.getvalue().splitlines()
    assert line.startswith("config error: " if code == EXIT_CONFIG else "error: ")
    assert out.getvalue() == ""


GOOD_CACHE_KEYS = st.builds("{}:{}:{}".format, st.sampled_from(["rho", "tau"]), st.integers(4, 60),
                            st.sampled_from([95, 99]))
CACHE_VALUES = st.floats(0.0, 1.0, exclude_min=True)
# Keys outside the table, and keys of the table spelt as the cache never writes them.
BAD_CACHE_KEYS = st.sampled_from([
    "rho:06:95", "rho: 6:95", "tau:6_0:99", "rho:+6:95", "rho:\u0666:95", "rho:6:95.0",
    "median:6:95", "rho:3:95", "tau:61:99", "rho:6:90", "rho:6", "rho:6:95:1", "",
]) | st.text(CHARS, max_size=10).filter(lambda text: text.count(":") != 2)
# NaN and the infinities reach the file as the NaN and Infinity tokens.
NOT_CACHE_VALUES = json_values.filter(lambda v: not (type(v) in (int, float) and 0 < v <= 1))


@st.composite
def cache_file(draw) -> tuple[bytes, dict]:
    """A critical-value cache of seed 1 near the real shape, and the entries it should load.

    It is whole, or damaged in its header, a key, a value, its shape or its
    bytes; a damaged file loads nothing.
    """
    good = draw(st.dictionaries(GOOD_CACHE_KEYS, CACHE_VALUES, max_size=4))
    values, header = dict(good), {"seed": 1, "samples": MC_SAMPLES}
    damage = draw(st.sampled_from(["key", "value", "seed", "samples", "shape", "bytes", ""]))
    if damage == "seed":
        header["seed"] = draw(st.sampled_from([True, 1.0, "1", None, 2, [1]]))
    if damage == "samples":
        header["samples"] = draw(st.sampled_from([float(MC_SAMPLES), True, str(MC_SAMPLES), MC_SAMPLES + 1]))
    if damage == "key":
        values[draw(BAD_CACHE_KEYS)] = draw(CACHE_VALUES)
    if damage == "value":
        values[draw(GOOD_CACHE_KEYS)] = draw(NOT_CACHE_VALUES)
    document = {**header, "values": values}
    if damage == "shape":
        document = draw(st.sampled_from([
            [document], {"values": values}, {**header, "values": list(values.items())},
            {**header, "values": json.dumps(values)},
        ]))
    data = (json.dumps(document, indent=2) + "\n").encode()
    if damage == "bytes":
        # Any cut loses the closing bracket; 0xff is never UTF-8.
        cut = draw(st.integers(0, len(data.rstrip()) - 1))
        data = draw(st.sampled_from([data[:cut], data[:cut] + b"\xff" + data[cut:]]))
    if damage:
        return data, {}
    return data, {(stat, int(n), int(level)): v for key, v in good.items() for stat, n, level in [key.split(":")]}


@settings(FUZZ, max_examples=30)
@given(generated=cache_file())
def test_generated_cache_loads_whole_or_not_at_all(scratch, generated):
    data, expected = generated
    cache = scratch / "cv.json"
    cache.write_bytes(data)
    table = CriticalValueTable(seed=1, cache_path=cache)
    assert table._values == expected
    # A miss computes the value and writes the table whole.
    table.critical_value("rho", 4, 95)
    assert CriticalValueTable(seed=1, cache_path=cache)._values == table._values
