"""Property tests of the input boundary: damaged input files end in the one
error type each reader documents, never in another exception.

Each property starts from a bundled file and damages it: flipped characters
or bytes, truncations, renamed elements, changed CSV cells and rows, changed
JSON values.  The approach is that of MacIver and Hatfield-Dodds,
"Hypothesis: A new approach to property-based testing" (JOSS 4(43), 2019).
"""

import contextlib
import io
import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mathsim.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, main
from mathsim.evaluation import read_ground_truth_csv
from mathsim.mathml import MAX_DEPTH, MathMLParseError, height, parse_expression
from mathsim.metric import load_params
from mathsim.optimizer import load_param_space
from mathsim.search import read_expression, read_hitlists_csv

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
