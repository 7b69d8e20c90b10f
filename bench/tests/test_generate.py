"""The synthetic input generator is a pure function of its seed.

Run with ``python -m pytest bench/tests -q`` from the repository root.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import generate  # noqa: E402
from mathsim import mathml  # noqa: E402
from mathsim.search import load_corpus, load_queries  # noqa: E402


def _snapshot(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _generate(seed: int, out: Path) -> dict[str, bytes]:
    generate.write_search_inputs(seed, out / "search")
    generate.write_evaluate_inputs(seed, out / "evaluate")
    return _snapshot(out)


def test_same_seed_gives_identical_bytes(tmp_path):
    first = _generate(7, tmp_path / "a")
    second = _generate(7, tmp_path / "b")
    assert len(first) == 420 + 22 + 2
    assert first == second


def test_another_seed_gives_other_inputs(tmp_path):
    assert _generate(7, tmp_path / "a") != _generate(8, tmp_path / "b")


def test_generated_files_load_and_stay_shallow(tmp_path):
    generate.write_search_inputs(3, tmp_path)
    corpus = load_corpus(tmp_path / "corpus")
    queries = load_queries(tmp_path / "queries")
    assert len(corpus) == 420 and len(queries) == 22
    assert max(mathml.height(r.tree) for r in corpus) <= generate.MAX_HEIGHT
