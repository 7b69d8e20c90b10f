import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mathsim import evaluation
from mathsim.evaluation import CriticalValueTable, read_ground_truth_csv
from mathsim.metric import load_params
from mathsim.optimizer import load_param_space
from mathsim.search import load_corpus, load_queries

ASSETS = Path(__file__).resolve().parent.parent / "assets"


@pytest.fixture(scope="session")
def assets_dir() -> Path:
    return ASSETS


@pytest.fixture(scope="session")
def bundled_corpus():
    return load_corpus(ASSETS / "corpus")


@pytest.fixture(scope="session")
def bundled_queries():
    return load_queries(ASSETS / "queries")


@pytest.fixture(scope="session")
def bundled_truths():
    return read_ground_truth_csv(ASSETS / "truth.csv")


@pytest.fixture(scope="session")
def bundled_params():
    params, _ = load_params(ASSETS / "params.json")
    return params


@pytest.fixture(scope="session")
def bundled_symbols():
    _, symbols = load_params(ASSETS / "params.json")
    return symbols


@pytest.fixture(scope="session")
def bundled_space():
    # Loaded the way the CLI loads `space_file`.
    return load_param_space(ASSETS / "space.json")


@pytest.fixture(scope="session")
def mc_table(tmp_path_factory) -> CriticalValueTable:
    cache = tmp_path_factory.mktemp("critical_values") / "table.json"
    return CriticalValueTable(cache_path=cache)


@pytest.fixture
def cache_writes(monkeypatch) -> list:
    """The paths the critical-value cache is renamed onto, one per write, in order."""
    written = []
    real_replace = os.replace

    def counting_replace(src, dst):
        written.append(dst)
        real_replace(src, dst)

    monkeypatch.setattr(evaluation.os, "replace", counting_replace)
    return written
