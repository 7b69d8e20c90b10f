"""Root matrices of the bundled plans, pinned by SHA-256.

Scores must stay bit for bit through every change to the engine.  The
digests below were taken before the engine kept its greedy data per document
table and matched greedy pairs through flat indexes; a change that moves one
score of the bundled batch plan or of any bundled one-query plan by one ulp
changes them.
"""

import hashlib

import pytest

from mathsim.engine import NodeTable, Plan
from mathsim.metric import DECAY_KINDS

from helpers import make_params

SETTINGS = {
    "omega-3.1": dict(omega=3.1, dp_rate=0.3, cp_rate=0.2),
    # The ends of assets/space.json.
    "grid-low": dict(omega=1.5, mu=0.1, zeta=0.0, delta=0.0, theta=0.0, dp_rate=0.1, cp_rate=0.1),
    "grid-high": dict(omega=5.0, mu=0.9, zeta=0.9, delta=0.9, theta=0.9, dp_rate=0.9, cp_rate=0.9),
    # Every shape but the exponential reaches the floor within three depths on one side.
    "epsilon-floor": dict(dp_rate=0.3, cp_rate=0.9, epsilon=0.2),
}

# At rate 0.9, linear and quadratic decay agree at every depth, and so do
# their grid-high digests.
DIGESTS = {
    ("exponential", "omega-3.1"): "8d5cfb9c0b0af8206db9c08897a929984d5c801aba5af606f07e16cf2606a946",
    ("exponential", "grid-low"): "a34ebaed72034465d4442d8531f71afa3175bf06cf4497b6137c1f314513b8f2",
    ("exponential", "grid-high"): "607e77e58c51667b96776dce634f8c4f27a90fb16c678cb051a1187482228a92",
    ("exponential", "epsilon-floor"): "bc0e3a6769b1cfc63bf30c82662c12000752c39ed1e5b471cd4635ae92e124e6",
    ("linear", "omega-3.1"): "1deaae553d1ad6d99db2e183a600ed07c8d2257de3cad3d7c50255e2e2ca1fc4",
    ("linear", "grid-low"): "3492ea4b2d5d34beaf37d7db3903ae573d8ab80b185a377b84451af03232d98e",
    ("linear", "grid-high"): "5ea8dee03747dfc23cfe9977eb9e7f5472ece9905c995a8054b72153a34016dc",
    ("linear", "epsilon-floor"): "3476688700060e8e1eb96aaca4e5ac09e995d6a44950582ce94c304bc9493384",
    ("quadratic", "omega-3.1"): "60cc10c512b017b8db6b72621b150316258e95c9e1c9bf1e7d6f41cc700be484",
    ("quadratic", "grid-low"): "9edf1e39336ebe8e37144aeb6a8846ae1e5d8bfd9d681b68f065c5c22bbcbb51",
    ("quadratic", "grid-high"): "5ea8dee03747dfc23cfe9977eb9e7f5472ece9905c995a8054b72153a34016dc",
    ("quadratic", "epsilon-floor"): "771739d4b709e8fc7d26980da47be7fe1db716ffbdb5c4faa9bda722da41cbda",
    ("logarithmic", "omega-3.1"): "32a232b868ced221324b90f427afe7f4deb1c26cef26de9967916d29aa47d5f7",
    ("logarithmic", "grid-low"): "2ec5673e584de88096939c77808e19bd940298a6d5aaf201fe4d1f06b6b098c1",
    ("logarithmic", "grid-high"): "2d4f26308395d5e9c829ebc690b243f764fb91b93f94f67ddaec7113d6aaccc9",
    ("logarithmic", "epsilon-floor"): "065620bcf280e3918d28c9686fc0a8283c7e99334d47b3547c9b4a20f2f4efe3",
}


@pytest.fixture(scope="module")
def bundled_plans(bundled_corpus, bundled_queries, bundled_symbols):
    docs, commutative = bundled_corpus.table, bundled_symbols.commutative
    one_query = [Plan(docs, NodeTable([q.tree]), commutative) for q in bundled_queries]
    return [Plan(docs, bundled_queries.table, commutative), *one_query]


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("kind", DECAY_KINDS)
def test_root_matrices_keep_their_digest(kind, setting, bundled_plans):
    params = make_params(decay_model=kind, **SETTINGS[setting])
    digest = hashlib.sha256()
    for plan in bundled_plans:
        digest.update(plan(params).astype("<f8").tobytes())
    assert digest.hexdigest() == DIGESTS[kind, setting]
