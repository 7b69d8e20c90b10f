"""The walk down a node table's depths costs what its deep positions use.

A wide application of little height widens the table's child places for
every application; the walk must not sort or pack those places for the
positions above each depth, which have few children.
"""

import tracemalloc

from mathsim.engine import NodeTable
from mathsim.mathml import Apply, FunctionSymbol, Variable

PLUS, SIN = FunctionSymbol("plus", "arith1"), FunctionSymbol("sin", "transc1")


def _deep(i):
    # Height 3: sin(plus(v_i, sin(u_i))), distinct per i.
    return Apply(SIN, (Apply(PLUS, (Variable(f"v{i}"), Apply(SIN, (Variable(f"u{i}"),)))),))


def test_walk_peak_follows_the_deep_positions_not_the_widest():
    wide = Apply(PLUS, tuple(Variable(f"w{i}") for i in range(1000)))
    table = NodeTable([*map(_deep, range(200)), wide])
    assert table.places.shape == (1001, 601)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        walk = table.walk
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    # Two depths; the wide application (height 1) is in neither.
    assert [start for start, _ in walk] == [int(table.level_start[2]), int(table.level_start[3])]
    assert [len(places) for _, places in walk] == [1, 1]
    # Sorting every place of the 400 positions above depth 1 peaks above places.nbytes (4.8 MB).
    assert peak < table.places.nbytes / 20
