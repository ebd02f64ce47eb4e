"""The graph stage against null families: independent assets must stay unlinked.

``build_graph`` tests n^2 ordered pairs at p / n^2 each (Bonferroni), so a
graph of independent assets holds any link with probability at most p. Each
family builds K = 100 graphs of 20 independent assets x 1,440 rows at
p = 0.01, lags 0, 1 and 2 in turn. Under the guarantee the number of graphs
with a link is at most Binomial(100, 0.01), and P(X >= 5) = 0.003, so at
most 4 may hold one. The seeds are fixed: ``default_rng([9, family, g])``.

Measured counts of graphs with a link, per family in the order below: 1, 1,
0 and 2. Breaking bin-edge ties by row index instead gave 1, 1, 100 and 37:
the zeros of an illiquid asset, or the repeated values of a price grid,
then took states from their position in the window.
"""

from __future__ import annotations

import numpy as np
import pytest

from leadlag_fuse.leadlag import LagSpec, build_graph
from leadlag_fuse.market_data import ReturnMatrix

GRAPHS = 100
ROWS, ASSETS = 1440, 20
MAX_LINKED_GRAPHS = 4


def gaussian(rng):
    return rng.standard_normal((ROWS, ASSETS))


def student_t3(rng):
    return rng.standard_t(3, (ROWS, ASSETS))


def four_illiquid(rng):
    r = rng.standard_normal((ROWS, ASSETS))
    r[:, :4][rng.random((ROWS, 4)) < 0.8] = 0.0
    return r


def price_grid(rng):
    return np.round(rng.standard_normal((ROWS, ASSETS)) / 0.5) * 0.5


FAMILIES = [gaussian, student_t3, four_illiquid, price_grid]


@pytest.mark.parametrize("family", range(len(FAMILIES)), ids=[f.__name__ for f in FAMILIES])
def test_null_family_keeps_the_family_wise_rate(family):
    names = tuple(f"A{i:02d}" for i in range(ASSETS))
    linked = 0
    for g in range(GRAPHS):
        r = FAMILIES[family](np.random.default_rng([9, family, g]))
        graph = build_graph(ReturnMatrix(1, np.arange(ROWS), names, r), LagSpec(1, g % 3), 0, 0.01, 4)
        linked += graph.validated_link_count > 0
    assert linked <= MAX_LINKED_GRAPHS
