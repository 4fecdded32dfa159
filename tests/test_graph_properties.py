"""Property tests: the stored neighbor masks against the matrix views, the
graph6 codec and the a*D + A matrix."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralcert.graphs import BipartiteGraph, Graph, build_graph, from_graph6, to_graph6
from spectralcert.spectral import a_matrix
from spectralcert.verify import bipartite_from_bits

PROPERTY = settings(derandomize=True, deadline=None)


@st.composite
def graphs(draw, max_n=70):
    """Random graphs on 1..max_n vertices (crossing graph6's 62/63 header
    switch), one upper-triangle bit per vertex pair."""
    n = draw(st.integers(1, max_n))
    bits = draw(st.integers(0, (1 << n * (n - 1) // 2) - 1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return build_graph(n, [e for idx, e in enumerate(pairs) if bits >> idx & 1])


@PROPERTY
@given(graphs())
def test_array_constructor_recovers_masks(g):
    rebuilt = Graph(g.n, g.adj)
    assert rebuilt == g
    assert rebuilt.neighbor_masks == g.neighbor_masks


@PROPERTY
@given(graphs())
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


@PROPERTY
@given(graphs())
def test_a_matrix_is_bit_identical_to_dense_reference(g):
    adj = g.adj
    degrees = adj.sum(axis=1).astype(float)
    for a in (0, 0.5, 1):
        expected = np.diag(a * degrees) + adj.astype(float)
        assert a_matrix(g, a).tobytes() == expected.tobytes()


@PROPERTY
@given(st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << n * n) - 1))))
def test_bipartite_from_bits_matches_array_reference(case):
    n, bits = case
    biadj = np.array([[bits >> (x * n + y) & 1 for y in range(n)] for x in range(n)],
                     dtype=bool)
    b = bipartite_from_bits(n, bits)
    assert b == BipartiteGraph(n, n, biadj)
    assert np.array_equal(b.biadj, biadj)
