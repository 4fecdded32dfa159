"""Canonical forms, isomorphism testing and the exhaustive connected-graph corpus."""

import hashlib

import numpy as np
import pytest

from spectralcert.errors import CapacityError
from spectralcert.graphs import (
    Graph,
    build_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    path_graph,
    star_graph,
)
from spectralcert.smallgraphs import are_isomorphic, canonical_form, connected_graphs
from spectralcert.verify import connected_corpus_stream


def _permuted(g, perm):
    adj = np.zeros((g.n, g.n), dtype=bool)
    for u, v in g.edges():
        adj[perm[u], perm[v]] = adj[perm[v], perm[u]] = True
    return Graph(g.n, adj)


def test_isomorphic_relabelings():
    rng = np.random.default_rng(17)
    for base in [path_graph(6), cycle_graph(7), star_graph(5), complete_graph(5)]:
        perm = list(range(base.n))
        rng.shuffle(perm)
        assert are_isomorphic(base, _permuted(base, perm))


def test_non_isomorphic_pairs():
    assert not are_isomorphic(path_graph(4), star_graph(3))
    assert not are_isomorphic(cycle_graph(6),
                              build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
    # same degree sequence, different structure: C6 vs two triangles
    assert not are_isomorphic(path_graph(5), build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 1)]))


def test_isomorphism_cap():
    with pytest.raises(CapacityError):
        are_isomorphic(complete_graph(13), complete_graph(13))


def test_connected_corpus_counts():
    # classic counts of connected graphs up to isomorphism
    expected = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
    for n, count in expected.items():
        assert len(connected_graphs(n)) == count


def test_corpus_members_are_connected_and_distinct():
    from spectralcert.graphs import is_connected

    graphs = connected_graphs(5)
    assert all(is_connected(g) for g in graphs)
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert not are_isomorphic(graphs[i], graphs[j])


def test_corpus_cap():
    with pytest.raises(CapacityError):
        connected_graphs(9)


def test_canonical_form_survives_relabelling():
    rng = np.random.default_rng(5)
    for n in range(1, 8):
        for g in connected_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(_permuted(g, perm)) == canonical_form(g)


def test_canonical_forms_distinct_within_each_order():
    for n in range(1, 8):
        graphs = connected_graphs(n)
        assert len({canonical_form(g) for g in graphs}) == len(graphs)


def test_isomorphic_twin_heavy_relabelling():
    # 6K2 at the isomorphism cap: every vertex has a twin in its cell
    g = disjoint_union([complete_graph(2)] * 6)
    perm = list(np.random.default_rng(3).permutation(12))
    assert are_isomorphic(g, _permuted(g, perm))
    # 2-regular on 12 vertices: twins in every triangle, none in a cycle
    triangles = disjoint_union([complete_graph(3)] * 4)
    assert are_isomorphic(triangles, _permuted(triangles, perm))
    assert not are_isomorphic(triangles, disjoint_union([cycle_graph(6)] * 2))
    assert not are_isomorphic(triangles, cycle_graph(12))


def test_canonical_form_separates_cospectral_strongly_regular_graphs():
    # the 4x4 rook's graph and the Shrikhande graph are both srg(16, 6, 2, 2):
    # refinement alone leaves every vertex in one cell
    rook = build_graph(16, [(a, b) for a in range(16) for b in range(a + 1, 16)
                            if a // 4 == b // 4 or a % 4 == b % 4])
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    shrikhande = build_graph(16, [(a, b) for a in range(16) for b in range(a + 1, 16)
                                  if ((b // 4 - a // 4) % 4, (b % 4 - a % 4) % 4) in steps])
    assert canonical_form(rook) != canonical_form(shrikhande)
    perm = list(np.random.default_rng(11).permutation(16))
    assert canonical_form(_permuted(shrikhande, perm)) == canonical_form(shrikhande)


def test_connected_corpus_is_pinned():
    # the n = 8 corpus is cached in-process, so this reuses what the
    # acceptance tests built
    for max_n, count, digest in [
        (7, 996, "b189084ab307f9f29b4f1ae39db2570182af02bbe82ef4d08ed035473aa9a883"),
        (8, 12113, "26588f7bbd4aac2fd37f35c1c211e9691c6dde99c90306f61d73595fc4117417"),
    ]:
        lines = connected_corpus_stream(1, max_n)
        assert len(lines) == count
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest
