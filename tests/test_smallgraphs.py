"""Canonical forms, isomorphism testing and the exhaustive connected-graph corpus."""

import hashlib
import itertools
import time

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
from spectralcert.smallgraphs import (
    _corpus_classes,
    _orbit_minima,
    are_isomorphic,
    canonical_form,
    connected_graphs,
)
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


def test_canonical_forms_are_pinned():
    # computed with the twin-only search; the automorphism prunes must not
    # move a single code, since the Hamilton exception forms depend on them
    forms = [canonical_form(g) for n in range(1, 8) for g in connected_graphs(n)]
    digest = hashlib.sha256("".join(f"{n} {code}\n" for n, code in forms).encode())
    assert digest.hexdigest() == "8341c40024cca518476fdcdd3f8ab8786dbb8af0bd76a0ccefd3b2774b64f5f7"


def _brute_force_orbits(masks):
    n = len(masks)
    orbits = list(range(n))  # the least vertex of each vertex's orbit
    for perm in itertools.permutations(range(n)):
        if all(sum(1 << perm[u] for u in range(n) if masks[v] >> u & 1) == masks[perm[v]]
               for v in range(n)):
            for v in range(n):
                orbits[perm[v]] = min(orbits[perm[v]], v)
    return orbits


def _generated_orbits(n, gens):
    orbits = list(range(n))
    changed = True
    while changed:
        changed = False
        for perm in gens:
            for v in range(n):
                if orbits[v] < orbits[perm[v]]:
                    orbits[perm[v]] = orbits[v]
                    changed = True
                elif orbits[perm[v]] < orbits[v]:
                    orbits[v] = orbits[perm[v]]
                    changed = True
    return orbits


def test_corpus_generators_are_automorphisms_with_the_full_orbits():
    for n in range(1, 7):
        graphs, generators = _corpus_classes(n)
        assert len(generators) == len(graphs)
        for g, gens in zip(graphs, generators):
            masks = g.neighbor_masks
            for perm in gens:
                assert sorted(perm) == list(range(n))
                assert all(sum(1 << perm[u] for u in range(n) if masks[v] >> u & 1)
                           == masks[perm[v]] for v in range(n))
            assert _generated_orbits(n, gens) == _brute_force_orbits(masks)


def test_augmentation_keeps_one_neighbor_set_per_parent_orbit():
    # 21 * 31 = 651 and 112 * 63 = 7,056 neighbor sets without the pruning
    for n, kept in [(6, 333), (7, 3771)]:
        _, generators = _corpus_classes(n - 1)
        assert sum(len(_orbit_minima(gens, n - 1)) for gens in generators) == kept


def _complement(g):
    return build_graph(g.n, [(a, b) for a in range(g.n) for b in range(a + 1, g.n)
                             if not g.has_edge(a, b)])


def test_canonical_form_of_a_twin_free_graph_with_many_automorphisms():
    # the complement of 4C5: 20 vertices, no twins, 10^4 * 4! automorphisms
    g = _complement(disjoint_union([cycle_graph(5)] * 4))
    start = time.perf_counter()
    form = canonical_form(g)
    assert time.perf_counter() - start < 1.0
    perm = list(np.random.default_rng(13).permutation(20))
    assert canonical_form(_permuted(g, perm)) == form
    assert form != canonical_form(_complement(disjoint_union([cycle_graph(10)] * 2)))
