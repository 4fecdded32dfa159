"""Exact certifiers: k-trees, component-count violators, matchings."""

import hashlib
import json
import time
from itertools import combinations

import numpy as np
import pytest

from spectralcert.certifiers import (
    HallViolator,
    KTreeCertificate,
    PerfectMatching,
    WinViolator,
    _independence_number,
    certificate_to_json,
    count_perfect_matchings_brute,
    find_k_tree,
    find_win_violator,
    is_valid_ktree,
    perfect_matching,
)
from spectralcert.errors import CapacityError, GraphInputError
from spectralcert.families import ktree_extremal, matching_extremal
from spectralcert.graphs import (
    BipartiteGraph,
    Graph,
    complete_bipartite,
    complete_graph,
    components_after_removal,
    disjoint_union,
    is_connected,
    path_graph,
    star_graph,
)
from spectralcert.smallgraphs import connected_graphs


def test_path_is_its_own_2_tree():
    for n in (2, 5, 9):
        cert = find_k_tree(path_graph(n), 2)
        assert cert is not None
        assert sorted(cert.edges) == [(i, i + 1) for i in range(n - 1)]


def test_star_has_no_bounded_tree():
    assert find_k_tree(star_graph(4), 3) is None
    assert find_k_tree(star_graph(4), 4) is not None


def test_extremal_graph_has_no_k_tree():
    for n, k in [(8, 3), (10, 4), (22, 3)]:
        assert find_k_tree(ktree_extremal(n, k), k) is None


def test_k_tree_on_complete_graph():
    cert = find_k_tree(complete_graph(8), 2)  # a spanning path
    assert cert is not None
    assert is_valid_ktree(complete_graph(8), 2, cert)


def test_k_tree_rejects_disconnected():
    with pytest.raises(GraphInputError):
        find_k_tree(disjoint_union([complete_graph(2), complete_graph(2)]), 2)
    with pytest.raises(GraphInputError):
        find_k_tree(path_graph(3), 1)


def test_k_tree_witnesses_validate_on_corpus():
    rng = np.random.default_rng(3)
    pool = connected_graphs(6)
    idx = rng.choice(len(pool), size=60, replace=False)
    for i in idx:
        g = pool[int(i)]
        for k in (2, 3, 4):
            cert = find_k_tree(g, k)
            if cert is not None:
                assert is_valid_ktree(g, k, cert)


def test_k_tree_monotone_in_k():
    for g in connected_graphs(6)[::5]:
        prev = False
        for k in range(2, 6):
            found = find_k_tree(g, k) is not None
            assert found or not prev
            prev = found
        assert find_k_tree(g, g.n - 1) is not None


def test_k_tree_certificates_unchanged_on_corpus():
    # pins the search order: any change to which edges the DFS tries, or in
    # what order, changes some certificate on the connected n <= 7 corpus
    rows = []
    for n in range(2, 8):
        for g in connected_graphs(n):
            for k in (2, 3, 4):
                cert = find_k_tree(g, k)
                rows.append(None if cert is None else certificate_to_json(cert))
    assert len(rows) == 2985
    assert sum(r is not None for r in rows) == 2819
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "162e5734e5affdea13a0ea8e4d9ee4d527a891e096297c30774346c567d5037f"


def test_win_violators_unchanged_on_corpus():
    # pins the violator returned, the lexicographically first smallest one,
    # on every pair of the connected n <= 7 corpus and k in {2, 3, 4}
    rows = []
    for n in range(2, 8):
        for g in connected_graphs(n):
            for k in (2, 3, 4):
                viol = find_win_violator(g, k)
                rows.append(None if viol is None else certificate_to_json(viol))
    assert len(rows) == 2985
    assert sum(r is not None for r in rows) == 870
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "e2f1605f3a2c9f1c02a5f03610cba1d51cde575f286e36dc0c837df559c2d94f"


def _first_win_violator_brute(g, k):
    """First S, by size then lexicographically, with c(G - S) > (k-2)|S| + 2."""
    for s in range(1, g.n + 1):
        for sel in combinations(range(g.n), s):
            if components_after_removal(g, sel) > (k - 2) * s + 2:
                return WinViolator(sel)
    return None


def test_win_violator_matches_brute_force():
    rng = np.random.default_rng(17)
    found = absent = 0
    for p in (0.2, 0.3, 0.5):
        graphs = 0
        while graphs < 20:
            n = int(rng.integers(4, 12))
            upper = np.triu(rng.random((n, n)) < p, 1)
            g = Graph(n, upper | upper.T)
            if not is_connected(g):
                continue
            graphs += 1
            for k in (2, 3, 4):
                expected = _first_win_violator_brute(g, k)
                assert find_win_violator(g, k) == expected, (g, k)
                found += expected is not None
                absent += expected is None
    assert found > 20 and absent > 20


def _min_spanning_tree_max_degree(g):
    """Smallest maximum degree over all spanning trees, by edge subsets."""
    best = None
    for sub in combinations(g.edges(), g.n - 1):
        parent = list(range(g.n))
        deg = [0] * g.n
        for u, v in sub:
            while parent[u] != u:
                u = parent[u]
            while parent[v] != v:
                v = parent[v]
            if u == v:
                break
            parent[v] = u
        else:
            for u, v in sub:
                deg[u] += 1
                deg[v] += 1
            if best is None or max(deg) < best:
                best = max(deg)
    return best


def test_k_tree_existence_matches_brute_force():
    pairs = 0
    for n in range(3, 7):
        for g in connected_graphs(n):
            best = _min_spanning_tree_max_degree(g)
            for k in range(2, n):
                cert = find_k_tree(g, k)
                assert (cert is not None) == (best <= k), (g, k)
                if cert is not None:
                    assert is_valid_ktree(g, k, cert)
                pairs += 1
    assert pairs == 525


def test_k_tree_on_large_dense_graphs():
    g = complete_graph(200)
    assert is_valid_ktree(g, 2, find_k_tree(g, 2))
    rng = np.random.default_rng(5)
    upper = np.triu(rng.random((200, 200)) < 0.9, 1)
    g = Graph(200, upper | upper.T)
    assert is_valid_ktree(g, 3, find_k_tree(g, 3))


def test_k_tree_restores_recursion_limit():
    import sys

    # start from the default, so an earlier search cannot hide a leak
    outer = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert find_k_tree(complete_graph(200), 2) is not None
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(outer)


def test_k_tree_search_does_not_recurse(monkeypatch):
    import sys

    def refuse(limit):
        raise AssertionError(f"recursion limit set to {limit}")

    # the DFS on a path of 1,100 vertices is deeper than the default limit
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    g = path_graph(1100)
    cert = find_k_tree(g, 2)
    assert cert is not None and is_valid_ktree(g, 2, cert)


def test_k_tree_feasibility_tested_only_after_an_edge_is_lost(monkeypatch):
    from spectralcert import certifiers

    calls = []
    reach = certifiers._reach
    monkeypatch.setattr(certifiers, "_reach",
                        lambda *args: calls.append(1) or reach(*args))
    # adding a path edge never fills a vertex that keeps an undecided edge,
    # so only the root node tests; is_connected reaches through graphs._reach
    g = path_graph(1100)
    cert = find_k_tree(g, 2)
    assert cert is not None and is_valid_ktree(g, 2, cert)
    assert len(calls) == 1


def test_win_violator_on_extremal_graph():
    for n, k in [(8, 3), (12, 4)]:
        g = ktree_extremal(n, k)
        viol = find_win_violator(g, k)
        assert viol == WinViolator((0,))
        assert components_after_removal(g, viol.vertices) == k + 1


def test_win_violator_absent_cases():
    from spectralcert.graphs import cycle_graph

    assert find_win_violator(complete_graph(6), 2) is None
    assert find_win_violator(cycle_graph(5), 2) is None
    assert find_win_violator(path_graph(5), 3) is None


def test_win_violator_on_long_path():
    # two nonadjacent interior vertices split a path into 3 > 2 pieces, so
    # paths of order >= 5 fail the k=2 condition even though they are their
    # own Hamilton paths (the condition is sufficient, not necessary)
    viol = find_win_violator(path_graph(5), 2)
    assert viol is not None
    s = viol.vertices
    assert components_after_removal(path_graph(5), s) > 2


def test_win_violator_cap_and_validation():
    with pytest.raises(CapacityError):
        find_win_violator(complete_graph(21), 3)
    with pytest.raises(GraphInputError):
        find_win_violator(disjoint_union([complete_graph(2)] * 2), 2)


def test_win_absent_implies_k_tree_small_corpus():
    # sufficiency direction on every connected graph with up to 6 vertices
    for n in range(2, 7):
        for g in connected_graphs(n):
            for k in (2, 3, 4):
                if find_win_violator(g, k) is None:
                    assert find_k_tree(g, k) is not None


def test_perfect_matching_complete():
    pm = perfect_matching(complete_bipartite(4, 4))
    assert isinstance(pm, PerfectMatching)
    assert sorted(x for x, _ in pm.pairs) == [0, 1, 2, 3]
    assert sorted(y for _, y in pm.pairs) == [0, 1, 2, 3]


def test_perfect_matching_unique():
    b = BipartiteGraph(3, 3, np.eye(3, dtype=bool))
    pm = perfect_matching(b)
    assert pm == PerfectMatching(((0, 0), (1, 1), (2, 2)))
    assert count_perfect_matchings_brute(b) == 1


def test_hall_violator_on_matching_extremal():
    for n, delta in [(3, 1), (6, 2), (8, 1)]:
        b = matching_extremal(n, delta)
        result = perfect_matching(b)
        assert isinstance(result, HallViolator)
        assert len(result.vertices) > len(b.neighborhood(result.vertices))
        assert count_perfect_matchings_brute(b) == 0


def test_perfect_matching_long_augmenting_paths():
    # x is adjacent to y = x-1 and y = x, so augmenting from x walks the whole
    # chain below it before it reaches the free y = x
    n = 1500
    b = BipartiteGraph(n, n, np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool))
    assert perfect_matching(b) == PerfectMatching(tuple((x, x) for x in range(n)))


def _recursive_matching(b):
    """Augmenting paths by plain recursion, Y vertices in ascending order."""
    match_x, match_y = [-1] * b.nx, [-1] * b.nx

    def augment(x, visited):
        for y in range(b.nx):
            if b.biadj[x, y] and not visited[y]:
                visited[y] = True
                if match_y[y] == -1 or augment(match_y[y], visited):
                    match_x[x], match_y[y] = y, x
                    return True
        return False

    for x in range(b.nx):
        augment(x, [False] * b.nx)
    return match_x


def test_perfect_matching_keeps_ascending_augmenting_order():
    rng = np.random.default_rng(29)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        b = BipartiteGraph(n, n, rng.random((n, n)) < rng.random())
        result = perfect_matching(b)
        expected = _recursive_matching(b)
        if isinstance(result, PerfectMatching):
            assert result.pairs == tuple(enumerate(expected))
        else:
            assert -1 in expected


def test_matching_requires_balanced():
    with pytest.raises(GraphInputError):
        perfect_matching(complete_bipartite(2, 3))
    with pytest.raises(GraphInputError):
        count_perfect_matchings_brute(complete_bipartite(2, 3))


def test_count_known_values():
    assert count_perfect_matchings_brute(complete_bipartite(3, 3)) == 6
    assert count_perfect_matchings_brute(complete_bipartite(4, 4)) == 24
    with pytest.raises(CapacityError):
        count_perfect_matchings_brute(complete_bipartite(9, 9))


def test_hall_equivalence_exhaustive_3x3():
    for bits in range(1 << 9):
        biadj = np.array([[bits >> (3 * x + y) & 1 for y in range(3)]
                          for x in range(3)], dtype=bool)
        b = BipartiteGraph(3, 3, biadj)
        result = perfect_matching(b)
        count = count_perfect_matchings_brute(b)
        if isinstance(result, PerfectMatching):
            assert count > 0
            assert all(biadj[x, y] for x, y in result.pairs)
        else:
            assert count == 0
            assert len(b.neighborhood(result.vertices)) < len(result.vertices)


def test_hall_equivalence_random_5x5():
    rng = np.random.default_rng(47)
    for _ in range(3000):
        biadj = rng.random((5, 5)) < 0.4
        b = BipartiteGraph(5, 5, biadj)
        result = perfect_matching(b)
        assert isinstance(result, PerfectMatching) == (count_perfect_matchings_brute(b) > 0)


def test_certificate_json_shapes():
    assert certificate_to_json(KTreeCertificate(((0, 1),))) == {
        "type": "ktree", "data": [[0, 1]]}
    assert certificate_to_json(WinViolator((2,))) == {
        "type": "win_violator", "data": [2]}
    assert certificate_to_json(PerfectMatching(((0, 1), (1, 0)))) == {
        "type": "matching", "data": [[0, 1], [1, 0]]}
    assert certificate_to_json(HallViolator((0, 3))) == {
        "type": "hall_violator", "data": [0, 3]}


def test_search_determinism():
    g = ktree_extremal(9, 3)
    assert find_win_violator(g, 3) == find_win_violator(g, 3)
    h = complete_graph(7)
    assert find_k_tree(h, 2) == find_k_tree(h, 2)
    b = matching_extremal(5, 2)
    assert perfect_matching(b) == perfect_matching(b)


def test_win_search_stops_at_the_independence_number():
    # alpha(K20) = 1, so no set can leave more than 2 components; the full
    # size-by-size search took seconds here
    start = time.perf_counter()
    assert find_win_violator(complete_graph(20), 2) is None
    assert time.perf_counter() - start < 0.5


def test_independence_number_matches_brute_force_on_corpus():
    for n in range(1, 7):
        for g in connected_graphs(n):
            masks = g.neighbor_masks
            brute = max(len(s) for r in range(n + 1) for s in combinations(range(n), r)
                        if not any(masks[u] >> v & 1 for u, v in combinations(s, 2)))
            assert _independence_number(masks) == brute
