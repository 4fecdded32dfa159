"""Exact certifiers: k-trees, component-count violators, matchings."""

import hashlib
import json
import time
from itertools import combinations
from types import SimpleNamespace

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
    to_graph6,
)
from spectralcert.smallgraphs import connected_graphs
from spectralcert.verify import bipartite_from_bits


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


def _random_connected(rng, n, p):
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1)
        g = Graph(n, upper | upper.T)
        if is_connected(g):
            return g


def test_k_tree_certificates_unchanged_on_dense_graphs():
    # the n <= 7 corpus has about 1.4 edges per (vertex, degree class) entry
    # of the search; dense G(n, p) has about 5, so this pins the order in
    # which edges inside one entry are tried.  k = 2 stays on n <= 16: on
    # larger sparse graphs that search can run for minutes.
    rng = np.random.default_rng(14)
    pairs = []
    for n in (22, 40, 60):
        pairs.append((ktree_extremal(n, 3), 3))
        for p in (0.9, 0.95, 0.98):
            for _ in range(3):
                pairs.append((_random_connected(rng, n, p), 3))
    for n in range(10, 17):
        for p in (0.3, 0.4, 0.5):
            for _ in range(3):
                g = _random_connected(rng, n, p)
                pairs.extend((g, k) for k in (2, 3, 4))
    rows = []
    for g, k in pairs:
        cert = find_k_tree(g, k)
        if cert is not None:
            assert is_valid_ktree(g, k, cert)
        rows.append(None if cert is None else certificate_to_json(cert))
    assert len(rows) == 219
    assert sum(r is not None for r in rows) == 212
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == "a3df8bfca650dbb70c0d2482f2f8e99c0f5eeaac37759d9bbe93ad799be04e73"


def test_k_tree_validator_rejects_bad_endpoints():
    g = path_graph(2)
    assert is_valid_ktree(g, 2, KTreeCertificate(((0, 1),)))
    for edge in ((0, 5), (5, 0), (-1, 1), (0, -1), (0, 1.0), (1.0, 0), (0, "1"),
                 (0, True), (0, None), (0, [1])):
        assert not is_valid_ktree(g, 2, KTreeCertificate((edge,)))
    assert not is_valid_ktree(path_graph(3), 2, KTreeCertificate(((0, 1), (1, 3))))
    assert not is_valid_ktree(path_graph(3), 2, KTreeCertificate(((0, 1), (0, 1))))


def test_k_tree_validator_rejects_a_vertex_of_degree_k_plus_one():
    g = star_graph(3)
    assert not is_valid_ktree(g, 2, KTreeCertificate(tuple(g.edges())))
    assert is_valid_ktree(g, 3, KTreeCertificate(tuple(g.edges())))


def test_k_tree_validator_rejects_a_tree_edge_missing_from_the_graph():
    g = path_graph(3)  # 0-1-2, so the spanning path 2-0-1 uses the non-edge 0-2
    assert is_valid_ktree(g, 2, KTreeCertificate(((0, 1), (1, 2))))
    assert not is_valid_ktree(g, 2, KTreeCertificate(((0, 1), (0, 2))))


def test_k_tree_validator_rejects_edges_that_are_not_pairs():
    g = complete_graph(2)
    for edge in ((0, 1, 1), (0,), 5):
        assert not is_valid_ktree(g, 2, KTreeCertificate((edge,)))

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


def test_k_tree_search_tests_nothing_before_its_first_dead_end(monkeypatch):
    from spectralcert import certifiers

    calls = []
    reach = certifiers._reach
    monkeypatch.setattr(certifiers, "_reach",
                        lambda *args: calls.append(1) or reach(*args))
    # dense graphs fill vertices that keep undecided edges, but the search
    # never meets a dead end there, so only the root node tests
    rng = np.random.default_rng(18)
    for g in (complete_graph(30), _random_connected(rng, 40, 0.97)):
        calls.clear()
        cert = find_k_tree(g, 3)
        assert cert is not None and is_valid_ktree(g, 3, cert)
        assert len(calls) == 1
    # the extremal graph has no 3-tree: the descent meets a dead end, then
    # backtracks along its untested path with at most one test a frame
    calls.clear()
    assert find_k_tree(ktree_extremal(22, 3), 3) is None
    assert 1 < len(calls) <= 22


def _reference_k_tree(g, k):
    """The first spanning k-tree of a plain recursive DFS, or None: edges in
    the order (smaller end degree, larger end degree, u, v), add before
    exclude, dead edges passed over, and at every node a set-based test that
    tree edges plus unexcluded edges with both ends below k connect g."""
    n, deg = g.n, g.degrees
    edges = sorted((min(deg[u], deg[v]), max(deg[u], deg[v]), u, v)
                   for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v))
    edges = [(u, v) for _, _, u, v in edges]
    tree, excluded = [], set()
    tdeg = [0] * n
    frag = list(range(n))  # a fragment label per vertex

    def possible_connected():
        nbrs = {v: set() for v in range(n)}
        for u, v in edges:
            if (u, v) in tree or (u, v) not in excluded and tdeg[u] < k and tdeg[v] < k:
                nbrs[u].add(v)
                nbrs[v].add(u)
        seen, todo = {0}, [0]
        while todo:
            for w in nbrs[todo.pop()] - seen:
                seen.add(w)
                todo.append(w)
        return len(seen) == n

    def search(i):
        if len(tree) == n - 1:
            return True
        if not possible_connected():
            return False
        while i < len(edges):
            u, v = edges[i]
            if tdeg[u] < k and tdeg[v] < k and frag[u] != frag[v]:
                break
            i += 1
        else:
            return False
        saved = frag[:]
        tree.append((u, v))
        tdeg[u] += 1
        tdeg[v] += 1
        frag[:] = [frag[u] if f == frag[v] else f for f in frag]
        if search(i + 1):
            return True
        tree.pop()
        tdeg[u] -= 1
        tdeg[v] -= 1
        frag[:] = saved
        excluded.add((u, v))
        if search(i + 1):
            return True
        excluded.discard((u, v))
        return False

    return KTreeCertificate(tuple(sorted(tree))) if search(0) else None


def test_k_tree_matches_a_fully_tested_reference():
    rng = np.random.default_rng(181)
    graphs = [g for n in range(1, 7) for g in connected_graphs(n)]
    graphs += [_random_connected(rng, int(rng.integers(7, 11)), rng.uniform(0.2, 0.9))
               for _ in range(300)]
    found = 0
    for g in graphs:
        for k in (2, 3):
            expected = _reference_k_tree(g, k)
            assert find_k_tree(g, k) == expected
            found += expected is not None
    assert 0 < found < 2 * len(graphs)


def _greedy_k_tree(g, k):
    """The degree-capped Kruskal greedy: each edge in the order (smaller end
    degree, larger end degree, u, v) whose ends are both below degree k and
    in different fragments is added.  Its tree, or None if it stops short."""
    n, deg = g.n, g.degrees
    edges = sorted((min(deg[u], deg[v]), max(deg[u], deg[v]), u, v)
                   for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v))
    tree, tdeg = [], [0] * n
    frag = list(range(n))  # a fragment label per vertex
    for _, _, u, v in edges:
        if tdeg[u] < k and tdeg[v] < k and frag[u] != frag[v]:
            tree.append((u, v))
            tdeg[u] += 1
            tdeg[v] += 1
            frag = [frag[u] if f == frag[v] else f for f in frag]
    return KTreeCertificate(tuple(sorted(tree))) if len(tree) == n - 1 else None


def test_k_tree_search_after_a_dead_end_matches_the_reference():
    # the search's first descent is the greedy; where the greedy stops short,
    # the search resumes from the descent's shallowest failing depth, and
    # must still return the first tree of the fully tested DFS
    pairs = [(g, k) for n in range(1, 8) for g in connected_graphs(n) for k in (2, 3)]
    rng = np.random.default_rng(29)
    pairs += [(_random_connected(rng, n, rng.uniform(0.3, 0.4)), 2)
              for n in range(10, 17) for _ in range(30)]
    found = absent = 0
    for g, k in pairs:
        greedy = _greedy_k_tree(g, k)
        if greedy is not None:
            assert find_k_tree(g, k) == greedy
            continue
        expected = _reference_k_tree(g, k)
        assert find_k_tree(g, k) == expected, (to_graph6(g), k)
        found += expected is not None
        absent += expected is None
    # the n <= 7 corpus alone has 7 such pairs with a tree (EqJ_ at k = 2 is
    # one) and 162 without
    assert found >= 5 and absent >= 5


def test_k_tree_search_bisects_its_first_descent(monkeypatch):
    from spectralcert import certifiers

    calls = []
    reach = certifiers._reach
    monkeypatch.setattr(certifiers, "_reach",
                        lambda *args: calls.append(1) or reach(*args))
    counts = []
    for n in (22, 40, 60):
        calls.clear()
        assert find_k_tree(ktree_extremal(n, 3), 3) is None
        counts.append(len(calls))
    # the descent adds the three pendant edges, which fill the centre, then
    # a path through the clique, and dead-ends at depth n - 2.  The
    # possibility graph is disconnected from depth 3 on.  So the search makes
    # the root test, 4, 5 or 6 bisection tests over the descent, and one
    # failing test at each pendant edge's exclude node.  Backtracking frame
    # by frame from the dead end would test about n times.
    assert counts[2] - counts[0] <= 3
    assert counts == [1 + 4 + 3, 1 + 5 + 3, 1 + 6 + 3]


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


def test_win_violator_computes_alpha_only_from_size_2(monkeypatch):
    from spectralcert import certifiers

    calls = []
    alpha = certifiers._independence_number
    monkeypatch.setattr(certifiers, "_independence_number",
                        lambda masks: calls.append(1) or alpha(masks))
    # at n = 7 and k = 4 only size 1 can violate
    assert find_win_violator(complete_graph(7), 4) is None
    # the center of K_{1,5} leaves 5 > 2 components: found at size 1
    assert find_win_violator(star_graph(5), 2) == WinViolator((0,))
    assert calls == []
    assert find_win_violator(complete_graph(6), 2) is None
    assert calls == [1]


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


def _hall_reference(b):
    """X vertices that alternating paths from the first unmatched X vertex
    reach, breadth first, under the matching of `_recursive_matching`; None
    when that matching is perfect."""
    biadj = b.biadj  # built on each access, so built once here
    match_x = _recursive_matching(SimpleNamespace(nx=b.nx, biadj=biadj))
    if -1 not in match_x:
        return None
    match_y = {y: x for x, y in enumerate(match_x) if y != -1}
    reach_x, reach_y = {match_x.index(-1)}, set()
    frontier = list(reach_x)
    while frontier:
        nxt = []
        for x in frontier:
            for y in np.flatnonzero(biadj[x]).tolist():
                if y not in reach_y:
                    reach_y.add(y)
                    if y in match_y and match_y[y] not in reach_x:
                        reach_x.add(match_y[y])
                        nxt.append(match_y[y])
        frontier = nxt
    return tuple(sorted(reach_x))


def _check_hall_reference(b):
    result = perfect_matching(b)
    expected = _hall_reference(b)
    if expected is None:
        assert isinstance(result, PerfectMatching)
    else:
        assert result == HallViolator(expected)
        assert len(b.neighborhood(result.vertices)) < len(result.vertices)


def test_hall_violator_matches_alternating_bfs_exhaustive():
    for n in (3, 4):
        for bits in range(1 << n * n):
            _check_hall_reference(bipartite_from_bits(n, bits))


def test_hall_violator_matches_alternating_bfs_random():
    rng = np.random.default_rng(61)
    for _ in range(2000):
        n = int(rng.integers(1, 10))
        _check_hall_reference(BipartiteGraph(n, n, rng.random((n, n)) < rng.random()))


def test_hall_violator_after_a_long_failing_search():
    # the last X vertex meets only y = n-2, so its search walks the whole
    # chain down to x = 0 and reaches every X vertex
    n = 1500
    biadj = np.eye(n, dtype=bool) | np.eye(n, k=-1, dtype=bool)
    biadj[:, -1] = False
    assert perfect_matching(BipartiteGraph(n, n, biadj)) == HallViolator(tuple(range(n)))


def test_perfect_matching_keeps_ascending_augmenting_order():
    rng = np.random.default_rng(29)
    for _ in range(500):
        n = int(rng.integers(1, 9))
        b = BipartiteGraph(n, n, rng.random((n, n)) < rng.random())
        result = perfect_matching(b)
        expected = _recursive_matching(SimpleNamespace(nx=b.nx, biadj=b.biadj))
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


def _permanent_by_inclusion_exclusion(rows, n):
    """Ryser's formula: the sum over column sets S of (-1)^(n - |S|) times
    the product over rows of each row's neighbours in S."""
    total = 0
    for columns in range(1 << n):
        product = 1
        for row in rows:
            product *= (row & columns).bit_count()
        total += (-1) ** (n - columns.bit_count()) * product
    return total


def test_brute_matching_count_is_the_inclusion_exclusion_permanent():
    patterns = [(3, bits) for bits in range(1 << 9)]
    rng = np.random.default_rng(2103)
    for n in (5, 6):
        patterns += [(n, int(bits)) for bits in rng.integers(0, 1 << n * n, size=10_000)]
    counts = set()
    for n, bits in patterns:
        b = bipartite_from_bits(n, bits)
        count = count_perfect_matchings_brute(b)
        assert count == _permanent_by_inclusion_exclusion(b.x_masks, n), (n, bits)
        counts.add(count)
    assert 0 in counts and max(counts) >= 100


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


def test_certificate_to_json_refuses_a_non_certificate():
    with pytest.raises(TypeError, match="not a certificate"):
        certificate_to_json(((0, 1),))


def test_win_violator_search_refuses_a_degree_bound_below_two():
    with pytest.raises(GraphInputError, match="degree bound must be at least 2, got 1"):
        find_win_violator(complete_graph(3), 1)


def test_brute_matching_count_of_the_empty_bipartite_graph_is_one():
    assert count_perfect_matchings_brute(complete_bipartite(0, 0)) == 1
