"""Graph core: constructors, joins, graph6, removal/rotation operations."""

import numpy as np
import pytest

from spectralcert.errors import Graph6ParseError, GraphInputError
from spectralcert.graphs import (
    BipartiteGraph,
    Graph,
    bipartite_join,
    build_graph,
    complete_bipartite,
    complete_graph,
    components_after_removal,
    cycle_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    is_connected,
    join,
    min_degree,
    path_graph,
    rotate_edges,
    star_graph,
    to_graph6,
)


def test_build_graph_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3 and g.m == 2
    assert g.degrees == (1, 2, 1)


def test_build_graph_singleton_and_complete():
    assert build_graph(1, []).m == 0
    k4 = build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert k4.m == 6
    assert k4 == complete_graph(4)


def test_build_graph_deduplicates():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_build_graph_rejects_bad_edges():
    with pytest.raises(GraphInputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(GraphInputError):
        build_graph(3, [(1, 1)])


def test_bipartite_constructor_checks_the_shape():
    assert BipartiteGraph(2, 3, [[1, 0, 1], [0, 1, 1]]).x_masks == (0b101, 0b110)
    assert BipartiteGraph(0, 3, np.zeros((0, 3))).nx == 0
    # a transposed matrix or a flat list of the right size is another graph,
    # not a reshape of this one
    for biadj, shape in [(np.ones((3, 2)), (3, 2)), ([1, 0, 1, 0, 1, 1], (6,)),
                         (np.ones((2, 4)), (2, 4))]:
        with pytest.raises(GraphInputError) as info:
            BipartiteGraph(2, 3, biadj)
        assert str(info.value) == f"biadjacency shape {shape} does not match nx=2, ny=3"


def test_graph_is_immutable():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        g.adj[0, 1] = False


def test_join_complete():
    assert join(complete_graph(1), complete_graph(4)) == complete_graph(5)


def test_join_star():
    s = join(complete_graph(1), empty_graph(4))
    assert s.degrees == (4, 1, 1, 1, 1)
    assert s == star_graph(4)


def test_join_edge_count_law():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n1, n2 = rng.integers(1, 7, size=2)
        g1 = _random_graph(int(n1), rng)
        g2 = _random_graph(int(n2), rng)
        j = join(g1, g2)
        assert j.m == g1.m + g2.m + g1.n * g2.n


def test_disjoint_union():
    g = disjoint_union([complete_graph(3), complete_graph(1)])
    assert g.n == 4 and g.m == 3
    assert not is_connected(g)
    with pytest.raises(GraphInputError):
        disjoint_union([])


def test_bipartite_join_double_star():
    # K_{2,1} joined onto K_{1,2}: only one cross edge (X2 x Y1) is added.
    b = bipartite_join(complete_bipartite(2, 1), complete_bipartite(1, 2))
    assert (b.nx, b.ny) == (3, 3)
    assert b.m == 2 + 2 + 1
    # y0 sees x0, x1, x2; x2 sees y0, y1, y2
    assert b.y_degrees[0] == 3
    assert b.x_degrees[2] == 3


def test_bipartite_join_empty_operand():
    b = bipartite_join(complete_bipartite(1, 1), complete_bipartite(0, 0))
    assert (b.nx, b.ny, b.m) == (1, 1, 1)


def test_bipartite_join_degree_law():
    rng = np.random.default_rng(11)
    for _ in range(20):
        b1 = _random_bipartite(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
        b2 = _random_bipartite(int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng)
        j = bipartite_join(b1, b2)
        for x in range(b1.nx):
            assert j.x_degrees[x] == b1.x_degrees[x]
        for x in range(b2.nx):
            assert j.x_degrees[b1.nx + x] == b2.x_degrees[x] + b1.ny
        for y in range(b1.ny):
            assert j.y_degrees[y] == b1.y_degrees[y] + b2.nx
        for y in range(b2.ny):
            assert j.y_degrees[b1.ny + y] == b2.y_degrees[y]


def test_bipartite_to_graph():
    g = complete_bipartite(2, 3).to_graph()
    assert g.n == 5 and g.m == 6
    assert g.degrees == (3, 3, 2, 2, 2)


def test_components_after_removal():
    p3 = path_graph(3)
    assert components_after_removal(p3, {1}) == 2
    assert components_after_removal(p3, set()) == 1
    assert components_after_removal(p3, {0, 1, 2}) == 0


def test_components_after_removal_center():
    # one center over a clique plus k isolated vertices: removing the center
    # leaves k+1 components
    for n, k in [(8, 3), (10, 4)]:
        g = join(complete_graph(1), disjoint_union(
            [complete_graph(n - k - 1)] + [complete_graph(1)] * k))
        assert components_after_removal(g, {0}) == k + 1


def test_connectivity_flags():
    assert is_connected(complete_graph(4))
    assert min_degree(complete_graph(4)) == 3
    g = disjoint_union([complete_graph(3), complete_graph(1)])
    assert not is_connected(g)
    assert min_degree(g) == 0
    assert min_degree(complete_bipartite(2, 5)) == 2


def test_rotate_edges_path():
    # moving an end edge of a path onto the far end relabels the path
    p4 = path_graph(4)
    g = rotate_edges(p4, u=3, v=1, targets={0})
    assert g.m == p4.m == 3
    assert sorted(g.degrees) == [1, 1, 2, 2]
    assert g.has_edge(0, 3) and not g.has_edge(0, 1)


def test_rotate_edges_star_center_shift():
    s = star_graph(3)  # center 0, leaves 1..3
    g = rotate_edges(s, u=1, v=0, targets={2, 3})
    assert g.m == s.m
    assert g.degree(1) == 3 and g.degree(0) == 1


def test_rotate_edges_validates():
    s = star_graph(3)
    with pytest.raises(GraphInputError):
        rotate_edges(s, u=1, v=0, targets={1})  # u in targets
    with pytest.raises(GraphInputError):
        rotate_edges(s, u=0, v=0, targets={1})
    with pytest.raises(GraphInputError):
        rotate_edges(s, u=1, v=2, targets={3})  # 3 not a neighbor of 2


def test_rotate_preserves_counts_random():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = _random_graph(int(rng.integers(3, 9)), rng)
        verts = list(range(g.n))
        rng.shuffle(verts)
        u, v = verts[0], verts[1]
        movable = [t for t in g.neighbors(v) if t != u and not g.has_edge(u, t)]
        if not movable:
            continue
        take = movable[: int(rng.integers(1, len(movable) + 1))]
        h = rotate_edges(g, u, v, take)
        assert h.n == g.n and h.m == g.m


# graph6 -------------------------------------------------------------------

def test_graph6_frozen_examples():
    assert to_graph6(complete_graph(2)) == b"A_"
    assert to_graph6(complete_graph(1)) == b"@"
    assert from_graph6("A_") == complete_graph(2)
    assert from_graph6("D??") == empty_graph(5)


def test_graph6_path_roundtrip():
    p3 = path_graph(3)
    assert from_graph6(to_graph6(p3)) == p3


def test_graph6_accepts_prefix_and_newline():
    assert from_graph6(b">>graph6<<A_\n") == complete_graph(2)


def test_graph6_roundtrip_random():
    rng = np.random.default_rng(5)
    for n in [1, 2, 5, 13, 30, 62]:
        for _ in range(4):
            g = _random_graph(n, rng)
            assert from_graph6(to_graph6(g)) == g


def test_graph6_extended_length_form():
    rng = np.random.default_rng(9)
    g = _random_graph(63, rng)
    enc = to_graph6(g)
    assert enc[0] == 126
    assert from_graph6(enc) == g


def test_graph6_parse_errors_carry_offsets():
    with pytest.raises(Graph6ParseError):
        from_graph6("")
    with pytest.raises(Graph6ParseError) as ei:
        from_graph6("B")  # truncated payload
    assert ei.value.offset >= 1
    with pytest.raises(Graph6ParseError):
        from_graph6("A_~")  # trailing junk
    with pytest.raises(Graph6ParseError):
        from_graph6(bytes([63 + 2, 200]))  # payload byte out of range
    with pytest.raises(Graph6ParseError):
        from_graph6("Ao")  # nonzero padding bits for n=2


def test_graph6_non_ascii_reports_offset():
    for text, offset in [("Cé", 1), ("C~\udcff", 2), ("\u00e9", 0)]:
        with pytest.raises(Graph6ParseError) as ei:
            from_graph6(text)
        assert ei.value.offset == offset
        assert str(ei.value) == f"non-ASCII character (byte offset {offset})"


def test_graph6_parse_error_pickles_intact():
    import pickle

    err = pickle.loads(pickle.dumps(Graph6ParseError("truncated extended header", 3)))
    assert type(err) is Graph6ParseError
    assert err.offset == 3
    assert str(err) == "truncated extended header (byte offset 3)"


def test_graph6_cycle_known_value():
    # C5 encodes to 'DQc' in canonical graph6 ordering; check round-trip and
    # bit layout instead of trusting memory: decode-encode must be stable.
    c5 = cycle_graph(5)
    enc = to_graph6(c5)
    assert from_graph6(enc) == c5
    assert enc[0] == ord("D")


def _random_graph(n, rng):
    adj = rng.random((n, n)) < 0.4
    adj = np.triu(adj, 1)
    return Graph(n, adj | adj.T)


def _random_bipartite(nx, ny, rng):
    return BipartiteGraph(nx, ny, rng.random((nx, ny)) < 0.5)


def test_graph6_bytes_are_pinned():
    # pinned bytes, so a bit-order slip made in both the encoder and the
    # decoder cannot pass as a round trip
    import hashlib

    rng = np.random.default_rng(2024)
    pinned = {
        63: ("cfbdd07658bcbf70ac0166dfc6bfa13f5826c9c7d39d39f6ed3ca723cb9740f6", 330, 971),
        500: ("dc996553cddf687bfbfc0e2734c3c5f4f9b2eff1af1861d16fb8950880adc36b",
              20796, 62314),
    }
    for n, (digest, size, m) in pinned.items():
        upper = np.triu(rng.random((n, n)) < 0.5, 1)
        g = Graph(n, upper | upper.T)
        enc = to_graph6(g)
        assert (hashlib.sha256(enc).hexdigest(), len(enc), g.m) == (digest, size, m)
        assert from_graph6(enc) == g
        assert enc[0] == 126
        assert (enc[1] - 63) << 12 | (enc[2] - 63) << 6 | (enc[3] - 63) == n
    assert enc[:4] == b"~?Fs"


@pytest.mark.parametrize("width", [1, 7, 8, 63, 64, 65, 130])
def test_packed_rows_round_trip_at_word_boundaries(width):
    from spectralcert.graphs import _mask_rows, _row_masks

    rng = np.random.default_rng(width)
    for count in (0, 1, 5):
        rows = rng.random((count, width)) < 0.5
        rows[:, -1] |= count > 1  # the top bit of a word, in some rows
        masks = _row_masks(rows)
        assert masks == tuple(sum(1 << j for j in range(width) if row[j]) for row in rows)
        assert all(type(mask) is int for mask in masks)
        back = _mask_rows(masks, width)
        assert back.shape == (count, width) and back.dtype == bool
        assert not back.flags.writeable
        assert np.array_equal(back, rows)


@pytest.mark.parametrize("n", [64, 65])
def test_a_matrix_stack_matches_dense_reference_at_the_word_width(n):
    from spectralcert.spectral import a_matrix

    rng = np.random.default_rng(n)
    graphs = []
    for p in (0.1, 0.5, 1.0):
        upper = np.triu(rng.random((n, n)) < p, 1)
        graphs.append(Graph(n, upper | upper.T))
    reference = np.zeros((len(graphs), n, n))
    for b, g in enumerate(graphs):
        for i, mask in enumerate(g.neighbor_masks):
            for j in range(n):
                reference[b, i, j] = mask >> j & 1
            reference[b, i, i] = 0.5 * bin(mask).count("1")
    stack = a_matrix(graphs, 0.5)
    assert stack.dtype == reference.dtype and stack.tobytes() == reference.tobytes()
    off_diagonal = ~np.eye(n, dtype=bool)
    for b, g in enumerate(graphs):
        assert np.array_equal(g.adj, (reference[b] != 0) & off_diagonal)
        assert Graph(n, g.adj) == g


def test_graph_constructor_rejections():
    for n, adj, message in [
            (0, np.zeros((0, 0)), "vertex count must be positive, got 0"),
            (3, np.zeros((2, 2)), "adjacency shape (2, 2) does not match n=3"),
            (2, [[1, 0], [0, 0]], "self-loops are not allowed"),
            (2, [[0, 1], [0, 0]], "adjacency relation must be symmetric")]:
        with pytest.raises(GraphInputError) as info:
            Graph(n, adj)
        assert str(info.value) == message


def test_bipartite_constructor_refuses_negative_part_sizes():
    for nx, ny in [(-1, 2), (2, -1)]:
        with pytest.raises(GraphInputError, match="part sizes must be nonnegative"):
            BipartiteGraph(nx, ny, np.zeros((2, 2)))


def test_array_constructors_refuse_entries_other_than_0_and_1():
    # a cast to bool would read each of these as an edge
    nan = float("nan")
    for bad in (nan, 2, 0.5, -1, "1", None):
        with pytest.raises(GraphInputError, match="adjacency entries must be 0 or 1"):
            Graph(2, [[0, bad], [bad, 0]])
        with pytest.raises(GraphInputError, match="biadjacency entries must be 0 or 1"):
            BipartiteGraph(1, 2, [[1, bad]])
    for one in (1, 1.0, True):
        assert Graph(2, [[0, one], [one, 0]]).m == 1
        assert BipartiteGraph(1, 2, [[one, 0]]).x_masks == (1,)


def test_array_constructors_refuse_ragged_input():
    with pytest.raises(GraphInputError, match="adjacency must be a rectangular array"):
        Graph(2, [[0, 1], [1]])
    with pytest.raises(GraphInputError, match="biadjacency must be a rectangular array"):
        BipartiteGraph(2, 2, [[1], [0, 1]])


@pytest.mark.parametrize("n", [1, 7, 63, 64, 65, 130])
def test_edge_count_and_degrees_are_the_adjacency_sums(n):
    rng = np.random.default_rng(n)
    for p in (0.05, 0.5, 0.95):
        upper = np.triu(rng.random((n, n)) < p, 1)
        adj = upper | upper.T
        g = Graph(n, adj)
        sums = adj.sum(axis=1)
        assert g.m == int(sums.sum()) // 2
        assert g.degrees == tuple(int(s) for s in sums)
        assert min_degree(g) == int(sums.min())
