"""Spectral kernel: matrices, certified eigensolver, bounds, quotients."""

import math
import random

import numpy as np
import pytest

from spectralcert.errors import ConvergenceError, DomainError, GraphInputError
from spectralcert.families import matching_extremal
from spectralcert.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    is_connected,
    join,
    empty_graph,
    path_graph,
    star_graph,
)
from spectralcert.spectral import (
    a_matrix,
    adjacency,
    das_bound,
    hong_bound,
    largest_eigenvalue_dense,
    quotient_matrix,
    rho_a,
    signless_laplacian,
    spectral_radius,
)

TOL = 1e-10


def _random_connected(n, p, rng):
    while True:
        adj = np.triu(rng.random((n, n)) < p, 1)
        g = Graph(n, adj | adj.T)
        if is_connected(g):
            return g


def test_matrix_constructors():
    k2 = complete_graph(2)
    assert np.array_equal(a_matrix(k2, 0.0), [[0, 1], [1, 0]])
    assert np.array_equal(a_matrix(k2, 1.0), [[1, 1], [1, 1]])
    p3 = path_graph(3)
    q = a_matrix(p3, 1.0)
    assert np.array_equal(np.diag(q), [1, 2, 1])
    assert np.array_equal(q, signless_laplacian(p3))
    assert np.array_equal(a_matrix(p3, 0.0), adjacency(p3))
    with pytest.raises(GraphInputError):
        a_matrix(p3, -0.5)


def test_spectral_radius_complete_graph():
    res = spectral_radius(adjacency(complete_graph(4)))
    assert abs(res.radius - 3.0) <= TOL
    assert res.residual <= TOL * max(1.0, res.radius)
    assert (res.vector > 0).all()
    assert abs(np.linalg.norm(res.vector) - 1.0) < 1e-12


def test_spectral_radius_complete_bipartite():
    g = complete_bipartite(3, 4).to_graph()
    res = spectral_radius(adjacency(g))
    assert abs(res.radius - math.sqrt(12)) <= 1e-9


def test_spectral_radius_star_signless_laplacian():
    # the signless Laplacian radius of a star on n vertices equals n
    res = spectral_radius(signless_laplacian(star_graph(5)))
    assert abs(res.radius - 6.0) <= 1e-9


def test_spectral_radius_disconnected():
    g = disjoint_union([complete_graph(5), complete_graph(3), empty_graph(2)])
    res = spectral_radius(adjacency(g))
    assert abs(res.radius - 4.0) <= 1e-9
    # Perron vector is supported on the winning component only
    assert (res.vector[:5] > 0).all()
    assert np.all(res.vector[5:] == 0)


def test_spectral_radius_matches_dense_oracle():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        g = _random_connected(n, 0.5, rng)
        for a in (0.0, 1.0, 0.7):
            m = a_matrix(g, a)
            got = spectral_radius(m).radius
            want = float(np.linalg.eigvalsh(m)[-1])
            assert abs(got - want) <= 1e-8


def test_spectral_radius_validates_input():
    with pytest.raises(GraphInputError):
        spectral_radius(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(GraphInputError):
        spectral_radius(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    with pytest.raises(GraphInputError):
        spectral_radius(adjacency(complete_graph(3)), tol=0.0)


def test_perron_residual_certificate():
    rng = np.random.default_rng(33)
    for _ in range(20):
        g = _random_connected(int(rng.integers(3, 10)), 0.5, rng)
        m = a_matrix(g, 1.0)
        res = spectral_radius(m)
        direct = float(np.max(np.abs(m @ res.vector - res.radius * res.vector)))
        assert direct <= TOL * max(1.0, res.radius) * 1.0000001


def test_spectral_radius_equal_components():
    # tied blocks: the vector is the Perron vector of the first block only
    for parts, radius, support in [
        ([complete_graph(4), complete_graph(4)], 3.0, 4),
        ([complete_graph(3), complete_graph(3), complete_graph(1)], 2.0, 3),
    ]:
        m = adjacency(disjoint_union(parts))
        res = spectral_radius(m)
        assert abs(res.radius - radius) <= 1e-9
        assert abs(np.linalg.norm(res.vector) - 1.0) < 1e-12
        assert (res.vector[:support] > 0).all()
        assert np.all(res.vector[support:] == 0)
        direct = float(np.max(np.abs(m @ res.vector - res.radius * res.vector)))
        assert direct <= TOL * max(1.0, res.radius)


def test_spectral_radius_dense_oracle_larger_orders():
    rng = np.random.default_rng(5)
    graphs = [_random_connected(n, p, rng) for n, p in [(22, 0.3), (40, 0.2), (60, 0.5)]]
    graphs += [matching_extremal(n, s).to_graph()
               for n, s in [(10, 1), (25, 5), (50, 10), (100, 10), (100, 33)]]
    for g in graphs:
        assert is_connected(g)
        for a in (0.0, 1.0):
            m = a_matrix(g, a)
            res = spectral_radius(m)
            want = float(np.linalg.eigvalsh(m)[-1])
            assert abs(res.radius - want) <= 1e-8 * max(1.0, want)
            assert (res.vector > 0).all()
            assert res.residual <= TOL * max(1.0, res.radius)


def test_spectral_radius_unreachable_tolerance_raises():
    m = adjacency(path_graph(5))
    with pytest.raises(ConvergenceError) as info:
        spectral_radius(m, tol=1e-300)
    assert abs(info.value.radius - math.sqrt(3)) <= 1e-12
    assert info.value.residual > 1e-300 * info.value.radius


def test_hong_bound_values():
    assert abs(hong_bound(complete_graph(4)) - 3.0) < 1e-12
    assert abs(hong_bound(path_graph(3)) - math.sqrt(2)) < 1e-12
    assert abs(hong_bound(cycle_graph(5)) - math.sqrt(6)) < 1e-12
    assert abs(rho_a(cycle_graph(5), 0.0) - 2.0) <= 1e-9
    with pytest.raises(DomainError):
        hong_bound(empty_graph(4))


def test_das_bound_values():
    assert abs(das_bound(complete_graph(4)) - 6.0) < 1e-12
    assert abs(das_bound(star_graph(3)) - 4.0) < 1e-12
    assert abs(rho_a(star_graph(3), 1.0) - 4.0) <= 1e-9
    c4 = cycle_graph(4)
    assert abs(das_bound(c4) - (8 / 3 + 2)) < 1e-12
    assert abs(rho_a(c4, 1.0) - 4.0) <= 1e-9
    with pytest.raises(GraphInputError):
        das_bound(complete_graph(1))


def test_bound_domination_random_stream():
    rng = np.random.default_rng(77)
    for _ in range(60):
        g = _random_connected(int(rng.integers(3, 11)), 0.4, rng)
        assert rho_a(g, 0.0) <= hong_bound(g) + TOL
        assert rho_a(g, 1.0) <= das_bound(g) + TOL


def test_spanning_subgraph_monotonicity():
    # deleting an edge of a connected graph strictly lowers the radius
    rng = np.random.default_rng(101)
    done = 0
    while done < 200:
        g = _random_connected(int(rng.integers(4, 11)), 0.5, rng)
        edges = g.edges()
        u, v = edges[int(rng.integers(len(edges)))]
        h = g.delete_edge(u, v)
        if not is_connected(h):
            continue
        for a in (0.0, 1.0):
            assert rho_a(h, a) < rho_a(g, a)
        done += 1


def test_edge_rotation_growth():
    from spectralcert.graphs import rotate_edges

    rng = np.random.default_rng(55)
    done = 0
    while done < 60:
        g = _random_connected(int(rng.integers(4, 10)), 0.45, rng)
        for a in (0.0, 1.0):
            res = spectral_radius(a_matrix(g, a))
            x = res.vector
            order = sorted(range(g.n), key=lambda v: -x[v])
            moved = False
            for u in order:
                for v in order:
                    if u == v or x[u] < x[v]:
                        continue
                    targets = [t for t in g.neighbors(v)
                               if t != u and not g.has_edge(u, t)]
                    if not targets:
                        continue
                    rotated = rotate_edges(g, u, v, targets)
                    grown = spectral_radius(a_matrix(rotated, a)).radius
                    assert grown > res.radius - TOL
                    if x[u] - x[v] > TOL:
                        assert grown > res.radius
                    moved = True
                    break
                if moved:
                    break
        done += 1


def test_quotient_matrix_identity_partition():
    m = adjacency(complete_graph(4))
    b, equitable = quotient_matrix(m, [[0], [1], [2], [3]])
    assert equitable
    assert np.array_equal(b, m)


def test_quotient_matrix_star():
    b, equitable = quotient_matrix(adjacency(star_graph(3)), [[0], [1, 2, 3]])
    assert equitable
    assert np.array_equal(b, [[0, 3], [1, 0]])
    assert abs(largest_eigenvalue_dense(b) - math.sqrt(3)) <= 1e-10


def test_quotient_matrix_center_clique_pendants():
    n, k = 22, 3
    g = join(complete_graph(1), disjoint_union(
        [complete_graph(n - k - 1)] + [complete_graph(1)] * k))
    classes = [[0], list(range(1, n - k)), list(range(n - k, n))]
    b, equitable = quotient_matrix(adjacency(g), classes)
    assert equitable
    assert np.array_equal(b, [[0, 18, 3], [1, 17, 0], [1, 0, 0]])


def test_quotient_matrix_flags_inequitable():
    _, equitable = quotient_matrix(adjacency(path_graph(4)), [[0, 1], [2, 3]])
    assert not equitable


def test_quotient_matrix_validates_partition():
    m = adjacency(path_graph(3))
    with pytest.raises(GraphInputError):
        quotient_matrix(m, [[0, 1]])
    with pytest.raises(GraphInputError):
        quotient_matrix(m, [[0, 1], [1, 2]])
    with pytest.raises(GraphInputError):
        quotient_matrix(m, [[0, 1], [2], []])


def test_equitable_quotient_shares_top_eigenvalue():
    cases = [
        (adjacency(star_graph(4)), [[0], [1, 2, 3, 4]]),
        (signless_laplacian(star_graph(4)), [[0], [1, 2, 3, 4]]),
        (adjacency(complete_bipartite(3, 4).to_graph()), [[0, 1, 2], [3, 4, 5, 6]]),
        (adjacency(cycle_graph(6)), [[0, 3], [1, 2, 4, 5]]),
    ]
    for m, classes in cases:
        b, equitable = quotient_matrix(m, classes)
        assert equitable
        lam_b = largest_eigenvalue_dense(b)
        lam_m = spectral_radius(m).radius
        assert abs(lam_b - lam_m) <= 1e-8


def test_largest_eigenvalue_dense_closed_forms():
    assert abs(largest_eigenvalue_dense(np.array([[0.0, 3.0], [1.0, 0.0]]))
               - math.sqrt(3)) <= 1e-10
    b, _ = quotient_matrix(adjacency(complete_bipartite(3, 4).to_graph()),
                           [[0, 1, 2], [3, 4, 5, 6]])
    assert abs(largest_eigenvalue_dense(b) - math.sqrt(12)) <= 1e-10
    # order cap
    with pytest.raises(GraphInputError):
        largest_eigenvalue_dense(np.eye(9))


def test_largest_eigenvalue_dense_vs_numpy():
    rng = np.random.default_rng(13)
    for _ in range(30):
        k = int(rng.integers(2, 6))
        m = rng.integers(0, 5, size=(k, k)).astype(float)
        # ensure a healthy Perron root
        m += np.diag(rng.integers(1, 4, size=k).astype(float))
        want = max(val.real for val in np.linalg.eigvals(m))
        got = largest_eigenvalue_dense(m)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_convergence_error_pickles_intact():
    import pickle

    err = pickle.loads(pickle.dumps(ConvergenceError("no certificate", 2.5, 1e-3, 3)))
    assert type(err) is ConvergenceError
    assert (err.radius, err.residual, err.iterations) == (2.5, 1e-3, 3)
    assert str(err) == "no certificate"


# ---------------------------------------------------------------------------
# stacks


def _reference_spectral_radius(m, tol=TOL):
    """The per-block eigensolver that stacks replaced, kept as the oracle:
    per block, eigvalsh, then shifted solves normalised by np.linalg.norm."""
    n = m.shape[0]
    seen, comps = set(), []
    for start in range(n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            v = stack.pop()
            for u in range(n):
                if u != v and m[v, u] != 0 and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(np.array(sorted(comp)))
    best_radius, best_vec, best_res, total = -math.inf, None, 0.0, 0
    for comp in comps:
        block = m[np.ix_(comp, comp)]
        radius = float(np.linalg.eigvalsh(block)[-1])
        bound = tol * max(1.0, radius)
        shifted = (radius + 1e-12 * max(1.0, radius)) * np.eye(len(comp)) - block
        x, residual = np.ones(len(comp)), math.inf
        for solves in range(1, 4):
            x = np.linalg.solve(shifted, x)
            x /= np.linalg.norm(x)
            residual = float(np.max(np.abs(block @ x - radius * x)))
            if residual <= bound:
                break
        else:
            raise ConvergenceError("reference", radius, residual, solves)
        total += solves
        if radius > best_radius:
            best_radius, best_res = radius, residual
            best_vec = np.zeros(n)
            best_vec[comp] = x
    return best_radius, best_vec, best_res, total


def _stack_cases(n, rng):
    """Matrices of order n: connected and disconnected graphs, tied blocks,
    isolated vertices, at a in {0, 1}, and a random weighted matrix."""
    graphs = [_random_connected(n, 0.5, rng)] if n > 1 else [complete_graph(1)]
    upper = np.triu(rng.random((n, n)) < 1.5 / n, 1)
    graphs.append(Graph(n, upper | upper.T))
    if n % 2 == 0:
        half = _random_connected(n // 2, 0.6, rng) if n > 2 else complete_graph(1)
        graphs.append(disjoint_union([half, half]))  # tied blocks
    if n >= 3:
        graphs.append(disjoint_union([complete_graph(n - 2), empty_graph(2)]))
    mats = [a_matrix(g, a) for g in graphs for a in (0.0, 1.0)]
    weights = np.triu(rng.random((n, n)) * (rng.random((n, n)) < 0.3), 1)
    mats.append(weights + weights.T + np.diag(rng.random(n)))
    return mats


def test_stacks_are_bit_identical_to_the_per_block_path():
    rng = np.random.default_rng(2024)
    for n in range(1, 71):
        mats = _stack_cases(n, rng)
        stacked = spectral_radius(np.stack(mats))
        assert stacked.radius.shape == stacked.residual.shape == (len(mats),)
        assert stacked.vector.shape == (len(mats), n)
        assert type(stacked.iterations) is int
        total = 0
        for i, m in enumerate(mats):
            radius, vector, residual, iterations = _reference_spectral_radius(m)
            total += iterations
            single = spectral_radius(m)
            assert type(single.radius) is float and type(single.residual) is float
            assert single.radius == radius and single.residual == residual
            assert single.iterations == iterations
            assert np.array_equal(single.vector, vector)
            assert stacked.radius[i] == radius and stacked.residual[i] == residual
            assert np.array_equal(stacked.vector[i], vector)
        assert stacked.iterations == total


def test_stack_results_are_read_only():
    res = spectral_radius(np.stack([adjacency(path_graph(4))] * 3))
    assert not res.vector.flags.writeable
    assert not spectral_radius(adjacency(path_graph(4))).vector.flags.writeable


def test_stack_validation_names_the_defect():
    good = adjacency(cycle_graph(4))
    for defect, message in [(math.nan, "matrix entries must be finite"),
                            (-1.0, "matrix entries must be nonnegative")]:
        bad = good.copy()
        bad[0, 1] = bad[1, 0] = defect
        for m in (bad, np.stack([good, bad, good])):
            with pytest.raises(GraphInputError, match=f"^{message}$"):
                spectral_radius(m)
    bad = good.copy()
    bad[0, 2] = 1.0
    for m in (bad, np.stack([good, good, bad])):
        with pytest.raises(GraphInputError, match="^matrix must be symmetric$"):
            spectral_radius(m)


def test_stack_shape_errors_are_one_line():
    for m in ([adjacency(path_graph(3)), adjacency(path_graph(4))],  # mixed orders
              np.zeros((2, 3, 4)), np.zeros((2, 2, 3, 3)), np.zeros((2, 0, 0))):
        with pytest.raises(GraphInputError) as info:
            spectral_radius(m)
        assert len(str(info.value).splitlines()) == 1


def test_stack_convergence_error_names_the_lowest_member():
    mats = np.stack([adjacency(path_graph(5)), adjacency(cycle_graph(5))])
    with pytest.raises(ConvergenceError) as info:
        spectral_radius(mats, tol=1e-300)
    with pytest.raises(ConvergenceError) as alone:
        spectral_radius(mats[0], tol=1e-300)
    assert info.value.member == 0
    assert str(info.value) == str(alone.value)
    assert ((info.value.radius, info.value.residual, info.value.iterations)
            == (alone.value.radius, alone.value.residual, alone.value.iterations))
    # K5 meets 1e-16 (its residual is one rounding), P5 and C5 do not
    mats = np.stack([adjacency(g) for g in (complete_graph(5), path_graph(5),
                                            cycle_graph(5))])
    assert spectral_radius(mats[0], tol=1e-16).iterations == 1
    with pytest.raises(ConvergenceError) as info:
        spectral_radius(mats, tol=1e-16)
    with pytest.raises(ConvergenceError) as alone:
        spectral_radius(mats[1], tol=1e-16)
    assert info.value.member == 1
    assert str(info.value) == str(alone.value)
    assert ((info.value.radius, info.value.residual, info.value.iterations)
            == (alone.value.radius, alone.value.residual, alone.value.iterations))


def test_a_matrix_stacks_graphs_of_one_order():
    rng = np.random.default_rng(8)
    graphs = [_random_connected(7, 0.4, rng) for _ in range(5)]
    for a in (0.0, 1.0, 0.5):
        stack = a_matrix(graphs, a)
        assert stack.shape == (5, 7, 7)
        for g, m in zip(graphs, stack):
            assert m.tobytes() == a_matrix(g, a).tobytes()
    with pytest.raises(GraphInputError):
        a_matrix([path_graph(3), path_graph(4)], 0.0)
    with pytest.raises(GraphInputError):
        a_matrix([], 0.0)


def test_singular_shifted_solve_fails_only_its_member(monkeypatch):
    # a breakdown of the shifted solve cannot be provoked by a real input;
    # a stand-in solve treats the member with entry 0.5 as singular
    real_solve = np.linalg.solve

    def solve(a, b):
        if np.any(a[..., 0, 1] == -0.5):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    odd = adjacency(path_graph(3))
    odd[0, 1] = odd[1, 0] = 0.5
    mats = np.stack([adjacency(path_graph(3)), odd, adjacency(cycle_graph(3))])
    monkeypatch.setattr(np.linalg, "solve", solve)
    with pytest.raises(ConvergenceError) as info:
        spectral_radius(mats)
    assert info.value.member == 1
    assert (info.value.residual, info.value.iterations) == (math.inf, 1)
    assert str(info.value).startswith("no certified eigenpair after 1 inverse-iteration "
                                      "solve(s) (residual inf, ")
    good = spectral_radius(mats[[0, 2]])
    monkeypatch.undo()
    assert np.array_equal(good.radius, spectral_radius(mats[[0, 2]]).radius)


def test_a_matrix_rejects_a_non_finite_weight():
    for a in (math.nan, math.inf):
        with pytest.raises(GraphInputError, match="^diagonal weight must be nonnegative "
                                                  "and finite, got "):
            a_matrix(complete_graph(3), a)


def _first_failure_alone(graphs, weights, tol):
    """(index, error) of the first (graph, weight) pair, graph by graph, whose
    eigensolve fails alone; None when every pair passes."""
    for i, g in enumerate(graphs):
        for a in weights:
            try:
                spectral_radius(a_matrix(g, a), tol)
            except ConvergenceError as exc:
                return i, exc
    return None


def _radii_inputs():
    """Graph lists of mixed orders for radii: the n <= 6 corpus shuffled, and
    two lists that put the order-6 graphs failing alone at 3e-16 after six
    and nine passing ones, past the first stack of four."""
    from spectralcert.smallgraphs import connected_graphs

    corpus = [g for n in range(1, 7) for g in connected_graphs(n)]
    random.Random(4).shuffle(corpus)
    sixes = connected_graphs(6)
    failing = [g for g in sixes if _first_failure_alone([g], (0.0, 1.0), 3e-16)]
    passing = [g for g in sixes if g not in failing]
    assert failing
    return [corpus, passing[:6] + failing + connected_graphs(4),
            connected_graphs(3) + passing[:9] + failing[::-1] + passing[9:20]
            + connected_graphs(5)]


def _bits_of(values):
    return [[x.hex() for x in row] for row in values]


def test_radii_split_into_chunks_match_one_solve_per_graph(monkeypatch):
    import spectralcert.spectral as spectral

    solve, calls = spectral.spectral_radius, []
    monkeypatch.setattr(spectral, "STACK_ENTRIES", 4 * 36)  # 4 graphs of order 6 a stack
    monkeypatch.setattr(spectral, "spectral_radius",
                        lambda m, tol: calls.append(m.shape) or solve(m, tol))
    weights = (0.0, 1.0)
    for graphs in _radii_inputs():
        calls.clear()
        radius, residual = spectral.radii(graphs, weights, TOL)
        assert all(b * n * n <= 4 * 36 or b == 1 for b, n, _ in calls)
        assert sum(n == 6 for _, n, _ in calls) > 2 * len(weights)  # order 6 splits
        alone = [[solve(a_matrix(g, a), TOL) for a in weights] for g in graphs]
        assert _bits_of(radius) == _bits_of([[r.radius for r in rs] for rs in alone])
        assert _bits_of(residual) == _bits_of([[r.residual for r in rs] for rs in alone])


def test_radii_raise_the_first_failure_alone_from_any_chunk(monkeypatch):
    import spectralcert.spectral as spectral

    monkeypatch.setattr(spectral, "STACK_ENTRIES", 4 * 36)
    weights, tol, later = (0.0, 1.0), 3e-16, 0
    for graphs in _radii_inputs():
        i, exc = _first_failure_alone(graphs, weights, tol)
        step = max(1, 4 * 36 // graphs[i].n ** 2)
        later += sum(h.n == graphs[i].n for h in graphs[:i]) >= step
        with pytest.raises(ConvergenceError) as info:
            spectral.radii(graphs, weights, tol)
        assert info.value.member == i
        assert str(info.value) == str(exc)
        assert ((info.value.radius, info.value.residual, info.value.iterations)
                == (exc.radius, exc.residual, exc.iterations))
    assert later >= 2  # the first failure sat past the first chunk of its order


def test_spectral_radius_rejects_tolerances_that_void_the_certificate():
    # an infinite tolerance certifies any residual; NaN used to reach the
    # solver and fail there as a ConvergenceError
    m = a_matrix(complete_graph(3), 0.0)
    for tol in (math.inf, math.nan, 0.0, -1e-10):
        with pytest.raises(GraphInputError, match="^tolerance must be positive and finite$"):
            spectral_radius(m, tol)


def test_quotient_matrix_refuses_bad_matrices_and_indices():
    for m, classes, message in [
            (np.zeros((2, 3)), [[0, 1]], "expected a square matrix, got shape (2, 3)"),
            ([[0, 1], [1]], [[0, 1]], "expected a square matrix, got ragged or non-numeric input"),
            (np.zeros((3, 3)), [[0, 1], [3]], "index 3 outside 0..2"),
            (np.zeros((3, 3)), [[0, 1], [-1, 2]], "index -1 outside 0..2")]:
        with pytest.raises(GraphInputError) as info:
            quotient_matrix(m, classes)
        assert str(info.value) == message


def test_largest_eigenvalue_dense_refusals():
    for m, message in [
            ([[0.0, math.nan], [1.0, 0.0]], "matrix entries must be finite"),
            ([[0.0, -1.0], [1.0, 0.0]], "matrix entries must be nonnegative"),
            ([[1, 2], [3]], "expected a square matrix, got ragged or non-numeric input"),
            (np.zeros((0, 0)), "matrix order must be positive"),
            (np.zeros((2, 3)), "expected a square matrix, got shape (2, 3)"),
            (np.zeros((2, 2, 2)), "expected a square matrix, got shape (2, 2, 2)")]:
        with pytest.raises(GraphInputError) as info:
            largest_eigenvalue_dense(m)
        assert str(info.value) == message
