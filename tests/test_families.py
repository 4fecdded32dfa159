"""Extremal families: constructors, closed forms, quotient quartic, recognizers."""

import math

import numpy as np
import pytest

from spectralcert.errors import GraphInputError
from spectralcert.families import (
    is_ktree_extremal,
    is_matching_extremal,
    ktree_extremal,
    ktree_quotient_matrix,
    matching_extremal,
    matching_partition,
    matching_quotient_charpoly,
    matching_quotient_charpoly_diff,
    matching_quotient_matrix,
    q_matching_extremal,
    rho_matching_extremal,
    sqrt_threshold,
    win_family,
    win_family_bound_polynomials,
    win_family_twice_edges,
)
from spectralcert.graphs import (
    BipartiteGraph,
    complete_graph,
    components_after_removal,
    empty_graph,
    join,
    min_degree,
)
from spectralcert.spectral import (
    a_matrix,
    adjacency,
    das_bound,
    hong_bound,
    largest_eigenvalue_dense,
    quotient_matrix,
    signless_laplacian,
    spectral_radius,
)


def test_ktree_extremal_structure():
    g = ktree_extremal(6, 3)
    assert g.n == 6 and g.m == 1 + 5
    assert sorted(g.degrees) == [1, 1, 1, 2, 2, 5]
    assert g.degrees[0] == 5


def test_ktree_extremal_degenerate_star():
    for k in (2, 3, 5):
        assert ktree_extremal(k + 2, k) == join(complete_graph(1), empty_graph(k + 1))


def test_ktree_extremal_threshold_order():
    g = ktree_extremal(22, 3)
    assert g.n == 22
    assert g.degrees.count(1) == 3
    with pytest.raises(GraphInputError):
        ktree_extremal(4, 3)
    with pytest.raises(GraphInputError):
        ktree_extremal(10, 1)


def test_win_family_matches_ktree_extremal():
    n, k = 12, 3
    assert win_family(1, (n - k - 1,) + (1,) * k) == ktree_extremal(n, k)


def test_win_family_small():
    g = win_family(2, (1, 1, 1))
    assert g.n == 5 and g == join(complete_graph(2), empty_graph(3))


def test_win_family_component_count():
    for s, parts in [(1, (4, 2, 1)), (2, (3, 3)), (3, (5, 1, 1, 1))]:
        g = win_family(s, parts)
        assert components_after_removal(g, range(s)) == len(parts)


def test_win_family_validation():
    with pytest.raises(GraphInputError):
        win_family(0, (2, 1))
    with pytest.raises(GraphInputError):
        win_family(1, (1, 2))
    with pytest.raises(GraphInputError):
        win_family(1, ())


def test_matching_extremal_double_star():
    b = matching_extremal(3, 1)
    assert (b.nx, b.ny) == (3, 3)
    assert b.m == 5
    # two X vertices of degree 1 sharing their unique neighbor
    assert sorted(b.x_degrees) == [1, 1, 3]
    assert sorted(b.y_degrees) == [1, 1, 3]
    assert b.neighborhood([0, 1]) == frozenset({0})


def test_matching_extremal_basics():
    b = matching_extremal(4, 1)
    assert b.nx + b.ny == 8
    assert min_degree(b) == 1
    assert b.neighborhood([0, 1]) == frozenset({0})
    for n, s in [(6, 1), (6, 2), (9, 3)]:
        b = matching_extremal(n, s)
        assert min_degree(b) == s
        # s+1 low-degree vertices share an s-element neighborhood
        low = [x for x in range(n) if b.x_degrees[x] == s]
        assert len(low) == s + 1
        assert len(b.neighborhood(low)) == s


def test_matching_extremal_validation():
    with pytest.raises(GraphInputError):
        matching_extremal(3, 3)
    with pytest.raises(GraphInputError):
        matching_extremal(3, -1)


def test_rho_closed_form_spot_value():
    assert abs(rho_matching_extremal(3, 1) - 2.0) <= 1e-10
    # independent dense eigensolve of the 6-vertex double star
    g = matching_extremal(3, 1).to_graph()
    oracle = float(np.linalg.eigvalsh(adjacency(g))[-1])
    assert abs(rho_matching_extremal(3, 1) - oracle) <= 1e-10


def test_q_closed_form_spot_values():
    want = (5 + math.sqrt(17)) / 2
    assert abs(q_matching_extremal(3, 1) - want) <= 1e-12
    g = matching_extremal(3, 1).to_graph()
    oracle = float(np.linalg.eigvalsh(signless_laplacian(g))[-1])
    assert abs(q_matching_extremal(3, 1) - oracle) <= 1e-8
    assert abs(q_matching_extremal(2, 1) - 3.0) <= 1e-12


def test_closed_forms_match_eigensolver_small_sweep():
    for n in range(3, 13):
        for delta in range(1, (n - 1) // 2 + 1):
            if 2 * delta >= n:
                continue
            g = matching_extremal(n, delta).to_graph()
            rho = spectral_radius(adjacency(g)).radius
            q = spectral_radius(signless_laplacian(g)).radius
            assert abs(rho_matching_extremal(n, delta) - rho) <= 1e-8
            assert abs(q_matching_extremal(n, delta) - q) <= 1e-8


def test_closed_form_monotone_in_n():
    for delta in (1, 2, 3):
        values = [rho_matching_extremal(n, delta) for n in range(2 * delta + 1, 25)]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_sqrt_threshold_dominated_by_family_value():
    for n in range(3, 25):
        for delta in range(1, (n - 1) // 2 + 1):
            assert rho_matching_extremal(n, delta) >= sqrt_threshold(n, delta) - 1e-12


def test_quotient_matrix_frozen_example():
    b = matching_quotient_matrix(3, 1, 0.0)
    assert np.array_equal(b, [[0, 0, 1, 0], [0, 0, 1, 2], [2, 1, 0, 0], [0, 1, 0, 0]])
    assert abs(largest_eigenvalue_dense(b) - 2.0) <= 1e-10


def test_quotient_matrix_matches_block_average():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(3, 16))
        s = int(rng.integers(1, n - 1))  # keep every block nonempty
        a = float(rng.choice([0.0, 1.0, float(rng.random() * 2)]))
        g = matching_extremal(n, s).to_graph()
        got, equitable = quotient_matrix(a_matrix(g, a), matching_partition(n, s))
        assert equitable
        assert np.allclose(got, matching_quotient_matrix(n, s, a), atol=1e-12)


def test_quotient_row_sums_reflect_degrees():
    # at a=1 each quotient row sums to twice the class degree
    for n, s in [(5, 1), (8, 3), (12, 5)]:
        b = matching_quotient_matrix(n, s, 1.0)
        class_degrees = [s, n, n, n - s - 1]
        assert np.allclose(b.sum(axis=1), [2 * d for d in class_degrees])


def test_charpoly_reduces_at_a0():
    # (n=3, s=1, a=0): x^4 - 5x^2 + 4 with roots +-1, +-2
    for x in (-2.0, -1.0, 1.0, 2.0):
        assert abs(matching_quotient_charpoly(3, 1, 0.0, x)) <= 1e-12
    for x in (0.0, 0.5, 3.0):
        assert abs(matching_quotient_charpoly(3, 1, 0.0, x)
                   - (x**4 - 5 * x**2 + 4)) <= 1e-12


def test_charpoly_vanishes_at_quotient_top_eigenvalue():
    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(3, 20))
        s = int(rng.integers(1, n))
        a = float(rng.choice([0.0, 1.0, float(rng.random() * 2)]))
        lam = largest_eigenvalue_dense(matching_quotient_matrix(n, s, a))
        value = matching_quotient_charpoly(n, s, a, lam)
        scale = max(1.0, lam**4)
        assert abs(value) <= 1e-6 * scale


def test_charpoly_difference_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        s = int(rng.integers(1, n))
        a = float(rng.random() * 2)
        x = float(rng.normal(scale=n))
        lhs = (matching_quotient_charpoly(n, s, a, x)
               - matching_quotient_charpoly(n, s - 1, a, x))
        rhs = matching_quotient_charpoly_diff(n, s, a, x)
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-6 * scale


def test_win_family_twice_edges_matches_construction():
    for k in (3, 4, 5):
        for s in (1, 2, 3):
            for n in (2 * k + 16, 2 * k + 20):
                t = (k - 2) * s + 3
                big = n - s - t + 1
                if big < 1:
                    continue
                g = win_family(s, (big,) + (1,) * (t - 1))
                assert win_family_twice_edges(n, k, s) == 2 * g.m


def test_bound_polynomials_tie_to_edge_bounds():
    # f is the 2m-n+1 radicand and g/(n-1) the degree bound of the family
    for k, s, n in [(3, 2, 22), (4, 2, 24), (5, 3, 40)]:
        t = (k - 2) * s + 3
        g_graph = win_family(s, (n - s - t + 1,) + (1,) * (t - 1))
        f_val, g_val = win_family_bound_polynomials(n, k, s)
        assert f_val == 2 * g_graph.m - n + 1
        assert g_val == 2 * g_graph.m + (n - 1) * (n - 2)
        assert abs(math.sqrt(f_val) - hong_bound(g_graph)) <= 1e-12
        assert abs(g_val / (n - 1) - das_bound(g_graph)) <= 1e-12


def test_bound_polynomials_difference_is_constant_in_s():
    for n, k in [(22, 3), (30, 4)]:
        const = n**2 - 6 * n + 7 - 2 * (n - 2) ** 2
        for s in (0.0, 1.5, 2.0, 7.25):
            f_val, g_val = win_family_bound_polynomials(n, k, s)
            assert abs((f_val - g_val) - const) <= 1e-9


def test_bound_polynomials_maximized_at_two():
    for k in range(3, 11):
        for n in range(2 * k + 16, 61):
            upper = (n - 3) / (k - 1)
            f2, g2 = win_family_bound_polynomials(n, k, 2)
            fu, gu = win_family_bound_polynomials(n, k, upper)
            assert f2 >= fu - 1e-9
            assert g2 >= gu - 1e-9
            assert math.sqrt(f2) < n - k - 1
            assert g2 / (n - 1) < 2 * (n - k - 1)


def test_ktree_recognizer_round_trip():
    assert is_ktree_extremal(ktree_extremal(10, 3), 10, 3)
    assert is_ktree_extremal(ktree_extremal(22, 3), 22, 3)
    assert is_ktree_extremal(ktree_extremal(6, 4), 6, 4)


def test_ktree_recognizer_rejects_perturbations():
    g = ktree_extremal(10, 3)
    clique_edge = next(e for e in g.edges() if 0 not in e)
    assert not is_ktree_extremal(g.delete_edge(*clique_edge), 10, 3)
    assert not is_ktree_extremal(g, 10, 4)
    assert not is_ktree_extremal(complete_graph(10), 10, 3)


def test_ktree_recognizer_label_invariant():
    from spectralcert.graphs import Graph

    rng = np.random.default_rng(41)
    g = ktree_extremal(9, 3)
    perm = list(range(9))
    rng.shuffle(perm)
    adj = np.zeros((9, 9), dtype=bool)
    for u, v in g.edges():
        adj[perm[u], perm[v]] = adj[perm[v], perm[u]] = True
    assert is_ktree_extremal(Graph(9, adj), 9, 3)


def test_matching_recognizer_round_trip_and_transpose():
    for n, s in [(3, 1), (4, 1), (6, 2), (9, 4)]:
        b = matching_extremal(n, s)
        assert is_matching_extremal(b, n, s)
        assert is_matching_extremal(b.transpose(), n, s)


def test_matching_recognizer_family_self_pairing():
    # swapping parts of the (n, s) graph yields the (n, n-s-1) graph, so the
    # recognizer answers True for both parameters and False elsewhere
    b = matching_extremal(4, 1)
    assert is_matching_extremal(b, 4, 2)
    assert not is_matching_extremal(b, 4, 3)
    assert not is_matching_extremal(matching_extremal(3, 1), 3, 2)
    assert not is_matching_extremal(matching_extremal(9, 4), 9, 3)


def test_matching_recognizer_label_invariant():
    rng = np.random.default_rng(43)
    b = matching_extremal(4, 1)
    rows = rng.permutation(4)
    cols = rng.permutation(4)
    shuffled = BipartiteGraph(4, 4, np.asarray(b.biadj)[np.ix_(rows, cols)])
    assert is_matching_extremal(shuffled, 4, 1)


def test_matching_recognizer_rejects_perturbations():
    b = matching_extremal(5, 2)
    x2_edge = (3, 3)  # an X2-Y2 edge
    assert not is_matching_extremal(b.delete_edge(*x2_edge), 5, 2)
    from spectralcert.graphs import complete_bipartite

    assert not is_matching_extremal(complete_bipartite(5, 5), 5, 2)


def _relabel(g, rng):
    from spectralcert.graphs import Graph

    perm = rng.permutation(g.n)
    adj = np.zeros_like(g.adj)
    adj[np.ix_(perm, perm)] = g.adj
    return Graph(g.n, adj)


def test_ktree_recognizer_agrees_with_isomorphism_exhaustively():
    # every connected graph on 4..7 vertices with the family's edge count,
    # randomly relabeled, against the exact isomorphism test
    from spectralcert.smallgraphs import are_isomorphic, connected_graphs

    rng = np.random.default_rng(5)
    checked = matches = 0
    for n in range(4, 8):
        graphs = connected_graphs(n)
        for k in range(2, n - 1):
            target = ktree_extremal(n, k)
            for g in graphs:
                if g.m != target.m:
                    continue
                g = _relabel(g, rng)
                expected = are_isomorphic(g, target)
                assert is_ktree_extremal(g, n, k) == expected, (n, k, g.edges())
                checked += 1
                matches += expected
    assert matches == 1 + 2 + 3 + 4  # one class per (n, k)
    assert checked == 328


def test_matching_recognizer_agrees_with_isomorphism_exhaustively():
    # every n+n pattern (n <= 4) with the family's edge count, in both
    # orientations, against the exact isomorphism test
    from spectralcert.smallgraphs import are_isomorphic
    from spectralcert.verify import bipartite_from_bits

    checked = matches = 0
    for n in range(1, 5):
        for delta in range(n):
            target = matching_extremal(n, delta)
            target_graph = target.to_graph()
            for bits in range(1 << (n * n)):
                if bits.bit_count() != target.m:
                    continue
                b = bipartite_from_bits(n, bits)
                for oriented in (b, b.transpose()):
                    expected = are_isomorphic(oriented.to_graph(), target_graph)
                    assert is_matching_extremal(oriented, n, delta) == expected, (n, delta, bits)
                    checked += 1
                    matches += expected
    assert checked == 39926
    assert matches > 0


def test_families_does_not_import_smallgraphs():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spectralcert

    src = str(Path(spectralcert.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, spectralcert.families; "
            "print('spectralcert.smallgraphs' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"


def test_quotient_matrix_rejects_a_non_finite_weight():
    for a in (math.nan, math.inf):
        with pytest.raises(GraphInputError, match="^diagonal weight must be nonnegative "
                                                  "and finite, got "):
            matching_quotient_matrix(3, 1, a)


def test_ktree_recognizer_refuses_parameters_outside_the_family():
    g = ktree_extremal(8, 3)
    for n, k in [(8, 1), (4, 3), (9, 3), (7, 3)]:
        assert not is_ktree_extremal(g, n, k)


def test_matching_recognizer_refuses_parameters_outside_the_family():
    b = matching_extremal(4, 1)
    for n, delta in [(4, -1), (4, 4), (5, 1), (3, 1)]:
        assert not is_matching_extremal(b, n, delta)
    assert not is_matching_extremal(BipartiteGraph(4, 3, np.ones((4, 3))), 4, 1)


def test_sqrt_threshold_negative_radicand_message():
    from spectralcert.errors import DomainError

    with pytest.raises(DomainError) as info:
        sqrt_threshold(2, 2)
    assert str(info.value) == "n(n-delta-1) negative for n=2, delta=2"


@pytest.mark.parametrize("k", [2, 3, 5])
@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
def test_ktree_quotient_matrix_is_the_equitable_block_average(k, a):
    for n in (k + 2, 2 * k + 16, 100):
        centre_clique_pendants = [[0], list(range(1, n - k)), list(range(n - k, n))]
        got, equitable = quotient_matrix(a_matrix(ktree_extremal(n, k), a),
                                         centre_clique_pendants)
        assert equitable
        assert np.allclose(got, ktree_quotient_matrix(n, k, a), rtol=0, atol=1e-12)


def test_ktree_quotient_radius_matches_the_dense_radius():
    # the threshold of verify_ktree_condition against the n-vertex solve it replaced
    for k in range(3, 7):
        for n in (2 * k + 16, 2 * k + 40):
            for a in (0.0, 1.0):
                lam = largest_eigenvalue_dense(ktree_quotient_matrix(n, k, a))
                rho = spectral_radius(a_matrix(ktree_extremal(n, k), a)).radius
                assert abs(lam - rho) <= 1e-13 * rho


def test_ktree_quotient_matrix_refuses_what_the_family_refuses():
    for n, k in [(10, 1), (4, 3)]:
        with pytest.raises(GraphInputError):
            ktree_extremal(n, k)
        with pytest.raises(GraphInputError):
            ktree_quotient_matrix(n, k, 0.0)
    for a in (-1.0, math.inf, math.nan):
        with pytest.raises(GraphInputError, match="^diagonal weight must be nonnegative "
                                                  "and finite, got "):
            ktree_quotient_matrix(22, 3, a)
