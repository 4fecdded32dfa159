"""Verification harnesses: verdict bookkeeping, determinism, small runs."""

import ast
import hashlib
import json
import math
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import spectralcert
from spectralcert.certifiers import find_k_tree
from spectralcert.errors import ConvergenceError, Graph6ParseError, GraphInputError
from spectralcert.families import ktree_extremal, matching_extremal, win_family
from spectralcert.graphs import (
    Graph,
    complete_graph,
    from_graph6,
    path_graph,
    star_graph,
    to_graph6,
)
from spectralcert.spectral import DEFAULT_TOL, a_matrix, spectral_radius
from spectralcert.verify import (
    CONFIRMED,
    EXTREMAL,
    VACUOUS,
    VIOLATED,
    _map_items,
    as_graph6_lines,
    bipartite_bit_stream,
    bipartite_from_bits,
    connected_corpus_stream,
    random_connected_stream,
    verify_bounds,
    verify_cut_family_monotonicity,
    verify_edge_deletion_bound,
    verify_hamilton_condition,
    verify_ktree_condition,
    verify_matching_condition,
    verify_matching_family_monotonicity,
)


def _counts_partition(report):
    c = report.counts
    assert c["checked"] == c[VACUOUS] + c[CONFIRMED] + c[EXTREMAL] + c[VIOLATED]
    assert len(report.violations) == c[VIOLATED]


def test_stream_normalization():
    lines = as_graph6_lines([complete_graph(2), "A_", b"A_\n", "  ", ""])
    assert lines == ["A_", "A_", "A_"]


def test_bipartite_bit_stream_modes():
    assert len(bipartite_bit_stream(2, None, 0)) == 16
    sample = bipartite_bit_stream(5, 10, 7)
    assert len(sample) == 10
    assert sample == bipartite_bit_stream(5, 10, 7)
    with pytest.raises(GraphInputError):
        bipartite_bit_stream(5, None, 0)
    # 8*8 = 64 bits exceed one rng.integers draw: a 62-bit and a 2-bit chunk
    wide = bipartite_bit_stream(8, 50, 3)
    assert wide == bipartite_bit_stream(8, 50, 3)
    assert all(0 <= bits < 1 << 64 for bits in wide)
    assert max(wide) >= 1 << 62
    # up to 62 bits a pattern is one draw, so samples at n <= 7 are unchanged
    rng = np.random.default_rng(3)
    assert bipartite_bit_stream(7, 5, 3) == [int(rng.integers(0, 1 << 49)) for _ in range(5)]


def test_bipartite_from_bits_roundtrip():
    b = matching_extremal(3, 1)
    biadj = b.biadj  # built on each access, so built once here
    bits = 0
    for x in range(3):
        for y in range(3):
            if biadj[x, y]:
                bits |= 1 << (3 * x + y)
    assert bipartite_from_bits(3, bits) == b


def test_bounds_small_corpus():
    report = verify_bounds(connected_corpus_stream(1, 5))
    _counts_partition(report)
    assert report.counts[VIOLATED] == 0
    assert report.counts[CONFIRMED] == report.counts["checked"]


def test_bounds_flags_disconnected_as_vacuous():
    from spectralcert.graphs import disjoint_union

    g = disjoint_union([complete_graph(2), complete_graph(2)])
    report = verify_bounds([g])
    assert report.counts[VACUOUS] == 1


def test_hamilton_rho_small_corpus():
    report = verify_hamilton_condition(connected_corpus_stream(4, 6), "rho")
    _counts_partition(report)
    assert report.counts[VIOLATED] == 0
    # the six-vertex exception list plus the one-dominating-vertex family
    # members at n in {4, 5, 6} must all be seen
    assert report.counts[EXTREMAL] >= 3


def test_hamilton_q_small_corpus():
    report = verify_hamilton_condition(connected_corpus_stream(4, 6), "q")
    _counts_partition(report)
    assert report.counts[VIOLATED] == 0
    assert report.counts[EXTREMAL] >= 4


def test_hamilton_exceptions_above_the_isomorphism_cap():
    from spectralcert.graphs import Graph, cycle_graph, disjoint_union

    # the degree-2 extremal graph at n = 14 is an exception; the complement of
    # 4C5 (n = 20, radius exactly n - 3) is a symmetric non-exception
    co_c5s = ~disjoint_union([cycle_graph(5)] * 4).adj
    np.fill_diagonal(co_c5s, False)
    report = verify_hamilton_condition([ktree_extremal(14, 2), Graph(20, co_c5s)], "rho")
    assert [row["verdict"] for row in report.rows] == [EXTREMAL, CONFIRMED]


def _relabelled(n, edges, rng):
    from spectralcert.graphs import build_graph

    perm = list(range(n))
    rng.shuffle(perm)
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


@pytest.mark.parametrize("n", [9, 40, 1000])
def test_hamilton_rho_recognizes_the_relabelled_family_above_the_corpus(n):
    # K1 v (K_{n-3} u 2K1), relabelled, is exceptional at every order; moving
    # its clique edge (1, 2) to the pendant n - 1 keeps the edge count but is
    # not the family
    rng = random.Random(n)
    edges = ktree_extremal(n, 2).edges()
    stream = [_relabelled(n, edges, rng)]
    if n < 1000:
        moved = [e for e in edges if e != (1, 2)] + [(1, n - 1)]
        stream.append(_relabelled(n, moved, rng))
    verdicts = [row["verdict"] for row in verify_hamilton_condition(stream, "rho").rows]
    assert verdicts[0] == EXTREMAL
    assert EXTREMAL not in verdicts[1:]


def test_hamilton_exceptional_graphs_detected():
    from spectralcert.graphs import disjoint_union, empty_graph, join

    k2_4k1 = join(complete_graph(2), empty_graph(4))
    rho_report = verify_hamilton_condition([k2_4k1], "rho")
    assert rho_report.counts[EXTREMAL] == 1
    q_report = verify_hamilton_condition([k2_4k1], "q")
    assert q_report.counts[EXTREMAL] == 1
    assert verify_hamilton_condition([star_graph(4)], "q").counts[EXTREMAL] == 1
    assert verify_hamilton_condition([star_graph(3)], "q").counts[EXTREMAL] == 1


def test_hamilton_vacuous_below_order_guard():
    report = verify_hamilton_condition([path_graph(3)], "rho")
    assert report.counts[VACUOUS] == 1


def test_ktree_condition_extremal_and_complete():
    k = 3
    n = 2 * k + 16
    stream = [ktree_extremal(n, k), complete_graph(n), path_graph(n)]
    for a in (0, 1):
        report = verify_ktree_condition(stream, k, a)
        _counts_partition(report)
        assert report.counts[EXTREMAL] == 1
        assert report.counts[CONFIRMED] == 1   # the complete graph
        assert report.counts[VACUOUS] == 1     # the path is far below threshold
        assert report.counts[VIOLATED] == 0


def test_ktree_condition_guards():
    with pytest.raises(GraphInputError):
        verify_ktree_condition([complete_graph(22)], 2, 0)
    with pytest.raises(GraphInputError):
        verify_ktree_condition([complete_graph(22)], 3, 0.5)
    report = verify_ktree_condition([complete_graph(10)], 3, 0)
    assert report.counts[VACUOUS] == 1  # below the order guard


@pytest.mark.parametrize("a", [0, 1])
def test_ktree_condition_counts_a_graph_just_below_the_order_guard_vacuous(a):
    # K21 at k = 3 has a 3-tree and lies above the threshold of its order, so
    # only the guard n >= 2k + 16 = 22 keeps it out of scope
    assert find_k_tree(complete_graph(21), 3) is not None
    report = verify_ktree_condition([complete_graph(21)], 3, a)
    assert [row["verdict"] for row in report.rows] == [VACUOUS]


@pytest.mark.parametrize("n, k", [(22, 3), (40, 4)])
@pytest.mark.parametrize("a", [0, 1])
def test_ktree_threshold_gate_near_the_extremal_graph(n, k, a):
    # one edge from the extremal graph on either side of the threshold: the
    # two deletions have no k-tree and lie 0.05-0.22 below it, the pendant to
    # clique edge gives a k-tree and lies 0.002-0.06 above it
    from spectralcert.graphs import build_graph

    edges = ktree_extremal(n, k).edges()
    stream = [build_graph(n, edges),
              build_graph(n, [e for e in edges if e != (1, 2)]),   # clique edge
              build_graph(n, [e for e in edges if e != (0, 1)]),   # centre-clique edge
              build_graph(n, edges + [(1, n - 1)])]                # pendant-clique edge
    report = verify_ktree_condition(stream, k, a)
    assert [row["verdict"] for row in report.rows] == [EXTREMAL, VACUOUS, VACUOUS, CONFIRMED]


def test_harnesses_raise_on_an_invalid_k_tree(monkeypatch):
    from spectralcert import verify
    from spectralcert.certifiers import KTreeCertificate, find_k_tree

    def missing_edge(g, k):
        return KTreeCertificate(find_k_tree(g, k).edges[:-1])

    monkeypatch.setattr(verify, "find_k_tree", missing_edge)
    # K22 is above all three thresholds, so each harness asks for a k-tree
    g = complete_graph(22)
    line = to_graph6(g).decode("ascii")
    for run in (partial(verify_ktree_condition, [g], 3, 0),
                partial(verify_hamilton_condition, [g], "rho"),
                partial(verify_hamilton_condition, [g], "q")):
        with pytest.raises(RuntimeError, match=re.escape(line)):
            run()


# (where the value lies, certificate found, extremal) -> (verdict,
# certificate_type, certifier calls, recognizer calls), at threshold 10 and
# margin 0.1
_ROUTES = {
    ("below", True, True): (VACUOUS, None, 0, 0),
    ("below", True, False): (VACUOUS, None, 0, 0),
    ("below", False, True): (VACUOUS, None, 0, 0),
    ("below", False, False): (VACUOUS, None, 0, 0),
    ("inside", True, True): (EXTREMAL, None, 0, 1),
    ("inside", False, True): (EXTREMAL, None, 0, 1),
    ("inside", True, False): (CONFIRMED, "cert", 1, 1),
    ("inside", False, False): (VACUOUS, "cert", 1, 1),
    ("above", True, True): (CONFIRMED, "cert", 1, 0),
    ("above", True, False): (CONFIRMED, "cert", 1, 0),
    ("above", False, True): (EXTREMAL, "cert", 1, 1),
    ("above", False, False): (VIOLATED, "cert", 1, 1),
}


@pytest.mark.parametrize("where, found, extremal", sorted(_ROUTES))
def test_classify_routing(where, found, extremal):
    from spectralcert.verify import _Check, _classify

    calls = {"threshold": 0, "certify": 0, "is_extremal": 0}
    row, g, context = {"graph6": "x"}, complete_graph(5), object()

    def threshold(n):
        calls["threshold"] += 1
        assert n == 5
        return 10.0

    def certify(*args):
        calls["certify"] += 1
        assert args == (row, g, context)
        return found, "cert"

    def is_extremal(*args):
        calls["is_extremal"] += 1
        assert args == (g, context)
        return extremal

    check = _Check(0.1, threshold, certify, is_extremal)
    values = {"below": [8.0, 9.89], "inside": [9.95, 10.0, 10.05], "above": [10.11, 12.0]}
    for value in values[where]:
        calls.update(threshold=0, certify=0, is_extremal=0)
        _classify(check, row, g, context, [value])
        assert (row["verdict"], row["certificate_type"], calls["certify"],
                calls["is_extremal"]) == _ROUTES[where, found, extremal]
        assert calls["threshold"] == 1
        assert (row["value"], row["threshold"]) == (value, 10.0)


def test_matching_condition_exhaustive_3():
    for a in (0, 1):
        report = verify_matching_condition(3, 1, a, "family")
        _counts_partition(report)
        assert report.counts["checked"] == 512
        assert report.counts[VIOLATED] == 0
        assert report.counts[EXTREMAL] >= 1
        assert report.counts[CONFIRMED] >= 1


@pytest.mark.parametrize("nx", [1, 2, 3])
def test_matching_rows_carry_each_patterns_own_graph(nx):
    # the row's n and m come from the pattern, not the graph: both must agree
    zeros = np.zeros((nx, nx), dtype=bool)
    graphs = []
    for bits in range(1 << nx * nx):
        g = bipartite_from_bits(nx, bits).to_graph()
        biadj = np.array([[bits >> nx * x + y & 1 for y in range(nx)] for x in range(nx)],
                         dtype=bool)
        adj = np.block([[zeros, biadj], [biadj.T, zeros]])
        assert g == Graph(2 * nx, adj)
        graphs.append((g, adj))
    # the family threshold needs delta < nx; the sqrt one is vacuous below nx = 6
    for variant, delta in [("sqrt", 1)] + [("family", d) for d in range(1, nx)]:
        report = verify_matching_condition(nx, delta, 0, variant)
        assert len(report.rows) == len(graphs)
        for bits, (row, (g, adj)) in enumerate(zip(report.rows, graphs)):
            assert row["bits"] == bits
            assert (row["n"], row["m"]) == (len(adj), int(adj.sum()) // 2)
            assert row["graph6"] == to_graph6(g).decode()
            assert from_graph6(row["graph6"]) == g
            in_scope = variant == "family" and adj.sum(axis=1).min() == delta
            assert (row["value"] is not None) == in_scope


def test_matching_condition_sqrt_guard_vacuous():
    # n=3 is far below the cubic guard for delta=1, so nothing is in scope
    report = verify_matching_condition(3, 1, 0, "sqrt")
    assert report.counts[VACUOUS] == report.counts["checked"]


def test_matching_condition_sqrt_at_guard():
    report = verify_matching_condition(6, 1, 0, "sqrt", sample_count=300, seed=5)
    _counts_partition(report)
    assert report.counts[VIOLATED] == 0


def test_matching_condition_validates():
    with pytest.raises(GraphInputError):
        verify_matching_condition(4, 0, 0)
    with pytest.raises(GraphInputError):
        verify_matching_condition(4, 1, 1, "sqrt")
    with pytest.raises(GraphInputError):
        verify_matching_condition(4, 1, 0.3)


def test_cut_family_monotonicity_small():
    report = verify_cut_family_monotonicity(max_n=10, max_s=2, max_t=4)
    _counts_partition(report)
    assert report.counts["checked"] > 0
    assert report.counts[VIOLATED] == 0


def test_matching_family_monotonicity_small():
    report = verify_matching_family_monotonicity(max_n=10)
    _counts_partition(report)
    assert report.counts[VIOLATED] == 0
    assert report.counts["checked"] == sum(
        2 * ((n - 1) // 2) for n in range(3, 11))


def test_edge_deletion_bound_small():
    report = verify_edge_deletion_bound(6, 1, seed=3, deep_samples=5)
    _counts_partition(report)
    assert report.counts[VIOLATED] == 0
    assert report.counts[EXTREMAL] == 1
    with pytest.raises(GraphInputError):
        verify_edge_deletion_bound(5, 2)


def test_edge_deletion_onset_table():
    """The bound's measured onset lies below the cubic guard: n = 4, 9, 20
    for delta = 1, 2, 3 (guards 6, 12, 25).  Just below the onset the bound
    fails, and those rows are vacuous, not violations.  delta = 4 (onset 42,
    guard 48) costs tens of seconds and is recorded in the docstring only."""
    with pytest.raises(GraphInputError):
        verify_edge_deletion_bound(3, 1)
    for n, delta in [(8, 2), (19, 3)]:
        report = verify_edge_deletion_bound(n, delta, seed=1, deep_samples=10)
        _counts_partition(report)
        assert report.config["below_guard"]
        assert report.counts[VACUOUS] > 0
        assert report.counts[VIOLATED] == 0
    for n, delta in [(4, 1), (9, 2), (20, 3)]:
        report = verify_edge_deletion_bound(n, delta, seed=1, deep_samples=10)
        _counts_partition(report)
        assert report.config["below_guard"]
        assert report.counts[VACUOUS] == 0
        assert report.counts[CONFIRMED] == report.counts["checked"] - 1


def test_edge_deletion_domain():
    for n, delta in [(6, 0), (2, 1), (3, 2), (5, 2), (7, 3)]:
        with pytest.raises(GraphInputError):
            verify_edge_deletion_bound(n, delta)
    with pytest.raises(GraphInputError):
        verify_edge_deletion_bound(6, 1, seed=-1)
    report = verify_edge_deletion_bound(12, 2, seed=1, deep_samples=10)
    assert report.config["below_guard"] is False
    assert report.counts[VIOLATED] == 0


def test_report_json_deterministic():
    stream = connected_corpus_stream(4, 5)
    one = verify_hamilton_condition(stream, "rho").to_json()
    two = verify_hamilton_condition(stream, "rho").to_json()
    assert one == two
    payload = json.loads(one)
    assert set(payload) == {"theorem_id", "config", "counts", "violations",
                            "tolerances", "seed"}


def test_worker_count_does_not_change_report():
    stream = connected_corpus_stream(4, 5)
    seq = verify_bounds(stream, workers=1)
    par = verify_bounds(stream, workers=2)
    assert seq.to_json() == par.to_json()


def test_worker_count_does_not_change_ktree_report():
    # orders above 28 put LAPACK calls inside forked workers
    stream = [ktree_extremal(22, 3)]
    stream += random_connected_stream(22, 1, 0.95, seed=4)
    stream += random_connected_stream(40, 1, 0.97, seed=4)
    seq = verify_ktree_condition(stream, 3, 0.0, workers=1)
    par = verify_ktree_condition(stream, 3, 0.0, workers=2)
    assert seq.counts["checked"] == 3
    assert seq.to_json() == par.to_json()


def test_streams_reject_negative_counts():
    with pytest.raises(GraphInputError):
        bipartite_bit_stream(5, -5, 0)
    with pytest.raises(GraphInputError):
        random_connected_stream(22, -3, 0.5, seed=0)
    assert bipartite_bit_stream(5, 0, 0) == []
    assert random_connected_stream(22, 0, 0.5, seed=0) == []


def test_random_stream_reproducible():
    a = random_connected_stream(8, 5, 0.5, seed=11)
    b = random_connected_stream(8, 5, 0.5, seed=11)
    assert a == b
    assert all(len(line) > 0 for line in a)


def test_csv_export(tmp_path):
    report = verify_bounds([complete_graph(4), path_graph(4)])
    out = tmp_path / "rows.csv"
    report.write_csv(str(out))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "graph6,n,m,rho_a,threshold,verdict,certificate_type"
    assert len(lines) == 3
    assert to_graph6(complete_graph(4)).decode() in lines[1]


def test_violation_payload_is_recheckable():
    # force a fake violation by shrinking the threshold margin logic:
    # a graph above the bound threshold with no certificate cannot occur for
    # honest theorems, so synthesize one by abusing verify_bounds rows
    report = verify_bounds([complete_graph(4)])
    row = report.rows[0]
    assert row["graph6"] == to_graph6(complete_graph(4)).decode()
    assert row["value"] is not None and row["threshold"] is not None


def _report_bytes(report, path):
    report.write_csv(str(path))
    return report.to_json(), path.read_bytes()


def test_worker_count_does_not_change_hamilton_or_matching_bytes(tmp_path):
    stream = connected_corpus_stream(1, 6)
    random.Random(5).shuffle(stream)
    for variant in ("rho", "q"):
        seq, par = (_report_bytes(verify_hamilton_condition(stream, variant, workers=w),
                                  tmp_path / f"{variant}{w}.csv") for w in (1, 2))
        assert seq == par
    for delta, a in ((1, 0.0), (2, 1.0)):
        seq, par = (_report_bytes(verify_matching_condition(3, delta, a, workers=w),
                                  tmp_path / f"m{delta}{w}.csv") for w in (1, 2))
        assert seq == par


def test_csv_float_bits_are_pinned(tmp_path):
    # the CSV rows carry every radius, so these digests pin the eigensolver's bits
    for report, want in [
        (verify_hamilton_condition(connected_corpus_stream(4, 7), "rho"),
         "6ed897e0622d1a7ad5c9785cb5da6584130f8036719b97938f7373e60ecd58c5"),
        (verify_matching_condition(3, 1, 0.0),
         "7e6ff09f025681006b4dafaaf0aee18f947d0d7cdf35d171ae6e21ac1884c5ee"),
        (verify_cut_family_monotonicity(max_n=10, max_s=2, max_t=4),
         "c6398289343dde314941dd6a37d3a88b6da0312181025925e7382ae26edfd129"),
        (verify_matching_family_monotonicity(max_n=10),
         "b886d95b184b928af20c7e73c5522cbca16f544fbf9f6bedf41d1a7dc98eac8e"),
        (verify_edge_deletion_bound(9, 2, seed=1, deep_samples=10),
         "745b003d77332bcccb15370e698c4a7010b0e9e00e0d871d0a07e75c55494e4b"),
    ]:
        path = tmp_path / "rows.csv"
        report.write_csv(str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def _first_failure(lines, a, tol):
    """The ConvergenceError of the first line whose eigensolve fails alone."""
    for line in lines:
        try:
            spectral_radius(a_matrix(from_graph6(line), a), tol)
        except ConvergenceError as exc:
            return exc
    raise AssertionError("no line fails")


def test_uncertified_eigenpair_raises_for_the_lowest_stream_index():
    stream = connected_corpus_stream(4, 6)
    random.Random(9).shuffle(stream)  # the first line is not of the lowest order
    want = _first_failure(stream, 0.0, 1e-300)
    runs = [lambda w: verify_hamilton_condition(stream, "rho", tol=1e-300, workers=w),
            lambda w: verify_bounds(stream, tol=1e-300, workers=w)]
    for run in runs:
        for workers in (1, 2):
            with pytest.raises(ConvergenceError) as info:
                run(workers)
            assert str(info.value) == str(want)
            assert ((info.value.radius, info.value.residual, info.value.iterations)
                    == (want.radius, want.residual, want.iterations))
    # a graph6 defect counts by its place in the stream as well
    for place, error in ((0, Graph6ParseError), (5, ConvergenceError)):
        lines = stream[:place] + ["Cxx"] + stream[place:]
        for workers in (1, 2):
            with pytest.raises(error):
                verify_hamilton_condition(lines, "rho", tol=1e-300, workers=workers)


def _first_failure_by_graph(graphs, weights, tol):
    """The ConvergenceError of the first (graph, weight) pair, graph by graph,
    whose eigensolve fails alone; None when every pair passes."""
    for g in graphs:
        for a in weights:
            try:
                spectral_radius(a_matrix(g, a), tol)
            except ConvergenceError as exc:
                return exc
    return None


def test_sweeps_raise_the_first_failure_in_row_order():
    cut = partial(verify_cut_family_monotonicity, max_n=10, max_s=2, max_t=4)
    deletion = partial(verify_edge_deletion_bound, 9, 2, seed=1, deep_samples=10)
    # the graphs each run solves, in row order; a cut row reads the
    # concentrated graph of its (n, s, t) before its own graph
    cut_lines = []
    for row in cut().rows:
        n, s, parts = re.fullmatch(r"n=(\d+) s=(\d+) parts=(\(.*\)) a=.*", row["item"]).groups()
        n, s, t = int(n), int(s), len(ast.literal_eval(parts))
        top = win_family(s, (n - s - t + 1,) + (1,) * (t - 1))
        cut_lines += [to_graph6(top).decode(), row["graph6"]]
    deletion_lines = [row["graph6"] for row in deletion().rows if row["graph6"] is not None]
    for run, lines, weights in ((cut, cut_lines, (0.0, 1.0)), (deletion, deletion_lines, (0.0,))):
        graphs = [from_graph6(line) for line in dict.fromkeys(lines)]
        # at 3e-16 only a few pairs fail, none of them the first
        for tol in (1e-300, 3e-16):
            want = _first_failure_by_graph(graphs, weights, tol)
            if want is None:
                run(tol=tol)
                continue
            with pytest.raises(ConvergenceError) as info:
                run(tol=tol)
            assert str(info.value) == str(want)
            assert ((info.value.radius, info.value.residual, info.value.iterations)
                    == (want.radius, want.residual, want.iterations))


def _worker_pids():
    return sorted(p.pid for p in multiprocessing.active_children())


def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def test_worker_pool_is_reused_until_the_worker_count_changes():
    stream = connected_corpus_stream(4, 5)
    want = verify_bounds(stream, workers=1).to_json()
    assert verify_bounds(stream, workers=2).to_json() == want
    first = _worker_pids()
    assert len(first) == 2
    assert verify_bounds(stream, workers=2).to_json() == want
    assert _worker_pids() == first
    assert verify_bounds(stream, workers=3).to_json() == want
    third = _worker_pids()
    assert len(third) == 3 and not set(third) & set(first)
    assert all(_gone(pid) for pid in first)


def _chunk_size(chunk):
    return [len(chunk)]


def test_each_worker_gets_one_contiguous_chunk():
    assert _map_items(_chunk_size, list(range(10)), 2) == [5, 5]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs CPU affinity and at least two CPUs")
def test_worker_pool_pins_each_worker_to_one_cpu_of_the_callers_set():
    stream = connected_corpus_stream(4, 5)
    cpus = os.sched_getaffinity(0)
    for workers in (2, 3):
        verify_bounds(stream, workers=workers)
        pinned = [os.sched_getaffinity(pid) for pid in _worker_pids()]
        assert len(pinned) == workers
        assert all(len(held) == 1 and held <= cpus for held in pinned)
        if workers == 2:
            assert pinned[0] != pinned[1]


def test_worker_pool_is_rebuilt_after_a_worker_dies(tmp_path):
    stream = connected_corpus_stream(1, 6)
    want = _report_bytes(verify_hamilton_condition(stream, "rho", workers=1), tmp_path / "1.csv")
    verify_hamilton_condition(stream, "rho", workers=2)
    old = _worker_pids()
    os.kill(old[0], signal.SIGKILL)
    # the pool notices the death, then ends and reaps every worker
    deadline = time.monotonic() + 30
    while not all(_gone(pid) for pid in old):
        assert time.monotonic() < deadline, "the pool never noticed its dead worker"
        time.sleep(0.01)
    par = verify_hamilton_condition(stream, "rho", workers=2)
    assert _report_bytes(par, tmp_path / "2.csv") == want
    new = _worker_pids()
    assert len(new) == 2 and not set(new) & set(old)


def test_worker_pool_survives_a_failing_call(tmp_path):
    stream = connected_corpus_stream(4, 6)
    want = _report_bytes(verify_hamilton_condition(stream, "q", workers=1), tmp_path / "1.csv")
    verify_hamilton_condition(stream, "q", workers=2)
    pids = _worker_pids()
    assert len(pids) == 2
    failing = [(ConvergenceError, stream, 1e-300),
               (Graph6ParseError, stream[:5] + ["Cxx"] + stream[5:], DEFAULT_TOL)]
    for error, lines, tol in failing:
        with pytest.raises(error):
            verify_hamilton_condition(lines, "rho", tol=tol, workers=2)
        par = verify_hamilton_condition(stream, "q", workers=2)
        assert _report_bytes(par, tmp_path / "2.csv") == want
        assert _worker_pids() == pids


def test_worker_pool_shared_by_threads():
    # more workers than cores, and every call may replace the pool another
    # thread is still reading
    stream = connected_corpus_stream(4, 5)
    want = verify_bounds(stream, workers=1).to_json()
    results = []

    def calls(workers):
        for _ in range(4):
            results.append(verify_bounds(stream, workers=workers).to_json())

    threads = [threading.Thread(target=calls, args=(w,)) for w in (2, 3, 2, 3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert results == [want] * 16


@pytest.mark.parametrize("args", [
    # sys keeps the module to the last stage of interpreter teardown, as a
    # test runner's plugins may: a pool still referenced there is collected
    # after the modules its clean-up needs
    ["-c", "import sys\n"
           "from spectralcert import verify\n"
           "stream = verify.connected_corpus_stream(4, 5)\n"
           "for _ in range(2):\n"
           "    assert verify.verify_bounds(stream, workers=2).ok\n"
           "sys.kept = verify\n"],
    ["-m", "spectralcert.cli", "verify", "matching", "--nx", "3", "--delta", "1",
     "--a", "0", "--workers", "2"],
])
def test_worker_pool_ends_cleanly_at_exit(args):
    env = dict(os.environ)
    src = str(Path(spectralcert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, env=env,
                          start_new_session=True) as proc:
        _, stderr = proc.communicate(timeout=120)
    assert proc.returncode == 0 and stderr == ""
    # no worker outlives the interpreter: its process group is empty
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_check_tolerances():
    from spectralcert.errors import check_tolerances

    for tol, margin in [(1e-10, None), (1e-10, 1e-10), (1e-10, 1e-8), (1e300, None)]:
        check_tolerances(tol, margin)
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(GraphInputError, match="^tolerance must be positive and finite$"):
            check_tolerances(tol)
    for margin in (1e-12, -math.inf, math.inf, math.nan):
        with pytest.raises(GraphInputError,
                           match="^margin must be finite and at least the tolerance$"):
            check_tolerances(1e-10, margin)


_MARGINED_HARNESSES = [
    partial(verify_hamilton_condition, ["C~"]),
    partial(verify_ktree_condition, ["C~"], 3, 0.0),
    partial(verify_matching_condition, 2, 1),
    partial(verify_edge_deletion_bound, 4, 1),
]
_HARNESSES = _MARGINED_HARNESSES + [
    partial(verify_cut_family_monotonicity, 4),
    partial(verify_matching_family_monotonicity, 4),
    partial(verify_bounds, connected_corpus_stream(4, 4)),
]


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0])
@pytest.mark.parametrize("harness", _HARNESSES, ids=lambda h: h.func.__name__)
def test_harnesses_reject_tolerances_that_void_the_certificate(harness, tol):
    # at tol=inf verify_bounds used to confirm every graph of the stream
    with pytest.raises(GraphInputError, match="^tolerance must be positive and finite$"):
        harness(tol=tol)


@pytest.mark.parametrize("margin", [math.inf, math.nan, 1e-12])
@pytest.mark.parametrize("harness", _MARGINED_HARNESSES, ids=lambda h: h.func.__name__)
def test_harnesses_reject_margins_that_void_the_verdict(harness, margin):
    # an infinite or NaN margin made _classify call a row far above its
    # threshold without a certificate vacuous instead of violated
    with pytest.raises(GraphInputError,
                       match="^margin must be finite and at least the tolerance$"):
        harness(margin=margin)


def test_harnesses_refuse_an_unknown_variant():
    with pytest.raises(GraphInputError, match="variant must be 'rho' or 'q', got 'x'"):
        verify_hamilton_condition([complete_graph(4)], "x")
    with pytest.raises(GraphInputError, match="variant must be 'family' or 'sqrt', got 'x'"):
        verify_matching_condition(2, 1, 0.0, "x")
