"""Theorem- and lemma-level verification harnesses.

Each harness streams graphs (graph6 lines, internally generated corpora, or
parameter grids), compares a computed spectral value against the relevant
threshold, runs the matching exact certifier on the in-scope graphs, and
aggregates per-item verdicts into a ``VerificationReport``.

Verdicts partition every stream: ``vacuous`` (guard or threshold not met),
``confirmed`` (certificate found), ``extremal_equality`` (an exceptional
graph), ``violated`` (above threshold, no certificate, not exceptional).  The
Hamilton-path, k-tree and matching harnesses reach them through one routine,
``_classify``, given each theorem's margin, threshold, certifier and extremal
recognizer; each extremal family has one structural recognizer, in
``families``.  Items inside the margin are routed through the recognizer and
then the certifier, and are never reported as violations, since equality
cases cannot be decided in floating point.  A k-tree counts as found only
once ``is_valid_ktree`` accepts it; one it rejects is a certifier bug and
raises ``RuntimeError`` instead of giving any verdict.  A sampled stream
rejects a negative seed with ``GraphInputError``; an exhaustive one ignores
the seed.

Every harness eigensolves through ``spectral.radii``: it takes a list of
graphs and makes one ``spectral_radius`` call per diagonal weight and order,
on the stack of their matrices, and raises the error of the lowest list
index.  The streamed harnesses (Hamilton paths, k-trees, matchings,
edge-count bounds) run a contiguous chunk of their stream in three stages:
the chunk is decoded and filtered, a chunk of graph6 lines in one
``from_graph6`` call; the in-scope graphs go through one ``radii`` call;
then each in-scope item is classified on its own, so certifiers and
recognizers run only where a verdict needs them.  A chunk that meets an
error (a graph6 defect, an uncertified eigenpair) raises the one of the
lowest stream index.  One worker runs the stream as one chunk in the
calling process.  More workers split it into one contiguous chunk
each, run on the process's fork pool (see ``_map_items``), and join the
rows in stream order.  Each worker is pinned to one CPU of the caller's set
when the pool starts: left to the kernel, the workers were woken on the
caller's CPU and stayed there, so two of them shared one CPU.  The
monotonicity sweeps and the edge-deletion check build every graph of their
grid first, make one ``radii`` call, and then emit their rows in grid
order.  Every row, streamed or grid, is built by ``_item_row``.

Reports are deterministic: identical stream and config give byte-identical
JSON.  Violations carry a re-checkable payload (graph6, value, threshold,
certifier outcome).  Worker counts only change scheduling, never results.
"""

from __future__ import annotations

import atexit
import csv
import json
import math
import os
import threading
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .certifiers import PerfectMatching, find_k_tree, is_valid_ktree, perfect_matching
from .errors import DEFAULT_MARGIN, GraphInputError, check_tolerances
from .families import (
    is_ktree_extremal,
    is_matching_extremal,
    ktree_extremal,
    ktree_quotient_matrix,
    matching_extremal,
    q_matching_extremal,
    rho_matching_extremal,
    sqrt_threshold,
    win_family,
)
from .graphs import (
    BipartiteGraph,
    Graph,
    complete_graph,
    disjoint_union,
    empty_graph,
    from_graph6,
    is_connected,
    join,
    min_degree,
    star_graph,
    to_graph6,
)
from .smallgraphs import canonical_form, connected_graphs
from .spectral import DEFAULT_TOL, das_bound, hong_bound, largest_eigenvalue_dense, radii

DRAWS_PER_GRAPH = 1000

VACUOUS = "vacuous"
CONFIRMED = "confirmed"
EXTREMAL = "extremal_equality"
VIOLATED = "violated"
_VERDICTS = (VACUOUS, CONFIRMED, EXTREMAL, VIOLATED)

_CSV_COLUMNS = ["graph6", "n", "m", "rho_a", "threshold", "verdict", "certificate_type"]
_CSV_KEYS = ["graph6", "n", "m", "value", "threshold", "verdict", "certificate_type"]


@dataclass
class VerificationReport:
    theorem_id: str
    population: str
    counts: dict[str, int]
    violations: list[dict]
    tolerances: dict[str, float]
    seed: int | None
    config: dict
    rows: list[dict] = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return self.counts[VIOLATED] == 0

    def to_json_dict(self) -> dict:
        config = dict(self.config)
        config["population"] = self.population
        return {
            "theorem_id": self.theorem_id,
            "config": config,
            "counts": self.counts,
            "violations": self.violations,
            "tolerances": self.tolerances,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_CSV_COLUMNS)
            writer.writerows([row.get(key) for key in _CSV_KEYS] for row in self.rows)

    def summary(self) -> str:
        c = self.counts
        return (f"{self.theorem_id}: checked={c['checked']} vacuous={c[VACUOUS]} "
                f"confirmed={c[CONFIRMED]} extremal={c[EXTREMAL]} violated={c[VIOLATED]}")


class _Check(NamedTuple):
    """One theorem's margin and picklable callables (the pool pickles them):
    threshold(n) at order n, certify(row, g, context) -> (found, certificate
    type), and is_extremal(g, context), the extremal recognizer."""
    margin: float
    threshold: Callable[[int], float]
    certify: Callable[[dict, Graph, object], tuple[bool, str | None]]
    is_extremal: Callable[[Graph, object], bool]


def _classify(check: _Check, row: dict, g: Graph, context, radii: list[float]) -> None:
    """The verdict of a row whose one spectral value is radii[0].

    Below threshold - margin neither the certifier nor the recognizer runs.
    Above threshold + margin the certifier runs, then the recognizer only
    without a certificate.  Within the margin the recognizer runs first,
    then the certifier, and a row with neither is vacuous, never violated."""
    value, = radii
    threshold = check.threshold(g.n)
    row["value"], row["threshold"] = value, threshold
    if value < threshold - check.margin:
        verdict, ctype = VACUOUS, None
    elif value > threshold + check.margin:
        found, ctype = check.certify(row, g, context)
        verdict = (CONFIRMED if found else EXTREMAL if check.is_extremal(g, context)
                   else VIOLATED)
    elif check.is_extremal(g, context):
        verdict, ctype = EXTREMAL, None
    else:
        found, ctype = check.certify(row, g, context)
        verdict = CONFIRMED if found else VACUOUS
    row["verdict"], row["certificate_type"] = verdict, ctype


def _finalize(theorem_id: str, population: str, rows: list[dict],
              tolerances: dict[str, float], seed: int | None,
              config: dict) -> VerificationReport:
    counts = {"checked": len(rows)}
    for verdict in _VERDICTS:
        counts[verdict] = sum(1 for r in rows if r["verdict"] == verdict)
    violations = sorted((dict(r) for r in rows if r["verdict"] == VIOLATED),
                        key=lambda r: (str(r.get("graph6")), str(sorted(r.items()))))
    return VerificationReport(theorem_id=theorem_id, population=population,
                              counts=counts, violations=violations,
                              tolerances=dict(tolerances), seed=seed,
                              config=dict(config), rows=rows)


def _map_items(fn, items: Sequence, workers: int) -> list:
    """fn maps a contiguous chunk of items to its rows; the rows of every
    chunk, in stream order.

    More than one worker splits the items into one contiguous chunk per
    worker and runs them on the process's pool of fork workers.  It starts
    on the first such call, is reused while the worker count and the
    process stay the same, is rebuilt when a worker has died, and is shut
    down at exit.  The i-th worker to start is pinned to CPU i (wrapping
    around) of the set the calling thread holds when the pool starts, since
    the kernel placed every worker on the CPU of the thread that woke it and
    left it there.
    Its workers see the package as it was when the pool started: a
    monkeypatch made later does not reach them."""
    if workers <= 1:
        return fn(items)
    size = max(1, -(-len(items) // workers))
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    # map submits every chunk before it returns, so a pool replaced by
    # another thread still finishes them
    with _pool_lock:
        results = _worker_pool(workers).map(fn, chunks)
    return [row for rows in results for row in rows]


# this process's worker pool, as (creating pid, worker count, executor)
_pool = None
_pool_lock = threading.Lock()


def _worker_pool(workers: int):
    """The pool of `workers` workers (see _map_items); a forked child never
    uses its parent's."""
    global _pool
    if _pool is not None:
        pid, count, pool = _pool
        # _broken is set once the pool has noticed a worker die
        if (pid, count) == (os.getpid(), workers) and not pool._broken:
            return pool
        _close_pool()
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    fork = get_context("fork")
    pin = {}
    if hasattr(os, "sched_setaffinity"):
        pin = dict(initializer=_pin_worker,
                   initargs=(fork.Value("i", 0), sorted(os.sched_getaffinity(0))))
    pool = ProcessPoolExecutor(workers, mp_context=fork, **pin)
    _pool = (os.getpid(), workers, pool)
    return pool


def _pin_worker(started, cpus: list[int]) -> None:
    """Pin the i-th worker to start to cpus[i % len(cpus)]; one the system
    will not pin stays unpinned."""
    with started.get_lock():
        i = started.value
        started.value += 1
    try:
        os.sched_setaffinity(0, {cpus[i % len(cpus)]})
    except OSError:
        pass


@atexit.register
def _close_pool() -> None:
    """Shut the pool down, while the modules its clean-up needs are still
    loaded; a forked child only drops its parent's pool."""
    global _pool
    if _pool is not None and _pool[0] == os.getpid():
        _pool[2].shutdown()
    _pool = None


def _staged(decode: Callable, weights: tuple[float, ...], tol: float,
            classify: Callable, chunk: list) -> list[dict]:
    """The three stages over one chunk.

    decode(chunk) -> a (row, g, context) triple per item, with g None for an
    item out of scope; the in-scope graphs are eigensolved at every diagonal
    weight by one ``spectral.radii`` call; classify(row, g, context, radii)
    fills in the verdict.  When a decode or an eigensolve fails, the error
    of the lowest stream index (then lowest weight) is raised and nothing is
    classified.  A decode error carries the chunk index of its item as
    ``index``, and the items before it are decoded again and eigensolved
    first, so that an eigensolve error among them wins.
    """
    try:
        decoded, defect = list(decode(chunk)), None
    except GraphInputError as exc:
        decoded, defect = list(decode(chunk[:exc.index])), exc
    rows, scoped = [], []
    for row, g, context in decoded:
        if g is not None:
            scoped.append((len(rows), g, context))
        rows.append(row)
    solved, _ = radii([g for _, g, _ in scoped], weights, tol)
    if defect is not None:
        raise defect
    for (i, g, context), values in zip(scoped, solved):
        classify(rows[i], g, context, values)
    return rows


def _item_row(graph6: str | None, n: int, m: int | None, value: float | None = None,
              threshold: float | None = None, verdict: str = VACUOUS, **extra) -> dict:
    """A report row; extra keys (a grid row's "item") follow the common ones.
    A stream row starts vacuous, with no value or threshold until it is
    classified; a grid row with graph6 and m None compares two values."""
    return {"graph6": graph6, "n": n, "m": m, "value": value, "threshold": threshold,
            "verdict": verdict, "certificate_type": None, **extra}


def _line_decode(min_n: int, lines: list[str]) -> list[tuple[dict, Graph | None, None]]:
    """Each graph6 line's row, and its graph when connected on min_n or more
    vertices; the lines are decoded by one ``from_graph6`` call."""
    return [(_item_row(line, g.n, g.m), g if g.n >= min_n and is_connected(g) else None, None)
            for line, g in zip(lines, from_graph6(lines))]


# ---------------------------------------------------------------------------
# streams


def as_graph6_lines(stream: Iterable[Graph | str | bytes]) -> list[str]:
    """Normalize a stream of graphs or graph6 lines; blank lines dropped."""
    lines = []
    for item in stream:
        if isinstance(item, Graph):
            lines.append(to_graph6(item).decode("ascii"))
            continue
        if isinstance(item, bytes):
            item = item.decode("ascii", errors="surrogateescape")
        item = item.strip()
        if item:
            lines.append(item)
    return lines


def connected_corpus_stream(min_n: int, max_n: int) -> list[str]:
    """graph6 lines for every connected graph with min_n <= n <= max_n."""
    lines = []
    for n in range(min_n, max_n + 1):
        lines.extend(to_graph6(g).decode("ascii") for g in connected_graphs(n))
    return lines


def random_connected_stream(n: int, count: int, p: float, seed: int) -> list[str]:
    """graph6 lines of `count` connected binomial random graphs.

    Each graph gets at most DRAWS_PER_GRAPH draws; running out raises
    GraphInputError, since p is then too small for connected graphs.
    """
    if count < 0:
        raise GraphInputError(f"graph count must be nonnegative, got {count}")
    if not 0 < p <= 1:
        raise GraphInputError(f"edge probability must be in (0, 1], got {p}")
    rng = _seeded_rng(seed)
    lines = []
    for _ in range(count):
        for _ in range(DRAWS_PER_GRAPH):
            upper = np.triu(rng.random((n, n)) < p, 1)
            g = Graph(n, upper | upper.T)
            if is_connected(g):
                lines.append(to_graph6(g).decode("ascii"))
                break
        else:
            raise GraphInputError(
                f"no connected graph in {DRAWS_PER_GRAPH} draws at n={n}, p={p}")
    return lines


def bipartite_from_bits(n: int, bits: int) -> BipartiteGraph:
    """Biadjacency on n+n vertices from an n*n-bit integer, row-major."""
    full = (1 << n) - 1
    # a tuple is built faster from a short list than from a generator
    return BipartiteGraph._from_masks(n, tuple([bits >> x * n & full for x in range(n)]))


def bipartite_bit_stream(n: int, sample_count: int | None, seed: int) -> list[int]:
    """Exhaustive bit patterns for n <= 4 (when no sample count is forced),
    uniform random patterns otherwise."""
    if sample_count is not None and sample_count < 0:
        raise GraphInputError(f"sample count must be nonnegative, got {sample_count}")
    if sample_count is None:
        if n > 4:
            raise GraphInputError(
                "exhaustive bipartite streams are limited to part size 4; "
                "pass a sample count for larger sizes")
        return list(range(1 << (n * n)))
    rng = _seeded_rng(seed)
    return [_random_bits(rng, n * n) for _ in range(sample_count)]


def _seeded_rng(seed: int) -> np.random.Generator:
    if seed < 0:
        raise GraphInputError(f"seed must be nonnegative, got {seed}")
    return np.random.default_rng(seed)


def _random_bits(rng: np.random.Generator, nbits: int) -> int:
    """A uniform nbits-bit integer, drawn in chunks of at most 62 bits (the
    widest bound rng.integers takes), lowest chunk first."""
    value = 0
    for low in range(0, nbits, 62):
        value |= int(rng.integers(0, 1 << min(62, nbits - low))) << low
    return value


# ---------------------------------------------------------------------------
# Hamilton-path thresholds (the degree-2 spanning tree case)


def _ktree_checked(k: int, row: dict, g: Graph, context: None) -> tuple[bool, str | None]:
    """Whether find_k_tree finds a k-tree of the row's graph g.  A found tree
    counts only once is_valid_ktree accepts it; one it rejects is a
    certifier bug, not a verdict, and raises RuntimeError."""
    cert = find_k_tree(g, k)
    if cert is None:
        return False, None
    if not is_valid_ktree(g, k, cert):
        raise RuntimeError(f"find_k_tree returned an invalid {k}-tree for graph6 "
                           f"line {row['graph6']!r}")
    return True, "ktree"


def _hamilton_threshold(variant: str, n: int) -> float:
    return float(n - 3 if variant == "rho" else 2 * n - 5)


@lru_cache(maxsize=None)
def _hamilton_sporadic(variant: str) -> frozenset[tuple[int, int]]:
    """The canonical forms of the variant's sporadic exceptions, none above six
    vertices: K1 v (K1,3 u K1) and K2 v 4K1 for "rho"; K1,3, K1,4,
    K1 v (K2 u 2K1) = ktree_extremal(5, 2) and K2 v 4K1 for "q"."""
    graphs = ([join(complete_graph(1), disjoint_union([star_graph(3), complete_graph(1)]))]
              if variant == "rho" else [star_graph(3), star_graph(4), ktree_extremal(5, 2)])
    return frozenset(map(canonical_form, graphs + [join(complete_graph(2), empty_graph(4))]))


def _is_hamilton_exception(variant: str, g: Graph, context: None) -> bool:
    # for "rho" also the family ktree_extremal(n, 2), as the k-tree harness finds it
    return ((variant == "rho" and is_ktree_extremal(g, g.n, 2))
            or (g.n <= 6 and canonical_form(g) in _hamilton_sporadic(variant)))


def verify_hamilton_condition(stream: Iterable[Graph | str | bytes],
                              variant: str = "rho", *,
                              tol: float = DEFAULT_TOL,
                              margin: float = DEFAULT_MARGIN,
                              workers: int = 1) -> VerificationReport:
    """Check the spectral Hamilton-path conditions on a connected stream.

    variant "rho": adjacency radius > n-3 forces a Hamilton path outside the
    known exceptional graphs; variant "q": signless Laplacian radius >= 2n-5,
    with its own exception list.
    """
    check_tolerances(tol, margin)
    if variant not in ("rho", "q"):
        raise GraphInputError(f"variant must be 'rho' or 'q', got {variant!r}")
    lines = as_graph6_lines(stream)
    weights = (0.0,) if variant == "rho" else (1.0,)
    rows = _map_items(partial(_staged, partial(_line_decode, 4), weights, tol,
                              partial(_classify, _Check(
                                  margin, partial(_hamilton_threshold, variant),
                                  partial(_ktree_checked, 2),
                                  partial(_is_hamilton_exception, variant)))),
                      lines, workers)
    return _finalize(
        theorem_id=f"hamilton_path_{'adjacency' if variant == 'rho' else 'signless_laplacian'}",
        population=f"{len(lines)} streamed graphs",
        rows=rows, tolerances={"tol": tol, "margin": margin}, seed=None,
        config={"variant": variant})


# ---------------------------------------------------------------------------
# bounded-degree spanning trees


@lru_cache(maxsize=None)
def _ktree_threshold(k: int, a: float, n: int) -> float:
    """The radius of a*D + A of the order-n extremal graph, from its quotient."""
    return largest_eigenvalue_dense(ktree_quotient_matrix(n, k, a))


def _is_ktree_extremal(k: int, g: Graph, context: None) -> bool:
    return is_ktree_extremal(g, g.n, k)


def verify_ktree_condition(stream: Iterable[Graph | str | bytes], k: int,
                           a: float, *, tol: float = DEFAULT_TOL,
                           margin: float = DEFAULT_MARGIN,
                           workers: int = 1) -> VerificationReport:
    """Spectral threshold for a degree-<=k spanning tree (k >= 3, n >= 2k+16).

    Streamed graphs below the order guard are counted vacuous.  The per-order
    threshold is the radius of a*D + A of the extremal construction: the
    largest eigenvalue of its 3x3 equitable quotient, from
    ``families.ktree_quotient_matrix``, so it depends on (n, k, a) alone.
    A malformed line or an uncertified eigenpair of a streamed graph raises
    the error of the lowest stream index, as in every streamed harness.
    """
    check_tolerances(tol, margin)
    if k < 3:
        raise GraphInputError(f"the spanning-tree threshold needs k >= 3, got {k}")
    if a not in (0.0, 1.0, 0, 1):
        raise GraphInputError("the threshold comparison is stated for a in {0, 1}")
    lines = as_graph6_lines(stream)
    rows = _map_items(partial(_staged, partial(_line_decode, 2 * k + 16), (float(a),), tol,
                              partial(_classify, _Check(
                                  margin, partial(_ktree_threshold, k, float(a)),
                                  partial(_ktree_checked, k), partial(_is_ktree_extremal, k)))),
                      lines, workers)
    return _finalize(
        theorem_id=f"ktree_{'adjacency' if a in (0, 0.0) else 'signless_laplacian'}",
        population=f"{len(lines)} streamed graphs",
        rows=rows, tolerances={"tol": tol, "margin": margin}, seed=None,
        config={"k": k, "a": float(a)})


# ---------------------------------------------------------------------------
# bipartite perfect matchings


def _matching_decode(n: int, delta: int, threshold: float | None, bits: int
                     ) -> tuple[dict, Graph | None, BipartiteGraph | None]:
    b = bipartite_from_bits(n, bits)
    g = b.to_graph()
    row = _item_row(to_graph6(g).decode("ascii"), 2 * n, bits.bit_count())
    row["bits"] = bits  # not a keyword: packing one would cost per pattern
    if threshold is None or min_degree(g) != delta:
        return row, None, None
    return row, g, b


def _matching_certified(row: dict, g: Graph, b: BipartiteGraph) -> tuple[bool, str]:
    found = isinstance(perfect_matching(b), PerfectMatching)
    return found, "matching" if found else "hall_violator"


def _is_matching_extremal(n: int, delta: int, g: Graph, b: BipartiteGraph) -> bool:
    return is_matching_extremal(b, n, delta)


def _constant(value: float, n: int) -> float:
    return value


def _sqrt_guard(delta: int) -> float:
    """(delta^3 + delta^2 + 2*delta + 8)/2: the order from which the sqrt
    matching threshold is claimed."""
    return 0.5 * (delta**3 + delta**2 + 2 * delta + 8)


def verify_matching_condition(n: int, delta: int, a: float = 0.0,
                              variant: str = "family", *,
                              sample_count: int | None = None, seed: int = 0,
                              tol: float = DEFAULT_TOL,
                              margin: float = DEFAULT_MARGIN,
                              workers: int = 1) -> VerificationReport:
    """Spectral thresholds for perfect matchings in balanced bipartite graphs.

    Streams every n+n biadjacency pattern (exhaustively for n <= 4, random
    with the given seed otherwise) and checks graphs whose minimum degree is
    exactly delta.  variant "family" compares against the closed-form radius
    of the extremal family (adjacency for a=0, signless Laplacian for a=1);
    variant "sqrt" compares the adjacency radius against sqrt(n(n-delta-1)),
    which is valid once n clears its cubic guard in delta (smaller n are all
    vacuous).
    """
    check_tolerances(tol, margin)
    if n < 1:
        raise GraphInputError(f"part size must be positive, got {n}")
    if delta < 1:
        raise GraphInputError(f"minimum degree must be at least 1, got {delta}")
    if variant not in ("family", "sqrt"):
        raise GraphInputError(f"variant must be 'family' or 'sqrt', got {variant!r}")
    if variant == "sqrt" and a not in (0, 0.0):
        raise GraphInputError("the sqrt threshold applies to the adjacency radius only")
    if a not in (0.0, 1.0, 0, 1):
        raise GraphInputError("the threshold comparison is stated for a in {0, 1}")

    threshold: float | None
    if variant == "family":
        threshold = (rho_matching_extremal(n, delta) if a in (0, 0.0)
                     else q_matching_extremal(n, delta))
    else:
        threshold = sqrt_threshold(n, delta) if n >= _sqrt_guard(delta) else None

    items = bipartite_bit_stream(n, sample_count, seed)
    rows = _map_items(
        partial(_staged, partial(map, partial(_matching_decode, n, delta, threshold)),
                (float(a),), tol,
                partial(_classify, _Check(margin, partial(_constant, threshold),
                                          _matching_certified,
                                          partial(_is_matching_extremal, n, delta)))),
        items, workers)
    matrix_kind = "adjacency" if a in (0, 0.0) else "signless_laplacian"
    return _finalize(
        theorem_id=f"matching_{variant}_threshold_{matrix_kind}",
        population=(f"exhaustive {n}+{n} biadjacency patterns" if sample_count is None
                    else f"{sample_count} random {n}+{n} biadjacency patterns"),
        rows=rows, tolerances={"tol": tol, "margin": margin},
        seed=None if sample_count is None else seed,
        config={"n": n, "delta": delta, "a": float(a), "variant": variant})


# ---------------------------------------------------------------------------
# monotonicity sweeps


def _partitions_exact(total: int, parts: int, max_part: int):
    if parts == 1:
        if 1 <= total <= max_part:
            yield (total,)
        return
    for first in range(min(total - parts + 1, max_part), 0, -1):
        for rest in _partitions_exact(total - first, parts - 1, first):
            yield (first,) + rest


def verify_cut_family_monotonicity(max_n: int = 20, max_s: int = 4,
                                   max_t: int = 5, *,
                                   tol: float = DEFAULT_TOL) -> VerificationReport:
    """Concentrating the non-cut cliques into one strictly raises the radius.

    For every cut size s, every clique-size partition with at least two parts
    whose largest part is not already maximal, and a in {0, 1}: the family
    value must be strictly below the concentrated family value.
    """
    check_tolerances(tol)
    graphs, cases = [], []  # cases: (n, s, parts, graph index, concentrated index)
    for n in range(3, max_n + 1):
        for s in range(1, max_s + 1):
            for t in range(2, max_t + 1):
                rest, big = n - s, n - s - t + 1  # big: the concentrated largest part
                spread = [parts for parts in _partitions_exact(rest, t, rest) if parts[0] < big]
                if not spread:  # only the concentrated partition, or none (rest < t)
                    continue
                concentrated = len(graphs)
                graphs.append(win_family(s, (big,) + (1,) * (t - 1)))
                for parts in spread:
                    cases.append((n, s, parts, len(graphs), concentrated))
                    graphs.append(win_family(s, parts))
    values, _ = radii(graphs, (0.0, 1.0), tol)
    rows = []
    for n, s, parts, i, top in cases:
        line, m = to_graph6(graphs[i]).decode("ascii"), graphs[i].m
        rows += [_item_row(line, n, m, value, larger,
                           CONFIRMED if larger - value > tol else VIOLATED,
                           item=f"n={n} s={s} parts={parts} a={a:g}")
                 for a, value, larger in zip((0.0, 1.0), values[i], values[top])]
    return _finalize(
        theorem_id="cut_family_monotonicity",
        population=f"partition grid n<={max_n}, s<={max_s}, t<={max_t}",
        rows=rows, tolerances={"tol": tol}, seed=None,
        config={"max_n": max_n, "max_s": max_s, "max_t": max_t})


def verify_matching_family_monotonicity(max_n: int = 30, *,
                                        tol: float = DEFAULT_TOL) -> VerificationReport:
    """Shrinking the deficient block strictly raises the family radius.

    Compares the (n, s) matching-extremal radius against (n, s-1) for every
    1 <= s < n/2 and a in {0, 1}; both sides are eigensolved.
    """
    check_tolerances(tol)
    keys = [(n, s) for n in range(3, max_n + 1) for s in range((n - 1) // 2 + 1)]
    values, _ = radii([matching_extremal(n, s).to_graph() for n, s in keys], (0.0, 1.0), tol)
    # rows are exactly 1 <= s < n/2; (n, s - 1) is keys[i - 1]
    rows = [_item_row(None, 2 * n, None, value, larger,
                      CONFIRMED if larger - value > tol else VIOLATED, item=f"n={n} s={s} a={a:g}")
            for i, (n, s) in enumerate(keys) if s > 0
            for a, value, larger in zip((0.0, 1.0), values[i], values[i - 1])]
    return _finalize(
        theorem_id="matching_family_monotonicity",
        population=f"1 <= s < n/2, n <= {max_n}",
        rows=rows, tolerances={"tol": tol}, seed=None,
        config={"max_n": max_n})


# ---------------------------------------------------------------------------
# edge-deleted extremal graphs


def verify_edge_deletion_bound(n: int, delta: int, *,
                               margin: float = DEFAULT_MARGIN,
                               tol: float = DEFAULT_TOL, seed: int = 0,
                               deep_samples: int = 20) -> VerificationReport:
    """Deleting any edge of the matching-extremal graph while preserving the
    minimum degree drops the adjacency radius below sqrt(n(n-delta-1)).

    Enumerates both single-deletion types (a Y1-X2 edge or an X2-Y2 edge),
    checks the strict bound for each, confirms the X2-Y2 deletions stay
    spectrally above the Y1-X2 ones, and samples some double deletions.

    The domain is delta >= 1 and n >= 2*delta + 2: below that no X2-Y2
    deletion keeps the minimum degree at delta, and a GraphInputError is
    raised.  The bound is claimed once n clears the guard
    (delta^3 + delta^2 + 2*delta + 8)/2, the cubic guard of the sqrt
    matching threshold.  Points below the guard are still computed and
    ``config["below_guard"]`` is set; there a row whose check fails is
    ``vacuous`` instead of ``violated``, as in every other harness, while
    rows whose check holds stay ``confirmed``.  A deletion whose radius lies
    within the margin of the threshold is ``vacuous``, never ``violated``.
    PAPER.md does not settle whether this guard is the paper's exact
    hypothesis.  Measured with the
    default margin, seed 1 and 10 deep samples, the bound holds at every
    n >= 4, 9, 20, 42 for delta = 1, 2, 3, 4 (guards 6, 12, 25, 48) and
    fails at n = 6..8 for delta = 2, 8..19 for delta = 3 and 40..41 for
    delta = 4.
    """
    check_tolerances(tol, margin)
    if delta < 1:
        raise GraphInputError(f"minimum degree must be at least 1, got {delta}")
    if n < 2 * delta + 2:
        raise GraphInputError(f"edge deletion needs n >= 2*delta+2 = {2 * delta + 2}, "
                              f"got n={n}")
    rng = _seeded_rng(seed)
    below_guard = n < _sqrt_guard(delta)
    failed = VACUOUS if below_guard else VIOLATED
    ext = matching_extremal(n, delta).to_graph()  # X is 0..n-1, Y is n..2n-1
    threshold = sqrt_threshold(n, delta)

    # deletion types preserving minimum degree: Y1 x X2 and X2 x Y2
    type1 = [(x, y) for x in range(delta + 1, n) for y in range(delta)]
    type2 = [(x, y) for x in range(delta + 1, n) for y in range(delta, n)]
    deletable = type1 + type2
    items = ["extremal"] + [f"delete_type{1 if y < delta else 2} x={x} y={y}"
                            for x, y in deletable]
    graphs = [ext] + [ext.delete_edge(x, n + y) for x, y in deletable]
    assert all(min_degree(h) == delta for h in graphs[1:])
    while len(graphs) < 1 + len(deletable) + deep_samples:
        # two distinct edges of ext, so both deletions succeed
        picks = [deletable[int(i)] for i in rng.choice(len(deletable), size=2, replace=False)]
        h = ext
        for x, y in picks:
            h = h.delete_edge(x, n + y)
        if min_degree(h) == delta:
            items.append(f"deep_delete {sorted(picks)}")
            graphs.append(h)
    values = [value for value, in radii(graphs, (0.0,), tol)[0]]
    verdicts = [EXTREMAL if values[0] >= threshold - margin else failed]
    verdicts += [CONFIRMED if value < threshold - margin
                 else failed if value > threshold + margin else VACUOUS for value in values[1:]]
    rows = [_item_row(to_graph6(h).decode("ascii"), 2 * n, h.m, value, threshold, verdict,
                      item=item)
            for item, h, value, verdict in zip(items, graphs, values, verdicts)]
    low2 = min(values[1 + len(type1):1 + len(deletable)])
    high1 = max(values[1:1 + len(type1)])
    rows.insert(1 + len(deletable), _item_row(None, 2 * n, None, low2, high1,
                                              CONFIRMED if low2 > high1 else failed,
                                              item="type2_above_type1"))
    return _finalize(
        theorem_id="edge_deletion_bound",
        population=f"single and sampled double edge deletions at n={n}, delta={delta}",
        rows=rows, tolerances={"tol": tol, "margin": margin}, seed=seed,
        config={"n": n, "delta": delta, "deep_samples": deep_samples,
                "below_guard": below_guard})


# ---------------------------------------------------------------------------
# edge-count bounds


def _bounds_classify(tol: float, row: dict, g: Graph, context: None,
                     radii: list[float]) -> None:
    rho, q = radii
    hong = hong_bound(g)
    das = das_bound(g) if g.n >= 2 else math.inf
    row["value"] = rho
    row["threshold"] = hong
    row["q"] = q
    row["das"] = das
    ok = rho <= hong + tol and q <= das + tol
    row["verdict"] = CONFIRMED if ok else VIOLATED


def verify_bounds(stream: Iterable[Graph | str | bytes], *,
                  tol: float = DEFAULT_TOL, workers: int = 1) -> VerificationReport:
    """Edge-count bounds dominate both spectral radii on connected graphs."""
    check_tolerances(tol)
    lines = as_graph6_lines(stream)
    rows = _map_items(partial(_staged, partial(_line_decode, 1), (0.0, 1.0), tol,
                              partial(_bounds_classify, tol)), lines, workers)
    return _finalize(
        theorem_id="spectral_bounds",
        population=f"{len(lines)} streamed graphs",
        rows=rows, tolerances={"tol": tol}, seed=None,
        config={})
