"""Graph and bipartite-graph primitives.

Vertices are 0-indexed integers.  ``Graph`` stores a symmetric irreflexive
boolean adjacency matrix; ``BipartiteGraph`` stores a biadjacency relation
between an X part and a Y part.  Both are immutable after construction, so
instances can be shared freely across workers.  All operations here are pure
functions returning new objects.

The only interchange format is graph6 (6-bit big-endian packing of the upper
triangle in column order, header byte n+63 for n <= 62, '~'-prefixed 18-bit
header beyond).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import Graph6ParseError, GraphInputError


def _row_masks(rows: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as an integer bitmask (bit j set iff row[j])."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1."""

    def __init__(self, n: int, adj: np.ndarray):
        if n < 1:
            raise GraphInputError(f"vertex count must be positive, got {n}")
        adj = np.asarray(adj, dtype=bool)
        if adj.shape != (n, n):
            raise GraphInputError(f"adjacency shape {adj.shape} does not match n={n}")
        if adj.diagonal().any():
            raise GraphInputError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise GraphInputError("adjacency relation must be symmetric")
        adj = adj.copy()
        adj.flags.writeable = False
        self._n = n
        self._adj = adj

    @property
    def n(self) -> int:
        return self._n

    @property
    def adj(self) -> np.ndarray:
        return self._adj

    @cached_property
    def m(self) -> int:
        return int(self._adj.sum()) // 2

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self._adj.sum(axis=1))

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighborhoods as integer bitmasks (bit u set iff u ~ v)."""
        return _row_masks(self._adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(int(u) for u in np.flatnonzero(self._adj[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._adj[u, v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        iu, iv = np.nonzero(np.triu(self._adj))
        return [(int(a), int(b)) for a, b in zip(iu, iv)]

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise GraphInputError(f"edge ({u}, {v}) not present")
        adj = self._adj.copy()
        adj[u, v] = adj[v, u] = False
        return Graph(self._n, adj)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise GraphInputError(f"vertex {v} out of range 0..{self._n - 1}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and np.array_equal(self._adj, other._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


class BipartiteGraph:
    """Immutable bipartite graph with explicit parts X (rows) and Y (columns).

    ``join_split`` optionally records the (|X1|, |Y1|) boundary left behind by
    :func:`bipartite_join`, so family recognizers can locate the construction
    blocks without a general isomorphism search.
    """

    def __init__(self, nx: int, ny: int, biadj: np.ndarray,
                 join_split: tuple[int, int] | None = None):
        if nx < 0 or ny < 0:
            raise GraphInputError("part sizes must be nonnegative")
        biadj = np.asarray(biadj, dtype=bool).reshape(nx, ny)
        biadj = biadj.copy()
        biadj.flags.writeable = False
        self._nx = nx
        self._ny = ny
        self._biadj = biadj
        self._join_split = join_split

    @property
    def nx(self) -> int:
        return self._nx

    @property
    def ny(self) -> int:
        return self._ny

    @property
    def biadj(self) -> np.ndarray:
        return self._biadj

    @property
    def join_split(self) -> tuple[int, int] | None:
        return self._join_split

    @cached_property
    def m(self) -> int:
        return int(self._biadj.sum())

    @cached_property
    def x_degrees(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self._biadj.sum(axis=1))

    @cached_property
    def y_degrees(self) -> tuple[int, ...]:
        return tuple(int(d) for d in self._biadj.sum(axis=0))

    @cached_property
    def x_masks(self) -> tuple[int, ...]:
        """Neighborhoods of X vertices as bitmasks over Y indices."""
        return _row_masks(self._biadj)

    def is_balanced(self) -> bool:
        return self._nx == self._ny

    def neighborhood(self, xs: Iterable[int]) -> frozenset[int]:
        """N(S) for S a subset of X, as a set of Y indices."""
        seen = 0
        for x in xs:
            if not 0 <= x < self._nx:
                raise GraphInputError(f"X vertex {x} out of range")
            seen |= self.x_masks[x]
        return frozenset(i for i in range(self._ny) if seen >> i & 1)

    def delete_edge(self, x: int, y: int) -> "BipartiteGraph":
        if not (0 <= x < self._nx and 0 <= y < self._ny) or not self._biadj[x, y]:
            raise GraphInputError(f"bipartite edge ({x}, {y}) not present")
        biadj = self._biadj.copy()
        biadj[x, y] = False
        return BipartiteGraph(self._nx, self._ny, biadj, self._join_split)

    def transpose(self) -> "BipartiteGraph":
        """Swap the two parts (provenance is dropped)."""
        return BipartiteGraph(self._ny, self._nx, self._biadj.T)

    def to_graph(self) -> Graph:
        """The same graph on n = nx + ny vertices: X first, then Y."""
        n = self._nx + self._ny
        adj = np.zeros((n, n), dtype=bool)
        adj[: self._nx, self._nx:] = self._biadj
        adj[self._nx:, : self._nx] = self._biadj.T
        return Graph(n, adj)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return (self._nx == other._nx and self._ny == other._ny
                and np.array_equal(self._biadj, other._biadj))

    def __repr__(self) -> str:
        return f"BipartiteGraph(nx={self._nx}, ny={self._ny}, m={self.m})"


# ---------------------------------------------------------------------------
# constructors


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges (duplicates collapsed)."""
    adj = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphInputError(f"self-loop ({u}, {v}) is not allowed")
        adj[u, v] = adj[v, u] = True
    return Graph(n, adj)


def complete_graph(n: int) -> Graph:
    adj = np.ones((n, n), dtype=bool)
    np.fill_diagonal(adj, False)
    return Graph(n, adj)


def empty_graph(n: int) -> Graph:
    return Graph(n, np.zeros((n, n), dtype=bool))


def path_graph(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphInputError("a cycle needs at least 3 vertices")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    """K_{1,leaves}: vertex 0 joined to `leaves` independent vertices."""
    return join(complete_graph(1), empty_graph(leaves)) if leaves else complete_graph(1)


def complete_bipartite(nx: int, ny: int) -> BipartiteGraph:
    return BipartiteGraph(nx, ny, np.ones((nx, ny), dtype=bool))


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of g1 and g2 plus every edge between them.

    g1's vertices come first, so constructions are deterministic.
    """
    n1, n2 = g1.n, g2.n
    adj = np.zeros((n1 + n2, n1 + n2), dtype=bool)
    adj[:n1, :n1] = g1.adj
    adj[n1:, n1:] = g2.adj
    adj[:n1, n1:] = True
    adj[n1:, :n1] = True
    return Graph(n1 + n2, adj)


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Vertex-disjoint union, block-diagonal in the given order."""
    if not parts:
        raise GraphInputError("disjoint_union needs at least one part")
    n = sum(g.n for g in parts)
    adj = np.zeros((n, n), dtype=bool)
    offset = 0
    for g in parts:
        adj[offset:offset + g.n, offset:offset + g.n] = g.adj
        offset += g.n
    return Graph(n, adj)


def bipartite_join(b1: BipartiteGraph, b2: BipartiteGraph) -> BipartiteGraph:
    """Union of two bipartite graphs plus all edges between X2 and Y1.

    Parts concatenate as X = X1 + X2 and Y = Y1 + Y2; the (|X1|, |Y1|)
    boundary is recorded on the result.  If X2 or Y1 is empty no cross edges
    exist and the result is the plain union.
    """
    nx = b1.nx + b2.nx
    ny = b1.ny + b2.ny
    biadj = np.zeros((nx, ny), dtype=bool)
    biadj[: b1.nx, : b1.ny] = b1.biadj
    biadj[b1.nx:, b1.ny:] = b2.biadj
    biadj[b1.nx:, : b1.ny] = True  # X2 x Y1
    return BipartiteGraph(nx, ny, biadj, join_split=(b1.nx, b1.ny))


# ---------------------------------------------------------------------------
# structural queries


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _reach(masks: Sequence[int], start: int, alive: int) -> int:
    """Vertices of `alive` reachable from the vertex set `start`, as a bitmask."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= masks[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & alive & ~seen
        seen |= frontier
    return seen


def _components(masks: Sequence[int], alive: int) -> list[int]:
    """Components of the subgraph induced by `alive`, as bitmasks, lowest first."""
    comps = []
    while alive:
        comp = _reach(masks, alive & -alive, alive)
        comps.append(comp)
        alive &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return _reach(g.neighbor_masks, 1, full) == full


def components_after_removal(g: Graph, removed: Iterable[int]) -> int:
    """Number of connected components of g with `removed` deleted.

    Removing every vertex leaves the empty graph, which has 0 components.
    """
    mask = 0
    for v in removed:
        if not 0 <= v < g.n:
            raise GraphInputError(f"vertex {v} out of range 0..{g.n - 1}")
        mask |= 1 << v
    alive = ((1 << g.n) - 1) & ~mask
    return len(_components(g.neighbor_masks, alive))


def min_degree(g: Graph | BipartiteGraph) -> int:
    if isinstance(g, BipartiteGraph):
        degs = g.x_degrees + g.y_degrees
        return min(degs) if degs else 0
    return min(g.degrees)


def rotate_edges(g: Graph, u: int, v: int, targets: Iterable[int]) -> Graph:
    """Move the edges v-t to u-t for every t in targets.

    Requires targets to be neighbors of v but not of u, with u != v and
    u not among the targets.  The edge count is unchanged.
    """
    g._check_vertex(u)
    g._check_vertex(v)
    if u == v:
        raise GraphInputError("rotation endpoints must differ")
    tset = sorted(set(targets))
    adj = g.adj.copy()
    for t in tset:
        g._check_vertex(t)
        if t == u:
            raise GraphInputError("target set may not contain u")
        if not adj[v, t]:
            raise GraphInputError(f"target {t} is not a neighbor of {v}")
        if adj[u, t]:
            raise GraphInputError(f"target {t} is already a neighbor of {u}")
    for t in tset:
        adj[v, t] = adj[t, v] = False
        adj[u, t] = adj[t, u] = True
    return Graph(g.n, adj)


# ---------------------------------------------------------------------------
# graph6 codec

_G6_MAX_SHORT = 62
_G6_MAX_LONG = 258047  # 18-bit length form


def _g6_header(n: int) -> bytes:
    if n <= _G6_MAX_SHORT:
        return bytes([n + 63])
    if n <= _G6_MAX_LONG:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise GraphInputError(f"graph6 encoding supports at most {_G6_MAX_LONG} vertices")


def to_graph6(g: Graph) -> bytes:
    """Canonical graph6 encoding (zero padding bits)."""
    n = g.n
    out = bytearray(_g6_header(n))
    bits = []
    adj = g.adj
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if adj[i, j] else 0)
    for pos in range(0, len(bits), 6):
        group = bits[pos:pos + 6]
        group += [0] * (6 - len(group))
        val = 0
        for b in group:
            val = val << 1 | b
        out.append(val + 63)
    return bytes(out)


def from_graph6(text: bytes | str) -> Graph:
    """Decode one graph6 line (optionally prefixed with '>>graph6<<')."""
    if isinstance(text, str):
        try:
            data = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6ParseError("non-ASCII character", exc.start) from None
    else:
        data = bytes(text)
    data = data.rstrip(b"\r\n")
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise Graph6ParseError("empty graph6 string", 0)
    pos = 0
    c0 = data[0]
    if c0 == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("8-byte length form is not supported", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated extended header", len(data))
        vals = []
        for i in (1, 2, 3):
            c = data[i]
            if not 63 <= c <= 126:
                raise Graph6ParseError(f"header byte {c} outside graph6 range", i)
            vals.append(c - 63)
        n = vals[0] << 12 | vals[1] << 6 | vals[2]
        pos = 4
    else:
        if not 63 <= c0 <= 126:
            raise Graph6ParseError(f"header byte {c0} outside graph6 range", 0)
        n = c0 - 63
        pos = 1
    if n < 1:
        raise Graph6ParseError("graphs must have at least one vertex", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} payload bytes for n={n}, got {len(body)}", pos + min(len(body), nbytes))
    bits = []
    for i, c in enumerate(body):
        if not 63 <= c <= 126:
            raise Graph6ParseError(f"payload byte {c} outside graph6 range", pos + i)
        val = c - 63
        for shift in range(5, -1, -1):
            bits.append(val >> shift & 1)
    for i in range(nbits, len(bits)):
        if bits[i]:
            raise Graph6ParseError("nonzero padding bits", pos + i // 6)
    adj = np.zeros((n, n), dtype=bool)
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                adj[i, j] = adj[j, i] = True
            idx += 1
    return Graph(n, adj)
