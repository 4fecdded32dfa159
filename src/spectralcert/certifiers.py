"""Exact combinatorial certifiers.

Every search here is complete: an absent certificate is a proof of
nonexistence within the stated caps.

* ``find_k_tree``: spanning tree with maximum degree at most k, by
  edge-addition DFS on an explicit stack over a fixed edge order (most
  constrained endpoints first).  Its one prune is that the possibility
  graph (tree edges plus undecided edges with both ends below degree k)
  stays connected, tested only after the possibility graph lost an edge; a
  per-fragment outward budget is implied, because tree edges lie inside
  fragments, so a connected possibility graph gives every fragment a usable
  edge out.  The DFS branches only on live edges; dead edges (both ends in
  one fragment, or an end already at degree k) are passed over without a
  feasibility check.
* ``find_win_violator``: a vertex set S whose removal leaves more than
  (k-2)|S| + 2 components, searched in increasing size and then
  lexicographically, so it is a smallest one.  Components are counted only
  from the boundary N(S) - S, which meets every one of them, and the search
  stops at the first size whose bound reaches the independence number.
* ``perfect_matching``: augmenting-path maximum matching, each path found
  by a depth-first search on an explicit stack, so no path is too long for
  the interpreter's recursion limit; on failure the X-side vertices
  reachable by alternating paths from an unmatched vertex form a
  neighborhood-deficient set, returned as the counter-certificate.
* ``count_perfect_matchings_brute``: permanent of the biadjacency matrix by
  inclusion-exclusion, the independent oracle for the matching routines.

All searches use ascending vertex order for tie-breaking, so certificates
are deterministic for a fixed input labeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityError, GraphInputError
from .graphs import BipartiteGraph, Graph, _bits, _reach, is_connected

WIN_N_CAP = 20
BRUTE_MATCHING_CAP = 8


@dataclass(frozen=True)
class KTreeCertificate:
    """Edges of a spanning tree with maximum degree at most k."""

    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class WinViolator:
    """Vertex set S with c(G - S) > (k-2)|S| + 2."""

    vertices: tuple[int, ...]


@dataclass(frozen=True)
class PerfectMatching:
    """X-Y pairs of a perfect matching, listed by X index."""

    pairs: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class HallViolator:
    """X-side set S with |N(S)| < |S|."""

    vertices: tuple[int, ...]


Certificate = KTreeCertificate | WinViolator | PerfectMatching | HallViolator


def certificate_to_json(cert: Certificate) -> dict:
    """Stable JSON form: {"type": ..., "data": [...]}, indices 0-based."""
    if isinstance(cert, KTreeCertificate):
        return {"type": "ktree", "data": [list(e) for e in cert.edges]}
    if isinstance(cert, WinViolator):
        return {"type": "win_violator", "data": list(cert.vertices)}
    if isinstance(cert, PerfectMatching):
        return {"type": "matching", "data": [list(p) for p in cert.pairs]}
    if isinstance(cert, HallViolator):
        return {"type": "hall_violator", "data": list(cert.vertices)}
    raise TypeError(f"not a certificate: {cert!r}")


# ---------------------------------------------------------------------------
# degree-bounded spanning trees


def find_k_tree(g: Graph, k: int) -> KTreeCertificate | None:
    """A spanning tree of g with every degree <= k, or None if none exists.

    Exact search; g must be connected.  Each search node tests feasibility,
    then skips dead edges and branches (add, then exclude) on the next live
    one, depth first on an explicit stack.  The test is that the
    possibility graph (tree edges plus undecided edges whose ends are both
    below degree k) is connected.  That also gives every fragment a usable
    edge to the outside, since tree edges stay inside fragments.  The graph
    loses edges only on an exclusion, or when an added edge fills an end
    that still has an undecided edge to a vertex below k; every other node
    keeps its parent's graph, and so its passing test, unrun.  Skipping
    is exact: fragments only merge and degrees only grow below a node, so a
    dead edge stays dead there, and the test never needs one (an edge inside
    a fragment joins vertices the tree already connects; an edge at a full
    vertex is not usable).
    """
    if k < 2:
        raise GraphInputError(f"degree bound must be at least 2, got {k}")
    if not is_connected(g):
        raise GraphInputError("k-tree search requires a connected graph")
    n = g.n
    if n == 1:
        return KTreeCertificate(())

    degs = g.degrees
    edges = sorted(
        g.edges(),
        key=lambda e: (min(degs[e[0]], degs[e[1]]), max(degs[e[0]], degs[e[1]]), e))
    m = len(edges)

    parent = list(range(n))
    size = [1] * n

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    tree_adj = [0] * n
    und = [0] * n  # undecided incident edges, as neighbor bitmasks
    for u, v in edges:
        und[u] |= 1 << v
        und[v] |= 1 << u
    full = (1 << n) - 1
    below = full  # vertices of degree < k
    chosen: list[tuple[int, int]] = []
    # one frame per branched edge: (index, ru, rv) while its add branch is
    # open, (index, -1, -1) once it is excluded
    frames: list[tuple[int, int, int]] = []
    i = 0
    stale = True  # the possibility graph lost an edge since it last passed
    while len(chosen) < n - 1:
        # one search node: test the possibility graph, then add the next live edge
        if stale:
            possible = [t | a & below if below >> v & 1 else t
                        for v, (t, a) in enumerate(zip(tree_adj, und))]
            stale = _reach(possible, 1, full) != full
        if not stale:
            while i < m:
                u, v = edges[i]
                ru, rv = find(u), find(v)
                if ru != rv and below >> u & below >> v & 1:
                    break
                i += 1
        else:
            i = m
        if i < m:
            und[u] &= ~(1 << v)
            und[v] &= ~(1 << u)
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
            tree_adj[u] |= 1 << v
            tree_adj[v] |= 1 << u
            lost = 0  # undecided neighbors of an end that is now full
            if tree_adj[u].bit_count() == k:
                below &= ~(1 << u)
                lost |= und[u]
            if tree_adj[v].bit_count() == k:
                below &= ~(1 << v)
                lost |= und[v]
            stale = lost & below != 0
            chosen.append((u, v))
            frames.append((i, ru, rv))
            i += 1
            continue
        # this node failed: undo to the deepest add branch, then exclude it
        while frames:
            i, ru, rv = frames.pop()
            u, v = edges[i]
            if rv < 0:
                und[u] |= 1 << v
                und[v] |= 1 << u
                continue
            chosen.pop()
            tree_adj[u] &= ~(1 << v)
            tree_adj[v] &= ~(1 << u)
            below |= 1 << u | 1 << v
            parent[rv] = rv
            size[ru] -= size[rv]
            frames.append((i, -1, -1))
            i += 1
            stale = True
            break
        else:
            return None
    return KTreeCertificate(tuple(sorted(chosen)))


def is_valid_ktree(g: Graph, k: int, cert: KTreeCertificate) -> bool:
    """Re-validate a witness: spanning, acyclic, connected, degrees <= k."""
    edges = cert.edges
    if len(edges) != g.n - 1 or len(set(edges)) != len(edges):
        return False
    deg = [0] * g.n
    parent = list(range(g.n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        if not g.has_edge(u, v):
            return False
        deg[u] += 1
        deg[v] += 1
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[rv] = ru
    return max(deg) <= k if edges else g.n == 1


# ---------------------------------------------------------------------------
# component-count violators


def find_win_violator(g: Graph, k: int, n_cap: int = WIN_N_CAP) -> WinViolator | None:
    """Some S with c(G - S) > (k-2)|S| + 2, or None if no subset violates.

    Exhaustive over all nonempty subsets in increasing size, and
    lexicographically within a size, so the violator returned is the
    lexicographically first of the smallest ones.  Sizes above (n-3)/(k-1)
    cannot violate, nor can any size from the first s with
    (k-2)s + 2 >= alpha(G) on: one vertex from each component of G - S
    gives an independent set, so c(G - S) <= alpha(G).  G is connected, so
    every component of G - S holds a vertex of the boundary N(S) - S: a set
    with too small a boundary is skipped, and components are counted from
    the boundary only until the count is decided.
    """
    if k < 2:
        raise GraphInputError(f"degree bound must be at least 2, got {k}")
    if not is_connected(g):
        raise GraphInputError("violator search requires a connected graph")
    if g.n > n_cap:
        raise CapacityError(f"exhaustive violator search capped at {n_cap} vertices")
    n = g.n
    masks = g.neighbor_masks
    full = (1 << n) - 1
    alpha = _independence_number(masks)
    for s in range(1, (n - 3) // (k - 1) + 1):
        bound = (k - 2) * s + 2
        if bound >= alpha:
            break
        for sel in combinations(range(n), s):
            removed = touched = 0
            for v in sel:
                removed |= 1 << v
                touched |= masks[v]
            boundary = touched & ~removed
            if boundary.bit_count() <= bound:
                continue
            alive = full & ~removed
            c = 0
            while boundary:
                boundary &= ~_reach(masks, boundary & -boundary, alive)
                c += 1
                if c > bound:
                    return WinViolator(sel)
                if c + boundary.bit_count() <= bound:
                    break
    return None


def _independence_number(masks: tuple[int, ...]) -> int:
    """Size of a largest independent set, by branch and bound on an explicit
    stack.  Each node takes a candidate v of least candidate degree d: if
    d <= 1, some largest independent set of the candidates holds v, so v is
    taken; otherwise every largest one meets N[v] (or v could join it), so
    the node branches on the candidates in N[v].
    """
    best = 0
    stack = [((1 << len(masks)) - 1, 0)]
    while stack:
        cand, size = stack.pop()
        if size + cand.bit_count() <= best:
            continue
        if not cand:
            best = size
            continue
        v, least = -1, len(masks)
        for u in _bits(cand):
            d = (masks[u] & cand).bit_count()
            if d < least:
                v, least = u, d
                if d <= 1:
                    break
        branches = 1 << v if least <= 1 else cand & (masks[v] | 1 << v)
        for u in _bits(branches):
            stack.append((cand & ~masks[u] & ~(1 << u), size + 1))
    return best


# ---------------------------------------------------------------------------
# bipartite perfect matchings


def perfect_matching(b: BipartiteGraph) -> PerfectMatching | HallViolator:
    """A perfect matching, or a neighborhood-deficient X-set if none exists."""
    if not b.is_balanced():
        raise GraphInputError("perfect matching requires a balanced bipartite graph")
    n = b.nx
    adj = b.x_masks
    match_x = [-1] * n
    match_y = [-1] * n

    def augment(root: int) -> bool:
        # depth-first over alternating paths; frame i tries the Y vertices of
        # its X vertex in ascending order and descended through via[i]
        visited = [False] * n
        frames = [(root, _bits(adj[root]))]
        via: list[int] = []
        while frames:
            for y in frames[-1][1]:
                if not visited[y]:
                    break
            else:
                frames.pop()
                if via:
                    via.pop()
                continue
            visited[y] = True
            via.append(y)
            if match_y[y] == -1:
                for (x, _), y in zip(frames, via):
                    match_x[x] = y
                    match_y[y] = x
                return True
            frames.append((match_y[y], _bits(adj[match_y[y]])))
        return False

    matched = 0
    for x in range(n):
        if augment(x):
            matched += 1
    if matched == n:
        return PerfectMatching(tuple((x, match_x[x]) for x in range(n)))

    x0 = next(x for x in range(n) if match_x[x] == -1)
    reach_x = {x0}
    reach_y: set[int] = set()
    frontier = [x0]
    while frontier:
        nxt = []
        for x in frontier:
            for y in _bits(adj[x]):
                if y in reach_y:
                    continue
                reach_y.add(y)
                partner = match_y[y]
                if partner != -1 and partner not in reach_x:
                    reach_x.add(partner)
                    nxt.append(partner)
        frontier = nxt
    return HallViolator(tuple(sorted(reach_x)))


def count_perfect_matchings_brute(b: BipartiteGraph) -> int:
    """Permanent of the biadjacency matrix, by inclusion-exclusion."""
    if not b.is_balanced():
        raise GraphInputError("matching count requires a balanced bipartite graph")
    n = b.nx
    if n > BRUTE_MATCHING_CAP:
        raise CapacityError(f"brute matching count capped at {BRUTE_MATCHING_CAP}")
    if n == 0:
        return 1
    rows = b.x_masks
    total = 0
    for sub in range(1, 1 << n):
        prod = 1
        for r in rows:
            c = (r & sub).bit_count()
            if c == 0:
                prod = 0
                break
            prod *= c
        if prod:
            total += prod if (n - sub.bit_count()) % 2 == 0 else -prod
    return total
