"""Exact combinatorial certifiers.

Every search here is complete: an absent certificate is a proof of
nonexistence within the stated caps.

* ``find_k_tree``: spanning tree with maximum degree at most k, by
  depth-first edge addition pruned by a connectivity test, in two phases.
  The search's first descent runs as one degree-capped Kruskal greedy
  pass, which returns its tree if it spans.  Only after a dead end does the
  stack search run, entered at the shallowest depth of the descent whose
  test fails, found by bisection.
* ``find_win_violator``: a vertex set S whose removal leaves more than
  (k-2)|S| + 2 components, searched in increasing size and then
  lexicographically, so it is a smallest one.  Components are counted only
  from the boundary N(S) - S, which meets every one of them, and the search
  stops at the first size whose bound reaches the independence number.
* ``perfect_matching``: augmenting paths from each X root in turn; the
  first root with none gives a neighborhood-deficient X-set.
* ``count_perfect_matchings_brute``: permanent of the biadjacency matrix,
  row by row over the sets of used Y columns, the independent oracle for
  the matching routines.

All searches use ascending vertex order for tie-breaking, so certificates
are deterministic for a fixed input labeling.
"""

from __future__ import annotations

from collections.abc import Sequence
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

    Exact search; g must be connected.  The search is depth first, add
    before exclude, over the edges in the order (smaller end degree, larger
    end degree, u, v), and it branches only on live edges: both ends below
    degree k, in different fragments.  That order is walked with no sort:
    for each pair of degree classes d1 <= d2 in ascending order, each u of
    either class in ascending order takes its neighbours v > u in the other
    class (in its own class when d1 = d2), in ascending order.  A node's
    test is that its possibility graph (tree edges plus undecided edges
    whose ends are both below degree k) is connected.  That also gives every
    fragment a usable edge to the outside, since tree edges stay inside
    fragments.  A failed test only prunes subtrees holding no k-tree, so a
    test known to pass can be skipped, and a node known to fail passed
    over, without moving the first tree in DFS order.

    Let A_d be the possibility graph of the first descent's node at depth d,
    after d adds and no exclusion.  An add keeps its edge in the graph and
    only fills vertices, so A_d only loses edges as d grows; A_0 = g is
    connected, which is the root test.  If the descent reaches n - 1 edges,
    its tree lies in every A_d, so every test on the way passes and the
    tree is the answer.  That descent adds each edge that is live when its
    turn comes: it is a degree-capped Kruskal greedy, run here as one pass
    with a union-find and a degree count per vertex, and no test.
    Otherwise the pass ends at a dead end, a depth D with no live edge
    left, where A_D's undecided edges below k all lie inside fragments: A_D
    is disconnected, and ``_resume_k_tree`` carries on from the least d*
    with A_d disconnected.
    """
    if k < 2:
        raise GraphInputError(f"degree bound must be at least 2, got {k}")
    n = g.n
    masks = g.neighbor_masks
    full = (1 << n) - 1
    if _reach(masks, 1, full) != full:  # the root test: g is the possibility graph
        raise GraphInputError("k-tree search requires a connected graph")
    if n == 1:
        return KTreeCertificate(())

    classes = [0] * n  # degree -> vertices of that degree
    for v, d in enumerate(g.degrees):
        classes[d] |= 1 << v
    classes = [c for c in classes if c]  # ascending degree
    parent = list(range(n))
    frag = [1 << v for v in range(n)]  # vertices of each root's fragment
    deg = [0] * n
    below = full  # vertices of degree < k
    chosen: list[tuple[int, int]] = []
    for i, c1 in enumerate(classes):
        for c2 in classes[i:]:
            ends = (c1 | c2) & below
            while ends:
                low = ends & -ends
                ends ^= low
                u = low.bit_length() - 1
                ru = u
                while parent[ru] != ru:
                    ru = parent[ru]
                live = masks[u] & -(2 << u) & (c2 if c1 & low else c1) & below & ~frag[ru]
                while live:
                    low_v = live & -live
                    v = low_v.bit_length() - 1
                    rv = v
                    while parent[rv] != rv:
                        rv = parent[rv]
                    chosen.append((u, v))
                    if len(chosen) == n - 1:
                        return KTreeCertificate(tuple(sorted(chosen)))
                    if frag[ru].bit_count() < frag[rv].bit_count():
                        ru, rv = rv, ru
                    parent[rv] = ru
                    frag[ru] |= frag[rv]
                    deg[v] += 1
                    if deg[v] == k:  # v may still be ahead in ends
                        below ^= low_v
                        ends &= below
                    deg[u] += 1
                    if deg[u] == k:
                        below ^= low
                        break
                    live &= ~frag[ru]
    return _resume_k_tree(masks, classes, k, chosen)


def _resume_k_tree(masks: tuple[int, ...], classes: list[int], k: int,
                   descent: list[tuple[int, int]]) -> KTreeCertificate | None:
    """The rest of ``find_k_tree``'s search, after its first descent added
    the edges `descent` in order and dead-ended.

    With A_d as in ``find_k_tree``, the descent's nodes above depth d* pass
    their tests and the nodes from d* on fail theirs.  So does the exclude
    node of each edge j > d*, whose possibility graph is A_{j-1} minus edge
    j.  d* is found by bisection over the descent, with O(log n) tests.  The
    search replays the first d* adds untested into its own state, frames
    included, then backtracks from depth d* as from a failed node, which
    opens the exclude node of edge d*: every node it passes over would have
    failed its test.

    From there the search runs on an explicit stack.  The edge order is
    held as entries: one vertex u and the mask of its neighbours v > u in
    one degree class.  A search position is (entry, bits left in it); the
    next live edge is the lowest bit of the entry's mask that is left,
    below degree k and outside u's fragment, kept as one vertex mask per
    union-find root.  The possibility graph loses edges only on an
    exclusion, or when an added edge fills an end that still has an
    undecided edge to a vertex below k; every other node keeps its parent's
    graph, and so its passing test, unrun.  Skipping dead edges is exact:
    fragments only merge and degrees only grow below a node, so a dead edge
    stays dead there, and the test never needs one (an edge inside a
    fragment joins vertices the tree already connects; an edge at a full
    vertex is not usable).
    """
    n = len(masks)
    full = (1 << n) - 1
    lo, hi = 0, len(descent)  # A_lo is connected, A_hi is not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        tree_adj = [0] * n
        for u, v in descent[:mid]:
            tree_adj[u] |= 1 << v
            tree_adj[v] |= 1 << u
        below = full
        for v, t in enumerate(tree_adj):
            if t.bit_count() == k:
                below ^= 1 << v
        if _possible_connected(tree_adj, masks, below, full):
            lo = mid
        else:
            hi = mid

    entries = []  # (u, mask of its neighbours v > u in one degree class), in edge order
    for i, c1 in enumerate(classes):
        for c2 in classes[i:]:
            ends = c1 | c2
            while ends:
                low = ends & -ends
                ends ^= low
                u = low.bit_length() - 1
                part = masks[u] & -(2 << u) & (c2 if c1 & low else c1)
                if part:
                    entries.append((u, part))
    ne = len(entries)

    parent = list(range(n))
    frag = [1 << v for v in range(n)]  # vertices of each root's fragment

    def find(v: int) -> int:
        while parent[v] != v:
            v = parent[v]
        return v

    tree_adj = [0] * n
    und = list(masks)  # undecided incident edges, as neighbor bitmasks
    below = full  # vertices of degree < k
    chosen: list[tuple[int, int]] = []
    # one frame per branched edge: (entry, v, ru, rv) while its add branch
    # is open, (entry, v, -1, -1) once it is excluded
    frames: list[tuple[int, int, int, int]] = []
    e = 0
    after = -1  # bits of entry e not yet passed
    stale = False  # the possibility graph lost an edge since it last passed
    replay = hi  # adds of the descent still to redo untested; the last lands at d*
    while len(chosen) < n - 1:
        # one search node: test the possibility graph, then add the next live edge
        if stale:
            stale = not _possible_connected(tree_adj, und, below, full)
        live = 0
        if not stale:
            while e < ne:
                u, part = entries[e]
                if below >> u & 1:
                    ru = find(u)
                    live = part & after & below & ~frag[ru]
                    if live:
                        break
                e += 1
                after = -1
        if live:
            low = live & -live
            v = low.bit_length() - 1
            rv = find(v)
            und[u] &= ~low
            und[v] &= ~(1 << u)
            if frag[ru].bit_count() < frag[rv].bit_count():
                ru, rv = rv, ru
            parent[rv] = ru
            frag[ru] |= frag[rv]
            tree_adj[u] |= low
            tree_adj[v] |= 1 << u
            lost = 0  # undecided neighbors of an end that is now full
            if tree_adj[u].bit_count() == k:
                below &= ~(1 << u)
                lost |= und[u]
            if tree_adj[v].bit_count() == k:
                below &= ~low
                lost |= und[v]
            chosen.append((u, v))
            frames.append((e, v, ru, rv))
            after = -(2 << v)
            if not replay:
                stale = lost & below != 0
                continue
            replay -= 1
            if replay:
                continue
        # this node failed, or is the descent's node at depth d*, which
        # would: undo to the deepest add branch, then exclude it
        while frames:
            e, v, ru, rv = frames.pop()
            u = entries[e][0]
            if rv < 0:
                und[u] |= 1 << v
                und[v] |= 1 << u
                continue
            chosen.pop()
            tree_adj[u] &= ~(1 << v)
            tree_adj[v] &= ~(1 << u)
            below |= 1 << u | 1 << v
            parent[rv] = rv
            frag[ru] &= ~frag[rv]
            frames.append((e, v, -1, -1))
            after = -(2 << v)
            stale = True
            break
        else:
            return None
    return KTreeCertificate(tuple(sorted(chosen)))


def _possible_connected(tree_adj: list[int], und: Sequence[int], below: int,
                        full: int) -> bool:
    """Whether the tree edges `tree_adj` and the edges of `und` with both
    ends in `below` connect every vertex."""
    possible = [t | a & below if below >> v & 1 else t
                for v, (t, a) in enumerate(zip(tree_adj, und))]
    return _reach(possible, 1, full) == full


def is_valid_ktree(g: Graph, k: int, cert: KTreeCertificate) -> bool:
    """Re-validate a witness: spanning, acyclic, connected, degrees <= k.
    An edge that is not a pair of ints in 0..n-1 makes it invalid."""
    n = g.n
    edges = cert.edges
    if len(edges) != n - 1:
        return False
    masks = g.neighbor_masks
    deg = [0] * n
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):  # not a pair
            return False
        if not (type(u) is type(v) is int and 0 <= u < n and 0 <= v < n
                and masks[u] >> v & 1):
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


def find_win_violator(g: Graph, k: int) -> WinViolator | None:
    """Some S with c(G - S) > (k-2)|S| + 2, or None if no subset violates.

    Exhaustive over all nonempty subsets in increasing size, and
    lexicographically within a size, so the violator returned is the
    lexicographically first of the smallest ones.  Sizes above (n-3)/(k-1)
    cannot violate, nor can any size from the first s with
    (k-2)s + 2 >= alpha(G) on: one vertex from each component of G - S
    gives an independent set, so c(G - S) <= alpha(G).  alpha(G) is computed
    only once the search reaches size 2: a violator of size 1 leaves more
    than k components, so alpha(G) > k, and the bound could not have stopped
    size 1.  G is connected, so every component of G - S holds a vertex of
    the boundary N(S) - S: a set with too small a boundary is skipped, and
    components are counted from the boundary only until the count is
    decided.
    """
    if k < 2:
        raise GraphInputError(f"degree bound must be at least 2, got {k}")
    if not is_connected(g):
        raise GraphInputError("violator search requires a connected graph")
    if g.n > WIN_N_CAP:
        raise CapacityError(f"exhaustive violator search capped at {WIN_N_CAP} vertices")
    n = g.n
    masks = g.neighbor_masks
    full = (1 << n) - 1
    alpha = n  # no bound at size 1, where k <= n - 2
    for s in range(1, (n - 3) // (k - 1) + 1):
        if s == 2:
            alpha = _independence_number(masks)
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
    """A perfect matching, or a neighborhood-deficient X-set if none exists.

    Each X root in turn grows an alternating path on an explicit stack, so
    no path is too long for the interpreter's recursion limit: its last X
    vertex takes the lowest neighbor bit that this root's search has not
    visited, a free Y flips the path, and an X vertex with none left is
    popped.  The first root whose path empties stops the search, and the X
    vertices it reached are the certificate: their neighbors are the Y
    vertices it visited, one fewer, each matched inside the set.  A later
    augmenting path could not leave the set for a free Y, so none changes
    it, and it is the set alternating paths from the first unmatched vertex
    reach under a maximum matching.
    """
    if not b.is_balanced():
        raise GraphInputError("perfect matching requires a balanced bipartite graph")
    n = b.nx
    adj = b.x_masks
    match_x = [-1] * n
    match_y = [-1] * n
    for root in range(n):
        unvisited = (1 << n) - 1
        reached = 1 << root  # X vertices reached, as a mask
        path, via = [root], []  # the path's X vertices, and the Y vertex after each
        while path:
            free = adj[path[-1]] & unvisited
            if not free:
                path.pop()
                if via:
                    via.pop()
                continue
            low = free & -free
            unvisited ^= low
            y = low.bit_length() - 1
            via.append(y)
            x = match_y[y]
            if x == -1:
                for x, y in zip(path, via):
                    match_x[x] = y
                    match_y[y] = x
                break
            path.append(x)
            reached |= 1 << x
        else:
            return HallViolator(tuple(_bits(reached)))
    return PerfectMatching(tuple(enumerate(match_x)))


def count_perfect_matchings_brute(b: BipartiteGraph) -> int:
    """Permanent of the biadjacency matrix, counted row by row: after each X
    row, the number of ways to match the rows so far onto each set of used
    Y columns."""
    if not b.is_balanced():
        raise GraphInputError("matching count requires a balanced bipartite graph")
    if b.nx > BRUTE_MATCHING_CAP:
        raise CapacityError(f"brute matching count capped at {BRUTE_MATCHING_CAP}")
    ways = {0: 1}
    for row in b.x_masks:
        step: dict[int, int] = {}
        for used, count in ways.items():
            free = row & ~used
            while free:
                low = free & -free
                free ^= low
                step[used | low] = step.get(used | low, 0) + count
        ways = step
    return sum(ways.values())
