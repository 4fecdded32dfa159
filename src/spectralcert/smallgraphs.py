"""Small-graph utilities: isomorphism testing and exhaustive connected corpora.

The verification harnesses need every connected graph on up to 8 vertices,
one per isomorphism class.  Graphs are enumerated by vertex augmentation
(every connected graph on n vertices arises from a connected graph on n-1
vertices by attaching a new vertex to a nonempty neighbor set, since a
spanning tree always has a non-cut leaf) and deduplicated with a
color-refinement fingerprint plus an exact backtracking isomorphism test.

The isomorphism test also decides the Hamilton-path harnesses' exceptional
graphs and serves the tests as an independent oracle for the structural
extremal-family recognizers; it is capped at 12 vertices.
"""

from __future__ import annotations

import numpy as np

from .errors import CapacityError, GraphInputError
from .graphs import Graph, _bits

ISO_CAP = 12
CORPUS_CAP = 8


def _refine_colors(n: int, masks: tuple[int, ...]) -> list[int]:
    """Stable 1-dimensional color refinement; color ids are canonical ranks."""
    colors = [m.bit_count() for m in masks]
    for _ in range(n + 1):
        sigs = []
        for v in range(n):
            nb = []
            mv = masks[v]
            while mv:
                low = mv & -mv
                nb.append(colors[low.bit_length() - 1])
                mv ^= low
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [rank[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _signature(n: int, masks: tuple[int, ...], colors: list[int]):
    """Sorted multiset of stable (color, neighbor colors) pairs: an invariant."""
    sigs = []
    for v in range(n):
        nb = []
        mv = masks[v]
        while mv:
            low = mv & -mv
            nb.append(colors[low.bit_length() - 1])
            mv ^= low
        nb.sort()
        sigs.append((colors[v], tuple(nb)))
    sigs.sort()
    return tuple(sigs)


def _iso_with_colors(n: int, masks1, colors1, masks2, colors2) -> bool:
    """Backtracking isomorphism search constrained to equal color classes."""
    if sorted(colors1) != sorted(colors2):
        return False
    class_size: dict[int, int] = {}
    for c in colors1:
        class_size[c] = class_size.get(c, 0) + 1
    # smallest color classes first: most constrained assignments early
    order = sorted(range(n), key=lambda v: (class_size[colors1[v]], colors1[v], v))
    candidates: dict[int, list[int]] = {}
    for w in range(n):
        candidates.setdefault(colors2[w], []).append(w)
    mapping = [-1] * n
    used = [False] * n

    def assign(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for w in candidates.get(colors1[v], ()):
            if used[w]:
                continue
            ok = True
            for prev in order[:pos]:
                if (masks1[v] >> prev & 1) != (masks2[w] >> mapping[prev] & 1):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if assign(pos + 1):
                    return True
                used[w] = False
                mapping[v] = -1
        return False

    return assign(0)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test for graphs on at most 12 vertices."""
    if g1.n > ISO_CAP or g2.n > ISO_CAP:
        raise CapacityError(f"isomorphism test is capped at {ISO_CAP} vertices")
    if g1.n != g2.n or g1.m != g2.m:
        return False
    if sorted(g1.degrees) != sorted(g2.degrees):
        return False
    n = g1.n
    masks1, masks2 = g1.neighbor_masks, g2.neighbor_masks
    return _iso_with_colors(n, masks1, _refine_colors(n, masks1),
                            masks2, _refine_colors(n, masks2))


_corpus_masks: dict[int, list[tuple[int, ...]]] = {}
_corpus_graphs: dict[int, list[Graph]] = {}


def _connected_masks(n: int) -> list[tuple[int, ...]]:
    if n in _corpus_masks:
        return _corpus_masks[n]
    if n == 1:
        result = [(0,)]
    else:
        parents = _connected_masks(n - 1)
        new_bit = 1 << (n - 1)
        # fingerprint -> list of (masks, colors) representatives
        buckets: dict[tuple, list[tuple[tuple[int, ...], list[int]]]] = {}
        result = []
        for parent in parents:
            for sub in range(1, 1 << (n - 1)):
                masks = tuple(
                    parent[v] | new_bit if sub >> v & 1 else parent[v]
                    for v in range(n - 1)
                ) + (sub,)
                colors = _refine_colors(n, masks)
                fp = _signature(n, masks, colors)
                reps = buckets.setdefault(fp, [])
                if any(_iso_with_colors(n, masks, colors, rm, rc)
                       for rm, rc in reps):
                    continue
                reps.append((masks, colors))
                result.append(masks)
    _corpus_masks[n] = result
    return result


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n vertices, one per isomorphism class.

    Deterministic order.  Capped at 8 vertices; the class counts grow too
    fast beyond desk scale.
    """
    if n < 1:
        raise GraphInputError("vertex count must be positive")
    if n > CORPUS_CAP:
        raise CapacityError(f"exhaustive corpus generation is capped at {CORPUS_CAP} vertices")
    if n not in _corpus_graphs:
        graphs = []
        for masks in _connected_masks(n):
            adj = np.zeros((n, n), dtype=bool)
            for v in range(n):
                for u in _bits(masks[v]):
                    adj[v, u] = True
            graphs.append(Graph(n, adj))
        _corpus_graphs[n] = graphs
    return list(_corpus_graphs[n])
