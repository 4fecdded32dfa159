"""Small-graph utilities: canonical forms and the exhaustive connected corpus.

``canonical_form`` is the one isomorphism mechanism (refinement, then
individualisation, keeping the best leaf; McKay and Piperno, "Practical
graph isomorphism II", J. Symbolic Comput. 60, 2014).  It backs
``are_isomorphic``, the Hamilton-path exception check, and the corpus of all
connected graphs on up to 8 vertices.  The corpus grows by vertex
augmentation (each connected graph arises from a connected one with one
vertex fewer, since a spanning tree has a non-cut leaf) and keeps the first
graph of each canonical form.
"""

from __future__ import annotations

from .errors import CapacityError, GraphInputError
from .graphs import Graph, _bits

ISO_CAP = 12
CORPUS_CAP = 8


def _refine(masks: tuple[int, ...], cells: list[int], stack: list[int]) -> list[int]:
    """Refine the ordered cell bitmasks in place to an equitable partition.

    Each popped splitter splits every cell by neighbor count in the splitter,
    kept bit-sliced (``slices[j]``: vertices whose count has bit j set).  The
    parts replace the cell in increasing count order and are all pushed.
    """
    while stack and len(cells) < len(masks):
        splitter = stack.pop()
        if splitter not in cells:
            continue  # already split: its parts were pushed later and ran first
        slices: list[int] = []
        for w in _bits(splitter):
            carry = masks[w]
            for j, s in enumerate(slices):
                slices[j], carry = s ^ carry, s & carry
                if not carry:
                    break
            else:
                slices.append(carry)
        i = 0
        while i < len(cells):
            cell = cells[i]
            i += 1
            if not cell & (cell - 1):
                continue
            for s in slices:
                if cell & s and cell & ~s:
                    break
            else:
                continue
            parts = [cell]
            for s in reversed(slices):
                parts = [q for p in parts for q in (p & ~s, p & s) if q]
            cells[i - 1:i] = parts
            stack.extend(parts)
            i += len(parts) - 1
    return cells


def _canonical_code(masks: tuple[int, ...], cells: list[int] | None = None) -> int:
    """Largest leaf code below the equitable `cells` (default: the refined
    degree partition)."""
    if cells is None:
        by_degree: dict[int, int] = {}
        for v, m in enumerate(masks):
            by_degree[m.bit_count()] = by_degree.get(m.bit_count(), 0) | 1 << v
        cells = [by_degree[d] for d in sorted(by_degree)]
        _refine(masks, cells, cells[:])
    if len(cells) == len(masks):
        order = [c.bit_length() - 1 for c in cells]
        code = 0
        for i, v in enumerate(order):
            for u in order[i + 1:]:
                code = code << 1 | masks[v] >> u & 1
        return code
    i = next(j for j, c in enumerate(cells) if c & (c - 1))
    best, tried = -1, []
    for v in _bits(cells[i]):
        if all(masks[v] & ~(1 << w) != masks[w] & ~(1 << v) for w in tried):
            tried.append(v)
            child = cells[:i] + [1 << v, cells[i] ^ 1 << v] + cells[i + 1:]
            best = max(best, _canonical_code(masks, _refine(masks, child, [1 << v])))
    return best


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, code), equal for two graphs iff they are isomorphic.

    The search refines the unit partition to an equitable one (its first
    split, by degree, is taken directly), then individualises each vertex of
    the first non-singleton cell and refines again, recursively.  A discrete
    leaf's code is the upper-triangle adjacency bits in cell order; the form
    keeps the largest.  Every step depends only on the ordered partition, so
    the maximum does not depend on the labelling.

    A vertex v is skipped when it is a twin of an already tried vertex w of
    its cell (N(v) - w == N(w) - v).  The skip is exact: swapping two twins
    of one cell is an automorphism that fixes the current partition, so both
    subtrees give the same leaf codes.  Without it K_n costs n! leaves.
    """
    return g.n, _canonical_code(g.neighbor_masks)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test for graphs on at most 12 vertices."""
    if g1.n > ISO_CAP or g2.n > ISO_CAP:
        raise CapacityError(f"isomorphism test is capped at {ISO_CAP} vertices")
    return ((g1.n, g1.m, sorted(g1.degrees)) == (g2.n, g2.m, sorted(g2.degrees))
            and canonical_form(g1) == canonical_form(g2))


_corpus: dict[int, list[Graph]] = {}


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n <= 8 vertices, one per isomorphism class,
    in a fixed order (the class counts grow too fast beyond desk scale)."""
    if n < 1:
        raise GraphInputError("vertex count must be positive")
    if n > CORPUS_CAP:
        raise CapacityError(f"exhaustive corpus generation is capped at {CORPUS_CAP} vertices")
    if n not in _corpus:
        _corpus[n] = [Graph._from_masks(masks) for masks in _connected_masks(n)]
    return list(_corpus[n])


def _connected_masks(n: int) -> list[tuple[int, ...]]:
    """Neighbor masks of the corpus on n vertices: every graph on n-1
    vertices plus a new vertex on each nonempty neighbor set, keeping the
    first graph of each canonical form."""
    if n == 1:
        return [(0,)]
    new_bit = 1 << (n - 1)
    seen: set[int] = set()
    result = []
    for parent in [g.neighbor_masks for g in connected_graphs(n - 1)]:
        for sub in range(1, new_bit):
            masks = tuple(p | new_bit if sub >> v & 1 else p
                          for v, p in enumerate(parent)) + (sub,)
            if (code := _canonical_code(masks)) not in seen:
                seen.add(code)
                result.append(masks)
    return result
