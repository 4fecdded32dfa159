"""Small-graph utilities: canonical forms and the exhaustive connected corpus.

``canonical_form`` is the one isomorphism mechanism (refinement, then
individualisation on an explicit stack, keeping the best leaf, with a twin
prune and a jump on equal leaves; McKay and Piperno, "Practical graph
isomorphism II", J. Symbolic Comput. 60, 2014).  It backs
``are_isomorphic``, the Hamilton-path sporadic exceptions, and the corpus of
all connected graphs on up to 8 vertices.  Its search also yields generators
of the automorphism group, which the corpus uses.

The corpus grows by vertex augmentation (each connected graph arises from a
connected one with one vertex fewer, since a spanning tree has a non-cut
leaf) and keeps the first graph of each canonical form, in parent order and
then in increasing order of the new vertex's neighbor set.  A parent P is
augmented only on the sets that no automorphism of P maps to a smaller
integer.  A skipped set S has an image σ(S) < S, and σ extended by fixing
the new vertex maps the child on S onto the child on σ(S), built earlier
from the same parent; so the skipped child was never kept, and every class
keeps the representative, and the place, it had without the pruning.  The
generators of each kept graph come from its own canonical search and are
cached beside it for the next order.
"""

from __future__ import annotations

import functools

from .errors import CapacityError, GraphInputError
from .graphs import Graph, _bits, _components

ISO_CAP = 12
CORPUS_CAP = 8


def _refine(masks: tuple[int, ...], cells: list[int], stack: list[int]) -> list[int]:
    """The ordered cell bitmasks refined to an equitable partition.

    Each popped splitter splits every cell by neighbor count in the splitter,
    kept bit-sliced (``slices[j]``: vertices whose count has bit j set).  The
    parts replace the cell in increasing count order and are all pushed.
    """
    n = len(masks)
    while stack and len(cells) < n:
        splitter = stack.pop()
        if not splitter & (splitter - 1):
            slices = [masks[splitter.bit_length() - 1]]  # a singleton is never split
        elif splitter not in cells:
            continue  # already split: its parts were pushed later and ran first
        else:
            slices = []
            while splitter:
                low = splitter & -splitter
                splitter ^= low
                carry = masks[low.bit_length() - 1]
                for j, s in enumerate(slices):
                    slices[j], carry = s ^ carry, s & carry
                    if not carry:
                        break
                else:
                    slices.append(carry)
        refined = []
        for cell in cells:
            if cell & (cell - 1):
                for s in slices:
                    if cell & s and cell & ~s:
                        break
                else:
                    refined.append(cell)
                    continue
                parts = [cell]
                for s in reversed(slices):
                    parts = [q for p in parts for q in (p & ~s, p & s) if q]
                refined += parts
                stack += parts
            else:
                refined.append(cell)
        cells = refined
    return cells


def _canonical_code(masks: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """The largest leaf code, and generators of the automorphism group.

    Each generator is a tuple of vertex images: one swap per vertex skipped
    as a twin, and one automorphism per leaf that equals the best.  The
    search is described in ``canonical_form``.
    """
    n = len(masks)
    by_degree: dict[int, int] = {}
    for v, m in enumerate(masks):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = [by_degree[d] for d in sorted(by_degree)]
    cells = _refine(masks, cells, cells[:])
    if len(cells) == n:
        return _leaf_code(masks, [c.bit_length() - 1 for c in cells]), []
    autos: list[tuple[int, ...]] = []
    best, best_order, best_path = -1, [], []  # code, leaf order and path of the first best leaf
    swapped = 0  # vertices whose twin swap is recorded
    i = next(i for i, c in enumerate(cells) if c & (c - 1))
    # each node: its cells, the index of its first non-singleton cell, the
    # vertices of that cell not yet taken, those searched, and the last searched
    nodes = [[cells, i, cells[i], 0, -1]]
    while nodes:
        node = nodes[-1]
        cells, i, todo, tried, _ = node
        if not todo:
            nodes.pop()
            continue
        bit = todo & -todo
        v = bit.bit_length() - 1
        node[2] = todo ^ bit
        for w in _bits(tried):
            if masks[v] & ~(1 << w) == masks[w] & ~bit:
                break
        else:
            w = -1
        if w >= 0:  # twins: swapping them is an automorphism
            if not swapped & bit:
                swapped |= bit
                perm = list(range(n))
                perm[v], perm[w] = w, v
                autos.append(tuple(perm))
            continue
        node[3:] = tried | bit, v
        cells = _refine(masks, cells[:i] + [bit, cells[i] ^ bit] + cells[i + 1:], [bit])
        if len(cells) < n:
            i = next(i for i, c in enumerate(cells) if c & (c - 1))
            nodes.append([cells, i, cells[i], 0, -1])
            continue
        order = [c.bit_length() - 1 for c in cells]
        code = _leaf_code(masks, order)
        if code > best:
            best, best_order, best_path = code, order, [x[4] for x in nodes]
        elif code == best:
            perm = [0] * n
            for v, w in zip(best_order, order):
                perm[v] = w
            autos.append(tuple(perm))
            # the two leaves' branches below their last common node are images
            d = next(d for d, v in enumerate(best_path) if v != nodes[d][4])
            del nodes[d + 1:]
    return best, autos


def _leaf_code(masks: tuple[int, ...], order: list[int]) -> int:
    """Upper-triangle adjacency bits of the graph relabelled by `order`, one
    row at a time, so the growing code is copied once per row, not per bit."""
    code, rest = 0, order[:]
    for v in order:
        del rest[0]
        row, bits = masks[v], 0
        for u in rest:
            bits = bits << 1 | row >> u & 1
        code = code << len(rest) | bits
    return code


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, code), equal for two graphs iff they are isomorphic.

    The search refines the unit partition to an equitable one (its first
    split, by degree, is taken directly), then individualises each vertex of
    the first non-singleton cell and refines again, depth first.  It is a
    loop over an explicit stack of nodes, so no recursion limit bounds the
    order.  A discrete leaf's code is the upper-triangle adjacency bits in
    cell order; the form keeps the largest.  Every step depends only on the
    ordered partition, so the maximum does not depend on the labelling.

    Two prunes skip only subtrees that an automorphism maps onto a subtree
    already searched, whose leaf codes are therefore the same; neither
    changes the maximum.

    * A vertex v is skipped when it is a twin of an already tried vertex w
      of its cell (N(v) - w == N(w) - v): swapping them is an automorphism
      that fixes the current partition.  Without it K_n costs n! leaves.
    * A leaf whose code equals the best code gives an automorphism, from
      the first leaf with that code to this one.  The two paths agree down
      to some node and differ below it, and the automorphism maps the
      earlier branch there onto the later one, so the search drops every
      node below that one from the stack and goes on with its next vertex.

    The automorphisms found, with the twin swaps, generate the whole group.
    No node on the path of the first best leaf is dropped, and at each one
    every vertex in the orbit of the vertex chosen there is either searched
    (and a leaf equal to the best one then yields an automorphism that maps
    the one onto the other) or skipped as a twin.  That path individualises
    the members of each twin class least first, so each vertex but the
    least of its class is skipped at a node on it.  The search records a
    vertex's swap only the first time it is skipped: the swaps, each with a
    smaller twin, form a tree on each class, so they generate the class's
    symmetric group, and a twin chain stores n - 1 swaps, not about n^2 / 2.

    With no orbit prune, large symmetric graphs cost more leaves than
    they would with one.  A graph and a relabelling
    together took 0.24 s for the 6-cube, 0.17 s for Johnson(8, 3), 0.08 s
    for the 6x6 rook's graph and 15 ms for the complement of 4C5 (n = 20,
    twin-free, 240,000 automorphisms), on one CPU of a 2-core x86 VM with
    CPython 3.11.  The package's own inputs have at most 12 vertices.
    """
    return g.n, _canonical_code(g.neighbor_masks)[0]


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exact isomorphism test for graphs on at most 12 vertices."""
    if g1.n > ISO_CAP or g2.n > ISO_CAP:
        raise CapacityError(f"isomorphism test is capped at {ISO_CAP} vertices")
    return ((g1.n, g1.m, sorted(g1.degrees)) == (g2.n, g2.m, sorted(g2.degrees))
            and canonical_form(g1) == canonical_form(g2))


def connected_graphs(n: int) -> list[Graph]:
    """All connected graphs on n <= 8 vertices, one per isomorphism class,
    in a fixed order (the class counts grow too fast beyond desk scale)."""
    if n < 1:
        raise GraphInputError("vertex count must be positive")
    if n > CORPUS_CAP:
        raise CapacityError(f"exhaustive corpus generation is capped at {CORPUS_CAP} vertices")
    return list(_corpus_classes(n)[0])


@functools.cache
def _corpus_classes(n: int) -> tuple[list[Graph], list[list[tuple[int, ...]]]]:
    """The corpus on n vertices and generators of each graph's automorphism
    group, built on first use: every graph on n-1 vertices plus a new vertex
    on each orbit-least nonempty neighbor set, keeping the first graph of
    each canonical form."""
    if n == 1:
        return [Graph._from_masks((0,))], [[]]
    new_bit = 1 << (n - 1)
    seen: set[int] = set()
    graphs, generators = [], []
    for parent, gens in zip(*_corpus_classes(n - 1)):
        for sub in _orbit_minima(gens, n - 1):
            masks = tuple(p | new_bit if sub >> v & 1 else p
                          for v, p in enumerate(parent.neighbor_masks)) + (sub,)
            code, autos = _canonical_code(masks)
            if code not in seen:
                seen.add(code)
                graphs.append(Graph._from_masks(masks))
                generators.append(autos)
    return graphs, generators


def _orbit_minima(gens: list[tuple[int, ...]], k: int) -> list[int] | range:
    """The nonempty subsets of range(k), as bitmasks, that no element of the
    group generated by the permutations `gens` maps to a smaller one,
    ascending."""
    top = 1 << k
    if not gens:
        return range(1, top)
    images = [0] * top  # subset s -> its images under gens, as a mask over subsets
    for p in gens:
        image = [0] * top
        for s in range(1, top):
            low = s & -s
            image[s] = image[s ^ low] | 1 << p[low.bit_length() - 1]
        images = [mask | 1 << t for mask, t in zip(images, image)]
    # the group is finite, so the subsets reachable from s form its orbit
    return [(orbit & -orbit).bit_length() - 1
            for orbit in _components(images, (1 << top) - 2)]
