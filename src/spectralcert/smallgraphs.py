"""Small-graph utilities: canonical forms and the exhaustive connected corpus.

``canonical_form`` is the one isomorphism mechanism (refinement, then
individualisation, keeping the best leaf, with automorphism pruning; McKay
and Piperno, "Practical graph isomorphism II", J. Symbolic Comput. 60,
2014).  It backs ``are_isomorphic``, the Hamilton-path sporadic exceptions,
and the corpus of all connected graphs on up to 8 vertices.  Its search also
yields generators of the automorphism group, which the corpus uses.

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
from .graphs import Graph, _bits, _components, _reach

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

    Each generator is a tuple of vertex images.  The search is described in
    ``canonical_form``.
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
    autos: dict[tuple[int, ...], int] = {}  # generator -> its moved vertices, as a mask
    best: list = [-1, None, None]  # code, leaf order and path of the first best leaf
    path: list[int] = []

    def search(cells: list[int], fixed: int) -> int:
        """Explore below `cells`, whose individualised vertices are `fixed`;
        return the depth whose current branch is abandoned (the own depth,
        or less when a leaf repeats a known one)."""
        depth = len(path)
        if len(cells) == n:
            order = [c.bit_length() - 1 for c in cells]
            code = _leaf_code(masks, order)
            if code > best[0]:
                best[:] = code, order, path[:]
            elif code == best[0]:
                perm = [0] * n
                moved = 0
                for v, w in zip(best[1], order):
                    perm[v] = w
                    if v != w:
                        moved |= 1 << v
                autos[tuple(perm)] = moved
                # the two leaves' branches below their last common node are images
                for d, v in enumerate(best[2]):
                    if v != path[d]:
                        return d
            return depth
        for i, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        tried = covered = 0
        known = -1  # len(autos) when `covered` was last computed
        for v in _bits(cell):
            bit = 1 << v
            if tried:
                for w in _bits(tried):
                    if masks[v] & ~(1 << w) == masks[w] & ~bit:
                        break
                else:
                    w = -1
                if w >= 0:  # twins: swapping them is an automorphism
                    perm = list(range(n))
                    perm[v], perm[w] = w, v
                    autos[tuple(perm)] = bit | 1 << w
                    continue
                if autos and known != len(autos):
                    known = len(autos)
                    covered = _orbit_closure(
                        tried, [p for p, m in autos.items() if not fixed & m], n)
                if covered & bit:
                    continue
            path.append(v)
            jump = search(_refine(masks, cells[:i] + [bit, cell ^ bit] + cells[i + 1:], [bit]),
                          fixed | bit)
            path.pop()
            if jump < depth:
                return jump
            tried |= bit
            known = -1
        return depth

    search(cells, 0)
    return best[0], list(autos)


def _leaf_code(masks: tuple[int, ...], order: list[int]) -> int:
    """Upper-triangle adjacency bits of the graph relabelled by `order`."""
    code = 0
    for i, v in enumerate(order):
        row = masks[v]
        for u in order[i + 1:]:
            code = code << 1 | row >> u & 1
    return code


def _orbit_closure(mask: int, perms: list[tuple[int, ...]], n: int) -> int:
    """The union of the orbits of the vertices in mask under perms of range(n)."""
    images = [0] * n  # v -> its images under perms, as a mask
    for p in perms:
        for v, w in enumerate(p):
            images[v] |= 1 << w
    return _reach(images, mask, (1 << n) - 1)


def canonical_form(g: Graph) -> tuple[int, int]:
    """(n, code), equal for two graphs iff they are isomorphic.

    The search refines the unit partition to an equitable one (its first
    split, by degree, is taken directly), then individualises each vertex of
    the first non-singleton cell and refines again, recursively.  A discrete
    leaf's code is the upper-triangle adjacency bits in cell order; the form
    keeps the largest.  Every step depends only on the ordered partition, so
    the maximum does not depend on the labelling.

    Three prunes skip only subtrees that an automorphism maps onto a subtree
    already searched, whose leaf codes are therefore the same; none changes
    the maximum.

    * A vertex v is skipped when it is a twin of an already tried vertex w
      of its cell (N(v) - w == N(w) - v): swapping them is an automorphism
      that fixes the current partition.  Without it K_n costs n! leaves.
    * A leaf whose code equals the best code gives an automorphism, from
      the first leaf with that code to this one.  The two paths agree down
      to some node and differ below it, and the automorphism maps the
      earlier branch there onto the later one, so the search abandons the
      later branch and goes on with that node's next vertex.
    * A vertex is skipped when an automorphism found so far that fixes
      every individualised vertex of the node maps a tried vertex onto it.

    The automorphisms found, with the twin swaps, generate the whole group:
    at each node on the path of the first best leaf, every vertex in the
    orbit of the vertex chosen there is either searched (and a leaf equal
    to the best one then yields an automorphism that maps the one onto the
    other) or skipped by a recorded automorphism.  The complement of 4C5
    (n = 20, twin-free, 240,000 automorphisms) takes milliseconds; the twin
    prune alone would visit a leaf per automorphism.
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
