"""Graph and bipartite-graph primitives.

Vertices are 0-indexed integers.  ``Graph`` stores one neighborhood bitmask
per vertex; ``BipartiteGraph`` stores one bitmask over Y per X vertex, and
|Y|.  Orders, degrees, edges and equality derive from the masks; the boolean
matrices ``adj`` and ``biadj`` are built, read-only, on each access.  Both
are immutable, so instances can be shared freely across workers.  All
operations here are pure functions returning new objects.  numpy is loaded
only by the array constructors ``Graph(n, adj)`` and
``BipartiteGraph(nx, ny, biadj)``, by the ``adj``/``biadj`` views and by the
list form of ``from_graph6``, so the mask-only paths (graph6 one line at a
time, the certifiers) run without it.

The only interchange format is graph6 (McKay, "graph6 and sparse6 formats"):
a header byte n+63 for n <= 62, or '~' and an 18-bit length beyond, then the
upper triangle in column order, six bits a byte, most significant first,
plus 63.  Those payload bytes are base64 with its alphabet moved to
63..126, so both directions run through one ``bytes.translate`` and the
built-in ``binascii``.  The decoder lays the triangle out as a W-by-W bit
matrix in one int and ORs it with its transpose, made by log2(W) delta
swaps (Warren, Hacker's Delight, 2nd ed., 7-3); the encoder cuts the
columns from the masks' binary string.  No loop runs per bit or per payload
byte.  A list of lines is decoded as arrays, a block of same-order graphs
at a time (see ``_g6_list``).
"""

from __future__ import annotations

import binascii
import functools
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

from .errors import Graph6ParseError, GraphInputError

if TYPE_CHECKING:
    import numpy as np


def _row_masks(rows: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as an integer bitmask (bit j set iff row[j]).

    Rows of at most 64 bits are read as one little-endian uint64 each, in one
    ``tolist`` call."""
    import numpy as np

    packed = np.packbits(rows, axis=1, bitorder="little")
    if rows.shape[1] <= 64:
        words = np.zeros((len(packed), 8), dtype=np.uint8)
        words[:, :packed.shape[1]] = packed
        return tuple(words.view("<u8").ravel().tolist())
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _mask_rows(masks: Sequence[int], width: int) -> np.ndarray:
    """The inverse of ``_row_masks``: a read-only boolean matrix of `width`
    columns whose row i holds the bits of masks[i]."""
    import numpy as np

    if width <= 64:
        packed = np.array(masks, dtype="<u8").view(np.uint8).reshape(len(masks), 8)
    else:
        nbytes = (width + 7) // 8
        packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks),
                               dtype=np.uint8).reshape(len(masks), nbytes)
    rows = np.unpackbits(packed, axis=1, count=width, bitorder="little").view(bool)
    rows.flags.writeable = False
    return rows


def _bool_matrix(entries, what: str) -> np.ndarray:
    """`entries` as a boolean array, refusing ragged input and any entry
    other than 0 and 1; a boolean array is taken as it is."""
    import numpy as np

    try:
        array = np.asarray(entries)
    except ValueError:
        raise GraphInputError(f"{what} must be a rectangular array") from None
    if array.dtype != bool and not np.isin(array, (0, 1)).all():
        raise GraphInputError(f"{what} entries must be 0 or 1")
    return array.astype(bool, copy=False)


def _transpose(masks: Sequence[int], width: int) -> tuple[int, ...]:
    """Column j of the bit matrix with rows `masks`, as a mask over the rows."""
    cols = [0] * width
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low
    return tuple(cols)


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1, stored as
    ``neighbor_masks``; ``Graph(n, adj)`` validates and packs a matrix."""

    __slots__ = ("_masks",)

    def __init__(self, n: int, adj: np.ndarray):
        import numpy as np

        if n < 1:
            raise GraphInputError(f"vertex count must be positive, got {n}")
        adj = _bool_matrix(adj, "adjacency")
        if adj.shape != (n, n):
            raise GraphInputError(f"adjacency shape {adj.shape} does not match n={n}")
        if adj.diagonal().any():
            raise GraphInputError("self-loops are not allowed")
        if not np.array_equal(adj, adj.T):
            raise GraphInputError("adjacency relation must be symmetric")
        self._masks = _row_masks(adj)

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...]) -> "Graph":
        """Wrap neighbor masks that are already symmetric and loop-free."""
        if not masks:
            raise GraphInputError("vertex count must be positive")
        g = object.__new__(cls)
        g._masks = masks
        return g

    @property
    def n(self) -> int:
        return len(self._masks)

    @property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighborhoods as integer bitmasks (bit u set iff u ~ v)."""
        return self._masks

    @property
    def adj(self) -> np.ndarray:
        """The adjacency matrix, built on each access and read-only."""
        return _mask_rows(self._masks, len(self._masks))

    @property
    def m(self) -> int:
        return sum(map(int.bit_count, self._masks)) // 2

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(map(int.bit_count, self._masks))

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(_bits(self._masks[v]))

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._masks[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self._masks[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u, mask in enumerate(self._masks)
                for v in _bits(mask >> u + 1 << u + 1)]

    def delete_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise GraphInputError(f"edge ({u}, {v}) not present")
        masks = list(self._masks)
        masks[u] ^= 1 << v
        masks[v] ^= 1 << u
        return Graph._from_masks(tuple(masks))

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._masks):
            raise GraphInputError(f"vertex {v} out of range 0..{len(self._masks) - 1}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._masks == other._masks

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class BipartiteGraph:
    """Immutable bipartite graph with explicit parts X (rows) and Y (columns).

    Stored as ``x_masks`` (each X vertex's neighbors, over the Y indices) and
    ``ny``; ``BipartiteGraph(nx, ny, biadj)`` packs a matrix.
    """

    __slots__ = ("_ny", "_x_masks")

    def __init__(self, nx: int, ny: int, biadj: np.ndarray):
        if nx < 0 or ny < 0:
            raise GraphInputError("part sizes must be nonnegative")
        biadj = _bool_matrix(biadj, "biadjacency")
        if biadj.shape != (nx, ny):
            raise GraphInputError(
                f"biadjacency shape {biadj.shape} does not match nx={nx}, ny={ny}")
        self._ny = ny
        self._x_masks = _row_masks(biadj)

    @classmethod
    def _from_masks(cls, ny: int, x_masks: tuple[int, ...]) -> "BipartiteGraph":
        """Wrap X-row masks whose bits all lie below ny."""
        b = object.__new__(cls)
        b._ny, b._x_masks = ny, x_masks
        return b

    @property
    def nx(self) -> int:
        return len(self._x_masks)

    @property
    def ny(self) -> int:
        return self._ny

    @property
    def x_masks(self) -> tuple[int, ...]:
        """Neighborhoods of X vertices as bitmasks over Y indices."""
        return self._x_masks

    @property
    def biadj(self) -> np.ndarray:
        """The nx-by-ny biadjacency matrix, built on each access and read-only."""
        return _mask_rows(self._x_masks, self._ny)

    @property
    def m(self) -> int:
        return sum(mask.bit_count() for mask in self._x_masks)

    @property
    def x_degrees(self) -> tuple[int, ...]:
        return tuple(mask.bit_count() for mask in self._x_masks)

    @property
    def y_degrees(self) -> tuple[int, ...]:
        return tuple(col.bit_count() for col in _transpose(self._x_masks, self._ny))

    def is_balanced(self) -> bool:
        return self.nx == self._ny

    def neighborhood(self, xs: Iterable[int]) -> frozenset[int]:
        """N(S) for S a subset of X, as a set of Y indices."""
        seen = 0
        for x in xs:
            if not 0 <= x < self.nx:
                raise GraphInputError(f"X vertex {x} out of range")
            seen |= self._x_masks[x]
        return frozenset(_bits(seen))

    def delete_edge(self, x: int, y: int) -> "BipartiteGraph":
        if not (0 <= x < self.nx and 0 <= y < self._ny) or not self._x_masks[x] >> y & 1:
            raise GraphInputError(f"bipartite edge ({x}, {y}) not present")
        masks = list(self._x_masks)
        masks[x] ^= 1 << y
        return BipartiteGraph._from_masks(self._ny, tuple(masks))

    def transpose(self) -> "BipartiteGraph":
        """Swap the two parts."""
        return BipartiteGraph._from_masks(self.nx, _transpose(self._x_masks, self._ny))

    def to_graph(self) -> Graph:
        """The same graph on n = nx + ny vertices: X first, then Y."""
        nx = self.nx
        # a tuple is built faster from a short list than from a generator
        return Graph._from_masks(tuple([mask << nx for mask in self._x_masks])
                                 + _transpose(self._x_masks, self._ny))

    def __eq__(self, other) -> bool:
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return self._ny == other._ny and self._x_masks == other._x_masks

    def __repr__(self) -> str:
        return f"BipartiteGraph(nx={self.nx}, ny={self._ny}, m={self.m})"


# ---------------------------------------------------------------------------
# constructors


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Graph with exactly the given edges (duplicates collapsed)."""
    masks = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphInputError(f"self-loop ({u}, {v}) is not allowed")
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return Graph._from_masks(tuple(masks))


def complete_graph(n: int) -> Graph:
    return Graph._from_masks(tuple(((1 << n) - 1) ^ 1 << v for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph._from_masks((0,) * n)


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
    if nx < 0 or ny < 0:
        raise GraphInputError("part sizes must be nonnegative")
    return BipartiteGraph._from_masks(ny, ((1 << ny) - 1,) * nx)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union of g1 and g2 plus every edge between them.

    g1's vertices come first, so constructions are deterministic.
    """
    n1, n2 = g1.n, g2.n
    to_g2 = ((1 << n2) - 1) << n1
    return Graph._from_masks(tuple(mask | to_g2 for mask in g1.neighbor_masks)
                             + tuple(mask << n1 | (1 << n1) - 1
                                     for mask in g2.neighbor_masks))


def disjoint_union(parts: Sequence[Graph]) -> Graph:
    """Vertex-disjoint union, block-diagonal in the given order."""
    if not parts:
        raise GraphInputError("disjoint_union needs at least one part")
    masks: list[int] = []
    for g in parts:
        offset = len(masks)
        masks.extend(mask << offset for mask in g.neighbor_masks)
    return Graph._from_masks(tuple(masks))


def bipartite_join(b1: BipartiteGraph, b2: BipartiteGraph) -> BipartiteGraph:
    """Union of two bipartite graphs plus all edges between X2 and Y1.

    Parts concatenate as X = X1 + X2 and Y = Y1 + Y2.  If X2 or Y1 is empty
    no cross edges exist and the result is the plain union.
    """
    y1 = b1.ny
    return BipartiteGraph._from_masks(
        y1 + b2.ny,
        b1.x_masks + tuple(mask << y1 | (1 << y1) - 1 for mask in b2.x_masks))  # X2 x Y1


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
        g._check_vertex(v)
        mask |= 1 << v
    alive = ((1 << g.n) - 1) & ~mask
    return len(_components(g.neighbor_masks, alive))


def min_degree(g: Graph | BipartiteGraph) -> int:
    if isinstance(g, BipartiteGraph):
        return min(g.x_degrees + g.y_degrees, default=0)
    return min(map(int.bit_count, g.neighbor_masks))


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
    masks = list(g.neighbor_masks)
    for t in tset:
        g._check_vertex(t)
        if t == u:
            raise GraphInputError("target set may not contain u")
        if not masks[v] >> t & 1:
            raise GraphInputError(f"target {t} is not a neighbor of {v}")
        if masks[u] >> t & 1:
            raise GraphInputError(f"target {t} is already a neighbor of {u}")
    for t in tset:
        masks[v] ^= 1 << t
        masks[u] ^= 1 << t
        masks[t] ^= 1 << v | 1 << u
    return Graph._from_masks(tuple(masks))


# ---------------------------------------------------------------------------
# graph6 codec

_G6_MAX_SHORT = 62
_G6_MAX_SHORT_LINE = 1 + (_G6_MAX_SHORT * (_G6_MAX_SHORT - 1) // 2 + 5) // 6  # 317 bytes
_G6_MAX_LONG = 258047  # 18-bit length form
# graph6 byte c carries the six bits of base64 digit c - 63; every byte
# outside 63..126 becomes "!", which is no base64 digit
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_TO_B64 = bytes(_B64[c - 63] if 63 <= c <= 126 else 33 for c in range(256))
_B64_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))


def _g6_header(n: int) -> bytes:
    if n <= _G6_MAX_SHORT:
        return bytes([n + 63])
    if n <= _G6_MAX_LONG:
        return bytes([126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise GraphInputError(f"graph6 encoding supports at most {_G6_MAX_LONG} vertices")


def _g6_digits(data: bytes, start: int, what: str) -> bytes:
    """data[start:] as base64 digits; the first byte outside 63..126, which
    translates to "!", is reported with its offset."""
    digits = data[start:].translate(_G6_TO_B64)
    bad = digits.find(b"!")
    if bad >= 0:
        raise Graph6ParseError(f"{what} byte {data[start + bad]} outside graph6 range",
                               start + bad)
    return digits


class _G6Layout(NamedTuple):
    """Where the payload bits of an n-vertex graph sit in a W-by-W bit matrix
    held in one int (bit W*r + c is entry (r, c)).  W is the least power of
    two >= max(n, 8), so every row is whole bytes.  Each cutter is an
    ``itemgetter`` of slices that cuts all its pieces in one call, plus one
    empty slice so that it returns a tuple even when n = 1."""

    w: int
    # from the decoder's "0b1"-prefixed bit string (payload bits, then W
    # zeros): rows n-1 down to 0 of the lower triangle, highest bit first,
    # row j being column j of the upper triangle reversed after W - j zeros
    triangle: Callable[[str], tuple[str, ...]]
    # from the matrix's little-endian bytes: rows 0..n-1, then b""
    rows: Callable[[bytes], tuple[bytes, ...]]
    # from the encoder's binary string of the n rows, 8 * ceil(n / 8) bits
    # each: the payload bits, column j of the upper triangle being the low j
    # bits of row j
    columns: Callable[[str], tuple[str, ...]]


@functools.lru_cache(maxsize=8)
def _g6_layout(n: int) -> _G6Layout:
    w = 8
    while w < n:
        w *= 2
    nbytes = (n * (n - 1) // 2 + 5) // 6
    zeros = 3 + 24 * ((nbytes + 3) // 4)  # past the bits a2b_base64 returns
    triangle: list[slice] = []
    for j in range(n - 1, -1, -1):
        t = 3 + j * (j - 1) // 2
        triangle += [slice(zeros, zeros + w - j), slice(t + j - 1, t - 1, -1)]
    wb, stride = w // 8, 8 * ((n + 7) // 8)
    top = n * stride - 1
    return _G6Layout(
        w, itemgetter(*triangle, slice(0)),
        itemgetter(*(slice(k, k + wb) for k in range(0, n * wb, wb)), slice(0)),
        itemgetter(*(slice(top - j * stride, top - j * stride - j, -1) for j in range(1, n)),
                   slice(0)))


@functools.lru_cache(maxsize=2)
def _transpose_swaps(w: int) -> tuple[tuple[int, int], ...]:
    """The delta swaps that transpose a W-by-W bit matrix held in one int
    (bit r*W + c is entry (r, c)); Warren, Hacker's Delight, 2nd ed., 7-3.

    At block size s the entries with r & s == 0 and c & s != 0 trade places
    with those s*(W - 1) bits above them; each mask is built by doubling.
    """
    swaps = []
    s = w >> 1
    while s:
        mask, span = ((1 << s) - 1) << s, 2 * s  # the columns with c & s
        while span < w:
            mask, span = mask | mask << span, 2 * span
        span = 1
        while span < s:  # the first s rows
            mask, span = mask | mask << span * w, 2 * span
        span = 2 * s * w
        while span < w * w:  # every other run of s rows
            mask, span = mask | mask << span, 2 * span
        swaps.append((s * (w - 1), mask))
        s >>= 1
    return tuple(swaps)


def to_graph6(g: Graph) -> bytes:
    """Canonical graph6 encoding (zero padding bits).

    Column j of the upper triangle is the low j bits of neighbor_masks[j],
    lowest first.  The masks are packed whole bytes a row into one integer
    and the columns cut from its binary string (``_G6Layout``); the payload
    bits, read as one big-endian integer, are written by ``b2a_base64``,
    whose digits one ``bytes.translate`` moves to graph6's bytes 63..126.
    """
    masks = g.neighbor_masks
    n = len(masks)
    header = _g6_header(n)
    columns = _g6_layout(n).columns
    wb = (n + 7) // 8
    packed = int.from_bytes(b"".join([mask.to_bytes(wb, "little") for mask in masks]), "little")
    stream = "".join(columns(format(packed, f"0{8 * wb * n}b")))
    pad = -len(stream) % 24  # whole base64 quanta, so no "=" is written
    raw = (int(stream or "0", 2) << pad).to_bytes((len(stream) + pad) // 8, "big")
    digits = binascii.b2a_base64(raw, newline=False)[:(len(stream) + 5) // 6]
    return header + digits.translate(_B64_TO_G6)


def from_graph6(text: bytes | str | list[bytes | str]) -> Graph | list[Graph]:
    """Decode one graph6 line (optionally prefixed with '>>graph6<<'), or a
    list of them into the list of their graphs.

    One line takes the scalar path, which loads no numpy.  Its payload is
    base64 with its digits moved to bytes 63..126, so one
    ``bytes.translate`` and ``a2b_base64`` give its bits.  Those are laid
    out as a lower-triangular W-by-W bit matrix in one integer, row j
    holding vertex j's neighbours below it; ORed with its transpose (delta
    swaps, see ``_transpose_swaps``) its rows are the neighbour masks.
    ``a2b_base64`` skips bytes it does not know, so out-of-range bytes are
    translated to "!" and the first one found by one ``find``, in the header
    as in the payload.

    A list takes the array path (``_g6_list``) for its ASCII str lines with a
    one-byte header, and the scalar path for every other line and every
    line the array tests reject.  It raises the error of the lowest-index
    defective line: the Graph6ParseError decoding that line alone raises,
    with its list index set as ``index``.
    """
    if isinstance(text, list):
        return _g6_list(text)
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
    start, pos = 0, 1
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6ParseError("8-byte length form is not supported", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated extended header", len(data))
        start, pos = 1, 4
    _g6_digits(data[:pos], start, "header")
    n = 0
    for c in data[start:pos]:  # six bits a byte, most significant first
        n = n << 6 | c - 63
    if n < 1:
        raise Graph6ParseError("graphs must have at least one vertex", 0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = data[pos:]
    if len(body) != nbytes:
        raise Graph6ParseError(
            f"expected {nbytes} payload bytes for n={n}, got {len(body)}", pos + min(len(body), nbytes))
    digits = _g6_digits(data, pos, "payload")
    if nbytes and body[-1] - 63 & (1 << 6 * nbytes - nbits) - 1:
        raise Graph6ParseError("nonzero padding bits", len(data) - 1)
    w, triangle, rows, _ = _g6_layout(n)
    raw = binascii.a2b_base64(digits + b"A" * (-nbytes % 4))
    # "0b1", the payload bits, then W zeros: the 1 keeps the leading zeros
    bits = bin(int.from_bytes(b"\1" + raw + bytes(w // 8), "big"))
    lower = int("".join(triangle(bits)), 2)
    matrix = lower
    for shift, mask in _transpose_swaps(w):
        t = (matrix >> shift ^ matrix) & mask
        matrix ^= t ^ t << shift
    packed = (lower | matrix).to_bytes(w * w // 8, "little")
    return Graph._from_masks(tuple(map(int.from_bytes, rows(packed), repeat("little")))[:n])


# Matrix entries per block in the list form of from_graph6, to bound one
# call's memory.
DECODE_ENTRIES = 1 << 20


def _g6_list(lines: list[bytes | str]) -> list[Graph]:
    """The list form of ``from_graph6``.

    The ASCII str lines are joined into one byte array and grouped by
    length, and a group is taken in blocks of at most DECODE_ENTRIES matrix
    entries.  A block's lines are checked by array tests: every byte in
    63..126, a one-byte header whose order has that many payload bytes, and
    zero padding bits.  Those that pass are decoded order by order: their
    payload bits are scattered into the lower triangles of a boolean
    (B, n, n) stack, which is ORed with its transpose and packed into
    neighbour masks by ``_row_masks``.  Every other line, in list order,
    takes the scalar path, so the first of them to fail is the lowest-index
    defect.
    """
    import numpy as np

    out: list[Graph | None] = [None] * len(lines)
    # "" sends bytes and non-ASCII lines to the scalar path
    texts = [line if type(line) is str and line.isascii() else "" for line in lines]
    sizes = list(map(len, texts))
    lengths = np.array(sizes, dtype=np.intp)
    data = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    for size in set(sizes):
        if not 1 <= size <= _G6_MAX_SHORT_LINE:
            continue
        group = np.flatnonzero(lengths == size)
        # n * n <= 13 * size at every order whose line has this size
        step = max(1, DECODE_ENTRIES // (13 * size))
        for start in range(0, len(group), step):
            block = group[start:start + step]
            # graph6 bytes as digits; a byte outside 63..126 wraps to 64 or more
            digits = data[starts[block, None] + np.arange(size)] - np.uint8(63)
            head = digits[:, 0].astype(np.intp)
            # the padding bits, 0..5 when the payload length fits the order
            spare = 6 * (size - 1) - head * (head - 1) // 2
            ok = ((digits < 64).all(axis=1) & (head >= 1) & (head <= _G6_MAX_SHORT)
                  & (spare >= 0) & (spare < 6)
                  & ((digits[:, -1] & (1 << spare.clip(0, 5)) - 1) == 0))
            for n in np.flatnonzero(np.bincount(head[ok])).tolist():
                of_n = ok & (head == n)
                masks = _g6_block(digits[of_n, 1:], n)
                for i, g in zip(block[of_n].tolist(),
                                map(Graph._from_masks, zip(*[iter(masks)] * n))):
                    out[i] = g
    for i, g in enumerate(out):
        if g is None:
            try:
                out[i] = from_graph6(lines[i])
            except Graph6ParseError as exc:
                exc.index = i
                raise
    return out


def _g6_block(payload: np.ndarray, n: int) -> tuple[int, ...]:
    """The neighbour masks, graph after graph, of the B valid payloads of
    n-vertex graphs given as a (B, nbytes) array of 6-bit digits."""
    import numpy as np

    b = len(payload)
    bits = np.unpackbits(payload[:, :, None], axis=2)[:, :, 2:].reshape(b, -1)
    # entry (j, i), i < j, in the payload's order: x(0,1), x(0,2), x(1,2), ...
    rows, cols = np.tril_indices(n, -1)
    stack = np.zeros((b, n, n), dtype=bool)
    stack[:, rows, cols] = bits[:, :len(rows)]
    stack |= stack.transpose(0, 2, 1)
    return _row_masks(stack.reshape(b * n, n))
