"""Extremal graph families, their closed-form spectral values, and recognizers.

Two families drive everything:

* the degree-bounded-spanning-tree family: one dominating vertex over the
  disjoint union of a clique on n-k-1 vertices and k isolated vertices
  (``ktree_extremal``), plus its generalization with a cut clique of size s
  over t cliques (``win_family``);
* the perfect-matching family: the bipartite join of two complete bipartite
  blocks, K_{s+1,s} onto K_{n-s-1,n-s} (``matching_extremal``).

For the matching family the largest eigenvalues of the adjacency and
signless Laplacian matrices have closed forms, evaluated here exactly as
printed (no algebraic simplification), along with the 4x4 quotient matrix of
the block partition and its quartic characteristic polynomial.  For the
k-tree family the (centre, clique, pendants) partition is equitable, so the
largest eigenvalue of its 3x3 quotient of a*D + A is the radius of the
n-vertex graph: the threshold is a function of (n, k, a) alone.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import DomainError, GraphInputError
from .graphs import (
    BipartiteGraph,
    Graph,
    _components,
    bipartite_join,
    complete_bipartite,
    complete_graph,
    disjoint_union,
    join,
)

if TYPE_CHECKING:
    import numpy as np


# ---------------------------------------------------------------------------
# constructors


def _check_ktree_params(n: int, k: int) -> None:
    if k < 2:
        raise GraphInputError(f"degree bound must be at least 2, got {k}")
    if n < k + 2:
        raise GraphInputError(f"order must be at least k+2={k + 2}, got {n}")


def _check_weight(a: float) -> None:
    if not 0 <= a < math.inf:
        raise GraphInputError(f"diagonal weight must be nonnegative and finite, got {a}")


def ktree_extremal(n: int, k: int) -> Graph:
    """One dominating vertex over K_{n-k-1} together with k isolated vertices.

    Vertex 0 is the dominating vertex; the clique occupies 1..n-k-1 and the
    k pendant vertices come last.
    """
    _check_ktree_params(n, k)
    return win_family(1, (n - k - 1,) + (1,) * k)


def win_family(s: int, parts: tuple[int, ...] | list[int]) -> Graph:
    """A cut clique of size s joined onto disjoint cliques of the given sizes.

    Removing the s join vertices leaves exactly len(parts) components of the
    given sizes.  Parts must be nonincreasing positive integers.
    """
    parts = tuple(int(p) for p in parts)
    if s < 1:
        raise GraphInputError(f"cut size must be at least 1, got {s}")
    if not parts:
        raise GraphInputError("at least one clique part is required")
    if any(p < 1 for p in parts):
        raise GraphInputError("clique sizes must be positive")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise GraphInputError("clique sizes must be nonincreasing")
    return join(complete_graph(s),
                disjoint_union([complete_graph(p) for p in parts]))


def matching_extremal(n: int, s: int) -> BipartiteGraph:
    """The bipartite join of K_{s+1,s} onto K_{n-s-1,n-s}: order 2n, balanced.

    The s+1 vertices of the first X block have degree s; when s <= n-s-1 the
    minimum degree is exactly s, and that block violates the neighborhood
    condition (s+1 vertices with only s common neighbors), so the graph has
    no perfect matching.
    """
    if not 0 <= s <= n - 1:
        raise GraphInputError(f"need 0 <= s <= n-1, got s={s}, n={n}")
    return bipartite_join(complete_bipartite(s + 1, s),
                          complete_bipartite(n - s - 1, n - s))


def matching_partition(n: int, s: int) -> list[list[int]]:
    """The four construction blocks of matching_extremal(n, s) as vertex
    classes of its 2n-vertex graph form (X first, then Y)."""
    if not 0 <= s <= n - 1:
        raise GraphInputError(f"need 0 <= s <= n-1, got s={s}, n={n}")
    return [
        list(range(0, s + 1)),          # X1
        list(range(s + 1, n)),          # X2
        list(range(n, n + s)),          # Y1
        list(range(n + s, 2 * n)),      # Y2
    ]


# ---------------------------------------------------------------------------
# closed-form spectral values of the matching family


def _check_matching_params(n: int, delta: int) -> None:
    if delta < 1 or n < delta + 1:
        raise GraphInputError(f"need n >= delta+1 >= 2, got n={n}, delta={delta}")


def _root(radicand: float, what: str, n: int, delta: int) -> float:
    if radicand < 0:
        raise DomainError(f"{what} negative for n={n}, delta={delta}")
    return math.sqrt(radicand)


def rho_matching_extremal(n: int, delta: int) -> float:
    """Adjacency spectral radius of matching_extremal(n, delta), closed form."""
    _check_matching_params(n, delta)
    d = float(delta)
    nf = float(n)
    inner = (nf**4 - 2 * (d + 1) * nf**3 + (1 - d**2) * nf**2
             + 2 * d * (3 * d**2 + 4 * d + 1) * nf - 3 * d**2 * (d + 1) ** 2)
    f = _root(inner, "inner radicand", n, delta)
    outer = 2 * nf**2 - 2 * (d + 1) * nf + 2 * d * (d + 1) + 2 * f
    return _root(outer, "outer radicand", n, delta) / 2


def q_matching_extremal(n: int, delta: int) -> float:
    """Signless Laplacian spectral radius of matching_extremal(n, delta)."""
    _check_matching_params(n, delta)
    d = float(delta)
    nf = float(n)
    radicand = 4 * nf**2 - (8 * d + 4) * nf + 8 * d**2 + 8 * d + 1
    return (2 * nf - 1 + _root(radicand, "radicand", n, delta)) / 2


def sqrt_threshold(n: int, delta: int) -> float:
    """sqrt(n(n-delta-1)): the simplified adjacency threshold for matchings."""
    return _root(n * (n - delta - 1), "n(n-delta-1)", n, delta)


# ---------------------------------------------------------------------------
# quotient matrix of the matching family and its characteristic polynomial


def matching_quotient_matrix(n: int, s: int, a: float) -> np.ndarray:
    """4x4 quotient of a*D + A of matching_extremal(n, s) under its blocks.

    Row/column order is (X1, X2, Y1, Y2).
    """
    import numpy as np

    if not 1 <= s < n:
        raise GraphInputError(f"need 1 <= s < n, got s={s}, n={n}")
    _check_weight(a)
    s_, n_ = float(s), float(n)
    return np.array([
        [a * s_, 0.0, s_, 0.0],
        [0.0, a * n_, s_, n_ - s_],
        [s_ + 1, n_ - s_ - 1, a * n_, 0.0],
        [0.0, n_ - s_ - 1, 0.0, a * (n_ - s_ - 1)],
    ])


def matching_quotient_charpoly(n: int, s: int, a: float, x: float) -> float:
    """Characteristic polynomial of the 4x4 quotient, evaluated at x.

    Coefficients are evaluated exactly as printed (Horner on the quartic),
    so coefficient-level identities can be checked against it.
    """
    s_, n_, a_ = float(s), float(n), float(a)
    c3 = -a_ * (3 * n_ - 1)
    c2 = -((a_**2 + 1) * s_**2 - (a_**2 + 1) * (n_ - 1) * s_
           + (1 - 3 * a_**2) * n_**2 - (1 - 2 * a_**2) * n_)
    c1 = a_ * n_ * (2 * a_**2 * s_**2 - 2 * a_**2 * (n_ - 1) * s_
                    + (1 - a_**2) * (n_**2 - n_))
    c0 = s_ * (n_ - s_ - 1) * (a_**2 - 1) * (a_**2 * n_**2 - n_ * s_ + s_**2 - n_ + s_)
    return (((x + c3) * x + c2) * x + c1) * x + c0


def matching_quotient_charpoly_diff(n: int, s: int, a: float, x: float) -> float:
    """The printed factored form of charpoly(n, s, a, x) - charpoly(n, s-1, a, x)."""
    s_, n_, a_ = float(s), float(n), float(a)
    return (n_ - 2 * s_) * ((a_**2 + 1) * x**2 - 2 * a_**3 * n_ * x
                            - (1 - a_**2) * (2 * s_**2 - 2 * n_ * s_ + a_**2 * n_**2))


def ktree_quotient_matrix(n: int, k: int, a: float) -> np.ndarray:
    """3x3 quotient of a*D + A of ktree_extremal(n, k) under its equitable
    partition; row/column order is (centre, clique, pendants)."""
    import numpy as np

    _check_ktree_params(n, k)
    _check_weight(a)
    c = float(n - k - 1)
    return np.array([[a * (n - 1), c, float(k)],
                     [1.0, a * c + c - 1, 0.0],
                     [1.0, 0.0, a]])


# ---------------------------------------------------------------------------
# quadratic bound forms for the cut-clique family


def win_family_twice_edges(n: int, k: int, s: int) -> int:
    """2m of win_family(s, (n-(k-1)s-2, 1, ..., 1)) with (k-2)s+2 unit parts,
    in the factored form used by the threshold analysis."""
    return (n - (k - 2) * s - 2) * (n - (k - 2) * s - 3) + 2 * ((k - 2) * s + 2) * s


def win_family_bound_polynomials(n: int, k: int, s: float) -> tuple[float, float]:
    """The two quadratics in s bounding the family's spectral radii.

    Returns (f, g) where sqrt(f) bounds the adjacency radius (edge-count
    bound radicand 2m - n + 1) and g/(n-1) bounds the signless Laplacian
    radius (edge-count bound numerator 2m + (n-1)(n-2)).
    """
    lead = (k**2 - 2 * k) * s**2
    linear = (2 * k * n - 5 * k - 4 * n + 6) * s
    f = lead - linear + n**2 - 6 * n + 7
    g = lead - linear + 2 * (n - 2) ** 2
    return f, g


# ---------------------------------------------------------------------------
# recognizers


def is_ktree_extremal(g: Graph, n: int, k: int) -> bool:
    """True iff g is isomorphic to ktree_extremal(n, k).

    Exact for every order: g is such a graph iff some vertex has degree n-1
    and deleting it leaves one complete component on n-k-1 vertices and k
    isolated vertices.  With the edge count fixed, those component sizes
    already force the big component to be complete.
    """
    if k < 2 or n < k + 2 or g.n != n:
        return False
    clique_size = n - k - 1
    if g.m != clique_size * (clique_size - 1) // 2 + (n - 1):
        return False
    masks = g.neighbor_masks
    full = (1 << n) - 1
    want = sorted([1] * k + [clique_size])
    for center in range(n):
        if masks[center].bit_count() != n - 1:
            continue
        comps = _components(masks, full & ~(1 << center))
        if sorted(c.bit_count() for c in comps) == want:
            return True
    return False


def is_matching_extremal(b: BipartiteGraph, n: int, delta: int) -> bool:
    """True iff b is isomorphic (parts may swap) to matching_extremal(n, delta).

    Exact for every order: in one of the two orientations, delta+1 rows
    share the same delta neighbors and the other n-delta-1 rows are complete.
    Every isomorphism keeps or swaps the parts: the graph is connected, or
    for delta in {0, n-1} one isolated vertex fills the smaller side.
    """
    if delta < 0 or delta > n - 1:
        return False
    if b.nx != n or b.ny != n:
        return False
    return (_matching_extremal_structure(b.x_masks, n, delta)
            or _matching_extremal_structure(b.transpose().x_masks, n, delta))


def _matching_extremal_structure(rows: tuple[int, ...], n: int, s: int) -> bool:
    # s+1 identical rows of degree s (X1 over Y1) and n-s-1 complete rows
    # (X2) fix every entry, so the columns outside Y1 see exactly X2
    degs = [r.bit_count() for r in rows]
    x1 = {r for r, d in zip(rows, degs) if d == s}
    return degs.count(s) == s + 1 and len(x1) == 1 and degs.count(n) == n - s - 1
