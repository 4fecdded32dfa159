"""Matrix construction and certified largest-eigenvalue computation.

The matrix family here is a*D(G) + A(G) for a weight a >= 0: a = 0 gives the
adjacency matrix, a = 1 the signless Laplacian.  Each connected block of the
support pattern is solved on its own: LAPACK `eigvalsh` gives its largest
eigenvalue r, and inverse iteration (a linear solve shifted just above r)
its Perron vector x, certified when the max-norm residual ||M x - r x|| is
at most tol * max(1, r).  The maximum over the blocks is returned, with the
winning Perron vector zero-padded.

Also provides the classical edge-count bounds on the two spectral radii,
quotient matrices of vertex partitions, and the largest real eigenvalue of
small (possibly nonsymmetric) quotient matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .errors import ConvergenceError, DomainError, GraphInputError
from .graphs import Graph, _bits, _components, _row_masks

DEFAULT_TOL = 1e-10

# Inverse-iteration solves allowed per block before the certificate fails.
MAX_SOLVES = 3


@dataclass(frozen=True)
class SpectralResult:
    """Certified largest eigenvalue of a nonnegative symmetric matrix."""

    radius: float
    vector: np.ndarray
    residual: float
    iterations: int  # linear solves, summed over the blocks


def adjacency(g: Graph) -> np.ndarray:
    return g.adj.astype(float)


def degree_matrix(g: Graph) -> np.ndarray:
    return np.diag(np.asarray(g.degrees, dtype=float))


def signless_laplacian(g: Graph) -> np.ndarray:
    return degree_matrix(g) + adjacency(g)


def a_matrix(g: Graph, a: float) -> np.ndarray:
    """a*D(G) + A(G); a=0 is the adjacency matrix, a=1 the signless Laplacian."""
    if a < 0:
        raise GraphInputError(f"diagonal weight must be nonnegative, got {a}")
    return a * degree_matrix(g) + adjacency(g)


def _validate_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphInputError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise GraphInputError("matrix entries must be finite")
    if (m < 0).any():
        raise GraphInputError("matrix entries must be nonnegative")
    if not np.array_equal(m, m.T):
        raise GraphInputError("matrix must be symmetric")
    return m


def _support_components(m: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected blocks of the off-diagonal support."""
    n = m.shape[0]
    support = m != 0
    np.fill_diagonal(support, False)
    comps = _components(_row_masks(support), (1 << n) - 1)
    return [np.array(list(_bits(c))) for c in comps]


def _perron_pair(m: np.ndarray, tol: float):
    """Eigensolve one irreducible block.  Returns (radius, x, residual, solves).

    For mu above the radius, (mu I - m)^-1 is entrywise positive (Perron-
    Frobenius), so inverse iteration from the all-ones vector yields the
    positive Perron vector with no sign fixing.
    """
    radius = float(np.linalg.eigvalsh(m)[-1])
    bound = tol * max(1.0, radius)
    shifted = (radius + 1e-12 * max(1.0, radius)) * np.eye(m.shape[0]) - m
    x, residual = np.ones(m.shape[0]), math.inf
    for solves in range(1, MAX_SOLVES + 1):
        try:
            x = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            break
        x /= np.linalg.norm(x)
        residual = float(np.max(np.abs(m @ x - radius * x)))
        if residual <= bound:
            return radius, x, residual, solves
    raise ConvergenceError(
        f"no certified eigenpair after {solves} inverse-iteration solve(s) "
        f"(residual {residual:.3e}, bound {bound:.3e})",
        radius=radius, residual=residual, iterations=solves)


def spectral_radius(m: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of a nonnegative symmetric matrix, with certificate.

    Deterministic for fixed input.  For block-diagonal (disconnected) inputs
    each block is solved separately; the returned unit vector is the Perron
    vector of the first block attaining the maximum and zero elsewhere, so
    strict positivity holds only when the support pattern is connected.
    Raises ConvergenceError when the residual certificate cannot be met.
    """
    if tol <= 0:
        raise GraphInputError("tolerance must be positive")
    m = _validate_matrix(m)
    best_radius = -math.inf
    best_vec: np.ndarray | None = None
    best_res = 0.0
    total_solves = 0
    n = m.shape[0]
    for comp in _support_components(m):
        block = m[np.ix_(comp, comp)]
        radius, x, residual, solves = _perron_pair(block, tol)
        total_solves += solves
        if radius > best_radius:
            best_radius = radius
            best_res = residual
            best_vec = np.zeros(n)
            best_vec[comp] = x
    assert best_vec is not None
    best_vec.flags.writeable = False
    return SpectralResult(radius=best_radius, vector=best_vec,
                          residual=best_res, iterations=total_solves)


def rho_a(g: Graph, a: float, tol: float = DEFAULT_TOL) -> float:
    """Largest eigenvalue of a*D(G) + A(G)."""
    return spectral_radius(a_matrix(g, a), tol).radius


# ---------------------------------------------------------------------------
# classical bounds


def hong_bound(g: Graph) -> float:
    """Hong's bound sqrt(2m - n + 1) on the adjacency spectral radius."""
    radicand = 2 * g.m - g.n + 1
    if radicand < 0:
        raise DomainError(
            f"2m - n + 1 = {radicand} < 0 (graph too sparse, e.g. disconnected)")
    return math.sqrt(radicand)


def das_bound(g: Graph) -> float:
    """Das's bound 2m/(n-1) + n - 2 on the signless Laplacian spectral radius."""
    if g.n < 2:
        raise GraphInputError("bound requires at least 2 vertices")
    return 2 * g.m / (g.n - 1) + g.n - 2


# ---------------------------------------------------------------------------
# quotient matrices


def _validate_partition(order: int, classes: Sequence[Sequence[int]]) -> list[list[int]]:
    seen: set[int] = set()
    cleaned = []
    for cls in classes:
        cls = [int(v) for v in cls]
        if not cls:
            raise GraphInputError("partition classes must be nonempty")
        for v in cls:
            if not 0 <= v < order:
                raise GraphInputError(f"index {v} outside 0..{order - 1}")
            if v in seen:
                raise GraphInputError(f"index {v} appears in two classes")
            seen.add(v)
        cleaned.append(cls)
    if len(seen) != order:
        raise GraphInputError("partition must cover every index")
    return cleaned


def quotient_matrix(m: np.ndarray, classes: Sequence[Sequence[int]]
                    ) -> tuple[np.ndarray, bool]:
    """Quotient of m under a partition: block-average row sums.

    Returns (B, equitable) where equitable is True iff every block has
    constant row sums.  For integer matrices the check is exact; otherwise
    row sums are compared within a small relative tolerance.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphInputError(f"expected a square matrix, got shape {m.shape}")
    classes = _validate_partition(m.shape[0], classes)
    k = len(classes)
    b = np.zeros((k, k))
    equitable = True
    integral = bool(np.all(m == np.round(m)))
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            row_sums = m[np.ix_(ci, cj)].sum(axis=1)
            b[i, j] = row_sums.mean()
            if integral:
                if not np.all(row_sums == row_sums[0]):
                    equitable = False
            elif not np.allclose(row_sums, row_sums[0], rtol=1e-9, atol=1e-12):
                equitable = False
    return b, equitable


# ---------------------------------------------------------------------------
# dense largest real eigenvalue


def largest_eigenvalue_dense(m: np.ndarray) -> float:
    """Largest real part among the eigenvalues of a small nonnegative matrix.

    Intended for quotient matrices of order <= 8, which need not be
    symmetric; for a nonnegative matrix this is its Perron root.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise GraphInputError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > 8:
        raise GraphInputError("dense eigenvalue solver is capped at order 8")
    if not np.isfinite(m).all():
        raise GraphInputError("matrix entries must be finite")
    if (m < 0).any():
        raise GraphInputError("matrix entries must be nonnegative")
    return float(np.linalg.eigvals(m).real.max())
