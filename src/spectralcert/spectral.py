"""Matrix construction and certified largest-eigenvalue computation.

The matrix family here is a*D(G) + A(G) for a weight a >= 0: a = 0 gives the
adjacency matrix, a = 1 the signless Laplacian.  ``a_matrix`` builds one
matrix, or the (B, n, n) stack of a sequence of graphs of one order.

``spectral_radius`` takes one matrix or such a stack; one matrix is solved
as a stack of one.  Each connected block of a member's support pattern is
solved on its own, and the blocks of one order across the stack are solved
together: one LAPACK `eigvalsh` gives each block's largest eigenvalue r,
and inverse iteration (one batched linear solve shifted just above r) its
Perron vector x, certified when the max-norm residual ||M x - r x|| is at
most tol * max(1, r); only the blocks still above that bound are solved
again.  Each member gets the maximum over its blocks, with the winning
Perron vector zero-padded, and the same bits as if it were solved alone.
``iterations`` counts the linear solves over every block of every member.
``radii`` is how callers solve a list of graphs at a few weights: one stack
per weight and order, split to bound memory, for every ``verify`` harness
and ``cli spectral``.

Also provides the classical edge-count bounds on the two spectral radii,
quotient matrices of vertex partitions, and the largest real eigenvalue of
small (possibly nonsymmetric) quotient matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import math

import numpy as np

from .errors import DEFAULT_TOL, ConvergenceError, DomainError, GraphInputError, check_tolerances
from .graphs import Graph, _bits, _components, _mask_rows, _row_masks

# Inverse-iteration solves allowed per block before the certificate fails.
MAX_SOLVES = 3
# Matrix entries per stack in radii, to bound one call's memory.
STACK_ENTRIES = 1 << 21


@dataclass(frozen=True)
class SpectralResult:
    """Certified largest eigenvalue of a nonnegative symmetric matrix.

    For a stack of B matrices, ``radius`` and ``residual`` are arrays of
    shape (B,) and ``vector`` has shape (B, n).
    """

    radius: float | np.ndarray
    vector: np.ndarray
    residual: float | np.ndarray
    iterations: int  # linear solves, summed over the blocks of every member


def adjacency(g: Graph) -> np.ndarray:
    return a_matrix(g, 0.0)


def signless_laplacian(g: Graph) -> np.ndarray:
    return a_matrix(g, 1.0)


@np.errstate(all="ignore")  # an overflow is refused by _validate_matrix or the certificate
def a_matrix(g: Graph | Sequence[Graph], a: float) -> np.ndarray:
    """a*D(G) + A(G); a=0 is the adjacency matrix, a=1 the signless Laplacian.

    Given a sequence of graphs of one order n, returns their (B, n, n) stack.
    """
    if not 0 <= a < math.inf:
        raise GraphInputError(f"diagonal weight must be nonnegative and finite, got {a}")
    graphs = [g] if isinstance(g, Graph) else list(g)
    if not graphs:
        raise GraphInputError("a matrix stack needs at least one graph")
    n = graphs[0].n
    if any(h.n != n for h in graphs):
        raise GraphInputError(
            f"graphs in a stack must have one order, got {sorted({h.n for h in graphs})}")
    masks = [mask for h in graphs for mask in h.neighbor_masks]
    stack = _mask_rows(masks, n).reshape(len(graphs), n, n).astype(float)
    degrees = np.array([mask.bit_count() for mask in masks], dtype=float)
    stack.reshape(len(graphs), n * n)[:, ::n + 1] += a * degrees.reshape(len(graphs), n)
    return stack[0] if isinstance(g, Graph) else stack


def _float_array(m: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(m, dtype=float)
    except ValueError:
        raise GraphInputError("expected a square matrix, got ragged or non-numeric input") from None


def _validate_matrix(m: np.ndarray) -> np.ndarray:
    """m as a float array: one square matrix, or a stack of them."""
    m = _float_array(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise GraphInputError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[-1] == 0:
        raise GraphInputError("matrix order must be positive")
    if not np.isfinite(m).all():
        raise GraphInputError("matrix entries must be finite")
    if (m < 0).any():
        raise GraphInputError("matrix entries must be nonnegative")
    return m


@np.errstate(all="ignore")  # as a_matrix
def _perron_pairs(blocks: np.ndarray, tol: float):
    """Eigensolve a (B, k, k) stack of irreducible blocks.

    Returns (radius, x, residual, bound, solves), one entry per member; a
    member failed when its residual is not within its bound.  For mu above
    the radius, (mu I - m)^-1 is entrywise positive (Perron-Frobenius), so
    inverse iteration from the all-ones vector yields the positive Perron
    vector with no sign fixing.  Each solve covers only the members not yet
    within their bound.  Every member gets the bits it would get alone:
    LAPACK and matmul work member by member, and the norm is a per-row dot
    (``np.linalg.norm(axis=1)`` rounds differently on some rows).
    """
    count, k = blocks.shape[:2]
    radius = np.linalg.eigvalsh(blocks)[:, -1]
    scale = np.maximum(1.0, radius)
    bound = tol * scale
    shifted = (radius + 1e-12 * scale)[:, None, None] * np.eye(k)
    shifted -= blocks
    x = np.ones((count, k, 1))  # column vectors, as solve and matmul take them
    residual = np.full(count, math.inf)
    solves = np.zeros(count, dtype=int)
    live = np.arange(count)
    for _ in range(MAX_SOLVES):
        at = slice(None) if live.size == count else live  # a view while all are live
        solves[at] += 1
        try:
            y = np.linalg.solve(shifted[at], x[at])
        except np.linalg.LinAlgError:
            # shifted never changes, so only the first solve breaks down;
            # the singular members keep an infinite residual
            live = at = live[[_solvable(shifted[i]) for i in live]]
            y = np.linalg.solve(shifted[at], x[at])
        y /= np.sqrt(np.matmul(y.swapaxes(1, 2), y))
        x[at] = y
        residual[at] = np.abs(np.matmul(blocks[at], y)
                              - radius[at, None, None] * y).max(axis=(1, 2))
        live = live[~(residual[at] <= bound[at])]
        if not live.size:
            break
    return radius, x[:, :, 0], residual, bound, solves


def _solvable(m: np.ndarray) -> bool:
    try:
        np.linalg.solve(m, np.ones(m.shape[0]))
    except np.linalg.LinAlgError:
        return False
    return True


def spectral_radius(m: np.ndarray, tol: float = DEFAULT_TOL) -> SpectralResult:
    """Largest eigenvalue of a nonnegative symmetric matrix, with certificate.

    m is an (n, n) matrix or a (B, n, n) stack; a single matrix is solved as
    a stack of one, and each member gets the bits it would get alone.  Each
    connected block of a member's off-diagonal support is solved on its own;
    the returned unit vector is the Perron vector of the first block
    attaining the maximum and zero elsewhere, so strict positivity holds
    only when the support pattern is connected.  Raises ConvergenceError for
    the first block, in member then block order, whose residual certificate
    cannot be met; its ``member`` is the index in the stack.
    """
    check_tolerances(tol)
    m = _validate_matrix(m)
    if not np.array_equal(m, m.swapaxes(-1, -2)):
        raise GraphInputError("matrix must be symmetric")
    n = m.shape[-1]
    stack = m.reshape(-1, n, n)
    count = stack.shape[0]
    support = stack != 0
    support.reshape(count, n * n)[:, ::n + 1] = False
    masks = _row_masks(support.reshape(count * n, n))
    full = (1 << n) - 1

    # every block as (member, place among the member's blocks, vertices),
    # grouped by order; connected members are one block of order n
    by_order: dict[int, list[tuple[int, int, list[int] | None]]] = {}
    for b in range(count):
        comps = _components(masks[b * n:(b + 1) * n], full)
        if len(comps) == 1:
            by_order.setdefault(n, []).append((b, 0, None))
            continue
        for place, comp in enumerate(comps):
            idx = list(_bits(comp))
            by_order.setdefault(len(idx), []).append((b, place, idx))

    radius = np.full(count, -math.inf)
    residual = np.zeros(count)
    vector = np.zeros((count, n))
    parts, failures, total = [], [], 0
    for k, jobs in by_order.items():
        owners = [b for b, _, _ in jobs]
        if k == n:
            at = slice(None) if len(owners) == count else owners
            blocks = stack[at]
        else:
            rows = np.array([vertices for _, _, vertices in jobs])
            blocks = stack[np.array(owners)[:, None, None], rows[:, :, None], rows[:, None, :]]
        radii, xs, residuals, bounds, solves = _perron_pairs(blocks, tol)
        total += int(solves.sum())
        failures += [(*jobs[i][:2], radii[i], residuals[i], bounds[i], int(solves[i]))
                     for i in np.flatnonzero(~(residuals <= bounds))]
        if k == n:
            radius[at], residual[at], vector[at] = radii, residuals, xs
        else:
            parts += [(b, place, idx, radii[i], residuals[i], xs[i])
                      for i, (b, place, idx) in enumerate(jobs)]
    if failures:
        b, _, r, res, bound, solves = min(failures)
        raise ConvergenceError(
            f"no certified eigenpair after {solves} inverse-iteration solve(s) "
            f"(residual {res:.3e}, bound {bound:.3e})",
            radius=float(r), residual=float(res), iterations=solves, member=b)
    for b, _, idx, r, res, x in sorted(parts, key=lambda part: part[:2]):
        if r > radius[b]:  # the first block attaining the maximum wins
            radius[b], residual[b] = r, res
            vector[b] = 0.0
            vector[b, idx] = x
    vector.flags.writeable = False
    if m.ndim == 2:
        return SpectralResult(radius=float(radius[0]), vector=vector[0],
                              residual=float(residual[0]), iterations=total)
    return SpectralResult(radius=radius, vector=vector, residual=residual, iterations=total)


def radii(graphs: Sequence[Graph], weights: Sequence[float], tol: float
          ) -> tuple[list[list[float]], list[list[float]]]:
    """(radius, residual) of a*D + A for each graph at each weight a, as two
    lists indexed [graph][weight].

    One spectral_radius call per weight, order and chunk of at most
    STACK_ENTRIES matrix entries, on the stack of that chunk's matrices, so
    each member gets the bits it would get alone.  A failing chunk leaves
    its members unsolved and the other chunks go on; at the end the
    ConvergenceError of the lowest (index, weight) pair is raised, with
    ``member`` set to that index in `graphs`.
    """
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    radius = [[0.0] * len(weights) for _ in graphs]
    residual = [[0.0] * len(weights) for _ in graphs]
    errors = []
    for slot, a in enumerate(weights):
        for n, members in by_order.items():
            step = max(1, STACK_ENTRIES // (n * n))
            for start in range(0, len(members), step):
                part = members[start:start + step]
                try:
                    result = spectral_radius(a_matrix([graphs[i] for i in part], a), tol)
                except ConvergenceError as exc:
                    errors.append((part[exc.member], slot, exc))
                    continue
                for i, r, res in zip(part, result.radius.tolist(), result.residual.tolist()):
                    radius[i][slot], residual[i][slot] = r, res
    if errors:
        i, _, exc = min(errors, key=lambda error: error[:2])
        raise ConvergenceError(*exc.args[:4], member=i)
    return radius, residual


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
    m = _float_array(m)
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
    m = _validate_matrix(m)
    if m.ndim != 2:
        raise GraphInputError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] > 8:
        raise GraphInputError("dense eigenvalue solver is capped at order 8")
    return float(np.linalg.eigvals(m).real.max())
