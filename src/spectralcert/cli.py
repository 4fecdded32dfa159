"""Command-line surface.

Subcommands: ``spectral`` (radius and bounds per graph), ``gen-family``
(construct the extremal families as graph6), ``closed-form`` (closed-form
family values with an eigensolver cross-check), ``certify`` (certificate
JSON per graph), ``verify`` (theorem harnesses, JSON/CSV reports), and
``quotient`` (the 4x4 block quotient of the matching family).

Only ``spectral``, ``closed-form``, ``quotient`` and ``verify`` load numpy
and the eigensolver stack; ``certify`` and ``gen-family`` work on bitmasks
alone, so they start without either.  Each handler imports what it uses.

Exit codes: 0 success, 1 usage or input error, 2 a verification run found
violations, 3 the eigensolver failed to converge.  Graph arguments are a
literal graph6 string or ``-`` to read graph6 lines from stdin (blank lines
ignored).  Randomized subcommands print the seed they used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .certifiers import (
    certificate_to_json,
    find_k_tree,
    find_win_violator,
    perfect_matching,
)
from .errors import DEFAULT_MARGIN, DEFAULT_TOL, ConvergenceError, GraphInputError
from .graphs import BipartiteGraph, Graph, _bits, _reach, from_graph6, to_graph6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant that uses exit code 1 for usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_tol(parser: _Parser) -> None:
    parser.add_argument("--tol", type=float, default=DEFAULT_TOL,
                        help="eigensolver residual tolerance")


def _stdin_lines() -> list[str]:
    """Non-blank stdin lines; undecodable bytes stay as surrogates, which
    graph6 parsing reports with their offset, whatever the locale."""
    if hasattr(sys.stdin, "reconfigure"):
        sys.stdin.reconfigure(errors="surrogateescape")
    return [ln.strip() for ln in sys.stdin.read().splitlines() if ln.strip()]


def _read_graphs(source: str) -> list[Graph]:
    if source == "-":
        return [from_graph6(line) for line in _stdin_lines()]
    return [from_graph6(source.strip())]


def _bipartition(g: Graph) -> BipartiteGraph:
    """Recover a balanced bipartition of g, or fail.

    Each connected component is 2-colored by one reach over the bipartite
    double cover of g (vertex v is bit v and bit n + v, and each edge joins
    one copy of an end to the other copy of the other end): the copies
    reached from the low copy of a vertex are its component's two color
    classes, and a vertex reached in both copies closes an odd cycle.  The
    side-per-component choice that balances |X| = |Y| is found by subset-sum
    over the color-count differences (first feasible assignment in component
    order wins).
    """
    n = g.n
    masks = g.neighbor_masks
    low = (1 << n) - 1
    cover = [m << n for m in masks] + list(masks)
    comps: list[tuple[int, int]] = []  # per component: the two color classes, as masks
    unseen = low
    while unseen:
        reached = _reach(cover, unseen & -unseen, low << n | low)
        even, odd = reached & low, reached >> n
        if even & odd:
            raise GraphInputError("graph is not bipartite (odd cycle found)")
        unseen &= ~(even | odd)
        comps.append((even, odd))
    if n % 2:
        raise GraphInputError("odd order cannot form a balanced bipartite graph")
    target = n // 2
    # choose per component which color class joins X
    reachable: list[dict[int, int | None]] = [{0: None}]
    for idx, sides in enumerate(comps):
        nxt: dict[int, int | None] = {}
        for total in reachable[idx]:
            for pick, side in enumerate(sides):
                new = total + side.bit_count()
                if new <= target and new not in nxt:
                    nxt[new] = pick
        reachable.append(nxt)
    if target not in reachable[-1]:
        raise GraphInputError("no balanced bipartition exists for this graph")
    x_side, total = 0, target
    for idx in range(len(comps) - 1, -1, -1):
        side = comps[idx][reachable[idx + 1][total]]
        x_side |= side
        total -= side.bit_count()
    column = {y: j for j, y in enumerate(_bits(((1 << n) - 1) & ~x_side))}
    return BipartiteGraph._from_masks(
        len(column), tuple(sum(1 << column[y] for y in _bits(masks[x]))
                           for x in _bits(x_side)))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_spectral(args) -> int:
    from .spectral import das_bound, hong_bound, radii

    graphs, failure = _read_graphs(args.source), None
    try:
        values, residuals = radii(graphs, (args.a,), args.tol)
    except ConvergenceError as exc:
        # print the graphs before the first failure, which all solve, then fail
        graphs, failure = graphs[:exc.member], exc
        values, residuals = radii(graphs, (args.a,), args.tol)
    for g, (value,), (residual,) in zip(graphs, values, residuals):
        try:
            hong = f"{hong_bound(g):.12g}"
        except GraphInputError:
            hong = "NA"
        try:
            das = f"{das_bound(g):.12g}"
        except GraphInputError:
            das = "NA"
        print(f"graph6={to_graph6(g).decode()} n={g.n} m={g.m} a={args.a:g} "
              f"rho_a={value:.12g} residual={residual:.3e} "
              f"hong={hong} das={das}")
    if failure is not None:
        raise failure
    return EXIT_OK


def _cmd_gen_family(args) -> int:
    from .families import ktree_extremal, matching_extremal, win_family

    if args.family == "ktree":
        graphs = [ktree_extremal(args.n, args.k)]
    elif args.family == "win":
        try:
            parts = tuple(int(p) for p in args.parts.split(","))
        except ValueError:
            raise GraphInputError(
                f"--parts must be comma-separated integers, got {args.parts!r}") from None
        graphs = [win_family(args.s, parts)]
    else:
        graphs = [matching_extremal(args.n, args.s).to_graph()]
    lines = [to_graph6(g).decode() for g in graphs]
    if args.out:
        with open(args.out, "w") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def _cmd_closed_form(args) -> int:
    from .families import matching_extremal, q_matching_extremal, rho_matching_extremal
    from .spectral import a_matrix, spectral_radius

    if args.form == "rho":
        value = rho_matching_extremal(args.n, args.delta)
        a = 0.0
    else:
        value = q_matching_extremal(args.n, args.delta)
        a = 1.0
    g = matching_extremal(args.n, args.delta).to_graph()
    check = spectral_radius(a_matrix(g, a), args.tol).radius
    print(f"value={value!r}")
    print(f"crosscheck={check!r}")
    print(f"difference={abs(value - check):.3e}")
    return EXIT_OK


def _cmd_certify(args) -> int:
    for g in _read_graphs(args.source):
        if args.kind == "ktree":
            cert = find_k_tree(g, args.k)
        elif args.kind == "win":
            cert = find_win_violator(g, args.k)
        else:
            cert = perfect_matching(_bipartition(g))
        print("null" if cert is None else json.dumps(certificate_to_json(cert),
                                                     sort_keys=True))
    return EXIT_OK


def _cmd_quotient(args) -> int:
    from .families import matching_quotient_charpoly, matching_quotient_matrix
    from .spectral import largest_eigenvalue_dense

    b = matching_quotient_matrix(args.n, args.s, args.a)
    for row in b:
        print(" ".join(f"{v:g}" for v in row))
    lam = largest_eigenvalue_dense(b)
    print(f"lambda1={lam!r}")
    print(f"charpoly_at_lambda1={matching_quotient_charpoly(args.n, args.s, args.a, lam):.3e}")
    return EXIT_OK


def _stream_for(args) -> list[str]:
    from .verify import connected_corpus_stream

    if args.stream:
        if args.stream == "-":
            return _stdin_lines()
        with open(args.stream, errors="surrogateescape") as handle:
            return [ln.strip() for ln in handle if ln.strip()]
    return connected_corpus_stream(args.min_n, args.max_n)


def _cmd_verify(args) -> int:
    from .families import ktree_extremal
    from .verify import (
        random_connected_stream,
        verify_bounds,
        verify_cut_family_monotonicity,
        verify_edge_deletion_bound,
        verify_hamilton_condition,
        verify_ktree_condition,
        verify_matching_condition,
        verify_matching_family_monotonicity,
    )

    target = args.target
    seeded = target == "edge-deletion"
    if target in ("hamilton-rho", "hamilton-q"):
        report = verify_hamilton_condition(
            _stream_for(args), "rho" if target == "hamilton-rho" else "q",
            tol=args.tol, margin=args.margin, workers=args.workers)
    elif target == "ktree":
        if args.stream:
            lines = _stream_for(args)
        else:
            n = args.n if args.n else 2 * args.k + 16
            lines = [to_graph6(ktree_extremal(n, args.k)).decode()]
            lines += random_connected_stream(n, args.count, args.p, args.seed)
            seeded = True
        report = verify_ktree_condition(lines, args.k, args.a, tol=args.tol,
                                        margin=args.margin, workers=args.workers)
    elif target in ("matching", "matching-sqrt"):
        if args.nx > 4:
            sample = args.count or 10000
        else:
            sample = args.count or None
        seeded = sample is not None
        report = verify_matching_condition(
            args.nx, args.delta, args.a,
            "family" if target == "matching" else "sqrt",
            sample_count=sample, seed=args.seed, tol=args.tol,
            margin=args.margin, workers=args.workers)
    elif target == "cut-monotone":
        report = verify_cut_family_monotonicity(args.max_n, args.max_s, args.max_t,
                                                tol=args.tol)
    elif target == "matching-monotone":
        report = verify_matching_family_monotonicity(args.max_n, tol=args.tol)
    elif target == "edge-deletion":
        report = verify_edge_deletion_bound(args.nx, args.delta, margin=args.margin,
                                            tol=args.tol, seed=args.seed)
    else:
        report = verify_bounds(_stream_for(args), tol=args.tol, workers=args.workers)
    if seeded:
        print(f"seed={args.seed}")
    print(report.summary())
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report.to_json() + "\n")
    if args.csv:
        report.write_csv(args.csv)
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _build_parser() -> _Parser:
    parser = _Parser(prog="spectralcert",
                     description="spectral certificates for spanning trees and matchings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", parents=[], help="radius, bounds, residual")
    p.add_argument("source", help="graph6 string or - for stdin")
    p.add_argument("--a", type=float, default=0.0,
                   help="diagonal weight (0 adjacency, 1 signless Laplacian)")
    _add_tol(p)
    p.set_defaults(fn=_cmd_spectral)

    p = sub.add_parser("gen-family", help="emit an extremal family member as graph6")
    fam = p.add_subparsers(dest="family", required=True)
    ktree = fam.add_parser("ktree")
    ktree.add_argument("--n", type=int, required=True)
    ktree.add_argument("--k", type=int, required=True)
    win = fam.add_parser("win")
    win.add_argument("--s", type=int, required=True)
    win.add_argument("--parts", type=str, required=True,
                     help="comma-separated clique sizes, nonincreasing")
    matching = fam.add_parser("matching")
    matching.add_argument("--n", type=int, required=True)
    matching.add_argument("--s", type=int, required=True)
    for sp in (ktree, win, matching):
        sp.add_argument("--out", type=str, default=None)
        sp.set_defaults(fn=_cmd_gen_family)

    p = sub.add_parser("closed-form", help="closed-form family values")
    p.add_argument("form", choices=["rho", "q"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=int, required=True)
    _add_tol(p)
    p.set_defaults(fn=_cmd_closed_form)

    p = sub.add_parser("certify", help="certificate JSON per graph")
    kind = p.add_subparsers(dest="kind", required=True)
    ck = kind.add_parser("ktree")
    ck.add_argument("--k", type=int, required=True)
    cw = kind.add_parser("win")
    cw.add_argument("--k", type=int, required=True)
    cm = kind.add_parser("matching")
    for sp in (ck, cw, cm):
        sp.add_argument("source", help="graph6 string or - for stdin")
        sp.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("quotient", help="block quotient of the matching family")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("verify", help="run a verification harness")
    p.add_argument("target", choices=["hamilton-rho", "hamilton-q", "ktree",
                                      "matching", "matching-sqrt", "cut-monotone",
                                      "matching-monotone", "edge-deletion", "bounds"])
    p.add_argument("--stream", type=str, default=None,
                   help="graph6 file or - for stdin (default: the internal corpus of "
                        "every connected graph with --min-n to --max-n vertices)")
    p.add_argument("--min-n", type=int, default=4)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--max-s", type=int, default=4)
    p.add_argument("--max-t", type=int, default=5)
    p.add_argument("--n", type=int, default=None, help="order for ktree streams")
    p.add_argument("--nx", type=int, default=4, help="part size for bipartite streams")
    p.add_argument("--delta", type=int, default=1)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--count", type=int, default=0,
                   help="random sample size (0 = exhaustive where available)")
    p.add_argument("--p", type=float, default=0.9, help="edge probability for random streams")
    p.add_argument("--report", type=str, default=None, help="write JSON report here")
    p.add_argument("--csv", type=str, default=None, help="write per-graph CSV here")
    _add_tol(p)
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN,
                   help="threshold comparison margin")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel workers for stream harnesses, on one fork pool "
                        "per process: started on first use, shut down at exit")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized streams")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "tol") and not 0 < args.tol < math.inf:
            raise GraphInputError("tolerance must be positive and finite")
        if hasattr(args, "margin") and not args.tol <= args.margin < math.inf:
            raise GraphInputError("margin must be finite and at least the tolerance")
        workers, cpus = getattr(args, "workers", 1), os.cpu_count() or 1
        if workers < 1:
            raise GraphInputError("worker count must be positive")
        if workers > cpus:
            raise GraphInputError(f"worker count must be at most the CPU count, {cpus}")
        return args.fn(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except GraphInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
