"""Command-line surface.

Subcommands: ``spectral`` (radius and bounds per graph), ``gen-family``
(construct the extremal families as graph6), ``closed-form`` (closed-form
family values with an eigensolver cross-check), ``certify`` (certificate
JSON per graph), ``verify`` (theorem harnesses, JSON/CSV reports), and
``quotient`` (the 4x4 block quotient of the matching family).

Only ``spectral``, ``closed-form``, ``quotient`` and ``verify`` load numpy
and the eigensolver stack; ``certify`` and ``gen-family`` work on bitmasks
alone, so they start without either.  Each handler imports what it uses.

Options follow the subcommand and its target (``verify ktree --k 4``).
Each ``verify`` target takes only the options it reads (``_VERIFY_TARGETS``),
so argparse refuses the rest, and ``--stream`` refuses the options that
would shape the stream it replaces.

Exit codes: 0 success, 1 usage or input error (a float overflow too), 2 a
verification run found violations, 3 the eigensolver failed to converge.
Every error, argparse's usage errors included, is one ``error:`` line on
stderr.  Graph arguments are a literal graph6 string or ``-`` to read graph6
lines from stdin (blank lines ignored); randomized subcommands print the seed.
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
from .errors import DEFAULT_MARGIN, DEFAULT_TOL, ConvergenceError, GraphInputError, check_tolerances
from .graphs import BipartiteGraph, Graph, _bits, _reach, from_graph6, to_graph6

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATIONS = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors are one line, with exit code 1."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


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

    def shown(bound, g: Graph) -> str:
        try:
            return f"{bound(g):.12g}"
        except GraphInputError:
            return "NA"

    graphs, failure = _read_graphs(args.source), None
    try:
        values, residuals = radii(graphs, (args.a,), args.tol)
    except ConvergenceError as exc:
        # print the graphs before the first failure, which all solve, then fail
        graphs, failure = graphs[:exc.member], exc
        values, residuals = radii(graphs, (args.a,), args.tol)
    for g, (value,), (residual,) in zip(graphs, values, residuals):
        print(f"graph6={to_graph6(g).decode()} n={g.n} m={g.m} a={args.a:g} "
              f"rho_a={value:.12g} residual={residual:.3e} "
              f"hong={shown(hong_bound, g)} das={shown(das_bound, g)}")
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
    lam = largest_eigenvalue_dense(b)
    value = matching_quotient_charpoly(args.n, args.s, args.a, lam)
    if not math.isfinite(value):  # the float products overflowed without raising
        raise ArithmeticError(f"the quartic at lambda1 is not finite, got {value}")
    for row in b:
        print(" ".join(f"{v:g}" for v in row))
    print(f"lambda1={lam!r}")
    print(f"charpoly_at_lambda1={value:.3e}")
    return EXIT_OK


def _stream_for(args) -> list[str]:
    from .verify import connected_corpus_stream

    if args.stream is not None:
        if args.stream == "-":
            return _stdin_lines()
        with open(args.stream, errors="surrogateescape") as handle:
            return [ln.strip() for ln in handle if ln.strip()]
    return connected_corpus_stream(args.min_n, args.max_n)


# verify options that default to None, and their values when not given; they shape
# the stream --stream replaces, so it refuses them (--n is 2k + 16 where it is read)
_UNSET = {"min_n": 4, "max_n": 8, "n": None, "count": 0, "p": 0.9, "seed": 0}


def _cmd_verify(args) -> int:
    # before the imports, so that a refused --stream loads no numpy
    given = [name for name in _UNSET if vars(args).get(name) is not None]
    if getattr(args, "stream", None) is not None and given:
        raise GraphInputError(f"--stream cannot be combined with --{given[0].replace('_', '-')}")
    vars(args).update({name: value for name, value in _UNSET.items()
                       if vars(args).get(name, 0) is None})

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
        if args.stream is not None:
            lines = _stream_for(args)
        else:
            n = args.n if args.n is not None else 2 * args.k + 16
            lines = [to_graph6(ktree_extremal(n, args.k)).decode()]
            lines += random_connected_stream(n, args.count, args.p, args.seed)
            seeded = True
        report = verify_ktree_condition(lines, args.k, args.a, tol=args.tol,
                                        margin=args.margin, workers=args.workers)
    elif target in ("matching", "matching-sqrt"):
        sample = args.count or (10000 if args.nx > 4 else None)
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


# the --tol entry also serves spectral and closed-form
_VERIFY_OPTIONS = {
    "--tol": dict(type=float, default=DEFAULT_TOL, help="eigensolver residual tolerance"),
    "--stream": dict(type=str, default=None,
                     help="graph6 file or - for stdin, in place of the generated stream"),
    "--min-n": dict(type=int, default=None, help="least order of the corpus (default 4)"),
    "--max-n": dict(type=int, default=None, help="largest corpus or sweep order (default 8)"),
    "--max-s": dict(type=int, default=4),
    "--max-t": dict(type=int, default=5),
    "--n": dict(type=int, default=None, help="order for ktree streams (default 2k + 16)"),
    "--nx": dict(type=int, default=4, help="part size for bipartite streams"),
    "--delta": dict(type=int, default=1),
    "--k": dict(type=int, default=3),
    "--a": dict(type=float, default=0.0),
    "--count": dict(type=int, default=None,
                    help="random sample size (default 0 = exhaustive where available)"),
    "--p": dict(type=float, default=None, help="edge probability for random streams (default 0.9)"),
    "--report": dict(type=str, default=None, help="write JSON report here"),
    "--csv": dict(type=str, default=None, help="write per-graph CSV here"),
    "--margin": dict(type=float, default=DEFAULT_MARGIN, help="threshold comparison margin"),
    "--workers": dict(type=int, default=1,
                      help="parallel workers for stream harnesses, on one fork pool "
                           "per process: started on first use, shut down at exit; each "
                           "worker runs one contiguous chunk of the stream and is pinned "
                           "to one CPU of the caller's set, since unpinned workers were "
                           "woken on, and stayed on, the caller's CPU"),
    "--seed": dict(type=int, default=None, help="seed for randomized streams (default 0)"),
}

# the options each verify target reads besides --tol, --report and --csv
_CORPUS = ("--stream", "--min-n", "--max-n")
_BIPARTITE = ("--nx", "--delta", "--a", "--count", "--seed", "--margin", "--workers")
_VERIFY_TARGETS = {
    "hamilton-rho": _CORPUS + ("--margin", "--workers"),
    "hamilton-q": _CORPUS + ("--margin", "--workers"),
    "ktree": ("--stream", "--n", "--k", "--a", "--count", "--p", "--seed", "--margin", "--workers"),
    "matching": _BIPARTITE,
    "matching-sqrt": _BIPARTITE,
    "cut-monotone": ("--max-n", "--max-s", "--max-t"),
    "matching-monotone": ("--max-n",),
    "edge-deletion": ("--nx", "--delta", "--margin", "--seed"),
    "bounds": _CORPUS + ("--workers",),
}


def _build_parser(targets: bool = True) -> _Parser:
    """The whole parser; without targets, ``verify`` gets no target subparsers."""
    parser = _Parser(prog="spectralcert",
                     description="spectral certificates for spanning trees and matchings")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectral", parents=[], help="radius, bounds, residual")
    p.add_argument("source", help="graph6 string or - for stdin")
    p.add_argument("--a", type=float, default=0.0,
                   help="diagonal weight (0 adjacency, 1 signless Laplacian)")
    p.add_argument("--tol", **_VERIFY_OPTIONS["--tol"])
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
    p.add_argument("--tol", **_VERIFY_OPTIONS["--tol"])
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
    if targets:
        target = p.add_subparsers(dest="target", required=True)
        for name, flags in _VERIFY_TARGETS.items():
            # no abbreviations: --n would pass as --nx where only --nx is read
            tp = target.add_parser(name, allow_abbrev=False)
            for flag in flags + ("--tol", "--report", "--csv"):
                tp.add_argument(flag, **_VERIFY_OPTIONS[flag])
            tp.set_defaults(fn=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # only a verify command line needs the nine verify target subparsers
    parser = _build_parser(targets=bool(argv) and argv[0] == "verify")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if hasattr(args, "tol"):
            check_tolerances(args.tol, getattr(args, "margin", None))
        workers, cpus = getattr(args, "workers", 1), os.cpu_count() or 1
        if hasattr(os, "sched_getaffinity"):  # the CPUs the pool pins its workers within
            cpus = min(cpus, len(os.sched_getaffinity(0)))
        if workers < 1:
            raise GraphInputError("worker count must be positive")
        if workers > cpus:
            raise GraphInputError(f"worker count must be at most the usable CPU count, {cpus}")
        return args.fn(args)
    except (ArithmeticError, ConvergenceError, GraphInputError, OSError) as exc:
        what = f"{type(exc).__name__}: " if isinstance(exc, ArithmeticError) else ""
        print(f"error: {what}{exc}", file=sys.stderr)
        return EXIT_NUMERIC if isinstance(exc, ConvergenceError) else EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
