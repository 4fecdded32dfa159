"""The four benchmark workloads.

Each workload makes its inputs from a seed, runs its harness calls in
process (``run``) and through the command line (``run_cli``), and gates the
resulting reports (``check``).  Every call resolves the package function
through its module attribute at call time, so the traced run sees the
wrappers installed by ``tracing``.

Reports are compared as text.  For the three ``verify_*`` workloads the text
is ``VerificationReport.to_json()``; for ``corpus_certify`` it is a canonical
JSON document built from the certificates, in the form the ``certify`` CLI
prints them.
"""

from __future__ import annotations

import hashlib
import json
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from spectralcert import certifiers, families, graphs, smallgraphs, verify

DEFAULT_SEED = 0


def _no_span(label):
    return nullcontext()


def corpus_lines(min_n: int, max_n: int, seed: int) -> list[str]:
    """graph6 lines of every connected graph with min_n <= n <= max_n, in an
    order shuffled by the seed (no report depends on the order)."""
    lines = []
    for n in range(min_n, max_n + 1):
        lines.extend(graphs.to_graph6(g).decode("ascii")
                     for g in smallgraphs.connected_graphs(n))
    random.Random(seed).shuffle(lines)
    return lines


def random_dense_lines(n: int, count: int, p: float, rng: np.random.Generator) -> list[str]:
    """graph6 lines of `count` connected binomial random graphs G(n, p)."""
    lines = []
    while len(lines) < count:
        upper = np.triu(rng.random((n, n)) < p, 1)
        g = graphs.Graph(n, upper | upper.T)
        if graphs.is_connected(g):
            lines.append(graphs.to_graph6(g).decode("ascii"))
    return lines


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines))
    return path


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def inputs_digest(inputs: dict) -> str:
    return digest(json.dumps(inputs, sort_keys=True))


def _verify_counts(checked: int, *, confirmed: int, extremal: int, vacuous: int) -> dict:
    return {"checked": checked, "confirmed": confirmed, "extremal_equality": extremal,
            "vacuous": vacuous, "violated": 0}


def _certify_counts(count: int, *, win_violators: int, ktrees_found: int) -> dict:
    return {"graphs": count, "win_violators": win_violators, "ktrees_found": ktrees_found,
            "ktrees_missing": 0}


class Workload:
    """A workload's gate.  ``pins`` maps each call label to the report counts
    and the SHA-256 of ``pinned_text(report)``.  They apply on every seed
    when ``pinned_every_seed`` (the inputs do not depend on the seed), else
    on ``DEFAULT_SEED`` only; ``problems`` applies on every seed."""

    name = ""
    pins: dict[str, tuple[dict, str]] = {}
    pinned_every_seed = False

    def counts(self, text: str) -> dict:
        raise NotImplementedError

    def problems(self, text: str) -> list[str]:
        raise NotImplementedError

    def pinned_text(self, text: str) -> str:
        return text

    def check(self, label: str, text: str, seed: int) -> list[str]:
        problems = [f"{self.name}/{label}: {p}" for p in self.problems(text)]
        if label in self.pins and (self.pinned_every_seed or seed == DEFAULT_SEED):
            want_counts, want_digest = self.pins[label]
            counts = self.counts(text)
            if counts != want_counts:
                problems.append(f"{self.name}/{label}: counts {counts} != pinned {want_counts}")
            if digest(self.pinned_text(text)) != want_digest:
                problems.append(f"{self.name}/{label}: report digest differs from the pin")
        return problems


class VerifyWorkload(Workload):
    """Workloads whose harness is a ``verify_*`` function; the report text
    is ``to_json()``."""

    def _verify(self, payload, workers: int):
        raise NotImplementedError

    def _stream(self, payload) -> list[str] | None:
        """The graph6 lines the CLI reads from --stream, if any."""
        return None

    def _cli_argv(self, payload, stream: Path, report: Path) -> list[str]:
        raise NotImplementedError

    def run(self, inputs: dict, workers: int = 1, span=_no_span) -> dict[str, str]:
        reports = {}
        for label, payload in inputs.items():
            with span(label):
                reports[label] = self._verify(payload, workers).to_json()
        return reports

    def run_cli(self, inputs: dict, workdir: Path, cli) -> dict[str, str]:
        reports = {}
        for label, payload in inputs.items():
            stream = workdir / f"{label}.g6"
            lines = self._stream(payload)
            if lines is not None and not stream.exists():
                write_lines(stream, lines)
            report = workdir / f"{label}.report.json"
            report.unlink(missing_ok=True)
            cli(self._cli_argv(payload, stream, report))
            reports[label] = report.read_text().removesuffix("\n")
        return reports

    def items(self, reports: dict[str, str]) -> int:
        return sum(self.counts(text)["checked"] for text in reports.values())

    def counts(self, text: str) -> dict:
        return json.loads(text)["counts"]

    def problems(self, text: str) -> list[str]:
        violated = self.counts(text)["violated"]
        return [f"{violated} violated"] if violated else []


class CorpusHamilton(VerifyWorkload):
    """Both Hamilton-path variants over the connected corpus 4 <= n <= max_n."""

    name = "corpus_hamilton"
    pins = {
        "rho": (_verify_counts(992, confirmed=256, extremal=6, vacuous=730),
                "e4e024fd3ba0b8de7500e1f65efe126d2220500268aaf796e78bc3a13ce7cae8"),
        "q": (_verify_counts(992, confirmed=136, extremal=4, vacuous=852),
              "27fdb4c982334d8f72b141ff2cda6ce4cd86dfdec3555758c5c92091f8af4c8a"),
    }
    pinned_every_seed = True

    def __init__(self, max_n: int = 7):
        self.max_n = max_n

    def make_inputs(self, seed: int) -> dict:
        lines = corpus_lines(4, self.max_n, seed)
        return {variant: (variant, lines) for variant in ("rho", "q")}

    def _verify(self, payload, workers):
        variant, lines = payload
        return verify.verify_hamilton_condition(lines, variant, workers=workers)

    def _stream(self, payload):
        return payload[1]

    def _cli_argv(self, payload, stream, report):
        return ["verify", f"hamilton-{payload[0]}", "--stream", str(stream),
                "--report", str(report), "--workers", "1"]


class MatchingExhaustive(VerifyWorkload):
    """``verify_matching_condition(nx, delta, a, "family")`` over every
    nx+nx biadjacency pattern, for each (delta, a) in the grid.  The stream
    is exhaustive, so the seed does not change it."""

    name = "matching_exhaustive"
    pins = {
        "delta1_a0": (_verify_counts(512, confirmed=99, extremal=9, vacuous=404),
                      "96fa8f34f0861ab6a97e369450aeb6ff1079d25be79ca3a89f55ca349b8dff9a"),
        "delta1_a1": (_verify_counts(512, confirmed=90, extremal=9, vacuous=413),
                      "6b0530851e1cd2a33f72893d8b81571f42684d02088d6e8785fdc9a5222da92b"),
        "delta2_a0": (_verify_counts(512, confirmed=9, extremal=0, vacuous=503),
                      "a82b6255879c900df6c494c8e3b90449e712d0f16b4213cfda6f53bb5f693b73"),
        "delta2_a1": (_verify_counts(512, confirmed=27, extremal=0, vacuous=485),
                      "acd9c2c809fca1d0c3acc8ff1f97921bd206de117690fe93426b2ff7184cc53d"),
    }
    pinned_every_seed = True

    def __init__(self, nx: int = 3, grid=((1, 0.0), (1, 1.0), (2, 0.0), (2, 1.0))):
        self.nx = nx
        self.grid = grid

    def make_inputs(self, seed: int) -> dict:
        return {f"delta{delta}_a{a:g}": (delta, a) for delta, a in self.grid}

    def _verify(self, payload, workers):
        delta, a = payload
        return verify.verify_matching_condition(self.nx, delta, a, "family", workers=workers)

    def _cli_argv(self, payload, stream, report):
        delta, a = payload
        return ["verify", "matching", "--nx", str(self.nx), "--delta", str(delta),
                "--a", f"{a:g}", "--report", str(report), "--workers", "1"]


class KtreeDense(VerifyWorkload):
    """``verify_ktree_condition(k, a=0)`` on one stream holding, for each
    order, the extremal graph and seeded dense random connected graphs."""

    name = "ktree_dense"
    pins = {
        "k3_a0": (_verify_counts(37, confirmed=34, extremal=3, vacuous=0),
                  "1ca5682c1f357ee29a291ed7cf25f91bc46b10d2c9ab621f0dbdbb46aa558272"),
    }

    def __init__(self, orders=((22, 24, 0.95), (40, 6, 0.97), (60, 4, 0.98)), k: int = 3):
        self.orders = orders
        self.k = k

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        lines = []
        for n, count, p in self.orders:
            lines.append(graphs.to_graph6(families.ktree_extremal(n, self.k)).decode("ascii"))
            lines.extend(random_dense_lines(n, count, p, rng))
        return {f"k{self.k}_a0": lines}

    def _verify(self, payload, workers):
        return verify.verify_ktree_condition(payload, self.k, 0.0, workers=workers)

    def _stream(self, payload):
        return payload

    def _cli_argv(self, payload, stream, report):
        return ["verify", "ktree", "--k", str(self.k), "--a", "0", "--stream", str(stream),
                "--report", str(report), "--workers", "1"]


def certify_lines(k: int, lines: list[str]) -> list[tuple[str, str, str | None]]:
    """The ``certify win`` then ``certify ktree`` path for each line: decode,
    search for a Win violator, and search for a k-tree only when none exists.
    Certificates are in the JSON form the CLI prints; None marks a k-tree
    search that was not run."""
    out = []
    for line in lines:
        g = graphs.from_graph6(line)
        win = certifiers.find_win_violator(g, k)
        if win is not None:
            out.append((line, _cert_text(win), None))
        else:
            out.append((line, "null", _cert_text(certifiers.find_k_tree(g, k))))
    return out


def _certify_chunk(args: tuple[int, list[str]]) -> list[tuple[str, str, str | None]]:
    return certify_lines(*args)


def _cert_text(cert) -> str:
    if cert is None:
        return "null"
    return json.dumps(certifiers.certificate_to_json(cert), sort_keys=True)


def _certify_report(k: int, results) -> str:
    rows = sorted(results)
    return json.dumps({
        "k": k,
        "graphs": len(rows),
        "win_violators": sum(win != "null" for _, win, _ in rows),
        "ktrees_found": sum(tree not in (None, "null") for _, _, tree in rows),
        "ktrees_missing": sum(tree == "null" for _, _, tree in rows),
        "certificates": rows,
    }, sort_keys=True, indent=1)


class CorpusCertify(Workload):
    """The ``spectralcert certify win|ktree`` path over the connected corpus
    n = 2..max_n for each k.  No eigensolve: the control for spectral
    changes.  Its report is a canonical JSON document of the certificates."""

    name = "corpus_certify"
    pins = {
        "k2": (_certify_counts(995, win_violators=836, ktrees_found=159),
               "d43e34bbbc40eab60ba52090e60a4879c5c92e25960151ca9af834c4cbca5a9a"),
        "k3": (_certify_counts(995, win_violators=30, ktrees_found=965),
               "eebb39c5b45452196587cdfa0737677c71a8bc14db480f250d386b8d2df666ad"),
        "k4": (_certify_counts(995, win_violators=4, ktrees_found=991),
               "1793ed6fc5072e1790b2640bfeaa59507d00550d7ce84b07520aef86787660fd"),
    }
    pinned_every_seed = True

    def __init__(self, max_n: int = 7, ks=(2, 3, 4)):
        self.max_n = max_n
        self.ks = ks

    def make_inputs(self, seed: int) -> dict:
        lines = corpus_lines(2, self.max_n, seed)
        return {f"k{k}": (k, lines) for k in self.ks}

    def run(self, inputs: dict, workers: int = 1, span=_no_span) -> dict[str, str]:
        # fork, as the package's own worker pool: unlike spawn it starts no
        # resource-tracker process that would outlive the benchmark
        pool = (ProcessPoolExecutor(workers, mp_context=get_context("fork"))
                if workers > 1 else None)
        try:
            reports = {}
            for label, (k, lines) in inputs.items():
                with span(label):
                    if pool is None:
                        results = certify_lines(k, lines)
                    else:
                        size = max(1, len(lines) // (workers * 8))
                        chunks = [(k, lines[i:i + size]) for i in range(0, len(lines), size)]
                        results = [r for part in pool.map(_certify_chunk, chunks) for r in part]
                    reports[label] = _certify_report(k, results)
            return reports
        finally:
            if pool is not None:
                pool.shutdown()

    def run_cli(self, inputs: dict, workdir: Path, cli) -> dict[str, str]:
        reports = {}
        for label, (k, lines) in inputs.items():
            stream = workdir / "corpus.g6"
            if not stream.exists():
                write_lines(stream, lines)
            wins = cli(["certify", "win", "--k", str(k), "-"], stdin=stream).splitlines()
            rest = [line for line, win in zip(lines, wins) if win == "null"]
            trees = cli(["certify", "ktree", "--k", str(k), "-"],
                        stdin=write_lines(workdir / f"{label}.nowin.g6", rest)).splitlines()
            if len(wins) != len(lines) or len(trees) != len(rest):
                raise RuntimeError(f"certify printed {len(wins)} and {len(trees)} lines "
                                   f"for {len(lines)} and {len(rest)} graphs")
            tree_of = dict(zip(rest, trees))
            reports[label] = _certify_report(
                k, [(line, win, tree_of.get(line)) for line, win in zip(lines, wins)])
        return reports

    def items(self, reports: dict[str, str]) -> int:
        return sum(self.counts(text)["graphs"] for text in reports.values())

    def counts(self, text: str) -> dict:
        doc = json.loads(text)
        return {key: doc[key] for key in ("graphs", "win_violators", "ktrees_found",
                                          "ktrees_missing")}

    def problems(self, text: str) -> list[str]:
        """Every certificate is re-checked here, independently of the
        package's own validators."""
        doc = json.loads(text)
        k = doc["k"]
        problems = []
        for line, win, tree in doc["certificates"]:
            adj = graphs.from_graph6(line).adj
            if win != "null":
                if not _is_win_violator(adj, k, json.loads(win)["data"]):
                    problems.append(f"{line}: invalid Win violator {win}")
            elif tree in (None, "null"):
                problems.append(f"{line}: neither a Win violator nor a {k}-tree")
            elif not _is_k_tree(adj, k, json.loads(tree)["data"]):
                problems.append(f"{line}: invalid {k}-tree {tree}")
        return problems

    def pinned_text(self, text: str) -> str:
        """Which searches succeeded, without the certificates themselves, so
        a rewrite that finds another valid certificate keeps the pin."""
        doc = json.loads(text)
        return json.dumps([[line, win != "null", tree not in (None, "null")]
                           for line, win, tree in doc["certificates"]])


def _components(adj: np.ndarray, alive: list[int]) -> int:
    alive_set, seen, count = set(alive), set(), 0
    for start in alive:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            v = stack.pop()
            for u in np.flatnonzero(adj[v]).tolist():
                if u in alive_set and u not in seen:
                    seen.add(u)
                    stack.append(u)
    return count


def _is_win_violator(adj: np.ndarray, k: int, removed: list[int]) -> bool:
    gone = set(removed)
    alive = [v for v in range(len(adj)) if v not in gone]
    return bool(removed) and _components(adj, alive) > (k - 2) * len(removed) + 2


def _is_k_tree(adj: np.ndarray, k: int, edges: list[list[int]]) -> bool:
    n = len(adj)
    if len(edges) != n - 1:
        return False
    degree = [0] * n
    for u, v in edges:
        if not adj[u, v]:
            return False
        degree[u] += 1
        degree[v] += 1
    tree = np.zeros_like(adj)
    for u, v in edges:
        tree[u, v] = tree[v, u] = True
    # n - 1 edges and connected: a spanning tree
    return max(degree, default=0) <= k and _components(tree, list(range(n))) == 1


def _smoke(workload):
    """A tiny, unpinned copy of a workload, for the benchmark's self-test."""
    workload.name += "-smoke"
    workload.pins = {}
    return workload


WORKLOADS = {w.name: w for w in (
    CorpusHamilton(), MatchingExhaustive(), KtreeDense(), CorpusCertify(),
    _smoke(CorpusHamilton(max_n=5)),
    _smoke(MatchingExhaustive(nx=2, grid=((1, 0.0),))),
    _smoke(KtreeDense(orders=((22, 1, 0.95),))),
    _smoke(CorpusCertify(max_n=5, ks=(3,))),
)}
