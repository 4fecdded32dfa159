"""spectralcert benchmark: four harness workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the package is imported from its
``src`` directory.  With ``--trace 0`` the end-to-end metrics are measured
with tracing off; with ``--trace 1`` a traced run reports the per-layer
metrics.  Every report is gated (see ``Gate``).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Scratch files go under ``.perfbench-out/`` in the checkout;
the traced run leaves its spans there.  See README.md for the workloads and
what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

MIN_ROUNDS = 3
SETUP_ROUNDS = 5
CHILD_TIMEOUT_S = 60.0
CLI_MAIN = "import sys; from spectralcert.cli import main; sys.exit(main(sys.argv[1:]))"
CAL_NOMINAL_S = 0.030
GAUGE_MATRIX = np.ones((6, 6))

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "cli_wall_s": "s",
    "wall_w2_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    from tracing import CERTIFIERS, HARNESS, SPECTRAL, WRAPPED

    units = {}
    for module, fn in WRAPPED:
        units[f"{module}.{fn}.calls"] = "count"
        units[f"{module}.{fn}.busy_s"] = "s"
        units[f"{module}.{fn}.self_s"] = "s"
    units[f"{SPECTRAL}.iterations"] = "count"
    for name in CERTIFIERS:
        units[f"{name}.found_frac"] = "frac"
    units[f"{HARNESS}.self_s"] = "s"
    units["trace_overhead_frac"] = "frac"
    return units


def calibration_loop() -> float:
    """Seconds taken by a fixed loop of interpreter work and of small numpy
    products, the two kinds of work the workloads do: the benchmark's gauge
    of host speed.  It calls nothing of the package, so no change to the
    package can move it."""
    start = perf_counter()
    acc, table, seq = 0, {}, []
    for i in range(40_000):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = acc
        seq.append(acc)
    seq.sort()
    v = np.ones(6)
    for _ in range(3_000):
        v = GAUGE_MATRIX @ v
        v = v / np.linalg.norm(v)
    return perf_counter() - start


def host_scaled(call, cpus: set[int]):
    """Run call() on `cpus`, between two readings of the calibration loop
    on each of them; return its result and the factor that scales a time
    measured inside it to the nominal host speed, on which the loop takes
    CAL_NOMINAL_S.  Processes started by call() inherit the CPU set.

    On a shared host other tenants' load moves the speed of each virtual
    CPU by a quarter within seconds, and the medians of whole runs with it.
    Scaling each timed span by the speed measured just around it, on the
    CPUs it ran on, takes that out; what a change to the package does to
    its own time stays in."""
    before = _gauge(cpus)
    os.sched_setaffinity(0, cpus)
    result = call()
    after = _gauge(cpus)
    return result, 2 * CAL_NOMINAL_S / (before + after)


def _gauge(cpus: set[int]) -> float:
    """Mean time of the calibration loop over `cpus`, read on each in turn."""
    times = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        times.append(calibration_loop())
    return sum(times) / len(times)


def stopwatch(call):
    start = perf_counter()
    result = call()
    return result, perf_counter() - start


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPECTRALCERT_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], workdir: Path, stdin: Path | None = None) -> tuple[float, float, str]:
    """Run a fresh interpreter; return (wall seconds, peak RSS in MB, stdout).

    Raises ChildFailed on a non-zero exit or a timeout.
    """
    out, err = workdir / "child.out", workdir / "child.err"
    with open(stdin or os.devnull, "rb") as fin, open(out, "wb") as fout, open(err, "wb") as ferr:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], stdin=fin, stdout=fout, stderr=ferr,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err.read_text(errors="replace").strip().splitlines()[-1:]
        raise ChildFailed(f"{argv[:4]} exited {proc.returncode}: {' '.join(tail)}")
    return elapsed, usage.ru_maxrss / 1024.0, out.read_text()


class Gate:
    """Correctness gate: every report is checked by the workload's own rules
    (pinned counts and digests, no violations) and must be byte-identical to
    the first in-process report of the same call.  A call that raises, exits
    non-zero or fails either check counts as failed."""

    def __init__(self, workload, seed: int, labels):
        self.workload = workload
        self.seed = seed
        self.labels = list(labels)
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, count: int, problem: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(problem)

    def review(self, source: str, reports: dict[str, str]) -> None:
        first = self.reference is None
        if first:
            self.reference = {}
        for label in self.labels:
            self.attempted += 1
            text = reports.get(label)
            if text is None:
                problems = [f"{source}/{label}: no report"]
            elif first:
                self.reference[label] = text
                try:
                    problems = self.workload.check(label, text, self.seed)
                except (ValueError, KeyError, TypeError, IndexError) as exc:
                    problems = [f"{source}/{label}: unreadable report: {exc!r}"]
            elif text != self.reference.get(label):
                problems = [f"{source}/{label}: report differs from the in-process report"]
            else:
                problems = []
            if problems:
                self.failed += 1
                self.problems.extend(problems)

    def timed(self, source: str, call):
        """Run call() -> ({label: report}, times); review the reports;
        return the times, or None if the call raised."""
        try:
            reports, seconds = call()
        except Exception as exc:  # the benchmark keeps measuring and reports the failure
            self.fail(len(self.labels), f"{source}: {type(exc).__name__}: {exc}")
            return None
        self.review(source, reports)
        return seconds


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _sum_of_medians(passes: list[list[float]]) -> float:
    """Sum over the calls of a pass of each call's median over passes, so
    an outlier in one call spoils only that call's sample."""
    return sum(statistics.median(call) for call in zip(*passes))


def measure(workload, seed: int, seconds: float, workdir: Path) -> tuple[Gate, dict]:
    """End-to-end metrics with tracing off, over rounds of: the harness calls
    at workers = 1 and 2, the same calls through the CLI, and (in the first
    SETUP_ROUNDS rounds) one set-up in a fresh process.  Rounds repeat until
    `seconds` have passed, at least MIN_ROUNDS.  Every harness call, CLI
    process and set-up is timed on its own and scaled to the nominal host
    speed (see host_scaled).  A pass's time is the sum over its calls of
    each call's median over rounds; set-up and memory are medians over
    rounds.

    The workers = 2 pass runs on every CPU; every other timed call runs on
    one CPU, so the calibration loop read there tells its speed."""
    from workloads import inputs_digest

    every_cpu = os.sched_getaffinity(0)
    one_cpu = {max(every_cpu)}
    inputs = workload.make_inputs(seed)
    gate = Gate(workload, seed, inputs)
    gate.timed("in-process", lambda: (workload.run(inputs, 1), []))  # warm-up and reference
    items = workload.items(gate.reference) if gate.reference else 0
    want_inputs = inputs_digest(inputs)
    passes: dict[str, list[list[float]]] = {"wall_s": [], "wall_w2_s": [], "cli_wall_s": []}
    setups: list[float] = []
    peak_rss: list[float] = []
    cli_rss: list[float] = []

    def in_process(workers: int):
        reports, times = {}, []
        for label, payload in inputs.items():
            (part, elapsed), factor = host_scaled(
                lambda: stopwatch(lambda: workload.run({label: payload}, workers)),
                every_cpu if workers > 1 else one_cpu)
            reports.update(part)
            times.append(elapsed * factor)
        return reports, times

    def through_cli():
        times = []

        def cli(argv, stdin=None):
            (wall, rss, stdout), factor = host_scaled(
                lambda: run_child(["-c", CLI_MAIN, *argv], workdir, stdin), one_cpu)
            times.append(wall * factor)
            cli_rss.append(rss)
            return stdout

        return workload.run_cli(inputs, workdir, cli), times

    start, last, rounds = perf_counter(), 0.0, 0
    while rounds < MIN_ROUNDS or perf_counter() - start + last < seconds:
        round_start = perf_counter()
        if rounds < SETUP_ROUNDS:
            try:
                (_, _, stdout), factor = host_scaled(lambda: run_child(
                    [str(BENCH / "setup_child.py"), workload.name, str(seed)], workdir), one_cpu)
            except ChildFailed as exc:
                gate.fail(1, f"set-up: {exc}")
            else:
                setup = json.loads(stdout.splitlines()[-1])
                setups.append(setup["setup_s"] * factor)
                if setup["inputs_sha256"] != want_inputs:
                    gate.fail(1, "set-up: a fresh process made other inputs from the same seed")
                else:
                    gate.attempted += 1

        for metric, source, call in (("wall_s", "in-process", lambda: in_process(1)),
                                     ("wall_w2_s", "workers=2", lambda: in_process(2)),
                                     ("cli_wall_s", "cli", through_cli)):
            cli_rss.clear()
            times = gate.timed(source, call)
            if times is not None:
                passes[metric].append(times)
                if cli_rss:
                    peak_rss.append(max(cli_rss))
        last = perf_counter() - round_start
        rounds += 1

    metrics = {metric: _sum_of_medians(times) for metric, times in passes.items()}
    metrics["setup_s"] = _median(setups)
    metrics["peak_rss_mb"] = _median(peak_rss)
    wall = metrics["wall_s"]
    metrics["items_per_s"] = items / wall if wall else 0.0
    return gate, metrics


def measure_traced(workload, seed: int, seconds: float, trace_path: Path) -> tuple[Gate, dict]:
    """Per-layer metrics from traced passes at workers = 1.

    The traced run makes its inputs under tracing first (in this fresh
    process, so corpus generation is not cached), then alternates untraced
    and traced passes of the harness calls.  A layer's figures are its
    set-up share plus the median over traced passes.  The tracing overhead
    is the median over rounds of traced over untraced pass time, so both
    sides of a ratio ran within the same few seconds.
    """
    from tracing import CERTIFIERS, HARNESS, SPECTRAL, WRAPPED, Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.harness_call("setup", name="setup"):
            inputs = workload.make_inputs(seed)
    finally:
        tracer.uninstall()
    setup = tracer.summarize()
    gate = Gate(workload, seed, inputs)
    gate.timed("in-process", lambda: (workload.run(inputs, 1), []))  # warm-up and reference

    overheads, passes = [], []
    start, last, rounds = perf_counter(), 0.0, 0
    while rounds < MIN_ROUNDS or perf_counter() - start + last < seconds:
        round_start = perf_counter()
        plain = gate.timed("in-process", lambda: stopwatch(lambda: workload.run(inputs, 1)))
        first = len(tracer.spans)
        tracer.install()
        try:
            traced = gate.timed("traced", lambda: stopwatch(
                lambda: workload.run(inputs, 1, span=tracer.harness_call)))
        finally:
            tracer.uninstall()
        if traced is not None:
            passes.append(tracer.summarize(first))
            if plain:
                overheads.append(traced / plain - 1.0)
        last = perf_counter() - round_start
        rounds += 1
    tracer.dump(trace_path)

    def layer(key: str) -> float:
        return setup.get(key, 0) + _median([p.get(key, 0) for p in passes])

    metrics = {f"{module}.{fn}.{kind}": layer(f"{module}.{fn}.{kind}")
               for module, fn in WRAPPED for kind in ("calls", "busy_s", "self_s")}
    metrics[f"{SPECTRAL}.iterations"] = layer(f"{SPECTRAL}.outcome")
    for name in CERTIFIERS:
        calls = layer(f"{name}.calls")
        metrics[f"{name}.found_frac"] = layer(f"{name}.outcome") / calls if calls else 0.0
    metrics[f"{HARNESS}.self_s"] = _median([p.get(f"{HARNESS}.self_s", 0.0) for p in passes])
    metrics["trace_overhead_frac"] = _median(overheads)
    return gate, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spectralcert" / "__init__.py").is_file():
        print(f"error: no spectralcert package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        if args.trace:
            trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
            gate, values = measure_traced(workload, args.seed, args.seconds, trace_path)
            units = per_layer_units()
        else:
            gate, values = measure(workload, args.seed, args.seconds, workdir)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in gate.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    result = {
        "correct": gate.failed == 0 and gate.attempted > 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
