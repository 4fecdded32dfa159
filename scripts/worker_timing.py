"""Wall time of three harness runs at one and at two workers.

usage: PYTHONPATH=src python3 scripts/worker_timing.py [--repeats N]

Times ``verify_hamilton_condition`` and ``verify_bounds`` over the
connected corpus on 4 <= n <= 8 (12,109 graphs, as graph6 lines, the
stream ``verify`` builds by default) and ``verify_matching_condition(4, 1,
0.0)`` (all 65,536 patterns).  Each harness runs once untimed at each worker
count, so the corpus is built and the worker pool started, then N times at
workers = 1 and 2 alternately.  Prints the median and range of each set of
runs, in seconds, with the CPU count and the Python and numpy versions.
"""

import argparse
import os
import platform
import statistics
import time
from functools import partial

import numpy as np

from spectralcert.verify import (
    connected_corpus_stream,
    verify_bounds,
    verify_hamilton_condition,
    verify_matching_condition,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    corpus = connected_corpus_stream(4, 8)
    runs = {
        f"verify_hamilton_condition, {len(corpus)} graphs":
            partial(verify_hamilton_condition, corpus, "rho"),
        f"verify_bounds, {len(corpus)} graphs": partial(verify_bounds, corpus),
        "verify_matching_condition(4, 1, 0.0)": partial(verify_matching_condition, 4, 1, 0.0),
    }
    print(f"{os.cpu_count()} CPUs, CPython {platform.python_version()}, numpy {np.__version__}")
    for name, run in runs.items():
        times: dict[int, list[float]] = {1: [], 2: []}
        for workers in times:
            run(workers=workers)
        for _ in range(args.repeats):
            for workers, spent in times.items():
                start = time.perf_counter()
                run(workers=workers)
                spent.append(time.perf_counter() - start)
        print(name)
        for workers, spent in times.items():
            print(f"  workers={workers}: median {statistics.median(spent):.3f} s, "
                  f"range {min(spent):.3f}-{max(spent):.3f} s")


if __name__ == "__main__":
    main()
