"""Time one workload's set-up in a fresh interpreter.

    python3 perfbench/setup_child.py WORKLOAD SEED

The timed span starts before ``spectralcert`` is imported and ends when the
inputs exist, so neither an in-module cache nor work moved to import time
can hide.  Prints one JSON line: the seconds taken and a digest of the
inputs, which the caller compares with its own inputs.
"""

import json
import sys
import time
from pathlib import Path


def main() -> None:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    inputs = workloads.WORKLOADS[sys.argv[1]].make_inputs(int(sys.argv[2]))
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "inputs_sha256": workloads.inputs_digest(inputs)}))


if __name__ == "__main__":
    main()
