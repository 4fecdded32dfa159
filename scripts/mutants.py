"""Run tier-1 against one-line source mutants and list the ones it misses.

usage: python3 scripts/mutants.py

Each mutant in ``MUTANTS`` replaces one piece of text, which must occur
exactly once, in one file under ``src/``.  For each, the script copies
``src/``, ``tests/`` and ``pyproject.toml`` to a fresh temporary directory,
applies the mutant there and runs tier-1 with ``-x`` and criterion 5 (the
slowest test, which reaches none of these lines) deselected.  The unmutated
copy runs first and must pass.  A mutant whose run passes survived: no test
noticed the change.  The working tree is only read, never written.  Prints
one line per mutant, then the survivors, and exits 1 if there are any.
Each run takes about as long as tier-1 without criterion 5.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 900
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--deselect", "tests/test_acceptance.py::test_criterion_05_hall_equivalence"]

GRAPHS = "src/spectralcert/graphs.py"
VERIFY = "src/spectralcert/verify.py"
CERTIFIERS = "src/spectralcert/certifiers.py"
FAMILIES = "src/spectralcert/families.py"

# (file, old text, new text)
MUTANTS = [
    # the exhaustive matching stream's per-pattern path
    (VERIFY, "2 * n, bits.bit_count())", "2 * n, (bits >> 1).bit_count())"),
    (VERIFY, '_item_row(to_graph6(g).decode("ascii"), 2 * n,',
     '_item_row(to_graph6(g).decode("ascii"), n * n,'),
    (VERIFY, "[bits >> x * n & full for x in range(n)]",
     "[bits >> x * n & full >> 1 for x in range(n)]"),
    (GRAPHS, "return sum(map(int.bit_count, self._masks)) // 2",
     "return sum(map(int.bit_count, self._masks[1:])) // 2"),
    (GRAPHS, "return tuple(map(int.bit_count, self._masks))",
     "return tuple(map(int.bit_count, self._masks[::-1]))"),
    (GRAPHS, "return min(map(int.bit_count, g.neighbor_masks))",
     "return min(map(int.bit_count, g.neighbor_masks[1:]), default=0)"),
    (GRAPHS, "[mask << nx for mask in self._x_masks]",
     "[mask << nx - 1 for mask in self._x_masks]"),
    # the brute permanent, the matching certifier's oracle
    (CERTIFIERS, "step[used | low] = step.get(used | low, 0) + count", "step[used | low] = count"),
    (CERTIFIERS, "free = row & ~used", "free = row"),
    # thresholds and order guards
    (FAMILIES, "[1.0, a * c + c - 1, 0.0]", "[1.0, a * c + c, 0.0]"),
    (FAMILIES, "[[a * (n - 1), c, float(k)]", "[[a * n, c, float(k)]"),
    (VERIFY, "partial(_line_decode, 2 * k + 16)", "partial(_line_decode, 2 * k + 12)"),
    (VERIFY, 'n - 3 if variant == "rho"', 'n - 3.5 if variant == "rho"'),
    (VERIFY, "2 * n - 5)", "2 * n - 5.5)"),
    (VERIFY, "2 * delta + 8)", "2 * delta + 4)"),
    # the list form of from_graph6: each array test, the transpose, the blocks
    (GRAPHS, "ok = ((digits < 64).all(axis=1) & (head >= 1)", "ok = ((head >= 1)"),
    (GRAPHS, "& (spare >= 0) & (spare < 6)", "& (spare >= 0)"),
    (GRAPHS, "\n                  & ((digits[:, -1] & (1 << spare.clip(0, 5)) - 1) == 0))", ")"),
    (GRAPHS, "line.isascii() else", "True else"),
    (GRAPHS, "    stack |= stack.transpose(0, 2, 1)\n", ""),
    (GRAPHS, "block = group[start:start + step]", "block = group[start:start + step - 1]"),
    (GRAPHS, "zip(block[of_n].tolist(),", "zip(block[of_n][1:].tolist(),"),
    # the decode stage: the items before a defect are eigensolved
    (VERIFY, "list(decode(chunk[:exc.index])), exc", "[], exc"),
    # the margin's strict and non-strict comparisons
    (VERIFY, "if value < threshold - check.margin:", "if value <= threshold - check.margin:"),
    (VERIFY, "elif value > threshold + check.margin:", "elif value >= threshold + check.margin:"),
    # the k-tree validator, one clause each
    (CERTIFIERS, "return max(deg) <= k if edges", "return max(deg) <= k + 1 if edges"),
    (CERTIFIERS, "if len(edges) != n - 1:", "if len(edges) > n - 1:"),
    (CERTIFIERS, "        if ru == rv:\n", "        if ru == rv and n < 0:\n"),
    (CERTIFIERS, "and masks[u] >> v & 1):", "):"),
    (CERTIFIERS, "if not (type(u) is type(v) is int and 0 <= u < n", "if not (0 <= u < n"),
]


def run_tier1(mutant: tuple[str, str, str] | None) -> tuple[bool, float]:
    """Whether tier-1 passes on a copy with the mutant applied, and its time."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            path, old, new = mutant
            text = (copy / path).read_text()
            if text.count(old) != 1:
                raise SystemExit(f"{path}: {old!r} occurs {text.count(old)} times, not once")
            (copy / path).write_text(text.replace(old, new))
        start = time.perf_counter()
        try:
            passed = subprocess.run(PYTEST, cwd=copy, env={**os.environ, "PYTHONPATH": "src"},
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                                    timeout=TIMEOUT_S).returncode == 0
        except subprocess.TimeoutExpired:
            passed = False  # a mutant that hangs the suite is caught by it
        return passed, time.perf_counter() - start


def main() -> None:
    passed, seconds = run_tier1(None)
    if not passed:
        raise SystemExit(f"tier-1 fails on the unmutated copy ({seconds:.0f} s)")
    print(f"unmutated: passed in {seconds:.0f} s", flush=True)
    survivors = []
    for i, mutant in enumerate(MUTANTS, 1):
        path, old, new = mutant
        passed, seconds = run_tier1(mutant)
        print(f"{i:2d} {'SURVIVED' if passed else 'killed  '} {seconds:4.0f} s  "
              f"{Path(path).name}: {old.strip()!r} -> {new.strip()!r}", flush=True)
        if passed:
            survivors.append(i)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} killed; "
          f"survivors: {survivors or 'none'}")
    sys.exit(1 if survivors else 0)


if __name__ == "__main__":
    main()
