"""Spans around the package's layer functions, recorded from outside it.

``Tracer.install`` replaces each wrapped function on every loaded
``spectralcert`` module that holds it, so calls resolved through any module
global (``spectralcert.verify.spectral_radius``,
``spectralcert.certifiers.is_connected``, ...) go through the wrapper;
``uninstall`` puts the originals back.  A span records name, start, end,
parent span, the id of the harness call it belongs to, and an outcome: the
iteration count for ``spectral_radius``, 1 or 0 (certificate found) for the
certifiers.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

WRAPPED = (
    ("graphs", "from_graph6"),
    ("graphs", "to_graph6"),
    ("graphs", "is_connected"),
    ("graphs", "min_degree"),
    ("verify", "bipartite_from_bits"),
    ("spectral", "a_matrix"),
    ("spectral", "spectral_radius"),
    ("certifiers", "find_k_tree"),
    ("certifiers", "perfect_matching"),
    ("certifiers", "find_win_violator"),
    ("families", "is_ktree_extremal"),
    ("families", "is_matching_extremal"),
    ("smallgraphs", "are_isomorphic"),
    ("smallgraphs", "connected_graphs"),
)
SPECTRAL = "spectral.spectral_radius"
CERTIFIERS = ("certifiers.find_k_tree", "certifiers.perfect_matching",
              "certifiers.find_win_violator")
HARNESS = "verify.harness"


def _outcome(name: str, result):
    if name == SPECTRAL:
        return result.iterations
    if name == "certifiers.perfect_matching":
        return int(type(result).__name__ == "PerfectMatching")
    if name in CERTIFIERS:
        return int(result is not None)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent, call id, outcome)
        self._stack: list[int] = []
        self._call_id: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index, parent, name, start, outcome=None) -> None:
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self._call_id, outcome)

    @contextmanager
    def harness_call(self, call_id: str, name: str = HARNESS):
        """Root span of one harness call; the spans inside carry its id."""
        self._call_id = call_id
        index, parent = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, name, start)
            self._call_id = None

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            index, parent = self._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(index, parent, name, start)
                raise
            self._close(index, parent, name, start, _outcome(name, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spectralcert" or key.startswith("spectralcert."))]
        for module_name, fn_name in WRAPPED:
            try:
                home = importlib.import_module(f"spectralcert.{module_name}")
            except ModuleNotFoundError:  # no longer provided: its calls stay 0
                continue
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summarize(self, first: int = 0) -> dict[str, float]:
        """Per span name over spans[first:]: calls, busy_s, self_s and the
        summed outcome.

        busy_s counts a span only when no ancestor has the same name, so a
        recursive call is not counted twice; self_s is a span's time minus
        the time its direct children cover.
        """
        spans = self.spans
        covered = [0.0] * (len(spans) - first)
        for name, start, end, parent, _, _ in spans[first:]:
            if parent >= first:
                covered[parent - first] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, parent, _, outcome) in enumerate(spans[first:]):
            duration = end - start
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + duration - covered[i]
            ancestor = parent
            while ancestor >= first and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < first:
                out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + duration
            if outcome is not None:
                out[f"{name}.outcome"] = out.get(f"{name}.outcome", 0) + outcome
        return out

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent", "call_id", "outcome"],
                       "spans": self.spans}, handle)
