"""In-memory spans around the library's layer boundaries.

Each public function a layer exposes is wrapped in the module namespace where
its caller looks it up (``qviterbi.engine``, ``qviterbi.cli`` and the
``TRAINERS`` table), so the program itself is not modified. A span is the tuple
(name, start, end, parent, request id); ``parent`` is the index of the
enclosing span or -1. Spans stay in a list until the run ends.
"""
from __future__ import annotations

import functools
import gzip
import json
import time
from contextlib import contextmanager

# Attribute name -> span name. The first part of a span name is the
# module that defines the function, which is the layer it belongs to.
ENGINE_WRAPS = {
    "build_mixer_hamiltonian": "hamiltonians.build_mixer_hamiltonian",
    "prepare_uniform_codespace": "statevector.prepare_uniform_codespace",
    "apply_mixer_unitary": "statevector.apply_mixer_unitary",
    "apply_cost_unitary": "statevector.apply_cost_unitary",
    "measure_counts": "statevector.measure_counts",
    "run_pqc": "engine.run_pqc",
    "expectation_exact": "engine.expectation",
    "expectation_sampled": "engine.expectation",
    "minimize": "engine.minimize",
    "ml_brute_force": "trellis.ml_brute_force",
}
CLI_WRAPS = {
    "load_code": "codes.load_code",
    "build_trellis": "trellis.build_trellis",
    "viterbi_decode": "trellis.viterbi_decode",
    "run_pqc": "engine.run_pqc",
}
TRAINER_SPAN = "engine.train"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.request_id = -1

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request_id)

        return traced

    @contextmanager
    def installed(self, engine, cli):
        """Wrap the layer functions for the duration of the block."""
        saved = []

        def patch(owner, key, name, getter, setter):
            original = getter(owner, key)
            saved.append((owner, key, original, setter))
            setter(owner, key, self.wrap(original, name))

        try:
            for attr, name in ENGINE_WRAPS.items():
                patch(engine, attr, name, getattr, setattr)
            for attr, name in CLI_WRAPS.items():
                patch(cli, attr, name, getattr, setattr)
            for key in list(engine.TRAINERS):
                patch(engine.TRAINERS, key, TRAINER_SPAN, dict.__getitem__, dict.__setitem__)
            yield self
        finally:
            for owner, key, original, setter in reversed(saved):
                setter(owner, key, original)

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, list]:
    """Per span name: [calls, total self time, total duration].

    Self time is the span's duration minus the part of its interval that
    its child spans cover, with overlapping children counted once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, list] = {}
    for idx, (name, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        entry = out.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
        entry[2] += end - start
    return out
