"""Layer boundaries and spans for the paritykit benchmark.

The workloads never call paritykit directly: they call the attributes of
an `Api`.  Untraced, those attributes are the library functions
themselves, so the end-to-end run pays nothing for the indirection.
Traced, each attribute is wrapped in a span that records its name, start,
end, parent span and request id, plus the work counts of that call.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import subprocess
from collections import defaultdict
from time import perf_counter_ns

from paritykit import cells, chain, fixtures, generators, morphisms, parity_core

#: The layers, in the order the per-layer metrics are reported.
LAYERS = ("fixtures", "generators", "parity_core", "chain", "morphisms", "cells", "cli")


def _calls(args, result):
    return {"calls": 1}


def _bytes_in(args, result):
    return {"calls": 1, "bytes": len(args[0].encode("utf-8"))}


def _bytes_out(args, result):
    return {"calls": 1, "bytes": len(result.encode("utf-8"))}


def _generators(args, result):
    return {"calls": 1, "generators": len(args[0])}


def _cells(args, result):
    return {"calls": 1, "cells": len(result)}


def _slices(args, result):
    return {"calls": 1, "slices": len(result)}


class CliCrash(RuntimeError):
    """A CLI process printed a traceback instead of a report or a message."""


def run_cli(argv, stdin_text, env, cwd):
    """Run one CLI process to completion; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        argv,
        input=None if stdin_text is None else stdin_text.encode("utf-8"),
        stdin=subprocess.DEVNULL if stdin_text is None else None,
        capture_output=True,
        env=env,
        cwd=cwd,
        check=False,
    )
    stderr = proc.stderr.decode("utf-8")
    if "Traceback (most recent call last)" in stderr:
        raise CliCrash(f"{argv[1:]} exited {proc.returncode} with a traceback:\n{stderr}")
    return proc.returncode, proc.stdout.decode("utf-8"), stderr


#: (layer, attribute, function, counts) for every public call the
#: workloads make; the span name is "<layer>.<attribute>".
ENTRY_POINTS = (
    ("fixtures", "loads", fixtures.loads, _bytes_in),
    ("fixtures", "dumps", fixtures.dumps, _bytes_out),
    ("generators", "build", generators.family, _calls),
    ("parity_core", "validate", parity_core.validate, _generators),
    ("chain", "from_structure", chain.from_structure, _calls),
    ("chain", "check_complex", chain.check_complex, _calls),
    ("chain", "extract_structure", chain.extract_structure, _calls),
    ("morphisms", "validate_morphism", morphisms.validate_morphism, _calls),
    ("morphisms", "check_strict_movement", morphisms.check_strict_movement, _calls),
    ("morphisms", "induced_chain_map", morphisms.induced_chain_map, _calls),
    ("morphisms", "compose_morphisms", morphisms.compose_morphisms, _calls),
    ("morphisms", "apply_to_cell", morphisms.apply_to_cell, _calls),
    ("cells", "enumerate_cells", cells.enumerate_cells, _cells),
    ("cells", "atom_closure", cells.atom_closure, _cells),
    ("cells", "excision_decompose", cells.excision_decompose, _slices),
    ("cells", "compose", cells.compose, _calls),
    ("cells", "face", cells.face, _calls),
    ("cells", "identity", cells.identity, _calls),
    ("cells", "validate_cell", cells.validate_cell, _calls),
    ("cli", "run", run_cli, _calls),
    ("cli", "probe_start", run_cli, _calls),
    ("cli", "probe_import", run_cli, _calls),
)


class Api:
    """One attribute per library entry point, traced or not."""

    def __init__(self, tracer: Tracer | None = None):
        for layer, attr, fn, counts in ENTRY_POINTS:
            if tracer is not None:
                fn = tracer.wrap(f"{layer}.{attr}", fn, counts)
            setattr(self, attr, fn)


class Tracer:
    """In-memory span recorder for a single-threaded run.

    A span is (id, parent id, phase, request id, name, start ns, end ns,
    counts, raised).  The phase names the setup or traced pass a span
    belongs to; the request id is shared by every span of one request.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self.phase = "setup"
        self.request = "setup"

    def wrap(self, name, fn, counts):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(sid)
            raised = True
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                work = {"calls": 1} if raised else counts(args, result)
                self.spans[sid] = (
                    sid, parent, self.phase, self.request, name, start, end, work, raised
                )

        return traced

    def request_span(self, request_id: str, kind: str):
        """Open the root span of one request; returns the function closing it."""
        self.request = request_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        start = perf_counter_ns()

        def close(raised: bool) -> None:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (
                sid, None, self.phase, request_id, f"request.{kind}", start, end, {}, raised
            )

        return close

    def write(self, path) -> None:
        keys = ("id", "parent", "phase", "request", "name", "start_ns", "end_ns", "counts", "raised")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span)), sort_keys=True) + "\n")


def self_times(spans) -> dict[int, int]:
    """Each span's duration minus the time its child spans cover.

    The run has one thread, so children never overlap each other and the
    covered part is the sum of their durations.
    """
    covered: dict[int, int] = defaultdict(int)
    for sid, parent, _, _, _, start, end, _, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return {span[0]: span[6] - span[5] - covered[span[0]] for span in spans}


def summarize(spans) -> dict:
    """Per-name totals over a set of spans: self time, counts and errors."""
    own = self_times(spans)
    busy_ns: dict[str, int] = defaultdict(int)
    work: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    requests_ns = 0
    for span in spans:
        sid, parent, _, _, name, start, end, counts, raised = span
        busy_ns[name] += own[sid]
        if parent is None and name.startswith("request."):
            requests_ns += end - start
        for key, value in counts.items():
            work[f"{name}.{key}"] += value
        if raised and not name.startswith("request."):
            errors[name.split(".")[0]] += 1
    return {"busy_ns": dict(busy_ns), "work": dict(work), "errors": dict(errors), "requests_ns": requests_ns}
