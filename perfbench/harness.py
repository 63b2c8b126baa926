"""The measurement loop shared by every workload.

A workload is a module with `setup(api, seed)`, `requests(corpus, seed)`,
`pass_order(requests, rng)` and `close(corpus)`.  One client runs the
requests in a closed loop: the next request starts only when the previous
one has returned and been checked.  A pass runs every request once.  A
run makes one whole pass, then samples until its time is up, the last
pass cut short.  Cheap requests get more samples: after each full pass,
light passes re-run the requests that took under `LIGHT_NS` in the first
one, for up to `LIGHT_SHARE` of the full pass's time.  Each request
enters the metrics once, whatever its number of samples, so every run
measures the same request mix.

Every reported time is scaled to a reference host speed.  On a host
shared with other tenants, the same request runs up to a quarter faster
or slower for stretches of seconds to minutes, as the neighbours come
and go.  So a fixed loop of pure-Python dict, set and tuple work (the
kind of work the library does) is timed between requests, at least every
`CALIBRATE_EVERY_NS`, and each timed interval is multiplied by
`REFERENCE_NS` over the median loop time just before and after it.  On a
host where the loop takes `REFERENCE_NS`, scaled and wall times agree.
The unscaled metrics are printed and kept beside the scaled ones.  A
request's latency is the median of its scaled samples.
"""

from __future__ import annotations

import gc
import hashlib
import random
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from time import perf_counter, perf_counter_ns

from spans import LAYERS, Api, Tracer, summarize

#: Set-ups before the measured passes; one more follows the first
#: request that ends each `SETUP_EVERY` seconds into them, so that the
#: set-ups, like the requests, sample the host's state across the run.
#: setup_s is the median of them all.
SETUP_REPEATS = 5
SETUP_EVERY = 4.0
#: In a traced pass of a workload with probes, one probe pair runs after
#: this many requests.
PROBE_EVERY = 3
#: Requests faster than this in the first pass are sampled again in
#: light passes.
LIGHT_NS = 100_000_000
#: Light passes after a full pass take at most this share of its time.
LIGHT_SHARE = 0.5
#: The calibration loop runs between requests once this long has passed
#: since it last ran.
CALIBRATE_EVERY_NS = 25_000_000
#: A timed interval is scaled by the median of this many loop times
#: before it and as many after it.
CALIBRATE_NEAR = 2
#: Reference time of the calibration loop: a round figure within the
#: 0.6 to 1.2 ms its median took over runs on the 2-vCPU Xeon VM (CPython
#: 3.11) where the benchmark was tuned.  Scaled times are wall times on a
#: host where the loop takes this long.
REFERENCE_NS = 1_000_000
#: Failures whose details are printed to stderr.
REPORTED_FAILURES = 5


class Request:
    """One request: untimed preparation, the timed library calls, and an
    untimed check of the output against an independent expectation."""

    kind = "request"

    def __init__(self, key: str):
        self.key = key

    def prepare(self, ctx: dict) -> tuple:
        """Arguments for `call`, from the pass context; untimed."""
        return ()

    def call(self, api, *args):
        raise NotImplementedError

    def remember(self, ctx: dict, out) -> None:
        """Keep what later requests of the pass need; untimed."""

    def check(self, out, args: tuple) -> str | None:
        """A description of what is wrong with `out`, or None."""
        raise NotImplementedError

    def summary(self, out) -> str:
        """Canonical text of the output, hashed into the run's digest."""
        raise NotImplementedError


class Outcome:
    """Latencies, failures and output digests of a run's passes."""

    def __init__(self, requests: list[Request]):
        self.requests = requests
        self.summaries: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.reported = 0

    def fail(self, req: Request, message: str) -> None:
        self.failed += 1
        if self.reported < REPORTED_FAILURES:
            self.reported += 1
            print(f"FAILED {req.kind} {req.key}: {message}", file=sys.stderr)

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in range(len(self.requests)):
            h.update(self.summaries.get(index, "<missing>").encode("utf-8"))
            h.update(b"\0")
        return h.hexdigest()


def _calibration_loop() -> int:
    """Fixed pure-Python work: tuple keys in a dict and a set."""
    counts: dict = {}
    seen: set = set()
    for i in range(1500):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        seen.add(key)
        seen.discard((i % 5, 1))
    return len(counts) + len(seen)


class HostSpeed:
    """Times of the calibration loop across a run, to scale the timed
    intervals between them to the reference speed."""

    def __init__(self):
        self.at: list[int] = []
        self.ns: list[int] = []

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        _calibration_loop()
        end = perf_counter_ns()
        if enabled:
            gc.enable()
        self.at.append(end)
        self.ns.append(end - start)

    def tick(self) -> None:
        if not self.at or perf_counter_ns() - self.at[-1] >= CALIBRATE_EVERY_NS:
            self.sample()

    def scaled(self, start: int, end: int) -> float:
        """`end - start` in ns at the reference speed."""
        first = bisect_left(self.at, start)
        last = bisect_right(self.at, end)
        near = self.ns[max(0, first - CALIBRATE_NEAR):last + CALIBRATE_NEAR]
        return (end - start) * REFERENCE_NS / statistics.median(near)


def run_pass(outcome: Outcome, api, order, tracer=None, label="", probes=(), ctx=None,
             deadline=None, between=None) -> dict[int, tuple[int, int]]:
    """Run each request once in the given order, starting none after
    `deadline` and calling `between` after each; returns each request's
    start and end in ns by its index.  `ctx` carries what requests remember for
    later ones; a light pass reuses that of the full pass before it.

    A request that raises or fails its check counts as failed; its
    latency still counts, as a user would have waited for it.
    """
    ctx = {} if ctx is None else ctx
    timed = {}
    for position, index in enumerate(order):
        if deadline is not None and perf_counter() >= deadline:
            break
        req = outcome.requests[index]
        outcome.attempted += 1
        try:
            args = req.prepare(ctx)
        except Exception:
            outcome.fail(req, "preparation failed:\n" + traceback.format_exc())
            continue
        close = tracer.request_span(f"{label}.{position}", req.kind) if tracer else None
        start = perf_counter_ns()
        try:
            out = req.call(api, *args)
            error = None
        except Exception:
            out = None
            error = "raised:\n" + traceback.format_exc()
        end = perf_counter_ns()
        if close is not None:
            close(error is not None)
        timed[index] = (start, end)
        if error is None:
            try:
                req.remember(ctx, out)
                error = req.check(out, args)
                summary = req.summary(out)
            except Exception:
                error = "check raised:\n" + traceback.format_exc()
        if error is None:
            known = outcome.summaries.setdefault(index, summary)
            if known != summary:
                error = "output differs from the same request in an earlier pass"
        if error is not None:
            outcome.fail(req, error)
        if probes and (position + 1) % PROBE_EVERY == 0:
            tracer.request = f"{label}.probe"
            for attr, argv in probes:
                getattr(api, attr)(*argv)
        if between is not None:
            between()
    return timed


def shuffled(requests, rng: random.Random) -> list[int]:
    """A pass order: every request once, in a seeded order."""
    order = list(range(len(requests)))
    rng.shuffle(order)
    return order


def _setup(workload, seed: int, speed: HostSpeed) -> tuple[float, float, object]:
    """One set-up: its wall and scaled time in s, and the corpus."""
    gc.collect()
    speed.sample()
    start = perf_counter_ns()
    corpus = workload.setup(Api(), seed)
    end = perf_counter_ns()
    speed.sample()
    return (end - start) / 1e9, speed.scaled(start, end) / 1e9, corpus


def _keep_going(started: float, pass_seconds: list[float], seconds: float) -> bool:
    """Whether one more whole pass still fits into the measured time."""
    elapsed = perf_counter() - started
    return elapsed + statistics.mean(pass_seconds) <= seconds


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run: set-up times, then one whole pass, and full and
    light passes until `seconds` have passed since it started."""
    speed = HostSpeed()
    setups: list[tuple[float, float]] = []
    corpus = None
    for _ in range(SETUP_REPEATS):
        if corpus is not None:
            workload.close(corpus)
        *times, corpus = _setup(workload, seed, speed)
        setups.append(times)
    next_setup = perf_counter() + SETUP_EVERY

    def between():
        nonlocal next_setup
        speed.tick()
        if perf_counter() >= next_setup:
            *times, extra = _setup(workload, seed, speed)
            workload.close(extra)
            setups.append(times)
            next_setup = perf_counter() + SETUP_EVERY

    try:
        requests = workload.requests(corpus, seed)
        rng = random.Random(seed)
        outcome = Outcome(requests)
        gc.collect()
        passes: list[dict[int, tuple[int, int]]] = []
        full_passes = 0
        deadline = perf_counter() + seconds
        speed.sample()
        while not passes or perf_counter() < deadline:
            ctx: dict = {}
            t0 = perf_counter()
            order = workload.pass_order(requests, rng)
            passes.append(run_pass(outcome, Api(), order, ctx=ctx,
                                   deadline=deadline if passes else None, between=between))
            full_seconds = perf_counter() - t0
            full_passes += 1
            light = {i for i, (start, end) in passes[0].items() if end - start < LIGHT_NS}
            spent = 0.0
            while light and spent < LIGHT_SHARE * full_seconds and perf_counter() < deadline:
                t0 = perf_counter()
                order = [i for i in workload.pass_order(requests, rng) if i in light]
                passes.append(run_pass(outcome, Api(), order, ctx=ctx, deadline=deadline, between=between))
                spent += perf_counter() - t0
        speed.sample()
    finally:
        workload.close(corpus)
    wall = [{i: end - start for i, (start, end) in timed.items()} for timed in passes]
    scaled = [{i: speed.scaled(*span) for i, span in timed.items()} for timed in passes]
    return {
        "outcome": outcome,
        "passes": full_passes,
        "light_passes": len(passes) - full_passes,
        "setups": len(setups),
        "pass_requests": len(requests),
        "request_kinds": _kinds(requests),
        "timed_requests": sum(len(timed) for timed in passes),
        "calibration_ns": {"median": statistics.median(speed.ns), "reference": REFERENCE_NS,
                           "samples": len(speed.ns)},
        "pass_latencies_ns": [[latencies.get(i) for i in range(len(requests))] for latencies in wall],
        "metrics": _request_metrics(scaled, len(requests), [s for _, s in setups]),
        "unscaled_metrics": _request_metrics(wall, len(requests), [w for w, _ in setups]),
    }


def _request_metrics(passes: list[dict[int, float]], count: int, setup_times: list[float]) -> dict:
    """End-to-end metrics from each request's median latency."""
    typical = [
        statistics.median([latencies[i] for latencies in passes if i in latencies])
        for i in range(count)
        if any(i in latencies for latencies in passes)
    ]
    return {
        "throughput_rps": (len(typical) / (sum(typical) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(typical) / 1e6, "ms"),
        "latency_p90_ms": (statistics.quantiles(typical, n=10, method="inclusive")[8] / 1e6, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def _kinds(requests) -> dict[str, int]:
    kinds: dict[str, int] = {}
    for req in requests:
        kinds[req.kind] = kinds.get(req.kind, 0) + 1
    return dict(sorted(kinds.items()))


def measure_traced(workload, seed: int, seconds: float, tracer: Tracer) -> dict:
    """The traced run: a traced set-up, then untraced and traced passes in
    turn, so the tracing overhead is measured on the same requests."""
    corpus = workload.setup(Api(tracer), seed)
    traced_api = Api(tracer)
    probes = getattr(workload, "probes", lambda corpus: ())(corpus)
    try:
        requests = workload.requests(corpus, seed)
        rng = random.Random(seed)
        outcome = Outcome(requests)
        gc.collect()
        plain_ns: list[int] = []
        traced_phases: list[str] = []
        pair_seconds: list[float] = []
        started = perf_counter()
        while not pair_seconds or _keep_going(started, pair_seconds, seconds):
            t0 = perf_counter()
            timed = run_pass(outcome, Api(), workload.pass_order(requests, rng))
            plain_ns.append(sum(end - start for start, end in timed.values()))
            label = f"pass{len(traced_phases)}"
            tracer.phase = label
            run_pass(outcome, traced_api, workload.pass_order(requests, rng), tracer, label, probes)
            traced_phases.append(label)
            pair_seconds.append(perf_counter() - t0)
    finally:
        workload.close(corpus)
    return {
        "outcome": outcome,
        "passes": len(traced_phases),
        "pass_requests": len(requests),
        "request_kinds": _kinds(requests),
        "timed_requests": len(requests) * len(traced_phases),
        **layer_metrics(tracer, traced_phases, plain_ns),
    }


#: Spans whose self time per pass is reported as "<span>.busy_ms".
BUSY = (
    "fixtures.loads", "fixtures.dumps",
    "parity_core.validate",
    "chain.from_structure", "chain.check_complex", "chain.extract_structure",
    "morphisms.validate_morphism", "morphisms.check_strict_movement",
    "morphisms.induced_chain_map", "morphisms.compose_morphisms", "morphisms.apply_to_cell",
    "cells.enumerate_cells", "cells.atom_closure", "cells.excision_decompose",
    "cells.compose", "cells.validate_cell",
)
#: Work counts per pass, summed from the spans: (metric, unit).
WORK = (
    ("fixtures.loads.bytes", "bytes"), ("fixtures.dumps.bytes", "bytes"),
    ("parity_core.validate.calls", "count"), ("parity_core.validate.generators", "count"),
    ("cells.enumerate_cells.cells", "count"), ("cells.atom_closure.cells", "count"),
    ("cells.excision_decompose.slices", "count"), ("cells.compose.calls", "count"),
)
#: Layers whose share of request time is reported; "request" is the
#: benchmark's own time inside request spans, outside every layer call.
SHARED = ("fixtures", "parity_core", "chain", "morphisms", "cells", "cli", "request")


def layer_metrics(tracer: Tracer, phases: list[str], plain_ns: list[int]) -> dict:
    by_phase: dict[str, list] = {}
    for span in tracer.spans:
        if not span[4].startswith("cli.probe"):  # outside every request
            by_phase.setdefault(span[2], []).append(span)
    totals = [summarize(by_phase.get(phase, [])) for phase in phases]
    setup = summarize(by_phase.get("setup", []))
    consistent = all(t["work"] == totals[0]["work"] for t in totals)

    def busy_ms(name: str) -> float:
        return statistics.median(t["busy_ns"].get(name, 0) for t in totals) / 1e6

    metrics = {f"{name}.busy_ms": (busy_ms(name), "ms") for name in BUSY}
    metrics["generators.build.busy_ms"] = (setup["busy_ns"].get("generators.build", 0) / 1e6, "ms")
    for name, unit in WORK:
        metrics[name] = (totals[0]["work"].get(name, 0), unit)

    def durations(name: str) -> list[int]:
        return [s[6] - s[5] for s in tracer.spans if s[4] == name and s[2] in phases]

    start = durations("cli.probe_start")
    imported = durations("cli.probe_import")
    runs = durations("cli.run")
    if start and imported and runs:
        start_ms = statistics.median(start) / 1e6
        import_ms = statistics.median(imported) / 1e6
        exec_ms = statistics.median(runs) / 1e6
        metrics["cli.interp_start_ms"] = (start_ms, "ms")
        metrics["cli.import_ms"] = (import_ms - start_ms, "ms")
        metrics["cli.exec_ms"] = (exec_ms - import_ms, "ms")
    else:
        for name in ("cli.interp_start_ms", "cli.import_ms", "cli.exec_ms"):
            metrics[name] = (0.0, "ms")

    for layer in LAYERS:
        errors = setup["errors"].get(layer, 0) + sum(t["errors"].get(layer, 0) for t in totals)
        metrics[f"{layer}.errors"] = (errors, "count")

    for layer in SHARED:
        share = statistics.median(
            100 * sum(v for k, v in t["busy_ns"].items() if k.split(".")[0] == layer)
            / t["requests_ns"]
            for t in totals
        )
        metrics[f"share.{'bench' if layer == 'request' else layer}_pct"] = (share, "%")
    traced = statistics.median(t["requests_ns"] for t in totals)
    plain = statistics.median(plain_ns)
    metrics["trace.overhead_pct"] = (100 * (traced - plain) / plain, "%")
    return {"metrics": metrics, "consistent_counts": consistent}
