"""The benchmark's workloads, their correctness gate and their metrics.

Every workload is a closed loop driven from one process through the
public API of :mod:`repro.channel` and :mod:`repro.runner`:

``tpc_volta`` / ``gpc_volta`` / ``linkchan``
    Set up a covert channel (construct + ``calibrate()``), then transmit
    seeded payloads on it; repeat until the run's time is up.
``fig10_serve``
    Rounds of: a cold pass of three overlapping fig10 requests through
    ``serve_requests`` on a fresh private store, the same batch again
    several times warm (answered from the store), then a batch of
    ``CapacitySurface.predict`` queries.

Inputs come from ``--seed`` but are drawn from fixed pools whose outputs
are recorded in ``reference.json``, so every operation of every run is
checked exactly: a channel transmit against its recorded cycles, decoded
bits and spy-latency digest; a served fig10 payload against the recorded
in-process ``fig10_point`` result.  Channel payloads have a fixed weight
(half ones) so that the host cost of a transmit does not depend on the
seed — a '1' slot simulates dense contention, a '0' slot fast-forwards.
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import tempfile
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import VOLTA_V100, small_config
from repro.channel import GpcCovertChannel, LinkCovertChannel, TpcCovertChannel
from repro.config import ServiceConfig, SweepSupervision
from repro.metrics.registry import MetricsRegistry
from repro.runner.cache import ResultCache, canonical_json
from repro.runner.journal import SweepJournal
from repro.runner.runner import SimJob, execute
from repro.runner.service import SweepService, serve_requests
from repro.runner.supervisor import JobFailure
from repro.runner.surface import CapacitySurface, StaleSurfaceError

from .hostspeed import HostSpeed, nominal_factor
from .jobs import SPAN_DIR_ENV, read_spans
from .tracer import LayerTracer

ROOT = Path(__file__).resolve().parent
REFERENCE_PATH = ROOT / "reference.json"

CHANNEL_WORKLOADS = ("tpc_volta", "gpc_volta", "linkchan")
WORKLOADS = CHANNEL_WORKLOADS + ("fig10_serve",)

#: Payloads per channel workload with a recorded reference.
PAYLOAD_POOL = {"full": 32, "smoke": 4}
#: Payload bits per transmit.
PAYLOAD_BITS = {
    "full": {"tpc_volta": 8, "gpc_volta": 4, "linkchan": 6},
    "smoke": {"tpc_volta": 4, "gpc_volta": 4, "linkchan": 4},
}
#: Transmits per channel set-up, and the fewest set-ups a run makes (the
#: run keeps going past ``--seconds`` until it has them).  Short payloads,
#: several per set-up, give each run dozens of transmit samples.
TRANSMITS_PER_SETUP = 4
MIN_SETUPS = 3

#: fig10_serve shape: the iteration grid of every request, the pool of
#: job seeds, payload bits per channel and queries per round.  A run pairs
#: the job seeds up at random and serves every pair ``SERVE_PASSES``
#: times, so each run simulates the same points in a seeded grouping.
#: Set-up samples and warm passes are taken in every round, so that the
#: millisecond-scale figures sample the whole run, not one moment of it.
SERVE_GRID = {"full": (1, 2, 3, 4), "smoke": (1, 2)}
SERVE_JOB_SEEDS = {"full": tuple(range(1101, 1109)), "smoke": (1101, 1102)}
SERVE_BITS = {"full": 10, "smoke": 2}
SERVE_QUERIES = {"full": 600, "smoke": 200}
SERVE_PASSES = 2
#: Passed explicitly so no ``REPRO_SWEEP_*``/``REPRO_SERVICE_*`` variable
#: can reshape the workload.
SERVE_POLICY = SweepSupervision()
SERVE_SHAPE = ServiceConfig(shards=2)
SETUPS_PER_ROUND = 3
WARM_PASSES = 20
#: The reference is recorded with the program's own job function; every
#: round dispatches the benchmark's wrapper of it (same payload, spans).
FIG10_FN = "repro.runner.workloads.fig10_point"
SERVE_FN = "perfbench.jobs.timed_fig10_point"

#: Where fig10_serve puts its private stores (inside the checkout).
TMP_ROOT = ROOT.parent / ".perfbench_tmp"

#: End-to-end metrics: name -> unit, in print order.
END_TO_END = {
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "jobs_per_s": "1/s",
    "warm_request_s": "s",
    "bandwidth_kbps": "kbps",
    "peak_rss_mb": "MB",
}

RUNNER_LAYER = {
    "runner.job_s": "s",
    "runner.simulate_s": "s",
    "runner.dispatch_overhead_s": "s",
    "runner.cache.put_s": "s",
    "runner.journal.append_s": "s",
    "runner.dedup_ratio": "ratio",
    "runner.attempts": "count",
    "runner.retries": "count",
    "runner.failures": "count",
    "runner.cache.get_s": "s",
    "runner.cache.hit_ratio": "ratio",
    "runner.surface.build_s": "s",
    "runner.surface.predict_s": "s",
    "runner.surface.predict_p50_us": "us",
    "runner.surface.predict_p99_us": "us",
}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metrics: name -> unit, in print order."""
    from .tracer import TIERS

    units = {
        "sim.run_s": "s",
        "sim.loop_self_s": "s",
        "sim.ticks": "count",
        "sim.fast_forward_frac": "ratio",
    }
    for tier in TIERS:
        units[f"{tier}.self_s"] = "s"
        units[f"{tier}.ticks"] = "count"
    units["gpu.device_build_s"] = "s"
    units["channel.calibrate_s"] = "s"
    units["channel.transmit_s"] = "s"
    units.update(RUNNER_LAYER)
    units["trace_overhead_frac"] = "ratio"
    return units


# --------------------------------------------------------------------- #
# Shared helpers.
# --------------------------------------------------------------------- #
def digest(value: Any) -> str:
    """Short stable digest of a JSON-serialisable value."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def peak_rss_mb() -> float:
    """Peak resident set of this process so far.

    Read once the run's minimum work is done, so that it measures a fixed
    amount of work: later, time-filled iterations would add allocator
    fragmentation in proportion to how fast the host happened to be.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_s() -> float:
    """CPU time of this process and of its reaped children so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Gate:
    """Counts attempted and failed operations; keeps the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok

    def invariant(self, ok: bool, what: str) -> None:
        """A sanity condition of the run itself (not an operation)."""
        if not ok:
            self.failed += 1
            self.messages.append(what)


def _median_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    return {
        key: statistics.median(sample[key] for sample in samples)
        for key in samples[0]
    }


# --------------------------------------------------------------------- #
# Channel workloads.
# --------------------------------------------------------------------- #
def channel_factory(
    workload: str, scale: str, overrides: Optional[Dict[str, Any]] = None
) -> Callable[[], Any]:
    """Zero-argument builder of the workload's channel at default params.

    ``overrides`` replaces GpuConfig fields; the benchmark's own tests use
    it to perturb the model and confirm the gate catches the change.
    """
    if workload == "linkchan" or scale == "smoke":
        config = small_config()
    else:
        config = VOLTA_V100
    if overrides:
        config = dataclasses.replace(config, **overrides)
    cls = {
        "tpc_volta": TpcCovertChannel,
        "gpc_volta": GpcCovertChannel,
        "linkchan": LinkCovertChannel,
    }[workload]
    return lambda: cls(config)


def payload(workload: str, scale: str, index: int) -> List[int]:
    """Pool payload ``index``: a fixed-weight (half ones) random bit list."""
    bits = PAYLOAD_BITS[scale][workload]
    out = [1] * (bits // 2) + [0] * (bits - bits // 2)
    random.Random(f"{workload}/{scale}/{index}").shuffle(out)
    return out


def transmit_record(result) -> Dict[str, Any]:
    """What the gate compares for one transmit."""
    return {
        "cycles": result.cycles,
        "received": "".join(str(bit) for bit in result.received_symbols),
        "series": digest(sorted(result.measurements.items())),
    }


def record_channel(workload: str, scale: str) -> Dict[str, Any]:
    """Reference outputs for every pool payload (run in-process)."""
    channel = channel_factory(workload, scale)()
    threshold = channel.calibrate()
    payloads = []
    for index in range(PAYLOAD_POOL[scale]):
        payloads.append(
            transmit_record(channel.transmit(payload(workload, scale, index)))
        )
    return {"threshold": threshold, "payloads": payloads}


class _ChannelSide:
    """One channel instance plus its timings (untraced or traced)."""

    def __init__(self, factory, tracer: Optional[LayerTracer],
                 speed: Optional[HostSpeed] = None) -> None:
        self.factory = factory
        self.tracer = tracer
        self.speed = speed
        self.channel = None
        self.setup_s: List[float] = []
        self.transmit_s: List[float] = []
        self.cycles: List[int] = []
        self.bits = 0
        self.bit_errors = 0
        self.bandwidth_kbps: List[float] = []
        self.layers: List[Dict[str, float]] = []

    def _scope(self):
        return self.tracer if self.tracer is not None else nullcontext()

    def _scaled(self, elapsed: float) -> float:
        return elapsed * self.speed.scale() if self.speed else elapsed

    def setup(self) -> float:
        with self._scope():
            start = perf_counter()
            self.channel = self.factory()
            threshold = self.channel.calibrate()
            elapsed = perf_counter() - start
        self.setup_s.append(self._scaled(elapsed))
        return threshold

    def transmit(self, sent: List[int]) -> Dict[str, Any]:
        tracer = self.tracer
        if tracer is not None:
            tracer.reset()
        with self._scope():
            start = perf_counter()
            result = self.channel.transmit(sent)
            elapsed = perf_counter() - start
        self.transmit_s.append(self._scaled(elapsed))
        self.cycles.append(result.cycles)
        self.bits += len(sent)
        self.bit_errors += sum(
            int(a != b) for a, b in zip(sent, result.received_symbols)
        )
        self.bandwidth_kbps.append(result.bandwidth_bps / 1e3)
        if tracer is not None:
            layers = tracer.engine_metrics()
            layers["channel.transmit_s"] = elapsed
            layers["in_tick_s"] = tracer.in_tick_s()
            self.layers.append(layers)
        return transmit_record(result)


def run_channel(
    workload: str,
    scale: str,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Dict[str, Any],
    overrides: Optional[Dict[str, Any]] = None,
) -> Tuple[Gate, Dict[str, Any], List[str]]:
    """Run one channel workload; returns (gate, metrics, report lines)."""
    gate = Gate()
    factory = channel_factory(workload, scale, overrides)
    pool = PAYLOAD_POOL[scale]
    order = random.Random(seed).sample(range(pool), pool)
    plain = _ChannelSide(factory, None, None if trace else HostSpeed())
    tracer = LayerTracer() if trace else None
    traced = _ChannelSide(factory, tracer) if trace else None
    sides = [plain] + ([traced] if traced is not None else [])
    min_setups = 2 if trace else MIN_SETUPS
    deadline = perf_counter() + seconds
    sent_count = 0
    while len(plain.setup_s) < min_setups or perf_counter() < deadline:
        for side in sides:
            threshold = side.setup()
            gate.check(
                threshold == reference["threshold"],
                f"calibration threshold {threshold!r} != reference "
                f"{reference['threshold']!r}",
            )
        for _ in range(TRANSMITS_PER_SETUP):
            index = order[sent_count % pool]
            sent_count += 1
            sent = payload(workload, scale, index)
            expected = reference["payloads"][index]
            for side in sides:
                record = side.transmit(sent)
                gate.check(
                    record == expected,
                    f"payload {index}: {record} != reference {expected}",
                )
        if len(plain.setup_s) == min_setups:
            rss_mb = peak_rss_mb()

    median = statistics.median
    setup_s = median(plain.setup_s)
    transmit_s = median(plain.transmit_s)
    metrics = {
        "setup_s": setup_s,
        "sim_cycles_per_s": 1.0 / median(
            [t / c for c, t in zip(plain.cycles, plain.transmit_s)]),
        # A session is one set-up with its transmits.  Built from the two
        # medians, which a run has several times more samples for than it
        # has whole sessions.
        "jobs_per_s": 1.0 / (setup_s + TRANSMITS_PER_SETUP * transmit_s),
        "warm_request_s": transmit_s,
        "bandwidth_kbps": statistics.median(plain.bandwidth_kbps),
        "peak_rss_mb": rss_mb,
    }
    lines = [
        f"samples setups={len(plain.setup_s)} "
        f"transmits={len(plain.transmit_s)} bits={plain.bits}",
        f"error_rate {plain.bit_errors / plain.bits!r} ratio",
    ]
    if plain.speed is not None:
        lines.append(plain.speed.report())
    if traced is not None:
        in_tick, in_loop = tracer.tick_cost
        lines.append(f"tick_wrapper_cost_ns in_tick={in_tick * 1e9:.0f} "
                     f"in_loop={in_loop * 1e9:.0f}")
        metrics = _channel_layers(workload, plain, traced, gate)
    return gate, metrics, lines


def _channel_layers(
    workload: str, plain: _ChannelSide, traced: _ChannelSide, gate: Gate
) -> Dict[str, Any]:
    """Per-layer metrics of a traced channel run: medians per transmit."""
    for layers in traced.layers:
        gate.invariant(
            layers["in_tick_s"] <= layers["sim.run_s"],
            f"in-tick time {layers['in_tick_s']} exceeds sim.run_s "
            f"{layers['sim.run_s']}",
        )
        interconnect_ticks = sum(
            value for key, value in layers.items()
            if key.startswith("interconnect.") and key.endswith(".ticks")
        )
        if workload == "linkchan":
            gate.invariant(interconnect_ticks > 0,
                           "linkchan ticked no interconnect component")
        else:
            gate.invariant(interconnect_ticks == 0,
                           f"{workload} ticked {interconnect_ticks} "
                           "interconnect components")
    metrics = _median_metrics(traced.layers)
    del metrics["in_tick_s"]
    metrics["channel.calibrate_s"] = statistics.median(traced.setup_s)
    metrics.update({key: 0.0 for key in RUNNER_LAYER})
    untraced = sum(plain.setup_s) + sum(plain.transmit_s)
    traced_wall = sum(traced.setup_s) + sum(traced.transmit_s)
    metrics["trace_overhead_frac"] = (traced_wall - untraced) / untraced
    return metrics


# --------------------------------------------------------------------- #
# fig10_serve.
# --------------------------------------------------------------------- #
def serve_point_name(iteration: int, job_seed: int) -> str:
    return f"{iteration}/{job_seed}"


def serve_job(scale: str, fn: str, iteration: int, job_seed: int) -> SimJob:
    return SimJob(fn, small_config(), {
        "kind": "tpc",
        "iteration_count": iteration,
        "bits_per_channel": SERVE_BITS[scale],
        "seed": job_seed,
    })


def record_serve(scale: str) -> Dict[str, Any]:
    """Reference payloads: in-process ``fig10_point`` via ``execute``."""
    points = {}
    for job_seed in SERVE_JOB_SEEDS[scale]:
        for iteration in SERVE_GRID[scale]:
            result = execute(serve_job(scale, FIG10_FN, iteration, job_seed))
            points[serve_point_name(iteration, job_seed)] = digest(result)
    return {"points": points}


def serve_requests_for(
    scale: str, rng: random.Random, fn: str, job_seeds: Sequence[int]
) -> Tuple[List[List[SimJob]], List[str]]:
    """Three overlapping fig10 requests and the point name of each job.

    Requests A and B are the whole grid at job seeds ``a`` and ``b``,
    largest iteration count first so that the two shards finish close
    together whatever the seed; request C interleaves the two seeds over
    the grid in a seeded order, so every one of its points is shared with
    A or B.
    """
    grid = sorted(SERVE_GRID[scale], reverse=True)
    a, b = job_seeds
    plans = [
        [(it, a) for it in grid],
        [(it, b) for it in grid],
        [(it, a if i % 2 == 0 else b) for i, it in enumerate(grid)],
    ]
    rng.shuffle(plans[2])
    requests = [[serve_job(scale, fn, it, s) for it, s in plan]
                for plan in plans]
    names = [serve_point_name(it, s) for plan in plans for it, s in plan]
    return requests, names


def serve_queries(scale: str, rng: random.Random) -> List[Tuple[float, str]]:
    """Seeded query points with the answer source each must get."""
    grid = SERVE_GRID[scale]
    low, high = min(grid), max(grid)
    queries = []
    for _ in range(SERVE_QUERIES[scale]):
        kind = rng.randrange(3)
        if kind == 0:
            queries.append((float(rng.choice(grid)), "exact"))
        elif kind == 1:
            point = rng.uniform(low, high)
            while point in grid:
                point = rng.uniform(low, high)
            queries.append((point, "interpolated"))
        else:
            queries.append((high + rng.uniform(0.25, 4.0), "nearest"))
    return queries


async def _open_and_start(root: Path, registry: MetricsRegistry) -> None:
    cache = ResultCache(root / "store", metrics=registry)
    journal = SweepJournal(root / "journal.jsonl")
    async with SweepService(
        cache, policy=SERVE_POLICY, service=SERVE_SHAPE, journal=journal,
        metrics=registry,
    ):
        pass
    journal.close()


class _ServeRound:
    """One cold/warm/query round on a fresh private store."""

    def __init__(self, scale: str, seed_rng: random.Random,
                 job_seeds: Sequence[int], reference: Dict[str, Any],
                 gate: Gate, tracer: Optional[LayerTracer],
                 speed: Optional[HostSpeed] = None) -> None:
        self.reference = reference["points"]
        self.gate = gate
        self.tracer = tracer
        self.speed = speed
        self.requests, self.names = serve_requests_for(
            scale, seed_rng, SERVE_FN, job_seeds)
        self.queries = serve_queries(scale, seed_rng)
        self.layers: Dict[str, float] = {}

    def run(self) -> Dict[str, Any]:
        root = Path(tempfile.mkdtemp(prefix="serve-", dir=TMP_ROOT))
        try:
            with self.tracer if self.tracer is not None else nullcontext():
                return self._run(root)
        finally:
            shutil.rmtree(root, ignore_errors=True)

    def _scale(self) -> float:
        return self.speed.scale() if self.speed is not None else 1.0

    def _serve(self, cache, journal, registry):
        return serve_requests(
            self.requests, cache=cache, policy=SERVE_POLICY,
            service=SERVE_SHAPE, journal=journal, metrics=registry,
        )

    def _run(self, root: Path) -> Dict[str, Any]:
        gate, tracer = self.gate, self.tracer
        registry = MetricsRegistry()
        cache = ResultCache(root / "store", metrics=registry)
        journal = SweepJournal(root / "journal.jsonl")
        span_dir = root / "spans"
        os.environ[SPAN_DIR_ENV] = str(span_dir)
        submitted = sum(len(jobs) for jobs in self.requests)
        unique = len(set(self.names))
        warm_s: List[float] = []
        try:
            start, cpu0 = perf_counter(), cpu_s()
            cold, cold_manifest = self._serve(cache, journal, registry)
            cold_s = perf_counter() - start
            # The service has reaped every shard worker by now.  Their
            # probe kernels are not part of the pass; what they measured
            # scales the rest of it.
            simulate_s, kernels = read_spans(span_dir)
            cold_cpu_s = cpu_s() - cpu0 - sum(kernels)
            if self.speed is not None and kernels:
                cold_cpu_s *= nominal_factor(kernels)
            if tracer is not None:
                cold_layers = dict(tracer.span_s), dict(tracer.count)
                tracer.reset()
            hits, misses = cache.hits, cache.misses
            warm_passes = []
            for _ in range(WARM_PASSES):
                start = perf_counter()
                warm_passes.append(self._serve(cache, journal, registry))
                warm_s.append((perf_counter() - start) * self._scale())
            warm_hits = cache.hits - hits
            warm_misses = cache.misses - misses
            if tracer is not None:
                warm_layers = dict(tracer.span_s)
                tracer.reset()
        finally:
            os.environ.pop(SPAN_DIR_ENV, None)
            journal.close()
        cold_flat = [r for results in cold for r in results]
        rows: Dict[str, Dict[str, Any]] = {}
        sim_cycles = 0
        for name, result in zip(self.names, cold_flat):
            expected = self.reference[name]
            ok = (not isinstance(result, JobFailure)
                  and digest(result) == expected)
            gate.check(ok, f"cold point {name}: payload differs from "
                           "in-process fig10_point reference")
            if ok and name not in rows:
                rows[name] = result
                sim_cycles += sum(
                    device["cycles"]
                    for device in result["telemetry"]["per_device"]
                )
        gate.invariant(
            cold_manifest["dispatched"] == unique
            and cold_manifest["completed"] == unique,
            f"cold pass dispatched {cold_manifest['dispatched']} / "
            f"completed {cold_manifest['completed']}, expected {unique}",
        )
        for warm, warm_manifest in warm_passes:
            warm_flat = [r for results in warm for r in results]
            for name, hot, cold_result in zip(self.names, warm_flat,
                                              cold_flat):
                gate.check(hot == cold_result,
                           f"warm point {name}: differs from the cold pass")
            gate.invariant(
                warm_manifest["dispatched"] == 0
                and warm_manifest["cache_hit"] == submitted,
                f"warm pass dispatched {warm_manifest['dispatched']}, "
                f"cache_hit {warm_manifest['cache_hit']} of {submitted}",
            )

        by_point: Dict[float, List[float]] = {}
        for result in rows.values():
            by_point.setdefault(float(result["iterations"]), []).append(
                result["bandwidth_kbps"])
        means = {k: sum(v) / len(v) for k, v in by_point.items()}
        surface = CapacitySurface.from_rows(rows.values(), metrics=registry)
        latencies_us = []
        for point, source in self.queries:
            start = perf_counter()
            try:
                answer = surface.predict(iterations=point)
            except StaleSurfaceError as exc:
                latencies_us.append((perf_counter() - start) * 1e6)
                gate.check(False, f"query {point} refused: {exc}")
                continue
            latencies_us.append((perf_counter() - start) * 1e6)
            if source == "exact":
                ok = (answer.source == "exact"
                      and answer.bandwidth_kbps == means[point])
            elif source == "interpolated":
                below = max(k for k in means if k < point)
                above = min(k for k in means if k > point)
                low, high = sorted((means[below], means[above]))
                ok = (answer.source == "interpolated"
                      and low <= answer.bandwidth_kbps <= high)
            else:
                ok = answer.source == "nearest"
            gate.check(ok, f"query {point}: {answer} (expected {source})")

        if tracer is not None:
            spans, counts = cold_layers
            # The workers' probe kernels ran inside the jobs.
            job_s = spans.get("runner.job", 0.0) - sum(kernels)
            self.layers = {
                "runner.job_s": job_s,
                "runner.simulate_s": simulate_s,
                "runner.dispatch_overhead_s": job_s - simulate_s,
                "runner.cache.put_s": spans.get("runner.cache.put", 0.0),
                "runner.journal.append_s": spans.get(
                    "runner.journal.append", 0.0),
                "runner.dedup_ratio": submitted / cold_manifest["dispatched"],
                "runner.attempts": counts.get("runner.attempts", 0),
                "runner.retries": counts.get("runner.retries", 0),
                "runner.failures": counts.get("runner.failures", 0),
                "runner.cache.get_s": warm_layers.get(
                    "runner.cache.get", 0.0) / WARM_PASSES,
                "runner.cache.hit_ratio": (
                    warm_hits / (warm_hits + warm_misses)),
                "runner.surface.build_s": tracer.span_s.get(
                    "runner.surface.build", 0.0),
                "runner.surface.predict_s": tracer.span_s.get(
                    "runner.surface.predict", 0.0),
                "runner.surface.predict_p50_us": percentile(
                    tracer.predict_us, 50),
                "runner.surface.predict_p99_us": percentile(
                    tracer.predict_us, 99),
            }
        return {
            "cold_s": cold_s,
            "cold_cpu_s": cold_cpu_s,
            "warm_s": warm_s,
            "unique": unique,
            "sim_cycles": sim_cycles,
            "rows": rows,
            "latencies_us": latencies_us,
        }


def run_serve(
    scale: str,
    seed: int,
    seconds: float,
    trace: bool,
    reference: Dict[str, Any],
) -> Tuple[Gate, Dict[str, Any], List[str]]:
    """Run fig10_serve; returns (gate, metrics, report lines)."""
    gate = Gate()
    rng = random.Random(seed)
    registry = MetricsRegistry()
    setups: List[float] = []
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    tracer = LayerTracer(engine=False) if trace else None
    speed = None if trace else HostSpeed()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    traced_layers: List[Dict[str, float]] = []
    pool = rng.sample(SERVE_JOB_SEEDS[scale], len(SERVE_JOB_SEEDS[scale]))
    pairs = [pool[i:i + 2] for i in range(0, len(pool), 2)]
    min_rounds = len(pairs) * (1 if trace else SERVE_PASSES)
    deadline = perf_counter() + seconds
    while len(plain) < min_rounds or perf_counter() < deadline:
        for _ in range(SETUPS_PER_ROUND):
            root = Path(tempfile.mkdtemp(prefix="setup-", dir=TMP_ROOT))
            try:
                start = perf_counter()
                asyncio.run(_open_and_start(root, registry))
                elapsed = perf_counter() - start
                setups.append(elapsed * speed.scale() if speed else elapsed)
            finally:
                shutil.rmtree(root, ignore_errors=True)
        job_seeds = pairs[len(plain) % len(pairs)]
        round_rng = random.Random(rng.random())
        state = round_rng.getstate()
        plain.append(_ServeRound(scale, round_rng, job_seeds, reference,
                                 gate, None, speed).run())
        if tracer is not None:
            round_rng.setstate(state)
            traced_round = _ServeRound(scale, round_rng, job_seeds,
                                       reference, gate, tracer)
            traced.append(traced_round.run())
            traced_layers.append(traced_round.layers)
            tracer.reset()
        if len(plain) == min_rounds:
            rss_mb = peak_rss_mb()

    try:
        TMP_ROOT.rmdir()
    except OSError:  # not empty: another run is using it
        pass
    latencies = [us for r in plain for us in r["latencies_us"]]
    served: Dict[str, Dict[str, Any]] = {}
    for r in plain:
        served.update(r["rows"])
    if not served:
        raise RuntimeError("fig10_serve: no point was served correctly")
    # Cold-pass rates per CPU second of the parent and its shard workers,
    # so that a host that briefly gives the run one CPU instead of two
    # does not halve them; the wall rate is printed beside them.
    cold_cpu_s = sum(r["cold_cpu_s"] for r in plain)
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_cycles_per_s": sum(r["sim_cycles"] for r in plain) / cold_cpu_s,
        "jobs_per_s": sum(r["unique"] for r in plain) / cold_cpu_s,
        "warm_request_s": statistics.median(
            [s for r in plain for s in r["warm_s"]]),
        "bandwidth_kbps": statistics.mean(
            row["bandwidth_kbps"] for row in served.values()),
        "peak_rss_mb": rss_mb,
    }
    lines = [
        f"samples setups={len(setups)} rounds={len(plain)} "
        f"points={len(served)} queries={len(latencies)}",
        "cold_wall_jobs_per_s "
        f"{sum(r['unique'] for r in plain) / sum(r['cold_s'] for r in plain)!r}"
        " 1/s",
        "error_rate "
        f"{statistics.mean(row['error_rate'] for row in served.values())!r}"
        " ratio",
        f"query_p50_us {percentile(latencies, 50)!r} us",
        f"query_p99_us {percentile(latencies, 99)!r} us "
        f"({len(latencies) - int(len(latencies) * 0.99)} samples above)",
    ]
    if speed is not None:
        lines.append(speed.report())
    if tracer is not None:
        metrics = {key: 0.0
                   for key in LayerTracer(engine=False).engine_metrics()}
        metrics.update({"channel.calibrate_s": 0.0,
                        "channel.transmit_s": 0.0})
        metrics.update(_median_metrics(traced_layers))
        untraced = sum(r["cold_s"] + sum(r["warm_s"]) for r in plain)
        traced_wall = sum(r["cold_s"] + sum(r["warm_s"]) for r in traced)
        metrics["trace_overhead_frac"] = (traced_wall - untraced) / untraced
    return gate, metrics, lines
