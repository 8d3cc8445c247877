"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps public methods of the ``repro`` layers at class
level for the duration of a ``with`` block and restores them on exit.
Nothing inside ``repro`` is edited, so an untraced run executes exactly
the code a user runs.

* Engine components: every ``tick`` is timed and counted under the tier
  its component name maps to (``tpc*.mux`` -> ``noc.tpc_mux``,
  ``fab*.router`` -> ``interconnect.router``, ...).
* Engine loop: the outermost ``Engine.run_until``/``Engine.step`` call is
  ``sim.run``; ``sim.loop_self_s`` is that time minus the in-tick time.
* The tick wrapper's own cost is measured once per tracer on a no-op tick
  (:func:`tick_wrapper_cost`) and taken out of ``sim.loop_self_s`` and of
  each tier's ``self_s``, so neither is charged for the tracing.
* Device builds: outermost ``GpuDevice``/``MultiGpuSystem`` construction.
* Runner: ``ResultCache.get``/``put``, ``SweepJournal.record_result``, the
  service's ``run_supervised`` (one call per job), ``CapacitySurface``
  ``from_rows``/``predict``.

Component ticks run on the simulating thread only; runner spans may
arrive from the sweep service's shard threads and take a lock.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, MutableMapping, Tuple

from repro.gpu.device import GpuDevice
from repro.gpu.dram import MemoryController
from repro.gpu.l2slice import L2Slice
from repro.gpu.reply_path import GpcReplyDistributor
from repro.gpu.scheduler import ThreadBlockScheduler
from repro.gpu.sm import StreamingMultiprocessor
from repro.interconnect.link import FabricIngress, LinkPipe
from repro.interconnect.system import MultiGpuSystem
from repro.noc.crossbar import Crossbar
from repro.noc.mux import Mux
from repro.runner import service as service_module
from repro.runner.cache import ResultCache
from repro.runner.journal import SweepJournal
from repro.runner.surface import CapacitySurface
from repro.sim.engine import Engine

#: Tick tiers, in report order: (layer.tier, component class).
TICK_TIERS: Tuple[Tuple[str, type], ...] = (
    ("noc.tpc_mux", Mux),
    ("noc.gpc_mux", Mux),
    ("noc.xbar_req", Crossbar),
    ("noc.reply_mux", Mux),
    ("gpu.sm", StreamingMultiprocessor),
    ("gpu.l2slice", L2Slice),
    ("gpu.reply_dist", GpcReplyDistributor),
    ("gpu.dram", MemoryController),
    ("gpu.scheduler", ThreadBlockScheduler),
    ("interconnect.router", Crossbar),
    ("interconnect.link", LinkPipe),
    ("interconnect.ingress", FabricIngress),
    ("interconnect.fab_reply_mux", Mux),
)
TIERS = tuple(tier for tier, _ in TICK_TIERS)


def tier_of(component) -> str:
    """Map one engine component to its tier by class and name.

    Raises ``KeyError`` for a component no tier claims, so a new
    component kind cannot silently fall out of the accounting.
    """
    name = component.name
    if isinstance(component, Mux):
        if name.startswith("tpc") and name.endswith(".mux"):
            return "noc.tpc_mux"
        if name.endswith(".fab.replymux"):
            return "interconnect.fab_reply_mux"
        if name.startswith("gpc") and name.endswith(".replymux"):
            return "noc.reply_mux"
        if name.startswith("gpc") and name.endswith(".mux"):
            return "noc.gpc_mux"
    elif isinstance(component, Crossbar):
        if name == "xbar.req":
            return "noc.xbar_req"
        if name.startswith("fab") and name.endswith(".router"):
            return "interconnect.router"
    else:
        for tier, cls in TICK_TIERS:
            if cls not in (Mux, Crossbar) and isinstance(component, cls):
                return tier
    raise KeyError(f"no tier for component {name!r} ({type(component)})")


def tick_wrapper(
    original: Callable,
    tier_by_name: MutableMapping[Tuple[type, str], str],
    tick_s: MutableMapping[str, float],
    ticks: MutableMapping[str, int],
) -> Callable:
    """``original`` timed and counted into its component's tier."""

    def tick(component, cycle):
        start = perf_counter()
        original(component, cycle)
        elapsed = perf_counter() - start
        key = (type(component), component.name)
        tier = tier_by_name.get(key)
        if tier is None:
            tier = tier_by_name[key] = tier_of(component)
        tick_s[tier] += elapsed
        ticks[tier] += 1

    return tick


class _Probe:
    name = "probe"

    def tick(self, cycle) -> None:
        pass


def tick_wrapper_cost(calls: int = 20000, repeats: int = 5
                      ) -> Tuple[float, float]:
    """Seconds per tick that :func:`tick_wrapper` adds, by where they land.

    Returns ``(in_tick, in_loop)``.  ``in_tick`` is what the wrapper's own
    timing adds inside its timed region, beyond the plain ``tick`` call an
    untraced engine makes; it inflates a tier's ``self_s``.  ``in_loop``
    is the rest of the wrapper (frame, key, lookup, updates), which falls
    outside the timed region but inside ``sim.run``; it inflates
    ``sim.loop_self_s``.  Measured as the fastest of ``repeats`` batches of
    no-op ticks called the way the engine calls them, so it is a lower
    bound on the cost in a cache-cold engine loop.
    """
    probe = _Probe()
    plain = _Probe.tick
    tick_s: Dict[str, float] = defaultdict(float)
    wrapped = tick_wrapper(plain, {(_Probe, "probe"): "probe"}, tick_s,
                           defaultdict(int))
    empty = called = traced = timed = float("inf")
    try:
        for _ in range(repeats):
            start = perf_counter()
            for cycle in range(calls):
                pass
            empty = min(empty, perf_counter() - start)
            _Probe.tick = plain
            start = perf_counter()
            for cycle in range(calls):
                probe.tick(cycle)
            called = min(called, perf_counter() - start)
            _Probe.tick = wrapped
            tick_s.clear()
            start = perf_counter()
            for cycle in range(calls):
                probe.tick(cycle)
            traced = min(traced, perf_counter() - start)
            timed = min(timed, tick_s["probe"])
    finally:
        _Probe.tick = plain
    call = called - empty          # what an untraced tick call costs
    wrapper = traced - empty       # what a traced tick call costs
    return (timed - call) / calls, (wrapper - timed) / calls


class LayerTracer:
    """Accumulates busy time and work counts per layer while installed.

    ``engine=False`` leaves the engine unwrapped, for a parent whose forked
    workers must simulate untraced.
    """

    def __init__(self, *, engine: bool = True) -> None:
        self._want_engine = engine
        #: Per-tick wrapper cost (inside, outside its timed region), s.
        self.tick_cost = tick_wrapper_cost() if engine else (0.0, 0.0)
        self._saved: List[Tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._tier_by_name: Dict[Tuple[type, str], str] = {}
        self._depth = {"sim": 0, "build": 0}
        self.tick_s: Dict[str, float] = defaultdict(float)
        self.ticks: Dict[str, int] = defaultdict(int)
        self.span_s: Dict[str, float] = defaultdict(float)
        self.count: Dict[str, int] = defaultdict(int)
        self.predict_us: List[float] = []
        self.sim_cycles = 0
        self.fast_forwarded = 0

    # -- accumulators --------------------------------------------------- #
    def reset(self) -> None:
        """Zero every accumulator (wrappers stay installed)."""
        for table in (self.tick_s, self.ticks, self.span_s, self.count):
            table.clear()
        self.predict_us.clear()
        self.sim_cycles = 0
        self.fast_forwarded = 0

    def _add(self, key: str, seconds: float, n: int = 1) -> None:
        with self._lock:
            self.span_s[key] += seconds
            self.count[key] += n

    # -- install / uninstall ------------------------------------------- #
    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "LayerTracer":
        if self._want_engine:
            for cls in {cls for _, cls in TICK_TIERS}:
                self._patch(cls, "tick", tick_wrapper(
                    cls.tick, self._tier_by_name, self.tick_s, self.ticks))
            self._patch(Engine, "run_until", self._wrap_sim(Engine.run_until))
            self._patch(Engine, "step", self._wrap_sim(Engine.step))
            self._patch(GpuDevice, "__init__",
                        self._wrap_build(GpuDevice.__init__))
            self._patch(MultiGpuSystem, "__init__",
                        self._wrap_build(MultiGpuSystem.__init__))
        self._patch(ResultCache, "get",
                    self._wrap_span("runner.cache.get", ResultCache.get))
        self._patch(ResultCache, "put",
                    self._wrap_span("runner.cache.put", ResultCache.put))
        self._patch(SweepJournal, "record_result", self._wrap_span(
            "runner.journal.append", SweepJournal.record_result))
        self._patch(service_module, "run_supervised",
                    self._wrap_supervised(service_module.run_supervised))
        self._patch(CapacitySurface, "from_rows", self._wrap_build_surface(
            CapacitySurface.__dict__["from_rows"]))
        self._patch(CapacitySurface, "predict",
                    self._wrap_predict(CapacitySurface.predict))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------------- #
    def _wrap_sim(self, original: Callable) -> Callable:
        depth = self._depth

        def run(engine, *args, **kwargs):
            if depth["sim"]:
                return original(engine, *args, **kwargs)
            depth["sim"] += 1
            cycle0 = engine.cycle
            skipped0 = engine.fast_forwarded_cycles
            start = perf_counter()
            try:
                return original(engine, *args, **kwargs)
            finally:
                self.span_s["sim.run"] += perf_counter() - start
                self.count["sim.run"] += 1
                self.sim_cycles += engine.cycle - cycle0
                self.fast_forwarded += engine.fast_forwarded_cycles - skipped0
                depth["sim"] -= 1

        return run

    def _wrap_build(self, original: Callable) -> Callable:
        depth = self._depth

        def build(obj, *args, **kwargs):
            if depth["build"]:
                return original(obj, *args, **kwargs)
            depth["build"] += 1
            start = perf_counter()
            try:
                return original(obj, *args, **kwargs)
            finally:
                self.span_s["gpu.device_build"] += perf_counter() - start
                self.count["gpu.device_build"] += 1
                depth["build"] -= 1

        return build

    def _wrap_span(self, key: str, original: Callable) -> Callable:
        def span(*args, **kwargs):
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self._add(key, perf_counter() - start)

        return span

    def _wrap_supervised(self, original: Callable) -> Callable:
        def supervised(jobs, *args, **kwargs):
            start = perf_counter()
            outcome = original(jobs, *args, **kwargs)
            self._add("runner.job", perf_counter() - start, len(jobs))
            with self._lock:
                self.count["runner.attempts"] += outcome.counters.get(
                    "attempts", 0)
                self.count["runner.retries"] += outcome.counters.get(
                    "retries", 0)
                self.count["runner.failures"] += len(outcome.failures)
            return outcome

        return supervised

    def _wrap_build_surface(self, original: classmethod) -> classmethod:
        function = original.__func__

        def from_rows(cls, *args, **kwargs):
            start = perf_counter()
            try:
                return function(cls, *args, **kwargs)
            finally:
                self._add("runner.surface.build", perf_counter() - start)

        return classmethod(from_rows)

    def _wrap_predict(self, original: Callable) -> Callable:
        def predict(surface, *args, **kwargs):
            start = perf_counter()
            try:
                return original(surface, *args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._add("runner.surface.predict", elapsed)
                self.predict_us.append(elapsed * 1e6)

        return predict

    # -- derived figures ------------------------------------------------ #
    def in_tick_s(self) -> float:
        return sum(self.tick_s.values())

    def engine_metrics(self) -> Dict[str, float]:
        """``sim.*``, per-tier ``{self_s,ticks}``, ``gpu.device_build_s``."""
        run_s = self.span_s.get("sim.run", 0.0)
        in_tick_cost, in_loop_cost = self.tick_cost
        out: Dict[str, float] = {
            "sim.run_s": run_s,
            "sim.loop_self_s": (run_s - self.in_tick_s()
                                - sum(self.ticks.values()) * in_loop_cost),
            "sim.ticks": sum(self.ticks.values()),
            "sim.fast_forward_frac": (
                self.fast_forwarded / self.sim_cycles
                if self.sim_cycles else 0.0
            ),
            "gpu.device_build_s": self.span_s.get("gpu.device_build", 0.0),
        }
        for tier in TIERS:
            out[f"{tier}.self_s"] = (self.tick_s.get(tier, 0.0)
                                     - self.ticks.get(tier, 0) * in_tick_cost)
            out[f"{tier}.ticks"] = self.ticks.get(tier, 0)
        return out
