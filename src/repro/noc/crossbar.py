"""Crossbar between the GPC channels and the L2 slices.

Public NVIDIA block diagrams show a crossbar in the middle of the GPU; the
paper's reverse engineering concludes it interconnects the GPC channels
with the partitioned L2 (Section 3.1).  The model is an input-queued
crossbar with head-of-line semantics: each input port forwards its head
packet toward the output that the routing function selects, subject to a
per-input and per-output flit budget per cycle, with per-output arbitration
among competing inputs.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional

from ..sim.engine import Component, FOREVER
from ..sim.stats import StatsRegistry
from ..telemetry.events import XBAR_GRANT, XBAR_XFER
from .arbiter import ArbitrationPolicy, make_policy
from .buffer import PacketQueue
from .packet import Packet


class Crossbar(Component):
    """Input-queued crossbar with per-port flit budgets.

    Parameters
    ----------
    route:
        Maps a packet to its output port index.
    width:
        Flits per cycle each output port can accept.
    input_width:
        Flits per cycle each input port can send (defaults to ``width``;
        the reply crossbar uses a wider input so the narrow per-GPC
        output channel does not throttle the L2 slices themselves).
    policy_name / seed:
        Arbitration policy instantiated per output port.
    """

    def __init__(
        self,
        name: str,
        inputs: List[PacketQueue],
        outputs: List[PacketQueue],
        route: Callable[[Packet], int],
        width: int,
        input_width: Optional[int] = None,
        policy_name: str = "rr",
        seed: int = 0,
        stats: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.inputs = inputs
        self.outputs = outputs
        self.route = route
        self.width = width
        self.input_width = width if input_width is None else input_width
        if min(self.width, self.input_width) < 1:
            raise ValueError(f"{name}: port widths must be at least 1")
        self.stats = stats
        self._packets_key = f"{name}.packets"
        self._policies: List[ArbitrationPolicy] = [
            make_policy(policy_name, len(inputs), seed=seed + i)
            for i in range(len(outputs))
        ]
        self._progress: List[int] = [0] * len(inputs)
        self._reserved: List[bool] = [False] * len(inputs)
        #: Each input's live deque (:attr:`PacketQueue.packets`), read
        #: directly by the sparse tick.
        self._fifos = [queue.packets for queue in inputs]
        #: Tick via :meth:`_tick_sparse` (set by enable_fast_paths).
        self._sparse = False
        #: ``idle_until`` verdict computed by the sparse tick (None =
        #: busy); only consulted when ``_sparse`` is set.
        self._idle_hint = None
        # -- telemetry (None unless the device enables it) -------------- #
        self._tracer = None
        self._tl_id = 0
        self._tl_out: Optional[List] = None

    def enable_fast_paths(self) -> None:
        """Tick through the sparse live-port body (``active`` strategy).

        The sparse tick groups the nonempty input ports by output once
        per tick and patches the groups after each round (the dense
        reference tick rebuilds a per-output candidate list over every
        port each round).  Grant-for-grant identical to the dense tick.
        """
        self._sparse = True

    def attach_telemetry(self, hub) -> None:
        """Opt this crossbar into tracing and per-output link series."""
        self._tracer = hub.tracer
        self._tl_id = hub.register(self.name)
        self._tl_out = [
            hub.timeline.register_link(f"{self.name}.out{out}", self.width)
            for out in range(len(self.outputs))
        ]

    def tick(self, cycle: int) -> None:
        if self._sparse:
            self._tick_sparse(cycle)
            return
        num_inputs = len(self.inputs)
        input_budget = [self.input_width] * num_inputs
        output_budget = [self.width] * len(self.outputs)
        # Heads and their routed outputs, refreshed as packets complete.
        while True:
            moved = False
            heads: List[Optional[Packet]] = [q.head() for q in self.inputs]
            # Group candidate inputs by output port.
            per_output: List[List[int]] = [[] for _ in self.outputs]
            for port, head in enumerate(heads):
                if head is None or input_budget[port] <= 0:
                    continue
                out = self.route(head)
                if output_budget[out] <= 0:
                    continue
                if self._reserved[port] or self.outputs[out].can_reserve(
                    head.flits
                ):
                    per_output[out].append(port)
            for out, candidates in enumerate(per_output):
                if not candidates:
                    continue
                policy = self._policies[out]
                allowed = policy.allowed_inputs(cycle)
                if allowed is not None:
                    candidates = [p for p in candidates if p in allowed]
                    if not candidates:
                        continue
                port = policy.choose(candidates, heads, cycle)
                packet = heads[port]
                assert packet is not None
                if not self._reserved[port]:
                    self.outputs[out].reserve(packet.flits)
                    self._reserved[port] = True
                if self._tracer is not None:
                    if self._progress[port] == 0:
                        self._tracer.emit(cycle, XBAR_GRANT, self._tl_id,
                                          port, packet.uid, out)
                    self._tl_out[out].add(cycle, 1)
                self._progress[port] += 1
                input_budget[port] -= 1
                output_budget[out] -= 1
                last = self._progress[port] >= packet.flits
                policy.note_flit(port, packet, last)
                if last:
                    self.inputs[port].pop()
                    self.outputs[out].commit(packet)
                    self._progress[port] = 0
                    self._reserved[port] = False
                    if self.stats is not None:
                        self.stats.incr(self._packets_key)
                    if self._tracer is not None:
                        self._tracer.emit(cycle, XBAR_XFER, self._tl_id,
                                          port, packet.uid, out)
                moved = True
            if not moved:
                break

    def _tick_sparse(self, cycle: int) -> None:
        """Slot-assignment tick with candidacy patched per round.

        Semantics are identical to the dense :meth:`tick` — same round
        structure, same ascending output order, same per-round candidacy
        — but inputs are grouped by output once per tick, then patched
        after each round.  A round's grants change only:

        * the granted ports: budget spent, and on completion a new head
          that may route elsewhere — so only those are re-grouped;
        * the granted outputs: budget spent, and on a fresh ``reserve``
          less free space — so only those groups are re-filtered.

        A port that was not granted keeps its head and route, and its
        output's budget and free space only shrink, so it can never
        rejoin a group mid-tick.  Groups stay in ascending port order.
        """
        fifos = self._fifos
        outputs = self.outputs
        route = self.route
        reserved = self._reserved
        heads: List[Optional[Packet]] = [None] * len(fifos)
        groups: Dict[int, List[int]] = {}
        live = 0
        for p, fifo in enumerate(fifos):
            if fifo:
                live += 1
                head = heads[p] = fifo[0]
                out = route(head)
                if reserved[p] or head.flits <= outputs[out].free_flits:
                    group = groups.get(out)
                    if group is None:
                        groups[out] = [p]
                    else:
                        group.append(p)
        progress = self._progress
        policies = self._policies
        input_left = [self.input_width] * len(fifos)
        output_left = [self.width] * len(outputs)
        completed = 0
        while groups:
            granted = []
            for out in sorted(groups):
                candidates = groups[out]
                policy = policies[out]
                allowed = policy.allowed_inputs(cycle)
                if allowed is not None:
                    candidates = [p for p in candidates if p in allowed]
                    if not candidates:
                        continue
                port = policy.choose(candidates, heads, cycle)
                packet = heads[port]
                fresh = not reserved[port]
                if fresh:
                    outputs[out].reserve(packet.flits)
                    reserved[port] = True
                if self._tracer is not None:
                    if progress[port] == 0:
                        self._tracer.emit(cycle, XBAR_GRANT, self._tl_id,
                                          port, packet.uid, out)
                    self._tl_out[out].add(cycle, 1)
                progress[port] += 1
                input_left[port] -= 1
                output_left[out] -= 1
                last = progress[port] >= packet.flits
                policy.note_flit(port, packet, last)
                if last:
                    self.inputs[port].pop()
                    outputs[out].commit(packet)
                    progress[port] = 0
                    reserved[port] = False
                    completed += 1
                    if self._tracer is not None:
                        self._tracer.emit(cycle, XBAR_XFER, self._tl_id,
                                          port, packet.uid, out)
                granted.append((port, out, fresh, last))
            if not granted:
                break
            for port, out, fresh, last in granted:
                group = groups[out]
                if output_left[out] <= 0:
                    del groups[out]
                else:
                    if last or input_left[port] <= 0:
                        group.remove(port)
                    if fresh:
                        free = outputs[out].free_flits
                        group[:] = [
                            p for p in group
                            if reserved[p] or heads[p].flits <= free
                        ]
                    if not group:
                        del groups[out]
                if not last:
                    continue
                fifo = fifos[port]
                if not fifo:
                    heads[port] = None
                    live -= 1
                    continue
                head = heads[port] = fifo[0]
                if input_left[port] <= 0:
                    continue
                to = route(head)
                if output_left[to] > 0 and (
                    head.flits <= outputs[to].free_flits
                ):
                    group = groups.get(to)
                    if group is None:
                        groups[to] = [port]
                    else:
                        insort(group, port)
        if completed and self.stats is not None:
            self.stats.incr(self._packets_key, completed)
        self._idle_hint = None if live else FOREVER

    def idle_until(self, cycle: int) -> Optional[int]:
        """Purely reactive: idle exactly when every input queue is empty.

        The sparse tick already knows the answer and leaves it in
        ``_idle_hint``; the dense reference rescans the inputs.
        """
        if self._sparse:
            return self._idle_hint
        for queue in self.inputs:
            if queue:
                return None
        return FOREVER

    def reserved_demand(self):
        """Yield ``(output_queue, flits)`` per held output reservation.

        Mirrors :meth:`repro.noc.mux.Mux.reserved_demand`; the output a
        reservation was made against is recomputed from the head packet's
        route, which is stable while the packet sits at the head.
        """
        for port, held in enumerate(self._reserved):
            if held:
                head = self.inputs[port].head()
                if head is None:
                    yield self.outputs[0], 0
                else:
                    yield self.outputs[self.route(head)], head.flits

    def state_digest(self):
        """Progress/reservation state plus every attached queue."""
        return (
            tuple(self._progress),
            tuple(self._reserved),
            tuple(policy.state_digest() for policy in self._policies),
            tuple(queue.state_digest() for queue in self.inputs),
            tuple(queue.state_digest() for queue in self.outputs),
        )

    def reset(self) -> None:
        self._progress = [0] * len(self.inputs)
        self._reserved = [False] * len(self.inputs)
        self._idle_hint = None
        for policy in self._policies:
            policy.reset()
        for queue in self.inputs:
            queue.clear()
        if self._tl_out is not None:
            for series in self._tl_out:
                series.reset()
