"""Unit tests for the GPC<->L2 crossbar."""

import pytest

from repro.config import ARBITRATION_POLICIES
from repro.noc.buffer import PacketQueue
from repro.noc.crossbar import Crossbar
from repro.noc.packet import Packet, READ
from repro.sim.engine import FOREVER
from repro.sim.stats import StatsRegistry


def packet(slice_id, flits=1, birth=0):
    return Packet(
        kind=READ, address=0, flits=flits, src_sm=0,
        slice_id=slice_id, birth_cycle=birth,
    )


def build(num_inputs=2, num_outputs=4, width=2, input_width=None,
          out_capacity=1000):
    inputs = [PacketQueue(f"in{i}", 256) for i in range(num_inputs)]
    outputs = [PacketQueue(f"out{i}", out_capacity) for i in range(num_outputs)]
    xbar = Crossbar(
        "x", inputs, outputs, route=lambda p: p.slice_id,
        width=width, input_width=input_width,
    )
    return xbar, inputs, outputs


class TestRouting:
    def test_packets_reach_routed_output(self):
        xbar, inputs, outputs = build()
        inputs[0].push(packet(slice_id=2))
        inputs[1].push(packet(slice_id=3))
        xbar.tick(0)
        assert len(outputs[2]) == 1
        assert len(outputs[3]) == 1

    def test_parallel_transfers_to_distinct_outputs(self):
        xbar, inputs, outputs = build(num_inputs=4, num_outputs=4, width=1)
        for port in range(4):
            inputs[port].push(packet(slice_id=port))
        xbar.tick(0)
        assert all(len(outputs[i]) == 1 for i in range(4))


class TestContention:
    def test_same_output_arbitrated(self):
        xbar, inputs, outputs = build(width=1)
        inputs[0].push(packet(slice_id=0))
        inputs[1].push(packet(slice_id=0))
        xbar.tick(0)
        assert len(outputs[0]) == 1  # only one grant per output per cycle
        xbar.tick(1)
        assert len(outputs[0]) == 2

    def test_head_of_line_blocking(self):
        """A blocked head really does block the packet behind it."""
        xbar, inputs, outputs = build(width=1, out_capacity=1)
        outputs[0].push(packet(slice_id=0))  # output 0 already full
        inputs[0].push(packet(slice_id=0))   # head: blocked
        inputs[0].push(packet(slice_id=1))   # behind: would fit elsewhere
        xbar.tick(0)
        assert len(outputs[1]) == 0

    def test_input_width_budget(self):
        xbar, inputs, outputs = build(width=4, input_width=1)
        inputs[0].push(packet(slice_id=0))
        inputs[0].push(packet(slice_id=1))
        xbar.tick(0)
        moved = len(outputs[0]) + len(outputs[1])
        assert moved == 1

    @pytest.mark.parametrize("width, input_width", [(0, None), (2, 0)])
    def test_zero_width_rejected(self, width, input_width):
        with pytest.raises(ValueError):
            build(width=width, input_width=input_width)

    def test_output_width_budget_in_flits(self):
        xbar, inputs, outputs = build(width=2, input_width=8)
        inputs[0].push(packet(slice_id=0, flits=2))
        inputs[0].push(packet(slice_id=0, flits=2))
        xbar.tick(0)
        assert len(outputs[0]) == 1  # 2 flits of budget -> one 2-flit packet


class TestMultiFlit:
    def test_multi_flit_packet_spans_cycles(self):
        xbar, inputs, outputs = build(width=1)
        inputs[0].push(packet(slice_id=0, flits=3))
        for cycle in range(2):
            xbar.tick(cycle)
        assert len(outputs[0]) == 0
        xbar.tick(2)
        assert len(outputs[0]) == 1

    def test_no_packet_loss_under_random_traffic(self):
        xbar, inputs, outputs = build(num_inputs=3, num_outputs=5, width=2)
        import random

        rng = random.Random(4)
        sent = 0
        for _ in range(60):
            port = rng.randrange(3)
            if inputs[port].push(packet(slice_id=rng.randrange(5),
                                        flits=rng.randint(1, 3))):
                sent += 1
        for cycle in range(400):
            xbar.tick(cycle)
        received = sum(len(q) for q in outputs)
        assert received == sent

    def test_reset_clears_state(self):
        xbar, inputs, outputs = build(width=1)
        inputs[0].push(packet(slice_id=0, flits=3))
        xbar.tick(0)
        xbar.reset()
        assert xbar._progress == [0, 0]
        assert not inputs[0]


class TestSparseTick:
    @staticmethod
    def _run(sparse):
        import random

        rng = random.Random(8)
        inputs = [PacketQueue(f"in{i}", 12) for i in range(6)]
        outputs = [PacketQueue(f"out{i}", 6) for i in range(4)]
        xbar = Crossbar("x", inputs, outputs, route=lambda p: p.slice_id,
                        width=2, input_width=3)
        if sparse:
            xbar.enable_fast_paths()
        trace = []
        for cycle in range(300):
            for queue in inputs:
                if rng.random() < 0.25:
                    queue.push(packet(slice_id=rng.randrange(4),
                                      flits=rng.randint(1, 3), birth=cycle))
            xbar.tick(cycle)
            # The sparse tick's idle hint must equal the dense scan.
            idle = xbar.idle_until(cycle)
            for queue in outputs:
                while queue and rng.random() < 0.5:
                    queue.pop()
            trace.append((xbar.state_digest(), idle))
        return trace

    def test_sparse_matches_dense(self):
        """The active strategy's live-port tick is grant-for-grant
        identical to the dense reference under contention and
        backpressure, and leaves the same ``idle_until`` verdict."""
        sparse = self._run(sparse=True)
        assert sparse == self._run(sparse=False)
        verdicts = {idle for _, idle in sparse}
        assert verdicts == {None, FOREVER}

    @staticmethod
    def _run_wide(sparse, policy_name):
        """48 backlogged inputs onto 6 narrow, slowly drained outputs.

        Shaped like the single-FIFO reply crossbar: wide inputs, width-3
        outputs, 4-flit replies mixed with 1-flit acks, so fresh
        reservations shrink an output's room mid-tick and completed
        heads re-route to other outputs between rounds.
        """
        import random

        rng = random.Random(31)
        inputs = [PacketQueue(f"in{i}", 16) for i in range(48)]
        outputs = [PacketQueue(f"out{i}", 12) for i in range(6)]
        stats = StatsRegistry()
        xbar = Crossbar("x", inputs, outputs, route=lambda p: p.slice_id,
                        width=3, input_width=8, policy_name=policy_name,
                        seed=2, stats=stats)
        if sparse:
            xbar.enable_fast_paths()
        trace = []
        for cycle in range(200):
            for queue in inputs:
                while len(queue) < 3:
                    queue.push(packet(
                        slice_id=rng.randrange(6),
                        flits=4 if rng.random() < 0.75 else 1,
                        birth=cycle,
                    ))
            xbar.tick(cycle)
            for queue in outputs:
                if queue and rng.random() < 0.6:
                    queue.pop()
            trace.append(xbar.state_digest())
        return trace, stats.snapshot()

    @pytest.mark.parametrize("policy_name", ARBITRATION_POLICIES)
    def test_sparse_matches_dense_on_wide_backlogged_crossbar(
        self, policy_name
    ):
        dense = self._run_wide(sparse=False, policy_name=policy_name)
        sparse = self._run_wide(sparse=True, policy_name=policy_name)
        assert dense[1]["x.packets"] > 50
        assert sparse == dense
