"""Unit tests for the concentrator mux — the covert channel's substrate."""

import random

import pytest

from repro.config import ARBITRATION_POLICIES
from repro.noc.arbiter import RoundRobin, make_policy
from repro.noc.buffer import PacketQueue
from repro.noc.mux import Mux
from repro.noc.packet import Packet, READ, WRITE
from repro.sim.stats import StatsRegistry


def packet(flits=1, kind=READ, address=0):
    return Packet(kind=kind, address=address, flits=flits, src_sm=0, slice_id=0)


def build(num_inputs=2, width=1, out_capacity=1000, in_capacity=64):
    inputs = [PacketQueue(f"in{i}", in_capacity) for i in range(num_inputs)]
    output = PacketQueue("out", out_capacity)
    mux = Mux("m", inputs, output, width, RoundRobin(num_inputs))
    return mux, inputs, output


class TestThroughput:
    def test_width_limits_flits_per_cycle(self):
        mux, inputs, output = build(width=2)
        for _ in range(10):
            inputs[0].push(packet(flits=1))
        mux.tick(0)
        assert len(output) == 2

    def test_multi_flit_packet_takes_multiple_cycles(self):
        mux, inputs, output = build(width=1)
        inputs[0].push(packet(flits=4))
        for cycle in range(3):
            mux.tick(cycle)
            assert len(output) == 0
        mux.tick(3)
        assert len(output) == 1

    def test_wide_mux_moves_multi_flit_packet_in_one_cycle(self):
        mux, inputs, output = build(width=4)
        inputs[0].push(packet(flits=4))
        mux.tick(0)
        assert len(output) == 1

    def test_oversubscription_halves_per_input_throughput(self):
        """The 2:1 concentration that makes the TPC channel leak."""
        mux, inputs, output = build(width=1, in_capacity=512)
        for _ in range(40):
            inputs[0].push(packet())
            inputs[1].push(packet())
        for cycle in range(40):
            mux.tick(cycle)
        assert 40 - len(inputs[0]) == 20
        assert 40 - len(inputs[1]) == 20


class TestBackpressure:
    def test_full_output_blocks_transmission(self):
        mux, inputs, output = build(out_capacity=2)
        inputs[0].push(packet(flits=2))
        inputs[0].push(packet(flits=2))
        mux.tick(0)
        mux.tick(1)
        assert len(output) == 1
        assert len(inputs[0]) == 1  # no room for the second packet

    def test_drain_resumes_after_pop(self):
        mux, inputs, output = build(out_capacity=2)
        inputs[0].push(packet(flits=2))
        inputs[0].push(packet(flits=2))
        for cycle in range(2):
            mux.tick(cycle)
        output.pop()
        for cycle in range(2, 4):
            mux.tick(cycle)
        assert len(output) == 1

    def test_large_packet_never_starts_without_room(self):
        mux, inputs, output = build(out_capacity=3)
        inputs[0].push(packet(flits=4))
        for cycle in range(10):
            mux.tick(cycle)
        assert len(output) == 0
        assert len(inputs[0]) == 1

    def test_blocked_big_packet_does_not_stop_other_input(self):
        # Output has room for the small packet but not the big one.
        mux, inputs, output = build(out_capacity=2)
        inputs[0].push(packet(flits=4))
        inputs[1].push(packet(flits=1))
        mux.tick(0)
        assert len(output) == 1
        assert output.head().flits == 1


class TestConstruction:
    def test_zero_width_rejected(self):
        """A width-0 mux could never move a flit; both tick bodies
        assume at least one flit of budget, so it is refused."""
        with pytest.raises(ValueError):
            Mux("m", [PacketQueue("in", 8)], PacketQueue("out", 8), 0,
                RoundRobin(1))


class TestReset:
    def test_reset_clears_partial_transmission(self):
        mux, inputs, output = build(width=1)
        inputs[0].push(packet(flits=4))
        mux.tick(0)  # one flit in flight
        mux.reset()
        assert not inputs[0]
        assert mux._progress == [0, 0]
        assert mux._reserved == [False, False]

    def test_reserved_space_released_logically_on_reset(self):
        mux, inputs, output = build(out_capacity=8)
        inputs[0].push(packet(flits=4))
        mux.tick(0)
        mux.reset()
        output.clear()
        assert output.free_flits == 8


def _run_random_traffic(policy_name, sparse, cycles=300):
    """Per-cycle state of a 4:1 width-2 mux under seeded random traffic.

    A small output queue drained at random keeps backpressure in play,
    and random flit counts, warp groups and birth cycles exercise every
    policy's tie-breaking.
    """
    rng = random.Random(11)
    inputs = [PacketQueue(f"in{i}", 12) for i in range(4)]
    output = PacketQueue("out", 8)
    stats = StatsRegistry()
    mux = Mux("m", inputs, output, 2,
              make_policy(policy_name, 4, seed=3), stats=stats)
    if sparse:
        mux.enable_fast_paths()
    trace = []
    for cycle in range(cycles):
        for port, queue in enumerate(inputs):
            if rng.random() < 0.3:
                queue.push(Packet(
                    kind=WRITE if rng.random() < 0.5 else READ,
                    address=cycle * 128, flits=rng.randint(1, 4),
                    src_sm=port, slice_id=0,
                    group_id=rng.randrange(3), birth_cycle=cycle,
                ))
        mux.tick(cycle)
        while output and rng.random() < 0.6:
            output.pop()
        trace.append(mux.state_digest())
    return trace, stats.snapshot()


def _run_backlogged_reply_mux(policy_name, sparse, cycles=200):
    """Per-cycle state of a 48:1 width-3 mux shaped like a GPC reply mux.

    Every input stays backlogged with 4-flit read replies mixed with
    1-flit write acks, and the output drains about 2 flits a cycle —
    slower than the mux's width — so a fresh reservation regularly
    leaves too little room for the other heads later in the same tick.
    """
    rng = random.Random(23)
    inputs = [PacketQueue(f"in{i}", 16) for i in range(48)]
    output = PacketQueue("out", 12)
    stats = StatsRegistry()
    mux = Mux("m", inputs, output, 3,
              make_policy(policy_name, 48, seed=5), stats=stats)
    if sparse:
        mux.enable_fast_paths()
    trace = []
    for cycle in range(cycles):
        for port, queue in enumerate(inputs):
            while len(queue) < 2:
                queue.push(Packet(
                    kind=READ, address=cycle * 128,
                    flits=4 if rng.random() < 0.75 else 1,
                    src_sm=port, slice_id=port,
                    group_id=rng.randrange(3), birth_cycle=cycle,
                ))
        mux.tick(cycle)
        if output and rng.random() < 0.6:
            output.pop()
        trace.append(mux.state_digest())
    return trace, stats.snapshot()


class TestSparseTick:
    @pytest.mark.parametrize("policy_name", ARBITRATION_POLICIES)
    def test_sparse_matches_dense(self, policy_name):
        """The active strategy's live-port tick (with its forced-grant
        shortcut) is grant-for-grant identical to the dense reference."""
        dense = _run_random_traffic(policy_name, sparse=False)
        sparse = _run_random_traffic(policy_name, sparse=True)
        assert dense[1]["m.packets"] > 50
        assert sparse == dense

    @pytest.mark.parametrize("policy_name", ARBITRATION_POLICIES)
    def test_sparse_matches_dense_on_wide_backlogged_mux(self, policy_name):
        """48 always-nonempty inputs over a slow output: the incremental
        candidate list must drop heads a fresh reservation priced out."""
        dense = _run_backlogged_reply_mux(policy_name, sparse=False)
        sparse = _run_backlogged_reply_mux(policy_name, sparse=True)
        # SRR gives each of the 48 inputs one cycle in 48, so it moves
        # far fewer packets than the work-conserving policies.
        assert dense[1]["m.packets"] > 10
        assert sparse == dense
