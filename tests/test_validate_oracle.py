"""Lockstep engine-oracle tests (repro.validate.oracle)."""

import pytest

from repro.config import medium_config, small_config
from repro.gpu.workloads import make_streaming_kernel
from repro.sim.engine import Component
from repro.validate import Divergence, LockstepOracle, verify_equivalence


def streaming_stimulus(kind="write", ops=8, blocks=4):
    def stimulus(device):
        device.preload_region(0, 1 << 20)
        device.launch(make_streaming_kernel(
            device.config, kind, ops=ops, num_blocks=blocks,
        ))
    return stimulus


class TestEquivalence:
    def test_write_workload_no_divergence(self):
        config = small_config(timing_noise=0)
        assert verify_equivalence(
            config, streaming_stimulus("write"), max_cycles=20_000
        ) is None

    def test_read_workload_with_noise_no_divergence(self):
        # timing_noise exercises the SM rng digests on both sides.
        config = small_config(timing_noise=16)
        assert verify_equivalence(
            config, streaming_stimulus("read"), max_cycles=20_000
        ) is None

    def test_wide_reply_mux_read_workload_no_divergence(self):
        """The GPC channel's sender traffic over 32 L2 slices.

        Every SM of GPC 0 streams uncoalesced reads across all slices, so
        its 32:1 reply mux runs with (nearly) every VOQ backlogged by
        4-flit replies — wider than any reply mux the fuzzer draws.
        """
        config = medium_config(num_l2_slices=32, timing_noise=0)
        devices = []

        def stimulus(device):
            cfg = device.config
            gpc0_tpcs = set(cfg.gpc_members()[0])
            senders = {
                sm for sm in range(cfg.num_sms)
                if cfg.sm_to_tpc(sm) in gpc0_tpcs
            }
            device.preload_region(0, 1 << 20)
            device.launch(make_streaming_kernel(
                cfg, "read", ops=16, num_blocks=cfg.num_sms,
                warps_per_block=2, footprint_lines=cfg.num_l2_slices * 8,
                active_sms=senders,
            ))
            devices.append(device)

        assert verify_equivalence(
            config, stimulus, max_cycles=3_000
        ) is None
        for device in devices:
            reply_mux = device.reply_muxes[0]
            assert len(reply_mux.inputs) == 32
            assert sum(1 for queue in reply_mux.inputs if queue) > 8

    def test_idle_device_no_divergence(self):
        assert verify_equivalence(
            small_config(), None, max_cycles=512, compare_every=128
        ) is None

    def test_compare_every_must_be_positive(self):
        with pytest.raises(ValueError):
            LockstepOracle(small_config(), None, compare_every=0)


class LyingComponent(Component):
    """Claims to be idle for 5 cycles although it has work every cycle.

    Under the naive engine (ticks everything) its counter advances every
    cycle; under the active engine the false ``idle_until`` parks it —
    exactly the class of scheduling bug the oracle exists to pinpoint.
    """

    name = "liar"

    def __init__(self):
        self.count = 0

    def tick(self, cycle):
        self.count += 1

    def idle_until(self, cycle):
        return cycle + 5  # a lie: tick() has work every cycle

    def state_digest(self):
        return self.count

    def reset(self):
        self.count = 0


class TestBisection:
    def test_lying_idle_until_is_pinpointed(self):
        def stimulus(device):
            device.engine.register(LyingComponent())

        divergence = verify_equivalence(
            small_config(), stimulus, max_cycles=4096, compare_every=64
        )
        assert isinstance(divergence, Divergence)
        assert divergence.component == "liar"
        # Naive count after k cycles is k; active ticks at cycle 0 then
        # parks until cycle 5, so the first mismatch is after 2 cycles.
        assert divergence.cycle == 2
        assert divergence.naive_digest == 2
        assert divergence.active_digest == 1
        assert "liar" in str(divergence)
