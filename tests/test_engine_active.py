"""Active-set scheduling: cycle-exactness vs the naive loop + fast-forward.

The active-set engine is a pure optimisation; these tests pin down the
contract that makes it trustworthy:

* seeded covert-channel runs produce *bit-identical* results (cycle
  counts, received symbols, full latency traces, device counters) under
  ``engine_strategy="active"`` and ``"naive"``;
* when the whole model is quiescent the engine jumps the cycle counter
  to the next wake-up instead of spinning (ticks executed stay tiny);
* ``run_until`` hits its timeout cap exactly and checks the condition
  before the first step, under both strategies.
"""

import pytest

from repro.config import ENGINE_STRATEGIES, medium_config, small_config
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel
from repro.gpu.warp import MemOp, READ, WaitCycles
from repro.sim.engine import FOREVER, Component, Engine


def _channel_fingerprint(config):
    from repro.channel import TpcCovertChannel

    channel = TpcCovertChannel(config)
    channel.calibrate()
    bits = [i % 2 for i in range(16)]
    result = channel.transmit(bits)
    return result.cycles, result.received_symbols, result.measurements


def _gpc_fingerprint(config):
    from repro.channel import GpcCovertChannel

    channel = GpcCovertChannel(config)
    channel.calibrate()
    result = channel.transmit([1, 0, 1, 1, 0, 0, 1, 0])
    return result.cycles, result.received_symbols, result.measurements


class TestCycleExactness:
    def test_tpc_channel_identical_small(self):
        naive = _channel_fingerprint(small_config(engine_strategy="naive"))
        active = _channel_fingerprint(small_config(engine_strategy="active"))
        assert naive == active

    def test_gpc_channel_identical_medium(self):
        naive = _gpc_fingerprint(medium_config(engine_strategy="naive"))
        active = _gpc_fingerprint(medium_config(engine_strategy="active"))
        assert naive == active

    def test_device_counters_identical(self):
        def run(strategy):
            config = small_config(engine_strategy=strategy)
            device = GpuDevice(config)

            def program(ctx):
                for i in range(32):
                    yield MemOp(READ, [i * 128])

            device.launch(Kernel(program, num_blocks=4, warps_per_block=2,
                                 name="reader"))
            device.run()
            return device.engine.cycle, device.stats.snapshot()

        assert run("naive") == run("active")

    def test_fig9_trace_identical(self):
        from repro.analysis.figures import fig9_latency_trace

        naive = fig9_latency_trace(
            small_config(engine_strategy="naive"), with_sync=True,
            num_bits=12,
        )
        active = fig9_latency_trace(
            small_config(engine_strategy="active"), with_sync=True,
            num_bits=12,
        )
        assert naive == active


class TestFastForward:
    def test_sleeping_warps_fast_forward(self):
        # One warp sleeping 50k cycles: the active engine must jump the
        # gap, executing orders of magnitude fewer ticks than cycles.
        device = GpuDevice(small_config(engine_strategy="active"))

        def sleeper(ctx):
            yield WaitCycles(50_000)

        device.launch(Kernel(sleeper, num_blocks=1, warps_per_block=1,
                             name="sleeper"))
        device.run()
        engine = device.engine
        assert engine.cycle >= 50_000
        assert engine.fast_forwarded_cycles > 45_000
        assert engine.ticks_executed < 1_000

    def test_naive_engine_never_fast_forwards(self):
        device = GpuDevice(small_config(engine_strategy="naive"))

        def sleeper(ctx):
            yield WaitCycles(2_000)

        device.launch(Kernel(sleeper, num_blocks=1, warps_per_block=1,
                             name="sleeper"))
        device.run()
        assert device.engine.fast_forwarded_cycles == 0

    def test_quiescent_empty_engine_jumps_to_step_target(self):
        engine = Engine()
        engine.step(10_000)
        assert engine.cycle == 10_000
        assert engine.ticks_executed == 0
        assert engine.fast_forwarded_cycles == 10_000

    def test_timer_wakes_parked_component(self):
        class Parked(Component):
            def __init__(self):
                self.ticks = []

            def tick(self, cycle):
                self.ticks.append(cycle)

            def idle_until(self, cycle):
                return 100 if cycle < 100 else FOREVER

        parked = Parked()
        engine = Engine([parked])
        engine.step(200)
        # Ticked at 0 (initially active), parked until 100, woke exactly
        # there, then parked forever.
        assert parked.ticks == [0, 100]

    def test_wake_reactivates_forever_parked_component(self):
        class Reactive(Component):
            def __init__(self):
                self.ticks = []

            def tick(self, cycle):
                self.ticks.append(cycle)

            def idle_until(self, cycle):
                return FOREVER

        reactive = Reactive()
        engine = Engine([reactive])
        engine.step(10)
        assert reactive.ticks == [0]
        reactive.wake()
        engine.step(10)
        assert reactive.ticks == [0, 10]

    def test_reset_restores_full_activity(self):
        class Lazy(Component):
            def __init__(self):
                self.ticks = 0

            def tick(self, cycle):
                self.ticks += 1

            def idle_until(self, cycle):
                return FOREVER

        lazy = Lazy()
        engine = Engine([lazy])
        engine.step(5)
        engine.reset()
        assert engine.cycle == 0
        assert engine.ticks_executed == 0
        assert engine.fast_forwarded_cycles == 0
        engine.step(1)
        assert lazy.ticks == 2  # once before reset, once after


class TestRunUntil:
    @pytest.mark.parametrize("strategy", ENGINE_STRATEGIES)
    def test_timeout_cap_is_exact(self, strategy):
        engine = Engine(strategy=strategy)
        with pytest.raises(TimeoutError):
            engine.run_until(lambda: False, max_cycles=1000, check_every=64)
        # 1000 is not a multiple of 64: the final step must be clamped.
        assert engine.cycle == 1000

    @pytest.mark.parametrize("strategy", ENGINE_STRATEGIES)
    def test_condition_checked_before_first_step(self, strategy):
        engine = Engine(strategy=strategy)
        final = engine.run_until(lambda: True, max_cycles=10)
        assert final == 0
        assert engine.cycle == 0

    @pytest.mark.parametrize("strategy", ["warp-speed", "vector"])
    def test_invalid_strategy_rejected(self, strategy):
        with pytest.raises(ValueError):
            Engine(strategy=strategy)
        with pytest.raises(ValueError):
            small_config(engine_strategy=strategy)
