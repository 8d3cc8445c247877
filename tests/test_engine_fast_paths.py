"""The active strategy's fast tick paths: cycle-exactness and gating.

Under ``engine_strategy="active"`` the device swaps in cheaper tick
bodies — sparse live-port mux/crossbar ticks, lazy sole-contender packet
batching on the TPC muxes, and reactive SM backpressure parking — each of
which must be *invisible* in simulated behaviour.  These tests pin that
down:

* channel fingerprints are bit-identical to ``naive`` with batching
  actually engaged (telemetry and validation off) and with it gated off
  (observers on);
* the lockstep oracle and a quick fuzz budget pass;
* the fast paths really engage under ``active`` and never under
  ``naive``;
* the removed ``vector`` strategy is rejected, and the package needs no
  numpy.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import (
    ConfigError,
    GpuConfig,
    small_config,
)
from repro.gpu.device import GpuDevice
from repro.gpu.kernel import Kernel
from repro.gpu.warp import MemOp, READ, WRITE
from repro.sim.engine import FOREVER, Component, Engine


def _channel_fingerprint(config):
    from repro.channel import TpcCovertChannel

    channel = TpcCovertChannel(config)
    channel.calibrate()
    bits = [i % 2 for i in range(16)]
    result = channel.transmit(bits)
    return result.cycles, result.received_symbols, result.measurements


class TestBitIdentical:
    def test_batching_engaged_matches_naive(self):
        # Default small config: no telemetry, no validation — the lazy
        # sole-contender mux batching is armed on the TPC tier.
        config = small_config()
        assert not config.telemetry_enabled and not config.validate_enabled
        naive = _channel_fingerprint(config.replace(engine_strategy="naive"))
        active = _channel_fingerprint(
            config.replace(engine_strategy="active")
        )
        assert naive == active

    def test_observers_on_matches_naive(self):
        # Telemetry + validation force the per-flit semantics (batching
        # gated off); the sparse tick must still be exact.
        config = small_config(
            telemetry_enabled=True, validate_enabled=True
        )
        naive = _channel_fingerprint(config.replace(engine_strategy="naive"))
        active = _channel_fingerprint(
            config.replace(engine_strategy="active")
        )
        assert naive == active

    @pytest.mark.parametrize("reply_voq", [False, True])
    def test_mixed_read_write_counters(self, reply_voq):
        def run(strategy):
            config = small_config(
                engine_strategy=strategy, reply_voq=reply_voq
            )
            device = GpuDevice(config)

            def reader(ctx):
                for i in range(24):
                    yield MemOp(READ, [i * 128])

            def writer(ctx):
                for i in range(24):
                    yield MemOp(WRITE, [i * 256])

            device.launch(Kernel(reader, num_blocks=3, warps_per_block=2,
                                 name="reader"))
            device.launch(Kernel(writer, num_blocks=3, warps_per_block=2,
                                 name="writer"))
            device.run()
            return device.engine.cycle, device.stats.snapshot()

        assert run("naive") == run("active")


class TestOracleAndFuzz:
    def test_lockstep_oracle(self):
        from repro.validate.oracle import verify_equivalence

        config = small_config()

        def stimulus(device):
            def program(ctx):
                for i in range(16):
                    yield MemOp(WRITE, [i * 128])

            device.launch(Kernel(program, num_blocks=4, warps_per_block=2,
                                 name="writer"))

        divergence = verify_equivalence(config, stimulus, max_cycles=20_000)
        assert divergence is None, str(divergence)

    def test_quick_fuzz(self):
        from repro.validate.fuzz import fuzz

        report = fuzz(runs=3, seed=9100, oracle_cycles=4_000)
        assert report.ok, [case.failure for case in report.failures]


class TestFastPathsEngage:
    @staticmethod
    def _observe(strategy):
        """Cycles with a batching TPC mux / a parked blocked SM."""
        device = GpuDevice(small_config(engine_strategy=strategy))

        def writer(ctx):
            # 32 lines per op: far more write packets than the inject
            # queue holds, so the LSU stalls on backpressure.
            for i in range(4):
                yield MemOp(WRITE, [i * 8192 + k * 128 for k in range(32)])

        device.launch(Kernel(writer, num_blocks=1, warps_per_block=2,
                             name="writer"))
        engine = device.engine
        batching = parked = 0
        while not device.all_idle:
            engine.step(1)
            batching += sum(
                mux._batch is not None for mux in device.tpc_muxes
            )
            parked += sum(
                sm._blocked and not engine._active[sm._engine_index]
                for sm in device.sms
            )
            assert engine.cycle < 100_000, "writer never drained"
        return engine.cycle, batching, parked

    def test_active_batches_and_parks_naive_does_neither(self):
        naive_cycles, naive_batching, naive_parked = self._observe("naive")
        cycles, batching, parked = self._observe("active")
        assert cycles == naive_cycles
        assert batching > 0, "no TPC mux entered a sole-contender batch"
        assert parked > 0, "no backpressure-blocked SM parked"
        assert naive_batching == 0
        assert naive_parked == 0


class TestStrategies:
    def test_vector_rejected_with_config_error(self):
        with pytest.raises(ConfigError, match="engine_strategy"):
            GpuConfig(engine_strategy="vector")

    def test_unknown_strategy_is_still_a_value_error(self):
        # ConfigError subclasses ValueError, so callers that caught the
        # old ValueError keep working.
        with pytest.raises(ValueError, match="simd"):
            GpuConfig(engine_strategy="simd")

    def test_every_module_imports_without_numpy(self):
        # numpy blocked: any import of it anywhere in the package fails.
        script = (
            "import importlib, pkgutil, sys\n"
            "sys.modules['numpy'] = None\n"
            "import repro\n"
            "for info in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not info.name.endswith('__main__'):\n"
            "        importlib.import_module(info.name)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=src,
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr


class TestActiveScheduling:
    def test_timer_and_fast_forward(self):
        class Parked(Component):
            def __init__(self):
                self.ticks = []

            def tick(self, cycle):
                self.ticks.append(cycle)

            def idle_until(self, cycle):
                return 100 if cycle < 100 else FOREVER

        parked = Parked()
        engine = Engine(strategy="active")
        engine.register(parked)
        engine.step(200)
        assert parked.ticks == [0, 100]
        assert engine.fast_forwarded_cycles > 0


    def test_mid_cycle_wake_ordering(self):
        # A wake targeting an index *behind* the scan position lands next
        # cycle; one *ahead* of it lands in the same cycle — the naive
        # loop's in-cycle pipeline ordering exactly.
        log = []

        class Waker(Component):
            name = "waker"

            def __init__(self):
                self.fired = False

            def tick(self, cycle):
                log.append(("waker", cycle))
                if not self.fired:
                    self.fired = True
                    downstream.wake()
                    upstream.wake()

            def idle_until(self, cycle):
                return FOREVER

        class Quiet(Component):
            def __init__(self, name):
                self.name = name

            def tick(self, cycle):
                log.append((self.name, cycle))

            def idle_until(self, cycle):
                return FOREVER

        upstream = Quiet("upstream")
        waker = Waker()
        downstream = Quiet("downstream")
        engine = Engine(strategy="active")
        engine.register(upstream)
        engine.register(waker)
        engine.register(downstream)
        engine.step(3)
        ticks = [entry for entry in log if entry[0] != "waker"]
        assert ("downstream", 0) in ticks  # woken ahead: same cycle
        assert ("upstream", 1) in ticks    # woken behind: next cycle
        assert ("upstream", 0) in ticks    # initial activation
