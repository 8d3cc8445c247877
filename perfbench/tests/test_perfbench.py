"""The benchmark's own tests: smoke every workload, prove the gate bites.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.noc.mux import Mux  # noqa: E402
from repro.sim.engine import Component, Engine  # noqa: E402

from perfbench import hostspeed  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.tracer import (  # noqa: E402
    LayerTracer, tick_wrapper_cost, tier_of)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def declared(section: str):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)
    assert declared("end_to_end") == wl.END_TO_END
    assert declared("per_layer") == wl.per_layer_units()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_smoke_emits_every_metric(workload, trace):
    proc = run_cli("--workload", workload, "--scale", "smoke",
                   "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split()[1]: line.split()[3]
               for line in lines if line.startswith("metric ")}
    assert printed == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("host nproc=") for line in lines)
    assert any(line.startswith("failed_frac ") for line in lines)
    if workload == "fig10_serve" and not trace:
        assert any(line.startswith("query_p99_us ") for line in lines)


def test_perturbed_arbitration_fails_the_gate():
    reference = wl.load_reference()["smoke"]["tpc_volta"]
    gate, _, _ = wl.run_channel("tpc_volta", "smoke", 1, 0, False,
                                reference, overrides={"arbitration": "srr"})
    assert gate.failed > 0


def test_wrong_served_payload_fails_the_gate():
    reference = copy.deepcopy(wl.load_reference()["smoke"]["fig10_serve"])
    name = next(iter(reference["points"]))
    reference["points"][name] = "0" * 16
    gate, _, _ = wl.run_serve("smoke", 1, 0, False, reference)
    assert gate.failed > 0


def test_tracer_restores_every_wrapped_method():
    before = (Mux.__dict__["tick"], Engine.__dict__["run_until"])
    with LayerTracer():
        assert Mux.__dict__["tick"] is not before[0]
    assert (Mux.__dict__["tick"], Engine.__dict__["run_until"]) == before


def test_wrapper_cost_is_taken_out_of_loop_and_tiers():
    _, in_loop = tick_wrapper_cost(calls=2000, repeats=3)
    assert in_loop > 0
    tracer = LayerTracer()
    tracer.span_s["sim.run"] = 1.0
    tracer.tick_s["noc.tpc_mux"] = 0.5
    tracer.ticks["noc.tpc_mux"] = 1000
    cost_in_tick, cost_in_loop = tracer.tick_cost
    metrics = tracer.engine_metrics()
    assert metrics["sim.loop_self_s"] == pytest.approx(
        0.5 - 1000 * cost_in_loop)
    assert metrics["noc.tpc_mux.self_s"] == pytest.approx(
        0.5 - 1000 * cost_in_tick)


def test_sample_is_scaled_by_the_kernel_times_around_it(monkeypatch):
    times = iter([0.016, 0.004, 0.012])
    monkeypatch.setattr(hostspeed, "time_kernel", lambda: next(times))
    speed = hostspeed.HostSpeed()  # warm-up 0.016, then 'before' 0.004
    assert speed.scale() == pytest.approx(hostspeed.NOMINAL_KERNEL_S / 0.008)
    assert speed.kernel_s == [0.004, 0.012]
    assert hostspeed.nominal_factor([0.012, 0.004, 0.006]) == pytest.approx(
        hostspeed.NOMINAL_KERNEL_S / 0.006)


def test_unknown_component_has_no_tier():
    with pytest.raises(KeyError):
        tier_of(Component())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "tpc_volta", "--seconds", "1",
                   cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
