"""Run one workload of the repo benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tpc_volta --seed 1 --seconds 25

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same inputs untraced and traced, checks that both give identical outputs,
and reports the per-layer metrics plus ``trace_overhead_frac``.  Each
metric is printed as ``metric <name> <value> <unit>``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
matched ``perfbench/reference.json``.

``--record`` re-records the reference for ``--scale`` (required after a
deliberate model change); ``--scale smoke`` is the tiny configuration the
benchmark's own tests run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Held-out seed: a change that claims a gain, written against the
#: default seed, must confirm the claim on this seed too.
HELDOUT_SEED = 7919


def _import_repro() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro``.

    The benchmark must measure the tree it sits in, never an installed
    copy, so a missing ``src/repro`` is an error, not a fallback.
    """
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SOURCE}")
    sys.path[:0] = [str(SOURCE), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def host_fingerprint() -> str:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return (
        f"host nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy_version} machine={platform.machine()}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"input seed (default {DEFAULT_SEED}; held-out {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--record", action="store_true",
                        help="re-record the reference for --scale and exit")
    args = parser.parse_args(argv)

    # Environment knobs must not change the workload.
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    _import_repro()
    from perfbench import workloads as wl

    if args.record:
        return record(wl, args.scale)
    if args.workload not in wl.WORKLOADS:  # also catches a missing one
        parser.error(f"unknown workload {args.workload!r}; "
                     f"expected one of {wl.WORKLOADS}")
    reference = wl.load_reference()[args.scale][args.workload]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print(host_fingerprint())
    if args.workload == "fig10_serve":
        gate, metrics, lines = wl.run_serve(
            args.scale, args.seed, args.seconds, bool(args.trace), reference)
    else:
        gate, metrics, lines = wl.run_channel(
            args.workload, args.scale, args.seed, args.seconds,
            bool(args.trace), reference)
    units = wl.per_layer_units() if args.trace else wl.END_TO_END
    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"failed_frac {gate.failed / max(gate.attempted, 1)!r} ratio "
          f"({gate.failed} of {gate.attempted})")
    for message in gate.messages:
        print(f"FAILED {message}")
    result = {
        "correct": gate.failed == 0,
        "attempted": max(gate.attempted, 1),
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def record(wl, scale: str) -> int:
    """Re-record ``reference.json`` for one scale, in-process."""
    try:
        data = wl.load_reference()
    except FileNotFoundError:
        data = {}
    section = {}
    for workload in wl.CHANNEL_WORKLOADS:
        print(f"recording {scale}/{workload}", flush=True)
        section[workload] = wl.record_channel(workload, scale)
    print(f"recording {scale}/fig10_serve", flush=True)
    section["fig10_serve"] = wl.record_serve(scale)
    data[scale] = section
    with open(wl.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
