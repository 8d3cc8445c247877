"""The job function every ``fig10_serve`` round dispatches.

It runs in the sweep service's worker processes, so it lives in a
module of its own that a worker can import by dotted path.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple, Union

from repro.runner.workloads import fig10_point

from .hostspeed import time_kernel

#: Directory (set by the parent) that workers append their spans to.
SPAN_DIR_ENV = "PERFBENCH_SPAN_DIR"


def timed_fig10_point(config, **params: Any) -> Dict[str, Any]:
    """``fig10_point`` unchanged, plus its timings appended to a span file.

    The payload is the one ``fig10_point`` returns, so every served point
    is checked against the in-process reference.  The span holds the
    simulate wall and a host-speed kernel time taken in this worker just
    before and just after it.  Those kernels scale the cold pass's CPU
    time: the parent's own kernels run while the shards are idle, and so
    miss the speed the host gives two busy CPUs.
    """
    before = time_kernel()
    start = perf_counter()
    result = fig10_point(config, **params)
    elapsed = perf_counter() - start
    after = time_kernel()
    span_dir = os.environ.get(SPAN_DIR_ENV)
    if span_dir:
        os.makedirs(span_dir, exist_ok=True)
        path = os.path.join(span_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"simulate_s": elapsed, "kernel_s": [before, after]}) + "\n")
    return result


def read_spans(span_dir: Union[str, Path]) -> Tuple[float, List[float]]:
    """Total ``simulate_s`` and every kernel time the workers wrote."""
    total = 0.0
    kernels: List[float] = []
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            span = json.loads(line)
            total += span["simulate_s"]
            kernels.extend(span["kernel_s"])
    return total, kernels
